"""How close does the closed-form threshold rule get to optimal?

For each mobility level p and discovery cost phi, computes the exact
gain of the optimal policy, the best threshold policy, the closed-form
rule threshold (1 - phi^x) * E[raw], and the route-break policy, then
reports the rule's ratios against the two upper references:

    python scripts/threshold_rule_study.py --K 5 --N 10 --ps 0.1,0.3,0.5
"""

from __future__ import annotations

import argparse

from manet1d import (
    NetworkParams,
    PolicyEvaluator,
    build_mdp,
    route_break_policy,
    rule_threshold,
    solve_avg_reward,
    threshold_policy,
)
from manet1d.policies import best_threshold_search


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--K", type=int, default=5)
    ap.add_argument("--N", type=int, default=10)
    ap.add_argument("--ps", default="0.1,0.3,0.5",
                    help="comma-separated symmetric move probabilities")
    ap.add_argument("--phis", default=",".join(f"{0.1 * i:.1f}" for i in range(1, 10)))
    ap.add_argument("--x", type=float, default=2.0, help="rule exponent")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    ps = [float(v) for v in args.ps.split(",") if v.strip()]
    phis = [float(v) for v in args.phis.split(",") if v.strip()]

    print(f"{'p':>5} {'phi':>5} {'optimal':>10} {'best-thr':>10} "
          f"{'rule':>10} {'rt-break':>10} {'rule/bt':>8} {'rule/opt':>9}")
    worst_bt, worst_opt = 1.0, 1.0
    for p in ps:
        params = NetworkParams(K=args.K, N=args.N, p_l=p, p_r=p)
        mdp = build_mdp(params)
        evaluator = PolicyEvaluator(mdp)
        rb_table = route_break_policy(mdp)
        v0 = None
        for phi in phis:
            sol = solve_avg_reward(mdp.with_phi(phi), v0=v0, held_only=True)
            v0 = sol.bias
            _, gain_bt = best_threshold_search(mdp.with_phi(phi), evaluator)
            theta = rule_threshold(params.with_phi(phi), args.x)
            gain_rule = evaluator.gain(threshold_policy(mdp, theta), phi=phi)
            gain_rb = evaluator.gain(rb_table, phi=phi)
            r_bt = gain_rule / gain_bt
            r_opt = gain_rule / sol.gain
            worst_bt = min(worst_bt, r_bt)
            worst_opt = min(worst_opt, r_opt)
            print(f"{p:>5.2f} {phi:>5.2f} {sol.gain:>10.6f} {gain_bt:>10.6f} "
                  f"{gain_rule:>10.6f} {gain_rb:>10.6f} {r_bt:>8.4f} {r_opt:>9.4f}")
    print(f"\nworst rule/best-threshold = {worst_bt:.4f}")
    print(f"worst rule/optimal        = {worst_opt:.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
