"""Record the exact values the sweep and mc checks compare against.

    PYTHONPATH=src python3 perfbench/record_reference.py > perfbench/reference.json

Run it only on a commit whose exact results are trusted; the committed
file was recorded at the commit that introduced the benchmark. It holds
full-precision gains and thresholds of the sweep grid and the exact gains
of the mc workload's current-probe policies.
"""

from __future__ import annotations

import json
import sys

from manet1d import PolicyEvaluator, build_mdp, parse_config_text, sweep_phi
from manet1d.simulate import parse_policy_spec, resolve_policy

from workload import CONFIGS, MC_POLICIES, PHIS, SWEEP_POLICIES, config_text


def main() -> int:
    sweep = sweep_phi(parse_config_text(config_text(CONFIGS["sweep"])), PHIS, SWEEP_POLICIES)
    rows = [[r.phi, r.policy, r.gain, r.threshold] for r in sweep.rows]

    params = parse_config_text(config_text(CONFIGS["mc"])).params
    mdp = build_mdp(params)
    evaluator = PolicyEvaluator(mdp)
    mc = {}
    for policy, observe, _ in MC_POLICIES:
        if observe == "current":
            actions, _ = resolve_policy(parse_policy_spec(policy), params, mdp=mdp, evaluator=evaluator)
            mc[policy] = evaluator.gain(actions, phi=params.phi)
    body = ",\n  ".join(json.dumps(r) for r in rows)
    sys.stdout.write(f'{{"sweep": [\n  {body}\n ],\n "mc": {json.dumps(mc)}}}\n')
    return 0


if __name__ == "__main__":
    sys.exit(main())
