"""Command-line interface.

Subcommands:
  analyze  <config>                 network facts: routes, rates, E[raw]
  solve    <config> [--out F]       optimal policy via value iteration
  eval     <config> --policy SPEC   exact gain of a policy
  simulate <config> --policy SPEC   Monte Carlo estimate of a policy
  sweep    <config> --phis ... --policies ... [--out F]

Exit codes: 0 success, 1 configuration/policy parse error,
2 enumeration or size guard tripped, 3 no unique long-run average (a
reducible chain: for example frozen nodes, or a policy such as `never`
that keeps whichever route it starts with), 4 an iterative solver did
not converge within its sweep budget (a nearly periodic walk).
"""

from __future__ import annotations

import argparse
import sys

from .configfile import parse_config_file
from .errors import (
    ConfigError,
    ConvergenceError,
    EnumerationLimitError,
    ReducibleChainError,
)
from .grid import configuration_count, enumerate_routes
from .mdp import build_mdp, solve_avg_reward
from .mobility import node_kernel, stationary_node_distribution
from .policies import expected_raw_throughput
from .scheduling import route_throughput
from .simulate import SimConfig, report_exact, simulate, sweep_phi


def _sig(x: float) -> str:
    """Fixed 10-significant-digit rendering used for every number we emit."""
    return format(float(x), ".10g")


def _params_line(cfg: SimConfig) -> str:
    p = cfg.params
    return (
        f"K={p.K} N={p.N} m={p.m} rates={','.join(_sig(r) for r in p.rates)} "
        f"p_l={_sig(p.p_l)} p_r={_sig(p.p_r)} boundary={p.boundary.value} "
        f"phi={_sig(p.phi)}"
    )


def _schedule_str(schedule) -> str:
    if not schedule.sets:
        return "-"
    return " ".join(
        "{" + ",".join(str(i) for i in links) + "}:" + _sig(share)
        for links, share in schedule.sets
    )


def _cmd_analyze(cfg: SimConfig, args) -> int:
    params = cfg.params
    print(_params_line(cfg))
    kernel = node_kernel(params)
    pi = stationary_node_distribution(kernel)
    print("stationary node distribution: " + " ".join(_sig(v) for v in pi))
    routes = enumerate_routes(params)
    print(f"routes: {len(routes) - 1} non-null + null")
    for route in routes:
        if route.is_null:
            continue
        f, schedule = route_throughput(route, params)
        print(f"  {route}  f={_sig(f)}  schedule: {_schedule_str(schedule)}")
    print(f"configurations: {configuration_count(params)}")
    print(f"E[raw throughput] = {_sig(expected_raw_throughput(params))}")
    return 0


def _cmd_solve(cfg: SimConfig, args) -> int:
    mdp = build_mdp(cfg.params)
    solution = solve_avg_reward(mdp)
    lines = ["state,config,held_route,action,bias"]
    space = mdp.space
    for c in range(space.n_configs):
        config = space.configs[c]
        for r in range(space.n_routes):
            s = c * space.n_routes + r
            act = "discover" if solution.action[c, r] else "continue"
            route = space.routes[r]
            route_txt = "null" if route.is_null else "-".join(
                str(p) for p in route.positions
            )
            config_txt = " ".join(str(v) for v in config.counts)
            lines.append(
                f"{s},{config_txt},{route_txt},{act},{_sig(solution.bias[c, r])}"
            )
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"gain = {_sig(solution.gain)}")
    print(f"iterations = {solution.iterations}")
    print(f"policy written to {args.out}")
    return 0


def _cmd_eval(cfg: SimConfig, args) -> int:
    cfg = _with_policy(cfg, args.policy)
    report = report_exact(cfg)
    print(_params_line(cfg))
    print(f"policy = {report.policy}")
    if report.threshold is not None:
        print(f"threshold = {_sig(report.threshold)}")
    print(f"exact gain = {_sig(report.exact_gain)}")
    print(f"discovery frequency = {_sig(report.discovery_frequency)}")
    return 0


def _cmd_simulate(cfg: SimConfig, args) -> int:
    cfg = _with_policy(cfg, args.policy)
    report = simulate(cfg, observe=args.observe)
    print(_params_line(cfg))
    print(
        f"slots={cfg.slots} burn_in={cfg.burn_in} seed={cfg.seed} "
        f"replications={cfg.replications}"
    )
    print(f"policy = {report.policy}")
    if report.threshold is not None:
        print(f"threshold = {_sig(report.threshold)}")
    print(f"mean reward = {_sig(report.mc_mean)}")
    if report.mc_stderr is not None:
        print(f"stderr = {_sig(report.mc_stderr)}")
    print(f"discovery frequency = {_sig(report.discovery_frequency)}")
    return 0


def _cmd_sweep(cfg: SimConfig, args) -> int:
    try:
        phis = [float(p) for p in args.phis.split(",") if p.strip()]
    except ValueError:
        raise ConfigError(f"bad --phis value {args.phis!r}") from None
    if not phis:
        raise ConfigError("--phis must list at least one value")
    if any(not 0.0 <= p <= 1.0 for p in phis):
        raise ConfigError("--phis values must lie in [0, 1]")
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    if not policies:
        raise ConfigError("--policies must list at least one policy spec")
    result = sweep_phi(cfg, phis, policies)
    lines = ["phi,policy,gain,stderr,threshold,discovery_frequency"]
    for row in result.rows:
        lines.append(
            ",".join(
                [
                    _sig(row.phi),
                    row.policy,
                    _sig(row.gain),
                    "" if row.stderr is None else _sig(row.stderr),
                    "" if row.threshold is None else _sig(row.threshold),
                    _sig(row.discovery_frequency),
                ]
            )
        )
    text = "\n".join(lines) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        print(f"sweep written to {args.out} ({len(result.rows)} rows)")
    return 0


def _with_policy(cfg: SimConfig, policy: str) -> SimConfig:
    import dataclasses

    return dataclasses.replace(cfg, policy=policy)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="manet1d",
        description="Throughput and route-discovery policies on a slotted line network",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="routes, rates and expected raw throughput")
    p.add_argument("config")

    p = sub.add_parser("solve", help="optimal discovery policy via value iteration")
    p.add_argument("config")
    p.add_argument("--out", default="policy.csv", help="policy CSV path")

    p = sub.add_parser("eval", help="exact long-run gain of a policy")
    p.add_argument("config")
    p.add_argument("--policy", required=True)

    p = sub.add_parser("simulate", help="Monte Carlo estimate of a policy")
    p.add_argument("config")
    p.add_argument("--policy", required=True)
    p.add_argument(
        "--observe",
        choices=("current", "prev"),
        default="current",
        help="threshold input: current-slot probe (default) or previous-slot reward",
    )

    p = sub.add_parser("sweep", help="exact gains over a phi grid")
    p.add_argument("config")
    p.add_argument("--phis", required=True, help="comma-separated phi values")
    p.add_argument("--policies", required=True, help="comma-separated policy specs")
    p.add_argument("--out", default="sweep.csv", help="CSV path, or - for stdout")

    return parser


_COMMANDS = {
    "analyze": _cmd_analyze,
    "solve": _cmd_solve,
    "eval": _cmd_eval,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = parse_config_file(args.config)
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except EnumerationLimitError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ReducibleChainError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except ConvergenceError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4


def main_script() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_script()
