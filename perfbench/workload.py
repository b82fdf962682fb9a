"""One pass of a benchmark workload, in the interpreter it was started in.

    PYTHONPATH=src python3 perfbench/workload.py WORKLOAD --seed N \\
        --mode full|traced --out DIR

  full    set up, run the workload through manet1d.cli.main, check its output
  traced  the same, with the library functions the CLI reaches wrapped in
          spans where their callers look them up (HOOKS); for mc, a probe
          then times mobility and configuration ranking alone. The checks
          read the full-precision values the CLI formatted.

Set-up is everything before the workload's first command: importing
manet1d, parsing the config file and building the exact structures the
command reuses (route list, and for sweep and mc the configuration
kernel and state space via the library's caches). The run is timed from
the end of set-up to the last result; the checks run after the timer
stops. Prints one JSON object on stdout.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
from tracing import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent

PHIS = [i / 10 for i in range(11)]
SWEEP_POLICIES = ["optimal", "best-threshold", "rule:2", "route-break"]
# (policy spec, observe mode, metric label)
MC_POLICIES = [
    ("always", "current", "always"),
    ("route-break", "current", "route-break"),
    ("optimal", "current", "optimal"),
    ("rule:2", "prev", "rule-2-prev"),
]
MC_LABELS = {(policy, observe): label for policy, observe, label in MC_POLICIES}
VISIT_SLOTS = 300_000

CONFIGS = {
    "sweep": {"K": 6, "N": 9, "p_l": 0.3, "p_r": 0.3, "boundary": "stuck", "phi": 0.0},
    "mc": {
        "K": 5, "N": 9, "p_l": 0.3, "p_r": 0.3, "boundary": "stuck", "phi": 0.2,
        "slots": 50_000, "burn_in": 2_000, "replications": 8,
    },
    "routes": {
        "K": 12, "N": 4, "m": 3, "rates": "1, 0.5, 0.25",
        "p_l": 0.3, "p_r": 0.3, "boundary": "stuck", "phi": 0.0,
    },
}
WORKLOADS = tuple(CONFIGS)


def mc_seed(seed: int, retry: bool = False) -> int:
    # Replication r draws from Philox key (seed XOR r); multiples of 8
    # give each run, and its retry, a disjoint block of 8 keys.
    return 8 * (seed + (1 << 31 if retry else 0))


def config_text(values: dict) -> str:
    return "".join(f"{k} = {v}\n" for k, v in values.items())


def write_config(path: Path, values: dict) -> Path:
    path.write_text(config_text(values), encoding="utf-8")
    return path


def cli_argvs(name: str, cfg_path: Path) -> list[list[str]]:
    if name == "sweep":
        return [[
            "sweep", str(cfg_path),
            "--phis", ",".join(str(p) for p in PHIS),
            "--policies", ",".join(SWEEP_POLICIES),
            "--out", "-",
        ]]
    if name == "mc":
        return [
            ["simulate", str(cfg_path), "--policy", policy, "--observe", observe]
            for policy, observe, _ in MC_POLICIES
        ]
    return [["analyze", str(cfg_path)]]


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# CLI output parsers


def parse_sweep(text: str):
    rows = []
    for line in text.splitlines()[1:]:
        phi, policy, gain, _stderr, threshold, _freq = line.split(",")
        rows.append((float(phi), policy, float(gain), float(threshold) if threshold else None))
    return rows


def parse_simulate(text: str) -> dict:
    keys = {"mean reward": "mean", "stderr": "stderr", "discovery frequency": "freq"}
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep and key in keys:
            out[keys[key]] = float(value)
    return out


def parse_analyze(text: str, K: int) -> dict:
    out = {"routes": []}
    end = {"S": 0, "D": K + 1}
    for line in text.splitlines():
        if line.startswith("routes: "):
            out["n_routes"] = int(line.split()[1])
        elif line.startswith("configurations: "):
            out["configs"] = int(line.split()[1])
        elif line.startswith("E[raw throughput] = "):
            out["e_raw"] = float(line.rpartition(" ")[2])
        elif line.startswith("  ("):
            head, _, rest = line.strip().partition("  f=")
            f, _, schedule = rest.partition("  schedule: ")
            pos = tuple(end[t] if t in end else int(t) for t in head.strip("()").split(","))
            sets = []
            if schedule != "-":
                for token in schedule.split():
                    members, _, share = token.rpartition(":")
                    sets.append((tuple(int(i) for i in members.strip("{}").split(",")), float(share)))
            out["routes"].append((pos, float(f), sets))
    return out


# ---------------------------------------------------------------------------
# set-up


def set_up(name: str, cfg_path: Path, T: Tracer):
    with T.span("import"):
        import manet1d
        from manet1d import cli
    if T.enabled:
        instrument(T)
    with T.span("configfile.parse"):
        cfg = manet1d.parse_config_file(str(cfg_path))
    p = cfg.params
    with T.span("grid.enumerate"):
        manet1d.enumerate_routes(p)
        if name != "routes":
            manet1d.enumerate_configurations(p)
    if name != "routes":
        with T.span("mobility.config_kernel"):
            manet1d.config_kernel(p)
        with T.span("mdp.state_space"):
            manet1d.state_space(p)
        with T.span("mdp.build_mdp"):
            manet1d.build_mdp(p)
    return manet1d, cli, cfg


# ---------------------------------------------------------------------------
# traced pass: library functions wrapped where their callers look them up


def _sim_attrs(args, kwargs, report):
    cfg = args[0]
    label = MC_LABELS[cfg.policy, kwargs.get("observe", "current")]
    counted = (cfg.slots - cfg.burn_in) * cfg.replications
    return {
        "policy": label,
        "slots": cfg.slots * cfg.replications,
        "discoveries": round(report.discovery_frequency * counted),
    }


# (module, function, span name, span attributes from (args, kwargs, result),
#  keep the return value for the checks)
HOOKS = [
    ("manet1d.cli", "enumerate_routes", "grid.enumerate", None, True),
    ("manet1d.cli", "configuration_count", "grid.enumerate", None, True),
    ("manet1d.cli", "node_kernel", "mobility.node_kernel", None, False),
    ("manet1d.cli", "stationary_node_distribution", "mobility.node_stationary", None, False),
    ("manet1d.cli", "route_throughput", "scheduling.route_throughput", None, True),
    ("manet1d.scheduling", "maximal_independent_sets", "scheduling.mis",
     lambda a, k, r: {"sets": len(r)}, False),
    ("manet1d.cli", "expected_raw_throughput", "policies.expected_raw", None, True),
    ("manet1d.policies", "expected_raw_throughput", "policies.expected_raw", None, False),
    ("manet1d.policies", "threshold_candidates", "policies.threshold_candidates",
     lambda a, k, r: {"candidates": len(r)}, False),
    ("manet1d.simulate", "best_threshold_search", "policies.best_threshold_search", None, False),
    ("manet1d.simulate", "build_mdp", "mdp.build_mdp", None, False),
    ("manet1d.simulate", "solve_avg_reward", "mdp.rvi",
     lambda a, k, r: {"sweeps": r.iterations}, False),
    ("manet1d.mdp", "PolicyEvaluator.gain", "mdp.evaluator_gain", None, False),
    ("manet1d.mdp", "PolicyEvaluator.discovery_frequency", "mdp.discovery_frequency", None, False),
    ("manet1d.mdp", "policy_stationary", "mdp.policy_stationary", None, False),
    ("manet1d.simulate", "resolve_policy", "simulate.resolve_policy", None, False),
    ("manet1d.cli", "sweep_phi", "simulate.sweep_phi", None, True),
    ("manet1d.cli", "simulate", "simulate.simulate", _sim_attrs, True),
]


def instrument(T: Tracer) -> None:
    for module, attr, span, attrs, keep in HOOKS:
        T.hook(module, attr, span, attrs, keep)


def traced_result(name: str, returns):
    """The full-precision values the CLI formatted, as the parsers give
    them from its text."""
    got: dict[str, list] = {}
    for fn, args, value in returns:
        got.setdefault(fn, []).append((args, value))
    if name == "sweep":
        (_, result), = got["sweep_phi"]
        return [(r.phi, r.policy, r.gain, r.threshold) for r in result.rows]
    if name == "mc":
        return [{"mean": r.mc_mean, "stderr": r.mc_stderr, "freq": r.discovery_frequency}
                for _, r in got["simulate"]]
    (_, routes), = got["enumerate_routes"]
    (_, configs), = got["configuration_count"]
    (_, e_raw), = got["expected_raw_throughput"]
    return {
        "n_routes": len(routes) - 1,
        "routes": [(args[0].positions, f, list(schedule.sets))
                   for args, (f, schedule) in got["route_throughput"]],
        "configs": configs,
        "e_raw": e_raw,
    }


def probe_visits(m, cfg, seed: int, T: Tracer) -> None:
    """After the run: the mobility-plus-ranking part of the slot loop,
    which simulate does not separate from the policy pass."""
    T.phase = "probe"
    with T.span("simulate.visits"):
        m.simulate_config_visits(cfg.params, VISIT_SLOTS, seed=mc_seed(seed))


def layer_metrics(name: str, m, cfg, T: Tracer, run_s: float) -> dict:
    p = cfg.params
    st = T.self_times()
    s = lambda key: st.get(key, 0.0)  # noqa: E731
    summed = lambda key, attr: sum(sp[attr] for sp in T.named(key))  # noqa: E731
    space = m.state_space(p)
    nnz = 0 if name == "routes" else int((m.config_kernel(p).matrix != 0).sum())
    # a gain call that solved no chain reused the evaluator's cached table
    gains = T.named("mdp.evaluator_gain")
    solved_in = {sp["parent"] for sp in T.named("mdp.policy_stationary")}
    hits = sum(1 for sp in gains if sp["id"] not in solved_in)
    out = {
        "grid.configs": m.configuration_count(p),
        "grid.routes": len(m.enumerate_routes(p)) - 1,
        "grid.enumerate_s": s("grid.enumerate"),
        "scheduling.route_throughput_s": s("scheduling.route_throughput"),
        "scheduling.route_throughput_calls": len(T.named("scheduling.route_throughput")),
        "scheduling.mis_s": s("scheduling.mis"),
        "scheduling.mis_sets": summed("scheduling.mis", "sets"),
        "mobility.config_kernel_s": s("mobility.config_kernel"),
        "mobility.kernel_nnz": nnz,
        "mdp.state_space_s": s("mdp.state_space"),
        "mdp.states": space.n_configs * space.n_routes,
        "mdp.rvi_s": s("mdp.rvi"),
        "mdp.rvi_sweeps": summed("mdp.rvi", "sweeps"),
        "mdp.rvi_calls": len(T.named("mdp.rvi")),
        "mdp.policy_stationary_s": s("mdp.policy_stationary"),
        "mdp.policy_stationary_calls": len(T.named("mdp.policy_stationary")),
        "mdp.evaluator_gain_calls": len(gains),
        "mdp.evaluator_hit_ratio": hits / len(gains) if gains else 0.0,
        "mdp.chain_nnz_computed": nnz * space.n_routes,
        "policies.best_threshold_search_s": s("policies.best_threshold_search"),
        "policies.threshold_candidates": summed("policies.threshold_candidates", "candidates"),
        "policies.expected_raw_s": s("policies.expected_raw"),
        "simulate.resolve_policy_s": T.total("simulate.resolve_policy"),
        "cli.residual_s": run_s - T.top_level("run"),
    }
    visits = T.total("simulate.visits")
    out["simulate.visits_us_per_slot"] = 1e6 * visits / VISIT_SLOTS if visits else 0.0
    slots, sim_total = 0, 0.0
    for _, _, label in MC_POLICIES:
        runs = T.named("simulate.simulate", policy=label)
        n_slots = sum(sp["slots"] for sp in runs)
        # self time: the slot loop, without policy resolution and the rule's E[raw]
        loop_s = T.self_time("simulate.simulate", policy=label)
        out[f"simulate.slot_us.{label}"] = 1e6 * loop_s / n_slots if n_slots else 0.0
        out[f"simulate.discoveries.{label}"] = sum(sp["discoveries"] for sp in runs)
        slots += n_slots
        sim_total += T.total("simulate.simulate", policy=label)
    out["simulate.slots_per_s"] = slots / sim_total if sim_total else 0.0
    return out


# ---------------------------------------------------------------------------
# checks


def check_outputs(name, m, cfg, result, rendered: bool, retry) -> checks.Checks:
    ch = checks.Checks()
    p = cfg.params
    pi = m.stationary_node_distribution(m.node_kernel(p))
    if name == "sweep":
        reference = json.loads((HERE / "reference.json").read_text())["sweep"]
        best0 = checks.expected_best_throughput(p.K, p.N, p.m, p.rates, pi)
        checks.check_sweep(ch, result, [tuple(r) for r in reference], best0, rendered)
    elif name == "mc":
        exact = json.loads((HERE / "reference.json").read_text())["mc"]
        max_f = max(
            float(checks.closed_form_throughput(pos, p.m, p.rates))
            for pos in checks.route_positions(p.K, p.m)
        )
        for (policy, observe, label), report in zip(MC_POLICIES, result):
            if observe == "current":
                # as acceptance criterion 10 does: one retry on a doubled
                # horizon with fresh streams before calling it a failure
                ok = checks.mc_within(report, exact[policy], rendered)
                ch.check(ok or checks.mc_within(retry(policy, observe), exact[policy], True),
                         f"{label}: mc {report['mean']!r} +- {report['stderr']!r} "
                         f"vs exact {exact[policy]!r}")
            else:
                ch.check(0.0 <= report["mean"] <= max_f + checks.slack(max_f, rendered),
                         f"{label}: mean {report['mean']!r} outside [0, {max_f!r}]")
                ch.check(0.0 <= report["freq"] <= 1.0, f"{label}: frequency {report['freq']!r}")
    else:
        checks.check_routes(ch, result, p.K, p.N, p.m, p.rates, pi, rendered)
    return ch


# ---------------------------------------------------------------------------


def provenance() -> dict:
    import numpy
    import scipy

    sim = importlib.import_module("manet1d.simulate")
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = None
    try:
        import numba  # noqa: F401

        numba_imported = True
    except ImportError:
        numba_imported = False
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_imported": numba_imported,
        "simulator_jit": sim._njit.__module__.startswith("numba"),
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def parse_output(name: str, texts: list[str], cfg):
    if name == "sweep":
        return parse_sweep(texts[0])
    if name == "mc":
        return [parse_simulate(text) for text in texts]
    return parse_analyze(texts[0], cfg.params.K)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="one pass of a benchmark workload")
    ap.add_argument("workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("full", "traced"), required=True)
    ap.add_argument("--out", type=Path, required=True, help="directory for generated config files")
    args = ap.parse_args(argv)
    name, seed, traced = args.workload, args.seed, args.mode == "traced"

    values = dict(CONFIGS[name])
    if name == "mc":
        values["seed"] = mc_seed(seed)
    stem = args.out / f"{name}-{seed}-{os.getpid()}"
    cfg_path = write_config(stem.with_suffix(".cfg"), values)
    retry_path = stem.with_suffix(".retry.cfg")
    # an exception or a size guard (exit code 2) is a failed check, not a crash
    failures: list[str] = []
    outputs = None
    try:
        T = Tracer(enabled=traced)
        try:
            m, cli, cfg = set_up(name, cfg_path, T)
        except Exception as e:
            failures.append(f"set-up: {type(e).__name__}: {e}")
        t_setup = time.perf_counter()
        record = {"mode": args.mode, "setup_s": t_setup - T_START}
        if not failures:
            T.phase = "run"
            try:
                outputs = [run_cli(cli, argv) for argv in cli_argvs(name, cfg_path)]
            except Exception as e:
                failures.append(f"{type(e).__name__}: {e}")
        run_s = time.perf_counter() - t_setup
        record["run_s"] = run_s
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        def retry(policy, observe):
            """The same mc run on a doubled horizon with disjoint streams."""
            path = write_config(retry_path, dict(values, seed=mc_seed(seed, retry=True),
                                                 slots=2 * values["slots"]))
            argv = ["simulate", str(path), "--policy", policy, "--observe", observe]
            return parse_simulate(run_cli(cli, argv)[1])

        attempted = 0
        if outputs is not None:
            attempted += len(outputs)
            failures += [f"exit code {code}" for code, _ in outputs if code != 0]
        if outputs is not None and not failures:
            try:
                if traced:
                    if name == "mc":
                        probe_visits(m, cfg, seed, T)
                    T.enabled = False
                    record["metrics"] = layer_metrics(name, m, cfg, T, run_s)
                    record["spans"] = T.spans
                    record["run_self_s"] = T.self_times(phase="run")
                    record["simulated_slots"] = sum(sp["slots"] for sp in T.named("simulate.simulate"))
                    result = traced_result(name, T.returns)
                else:
                    result = parse_output(name, [text for _, text in outputs], cfg)
                    if name == "mc":
                        record["slots_per_s"] = cfg.slots * cfg.replications * len(outputs) / run_s
                ch = check_outputs(name, m, cfg, result, not traced, retry)
                attempted += ch.attempted
                failures += ch.failures
            except Exception as e:  # a check that raises is a failure
                failures.append(f"{type(e).__name__}: {e}")
        record["attempted"] = max(attempted, len(failures), 1)
        record["failed"] = len(failures)
        record["failures"] = failures[:10]
        record["provenance"] = provenance()
        print(json.dumps(record))
        return 0
    finally:
        for path in (cfg_path, retry_path):
            path.unlink(missing_ok=True)


if __name__ == "__main__":
    sys.exit(main())
