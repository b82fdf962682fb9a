"""Benchmark entry point for manet1d.

    python3 perfbench/run.py --workload sweep|mc|routes|all --seed N \\
        --seconds S --trace 0|1

Run from the repository root. Every pass runs in a fresh interpreter
(perfbench/workload.py) with PYTHONPATH=src and the OpenBLAS thread
count pinned, so the library's caches are cold as they are for a CLI
user. Passes repeat until S seconds have gone and at least MIN_PASSES
have run, but none starts that would, at the pace of the slowest pass
so far, end after DEADLINE_S; a slowed-down program then reports fewer
passes instead of none.

--trace 0 reports the end-to-end metrics as medians over the passes:
setup_s, run_s and peak_rss_mb (RUSAGE_SELF of the pass's own process).
--trace 1 alternates untraced and traced passes and reports the
per-layer metrics of the traced passes, plus trace.overhead_ratio
(traced over untraced run_s). Its spans go to perfbench/out/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; attempted and failed count output checks
over all passes (error rate = failed / attempted). Exits non-zero,
without that line, when the library is missing, a pass crashes, or the
first pass outlives DEADLINE_S.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

from workload import WORKLOADS  # noqa: E402

BLAS_THREADS = 1
MIN_PASSES = 2
DEADLINE_S = 170.0

# metric names and units, as BENCHMARK.json declares them
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_pass(workload: str, seed: int, mode: str, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "workload.py"), workload,
           "--seed", str(seed), "--mode", mode, "--out", str(OUT)]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{mode} pass of {workload} exited with {proc.returncode}")
    return json.loads(lines[-1])


def source_provenance() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {"commit": commit, "nproc": os.cpu_count(), "blas_threads_pinned": BLAS_THREADS}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run passes for one workload and aggregate them."""
    start = time.perf_counter()
    modes = ["traced", "full"] if trace else ["full"]
    passes: list[dict] = []
    slowest = 0.0
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        left = DEADLINE_S - (time.perf_counter() - start)
        if passes and 1.2 * slowest > left:
            print(f"note: {len(passes)} passes; another would end after {DEADLINE_S:.0f} s",
                  file=sys.stderr)
            break
        t0 = time.perf_counter()
        try:
            passes.append(run_pass(workload, seed, modes[len(passes) % len(modes)], left))
        except subprocess.TimeoutExpired:
            if not passes:
                raise
            print(f"note: pass {len(passes) + 1} ran past {DEADLINE_S:.0f} s and was stopped",
                  file=sys.stderr)
            break
        slowest = max(slowest, time.perf_counter() - t0)
    if trace and len({p["mode"] for p in passes}) < 2:
        raise RuntimeError("a traced run needs one traced and one untraced pass")

    full = [p for p in passes if p["mode"] == "full"]
    traced = [p for p in passes if p["mode"] == "traced"]
    attempted = sum(p.get("attempted", 0) for p in passes)
    failed = sum(p.get("failed", 0) for p in passes)
    median = lambda xs: statistics.median(xs) if xs else 0.0  # noqa: E731
    if trace:
        layers = {k: median([p["metrics"][k] for p in traced if "metrics" in p])
                  for k in PER_LAYER if k != "trace.overhead_ratio"}
        layers["trace.overhead_ratio"] = (
            median([p["run_s"] for p in traced]) / median([p["run_s"] for p in full]))
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        values = {
            "setup_s": median([p["setup_s"] for p in full]),
            "run_s": median([p["run_s"] for p in full]),
            "peak_rss_mb": median([p["peak_rss_mb"] for p in full]),
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    return {
        "passes": passes,
        "result": {"correct": failed == 0, "attempted": max(attempted, 1),
                   "failed": failed, "metrics": metrics},
    }


def describe(workload: str, seed: int, trace: bool, measured: dict, prov: dict) -> None:
    """Human-readable lines before the result: provenance, per-pass
    figures, failures, and in a traced run each layer's share of run_s."""
    passes, result = measured["passes"], measured["result"]
    print(f"perfbench workload={workload} seed={seed} trace={int(trace)} passes={len(passes)}")
    print("provenance " + json.dumps({**prov, **passes[0].get("provenance", {}),
                                       "workload": workload, "seed": seed}))
    for p in passes:
        figures = " ".join(f"{k}={p[k]:.6g}" for k in ("setup_s", "run_s", "peak_rss_mb", "slots_per_s")
                           if k in p)
        print(f"  {p['mode']:6s} {figures}")
        for failure in p.get("failures", []):
            print(f"    FAILED: {failure}")
    print(f"error_rate = {result['failed']}/{result['attempted']}")
    traced = [p for p in passes if p["mode"] == "traced" and "run_self_s" in p]
    if not traced:
        return
    last = traced[-1]
    print(f"layer self time in the traced run (run_s={last['run_s']:.4g} s):")
    shares = dict(last["run_self_s"], **{"cli.residual": last["metrics"]["cli.residual_s"]})
    for name, secs in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"  {name:32s} {secs:10.4f} s  {100 * secs / last['run_s']:5.1f}%")
    if workload == "mc":
        sim_s = shares.get("simulate.simulate", 0.0)
        moving = last["metrics"]["simulate.visits_us_per_slot"] * 1e-6 * last["simulated_slots"]
        # the probe's loop also counts visits, so the policy pass can read below 0
        print("  split of simulate.simulate's self time, from the visits probe:")
        for name, secs in (("mobility + ranking", moving), ("policy pass", sim_s - moving)):
            print(f"    {name:30s} {secs:10.4f} s  {100 * secs / last['run_s']:5.1f}%")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="manet1d benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "manet1d" / "__init__.py").is_file():
        print(f"error: no manet1d sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    prov = source_provenance()
    trace = bool(args.trace)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            measured = measure(workload, args.seed, args.seconds, trace)
            describe(workload, args.seed, trace, measured, prov)
            results[workload] = measured["result"]
            if trace:
                spans = [{"mode": p["mode"], "spans": p["spans"]} for p in measured["passes"] if "spans" in p]
                path = OUT / f"trace-{workload}-seed{args.seed}.json"
                path.write_text(json.dumps({"trace_id": f"{workload}-{args.seed}",
                                            "provenance": prov, "passes": spans}))
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
