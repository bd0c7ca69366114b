"""Scenario benchmark for warpedsphere.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 45 --trace 0

Run it from the root of a checkout; it imports the package from `src/`.
One client calls `warpedsphere.cli.main(argv)` in-process in a closed
loop, one call after another, on seeded inputs (workloads.py), and
measures whole rounds of inputs until --seconds have passed:

* verify    -- `verify` over all five families, grid n in {1001, 2001,
               4001}, uniform and graded; the only workload that runs
               the potential, functionals and verification layers.
* sequence  -- `sequence` on the bump/tendril/bubble dyadic schedules,
               counts 1 and 2: the summary path with no potential solve.
* pointpick -- `pointpick` over all families and radii in (0, 0.5]:
               hundreds of small quadratures per call.  Not listed in
               BENCHMARK.json: its interpreter-bound calls are the most
               sensitive to contention for the CPU (on a shared 2-core VM
               they slowed by up to 1.7x for minutes at a time), so its
               runs did not agree within any allowed bound.  Run it by
               hand, with many runs, to study point_pick.

Every output is checked (outputs.py).  The workload runs in a fresh
interpreter with BLAS/OpenMP threads fixed at 1.

--trace 0 reports the end-to-end metrics:
  setup_s          median over SETUP_PROBES + 1 fresh interpreters of the
                   time from start to the first timed call (import of
                   warpedsphere.cli and input generation)
  scenarios_per_s  metrics carried through per second of call time (one
                   per verify/pointpick call, one per schedule index)
  call_p50_ms      median wall time of one call
  call_tail_ms     the call time with exactly ten calls beyond it; its
                   percentile and the sample count are printed with it
  peak_rss_mb      peak resident memory of the workload process
and prints failed_ratio (failed / attempted calls) beside them.

--trace 1 calls every input twice, untraced and with spans recorded
around every public function of every layer (spans.py), alternating the
order, and reports per-call layer metrics: self time per layer, hot
functions, exact work counts, guard ratios, report bytes and the tracing
overhead (traced against untraced time of the same calls).

The last line of stdout is one JSON object: correct, attempted, failed
and metrics ({name: {value, unit}}).  A run record with versions, thread
settings and raw samples goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))

#: fresh interpreters timed for setup_s: this many set-up-only probes plus
#: the workload process itself
SETUP_PROBES = 4

#: calls that must lie beyond the tail percentile
TAIL_BEYOND = 10

#: the whole run, probes included, is stopped after this many seconds
RUN_TIMEOUT = 170.0

#: BLAS/OpenMP pools fixed at one thread (nproc is 2): one client, and
#: arrays of at most ~16k entries, so extra threads would only add noise
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _worker_env() -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", **THREAD_ENV)
    env.pop("PYTHONPATH", None)
    return env


def _start_worker(args, deadline: float, *extra: str):
    """Start worker.py; return (process, seconds until it printed ready,
    the watchdog that kills it at the deadline)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=_worker_env())
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0),
                               proc.kill)
    watchdog.start()
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        _finish(proc, watchdog)
        raise BenchError("worker failed during set-up")
    return proc, ready, watchdog


def _finish(proc, watchdog) -> str:
    """Read the rest of the worker's stdout and wait for it to end."""
    try:
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return rest


def run_worker(args, deadline: float) -> tuple[list[float], dict]:
    """Set-up times of the probes and the workload process, and the
    workload's result."""
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            proc, ready, watchdog = _start_worker(args, deadline,
                                                  "--setup-only")
            _finish(proc, watchdog)
            setups.append(ready)
    proc, ready, watchdog = _start_worker(args, deadline)
    setups.append(ready)
    lines = _finish(proc, watchdog).strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return setups, json.loads(lines[-1])


def tail(times: list[float]) -> tuple[float, float]:
    """(time, percentile) of the call with TAIL_BEYOND calls beyond it;
    the slowest call when there are too few."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(setups: list[float], result: dict) -> tuple[dict, list]:
    times = result["times"]
    tail_s, tail_pct = tail(times)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "scenarios_per_s": (result["scenarios"] / sum(times), "1/s"),
        "call_p50_ms": (1e3 * statistics.median(times), "ms"),
        "call_tail_ms": (1e3 * tail_s, "ms"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
    }
    notes = [f"call_tail_ms is p{tail_pct:.1f} of {len(times)} calls",
             f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}",
             f"failed_ratio {len(result['failures'])}/{len(times)} = "
             f"{len(result['failures']) / len(times):.4g}"]
    return metrics, notes


#: (metric, kind, span name): kind "self"/"inclusive" in ms, "calls" count
HOT = (
    ("distance.diameter_bounds.self_ms", "self", "distance.diameter_bounds"),
    ("potential.pde_residual.self_ms", "self", "potential.pde_residual"),
    ("potential.solve_quadrature.ms", "inclusive",
     "potential.solve_quadrature"),
    ("metrics.summarize.ms", "inclusive", "metrics.summarize"),
    ("metrics.ball_volume.self_ms", "self", "metrics.ball_volume"),
    ("grids.integrate.self_ms", "self", "grids.integrate"),
    ("grids.cumulative.self_ms", "self", "grids.cumulative"),
    ("potential.flux_residual.calls", "calls", "potential.flux_residual"),
    ("functionals.core_integrals.calls", "calls",
     "functionals.core_integrals"),
    ("functionals.alignment_constants.calls", "calls",
     "functionals.alignment_constants"),
    ("metrics.scalar_curvature.calls", "calls", "metrics.scalar_curvature"),
    ("grids.refine_nodes.calls", "calls", "grids.refine_nodes"),
    ("grids.integrate.calls", "calls", "grids.integrate"),
    ("distance.diameter_bounds.calls", "calls", "distance.diameter_bounds"),
    ("metrics.ball_volume.calls", "calls", "metrics.ball_volume"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(result: dict) -> tuple[dict, list]:
    s = result["summary"]
    metrics = {f"{layer}.self_ms": (1e3 * s["layer_self"][layer], "ms")
               for layer in spans.LAYERS}
    for name, kind, span in HOT:
        value = s[kind].get(span, 0.0)
        metrics[name] = (value, "count") if kind == "calls" \
            else (1e3 * value, "ms")

    calls = s["calls"]
    solves = calls.get("potential.solve_quadrature", 0.0) \
        + calls.get("potential.solve_bvp", 0.0)
    flux = calls.get("potential.flux_residual", 0.0)
    guards = calls.get("functionals.require_valid", 0.0)
    refusals = s["errors"].get(
        "functionals.require_valid:ResidualGuardError", 0.0)
    metrics["potential.guard_evals_per_solve"] = (_ratio(flux, solves),
                                                  "evals/solve")
    metrics["functionals.guard_refusals_ratio"] = (_ratio(refusals, guards),
                                                   "raises/call")

    untraced, traced = result["times"], result["traced_times"]
    metrics["report.bytes_per_call"] = (result["bytes"] / len(untraced), "B")
    metrics["trace_overhead_pct"] = (
        100.0 * (sum(traced) / sum(untraced) - 1.0), "%")
    self_sum = sum(s["layer_self"].values())
    metrics["layers.self_sum_ms"] = (1e3 * self_sum, "ms")
    metrics["call_mean_ms"] = (1e3 * statistics.mean(untraced), "ms")
    notes = [
        f"guard_evals_per_solve base: {solves:.4g} solves per call",
        f"guard_refusals_ratio base: {guards:.4g} require_valid calls "
        "per call",
        f"traced calls: {len(traced)}, traced mean "
        f"{1e3 * statistics.mean(traced):.4f} ms; layer self times sum to "
        f"{1e3 * self_sum:.4f} ms against "
        f"{1e3 * statistics.mean(untraced):.4f} ms untraced",
    ]
    return metrics, notes


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(".git", "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(".git", ref)):
            with open(os.path.join(".git", ref)) as handle:
                return handle.read().strip()
        with open(os.path.join(".git", "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def run_record(args, versions: dict) -> dict:
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), **versions,
        "nproc": os.cpu_count(),
        "threads": THREAD_ENV,
        "git_commit": _git_commit(),
        "client": "closed loop, one client, in-process",
        "grids": workloads.GRIDS[args.workload],
    }


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "warpedsphere", "cli.py")):
        print("error: src/warpedsphere not found; run from the root of a "
              "warpedsphere checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_TIMEOUT
    try:
        setups, result = run_worker(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics, notes = per_layer(result)
        attempted = len(result["times"]) + len(result["traced_times"])
    else:
        metrics, notes = end_to_end(setups, result)
        attempted = len(result["times"])
    failures = result["failures"]

    record = run_record(args, result["versions"])
    record.update(metrics={k: v[0] for k, v in metrics.items()},
                  notes=notes, failures=failures, call_times=result["times"],
                  setup_samples=setups)
    os.makedirs(workloads.WORK_DIR, exist_ok=True)
    with open(os.path.join(workloads.WORK_DIR,
                           f"record-{args.workload}-{args.seed}-"
                           f"{args.trace}.json"), "w") as handle:
        json.dump(record, handle, indent=1)

    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:14.6g} {unit}")
    record_line = {k: record[k] for k in ("python", "numpy", "scipy", "nproc",
                                          "threads", "git_commit", "grids")}
    for line in notes + [f"run: {json.dumps(record_line)}"] \
            + [f"FAILED {f}" for f in failures[:10]]:
        print(f"# {line}")
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
