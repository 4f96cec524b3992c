#!/usr/bin/env python3
"""End-to-end and per-module benchmark of cohist's `run_text` path.

    python3 perfbench/run.py --workload demo-corpus --seed 1 --seconds 55 --trace 0

Run from a source checkout of the repository: the benchmark imports cohist
from `src/` and reads the goldens from `tests/golden/`.  It is one closed-loop
client: the next scenario is sent only after the previous report returned,
as a CLI user waits for a report.  It starts no threads and runs OpenBLAS
with one thread (see OPENBLAS_NUM_THREADS below).

With `--trace 0` it measures the end-to-end metrics with tracing off, in up
to WORKERS fresh worker processes run one after another (this script with
`--worker`).  With `--trace 1` it runs in this process: first untraced, then
it wraps cohist's modules and runs the same number of workload passes
traced, and reports per-module metrics.  Every report is checked; the last
line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time

# Set before numpy is first imported, here and (inherited) in every worker
# and set-up probe.  On a 2-vCPU host, OpenBLAS's second thread spins after
# start-up and after every threaded call, and slows the interpreter thread
# beside it by up to 2x, by an amount that shifts with the host's scheduling:
# it doubled the time of `import numpy`.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("demo-corpus", "wide-consistent", "raw-dense")

# The measuring window is shared out over up to this many fresh processes,
# one after another: on the reference host, process-to-process speed
# differences were as large as the drift within one process.
WORKERS = 5
# setup_s is the median of this many set-ups, each in a fresh process: the
# workers' own, topped up with set-up-only probes.
SETUP_SAMPLES = 7
_SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[3], sys.argv[4]]
import workloads
workloads.setup(sys.argv[1], int(sys.argv[2]))
print(time.perf_counter() - t0)
"""

# Per-layer metric name -> span name whose self time it reports.
SELF_TIMES = {
    "scenario.parse_s": "scenario.parse",
    "scenario.resolve_s": "scenario.resolve",
    "operators.construct_s": "operators.construct",
    "framework.pd_build_s": "framework.pd_build",
    "framework.query_s": "framework.query",
    "histories.build_s": "histories.build",
    "histories.validate_s": "histories.validate",
    "histories.compat_s": "histories.compat",
    "histories.select_s": "histories.select",
    "dynamics.functional_s": "dynamics.functional",
    "dynamics.chain_s": "dynamics.chain",
    "dynamics.sample_s": "dynamics.sample",
    "dynamics.query_s": "dynamics.query",
    "models.locality_s": "models.locality",
    "models.povm_s": "models.povm",
    "cli.execute_self_s": "cli.execute",
    "cli.render_s": "cli.render",
}
UNITS = {"histories.dense_bytes": "bytes", "dynamics.d_bytes_max": "bytes",
         "cli.report_bytes": "bytes", "dynamics.functional_reuse": "ratio"}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(np)}


def _blas_threads(np) -> int | None:
    """Thread count of the OpenBLAS that numpy wheels bundle, if found."""
    import ctypes

    libs = pathlib.Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("lib*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def set_up(workload: str, seed: int):
    """Timed set-up (import cohist, build the texts), then attach the checks."""
    t0 = time.perf_counter()
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    cli, cases = workloads.setup(workload, seed)
    elapsed = time.perf_counter() - t0
    workloads.attach_checks(workload, cases, ROOT)
    return elapsed, cli, cases


def child_setup_time(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, workload, str(seed), str(SRC), str(HERE)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def worker_main(args: argparse.Namespace) -> int:
    """One measuring process: its raw samples as one JSON line."""
    setup_s, cli, cases = set_up(args.workload, args.seed)
    run = run_passes(cli, cases, args.seconds)
    run["setup_s"] = setup_s
    run["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(run))
    return 0


def measured_run(args: argparse.Namespace) -> dict:
    """Share the window out over fresh worker processes, one at a time, while
    another of them can still finish a pass within it."""
    deadline = time.perf_counter() + args.seconds
    workers: list[dict] = []
    for i in range(WORKERS):
        left = deadline - time.perf_counter()
        if workers and left < max(workers[-1]["pass_walls"]):
            break
        proc = subprocess.run(
            [sys.executable, str(pathlib.Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(left / (WORKERS - i)), "--worker"],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
        workers.append(json.loads(proc.stdout.splitlines()[-1]))
    setups = [w["setup_s"] for w in workers]
    setups += [child_setup_time(args.workload, args.seed)
               for _ in range(SETUP_SAMPLES - len(setups))]
    return {"samples": [x for w in workers for x in w["samples"]],
            "failures": [f for w in workers for f in w["failures"]],
            "rss_mb": max(w["rss_mb"] for w in workers),
            "setup_samples": setups, "workers": len(workers)}


def run_passes(cli, cases, seconds: float, passes: int | None = None,
               after_pass=None) -> dict:
    """Closed loop over whole workload passes for exactly `passes` passes,
    or while the next pass, taken to last as long as the previous one, ends
    within `seconds` (at least one pass)."""
    samples: list[float] = []
    pass_walls: list[float] = []
    failures: list[str] = []
    verified: dict = {}
    start = time.perf_counter()
    while True:
        wall = 0.0
        for case in cases:
            t0 = time.perf_counter()
            report, status = cli.run_text(case.text, machine=True)
            elapsed = time.perf_counter() - t0
            samples.append(elapsed)
            wall += elapsed
            # Identical bytes and status get the identical verdict.
            key = (case.name, status, report)
            if key not in verified:
                try:
                    verified[key] = case.check(report, status)
                except (ValueError, KeyError, IndexError) as err:
                    verified[key] = f"unreadable report: {err}"
            if verified[key] is not None:
                failures.append(f"{case.name}: {verified[key]}")
        pass_walls.append(wall)
        if after_pass is not None:
            after_pass(wall)
        if passes is not None:
            if len(pass_walls) >= passes:
                break
        elif time.perf_counter() - start + wall > seconds:
            break
    return {"samples": samples, "pass_walls": pass_walls, "failures": failures}


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with at least ten samples
    beyond it.  Below 100 samples that percentile is under p90, no tail at
    all, so the maximum (percentile 100) stands in for it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 100:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(run: dict) -> tuple[dict, list[str]]:
    samples, setups = run["samples"], run["setup_samples"]
    tail_s, pct = tail(samples)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "scenario_p50_ms": (1e3 * statistics.median(samples), "ms"),
        "scenario_tail_ms": (1e3 * tail_s, "ms"),
        "scenarios_per_s": (len(samples) / sum(samples), "1/s"),
        "peak_rss_mb": (run["rss_mb"], "MB"),
    }
    notes = [f"{len(samples)} scenarios in {run['workers']} worker processes",
             f"scenario_tail_ms is p{pct:.4g} of {len(samples)} samples"
             + (" (under 100 samples: the maximum)" if pct == 100.0 else ""),
             f"error_rate {len(run['failures']) / len(samples):.6g} (share)",
             f"setup_s median of {len(setups)} set-ups: "
             + " ".join(f"{s:.4f}" for s in setups)]
    return metrics, notes


def traced_run(workload: str, seconds: float, seed: int):
    _, cli, cases = set_up(workload, seed)
    import spans as spans_mod
    import workloads

    untraced = run_passes(cli, cases, seconds / 2.0)
    n_passes = len(untraced["pass_walls"])
    untraced_wall = statistics.median(untraced["pass_walls"])

    tracer = spans_mod.Tracer()
    tracer.install()
    per_pass: list[dict] = []
    kept: list[list] = []
    problems: list[str] = []
    self_sums: list[float] = []
    expected = workloads.closed_forms(workload)

    def after_pass(wall: float) -> None:
        pass_spans, counters = tracer.take()
        kept.append(pass_spans)
        selfs = spans_mod.self_times(pass_spans)
        values = {metric: selfs.get(span, 0.0) for metric, span in SELF_TIMES.items()}
        values.update(counters.values)
        values["dynamics.functional_reuse"] = counters.reuse()
        values["trace.overhead_s"] = wall - untraced_wall
        values["trace.spans"] = len(pass_spans)
        per_pass.append(values)
        self_sums.append(sum(selfs.values()))
        for name, want in expected.items():
            if abs(values[name] - want) > 1e-12 * max(1.0, abs(want)):
                problems.append(f"{name} = {values[name]!r}, closed form {want!r}")

    traced = run_passes(cli, cases, 0.0, passes=n_passes, after_pass=after_pass)
    # Module self times must add up to the scenario wall time, within the
    # tracing overhead (1% slack for the timer calls around them).  Medians
    # over the passes: the host's speed drifts between single passes.
    self_sum = statistics.median(self_sums)
    traced_wall = statistics.median(traced["pass_walls"])
    if abs(self_sum - untraced_wall) > abs(traced_wall - untraced_wall) + 0.01 * traced_wall:
        problems.append(f"self times sum to {self_sum:.6f} s against "
                        f"{untraced_wall:.6f} s untraced, {traced_wall:.6f} s traced "
                        "(pass medians)")
    OUT.mkdir(exist_ok=True)
    spans_mod.write_spans(OUT / f"spans-{workload}-seed{seed}.json", kept)

    metrics = {}
    for name, first in per_pass[0].items():
        # Counts stay whole: the lower median of equal counts is the count.
        median = statistics.median_low if isinstance(first, int) else statistics.median
        metrics[name] = (median(p[name] for p in per_pass),
                         UNITS.get(name, "s" if name.endswith("_s") else "count"))
    notes = [f"{n_passes} untraced and {n_passes} traced passes; pass medians "
             f"{untraced_wall:.6f} s untraced, {traced_wall:.6f} s traced, "
             f"{self_sum:.6f} s of module self time"] + problems
    failures = untraced["failures"] + traced["failures"]
    attempted = len(untraced["samples"]) + len(traced["samples"])
    return metrics, notes, attempted, failures, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cohist" / "__init__.py").is_file() or not (ROOT / "tests" / "golden").is_dir():
        print(f"error: {ROOT} is not a cohist source checkout (needs src/cohist "
              "and tests/golden)", file=sys.stderr)
        return 2

    if args.worker:
        return worker_main(args)

    if args.trace:
        metrics, notes, attempted, failures, problems = traced_run(
            args.workload, args.seconds, args.seed)
    else:
        run = measured_run(args)
        metrics, notes = end_to_end(run)
        attempted, failures, problems = len(run["samples"]), run["failures"], []
    env = environment()

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    for line in notes + failures[:20]:
        print(line)
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
