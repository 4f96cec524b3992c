#!/usr/bin/env python3
"""Per-demo stage times of one or more cohist checkouts, for a by-hand A/B.

    python3 scripts/demo_times.py CHECKOUT [CHECKOUT ...] [--rounds 10] [--passes 20]

Each round runs every checkout once, each in a fresh process, one after
another; the order of the checkouts alternates from round to round, so a
drift in the host's speed falls on all of them alike.  A process imports
cohist from the checkout's `src/`, runs the ten built-in demos `--passes`
times and times the four steps of `cli.run_text` for each demo with
`time.perf_counter`: `parse`, `resolve`, `execute` and `render_machine`.
The table gives, per demo and step, the median over all passes of all rounds
in ms, one column per checkout, and the ratio of each later checkout to the
first.  OpenBLAS runs with one thread, as in the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

# Set before numpy is imported, here and (inherited) in every worker.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

STEPS = ("parse", "resolve", "execute", "render", "total")


def worker(checkout: pathlib.Path, passes: int) -> dict:
    """{demo: {step: [seconds per pass]}} for one checkout, in this process."""
    sys.path.insert(0, str(checkout.resolve() / "src"))
    from cohist import cli, demos

    texts = [(name, demos.demo_text(name)) for name, _ in demos.list_demos()]
    times = {name: {step: [] for step in STEPS} for name, _ in texts}
    for _ in range(passes):
        for name, text in texts:
            t0 = time.perf_counter()
            scenario = cli.parse(text)
            t1 = time.perf_counter()
            env = cli.resolve(scenario)
            t2 = time.perf_counter()
            records, status = cli.execute(scenario, env, None)
            t3 = time.perf_counter()
            cli.render_machine(scenario.name, records, status)
            t4 = time.perf_counter()
            for step, dt in zip(STEPS, (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t4 - t0)):
                times[name][step].append(dt)
    return times


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs="+", type=pathlib.Path)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--passes", type=int, default=20)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(worker(args.checkouts[0], args.passes)))
        return 0

    merged: list[dict] = [{} for _ in args.checkouts]
    for r in range(args.rounds):
        order = range(len(args.checkouts))
        for i in (order if r % 2 == 0 else reversed(order)):
            proc = subprocess.run(
                [sys.executable, __file__, "--worker", "--passes", str(args.passes),
                 str(args.checkouts[i])],
                capture_output=True, text=True, check=True, timeout=600)
            for name, steps in json.loads(proc.stdout).items():
                for step, samples in steps.items():
                    merged[i].setdefault(name, {}).setdefault(step, []).extend(samples)

    heads = [f"{str(c)[-24:]:>24}" for c in args.checkouts]
    ratios = ["ratio" for _ in args.checkouts[1:]]
    print(f"{'demo':<24} {'step':<8} " + " ".join(heads) + " " + " ".join(ratios))
    for name in merged[0]:
        for step in STEPS:
            ms = [1e3 * statistics.median(m[name][step]) for m in merged]
            print(f"{name:<24} {step:<8} " + " ".join(f"{x:>24.4f}" for x in ms) + " "
                  + " ".join(f"{x / ms[0]:5.3f}" for x in ms[1:]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
