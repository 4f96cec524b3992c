#!/usr/bin/env python3
"""SHA-256 digests of the benchmark's inputs and reports, to compare two checkouts.

    python3 scripts/report_digest.py [CHECKOUT]

Takes the scenario texts that `perfbench/workloads.py` of CHECKOUT (default:
this repository) builds: raw-dense seeds 1, 2, 3 and 5, wide-consistent
seed 1 and the ten demos.  Prints one `digest - workload seed-or-name input`
line per text, then runs `cohist.cli.run_text` of the same checkout on each
text in machine and human mode and prints one `digest exit-status workload
seed-or-name mode` line per report.  Last, for each demo, it runs every
text that deletes one line, or one token of one line, of the demo's text,
and prints one `digest - demo name errors` line over the (exit status, first
report line) pair of each, so a grammar change shows which errors it moves.
To check that a change keeps every scenario text (`demo_text` among them),
every report and every error byte-identical, run it on both checkouts and
compare:

    python3 scripts/report_digest.py /path/to/parent > parent.txt
    python3 scripts/report_digest.py > change.txt
    diff parent.txt change.txt
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import sys

# As in perfbench/run.py: one BLAS thread, set before numpy is imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

RUNS = [("raw-dense", seed) for seed in (1, 2, 3, 5)] + [("wide-consistent", 1)]


def deletions(text: str):
    """`text` without one of its lines, then without one token of one line."""
    lines = text.splitlines()
    for i in range(len(lines)):
        yield "\n".join(lines[:i] + lines[i + 1:]) + "\n"
    for i, line in enumerate(lines):
        tokens = line.split()
        for j in range(len(tokens)):
            shorter = " ".join(tokens[:j] + tokens[j + 1:])
            yield "\n".join(lines[:i] + [shorter] + lines[i + 1:]) + "\n"


def main(argv: list[str]) -> int:
    root = pathlib.Path(argv[1] if len(argv) > 1 else pathlib.Path(__file__).parent.parent)
    sys.path[:0] = [str(root.resolve() / "src"), str(root.resolve() / "perfbench")]
    import workloads

    cli, demos = workloads.setup("demo-corpus", 1)
    cases = [(workload, str(seed), case.text) for workload, seed in RUNS
             for case in workloads.setup(workload, seed)[1]]
    cases += sorted(("demo", case.name, case.text) for case in demos)
    for workload, which, text in cases:
        digest = hashlib.sha256(text.encode()).hexdigest()
        print(f"{digest} - {workload} {which} input", flush=True)
    for workload, which, text in cases:
        for mode, machine in (("machine", True), ("human", False)):
            report, status = cli.run_text(text, machine=machine)
            digest = hashlib.sha256(report.encode()).hexdigest()
            print(f"{digest} {status} {workload} {which} {mode}", flush=True)
    for which, text in sorted((case.name, case.text) for case in demos):
        pairs = []
        for mutant in deletions(text):
            report, status = cli.run_text(mutant, machine=True)
            first = report.partition("\n")[0]
            pairs.append(f"{status} {first}\n")
        digest = hashlib.sha256("".join(pairs).encode()).hexdigest()
        print(f"{digest} - demo {which} errors", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
