"""The benchmark's traced self-check, run as its own process.

`perfbench/run.py --trace 1` wraps cohist's functions by name, keeps the
families of each scenario alive, and checks every report: the demo corpus
byte for byte against `tests/golden/`, raw-dense against a closed form
computed with numpy alone, and the per-pass work counters against the
workload sizes.  Its last output line is one JSON object.

It also requires the module self times of the traced passes to add up to
the wall time of the untraced passes, within the tracing overhead.  That
compares two timing runs made one after the other, and it fails whenever the
host happens to run the traced passes faster than the untraced ones by more
than the counter work the tracer does outside its spans (about 1% of a
pass).  So a run whose only problem is that comparison is repeated, up to
ATTEMPTS runs; a failed report or a wrong count fails at once.
"""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
ATTEMPTS = 5
SELF_TIME_PROBLEM = "self times sum to "


def traced_run(workload):
    """(the JSON result, the problem lines it printed, its whole output)."""
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "2", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.strip().splitlines()
    problems = [line for line in lines
                if ", closed form " in line or line.startswith(SELF_TIME_PROBLEM)]
    return json.loads(lines[-1]), problems, run.stdout


@pytest.mark.parametrize("workload", ["demo-corpus", "raw-dense"])
def test_traced_self_check_is_correct(workload):
    for _ in range(ATTEMPTS):
        result, problems, out = traced_run(workload)
        assert result["failed"] == 0, out
        assert all(p.startswith(SELF_TIME_PROBLEM) for p in problems), out
        if result["correct"]:
            return
        assert problems, out
    pytest.fail(f"self-time check failed in {ATTEMPTS} runs:\n{out}")
