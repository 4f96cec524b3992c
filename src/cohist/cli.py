"""Command-line interface: scenario checking, running, and built-in demos.

Verbs:
    check <file>      parse and validate a scenario
    run <file>        execute a scenario's queries and print a report
    demo <name>       run a built-in demo scenario
    demos             list the built-in demos

Reports are line-oriented records, rendered from typed fields in one of two
number formats: machine mode (--machine) gives every number 17 significant
digits, so values round-trip exactly; human mode, the default, prints them
`.6g` and each complex entry as `re+imi`.
Exit codes: 0 success, 1 at least one query errored, 2 parse or validation
failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import demos as demos_mod
from .dynamics import (
    _require_consistent,
    conditional_probability,
    decoherence_functional,
    event_weight,
    sample_counts,
)
from .errors import CohistError, ParseError, ValidationError
from .framework import common_refinement, compatible, refines
from .histories import family_compatible
from .models import einstein_locality_check, povm_from_ancilla
from .scenario import Environment, Scenario, parse, resolve


# the two number formats of a real; a complex entry is `re+imi` in the same one
MACHINE = "%.16e"
HUMAN = "%.6g"
_SIGN_BIT = np.int64(-1 << 63)
_FLIP = {"+": "-", "-": "+"}


def _text(value, real: str) -> str:
    """One field value as report text; floats take the `real` format."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(value)
    if isinstance(value, tuple):  # a history label
        return ",".join(value)
    return real % value


def _matrix_rows(matrix: np.ndarray, real: str, head: str) -> list[str]:
    """One `head` line per row of a C-contiguous complex matrix: the row's
    entries as `re+imi` texts, each number in the format `real`.

    An exact +0+0i (bit pattern zero in both parts; -0.0 is formatted) is the
    one shared zero text.  The other entries are formatted once each, all in
    one %-format, except that a below-diagonal entry whose bits are the
    conjugate of its finite mirror's takes the mirror's text with the sign
    of the imaginary part flipped.
    """
    rows, cols = matrix.shape
    if not cols:
        return [head + " "] * rows
    flat = matrix.reshape(-1)
    bits = flat.view(np.int64).reshape(-1, 2)
    nonzero = bits != 0
    at = np.flatnonzero(nonzero[:, 0] | nonzero[:, 1])
    r, c = np.divmod(at, cols)
    mirror = np.where((r > c) & (r < cols), c * cols + r, at)
    mirrored = ((bits[mirror, 0] == bits[at, 0]) & (bits[mirror, 1] == bits[at, 1] ^ _SIGN_BIT)
                & np.isfinite(flat[mirror]))
    own = flat[at[~mirrored]].view(np.float64).tolist()
    parts = (" ".join([f"{real} %+{real[1:]}"] * (len(own) // 2)) % tuple(own)).split(" ")
    zero_parts = (real % 0.0, "+" + real % 0.0)
    zero = "".join(zero_parts) + "i"
    cut = np.searchsorted(at, np.arange(0, rows * cols + 1, cols)).tolist()
    at, slots, mirror, mirrored = at.tolist(), (c + 1).tolist(), mirror.tolist(), mirrored.tolist()
    done = {}  # flat index -> (real text, signed imaginary text)
    k = 0
    out = []
    for i in range(rows):
        line = [head] + [zero] * cols
        for a in range(cut[i], cut[i + 1]):
            if mirrored[a]:
                # a mirror that is exactly +0+0i was not formatted
                re_part, im_part = done.get(mirror[a], zero_parts)
                im_part = _FLIP[im_part[0]] + im_part[1:]
            else:
                re_part, im_part = done[at[a]] = parts[k], parts[k + 1]
                k += 2
            line[slots[a]] = re_part + im_part + "i"
        out.append(" ".join(line))
    return out


class Record:
    """One query's report fields, kept typed until a number format renders
    them: strings, ints, bools, floats, label tuples and matrices."""

    def __init__(self, index: int, kind: str):
        self.index = index
        self.kind = kind
        self.fields: list[tuple[str, tuple | np.ndarray]] = []

    def add(self, key: str, *values) -> None:
        self.fields.append((key, values))

    def add_matrix(self, key: str, matrix: np.ndarray) -> None:
        self.fields.append((key, np.ascontiguousarray(matrix, dtype=np.complex128)))

    def lines(self, real: str, indent: str = "") -> list[str]:
        """This record's report lines, each number in the format `real` and
        each line starting with `indent`.

        A matrix is a `rows cols` line, then one `row` line per matrix row.
        """
        out = []
        for key, values in self.fields:
            if not isinstance(values, np.ndarray):
                out.append(f"{indent}{key} " + " ".join([_text(v, real) for v in values]))
                continue
            rows, cols = values.shape
            out.append(f"{indent}{key} {rows} {cols}")
            out.extend(_matrix_rows(values, real, indent + "row"))
        return out


def _event_spec(spec: dict[int, set[str]]) -> str:
    return " ".join(f"{t}={','.join(sorted(spec[t]))}" for t in sorted(spec))


def _run_consistency(rec: Record, payload: dict, env: Environment) -> None:
    report = decoherence_functional(
        payload["family"], payload["dynamics"],
        tol_consistency=env.tol("tol_consistency"), floor=env.tol("floor"))
    rec.add("n_histories", report.n)
    rec.add("verdict", report.verdict)
    rec.add("max_offdiag_abs", report.max_offdiag_abs)
    rec.add("max_offdiag_rel", report.max_offdiag_rel)
    for label, weight, included in zip(report.labels, report.weights,
                                       report.included.tolist()):
        rec.add("weight", label, weight, *(() if included else ("excluded",)))
    if report.consistent:
        probs = report.probabilities()
        for i in report.included_indices():
            rec.add("probability", report.labels[i], probs[i])
    rec.add_matrix("dmatrix", report.matrix)


def _run_probability(rec: Record, payload: dict, env: Environment) -> None:
    family, dynamics = payload["family"], payload["dynamics"]
    report = decoherence_functional(
        family, dynamics, tol_consistency=env.tol("tol_consistency"),
        floor=env.tol("floor"))
    _require_consistent(report)
    rec.add("where", _event_spec(payload["where"]))
    total = report.total_weight()
    value = event_weight(family, report, payload["where"]) / total
    rec.add("value", value)


def _run_conditional(rec: Record, payload: dict, env: Environment) -> None:
    rec.add("where", _event_spec(payload["where"]))
    rec.add("given", _event_spec(payload["given"]))
    value = conditional_probability(
        payload["family"], payload["dynamics"], payload["where"], payload["given"],
        tol_consistency=env.tol("tol_consistency"), floor=env.tol("floor"))
    rec.add("value", value)


def _run_compatibility(rec: Record, payload: dict, env: Environment) -> None:
    tol = env.tol("tol_alg")
    if "pds" in payload:
        f, g = payload["pds"]
        verdict = compatible(f, g, tol)
        rec.add("objects", "pds")
        rec.add("compatible", verdict)
        if verdict:
            refinement = common_refinement(f, g, tol)
            rec.add("refinement_size", refinement.size)
            rec.add("refinement_labels", *refinement.labels)
    else:
        f1, f2 = payload["families"]
        verdict = family_compatible(
            f1, f2, payload.get("dynamics"), tol,
            tol_consistency=env.tol("tol_consistency"), floor=env.tol("floor"))
        rec.add("objects", "families")
        rec.add("compatible", verdict)


def _run_refinement(rec: Record, payload: dict, env: Environment) -> None:
    rec.add("refines", refines(payload["fine"], payload["coarse"], env.tol("tol_alg")))


def _run_povm(rec: Record, payload: dict, env: Environment) -> None:
    povm = povm_from_ancilla(payload["pd"], payload["state"], payload["ancilla"],
                             tol=env.tol("tol_alg"))
    rec.add("n_elements", len(povm))
    total = np.zeros((povm.dim, povm.dim), dtype=complex)
    for label, element in povm.items():
        rec.add("element", label)
        rec.add("min_eigenvalue", element.min_eigenvalue())
        rec.add_matrix("matrix", element.matrix)
        total = total + element.matrix
    rec.add("completeness_residual", np.linalg.norm(total - np.eye(povm.dim)))


def _run_locality(rec: Record, payload: dict, env: Environment) -> None:
    report = einstein_locality_check(
        payload["experiment"], payload["c_states"],
        tol_consistency=env.tol("tol_consistency"), floor=env.tol("floor"))
    rec.add("name", payload["name"])
    rec.add("n_cstates", len(report.probabilities))
    rec.add("labels", *report.labels)
    for i, probs in enumerate(report.probabilities):
        rec.add("verdict", i, report.verdicts[i])
        rec.add("probabilities", i, *probs)
    rec.add("max_probability_deviation", report.max_probability_deviation)
    rec.add("max_residual_deviation", report.max_residual_deviation)
    rec.add("passed", report.passed)


def _run_sample(rec: Record, payload: dict, env: Environment) -> None:
    family, dynamics = payload["family"], payload["dynamics"]
    count, seed = payload["count"], payload["seed"]
    counts = sample_counts(family, dynamics, seed, count,
                           tol_consistency=env.tol("tol_consistency"),
                           floor=env.tol("floor"))
    rec.add("count", count)
    rec.add("seed", seed)
    labels = family.labels
    for i, drawn in zip(family.included_indices(), counts.tolist()):
        rec.add("draws", labels[i], drawn)


# query kind -> (runner, the query arguments echoed at the top of its record)
RUNNERS = {
    "consistency": (_run_consistency, ("family", "dynamics")),
    "probability": (_run_probability, ("family", "dynamics")),
    "conditional": (_run_conditional, ("family", "dynamics")),
    "compatibility": (_run_compatibility, ("pds", "families", "dynamics")),
    "refinement": (_run_refinement, ("fine", "coarse")),
    "povm": (_run_povm, ("pd", "state")),
    "locality": (_run_locality, ("locality",)),
    "sample": (_run_sample, ("family", "dynamics")),
}


def execute(scenario: Scenario, env: Environment,
            seed_override: int | None = None) -> tuple[list[Record], int]:
    """Run every bound query in order; query errors are recorded, not fatal.

    `seed_override` replaces the seed of every query that has one.
    """
    records: list[Record] = []
    status = 0
    for i, bound in enumerate(env.queries, start=1):
        rec = Record(i, bound.decl.kind)
        runner, echoed = RUNNERS[bound.decl.kind]
        for key, value in bound.decl.args:
            if key in echoed:
                rec.add(key, value)
        payload = bound.payload
        if seed_override is not None and "seed" in payload:
            payload = {**payload, "seed": seed_override}
        try:
            runner(rec, payload, env)
        except CohistError as err:
            rec.add("error", type(err).__name__, str(err))
            status = 1
        records.append(rec)
    return records, status


def render_machine(scenario_name: str, records: list[Record], status: int) -> str:
    out = [f"scenario {scenario_name}"]
    for rec in records:
        out.append(f"record {rec.index} {rec.kind}")
        out.extend(rec.lines(MACHINE))
        out.append("end")
    out.append(f"status {status}\n")
    return "\n".join(out)


def render_human(scenario_name: str, records: list[Record], status: int) -> str:
    out = [f"Scenario: {scenario_name}"]
    for rec in records:
        head = f"[{rec.index}] {rec.kind}"
        out.append("")
        out.append(head)
        out.append("-" * len(head))
        out.extend(rec.lines(HUMAN, "  "))
    out.append("")
    out.append(f"Status: {'ok' if status == 0 else 'query errors occurred'}\n")
    return "\n".join(out)


def run_text(text: str, machine: bool = False,
             tolerance_overrides: dict[str, float] | None = None,
             seed_override: int | None = None) -> tuple[str, int]:
    """Parse, validate, and execute scenario text; returns (report, exit code)."""
    if seed_override is not None and seed_override < 0:
        return f"error: seed must be non-negative, got {seed_override}\n", 2
    try:
        scenario = parse(text)
        env = resolve(scenario, tolerance_overrides)
    except (ParseError, ValidationError) as err:
        return f"error: {err}\n", 2
    records, status = execute(scenario, env, seed_override)
    renderer = render_machine if machine else render_human
    return renderer(scenario.name, records, status), status


def _parse_tolerance_flags(pairs: list[str]) -> dict[str, float]:
    overrides = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"--tolerance expects name=value, got {pair!r}")
        key, value = pair.split("=", 1)
        overrides[key] = float(value)
    return overrides


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cohist",
        description="consistent-histories scenario runner")
    parser.add_argument("--machine", action="store_true",
                        help="emit the machine-readable report format")
    parser.add_argument("--tolerance", action="append", default=[],
                        metavar="NAME=VALUE", help="override a named tolerance")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the seed of every sample query")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the report to a file instead of stdout")
    sub = parser.add_subparsers(dest="verb", required=True)
    p_check = sub.add_parser("check", help="parse and validate a scenario file")
    p_check.add_argument("file")
    p_run = sub.add_parser("run", help="run a scenario file")
    p_run.add_argument("file")
    p_demo = sub.add_parser("demo", help="run a built-in demo")
    p_demo.add_argument("name")
    sub.add_parser("demos", help="list the built-in demos")
    args = parser.parse_args(argv)

    try:
        overrides = _parse_tolerance_flags(args.tolerance)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.seed is not None and args.seed < 0:
        print(f"error: seed must be non-negative, got {args.seed}", file=sys.stderr)
        return 2

    if args.verb == "demos":
        lines = [f"{name}  {desc}" for name, desc in demos_mod.list_demos()]
        print("\n".join(lines))
        return 0

    if args.verb == "demo":
        try:
            text = demos_mod.demo_text(args.name)
        except KeyError:
            print(f"error: unknown demo {args.name!r}; try 'cohist demos'",
                  file=sys.stderr)
            return 2
    else:
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2

    if args.verb == "check":
        try:
            scenario = parse(text)
            resolve(scenario, overrides)
        except (ParseError, ValidationError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        print(f"ok: scenario {scenario.name!r} is valid")
        return 0

    report, status = run_text(text, machine=args.machine,
                              tolerance_overrides=overrides,
                              seed_override=args.seed)
    if status == 2:
        print(report, end="", file=sys.stderr)
        return 2
    if not args.out:
        print(report, end="")
        return status
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report)
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
