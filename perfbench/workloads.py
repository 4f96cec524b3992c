"""Workloads of the cohist benchmark.

Each workload is a list of cases: a scenario text that is handed to
`cohist.cli.run_text`, plus a check of the report it returns.  The generated
workloads derive every input from the workload seed, and their checks work
out the expected answers with numpy alone, from the same seeded parameters,
without calling any cohist code.
"""

from __future__ import annotations

import itertools
import math
import pathlib
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# cohist's default consistency tolerances; no scenario overrides them.
TOL_CONSISTENCY = 1e-8
FLOOR = 1e-12

# wide-consistent: d = 8, five times, full basis at the four later times.
WIDE_D, WIDE_TIMES, WIDE_COUNT = 8, 5, 10_000
WIDE_N = WIDE_D ** (WIDE_TIMES - 1) + 1
# raw-dense: d = 4, four times, history-space dimension 4^4 = 256.
RAW_D, RAW_TIMES = 4, 4
RAW_N_FINE = RAW_D ** RAW_TIMES
RAW_N_COARSE = 2 ** RAW_TIMES


@dataclass
class Case:
    """One scenario of a workload pass; `check` returns None or what is wrong."""

    name: str
    text: str
    params: dict = field(default_factory=dict, repr=False)
    check: Callable[[str, int], str | None] | None = field(default=None, repr=False)


def setup(workload: str, seed: int):
    """Import cohist and build the workload's scenario texts: the timed set-up.

    Returns the `cohist.cli` module and the cases of one workload pass.
    """
    import cohist.cli

    if workload == "demo-corpus":
        from cohist.demos import DEMOS, demo_text

        order = np.random.default_rng([seed, 0]).permutation(len(DEMOS))
        names = list(DEMOS)
        cases = [Case(names[i], demo_text(names[i])) for i in order]
    elif workload == "wide-consistent":
        cases = [_wide_case(seed)]
    elif workload == "raw-dense":
        cases = [_raw_case(seed)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return cohist.cli, cases


def attach_checks(workload: str, cases: list[Case], root: pathlib.Path) -> None:
    """Give every case its correctness check (not part of the timed set-up)."""
    for case in cases:
        if workload == "demo-corpus":
            case.check = _golden_check(root / "tests" / "golden" / f"{case.name}.txt")
        elif workload == "wide-consistent":
            case.check = _wide_check(case.params)
        else:
            case.check = _raw_check(case.params)


def closed_forms(workload: str) -> dict[str, float]:
    """Per-pass counter values that follow from the workload's sizes."""
    def pairs(n: int) -> int:
        return n * (n - 1) // 2

    if workload == "wide-consistent":
        # One probability and one sample query on one family: two D
        # computations of the same (family, dynamics, tolerances).
        return {"histories.histories": WIDE_N,
                "histories.validate_pairs": 0, "histories.dense_bytes": 0,
                "histories.compat_pairs": 0,
                "dynamics.functional_calls": 2,
                "dynamics.pairs_checked": 2 * pairs(WIDE_N),
                "dynamics.functional_reuse": 0.5,
                "dynamics.d_bytes_max": WIDE_N ** 2 * 16}
    if workload == "raw-dense":
        # Both raw families are validated; the compatibility query computes D
        # of the common refinement (the fine family again, as a new object),
        # then consistency and probability compute D of the fine family.
        space_dim = RAW_D ** RAW_TIMES
        return {"histories.histories": RAW_N_FINE + RAW_N_COARSE,
                "histories.validate_pairs": pairs(RAW_N_FINE) + pairs(RAW_N_COARSE),
                "histories.dense_bytes": (RAW_N_FINE + RAW_N_COARSE) * space_dim ** 2 * 16,
                "histories.compat_pairs": RAW_N_FINE * RAW_N_COARSE,
                "dynamics.functional_calls": 3,
                "dynamics.pairs_checked": 3 * pairs(RAW_N_FINE),
                "dynamics.functional_reuse": 2 / 3,
                "dynamics.d_bytes_max": RAW_N_FINE ** 2 * 16}
    # The demos declare no raw family and ask no family-compatibility query.
    return {"histories.validate_pairs": 0, "histories.dense_bytes": 0,
            "histories.compat_pairs": 0}


# ---------------------------------------------------------------- formatting

def _f(x: float) -> str:
    return f"{float(x):.17g}"


def _c(z: complex) -> str:
    z = complex(z)
    return f"{z.real:.17g}{z.imag:+.17g}i"


def _matrix(m: np.ndarray) -> str:
    return " ; ".join(" ".join(_c(z) for z in row) for row in m)


def _roundtrip(m: np.ndarray) -> np.ndarray:
    """The values cohist parses back from the text we write."""
    return np.vectorize(lambda z: complex(float(_f(z.real)), float(_f(z.imag))))(m)


# ------------------------------------------------------------ report parsing

_COMPLEX = re.compile(r"([+-]?\d\.\d+e[+-]\d+)([+-]\d\.\d+e[+-]\d+)i")


def parse_report(report: str) -> tuple[list[tuple[str, list[tuple[str, str]]]], int]:
    """Machine report -> ([(kind, [(key, rest), ...]) per record], status)."""
    records: list[tuple[str, list[tuple[str, str]]]] = []
    status = None
    for line in report.splitlines():
        key, _, rest = line.partition(" ")
        if key == "record":
            records.append((rest.split()[1], []))
        elif key == "status":
            status = int(rest)
        elif key not in ("scenario", "end"):
            records[-1][1].append((key, rest))
    if status is None:
        raise ValueError("report has no status line")
    return records, status


def _values(lines: list[tuple[str, str]], key: str) -> list[str]:
    return [rest for k, rest in lines if k == key]


def _one(lines: list[tuple[str, str]], key: str) -> str:
    found = _values(lines, key)
    if len(found) != 1:
        raise ValueError(f"expected one {key!r} line, found {len(found)}")
    return found[0]


def _close(got: float, want: float, rel: float, abs_: float) -> bool:
    return abs(got - want) <= max(rel * abs(want), abs_)


# ---------------------------------------------------------------- demo-corpus

def _golden_check(path: pathlib.Path):
    golden = path.read_text()
    want_status = int(golden.rstrip("\n").rsplit("\n", 1)[-1].split()[1])

    def check(report: str, status: int) -> str | None:
        if status != want_status:
            return f"exit status {status}, golden has {want_status}"
        if report != golden:
            return f"report differs from {path.name}"
        return None

    return check


# ------------------------------------------------------------ wide-consistent

def _wide_case(seed: int) -> Case:
    """Pure generic initial state, full basis at four later times, and a
    step unitary that permutes the basis with phases.

    Every chain ket is a multiple of one basis vector, and only one history
    reaches each final basis vector with nonzero amplitude, so the family is
    consistent with at most d weighted histories.
    """
    rng = np.random.default_rng([seed, 1])
    d = WIDE_D
    amps = rng.normal(size=d) + 1j * rng.normal(size=d)
    amps /= np.linalg.norm(amps)
    perm = rng.permutation(d)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=d)
    u = np.zeros((d, d), dtype=complex)
    u[perm, np.arange(d)] = np.exp(1j * phases)
    t_event = int(rng.integers(1, WIDE_TIMES))
    labels = sorted(int(x) for x in rng.choice(d, size=2, replace=False))
    sample_seed = int(rng.integers(2 ** 31))
    where = f"{t_event}={','.join(str(x) for x in labels)}"
    later = " ".join(["b"] * (WIDE_TIMES - 1))
    text = "\n".join([
        "scenario wide-consistent",
        f"system s dim {d}",
        "state psi system s amps " + " ".join(_c(a) for a in amps),
        f"operator u system s matrix {_matrix(u)}",
        "pd b system s basis",
        "grid g times " + " ".join(str(t) for t in range(WIDE_TIMES)),
        "dynamics dyn system s grid g unitaries " + " ".join(["u"] * (WIDE_TIMES - 1)),
        f"family wide system s grid g fixed psi {later}",
        f"query probability family wide dynamics dyn where {where}",
        f"query sample family wide dynamics dyn count {WIDE_COUNT} seed {sample_seed}",
    ]) + "\n"
    params = {"psi": _roundtrip(amps), "u": _roundtrip(u), "t_event": t_event,
              "labels": labels, "where": where, "sample_seed": sample_seed}
    return Case("wide-consistent", text, params)


def wide_expected(params: dict) -> dict:
    """History weights from chain kets, simulated directly.

    With the rank-1 initial projector |psi><psi|, the chain operator of
    history (i_1..i_f) is |k><psi| with k = A e_{i_f} and amplitude
    A = (U psi)[i_1] U[i_2, i_1] ... U[i_f, i_{f-1}], so D(a, b) = <k_a|k_b>.
    """
    psi, u = params["psi"], params["u"]
    psi = psi / np.linalg.norm(psi)
    amp = u @ psi
    for _ in range(WIDE_TIMES - 2):
        amp = amp[..., :, None] * u.T
    weights = np.abs(amp.ravel()) ** 2
    # Off-diagonal D couples histories that share their final index; the
    # throwaway history (I - |psi><psi| at t_0) is orthogonal to every chain.
    by_final = np.sort(np.abs(amp.reshape(-1, WIDE_D)), axis=0)
    max_off = float(np.max(by_final[-1] * by_final[-2]))
    labels = [("psi",) + tuple(str(i) for i in combo)
              for combo in itertools.product(range(WIDE_D), repeat=WIDE_TIMES - 1)]
    t, allowed = params["t_event"], {str(x) for x in params["labels"]}
    mask = np.array([lab[t] in allowed for lab in labels])
    total = weights.sum()
    return {"consistent": max_off <= FLOOR, "labels": labels,
            "probs": weights / total, "value": float(weights[mask].sum() / total)}


def _wide_check(params: dict):
    want = wide_expected(params)
    if not want["consistent"]:
        raise ValueError("wide-consistent generator built an inconsistent family")
    probs = want["probs"]
    index = {",".join(lab): i for i, lab in enumerate(want["labels"])}

    def check(report: str, status: int) -> str | None:
        records, rstatus = parse_report(report)
        if status != 0 or rstatus != 0:
            return f"exit status {status}, expected 0"
        if [kind for kind, _ in records] != ["probability", "sample"]:
            return "unexpected record kinds"
        prob, sample = records[0][1], records[1][1]
        if _one(prob, "where") != params["where"]:
            return "probability echoes a different event"
        got = float(_one(prob, "value"))
        if not _close(got, want["value"], 1e-12, 1e-14):
            return f"probability {got!r}, expected {want['value']!r}"
        draws = np.zeros(len(probs), dtype=np.int64)
        for rest in _values(sample, "draws"):
            label, count = rest.split()
            draws[index[label]] = int(count)
        if int(_one(sample, "count")) != WIDE_COUNT or draws.sum() != WIDE_COUNT:
            return f"draw total {draws.sum()}, expected {WIDE_COUNT}"
        if np.any(draws[probs == 0.0] != 0):
            return "draws landed on a history of zero weight"
        # Each count is binomial: allow six standard deviations plus one.
        sigma = np.sqrt(WIDE_COUNT * probs * (1.0 - probs))
        if np.any(np.abs(draws - WIDE_COUNT * probs) > 6.0 * sigma + 1.0):
            return "draw counts are off their weights by more than 6 sigma"
        return None

    return check


# ------------------------------------------------------------------ raw-dense

def _random_hamiltonian(rng: np.random.Generator, d: int) -> np.ndarray:
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (x + x.conj().T) / 2.0


def _raw_case(seed: int) -> Case:
    """All 256 basis-product histories of d = 4 over four times as one raw
    family, a coarse two-element raw family beside it, and generic
    Hamiltonian dynamics, under which the fine family is inconsistent."""
    rng = np.random.default_rng([seed, 2])
    d = RAW_D
    ham = _roundtrip(_random_hamiltonian(rng, d))
    times = [0.0] + [float(_f(t)) for t in np.cumsum(rng.uniform(0.5, 1.5, RAW_TIMES - 1))]
    event_label = int(rng.integers(d))
    fine = list(itertools.product(range(d), repeat=RAW_TIMES))
    coarse = list(itertools.product(range(2), repeat=RAW_TIMES))
    lines = ["scenario raw-dense", f"system s dim {d}"]
    lines += [f"state e{i} system s basis {i}" for i in range(d)]
    lines += [f"operator p{i} system s dyad e{i}" for i in range(d)]
    half = d // 2
    for j, diag in enumerate(([1.0] * half + [0.0] * half, [0.0] * half + [1.0] * half)):
        lines.append(f"operator q{j} system s matrix {_matrix(np.diag(diag))}")
    lines.append(f"operator ham system s matrix {_matrix(ham)}")
    lines.append("grid g times " + " ".join(_f(t) for t in times))
    lines.append("dynamics dyn system s grid g hamiltonian ham")
    for combo in fine:
        name = "h" + "".join(map(str, combo))
        lines.append(f"history {name} factors " + " ".join(f"p{i}" for i in combo))
    for combo in coarse:
        name = "c" + "".join(map(str, combo))
        lines.append(f"history {name} factors " + " ".join(f"q{j}" for j in combo))
    lines.append("family basis system s grid g raw "
                 + " ".join("h" + "".join(map(str, c)) for c in fine))
    lines.append("family halves system s grid g raw "
                 + " ".join("c" + "".join(map(str, c)) for c in coarse))
    lines.append("query compatibility families basis halves dynamics dyn")
    lines.append("query consistency family basis dynamics dyn")
    lines.append(f"query probability family basis dynamics dyn where 1=p{event_label}")
    params = {"ham": ham, "times": times, "fine": fine}
    return Case("raw-dense", "\n".join(lines) + "\n", params)


def raw_expected(params: dict) -> dict:
    """Decoherence functional of the fine family in closed form.

    For basis projectors the chain operator of (i_0..i_f) is A |i_f><i_0| with
    A = prod_m U_m[i_{m+1}, i_m], so D(a, b) = conj(A_a) A_b when a and b share
    their first and last index, and 0 otherwise.
    """
    w, v = np.linalg.eigh(params["ham"])
    times = params["times"]
    steps = [(v * np.exp(-1j * w * (t1 - t0))) @ v.conj().T
             for t0, t1 in zip(times, times[1:])]
    fine = np.array(params["fine"])
    amp = np.ones(len(fine), dtype=complex)
    for m, u in enumerate(steps):
        amp *= u[fine[:, m + 1], fine[:, m]]
    same = ((fine[:, None, 0] == fine[None, :, 0])
            & (fine[:, None, -1] == fine[None, :, -1]))
    dmat = np.where(same, amp.conj()[:, None] * amp[None, :], 0.0)
    weights = np.abs(amp) ** 2
    upper = np.triu_indices(len(fine), 1)
    off = np.abs(dmat[upper])
    scale = np.sqrt(weights[upper[0]] * weights[upper[1]])
    consistent = bool(np.all(off <= np.maximum(TOL_CONSISTENCY * scale, FLOOR)))
    labels = [",".join(f"p{i}" for i in combo) for combo in params["fine"]]
    return {"matrix": dmat, "weights": weights, "labels": labels,
            "consistent": consistent, "max_off": float(off.max()),
            "max_rel": float(np.max(off[scale > FLOOR] / scale[scale > FLOOR]))}


def _parse_row(rest: str) -> list[complex]:
    return [complex(float(a), float(b)) for a, b in _COMPLEX.findall(rest)]


def _raw_check(params: dict):
    want = raw_expected(params)
    # The basis projectors are diagonal, so they commute with the coarse ones;
    # each fine history lies inside one coarse history, so the common
    # refinement is the fine family and the families are compatible exactly
    # when the fine family is consistent.
    if want["consistent"] or want["max_off"] <= 1e-6:
        raise ValueError("raw-dense generator built a (nearly) consistent family")
    n = len(want["labels"])

    def check(report: str, status: int) -> str | None:
        records, rstatus = parse_report(report)
        if status != 1 or rstatus != 1:
            return f"exit status {status}, expected 1 (refused probability)"
        if [kind for kind, _ in records] != ["compatibility", "consistency",
                                             "probability"]:
            return "unexpected record kinds"
        compat, cons, prob = (lines for _, lines in records)
        if _one(compat, "compatible") != "false":
            return "families reported compatible; expected false"
        if int(_one(cons, "n_histories")) != n:
            return "wrong history count"
        if _one(cons, "verdict") != "inconsistent":
            return "fine family reported consistent"
        if not _close(float(_one(cons, "max_offdiag_abs")), want["max_off"], 1e-9, 0.0):
            return "max_offdiag_abs differs"
        if not _close(float(_one(cons, "max_offdiag_rel")), want["max_rel"], 1e-9, 0.0):
            return "max_offdiag_rel differs"
        weights = _values(cons, "weight")
        if [w.split()[0] for w in weights] != want["labels"]:
            return "weight labels differ"
        got_w = np.array([float(w.split()[1]) for w in weights])
        if np.max(np.abs(got_w - want["weights"])) > 1e-12:
            return "history weights differ"
        if _one(cons, "dmatrix") != f"{n} {n}":
            return "dmatrix has the wrong shape"
        got_d = np.array([_parse_row(r) for r in _values(cons, "row")])
        if got_d.shape != (n, n) or np.max(np.abs(got_d - want["matrix"])) > 1e-12:
            return "decoherence functional differs"
        if not _one(prob, "error").startswith("InconsistentFamilyError "):
            return "probability on the inconsistent family was not refused"
        return None

    return check
