"""CLI dispatch, report formats, exit codes, demo corpus."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cohist import decoherence_functional
from cohist.cli import (HUMAN, MACHINE, RUNNERS, Record, main, render_human,
                        render_machine, run_text)
from cohist.demos import DEMOS, demo_text, list_demos
from cohist.scenario import QUERY_KINDS, parse, resolve
from helpers import human_line, per_element_rows

MINIMAL = """\
scenario tiny
system spin dim 2
state xp system spin amps 0.70710678118654752 0.70710678118654752
operator pxp system spin dyad xp
pd z system spin spin z
grid g times 0 1
dynamics free system spin grid g trivial
family f system spin grid g fixed pxp z
query consistency family f dynamics free
query probability family f dynamics free where 1=z+
query sample family f dynamics free count 100 seed 3
"""

# A NaN operator used as dynamics: rejected at construction, so the
# consistency query never sees NaN weights.
NAN_DYNAMICS = """\
scenario nan-dynamics
system s dim 2
state up system s basis 0
operator u system s matrix nan+0i 0+0i ; 0+0i 1+0i
operator pup system s dyad up
pd z system s spin z
grid g times 0 1 2
dynamics dyn system s grid g unitaries u u
family f system s grid g fixed pup z z
query consistency family f dynamics dyn
"""

NON_UNITARY_DYNAMICS = NAN_DYNAMICS.replace("nan+0i", "2+0i")

NON_HERMITIAN_HAMILTONIAN = """\
scenario non-hermitian
system s dim 2
operator h system s matrix 0+0i 1+0i ; 0+0i 0+0i
grid g times 0 1 2
dynamics dyn system s grid g hamiltonian h
"""


# Builder arguments each rejected with a ValueError subclass, which resolve
# reports as `error: line N: ...` with status 2.
INTERVAL_OPERATOR = """\
scenario interval
system x dim 4
operator w system x interval grid 0 1 2 3 window 0.5 1.5
"""

BAD_BUILDER_ARGUMENTS = [
    pytest.param("scenario dup\nsystem q dim 2\nstate up system q basis 0\n"
                 "operator pu system q dyad up\npd z system q projectors pu pu\n",
                 5, "duplicate element labels", id="repeated-pd-member"),
    pytest.param(INTERVAL_OPERATOR.replace("window 0.5 1.5", "window 1.5 0.5"),
                 3, "interval bounds out of order", id="window-out-of-order"),
    pytest.param(INTERVAL_OPERATOR.replace("grid 0 1 2 3", "grid 0 2 1 3"),
                 3, "strictly increasing", id="grid-not-increasing"),
    pytest.param(MINIMAL.replace("fixed pxp z", "fixed pxp z\nhistory h factors pxp pxp\n"
                                 "family r system spin grid g raw h h"),
                 10, "duplicate history labels", id="repeated-raw-history"),
    pytest.param(demo_text("locality").replace(
        "operator ta1 system a matrix 0.93937271284737889+0i -0.34289780745545134+0i ; "
        "0.34289780745545134+0i 0.93937271284737889+0i",
        "operator ta1 system a matrix 2+0i 0+0i ; 0+0i 1+0i"),
        18, "not unitary", id="locality-step-not-unitary"),
]


def machine_value(report: str, record_kind: str, key: str) -> str:
    lines = report.splitlines()
    inside = False
    for line in lines:
        if line.startswith("record ") and line.endswith(record_kind):
            inside = True
        elif line == "end":
            inside = False
        elif inside and line.startswith(key + " "):
            return line[len(key) + 1:]
    raise KeyError(f"{key} not found in {record_kind} record")


class TestRunText:

    def test_minimal_report_and_status(self):
        report, status = run_text(MINIMAL, machine=True)
        assert status == 0
        assert report.startswith("scenario tiny\n")
        assert report.rstrip().endswith("status 0")
        value = float(machine_value(report, "probability", "value"))
        assert abs(value - 0.5) < 1e-12

    def test_machine_numbers_round_trip(self):
        report, _ = run_text(MINIMAL, machine=True)
        raw = machine_value(report, "probability", "value")
        assert float(raw) == 0.5 or abs(float(raw) - 0.5) < 1e-15

    def test_parse_error_is_status_2(self):
        report, status = run_text("scenario x\nbogus\n", machine=True)
        assert status == 2
        assert "error" in report

    def test_validation_error_is_status_2(self):
        bad = MINIMAL.replace("family f system spin grid g fixed pxp z",
                              "family f system spin grid g fixed nope z")
        report, status = run_text(bad, machine=True)
        assert status == 2
        assert "nope" in report

    @pytest.mark.parametrize("text, line, words", BAD_BUILDER_ARGUMENTS)
    def test_bad_builder_argument_is_status_2(self, text, line, words):
        report, status = run_text(text, machine=True)
        assert status == 2
        assert report.startswith(f"error: line {line}: ")
        assert words in report

    def test_query_error_is_status_1_and_later_queries_run(self):
        report, status = run_text(demo_text("inconsistent-triple"), machine=True)
        assert status == 1
        assert "InconsistentFamilyError" in report
        # the compatibility query after the failing ones still produced output
        assert machine_value(report, "compatibility", "compatible") == "false"

    def test_povm_that_fails_completeness_is_a_typed_query_error(self):
        # The elements sum to I within 3.14e-16, above this tol_alg.
        text = ("scenario povm\ntolerance tol_alg 1e-16\nsystem s dim 2\nsystem a dim 2\n"
                "system sa factors s a\nstate a0 system a amps "
                "0.61000618397574979+0.12496471778007319i "
                "-0.76385754679692897-0.16969950802187994i\n"
                "pd bb system sa basis\nquery povm pd bb state a0 ancilla 1\n")
        report, status = run_text(text, machine=True)
        assert status == 1
        assert ("error CompletenessError elements do not sum to the identity: "
                "||sum - I|| = 3.140e-16\n") in report

    @pytest.mark.parametrize("text, override", [
        (MINIMAL.replace("seed 3", "seed -1"), None),
        (MINIMAL, -1),
    ], ids=["scenario-seed", "seed-override"])
    def test_negative_seed_is_status_2(self, text, override):
        report, status = run_text(text, machine=True, seed_override=override)
        assert status == 2
        assert report.startswith("error: ") and "non-negative" in report

    def test_human_mode_runs(self):
        report, status = run_text(MINIMAL, machine=False)
        assert status == 0
        assert "Scenario: tiny" in report

    def test_seed_override_changes_draws(self):
        a, _ = run_text(MINIMAL, machine=True)
        b, _ = run_text(MINIMAL, machine=True, seed_override=99)
        assert machine_value(a, "sample", "seed") == "3"
        assert machine_value(b, "sample", "seed") == "99"

    @pytest.mark.parametrize("name", ["tol_norm", "tol_prob"])
    def test_unused_tolerance_names_rejected(self, name):
        line = MINIMAL.replace("system spin dim 2\n",
                               f"system spin dim 2\ntolerance {name} 0.5\n")
        report, status = run_text(line, machine=True)
        assert status == 2
        assert report == f"error: line 3: unknown tolerance {name!r}\n"
        report, status = run_text(MINIMAL, machine=True,
                                  tolerance_overrides={name: 0.5})
        assert status == 2
        assert report == f"error: unknown tolerance {name!r}\n"

    @pytest.mark.parametrize("name", ["tol_alg", "tol_consistency", "floor"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "0.0", "-5"])
    def test_unusable_tolerance_values_rejected(self, name, value):
        line = MINIMAL.replace("system spin dim 2\n",
                               f"system spin dim 2\ntolerance {name} {value}\n")
        report, status = run_text(line, machine=True)
        assert status == 2
        assert report.startswith(f"error: line 3: tolerance {name!r} must be finite")
        report, status = run_text(MINIMAL, machine=True,
                                  tolerance_overrides={name: float(value)})
        assert status == 2
        assert report.startswith(f"error: tolerance {name!r} must be finite")

    def test_nan_tolerance_does_not_reach_the_verdict(self):
        # a NaN consistency tolerance used to pass validation and refuse a
        # consistent family; a negative one through an override accepted it
        text = demo_text("stern-gerlach")
        for overrides in ({}, {"tol_consistency": -5.0}, {"floor": 0.0}):
            bad = text if overrides else text.replace(
                "scenario stern-gerlach\n",
                "scenario stern-gerlach\ntolerance tol_consistency nan\n")
            report, status = run_text(bad, machine=True, tolerance_overrides=overrides)
            assert status == 2
            assert "verdict" not in report

    def test_tolerance_override_flows_through(self):
        # a loose consistency tolerance flips the inconsistent-triple verdict
        report, status = run_text(demo_text("inconsistent-triple"), machine=True,
                                  tolerance_overrides={"tol_consistency": 10.0})
        assert machine_value(report, "consistency", "verdict") == "consistent"

    # tol_alg reaches the unitary check of a dynamics step and the projector
    # check of a fixed family's initial condition, from a line or an override.
    STEP = ("scenario tol\nsystem s dim 2\ngrid g times 0 1\n"
            "operator u system s matrix {} 0 ; 0 1\n"
            "dynamics d system s grid g unitaries u\n")

    def test_loose_tol_alg_accepts_a_near_unitary_step(self):
        text = self.STEP.format("1.00000001")
        report, status = run_text(text, machine=True)
        assert (report, status) == (
            "error: line 5: not unitary: ||U^dag U - I||=2.000e-08\n", 2)
        loose = text.replace("system s", "tolerance tol_alg 1e-6\nsystem s", 1)
        assert run_text(loose, machine=True)[1] == 0

    def test_tight_tol_alg_override_rejects_a_near_unitary_step(self):
        text = self.STEP.format("1.0000000000005")
        assert run_text(text, machine=True)[1] == 0
        report, status = run_text(text, machine=True,
                                  tolerance_overrides={"tol_alg": 1e-14})
        assert (report, status) == (
            "error: line 5: not unitary: ||U^dag U - I||=1.000e-12\n", 2)

    def test_loose_tol_alg_accepts_a_near_projector_initial_condition(self):
        text = ("scenario tol\nsystem s dim 2\ngrid g times 0 1\n"
                "operator p system s matrix 1.00000001 0 ; 0 0\npd z system s basis\n"
                "family f system s grid g fixed p z\n")
        report, status = run_text(text, machine=True)
        assert (report, status) == (
            "error: line 6: initial condition is not a projector\n", 2)
        loose = text.replace("system s", "tolerance tol_alg 1e-6\nsystem s", 1)
        assert run_text(loose, machine=True)[1] == 0

    # Products, lifts and copies on other dims follow from checked parts and
    # are not checked again: the one check of p is on the `pd pq` line, at
    # the scenario's tol_alg.
    NEAR = ("scenario tol\nsystem s dim 2\nsystem ss factors s s\n"
            "operator p system s matrix 1.00000001 0 ; 0 0\n"
            "operator q system s matrix 0 0 ; 0 1\npd pq system s projectors p q\n"
            "state e0 system s basis 0\noperator pe system s dyad e0\n")

    @pytest.mark.parametrize("line, table", [("pd t system ss tensor pq pq", "pds"),
                                             ("pd t system ss lift pq slot 0", "pds"),
                                             ("operator t system ss tensor pe pe", "operators")])
    def test_loose_tol_alg_reaches_tensor_and_lift_lines(self, line, table):
        text = self.NEAR + line + "\n"
        assert run_text(text, machine=True) == (
            "error: line 6: element 0 (p) is not a projector\n", 2)
        loose = text.replace("system s", "tolerance tol_alg 1e-6\nsystem s", 1)
        assert run_text(loose, machine=True) == ("scenario tol\nstatus 0\n", 0)
        assert getattr(resolve(parse(loose)), table)["t"].dims == (2, 2)


class TestDemos:

    def test_registry_has_ten_demos(self):
        names = [n for n, _ in list_demos()]
        assert len(names) == 10
        assert names == ["stern-gerlach", "measurement", "preparation",
                         "contextual-preparation", "povm", "singlet",
                         "locality", "unitary-family", "inconsistent-triple",
                         "three-toss"]

    @pytest.mark.parametrize("name", sorted(DEMOS))
    def test_every_demo_produces_a_report(self, name):
        report, status = run_text(demo_text(name), machine=True)
        assert report.startswith(f"scenario {name}\n")
        # the intentionally inconsistent demo refuses its probability query
        expected = 1 if name == "inconsistent-triple" else 0
        assert status == expected

    def test_measurement_demo_values(self):
        report, _ = run_text(demo_text("measurement"), machine=True)
        assert float(machine_value(report, "probability", "value")) == \
            pytest.approx(0.36, abs=1e-12)

    def test_singlet_demo_anticorrelation(self):
        report, _ = run_text(demo_text("singlet"), machine=True)
        assert float(machine_value(report, "conditional", "value")) == \
            pytest.approx(1.0, abs=1e-12)

    def test_locality_demo_passes(self):
        report, _ = run_text(demo_text("locality"), machine=True)
        assert machine_value(report, "locality", "passed") == "true"
        dev = float(machine_value(report, "locality", "max_probability_deviation"))
        assert dev <= 1e-10

    def test_locality_on_a_composite_c_system(self):
        # The C states sit on dims (2, 2); the joint initial condition is
        # re-dimmed to the experiment's (2, 2, 4) before the family is built.
        text = ("scenario loc\nsystem a dim 2\nsystem b dim 2\nsystem x dim 2\n"
                "system y dim 2\nsystem c factors x y\nsystem ab factors a b\n"
                "system bc factors b x y\nstate phi0 system ab singlet\n"
                "state c1 system c basis 0\nstate c2 system c basis 3\n"
                "operator ta system a identity\noperator tbc system bc identity\n"
                "pd za system a spin z\npd xa system a spin x\ngrid g times 0 1 2\n"
                "locality L systems a b c grid g initial phi0 pds za xa\n"
                "locality L step ta tbc\nlocality L step ta tbc\n"
                "locality L cstate c1\nlocality L cstate c2\n"
                "query locality locality L\n")
        report, status = run_text(text, machine=True)
        assert status == 0
        assert machine_value(report, "locality", "passed") == "true"
        probs = machine_value(report, "locality", "probabilities 1").split()
        assert [float(x) for x in probs] == pytest.approx([0.25] * 4 + [0], abs=1e-12)

    def test_povm_demo_complete(self):
        report, _ = run_text(demo_text("povm"), machine=True)
        res = float(machine_value(report, "povm", "completeness_residual"))
        assert res < 1e-10


class TestMainEntry:

    def test_demos_verb(self, capsys):
        assert main(["demos"]) == 0
        out = capsys.readouterr().out
        assert "three-toss" in out
        assert len(out.strip().splitlines()) == 10

    def test_demo_verb_machine(self, capsys):
        code = main(["--machine", "demo", "stern-gerlach"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("scenario stern-gerlach")

    def test_unknown_demo(self, capsys):
        assert main(["demo", "nope"]) == 2

    def test_check_and_run_files(self, tmp_path, capsys):
        path = tmp_path / "tiny.chs"
        path.write_text(MINIMAL)
        assert main(["check", str(path)]) == 0
        capsys.readouterr()
        assert main(["--machine", "run", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.rstrip().endswith("status 0")

    def test_check_bad_file(self, tmp_path, capsys):
        path = tmp_path / "bad.chs"
        path.write_text("scenario x\nsystem a dim 0\n")
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert "error" in err

    def test_out_flag_writes_file(self, tmp_path, capsys):
        src = tmp_path / "tiny.chs"
        src.write_text(MINIMAL)
        dst = tmp_path / "report.txt"
        assert main(["--machine", "--out", str(dst), "run", str(src)]) == 0
        assert dst.read_text().startswith("scenario tiny")

    def test_seed_flag(self, tmp_path, capsys):
        src = tmp_path / "tiny.chs"
        src.write_text(MINIMAL)
        assert main(["--machine", "--seed", "42", "run", str(src)]) == 0
        out = capsys.readouterr().out
        assert "seed 42" in out

    def test_negative_seed_flag_exits_2(self, capsys):
        assert main(["--seed", "-1", "demo", "three-toss"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be non-negative, got -1\n"

    def test_tolerance_flag_syntax_error(self, capsys):
        assert main(["--tolerance", "garbage", "demos"]) == 2

    @pytest.mark.parametrize("name", ["tol_norm", "tol_prob"])
    def test_tolerance_flag_unused_name(self, tmp_path, capsys, name):
        path = tmp_path / "tiny.chs"
        path.write_text(MINIMAL)
        for verb in ("check", "run"):
            assert main(["--tolerance", f"{name}=0.5", verb, str(path)]) == 2
            assert capsys.readouterr().err == f"error: unknown tolerance {name!r}\n"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-5"])
    def test_unusable_tolerance_values_exit_2(self, tmp_path, capsys, value):
        path = tmp_path / "tiny.chs"
        path.write_text(MINIMAL)
        bad = tmp_path / "bad.chs"
        bad.write_text(MINIMAL.replace(
            "system spin dim 2\n", f"system spin dim 2\ntolerance floor {value}\n"))
        for verb in ("check", "run"):
            assert main(["--tolerance", f"tol_consistency={value}", verb, str(path)]) == 2
            assert capsys.readouterr().err.startswith(
                "error: tolerance 'tol_consistency' must be finite and > 0")
            assert main([verb, str(bad)]) == 2
            assert capsys.readouterr().err.startswith(
                "error: line 3: tolerance 'floor' must be finite and > 0")
        assert main(["--machine", "--tolerance", f"tol_consistency={value}",
                     "demo", "stern-gerlach"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "verdict" not in captured.err

    @pytest.mark.parametrize("text, line, words", [
        (NAN_DYNAMICS, 4, "finite"),
        (NON_UNITARY_DYNAMICS, 8, "not unitary"),
        (NON_HERMITIAN_HAMILTONIAN, 5, "Hermitian"),
    ])
    def test_bad_dynamics_input_is_status_2(self, tmp_path, capsys, text, line,
                                            words):
        path = tmp_path / "bad.chs"
        path.write_text(text)
        for verb in ("check", "run"):
            assert main([verb, str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: line {line}: ")
            assert words in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("text, line, words", BAD_BUILDER_ARGUMENTS)
    def test_bad_builder_argument_check_exits_2(self, tmp_path, capsys, text, line,
                                                words):
        path = tmp_path / "bad.chs"
        path.write_text(text)
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: line {line}: ")
        assert words in err

    def test_out_write_failure_exits_2(self, tmp_path, capsys):
        dst = tmp_path / "missing" / "report.txt"
        assert main(["--out", str(dst), "demo", "povm"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert str(dst) in captured.err
        assert captured.out == ""
        assert not dst.exists()

    def test_missing_file(self, capsys):
        assert main(["run", "/does/not/exist.chs"]) == 2


class TestByteDeterminism:

    @pytest.mark.parametrize("name", sorted(DEMOS))
    def test_two_runs_identical(self, name):
        text = demo_text(name)
        a, _ = run_text(text, machine=True)
        b, _ = run_text(text, machine=True)
        assert a == b


# Raw families put exact zeros in D: histories that end (or start) in
# different basis states have chains with disjoint nonzero rows.
RAW_BASIS = """\
scenario raw-basis
system s dim 2
state e0 system s basis 0
state e1 system s basis 1
operator p0 system s dyad e0
operator p1 system s dyad e1
operator ham system s matrix 0.3+0i 0.2-0.5i ; 0.2+0.5i -0.7+0i
grid g times 0 0.7 1.9
dynamics dyn system s grid g hamiltonian ham
""" + "".join(f"history h{a}{b}{c} factors p{a} p{b} p{c}\n"
              for a in "01" for b in "01" for c in "01") + """\
family basis system s grid g raw h000 h001 h010 h011 h100 h101 h110 h111
query consistency family basis dynamics dyn
"""

# Parts of matrix entries: the values where formatting is most fragile.
SPECIAL_PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf"),
                     5e-324, 1e-310, 1e300, -1e300, 1e-300, -1e-300]),
    st.floats())


@st.composite
def report_matrices(draw):
    """A small matrix, mostly exact +0+0i, of a complex or real dtype,
    possibly a transposed or strided view."""
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    entries = [complex(draw(SPECIAL_PARTS), draw(SPECIAL_PARTS))
               if draw(st.integers(0, 3)) == 0 else 0j
               for _ in range(rows * cols)]
    matrix = np.array(entries, dtype=np.complex128).reshape(rows, cols)
    if draw(st.booleans()):
        matrix = matrix.real.copy()
    view = draw(st.sampled_from(["plain", "transposed", "rows", "cols"]))
    if view == "transposed":
        matrix = matrix.T
    elif view == "rows":
        matrix = matrix[::2]
    elif view == "cols":
        matrix = matrix[:, ::2]
    return matrix


@st.composite
def hermitian_matrices(draw):
    """A matrix whose square part is mostly the exact conjugate transpose of
    itself, with some mirror pairs broken: one ulp off in either part, a
    zero imaginary part of either sign, NaN or an infinity; then possibly
    cut to a non-square or a 0-column shape."""
    n = draw(st.integers(1, 5))
    parts = st.one_of(st.just(0.0), SPECIAL_PARTS)
    upper = np.array([complex(draw(parts), draw(parts)) if draw(st.integers(0, 2)) else 0j
                      for _ in range(n * n)], dtype=np.complex128).reshape(n, n)
    matrix = upper.copy()
    lower = np.tril_indices(n, -1)
    matrix[lower] = upper.T.conj()[lower]
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        z = matrix[i, j]
        with np.errstate(over="ignore"):
            one_ulp = (complex(np.nextafter(z.real, np.inf), z.imag),
                       complex(z.real, np.nextafter(z.imag, -np.inf)))
        matrix[i, j] = draw(st.sampled_from([
            *one_ulp,
            complex(z.real, 0.0), complex(z.real, -0.0),
            complex(math.nan, z.imag), complex(z.real, math.nan),
            complex(math.inf, z.imag), complex(z.real, -math.inf)]))
    shape = draw(st.sampled_from(["square", "wide", "tall", "empty"]))
    if shape == "wide":
        matrix = np.hstack([matrix, matrix[:, :1]])
    elif shape == "tall":
        matrix = matrix[:-1] if n > 1 else np.vstack([matrix, matrix])
    elif shape == "empty":
        matrix = matrix[:, :0]
    return matrix


class TestMatrixRows:

    @pytest.mark.parametrize("matrix", [
        np.array([[1 + 2j, -3.5e-17 - 0.25j], [0.0 + 0.0j, 1e300 - 1e-300j]]),
        np.array([[0.5, -1.0, 2.0], [3.0, 4.0, -5e-9]]),
        np.array([[0.5 - 0.5j]]),
        np.array([[-0.0, 0.0], [complex(-0.0, -0.0), complex(0.0, -0.0)]]),
        np.array([[-0.0]]),
        (np.arange(12) * (1 - 0.5j)).reshape(3, 4).T,
    ])
    def test_rows_equal_per_element_format(self, matrix):
        rec = Record(1, "consistency")
        rec.add_matrix("dmatrix", matrix)
        rows, cols = matrix.shape
        assert rec.lines(MACHINE) == [f"dmatrix {rows} {cols}"] + per_element_rows(matrix)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(report_matrices())
    @example(np.zeros((0, 3), dtype=complex))
    @example(np.zeros((1, 1), dtype=complex))
    @example(np.array([[complex(0.0, -0.0)], [complex(-0.0, 0.0)], [0j]]))
    @example(np.array([[5e-324, -0.0, 1e-300]]).T)
    def test_drawn_rows_equal_per_element_format(self, matrix):
        rec = Record(1, "consistency")
        rec.add_matrix("dmatrix", matrix)
        rows, cols = matrix.shape
        assert rec.lines(MACHINE) == [f"dmatrix {rows} {cols}"] + per_element_rows(matrix)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(hermitian_matrices())
    @example(np.array([[1.0, 2 + 3j], [2 - 3j, 4.0]]))
    @example(np.array([[0j, complex(0.0, 0.0)], [complex(0.0, -0.0), 0j]]))
    @example(np.array([[0j, complex(1.0, math.nan)], [complex(1.0, -math.nan), 0j]]))
    def test_mirrored_rows_equal_per_element_format(self, matrix):
        rec = Record(1, "consistency")
        rec.add_matrix("dmatrix", matrix)
        rows, cols = matrix.shape
        machine = [f"dmatrix {rows} {cols}"] + per_element_rows(matrix)
        assert rec.lines(MACHINE) == machine
        assert rec.lines(HUMAN, "  ") == ["  " + human_line(line) for line in machine]

    def test_raw_basis_record_equals_per_element_rows(self):
        env = resolve(parse(RAW_BASIS))
        d = decoherence_functional(env.families["basis"], env.dynamics["dyn"]).matrix
        assert np.count_nonzero(d == 0) > 0
        report, status = run_text(RAW_BASIS, machine=True)
        assert status == 0
        lines = report.splitlines()
        at = lines.index("dmatrix 8 8")
        assert lines[at + 1:at + 9] == per_element_rows(d)
        assert lines[at + 9] == "end"


class TestHumanNumbers:

    @pytest.mark.parametrize("value, short", [
        (9.9999999e-300, "1e-299"),
        (1.23456789e-150, "1.23457e-150"),
        (5e-324, "4.94066e-324"),
        (1e300, "1e+300"),
        (0.5, "0.5"),
    ])
    def test_three_digit_exponents_shorten_whole(self, value, short):
        rec = Record(1, "probability")
        rec.add("value", value)
        rec.add_matrix("matrix", np.array(
            [[complex(value, -value), complex(value, value), complex(value, 0.0)]]))
        text = render_human("s", [rec], 0)
        assert f"  value {short}\n" in text
        assert f"  row {short}-{short}i {short}+{short}i {short}+0i\n" in text


# Typed field values of every kind a runner passes to Record.add.
FIELD_VALUES = st.one_of(
    SPECIAL_PARTS,
    SPECIAL_PARTS.map(np.float64),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.integers(-10**20, 10**20),
    st.integers(-10**9, 10**9).map(np.int64),
    st.lists(st.text("abz&", min_size=1, max_size=3), min_size=1, max_size=3).map(tuple),
    st.text("abz=,", min_size=1, max_size=4),
)


# A record's fields: (key, matrix) for a matrix, (key, values) otherwise.
REPORT_FIELDS = st.lists(st.one_of(
    st.tuples(st.just("matrix"), report_matrices()),
    st.tuples(st.sampled_from(["value", "weight", "labels"]),
              st.lists(FIELD_VALUES, max_size=4))), max_size=6)


class TestHumanOracle:

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(REPORT_FIELDS)
    def test_human_lines_are_machine_lines_shortened(self, fields):
        rec = Record(1, "probability")
        for key, values in fields:
            if key == "matrix":
                rec.add_matrix(key, values)
            else:
                rec.add(key, *values)
        machine = render_machine("s", [rec], 0).splitlines()[2:-2]
        human = render_human("s", [rec], 0).splitlines()[4:-2]
        assert human == ["  " + human_line(line) for line in machine]


class TestRunnerTable:

    def test_runner_kinds_are_the_query_kinds(self):
        # scenario cannot import cli, so this keeps the two lists in step
        assert tuple(RUNNERS) == QUERY_KINDS

    def test_echoed_arguments_come_first_in_argument_order(self):
        report, _ = run_text(MINIMAL.replace(
            "query consistency family f dynamics free",
            "query consistency dynamics free family f"), machine=True)
        lines = report.splitlines()
        first = lines.index("record 1 consistency")
        assert lines[first + 1:first + 3] == ["dynamics free", "family f"]

    def test_arguments_a_kind_does_not_use_are_not_echoed(self):
        text = MINIMAL + "query refinement fine z coarse z family f\n"
        report, status = run_text(text, machine=True)
        assert status == 0
        record = report.split("record 4 refinement\n", 1)[1].split("end\n", 1)[0]
        assert record == "fine z\ncoarse z\nrefines true\n"
