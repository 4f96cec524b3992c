"""Measurement/preparation models, POVM extraction, locality, singlet tables."""

from unittest.mock import patch

import numpy as np
import pytest

from cohist import (
    CompletenessError,
    DimError,
    FactorizationError,
    FlavorError,
    Ket,
    LocalityExperiment,
    NormalizationError,
    Operator,
    PovmElementSet,
    basis_ket,
    basis_pd,
    build_measurement,
    contextual_analysis,
    contextual_preparation,
    decoherence_functional,
    einstein_locality_check,
    lift_pd,
    make_pd,
    measurement_analysis,
    povm_from_ancilla,
    preparation_analysis,
    singlet,
    singlet_correlation,
    spin_pd,
    tensor,
    tensor_pd,
)
from helpers import random_ket, random_pd, random_unitary


def random_amplitudes(rng, n):
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return c / np.linalg.norm(c)


class TestBuildMeasurement:

    @pytest.mark.parametrize("d_s", [2, 3])
    def test_destructive_map_ket_by_ket(self, d_s):
        model = build_measurement(d_s, "destructive")
        for j in range(d_s):
            start = tensor(model.basis[j], model.ready0)
            mid = model.u_first @ start
            expected_mid = tensor(model.basis[j], model.ready1)
            assert np.linalg.norm(mid.amplitudes - expected_mid.amplitudes) < 1e-12
            end = model.u_second @ mid
            expected_end = tensor(model.basis[0], model.pointers[j])
            assert np.linalg.norm(end.amplitudes - expected_end.amplitudes) < 1e-12

    @pytest.mark.parametrize("d_s", [2, 3])
    def test_vonneumann_map_ket_by_ket(self, d_s):
        model = build_measurement(d_s, "vonNeumann")
        for j in range(d_s):
            mid = tensor(model.basis[j], model.ready1)
            end = model.u_second @ mid
            expected = tensor(model.basis[j], model.pointers[j])
            assert np.linalg.norm(end.amplitudes - expected.amplitudes) < 1e-12

    def test_unitaries_are_unitary_on_full_space(self):
        for mode in ("destructive", "vonNeumann"):
            model = build_measurement(3, mode)
            assert model.u_first.is_unitary(1e-12)
            assert model.u_second.is_unitary(1e-12)

    def test_superposition_output(self):
        # the destructive interaction funnels the amplitudes to the pointers
        model = build_measurement(2, "destructive")
        c = np.array([0.6, 0.8])
        start = model.initial_state(c)
        end = model.u_second @ (model.u_first @ start)
        pointer_sum = sum(cj * tensor(model.basis[0], m).amplitudes
                          for cj, m in zip(c, model.pointers))
        assert np.linalg.norm(end.amplitudes - pointer_sum) < 1e-12

    def test_pointer_projectors_fix_pointer_states(self):
        model = build_measurement(3, "destructive")
        for j, m in enumerate(model.pointers):
            out = model.pointer_pd[j].matrix @ m.amplitudes
            assert np.linalg.norm(out - m.amplitudes) < 1e-12

    def test_apparatus_too_small(self):
        with pytest.raises(DimError):
            build_measurement(3, "destructive", d_m=4)

    def test_custom_basis(self):
        r = 1 / np.sqrt(2)
        model = build_measurement([Ket([r, r]), Ket([r, -r])], "destructive")
        start = tensor(model.basis[1], model.ready1)
        end = model.u_second @ start
        expected = tensor(model.basis[0], model.pointers[1])
        assert np.linalg.norm(end.amplitudes - expected.amplitudes) < 1e-12


class TestMeasurementAnalysis:

    def test_certain_input(self):
        model = build_measurement(2, "destructive")
        ana = measurement_analysis(model, [1.0, 0.0])
        assert abs(ana.outcome_probabilities[0] - 1.0) < 1e-12
        assert abs(ana.conditionals[0, 0] - 1.0) < 1e-12

    def test_uniform_input(self):
        model = build_measurement(2, "destructive")
        r = 1 / np.sqrt(2)
        ana = measurement_analysis(model, [r, r])
        assert np.allclose(ana.outcome_probabilities[:2], [0.5, 0.5], atol=1e-12)
        assert np.allclose(ana.conditionals[:2, :2], np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("d_s", [2, 3])
    def test_random_amplitudes_match_state_vector_oracle(self, d_s):
        rng = np.random.default_rng(107)
        model = build_measurement(d_s, "destructive")
        for _ in range(5):
            c = random_amplitudes(rng, d_s)
            ana = measurement_analysis(model, c)
            assert ana.report.consistent
            # oracle: project-evolve-project on the raw state vector
            psi0 = model.initial_state(c).amplitudes
            mid = model.u_first.matrix @ psi0
            for j in range(d_s):
                proj_j = lift_pd(model.system_pd(), model.dims, 0)[j].matrix
                after_j = model.u_second.matrix @ (proj_j @ mid)
                for k in range(d_s):
                    proj_k = lift_pd(model.pointer_pd, model.dims, 1)[k].matrix
                    w = float(np.linalg.norm(proj_k @ after_j) ** 2)
                    assert abs(ana.joint[j, k] - w) < 1e-10
                    expected = abs(c[j]) ** 2 if j == k else 0.0
                    assert abs(ana.joint[j, k] - expected) < 1e-10
            for k in range(d_s):
                assert abs(ana.outcome_probabilities[k] - abs(c[k]) ** 2) < 1e-10
                if abs(c[k]) ** 2 > 1e-12:
                    for j in range(d_s):
                        expected = 1.0 if j == k else 0.0
                        assert abs(ana.conditionals[j, k] - expected) < 1e-10

    def test_rejects_unnormalized(self):
        model = build_measurement(2, "destructive")
        with pytest.raises(NormalizationError):
            measurement_analysis(model, [1.0, 1.0])


class TestPreparationAnalysis:

    def test_certain_input_single_cell(self):
        model = build_measurement(2, "vonNeumann")
        ana = preparation_analysis(model, [0.0, 1.0])
        expected = np.zeros((2, 3))
        expected[1, 1] = 1.0
        assert np.allclose(ana.joint, expected, atol=1e-12)

    def test_uniform_input_tables(self):
        model = build_measurement(2, "vonNeumann")
        r = 1 / np.sqrt(2)
        ana = preparation_analysis(model, [r, r])
        assert np.allclose(ana.joint[:, :2], np.diag([0.5, 0.5]), atol=1e-12)
        assert np.allclose(ana.conditionals[:, :2], np.eye(2), atol=1e-12)

    def test_random_inputs_joint_is_diagonal(self):
        rng = np.random.default_rng(109)
        model = build_measurement(3, "vonNeumann")
        for _ in range(5):
            c = random_amplitudes(rng, 3)
            ana = preparation_analysis(model, c)
            for i in range(3):
                for j in range(3):
                    expected = abs(c[j]) ** 2 if i == j else 0.0
                    assert abs(ana.joint[i, j] - expected) < 1e-10

    def test_needs_vonneumann_mode(self):
        model = build_measurement(2, "destructive")
        with pytest.raises(ValueError):
            preparation_analysis(model, [1.0, 0.0])


class TestContextualPreparation:

    @pytest.mark.parametrize("overlap", [0.0, 0.3, 0.6, 0.9])
    def test_pointer_certifies_r_state(self, overlap):
        r1 = Ket([1.0, 0.0])
        r2 = Ket([overlap, np.sqrt(1 - overlap ** 2)])
        c = [0.6, 0.8]
        prep = contextual_preparation([r1, r2], c)
        ana = contextual_analysis(prep)
        assert ana.report.consistent
        assert np.allclose(ana.pointer_probabilities, [0.36, 0.64], atol=1e-10)
        assert np.allclose(ana.certainty, [1.0, 1.0], atol=1e-10)

    def test_oracle_direct_projection(self):
        # oracle: project the evolved vector directly with raw numpy
        r1 = Ket([1.0, 0.0])
        r2 = Ket([0.9, np.sqrt(1 - 0.81)])
        c = np.array([0.48, 0.877496438739212])
        c = c / np.linalg.norm(c)
        prep = contextual_preparation([r1, r2], c)
        evolved = prep.unitary.matrix @ prep.initial_state().amplitudes
        for j, r in enumerate((r1, r2)):
            sector = np.kron(np.eye(2), prep.pointer_pd[j].matrix)
            inside = np.kron(np.outer(r.amplitudes, r.amplitudes.conj()),
                             prep.pointer_pd[j].matrix)
            p_sector = float(np.linalg.norm(sector @ evolved) ** 2)
            p_inside = float(np.linalg.norm(inside @ evolved) ** 2)
            assert abs(p_sector - abs(c[j]) ** 2) < 1e-10
            assert abs(p_inside / p_sector - 1.0) < 1e-10
        ana = contextual_analysis(prep)
        assert np.allclose(ana.certainty, [1.0, 1.0], atol=1e-10)

    def test_rejects_unnormalized_r_state(self):
        with pytest.raises(NormalizationError):
            contextual_preparation([Ket([1.0, 1.0]), Ket([0, 1])], [0.6, 0.8])


class TestPovm:

    def test_product_pd_recovers_marginal_pd(self):
        q = basis_pd(2)
        pd = tensor_pd(q, make_pd([Operator.identity(2)], ["I"]))
        a0 = Ket([0.6, 0.8])
        povm = povm_from_ancilla(pd, a0)
        for r, qproj in zip(povm.elements, q.projectors):
            assert np.allclose(r.matrix, qproj.matrix, atol=1e-12)

    def test_random_pds_give_valid_povms(self):
        rng = np.random.default_rng(113)
        for _ in range(20):
            d_s, d_a = 2, 2
            pd = random_pd(rng, d_s * d_a, dims=(d_s, d_a))
            a0 = random_ket(rng, d_a)
            povm = povm_from_ancilla(pd, a0)
            total = sum(r.matrix for r in povm.elements)
            assert np.linalg.norm(total - np.eye(d_s)) < 1e-10
            for r in povm.elements:
                assert r.min_eigenvalue() >= -1e-10

    def test_equivalence_with_full_space_born_rule(self):
        rng = np.random.default_rng(127)
        for d_s, d_a in ((2, 2), (3, 2)):
            pd = random_pd(rng, d_s * d_a, dims=(d_s, d_a))
            a0 = random_ket(rng, d_a)
            povm = povm_from_ancilla(pd, a0)
            for _ in range(20):
                psi = random_ket(rng, d_s)
                via_povm = povm.outcome_probabilities(psi)
                big = tensor(psi, a0)
                rho = np.outer(big.amplitudes, big.amplitudes.conj())
                direct = np.array([float(np.trace(p.matrix @ rho).real)
                                   for p in pd.projectors])
                assert np.max(np.abs(via_povm - direct)) < 1e-10

    def test_rejects_unnormalized_ancilla(self):
        pd = tensor_pd(basis_pd(2), basis_pd(2))
        with pytest.raises(NormalizationError):
            povm_from_ancilla(pd, Ket([1.0, 1.0]))

    def test_rejects_wrong_ancilla_dim(self):
        pd = tensor_pd(basis_pd(2), basis_pd(2))
        with pytest.raises(DimError):
            povm_from_ancilla(pd, Ket([1, 0, 0]))

    def test_element_set_errors_are_typed_value_errors(self):
        # A non-positive element and an incomplete sum raise toolkit errors
        # that callers catching ValueError still catch.
        half = Operator(0.5 * np.eye(2))
        with pytest.raises(CompletenessError) as err:
            PovmElementSet([half])
        assert isinstance(err.value, ValueError)
        with pytest.raises(FlavorError) as err:
            PovmElementSet([Operator(np.diag([1.5, 1.0])), Operator(np.diag([-0.5, 0.0]))])
        assert isinstance(err.value, ValueError)


def make_experiment(rng, f=2, d_c=2):
    steps = [(random_unitary(rng, 2), random_unitary(rng, 2 * d_c))
             for _ in range(f)]
    a_pds = [spin_pd("z"), spin_pd("x")][:f]
    return LocalityExperiment(singlet(), d_c, steps, a_pds)


class TestLocality:

    def test_trivial_bc_dynamics_no_deviation(self):
        rng = np.random.default_rng(131)
        ident = Operator.identity(4)
        steps = [(random_unitary(rng, 2), ident), (random_unitary(rng, 2), ident)]
        exp = LocalityExperiment(singlet(), 2, steps, [spin_pd("z"), spin_pd("x")])
        c_states = [basis_ket(0, 2), basis_ket(1, 2),
                    Ket(np.array([1, 1j]) / np.sqrt(2))]
        report = einstein_locality_check(exp, c_states)
        assert report.passed
        assert report.max_probability_deviation < 1e-12
        assert report.max_residual_deviation < 1e-12

    def test_composite_c_state_gives_the_same_family(self):
        # A C state on factor dims (2, 2) is the same C state as on (4,).
        rng = np.random.default_rng(149)
        exp = make_experiment(rng, d_c=4)
        c = random_ket(rng, 4)
        flat = exp.family(c)
        split = exp.family(Ket(c.amplitudes, (2, 2)))
        assert split.dims == flat.dims == (2, 2, 4)
        dyn = exp.dynamics()
        assert np.array_equal(decoherence_functional(split, dyn).matrix,
                              decoherence_functional(flat, dyn).matrix)

    def test_entangling_bc_dynamics_still_invariant(self):
        rng = np.random.default_rng(137)
        exp = make_experiment(rng)
        c_states = [random_ket(rng, 2) for _ in range(8)]
        report = einstein_locality_check(exp, c_states)
        assert report.passed
        assert report.max_probability_deviation <= 1e-10
        assert report.max_residual_deviation <= 1e-10
        assert len(set(report.verdicts)) == 1

    def test_consistency_verdict_uniform_across_c_states(self):
        rng = np.random.default_rng(139)
        for _ in range(3):
            exp = make_experiment(rng, d_c=3)
            c_states = [random_ket(rng, 3) for _ in range(5)]
            report = einstein_locality_check(exp, c_states)
            assert len(set(report.verdicts)) == 1
            assert report.passed

    @pytest.mark.parametrize("n_cstates", [1, 2, 5])
    def test_lifts_once_and_matches_lifting_per_c_state(self, n_cstates):
        rng = np.random.default_rng(151)
        exp = make_experiment(rng, d_c=3)
        c_states = [random_ket(rng, 3) for _ in range(n_cstates)]
        with patch("cohist.models.lift_pd", wraps=lift_pd) as lift:
            report = einstein_locality_check(exp, c_states)
        assert lift.call_count == len(exp.a_pds)
        # Each C state's family from decompositions lifted for it alone.
        dyn = exp.dynamics()
        probs, offdiags = [], []
        for c_state in c_states:
            fresh = LocalityExperiment(exp.initial_ab, exp.c_dim, exp.steps, exp.a_pds,
                                       exp.grid)
            want = decoherence_functional(fresh.family(c_state), dyn)
            probs.append(want.probabilities())
            offdiags.append(np.abs(want.matrix) - np.diag(np.abs(want.weights)))
        for got, want in zip(report.probabilities + report.offdiag_matrices,
                             probs + offdiags):
            assert got.tobytes() == want.tobytes()
        assert report.max_probability_deviation == max(
            [0.0] + [float(np.max(np.abs(p - probs[0]))) for p in probs[1:]])
        assert report.max_residual_deviation == max(
            [0.0] + [float(np.max(np.abs(m - offdiags[0]))) for m in offdiags[1:]])

    def test_nonfactorized_totals_rejected(self):
        # a CNOT from A to B does not factor as T_A (x) T_BC
        cnot_ab = np.array([[1, 0, 0, 0], [0, 1, 0, 0],
                            [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float)
        total = Operator(np.kron(cnot_ab, np.eye(2)), (2, 2, 2), flavor="unitary")
        ident2, ident4 = Operator.identity(2), Operator.identity(4)
        with pytest.raises(FactorizationError):
            LocalityExperiment(singlet(), 2, [(ident2, ident4)], [spin_pd("z")],
                               totals=[total])

    def test_factorized_totals_accepted(self):
        rng = np.random.default_rng(149)
        t_a = random_unitary(rng, 2)
        t_bc = random_unitary(rng, 4)
        total = Operator(np.kron(t_a.matrix, t_bc.matrix), (2, 2, 2),
                         flavor="unitary")
        LocalityExperiment(singlet(), 2, [(t_a, t_bc)], [spin_pd("z")],
                           totals=[total])


class TestSingletCorrelation:

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_same_axis_anticorrelation(self, axis):
        corr = singlet_correlation(axis, axis)
        assert abs(corr.conditional[0, 1] - 1.0) < 1e-12
        assert abs(corr.conditional[1, 0] - 1.0) < 1e-12
        assert abs(corr.conditional[0, 0]) < 1e-12
        assert abs(corr.conditional[1, 1]) < 1e-12

    @pytest.mark.parametrize("pair", [("z", "x"), ("x", "y"), ("y", "z")])
    def test_cross_axis_even(self, pair):
        corr = singlet_correlation(*pair)
        assert np.allclose(corr.conditional, 0.25 + 0.25, atol=1e-12)

    def test_joint_matches_direct_expectation_oracle(self):
        from cohist import spin_projectors

        s = singlet().amplitudes
        for axis_a, axis_b in (("z", "z"), ("z", "x"), ("y", "x")):
            corr = singlet_correlation(axis_a, axis_b)
            pa = spin_projectors(axis_a)
            pb = spin_projectors(axis_b)
            for i in range(2):
                for j in range(2):
                    op = np.kron(pa[i].matrix, pb[j].matrix)
                    direct = float(np.vdot(s, op @ s).real)
                    assert abs(corr.joint[i, j] - direct) < 1e-12

    def test_bad_axis_rejected(self):
        with pytest.raises(ValueError):
            singlet_correlation("q", "z")
