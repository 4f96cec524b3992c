"""Chain operators, decoherence functional, Born weights, sampling."""

from collections import Counter

import numpy as np
import pytest
import scipy.linalg

from cohist import (
    Dynamics,
    FlavorError,
    GridMismatchError,
    InconsistentFamilyError,
    Operator,
    TimeGrid,
    ZeroConditionError,
    basis_pd,
    born_weight,
    chain_operator,
    conditional_probability,
    decoherence_functional,
    dyad,
    fixed_initial_family,
    probability,
    product_family,
    sample_counts,
    sample_history,
    spin_pd,
    spin_projectors,
    trivial_pd,
    unitary_family,
)
from helpers import random_ket, random_pd, random_unitary


def two_time_family(pd0, pd1):
    return product_family(TimeGrid([0, 1]), [pd0, pd1])


class TestChainOperator:

    def test_identity_factors_give_composed_unitary(self):
        rng = np.random.default_rng(43)
        grid = TimeGrid([0, 1, 2, 3])
        us = [random_unitary(rng, 3) for _ in range(3)]
        dyn = Dynamics(grid, us)
        fam = product_family(grid, [trivial_pd(3)] * 4)
        k = chain_operator(fam.histories[0], dyn)
        expected = us[2].matrix @ us[1].matrix @ us[0].matrix
        assert np.allclose(k.matrix, expected)

    def test_two_time_norm_squared_is_born_weight(self):
        rng = np.random.default_rng(47)
        grid = TimeGrid([0, 1])
        for _ in range(10):
            d = int(rng.integers(2, 5))
            pd0, pd1 = random_pd(rng, d), random_pd(rng, d)
            dyn = Dynamics(grid, [random_unitary(rng, d)])
            fam = product_family(grid, [pd0, pd1])
            for idx, h in enumerate(fam.histories):
                j, k = divmod(idx, pd1.size)
                kop = chain_operator(h, dyn)
                w = float(np.linalg.norm(kop.matrix) ** 2)
                assert abs(w - born_weight(pd0, pd1, dyn, j, k)) < 1e-10

    def test_xzx_product_is_half_xplus(self):
        # oracle: direct 2x2 matrix products
        xp, _ = spin_projectors("x")
        zp, _ = spin_projectors("z")
        grid = TimeGrid([0, 1, 2])
        dyn = Dynamics.trivial(grid, 2)
        from cohist import History

        h = History([xp, zp, xp], ["x+", "z+", "x+"])
        k = chain_operator(h, dyn)
        oracle = xp.matrix @ zp.matrix @ xp.matrix
        assert np.allclose(k.matrix, oracle)
        assert np.allclose(k.matrix, 0.5 * xp.matrix)

    def test_grid_mismatch(self):
        grid = TimeGrid([0, 1])
        dyn = Dynamics.trivial(grid, 2)
        fam = product_family(TimeGrid([0, 1, 2]), [spin_pd("z")] * 3)
        with pytest.raises(GridMismatchError):
            chain_operator(fam.histories[0], dyn)


class TestDynamicsConstruction:

    def test_hamiltonian_exponential_matches_expm(self):
        rng = np.random.default_rng(53)
        for _ in range(5):
            d = int(rng.integers(2, 5))
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            h = Operator((a + a.conj().T) / 2, (d,))
            grid = TimeGrid([0.0, 0.7, 1.1])
            dyn = Dynamics.from_hamiltonian(grid, h)
            for m in range(2):
                oracle = scipy.linalg.expm(-1j * grid.dt(m) * h.matrix)
                assert np.allclose(dyn.step(m).matrix, oracle, atol=1e-10)

    def test_propagator_composition_and_inverse(self):
        rng = np.random.default_rng(59)
        grid = TimeGrid([0, 1, 2])
        dyn = Dynamics(grid, [random_unitary(rng, 3) for _ in range(2)])
        t20 = dyn.propagator(0, 2)
        assert np.allclose(t20.matrix, dyn.step(1).matrix @ dyn.step(0).matrix)
        assert np.allclose(dyn.propagator(0, 0).matrix, np.eye(3))
        assert np.allclose(dyn.propagator(2, 0).matrix, t20.dag().matrix)

    def test_non_unitary_rejected(self):
        grid = TimeGrid([0, 1])
        with pytest.raises(ValueError):
            Dynamics(grid, [Operator([[1, 0], [0, 2]])])
        with pytest.raises(FlavorError):
            Dynamics(grid, [Operator([[1, 0], [0, 2]])])

    def test_non_hermitian_hamiltonian_rejected(self):
        grid = TimeGrid([0, 1])
        with pytest.raises(FlavorError):
            Dynamics.from_hamiltonian(grid, Operator([[0, 1], [0, 0]]))


class TestDecoherenceFunctional:

    def test_two_time_families_always_consistent(self):
        rng = np.random.default_rng(61)
        grid = TimeGrid([0, 1])
        for _ in range(30):
            d = int(rng.integers(2, 5))
            fam = product_family(grid, [random_pd(rng, d), random_pd(rng, d)])
            dyn = Dynamics(grid, [random_unitary(rng, d)])
            rep = decoherence_functional(fam, dyn)
            assert rep.consistent
            assert rep.max_offdiag_abs <= 1e-10

    def test_gram_structure(self):
        rng = np.random.default_rng(67)
        grid = TimeGrid([0, 1, 2])
        fam = product_family(grid, [random_pd(rng, 3) for _ in range(3)])
        dyn = Dynamics(grid, [random_unitary(rng, 3) for _ in range(2)])
        rep = decoherence_functional(fam, dyn)
        d = rep.matrix
        assert np.allclose(d, d.conj().T)
        assert np.all(rep.weights >= -1e-12)
        assert np.all(np.abs(d.diagonal().imag) < 1e-12)

    def test_unitary_family_weight_one(self):
        rng = np.random.default_rng(71)
        for _ in range(5):
            grid = TimeGrid([0, 1, 2, 3])
            dyn = Dynamics(grid, [random_unitary(rng, 3) for _ in range(3)])
            fam = unitary_family(random_ket(rng, 3), dyn)
            rep = decoherence_functional(fam, dyn)
            assert rep.consistent
            for i in fam.included_indices():
                if fam.histories[i].kind == "unitary":
                    assert abs(rep.weights[i] - 1.0) <= 1e-10
                else:
                    assert rep.weights[i] <= 1e-10
            probs = rep.probabilities()
            unit = [i for i in fam.included_indices()
                    if fam.histories[i].kind == "unitary"]
            assert abs(probs[unit[0]] - 1.0) <= 1e-10

    def test_inconsistent_triple_against_brute_force(self):
        # initial [x+], trivial dynamics, z at t1, x at t2
        xp, xm = spin_projectors("x")
        zp, zm = spin_projectors("z")
        grid = TimeGrid([0, 1, 2])
        dyn = Dynamics.trivial(grid, 2)
        fam = fixed_initial_family(grid, xp, [spin_pd("z"), spin_pd("x")],
                                   label="x+")
        rep = decoherence_functional(fam, dyn)
        assert not rep.consistent

        # brute-force oracle: explicit chains and traces with raw numpy
        zs = {"z+": zp.matrix, "z-": zm.matrix}
        xs = {"x+": xp.matrix, "x-": xm.matrix}
        chains = {}
        for sz, mz in zs.items():
            for sx, mx in xs.items():
                chains[(sz, sx)] = mx @ mz @ xp.matrix
        oracle = {}
        for a, ka in chains.items():
            for b, kb in chains.items():
                oracle[(a, b)] = np.trace(ka.conj().T @ kb)
        #spot-check against the module matrix
        idx = {h.label[1:]: i for i, h in enumerate(fam.histories)
               if h.kind == "normal"}
        for (a, b), val in oracle.items():
            assert abs(rep.matrix[idx[a], idx[b]] - val) < 1e-12
        off = abs(oracle[(("z+", "x+"), ("z-", "x+"))])
        assert abs(off - 0.25) < 1e-12
        assert abs(rep.max_offdiag_abs - 0.25) < 1e-12

    def test_throwaway_excluded_from_probabilities(self):
        zp, _ = spin_projectors("z")
        grid = TimeGrid([0, 1])
        fam = fixed_initial_family(grid, zp, [spin_pd("z")])
        dyn = Dynamics.trivial(grid, 2)
        rep = decoherence_functional(fam, dyn)
        probs = rep.probabilities()
        for i in rep.excluded:
            assert probs[i] == 0.0
        assert abs(probs.sum() - 1.0) < 1e-12

    def test_weight_normalization_rank_one_initial(self):
        rng = np.random.default_rng(73)
        for _ in range(10):
            d = int(rng.integers(2, 5))
            grid = TimeGrid([0, 1, 2])
            fam = fixed_initial_family(grid, dyad(random_ket(rng, d)),
                                       [random_pd(rng, d), random_pd(rng, d)])
            dyn = Dynamics(grid, [random_unitary(rng, d) for _ in range(2)])
            rep = decoherence_functional(fam, dyn)
            assert abs(rep.total_weight() - 1.0) < 1e-8


class TestBornRule:

    def test_same_basis_trivial_dynamics_delta(self):
        grid = TimeGrid([0, 1])
        pd = basis_pd(3)
        dyn = Dynamics.trivial(grid, 3)
        for j in range(3):
            for k in range(3):
                w = born_weight(pd, pd, dyn, j, k)
                assert abs(w - (1.0 if j == k else 0.0)) < 1e-12

    def test_x_given_z_is_half(self):
        grid = TimeGrid([0, 1])
        dyn = Dynamics.trivial(grid, 2)
        w = born_weight(spin_pd("z"), spin_pd("x"), dyn, 0, 0)
        assert abs(w - 0.5) < 1e-12

    def test_matches_decoherence_diagonal(self):
        rng = np.random.default_rng(79)
        grid = TimeGrid([0, 1])
        for _ in range(10):
            d = int(rng.integers(2, 5))
            pd0, pd1 = random_pd(rng, d), random_pd(rng, d)
            dyn = Dynamics(grid, [random_unitary(rng, d)])
            fam = product_family(grid, [pd0, pd1])
            rep = decoherence_functional(fam, dyn)
            for idx in range(fam.n):
                j, k = divmod(idx, pd1.size)
                assert abs(rep.weights[idx] - born_weight(pd0, pd1, dyn, j, k)) < 1e-10

    def test_forward_backward_symmetry(self):
        # weight(j -> k under T) equals weight(k -> j under the reversed steps
        rng = np.random.default_rng(83)
        grid = TimeGrid([0, 1])
        for _ in range(20):
            d = int(rng.integers(2, 5))
            pd0 = random_pd(rng, d, n_blocks=d)
            pd1 = random_pd(rng, d, n_blocks=d)
            dyn = Dynamics(grid, [random_unitary(rng, d)])
            rev = Dynamics(grid, [dyn.step(0).dag()])
            j, k = int(rng.integers(d)), int(rng.integers(d))
            assert abs(born_weight(pd0, pd1, dyn, j, k)
                       - born_weight(pd1, pd0, rev, k, j)) < 1e-10

    def test_backward_evolution_equivalence(self):
        # evolving the later basis backward reproduces the forward weights
        rng = np.random.default_rng(89)
        grid = TimeGrid([0, 1])
        for _ in range(20):
            d = int(rng.integers(2, 5))
            psis = [random_ket(rng, d)]
            u = random_unitary(rng, d).matrix
            phis_eigen = random_unitary(rng, d).matrix  # columns: later basis
            for j in range(1):
                forward = abs(np.vdot(phis_eigen[:, j],
                                      u @ psis[0].amplitudes)) ** 2
                phi_back = u.conj().T @ phis_eigen[:, j]
                backward = abs(np.vdot(psis[0].amplitudes, phi_back)) ** 2
                assert abs(forward - backward) < 1e-10

    def test_time_reversal_transposes_functional(self):
        rng = np.random.default_rng(97)
        grid = TimeGrid([0, 1, 2])
        fam = product_family(grid, [random_pd(rng, 3) for _ in range(3)])
        dyn = Dynamics(grid, [random_unitary(rng, 3) for _ in range(2)])
        rep = decoherence_functional(fam, dyn)
        rep_rev = decoherence_functional(fam.time_reversed(), dyn.reversed())
        # labels order is preserved by time reversal, so compare directly
        assert np.allclose(rep_rev.matrix, rep.matrix.T)
        assert rep_rev.consistent == rep.consistent


class TestConditionalProbability:

    def test_delta_for_same_basis(self):
        grid = TimeGrid([0, 1])
        fam = product_family(grid, [basis_pd(2), basis_pd(2)])
        dyn = Dynamics.trivial(grid, 2)
        assert conditional_probability(fam, dyn, {1: "0"}, {0: "0"}) == 1.0
        assert conditional_probability(fam, dyn, {1: "1"}, {0: "0"}) == 0.0

    def test_probability_normalizes_over_sample_space(self):
        grid = TimeGrid([0, 1])
        xp, _ = spin_projectors("x")
        fam = fixed_initial_family(grid, xp, [spin_pd("z")])
        dyn = Dynamics.trivial(grid, 2)
        assert abs(probability(fam, dyn, {1: "z+"}) - 0.5) < 1e-12

    def test_refuses_inconsistent_family(self):
        xp, _ = spin_projectors("x")
        grid = TimeGrid([0, 1, 2])
        fam = fixed_initial_family(grid, xp, [spin_pd("z"), spin_pd("x")])
        dyn = Dynamics.trivial(grid, 2)
        with pytest.raises(InconsistentFamilyError):
            conditional_probability(fam, dyn, {2: "x+"}, None)

    def test_zero_condition_rejected(self):
        grid = TimeGrid([0, 1])
        zp, _ = spin_projectors("z")
        fam = fixed_initial_family(grid, zp, [spin_pd("z")])
        dyn = Dynamics.trivial(grid, 2)
        with pytest.raises(ZeroConditionError):
            conditional_probability(fam, dyn, {1: "z+"}, {1: "z-"})


class TestSampling:

    def test_unitary_family_always_draws_unitary_history(self):
        rng = np.random.default_rng(101)
        grid = TimeGrid([0, 1, 2])
        dyn = Dynamics(grid, [random_unitary(rng, 2) for _ in range(2)])
        fam = unitary_family(random_ket(rng, 2), dyn)
        labels = sample_history(fam, dyn, seed=5, size=50)
        assert all(l == ("psi", "psi", "psi") for l in labels)

    def test_three_toss_trivial_dynamics_always_all_up(self):
        zp, _ = spin_projectors("z")
        grid = TimeGrid([0, 1, 2, 3])
        fam = fixed_initial_family(grid, zp, [spin_pd("z")] * 3)
        dyn = Dynamics.trivial(grid, 2)
        labels = sample_history(fam, dyn, seed=0, size=25)
        assert all(l == ("init", "z+", "z+", "z+") for l in labels)

    def test_deterministic_given_seed(self):
        grid = TimeGrid([0, 1])
        xp, _ = spin_projectors("x")
        fam = fixed_initial_family(grid, xp, [spin_pd("z")])
        dyn = Dynamics.trivial(grid, 2)
        a = sample_history(fam, dyn, seed=123, size=200)
        b = sample_history(fam, dyn, seed=123, size=200)
        assert a == b

    def test_frequencies_track_weights(self):
        grid = TimeGrid([0, 1])
        xp, _ = spin_projectors("x")
        fam = fixed_initial_family(grid, xp, [spin_pd("z")])
        dyn = Dynamics.trivial(grid, 2)
        n = 4000
        labels = sample_history(fam, dyn, seed=7, size=n)
        ups = sum(1 for l in labels if l[1] == "z+")
        sigma = np.sqrt(n * 0.25)
        assert abs(ups - n / 2) < 4 * sigma

    @pytest.mark.parametrize("seed", [0, 7, 20260810])
    def test_counts_tally_the_drawn_labels(self, seed):
        # a two-time (so consistent) fixed-initial family with a throwaway
        # history, under dynamics that gives every included history weight
        rng = np.random.default_rng(103)
        grid = TimeGrid([0, 1])
        dyn = Dynamics(grid, [random_unitary(rng, 3)])
        fam = fixed_initial_family(grid, dyad(random_ket(rng, 3)), [basis_pd(3)])
        counts = sample_counts(fam, dyn, seed, 5000)
        drawn = Counter(sample_history(fam, dyn, seed, size=5000))
        included = fam.included_indices()
        assert len(included) < fam.n and len(counts) == len(included)
        assert counts.tolist() == [drawn[fam.histories[i].label] for i in included]

    def test_refuses_inconsistent_family(self):
        xp, _ = spin_projectors("x")
        grid = TimeGrid([0, 1, 2])
        fam = fixed_initial_family(grid, xp, [spin_pd("z"), spin_pd("x")])
        dyn = Dynamics.trivial(grid, 2)
        with pytest.raises(InconsistentFamilyError):
            sample_history(fam, dyn, seed=1)
