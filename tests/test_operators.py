"""Operator-core: construction, predicates, composite operations, named states."""

import itertools

import numpy as np
import pytest

from cohist import (
    CohistError,
    DimError,
    FlavorError,
    Ket,
    NonFiniteError,
    NormalizationError,
    NotProjectorError,
    Operator,
    basis_ket,
    commutes,
    dyad,
    embed,
    interval_projector,
    partial_trace,
    singlet,
    spin_ket,
    spin_projectors,
    tensor,
)
from cohist.operators import _check_flavor
from helpers import random_ket, random_projector, random_unitary


class TestDyad:

    def test_basis_projector(self):
        p = dyad(Ket([1, 0]))
        assert np.allclose(p.matrix, [[1, 0], [0, 0]])

    def test_xplus(self):
        r = 1 / np.sqrt(2)
        p = dyad(Ket([r, r]))
        assert np.allclose(p.matrix, [[0.5, 0.5], [0.5, 0.5]])

    def test_complex_amplitudes(self):
        k = Ket([0.6, 0.8j])
        p = dyad(k)
        # oracle: plain outer product
        expected = np.outer(k.amplitudes, k.amplitudes.conj())
        assert np.allclose(p.matrix, expected)
        assert abs(p.trace() - 1.0) < 1e-12
        assert np.linalg.norm(p.matrix @ p.matrix - p.matrix) < 1e-12

    def test_rejects_unnormalized(self):
        with pytest.raises(NormalizationError):
            dyad(Ket([1, 1]))

    def test_output_is_projector_flavor(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = dyad(random_ket(rng, 4))
            assert p.flavor == "projector"
            assert p.is_projector(1e-12)


class TestSpinProjectors:

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_pair_decomposes_identity(self, axis):
        plus, minus = spin_projectors(axis)
        assert np.allclose((plus + minus).matrix, np.eye(2))
        assert np.linalg.norm((plus @ minus).matrix) < 1e-15

    def test_z_product_zero_both_orders(self):
        zp, zm = spin_projectors("z")
        assert np.linalg.norm((zp @ zm).matrix) == 0.0
        assert np.linalg.norm((zm @ zp).matrix) == 0.0

    def test_z_and_x_do_not_commute(self):
        zs = spin_projectors("z")
        xs = spin_projectors("x")
        for p, q in itertools.product(zs, xs):
            assert not commutes(p, q)

    def test_phase_conventions(self):
        r = 1 / np.sqrt(2)
        assert np.allclose(spin_ket("x", "-").amplitudes, [r, -r])
        assert np.allclose(spin_ket("y", "+").amplitudes, [r, 1j * r])


class TestCommutes:

    def test_identity_commutes_with_anything(self):
        rng = np.random.default_rng(3)
        ident = Operator.identity(3)
        for _ in range(10):
            a = random_unitary(rng, 3)
            assert commutes(ident, a)

    def test_same_basis_commutes(self):
        zp, zm = spin_projectors("z")
        assert commutes(zp, zm)

    def test_dim_mismatch(self):
        with pytest.raises(DimError):
            commutes(Operator.identity(2), Operator.identity(3))


class TestTensor:

    def test_identity(self):
        out = tensor(Operator.identity(2), Operator.identity(2))
        assert np.allclose(out.matrix, np.eye(4))
        assert out.dims == (2, 2)

    def test_projector_tensor(self):
        zp, zm = spin_projectors("z")
        p = tensor(zp, zm)
        assert p.is_projector(1e-12)
        assert abs(p.trace() - 1.0) < 1e-12

    def test_basis_kets(self):
        k = tensor(Ket([1, 0]), Ket([0, 1]))
        assert np.allclose(k.amplitudes, [0, 1, 0, 0])

    def test_associativity(self):
        rng = np.random.default_rng(5)
        a, b, c = (random_unitary(rng, 2) for _ in range(3))
        left = tensor(tensor(a, b), c)
        flat = tensor(a, b, c)
        assert np.allclose(left.matrix, flat.matrix)
        assert flat.dims == (2, 2, 2)

    def test_mixed_types_rejected(self):
        with pytest.raises(DimError):
            tensor(Ket([1, 0]), Operator.identity(2))


class TestPartialTrace:

    def test_product_factorization(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = random_projector(rng, 3, 2)
            b = random_unitary(rng, 2)
            out = partial_trace(tensor(a, b), 0)
            assert np.allclose(out.matrix, a.matrix * b.trace())

    def test_singlet_marginal_is_maximally_mixed(self):
        rho = dyad(singlet())
        for slot in (0, 1):
            out = partial_trace(rho, slot)
            assert np.allclose(out.matrix, np.eye(2) / 2)

    def test_identity_bookkeeping(self):
        out = partial_trace(Operator.identity((2, 2)), 0)
        assert np.allclose(out.matrix, 2 * np.eye(2))

    def test_trace_preserved(self):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        op = Operator(m, (2, 3))
        for keep in ((0,), (1,), (0, 1)):
            out = partial_trace(op, keep)
            assert abs(out.trace() - op.trace()) < 1e-12

    def test_bad_factor_index(self):
        with pytest.raises(DimError):
            partial_trace(Operator.identity((2, 2)), 2)


class TestSinglet:

    def test_normalized_amplitudes(self):
        s = singlet()
        assert s.is_normalized()
        r = 1 / np.sqrt(2)
        assert np.allclose(s.amplitudes, [0, r, -r, 0])

    def test_perfect_anticorrelation(self):
        s = singlet()
        zp, _ = spin_projectors("z")
        both_up = tensor(zp, zp)
        assert abs(both_up.expectation(s)) < 1e-15

    def test_no_nontrivial_local_projector_commutes(self):
        rng = np.random.default_rng(13)
        rho = dyad(singlet())
        for _ in range(20):
            p = dyad(random_ket(rng, 2))
            local = tensor(p, Operator.identity(2))
            assert not commutes(rho, local)


class TestIntervalProjector:

    def test_whole_grid_is_identity(self):
        x = interval_projector([0, 1, 2, 3], -1, 10)
        assert np.allclose(x.matrix, np.eye(4))

    def test_empty_interval_is_zero(self):
        x = interval_projector([0, 1, 2, 3], 5, 6)
        assert np.linalg.norm(x.matrix) == 0.0

    def test_straddling_state_does_not_commute(self):
        grid = [0.0, 1.0, 2.0, 3.0]
        x = interval_projector(grid, 0.5, 1.5)
        psi = Ket([0, 1, 1, 0]).normalized()
        assert not commutes(dyad(psi), x)

    def test_commutation_iff_support_inside_or_outside(self):
        # enumerate supports on grids up to size 8 against a brute-force
        # commutator oracle
        rng = np.random.default_rng(17)
        for d in range(2, 9):
            grid = list(range(d))
            lo, hi = 0.5, min(d - 1, 3) + 0.4
            inside = {i for i in range(d) if lo <= i <= hi}
            x = interval_projector(grid, lo, hi)
            for _ in range(6):
                support = set(np.flatnonzero(rng.integers(0, 2, size=d)))
                if not support:
                    continue
                amp = np.zeros(d, dtype=complex)
                for i in support:
                    amp[i] = rng.standard_normal() + 1j * rng.standard_normal()
                psi = Ket(amp).normalized()
                p = dyad(psi)
                comm = x.matrix @ p.matrix - p.matrix @ x.matrix
                expected = support <= inside or support.isdisjoint(inside)
                assert (np.linalg.norm(comm) <= 1e-10) == expected
                assert commutes(p, x) == expected

    def test_empty_grid_rejected(self):
        with pytest.raises(DimError):
            interval_projector([], 0, 1)

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            interval_projector([0, 1], 2, 1)


class TestEmbedAndFlavors:

    def test_embed_middle_slot(self):
        zp, _ = spin_projectors("z")
        out = embed(zp, (2, 2, 2), 1)
        expected = np.kron(np.kron(np.eye(2), zp.matrix), np.eye(2))
        assert np.allclose(out.matrix, expected)
        assert out.dims == (2, 2, 2)

    def test_projector_flavor_validated(self):
        with pytest.raises(NotProjectorError):
            Operator([[1, 1], [0, 0]], flavor="projector")

    def test_unitary_flavor_validated(self):
        with pytest.raises(ValueError):
            Operator([[1, 0], [0, 2]], flavor="unitary")

    def test_positive_flavor_validated(self):
        with pytest.raises(ValueError):
            Operator([[1, 0], [0, -1]], flavor="positive")
        Operator([[1, 0], [0, 0.5]], flavor="positive")

    def test_basis_ket(self):
        k = basis_ket(2, (2, 2))
        assert np.allclose(k.amplitudes, [0, 0, 1, 0])
        assert k.dims == (2, 2)

    def test_immutability(self):
        p = Operator.identity(2)
        with pytest.raises(ValueError):
            p.matrix[0, 0] = 5


class TestRejectedInput:

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_non_finite_operator_rejected(self, bad):
        with pytest.raises(NonFiniteError):
            Operator([[bad, 0], [0, 1]])
        with pytest.raises(NonFiniteError):
            Operator([[bad, 0], [0, 1]], flavor="unitary")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_ket_rejected(self, bad):
        with pytest.raises(NonFiniteError) as err:
            Ket([bad, 0])
        assert isinstance(err.value, CohistError)
        assert isinstance(err.value, ValueError)

    @pytest.mark.parametrize("flavor, matrix", [
        ("unitary", [[1, 0], [0, 2]]),
        ("hermitian", [[0, 1], [0, 0]]),
        ("positive", [[0, 1], [0, 0]]),
        ("positive", [[1, 0], [0, -1]]),
    ])
    def test_flavor_failures_are_typed(self, flavor, matrix):
        with pytest.raises(FlavorError) as err:
            Operator(matrix, flavor=flavor)
        assert isinstance(err.value, CohistError)
        assert isinstance(err.value, ValueError)

    @pytest.mark.parametrize("flavor, error", [
        ("projector", NotProjectorError),
        ("unitary", FlavorError),
        ("hermitian", FlavorError),
        ("positive", FlavorError),
    ])
    def test_flavor_checks_fail_on_nan(self, flavor, error):
        # Construction rejects NaN first; the checks must not pass it either.
        with pytest.raises(error):
            _check_flavor(np.array([[np.nan, 0], [0, 1]]), flavor, 1e-10)
