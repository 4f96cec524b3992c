"""History families: construction, mutual exclusivity, compatibility."""

import numpy as np
import pytest

from cohist import (
    ArgumentError,
    CompletenessError,
    DimError,
    Dynamics,
    GridMismatchError,
    History,
    Ket,
    NotProjectorError,
    Operator,
    OrthogonalityError,
    TimeGrid,
    basis_pd,
    decoherence_functional,
    dyad,
    family_compatible,
    fixed_initial_family,
    lift_pd,
    make_pd,
    product_family,
    raw_family,
    spin_pd,
    spin_projectors,
    trivial_pd,
    unitary_family,
)
from cohist import histories as hist_mod
from helpers import (
    dense_families_commute,
    dense_identity_check,
    random_ket,
    random_unitary,
)


class TestTimeGrid:

    def test_strictly_increasing_required(self):
        with pytest.raises(GridMismatchError):
            TimeGrid([0.0, 0.0, 1.0])
        with pytest.raises(GridMismatchError):
            TimeGrid([1.0])

    def test_steps(self):
        g = TimeGrid([0.0, 0.5, 2.0])
        assert g.f == 2
        assert g.dt(1) == 1.5

    def test_reversed(self):
        g = TimeGrid([0.0, 1.0, 3.0])
        assert g.reversed().times == (-3.0, -1.0, 0.0)


class TestProductFamily:

    def test_three_z_times_has_eight_histories(self):
        grid = TimeGrid([0, 1, 2])
        fam = product_family(grid, [spin_pd("z")] * 3)
        assert fam.n == 8
        fam.validate()
        assert dense_identity_check(fam)

    def test_single_nontrivial_time_lifts_the_pd(self):
        grid = TimeGrid([0, 1])
        pd = spin_pd("z")
        fam = product_family(grid, [trivial_pd(2), pd])
        assert fam.n == pd.size
        for h, p in zip(fam.histories, pd.projectors):
            assert np.allclose(h.factors[1].matrix, p.matrix)

    def test_count_matches_product_of_sizes(self):
        grid = TimeGrid([0, 1, 2])
        fam = product_family(grid, [basis_pd(3), trivial_pd(3), basis_pd(3)])
        assert fam.n == 3 * 1 * 3

    def test_mixed_dims_rejected(self):
        grid = TimeGrid([0, 1])
        with pytest.raises(DimError):
            product_family(grid, [spin_pd("z"), basis_pd(3)])

    def test_wrong_pd_count_rejected(self):
        with pytest.raises(GridMismatchError):
            product_family(TimeGrid([0, 1, 2]), [spin_pd("z")] * 2)


class TestFixedInitialFamily:

    def test_throwaway_bookkeeping(self):
        zp, _ = spin_projectors("z")
        grid = TimeGrid([0, 1])
        fam = fixed_initial_family(grid, zp, [spin_pd("z")])
        assert fam.n == 3
        kinds = [h.kind for h in fam.histories]
        assert kinds.count("throwaway") == 1
        fam.validate()
        assert dense_identity_check(fam)

    def test_identity_initial_drops_throwaway(self):
        grid = TimeGrid([0, 1])
        fam = fixed_initial_family(grid, Operator.identity(2), [spin_pd("z")])
        assert fam.n == 2
        assert all(h.kind == "normal" for h in fam.histories)

    def test_measurement_shape(self):
        # [Psi0] then particle basis then pointer cells
        grid = TimeGrid([0, 1, 2])
        init = dyad(Ket([1, 0, 0, 0], (2, 2)))
        sys_pd = lift_pd(spin_pd("z"), (2, 2), 0)
        ptr_pd = lift_pd(basis_pd(2), (2, 2), 1)
        fam = fixed_initial_family(grid, init, [sys_pd, ptr_pd], label="Psi0")
        assert fam.n == 2 * 2 + 1
        assert fam.histories[0].label == ("Psi0", "z+", "0")
        fam.validate()

    def test_non_projector_rejected(self):
        grid = TimeGrid([0, 1])
        with pytest.raises(NotProjectorError):
            fixed_initial_family(grid, Operator([[0.5, 0], [0, 0]]), [spin_pd("z")])


class TestUnitaryFamily:

    def test_trivial_dynamics_tracks_initial(self):
        grid = TimeGrid([0, 1, 2])
        psi = Ket([1, 0])
        fam = unitary_family(psi, Dynamics.trivial(grid, 2))
        unit = [h for h in fam.histories if h.kind == "unitary"]
        assert len(unit) == 1
        for f in unit[0].factors:
            assert np.allclose(f.matrix, dyad(psi).matrix)

    def test_rotation_tracks_rotated_ray(self):
        theta = np.pi / 4
        rot = Operator([[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]], flavor="unitary")
        grid = TimeGrid([0, 1, 2])
        dyn = Dynamics(grid, [rot, rot])
        psi = Ket([1, 0])
        fam = unitary_family(psi, dyn)
        unit = [h for h in fam.histories if h.kind == "unitary"][0]
        expected = psi.amplitudes
        for m in range(3):
            assert np.allclose(unit.factors[m].matrix,
                               np.outer(expected, expected.conj()))
            expected = rot.matrix @ expected

    def test_eq6_always_holds(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            grid = TimeGrid([0, 1, 2, 3])
            dyn = Dynamics(grid, [random_unitary(rng, 3) for _ in range(3)])
            fam = unitary_family(random_ket(rng, 3), dyn)
            fam.validate()
            assert dense_identity_check(fam)

    def test_requires_normalized_state(self):
        from cohist import NormalizationError

        grid = TimeGrid([0, 1])
        with pytest.raises(NormalizationError):
            unitary_family(Ket([1, 1]), Dynamics.trivial(grid, 2))


class TestRawFamily:

    def test_valid_raw_family(self):
        grid = TimeGrid([0, 1])
        zp, zm = spin_projectors("z")
        ident = Operator.identity(2)
        hs = [History([zp, ident], ["z+", "I"]),
              History([zm, ident], ["z-", "I"])]
        fam = raw_family(grid, hs)
        assert fam.n == 2

    def test_incomplete_raw_family_rejected(self):
        grid = TimeGrid([0, 1])
        zp, zm = spin_projectors("z")
        with pytest.raises(CompletenessError):
            raw_family(grid, [History([zp, zp], ["a", "b"])])

    def test_repeated_label_tuple_rejected(self):
        # Two factor objects under one label: distinct table entries, equal
        # label tuples.
        grid = TimeGrid([0, 1])
        zp, zm = spin_projectors("z")
        ident = Operator.identity(2)
        with pytest.raises(ArgumentError, match="duplicate history labels"):
            raw_family(grid, [History([zp, ident], ["z", "I"]),
                              History([zm, ident], ["z", "I"])])
        with pytest.raises(ArgumentError, match="duplicate history labels"):
            unitary_family(Ket([1, 0]), Dynamics.trivial(grid, 2), labels=("a", "a"))

    def test_overlapping_histories_rejected(self):
        grid = TimeGrid([0, 1])
        ident = Operator.identity(2)
        zp, zm = spin_projectors("z")
        hs = [History([ident, ident], ["I", "I"]),
              History([zp, ident], ["z+", "I"])]
        with pytest.raises(OrthogonalityError):
            raw_family(grid, hs)


class TestFamilyCompatibility:

    def test_self_compatible(self):
        grid = TimeGrid([0, 1, 2])
        fam = product_family(grid, [spin_pd("z")] * 3)
        assert family_compatible(fam, fam)

    def test_z_then_x_family_incompatible(self):
        grid = TimeGrid([0, 1, 2])
        f1 = product_family(grid, [spin_pd("z")] * 3)
        f2 = product_family(grid, [spin_pd("z"), spin_pd("x"), spin_pd("x")])
        assert not family_compatible(f1, f2)

    def test_coarse_and_fine_grids_compatible(self):
        grid = TimeGrid([0, 1, 2])
        early = product_family(grid, [trivial_pd(2), spin_pd("z"), trivial_pd(2)])
        late = product_family(grid, [trivial_pd(2), trivial_pd(2), spin_pd("z")])
        assert family_compatible(early, late)

    def test_with_dynamics_requires_consistent_refinement(self):
        # trivial dynamics: combining z at t1 with x at t2 is fine as a
        # projector family but the refined family fails consistency when
        # combined with an x-basis initial condition
        grid = TimeGrid([0, 1, 2])
        xp, _ = spin_projectors("x")
        dyn = Dynamics.trivial(grid, 2)
        f1 = fixed_initial_family(grid, xp, [spin_pd("z"), trivial_pd(2)])
        f2 = fixed_initial_family(grid, xp, [trivial_pd(2), spin_pd("x")])
        assert family_compatible(f1, f2)
        assert not family_compatible(f1, f2, dyn)

    @pytest.mark.parametrize("dynamics", ["none", "trivial", "random"])
    def test_refined_products_built_once_per_distinct_pair(self, monkeypatch,
                                                           dynamics):
        # 27 basis histories against 8 coarse ones: 27 overlapping pairs of
        # 3 factors each, but only p0 q0, p1 q0 and p2 q1 as distinct products.
        grid = TimeGrid([0, 1, 2])
        fine = product_family(grid, [basis_pd(3)] * 3)
        q = make_pd([Operator(np.diag([1.0, 1.0, 0.0]), (3,), flavor="projector"),
                     Operator(np.diag([0.0, 0.0, 1.0]), (3,), flavor="projector")])
        coarse = product_family(grid, [q] * 3)
        if dynamics == "trivial":
            dyn = Dynamics.trivial(grid, 3)
        elif dynamics == "random":
            rng = np.random.default_rng(11)
            dyn = Dynamics(grid, [random_unitary(rng, 3) for _ in range(2)])
        else:
            dyn = None
        built = []

        def counting(matrix, *args, **kwargs):
            built.append(matrix)
            return Operator(matrix, *args, **kwargs)

        monkeypatch.setattr(hist_mod, "Operator", counting)
        verdict = family_compatible(fine, coarse, dyn)
        assert len(built) == 3
        # Each product p_i q equals p_i, so the refinement is the fine family.
        if dyn is None:
            assert verdict is dense_families_commute(fine, coarse) is True
        else:
            assert verdict == decoherence_functional(fine, dyn).consistent
            assert verdict == (dynamics == "trivial")

    def test_with_dynamics_consistent_refinement_passes(self):
        grid = TimeGrid([0, 1, 2])
        dyn = Dynamics.trivial(grid, 2)
        f1 = product_family(grid, [trivial_pd(2), spin_pd("z"), trivial_pd(2)])
        f2 = product_family(grid, [trivial_pd(2), trivial_pd(2), spin_pd("z")])
        assert family_compatible(f1, f2, dyn)

    def test_tolerance_defaults_have_one_home(self):
        import inspect

        import cohist
        from cohist import dynamics, framework, operators

        for name in ("TOL_CONSISTENCY", "CONSISTENCY_FLOOR", "TOL_PROB"):
            value = getattr(operators, name)
            assert getattr(cohist, name) is value
            assert getattr(dynamics, name) is value
        assert framework.TOL_PROB is operators.TOL_PROB
        params = inspect.signature(family_compatible).parameters
        assert params["tol_consistency"].default is operators.TOL_CONSISTENCY
        assert params["floor"].default is operators.CONSISTENCY_FLOOR

    def test_grid_mismatch_rejected(self):
        f1 = product_family(TimeGrid([0, 1]), [spin_pd("z")] * 2)
        f2 = product_family(TimeGrid([0, 2]), [spin_pd("z")] * 2)
        with pytest.raises(DimError):
            family_compatible(f1, f2)


class TestSelection:

    def test_select_by_time_labels(self):
        grid = TimeGrid([0, 1, 2])
        fam = product_family(grid, [spin_pd("z")] * 3)
        idx = fam.select({0: "z+", 2: {"z-"}})
        labels = [fam.histories[i].label for i in idx]
        assert all(l[0] == "z+" and l[2] == "z-" for l in labels)
        assert len(idx) == 2

    def test_select_bad_time(self):
        grid = TimeGrid([0, 1])
        fam = product_family(grid, [spin_pd("z")] * 2)
        with pytest.raises(GridMismatchError):
            fam.select({5: "z+"})

    def test_time_reversed_family(self):
        grid = TimeGrid([0, 1, 2])
        fam = product_family(grid, [spin_pd("z"), spin_pd("x"), spin_pd("y")])
        rev = fam.time_reversed()
        assert rev.grid.times == (-2.0, -1.0, 0.0)
        assert rev.histories[0].label == tuple(reversed(fam.histories[0].label))
