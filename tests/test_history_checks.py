"""Factored history checks against the dense history-space oracles.

`HistoryFamily.validate` and `family_compatible` decide mutual exclusivity,
the sum rule and commutation from the single-time factors.  These properties
compare them with explicit kron products on random small product families
(d <= 3, up to three times), where the dense matrices are cheap, and the
exclusivity verdict with a pair-at-a-time product of factor norms on raw
families whose tables are orthogonal, nearly orthogonal or overlapping.
"""

import itertools
import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cohist import (
    CompletenessError,
    History,
    Operator,
    OrthogonalityError,
    TimeGrid,
    family_compatible,
    family_of,
    make_pd,
    product_family,
    raw_family,
    spin_pd,
    trivial_pd,
)
from cohist import histories as hist_mod
from cohist.histories import _entry_tables, _pair_table
from helpers import (
    dense_families_commute,
    dense_first_overlap,
    dense_identity_check,
    dense_identity_residual,
    pairwise_first_overlap,
    random_pd,
    random_projector,
)

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def product_families(draw):
    """A random product family, the rng that built it, and its decompositions."""
    d = draw(st.integers(1, 3))
    n_times = draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pds = [random_pd(rng, d) for _ in range(n_times)]
    return product_family(TimeGrid(range(n_times)), pds), rng, pds


@PROPERTY
@given(product_families())
def test_complete_family_validates(case):
    fam, _, _ = case
    fam.validate()
    assert dense_identity_check(fam)
    assert dense_first_overlap(fam.histories) is None


@PROPERTY
@given(product_families(), st.data())
def test_dropped_history_is_incomplete(case, data):
    fam, _, _ = case
    assume(fam.n >= 2)
    drop = data.draw(st.integers(0, fam.n - 1))
    kept = fam.histories[:drop] + fam.histories[drop + 1:]
    with pytest.raises(CompletenessError) as err:
        raw_family(fam.grid, kept)
    residual = dense_identity_residual(family_of(fam.grid, kept))
    assert not dense_identity_check(family_of(fam.grid, kept))
    assert f"||sum - I|| = {residual:.3e}" in str(err.value)


@PROPERTY
@given(product_families(), st.data())
def test_overlapping_history_names_the_dense_pair(case, data):
    fam, rng, _ = case
    d = fam.space.dim
    extra = History(
        [random_projector(rng, d, int(rng.integers(1, d + 1)))
         for _ in range(fam.grid.n_times)],
        ["extra"] * fam.grid.n_times)
    at = data.draw(st.integers(0, fam.n))
    hs = fam.histories[:at] + (extra,) + fam.histories[at:]
    i, j = dense_first_overlap(hs)
    with pytest.raises(OrthogonalityError) as err:
        raw_family(fam.grid, hs)
    assert str(err.value) == (
        f"histories {hs[i].display_label()!r} and {hs[j].display_label()!r} "
        "are not mutually exclusive")


@PROPERTY
@given(product_families(), st.data())
def test_family_compatible_matches_dense_commutator(case, data):
    fam, rng, pds = case
    d = fam.space.dim
    other = []
    for pd in pds:
        choice = data.draw(st.sampled_from(["same", "copy", "trivial", "random"]))
        if choice == "same":
            other.append(pd)
        elif choice == "copy":
            # Equal projectors held by new objects: factor sharing is only
            # a shortcut, never part of the answer.
            other.append(make_pd([Operator(p.matrix, p.dims, flavor="projector")
                                  for p in pd.projectors], pd.labels))
        elif choice == "trivial":
            other.append(trivial_pd(d))
        else:
            other.append(random_pd(rng, d))
    fam2 = product_family(fam.grid, other)
    assert family_compatible(fam, fam2) == dense_families_commute(fam, fam2)
    assert family_compatible(fam2, fam) == dense_families_commute(fam2, fam)


def _table(kind, d, rng):
    """Projectors for one time: a basis (distinct entries exactly orthogonal),
    a basis with one vector tilted by at most 1e-11 (products tiny but not
    zero), or random projectors (overlapping)."""
    if kind == "overlapping":
        return [random_projector(rng, d, int(rng.integers(1, d + 1))) for _ in range(d)]
    vectors = np.eye(d, dtype=complex)
    if kind == "tiny":
        eps = rng.uniform(1e-14, 1e-11)
        vectors[1] = np.cos(eps) * vectors[1] + np.sin(eps) * vectors[0]
    return [Operator(np.outer(v, v.conj()), (d,), flavor="projector") for v in vectors]


@st.composite
def tabled_families(draw):
    """A raw family over per-time tables of the three kinds in `_table`,
    its histories some distinct combinations of one entry per time."""
    d = draw(st.integers(2, 3))
    n_times = draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = [draw(st.sampled_from(["orthogonal", "tiny", "overlapping"]))
             for _ in range(n_times)]
    tables = [_table(kind, d, rng) for kind in kinds]
    combos = list(itertools.product(range(d), repeat=n_times))
    keep = draw(st.lists(st.sampled_from(combos), min_size=2, max_size=12, unique=True))
    histories = [History([tables[m][k] for m, k in enumerate(combo)],
                         [f"{kinds[m][0]}{k}" for m, k in enumerate(combo)])
                 for combo in keep]
    return family_of(TimeGrid(range(n_times)), histories)


@PROPERTY
@given(tabled_families(), st.sampled_from([1e-10, 1e-6]))
def test_exclusivity_matches_pairwise_products(fam, tol):
    want = pairwise_first_overlap(fam, tol)
    with patch.object(hist_mod, "_pair_table", wraps=_pair_table) as walk:
        try:
            fam.validate(tol)
            got = None
        except OrthogonalityError as err:
            got = str(err)
        except CompletenessError:
            got = None
    if want is None:
        assert got is None
    else:
        i, j = want
        labels = fam.labels
        assert got == (f"histories {','.join(labels[i])!r} and {','.join(labels[j])!r} "
                       "are not mutually exclusive")
    # The n x n product table is built exactly when some two distinct entries
    # of one time's table have a product that is not exactly zero.
    overlapping = any(np.linalg.norm(a.matrix @ b.matrix) != 0.0
                      for ops in fam.factors for a, b in itertools.permutations(ops, 2))
    assert walk.called == overlapping


def test_pair_table_runs_once_per_distinct_factor_pair():
    fam = product_family(TimeGrid([0, 1, 2]), [spin_pd("z"), spin_pd("x"), spin_pd("z")])
    calls = []

    def norm(a, b):
        calls.append((a, b))
        return float(np.linalg.norm(a.matrix @ b.matrix))

    table = _pair_table(fam, fam, _entry_tables(fam, fam, norm))
    assert len(calls) == 3 * 2 * 2
    expected = [[np.prod([np.linalg.norm(a.matrix @ b.matrix)
                          for a, b in zip(h1.factors, h2.factors)])
                 for h2 in fam.histories] for h1 in fam.histories]
    assert np.array_equal(table, np.array(expected))


def test_validate_takes_each_distinct_factor_rank_once():
    fam = product_family(TimeGrid([0, 1, 2]), [spin_pd("z"), spin_pd("x"), spin_pd("z")])
    calls = []
    trace = Operator.trace

    def counted(op):
        calls.append(op)
        return trace(op)

    with patch.object(Operator, "trace", counted):
        fam.validate()
    assert len(calls) == 3 * 2


def test_rank_sum_is_exact_past_int64():
    # 70 times on a qubit: the history space has dimension 2^70.
    n_times = 70
    grid = TimeGrid(range(n_times))
    ident = Operator.identity(2)
    plus, minus = spin_pd("z").projectors
    hs = [History([p] + [ident] * (n_times - 1), [lab] + ["I"] * (n_times - 1))
          for p, lab in ((plus, "z+"), (minus, "z-"))]
    raw_family(grid, hs)
    with pytest.raises(CompletenessError) as err:
        raw_family(grid, hs[:1])
    assert f"||sum - I|| = {math.sqrt(2 ** 69):.3e}" in str(err.value)
