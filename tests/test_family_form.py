"""The stored form of a family against per-`History` references.

A `HistoryFamily` keeps per time a table of distinct factors and their
labels, plus one (n, f+1) index array.  These properties build product,
fixed-initial, unitary and raw families (d <= 3, up to four times) and compare
the stored form with loops over the `History` objects it stands for.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cohist import (
    TOL_ALG,
    Dynamics,
    History,
    Operator,
    TimeGrid,
    commutes,
    decoherence_functional,
    family_compatible,
    family_of,
    fixed_initial_family,
    product_family,
    raw_family,
    trivial_pd,
    unitary_family,
)
from helpers import random_ket, random_pd, random_projector, random_unitary

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def families(draw):
    """(family, its dynamics, the decompositions it was drawn from, rng).

    A raw family is a product family's histories in shuffled order, each
    factor held by a fresh copy half of the time, so one label may have
    several table entries."""
    d = draw(st.integers(1, 3))
    n_times = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(["product", "fixed", "unitary", "raw"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = TimeGrid(range(n_times))
    pds = [random_pd(rng, d) for _ in range(n_times)]
    if draw(st.booleans()):
        dyn = Dynamics.trivial(grid, (d,))
    else:
        dyn = Dynamics(grid, [random_unitary(rng, d) for _ in range(n_times - 1)])
    if kind == "product":
        fam = product_family(grid, pds)
    elif kind == "fixed":
        initial = random_projector(rng, d, int(rng.integers(1, d + 1)))
        fam = fixed_initial_family(grid, initial, pds[1:], label="p0")
        pds[0] = trivial_pd(d)
    elif kind == "unitary":
        fam = unitary_family(random_ket(rng, d), dyn)
    else:
        hs = [History([Operator(f.matrix, f.dims, flavor="projector")
                       if rng.integers(2) else f for f in h.factors], h.label)
              for h in product_family(grid, pds).histories]
        fam = raw_family(grid, [hs[i] for i in rng.permutation(len(hs))])
    return fam, dyn, pds, rng


@PROPERTY
@given(families())
def test_family_of_its_histories_is_the_same_family(case):
    fam, dyn, _, _ = case
    again = family_of(fam.grid, fam.histories)
    assert again.labels == fam.labels
    assert np.array_equal(again.kinds, fam.kinds)
    assert [h.label for h in fam.histories] == list(fam.labels)
    assert np.array_equal(decoherence_functional(again, dyn).matrix,
                          decoherence_functional(fam, dyn).matrix)


@PROPERTY
@given(families(), st.data())
def test_mask_and_select_match_a_history_loop(case, data):
    fam, _, _, _ = case
    times = data.draw(st.sets(st.integers(0, fam.grid.n_times - 1), max_size=3))
    event = {t: set(data.draw(st.lists(st.sampled_from(fam.names[t]), min_size=1)))
             for t in times}
    want = [all(h.label[t] in allowed for t, allowed in event.items())
            for h in fam.histories]
    assert fam.mask(event).tolist() == want
    assert fam.select(event) == tuple(i for i, hit in enumerate(want) if hit)


@PROPERTY
@given(families())
def test_time_reversal_reverses_every_label(case):
    fam, _, _, _ = case
    rev = fam.time_reversed()
    assert rev.labels == tuple(label[::-1] for label in fam.labels)
    assert np.array_equal(rev.kinds, fam.kinds)
    for h, r in zip(fam.histories, rev.histories):
        assert all(a is b for a, b in zip(r.factors, h.factors[::-1]))


def refinement_verdict(f1, f2, dyn):
    """family_compatible, one history pair at a time: every overlapping pair
    must commute factor by factor, and the refinement built from `History`
    objects must be consistent."""
    refined = []
    for h1 in f1.histories:
        for h2 in f2.histories:
            norm = np.prod([np.linalg.norm(a.matrix @ b.matrix)
                            for a, b in zip(h1.factors, h2.factors)])
            if not norm > TOL_ALG:
                continue
            if not all(commutes(a, b, TOL_ALG) for a, b in zip(h1.factors, h2.factors)):
                return False
            kind = "throwaway" if "throwaway" in (h1.kind, h2.kind) else "normal"
            refined.append(History(
                [Operator(a.matrix @ b.matrix, a.dims, flavor="projector")
                 for a, b in zip(h1.factors, h2.factors)],
                [f"{a}&{b}" for a, b in zip(h1.label, h2.label)], kind))
    return decoherence_functional(family_of(f1.grid, refined), dyn).consistent


@PROPERTY
@given(families(), st.data())
def test_family_compatible_matches_a_history_by_history_refinement(case, data):
    fam, dyn, pds, rng = case
    d = fam.space.dim
    other = []
    for pd in pds:
        choice = data.draw(st.sampled_from(["same", "trivial", "random"]))
        if choice == "same":
            other.append(pd)
        elif choice == "trivial":
            other.append(trivial_pd(d))
        else:
            other.append(random_pd(rng, d))
    fam2 = product_family(fam.grid, other)
    assert family_compatible(fam, fam2, dyn) == refinement_verdict(fam, fam2, dyn)
    assert family_compatible(fam2, fam, dyn) == refinement_verdict(fam2, fam, dyn)
