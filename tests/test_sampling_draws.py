"""Sampling against `Generator.choice` with weights.

`sample_history` and `sample_counts` draw the uniforms `choice` draws and
look them up in the same cumulative weights, and `sample_counts` tallies
them from one sort.  So for every seed they must give exactly the labels
`choice` picks, in order, and exactly the `np.bincount` of those picks:
with exact zero weights, with a single included history, and for no,
zero, one and 10^5 draws.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cohist import (
    Dynamics,
    Ket,
    TimeGrid,
    basis_pd,
    decoherence_functional,
    dyad,
    fixed_initial_family,
    sample_counts,
    sample_history,
    trivial_pd,
)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

WEIGHTS = st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 10.0)), min_size=1, max_size=6)
SIZES = st.sampled_from([None, 0, 1, 100_000])
SEEDS = st.integers(0, 2**63 - 1)


def weighted_family(weights):
    """A two-time fixed-initial family whose included histories carry the
    given weights, normalized (exact zeros stay exact), and past one
    dimension a throwaway."""
    w = np.asarray(weights, dtype=float)
    grid = TimeGrid([0, 1])
    psi = Ket(np.sqrt(w / w.sum()))
    pd = trivial_pd(len(w)) if len(w) == 1 else basis_pd(len(w))
    return fixed_initial_family(grid, dyad(psi), [pd]), Dynamics.trivial(grid, len(w))


def choice_picks(family, dynamics, seed, size):
    report = decoherence_functional(family, dynamics)
    w = np.maximum(report.weights[report.included], 0.0)
    return np.random.default_rng(seed).choice(len(w), size, p=w / w.sum())


@PROPERTY
@given(WEIGHTS.filter(lambda w: sum(w) > 0), SIZES, SEEDS)
def test_draws_are_the_draws_of_choice(weights, size, seed):
    family, dynamics = weighted_family(weights)
    included = family.included_indices()
    picks = choice_picks(family, dynamics, seed, size)
    labels = sample_history(family, dynamics, seed, size)
    if size is None:
        assert labels == family.labels[included[int(picks)]]
        return
    assert labels == [family.labels[included[i]] for i in picks.tolist()]
    counts = sample_counts(family, dynamics, seed, size)
    want = np.bincount(picks, minlength=len(included))
    assert counts.dtype == want.dtype
    assert counts.tolist() == want.tolist()


def test_zero_weight_histories_are_never_drawn():
    family, dynamics = weighted_family([0.0, 1.0, 0.0, 3.0, 0.0])
    counts = sample_counts(family, dynamics, 20260810, 100_000)
    assert counts[[0, 2, 4]].tolist() == [0, 0, 0]
    assert counts.sum() == 100_000


def test_single_included_history_takes_every_draw():
    family, dynamics = weighted_family([2.5])
    assert sample_counts(family, dynamics, 1, 1000).tolist() == [1000]
    assert sample_history(family, dynamics, 1) == family.labels[family.included_indices()[0]]
