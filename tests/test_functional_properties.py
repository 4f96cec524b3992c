"""The array-native decoherence functional against per-history references.

`decoherence_functional` evaluates every chain of a family in one batched
pass and decides the verdict with array reductions over the nonzero entries
of blocks of rows.  These properties compare it with the per-history chain
loop, one trace per pair, and the pairwise verdict loop in `helpers`, on
random small product families (d <= 3, up to four times), on mostly-zero
functionals of basis-product families, and at several block sizes.
"""

import math
from unittest.mock import patch

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cohist import (
    Dynamics,
    Operator,
    TimeGrid,
    basis_pd,
    chain_operator,
    decoherence_functional,
    product_family,
)
from cohist import dynamics as dyn_mod
from helpers import (
    loop_chain,
    pairwise_verdict,
    random_pd,
    random_unitary,
    trace_gram,
)

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

# 1 and 3 rows per block split every family into several blocks.
BLOCKS = st.sampled_from([1, 3, dyn_mod._VERDICT_BLOCK])
TOLERANCES = st.sampled_from([(1e-8, 1e-12), (1e-3, 1e-12), (0.5, 1e-3), (10.0, 1e-12)])


@st.composite
def families(draw):
    """A product family with dynamics.  One time in four it has one
    decomposition at every time and trivial dynamics, which makes it
    consistent; otherwise it has random ones, and from three times on it is
    generically inconsistent."""
    d = draw(st.integers(1, 3))
    n_times = draw(st.integers(2, 4))
    blocks = [draw(st.integers(min(2, d), d)) for _ in range(n_times)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = TimeGrid(range(n_times))
    if draw(st.integers(0, 3)) == 0:
        pds = [random_pd(rng, d, blocks[0])] * n_times
        dyn = Dynamics.trivial(grid, (d,))
    else:
        pds = [random_pd(rng, d, k) for k in blocks]
        dyn = Dynamics(grid, [random_unitary(rng, d) for _ in range(n_times - 1)])
    return product_family(grid, pds), dyn


@PROPERTY
@given(families())
def test_batched_functional_matches_per_history_gram(case):
    fam, dyn = case
    report = decoherence_functional(fam, dyn)
    oracle = trace_gram(fam.histories, dyn)
    assert np.max(np.abs(report.matrix - oracle)) <= 1e-14 * np.max(np.abs(oracle))
    assert np.array_equal(report.weights, report.matrix.diagonal().real)
    for h in fam.histories:
        assert np.array_equal(chain_operator(h, dyn).matrix, loop_chain(h, dyn))


@PROPERTY
@given(families(), BLOCKS, TOLERANCES)
def test_verdict_equals_pairwise_loop(case, block, tols):
    fam, dyn = case
    tol, floor = tols
    with patch.object(dyn_mod, "_VERDICT_BLOCK", block):
        report = decoherence_functional(fam, dyn, tol_consistency=tol, floor=floor)
    want = pairwise_verdict(report.matrix, report.weights, tol, floor)
    assert (report.consistent, report.max_offdiag_abs, report.max_offdiag_rel) == want


# Entries written over a mostly-zero D: both signs of zero in each part, NaN,
# and values just above zero.
ODD_ENTRIES = st.sampled_from([
    complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0),
    complex(math.nan, 0.0), complex(0.0, math.nan),
    complex(1e-17, 0.0), complex(0.0, -1e-17), complex(-1e-17, 1e-17)])


@st.composite
def sparse_functionals(draw):
    """D and the weights of a basis-product family under dynamics that permute
    the basis with phases, with a few entries overwritten by ODD_ENTRIES.

    Each chain is a multiple of one dyad |k><i>, so D(a, b) is exactly zero
    unless a and b start and end in the same basis states."""
    d = draw(st.integers(1, 4))
    n_times = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = TimeGrid(range(n_times))
    steps = []
    for _ in range(n_times - 1):
        u = np.zeros((d, d), dtype=complex)
        u[rng.permutation(d), np.arange(d)] = np.exp(2j * np.pi * rng.uniform(size=d))
        steps.append(Operator(u, (d,), flavor="unitary"))
    report = decoherence_functional(product_family(grid, [basis_pd(d)] * n_times),
                                    Dynamics(grid, steps))
    dmat = np.array(report.matrix)
    n = report.n
    for _ in range(draw(st.integers(0, 4))):
        dmat[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] = draw(ODD_ENTRIES)
    return dmat, np.array(report.weights)


@PROPERTY
@given(sparse_functionals(), BLOCKS, TOLERANCES)
def test_verdict_on_mostly_zero_functionals_equals_pairwise_loop(case, block, tols):
    dmat, weights = case
    tol, floor = tols
    with patch.object(dyn_mod, "_VERDICT_BLOCK", block):
        got = dyn_mod._verdict(dmat, weights, tol, floor)
    want = pairwise_verdict(dmat, weights, tol, floor)
    # repr matches NaN with NaN and tells -0.0 from 0.0.
    assert [repr(float(x)) for x in got] == [repr(float(x)) for x in want]


@PROPERTY
@given(families())
def test_functional_is_hermitian_and_positive_semidefinite(case):
    fam, dyn = case
    dmat = decoherence_functional(fam, dyn).matrix
    scale = max(1.0, float(np.max(np.abs(dmat))))
    assert np.max(np.abs(dmat - dmat.conj().T)) <= 1e-14 * scale
    assert np.min(np.linalg.eigvalsh(dmat)) >= -1e-12 * scale


@PROPERTY
@given(families(), BLOCKS, st.data())
def test_nan_makes_verdict_inconsistent(case, block, data):
    fam, dyn = case
    report = decoherence_functional(fam, dyn)
    n = report.n
    dmat = np.array(report.matrix)
    weights = np.array(report.weights)
    if n > 1:
        i = data.draw(st.integers(0, n - 2))
        j = data.draw(st.integers(i + 1, n - 1))
        dmat[i, j] = complex(math.nan, 0.0)
    else:
        weights[0] = math.nan
    with patch.object(dyn_mod, "_VERDICT_BLOCK", block):
        consistent, max_abs, _ = dyn_mod._verdict(
            dmat, weights, dyn_mod.TOL_CONSISTENCY, dyn_mod.CONSISTENCY_FLOOR)
    assert not consistent
    if n > 1:
        assert math.isnan(max_abs)


def test_nan_weight_makes_verdict_inconsistent():
    dmat = np.eye(3, dtype=complex)
    weights = np.array([1.0, math.nan, 1.0])
    consistent, _, _ = dyn_mod._verdict(dmat, weights, 1e-8, 1e-12)
    assert not consistent
