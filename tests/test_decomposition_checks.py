"""`ProjectiveDecomposition`'s batched checks against the per-element and
per-pair loop in `helpers`.

The zero, projector, pairwise-overlap and completeness checks run on one
stacked (k, d, d) array, and the overlaps come a block of rows at a time.
Over stacks with faults at varying positions, the batched checks must raise
the same error class with the same message as the loop, and accept what it
accepts.  Every fault is far from the tolerance: the batched norms may differ
from `np.linalg.norm`'s in the last bit.
"""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohist import CohistError, CompletenessError, Operator, make_pd
from cohist import framework as fw_mod
from helpers import loop_pd_check, random_pd

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

FAULTS = ("zero", "scaled", "oblique", "duplicate", "drop", "dim")


def apply_fault(projs, kind, pos, other):
    """The elements with one fault at `pos` (`other`: a second position)."""
    p = projs[pos]
    d = p.dim
    if kind == "zero":
        projs[pos] = Operator.zero(p.dims)
    elif kind == "scaled":
        projs[pos] = Operator(2.0 * p.matrix, p.dims)
    elif kind == "oblique":
        m = np.zeros((d, d), dtype=complex)
        m[0, 0] = m[0, d - 1] = 1.0
        projs[pos] = Operator(m, p.dims)
    elif kind == "duplicate":
        projs[pos] = projs[other]
    elif kind == "drop":
        del projs[pos]
    else:
        projs[pos] = Operator.identity(projs[0].dim + 1)
    return projs


@st.composite
def stacks(draw):
    d = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    projs = list(random_pd(rng, d, int(rng.integers(1, d + 1))).projectors)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(FAULTS))
        if len(projs) < 2 and kind in ("duplicate", "drop"):
            continue
        pos = draw(st.integers(0, len(projs) - 1))
        other = (pos + draw(st.integers(1, max(1, len(projs) - 1)))) % len(projs)
        projs = apply_fault(projs, kind, pos, other)
    labels = [f"e{i}" for i in range(len(projs))]
    return projs, labels


@PROPERTY
@given(stacks(), st.sampled_from([1, fw_mod._OVERLAP_BLOCK]))
def test_batched_checks_raise_what_the_loop_raises(case, block):
    projs, labels = case
    try:
        loop_pd_check(projs, labels)
    except CohistError as err:
        want = err
    else:
        want = None
    with patch.object(fw_mod, "_OVERLAP_BLOCK", block):
        if want is None:
            assert make_pd(projs, labels).labels == tuple(labels)
            return
        with pytest.raises(CohistError) as got:
            make_pd(projs, labels)
    assert type(got.value) is type(want)
    assert str(got.value) == str(want)


def test_every_fault_is_refused():
    # Each fault on its own, at each position of a four-element basis.
    rng = np.random.default_rng(3)
    base = list(random_pd(rng, 4, 4).projectors)
    for kind in FAULTS:
        for pos in range(4):
            projs = apply_fault(list(base), kind, pos, (pos + 1) % 4)
            labels = [f"e{i}" for i in range(len(projs))]
            with pytest.raises(CohistError) as want:
                loop_pd_check(projs, labels)
            with pytest.raises(type(want.value)) as got:
                make_pd(projs, labels)
            assert str(got.value) == str(want.value)


@pytest.mark.parametrize("block", [1, 2 * 5 * 3 * 3, fw_mod._OVERLAP_BLOCK])
def test_first_overlapping_pair_in_row_major_order(block):
    # Pairs (0, 3) and (1, 2) overlap; the loop names (0, 3) first.  Blocks
    # of one row, two rows and all rows.
    a, b, c = random_pd(np.random.default_rng(5), 3, 3).projectors
    projs, labels = [a, b, b, a, c], ["a", "b", "b2", "a2", "c"]
    with pytest.raises(CohistError) as want:
        loop_pd_check(projs, labels)
    with patch.object(fw_mod, "_OVERLAP_BLOCK", block), pytest.raises(CohistError) as got:
        make_pd(projs, labels)
    assert "elements 0 (a) and 3 (a2)" in str(want.value)
    assert str(got.value) == str(want.value)


def test_empty_decomposition_still_refused():
    with pytest.raises(CompletenessError):
        make_pd([])
