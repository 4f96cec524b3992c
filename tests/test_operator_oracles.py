"""`embed`, `tensor` and the Frobenius norm against their np.kron and
np.linalg.norm forms in `helpers`, and the soundness of the flavors that
results inherit unchecked.

`embed` and `tensor` multiply by broadcasting, and `_fro` sums the norm
without `np.linalg.norm`'s argument handling.  The products and sums are the
same, so the matrices, flavor tags and norms must match bit for bit, signed
zeros included.  `tensor`, `embed`, `dag`, a projector's `complement` and
`tensor_pd`/`lift_pd` are not checked again.  For inputs moved off their
flavor until the default check almost refuses them, each result's deviation
must stay within the bound the `Operator` docstring states: the sum over its
factors of each one's deviation times the other factors' Frobenius norms,
twice that for a positive result's least eigenvalue.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohist import DimError, Ket, Operator, embed, lift_pd, make_pd, tensor, tensor_pd
from cohist.operators import TOL_ALG, _fro
from helpers import (
    kron_embed,
    kron_tensor,
    linalg_norm,
    loop_pd_check,
    random_pd,
    random_projector,
    random_unitary,
)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# Entries with signed zeros in either part, so that the sign of a zero
# product shows when the products differ.
ENTRIES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.25, 1e-300, 3.0e7])


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@st.composite
def matrices(draw, d):
    re = draw(st.lists(ENTRIES, min_size=d * d, max_size=d * d))
    im = draw(st.lists(ENTRIES, min_size=d * d, max_size=d * d))
    return (np.array(re) + 1j * np.array(im)).reshape(d, d)


@st.composite
def flavored(draw, d):
    """An operator on dim d: plain, or a projector, unitary or Hermitian one
    from a seeded generator."""
    kind = draw(st.sampled_from(["plain", "projector", "unitary", "hermitian"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "plain":
        return Operator(draw(matrices(d)), (d,))
    if kind == "projector":
        return random_projector(rng, d, int(rng.integers(0, d + 1)))
    if kind == "unitary":
        return random_unitary(rng, d)
    u = random_unitary(rng, d).matrix
    return Operator(u + u.conj().T, (d,), flavor="hermitian")


@st.composite
def embeddings(draw):
    dims = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
    slot = draw(st.integers(0, len(dims) - 1))
    return draw(flavored(dims[slot])), dims, slot


@PROPERTY
@given(embeddings())
def test_embed_matches_kron_of_identities(case):
    op, dims, slot = case
    got, want = embed(op, dims, slot), kron_embed(op, dims, slot)
    assert same_bits(got.matrix, want.matrix)
    assert got.flavor == want.flavor
    assert got.dims == want.dims == dims


@PROPERTY
@given(st.lists(st.integers(1, 3), min_size=1, max_size=4).flatmap(
    lambda ds: st.tuples(*[flavored(d) for d in ds])))
def test_tensor_matches_np_kron(parts):
    got = tensor(*parts)
    want = parts[0] if len(parts) == 1 else kron_tensor(*parts)
    assert same_bits(got.matrix, want.matrix)
    assert got.flavor == want.flavor
    assert got.dims == want.dims


@PROPERTY
@given(st.lists(st.lists(ENTRIES, min_size=2, max_size=2), min_size=1, max_size=4))
def test_tensor_of_kets_matches_np_kron(amps):
    kets = [Ket(np.array(a) + 1j * np.array(a[::-1])) for a in amps
            if any(a)] or [Ket([1.0, -0.0])]
    got = tensor(*kets)
    want = kets[0] if len(kets) == 1 else kron_tensor(*kets)
    assert same_bits(got.amplitudes, want.amplitudes)
    assert got.dims == want.dims


@PROPERTY
@given(st.integers(1, 5).flatmap(matrices))
def test_fro_matches_linalg_norm(m):
    for x in (m, m.T, m.conj().T, m[::-1], m.ravel(), m.ravel()[::2], m.real, m.real.T):
        assert _fro(x) == linalg_norm(x)


def test_fro_matches_linalg_norm_on_generic_views():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    for x in (m[1:, ::2], m[::3].T):
        assert _fro(x) == linalg_norm(x)
    for x in (m, m.T, m.conj().T, m[::2, ::2], np.asfortranarray(m)):
        assert _fro(x) == linalg_norm(x)
        assert Operator(x).norm() == linalg_norm(Operator(x).matrix)


def test_identity_and_zero_are_exact_and_tagged():
    for dims in (1, 3, (2, 3)):
        d = int(np.prod(dims))
        ident, zero = Operator.identity(dims), Operator.zero(dims)
        assert same_bits(ident.matrix, np.eye(d, dtype=complex))
        assert same_bits(zero.matrix, np.zeros((d, d), dtype=complex))
        assert ident.flavor == zero.flavor == "projector"
        assert ident.dims == zero.dims == ((dims,) if isinstance(dims, int) else dims)
        assert not ident.matrix.flags.writeable and not zero.matrix.flags.writeable


@pytest.mark.parametrize("flavor", ["projector", "unitary", "hermitian"])
@pytest.mark.parametrize("dims, slot", [((2,), 0), ((2, 3), 0), ((3, 2), 1), ((2, 2, 2), 1)])
def test_embed_keeps_the_tag_of_an_operator_checked_at_a_looser_tolerance(flavor, dims, slot):
    # Off by 1e-8: accepted at tol=1e-6, where it was checked; embed checks nothing again.
    rng = np.random.default_rng(11)
    d = dims[slot]
    base = {"projector": random_projector(rng, d, 1), "unitary": random_unitary(rng, d),
            "hermitian": Operator(np.diag(np.arange(d, dtype=float)))}[flavor]
    m = base.matrix.copy()
    m[0, 0] += 1e-8j
    op = Operator(m, (d,), flavor=flavor, tol=1e-6)
    got, want = embed(op, dims, slot), kron_embed(op, dims, slot, tol=1e-6)
    assert same_bits(got.matrix, want.matrix)
    assert got.flavor == want.flavor
    assert got.flavor == (flavor if len(dims) == 1 or flavor == "projector" else None)


def kron_embed_checked(op, dims, slot):
    """`kron_embed` behind the slot and dim checks `embed` makes first."""
    dims = tuple(int(d) for d in dims)
    if not 0 <= slot < len(dims) or op.dim != dims[slot]:
        raise DimError("bad slot")
    return kron_embed(op, dims, slot)


def test_embed_refuses_bad_factor_dims_as_before():
    op = Operator.identity(2)
    for dims, slot in (((0, 2), 1), ((2, 0), 0), ((-1, 2), 1), ((2, -3, 0), 0),
                       ((2, 3), 1), ((2,), 1)):
        with pytest.raises(Exception) as got:
            embed(op, dims, slot)
        with pytest.raises(Exception) as want:
            kron_embed_checked(op, dims, slot)
        assert type(got.value) is type(want.value)


# Rounding in the products and in the norms, far below any deviation at issue.
ROUNDING = 1e-13


def deviation(m, flavor):
    """The largest norm the check of `flavor` compares with its tolerance."""
    if flavor == "unitary":
        return _fro(m.conj().T @ m - np.eye(len(m)))
    herm = _fro(m - m.conj().T)
    if flavor == "projector":
        return max(herm, _fro(m @ m - m))
    if flavor == "positive":
        return max(herm, -float(np.linalg.eigvalsh(m).min()))
    return herm


def pd_deviation(mats):
    """The largest norm the decomposition check compares with its tolerance."""
    overlaps = [_fro(p @ q) for i, p in enumerate(mats) for q in mats[i + 1:]]
    return max([deviation(p, "projector") for p in mats] + overlaps
               + [_fro(sum(mats) - np.eye(len(mats[0])))])


def nudged(rng, mats, measure):
    """`mats` moved along random directions until `measure` of them is 0.95
    of the default tolerance; at that size it grows linearly with the step."""
    xs = [rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape) for m in mats]
    slope = measure([m + 1e-12 * x for m, x in zip(mats, xs)]) / 1e-12
    out = [m + (0.95 * TOL_ALG / slope) * x for m, x in zip(mats, xs)]
    assert 0.9 * TOL_ALG < measure(out) <= TOL_ALG
    return out


@st.composite
def near_the_tolerance(draw, d, flavor=None):
    """A projector, unitary, Hermitian or positive operator on dim d from a
    seeded generator, off its flavor by just under the default tolerance and
    checked there.  A positive one has a zero eigenvalue to push below zero."""
    flavor = flavor or draw(st.sampled_from(["projector", "unitary", "hermitian", "positive"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if flavor == "projector":
        m = random_projector(rng, d, int(rng.integers(0, d + 1))).matrix
    else:
        m = random_unitary(rng, d).matrix
        if flavor != "unitary":
            w = rng.uniform(0.0 if flavor == "positive" else -2.0, 2.0, d)
            w[0] = 0.0
            m = (m * w) @ m.conj().T
    [m] = nudged(rng, [m], lambda ms: deviation(ms[0], flavor))
    return Operator(m, (d,), flavor=flavor)


def within_bound(result, parts):
    """`result`'s deviation is at most the bound its tagged `parts` give."""
    devs = [deviation(p.matrix, p.flavor) for p in parts]
    norms = [_fro(p.matrix) for p in parts]
    bound = sum(dev * np.prod(norms[:k] + norms[k + 1:]) for k, dev in enumerate(devs))
    factor = 2 if result.flavor == "positive" else 1
    return deviation(result.matrix, result.flavor) <= factor * bound + ROUNDING


@PROPERTY
@given(st.sampled_from(["projector", "unitary", "hermitian", "positive"]).flatmap(
    lambda flavor: st.lists(st.integers(1, 4), min_size=2, max_size=3).flatmap(
        lambda ds: st.tuples(*[near_the_tolerance(d, flavor) for d in ds]))))
def test_tensor_of_one_flavor_stays_within_the_bound(parts):
    got = tensor(*parts)
    assert got.flavor == parts[0].flavor and within_bound(got, parts)


@PROPERTY
@given(st.integers(1, 3).flatmap(near_the_tolerance),
       st.lists(st.integers(1, 8), max_size=2), st.integers(0, 2))
def test_embed_stays_within_the_bound_of_its_identities(op, rest, slot):
    # The identities have norm sqrt(d): onto (2, 64) a projector may be
    # off by 8 times its own deviation.
    slot = min(slot, len(rest))
    dims = tuple(rest[:slot]) + (op.dim,) + tuple(rest[slot:])
    got = embed(op, dims, slot)
    assert got.flavor == (op.flavor if len(dims) == 1 or op.flavor == "projector" else None)
    identities = [Operator.identity(d) for d in rest]
    if got.flavor is not None:
        assert within_bound(got, [op] + identities)


@PROPERTY
@given(st.integers(1, 4).flatmap(near_the_tolerance))
def test_dag_and_complement_keep_the_deviation(op):
    assert op.dag().flavor == op.flavor and within_bound(op.dag(), [op])
    if op.flavor == "projector":
        assert op.complement().flavor == "projector" and within_bound(op.complement(), [op])


@PROPERTY
@given(st.lists(st.tuples(st.integers(1, 4), st.integers(0, 2**32 - 1)), min_size=1, max_size=3),
       st.integers(0, 2))
def test_tensor_and_lift_decompositions_stay_within_the_bound(factors, slot):
    # Each factor's elements, overlaps and sum are off by just under the
    # default tolerance; the products' are off by at most each factor's
    # deviation times sqrt of the other factors' dims, summed.
    pds, devs = [], []
    for d, seed in factors:
        rng = np.random.default_rng(seed)
        mats = nudged(rng, [p.matrix for p in random_pd(rng, d).projectors], pd_deviation)
        pds.append(make_pd([Operator(m, (d,), flavor="projector") for m in mats]))
        devs.append(pd_deviation(mats))
    dims = tuple(d for d, _ in factors)
    slot = min(slot, len(dims) - 1)
    roots = [np.sqrt(d) for d in dims]
    bound = sum(dev * np.prod(roots[:k] + roots[k + 1:]) for k, dev in enumerate(devs))
    lift_bound = devs[slot] * np.prod(roots[:slot] + roots[slot + 1:])
    for pd, tol in ((tensor_pd(*pds), bound), (lift_pd(pds[slot], dims, slot), lift_bound)):
        assert pd.dims == dims
        loop_pd_check(pd.projectors, pd.labels, tol=tol + ROUNDING)
