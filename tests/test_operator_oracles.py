"""`embed`, `tensor` and the Frobenius norm against their np.kron and
np.linalg.norm forms in `helpers`.

`embed` and `tensor` multiply by broadcasting, and `_fro` sums the norm
without `np.linalg.norm`'s argument handling.  The products and sums are the
same, so the matrices, flavor tags and norms must match bit for bit, signed
zeros included; and a flavored operator that fails its check at the default
tolerance must still be refused by `embed` with the same error.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohist import DimError, FlavorError, Ket, NotProjectorError, Operator, embed, tensor
from cohist.operators import _fro
from helpers import (
    kron_embed,
    kron_tensor,
    linalg_norm,
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


@pytest.mark.parametrize("flavor, error", [("projector", NotProjectorError),
                                           ("unitary", FlavorError),
                                           ("hermitian", FlavorError)])
@pytest.mark.parametrize("dims, slot", [((2,), 0), ((2, 3), 0), ((3, 2), 1), ((2, 2, 2), 1)])
def test_embed_refuses_an_operator_that_fails_the_default_tolerance(flavor, error, dims, slot):
    # Off by 1e-8: accepted at tol=1e-6, refused at the default 1e-10.
    rng = np.random.default_rng(11)
    d = dims[slot]
    base = {"projector": random_projector(rng, d, 1), "unitary": random_unitary(rng, d),
            "hermitian": Operator(np.diag(np.arange(d, dtype=float)))}[flavor]
    m = base.matrix.copy()
    m[0, 0] += 1e-8j
    op = Operator(m, (d,), flavor=flavor, tol=1e-6)
    with pytest.raises(error) as got:
        embed(op, dims, slot)
    with pytest.raises(error) as want:
        kron_embed(op, dims, slot)
    assert str(got.value) == str(want.value)


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
