"""Dense complex kets and operators on finite-dimensional Hilbert spaces.

All values are immutable after construction and every operation is a pure
function, so concurrent reads from multiple threads are safe.  Composite
spaces are ordered factor lists; index arithmetic is row-major over the
factor order (the first factor varies slowest).

Phase conventions for the named spin-half states:

    |x+-> = (|z+> +- |z->) / sqrt(2)
    |y+-> = (|z+> +- i |z->) / sqrt(2)

Results that depend on the relative phase between alternative conventions
are convention-relative.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    ArgumentError,
    DimError,
    FlavorError,
    NonFiniteError,
    NormalizationError,
    NotProjectorError,
)

# Frobenius norm is used for every algebraic predicate: cheap,
# basis-independent, and sufficient at the dimensions in scope.
TOL_ALG = 1e-10
TOL_NORM = 1e-12
# Consistency verdict: |D(a, b)| <= max(TOL_CONSISTENCY sqrt(W_a W_b),
# CONSISTENCY_FLOOR).  TOL_PROB: how far probability weights may fall below
# 0 or their sum stray from 1.
TOL_CONSISTENCY = 1e-8
CONSISTENCY_FLOOR = 1e-12
TOL_PROB = 1e-8

AXES = ("x", "y", "z")


def _factor_dims(total: int, dims) -> tuple[int, ...]:
    if dims is None:
        return (int(total),)
    out = tuple(int(d) for d in dims)
    if not out or any(d < 1 for d in out):
        raise DimError(f"factor dimensions must be positive, got {out}")
    if math.prod(out) != int(total):
        raise DimError(f"factor dimensions {out} do not multiply to {total}")
    return out


class Ket:
    """State vector on a (possibly composite) finite-dimensional space."""

    __slots__ = ("amplitudes", "dims")

    def __init__(self, amplitudes, dims: Sequence[int] | None = None):
        amp = np.array(amplitudes, dtype=complex)
        if amp.ndim != 1 or amp.size == 0:
            raise DimError("ket amplitudes must form a nonempty 1-d vector")
        if not np.isfinite(amp).all():
            raise NonFiniteError("ket amplitudes must be finite")
        amp.flags.writeable = False
        self.amplitudes = amp
        self.dims = _factor_dims(amp.size, dims)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def norm(self) -> float:
        return _fro(self.amplitudes)

    def is_normalized(self, tol: float = TOL_NORM) -> bool:
        return abs(self.norm() - 1.0) <= tol

    def require_normalized(self, tol: float = TOL_NORM) -> "Ket":
        if not self.is_normalized(tol):
            raise NormalizationError(
                f"ket norm {self.norm():.6e} differs from 1 by more than {tol:g}"
            )
        return self

    def normalized(self) -> "Ket":
        n = self.norm()
        if n == 0.0:
            raise NormalizationError("cannot normalize the zero vector")
        return Ket(self.amplitudes / n, self.dims)

    def inner(self, other: "Ket") -> complex:
        """<self|other>."""
        if other.dim != self.dim:
            raise DimError(f"ket dims {self.dim} and {other.dim} differ")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def __repr__(self) -> str:
        return f"Ket(dim={self.dim}, dims={self.dims})"


def basis_ket(index: int, dims) -> Ket:
    """Computational-basis ket |index> on a space with the given dims."""
    dims = (dims,) if isinstance(dims, int) else tuple(dims)
    total = int(np.prod(dims))
    if not 0 <= index < total:
        raise DimError(f"basis index {index} out of range for dim {total}")
    amp = np.zeros(total, dtype=complex)
    amp[index] = 1.0
    return Ket(amp, dims)


def _fro(x: np.ndarray) -> float:
    """Frobenius norm, summed as `np.linalg.norm` sums it (re.re + im.im over
    the entries in memory order) without its argument handling."""
    x = x.ravel(order="K")
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`np.kron` of two matrices (or two vectors): the same broadcast
    products, without its argument handling."""
    if a.ndim == 1:
        return (a[:, None] * b[None, :]).reshape(-1)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def _check_flavor(matrix: np.ndarray, flavor: str, tol: float) -> None:
    if flavor == "projector":
        herm = _fro(matrix - matrix.conj().T)
        idem = _fro(matrix @ matrix - matrix)
        if not (herm <= tol and idem <= tol):
            raise NotProjectorError(
                f"not a projector: ||P^2-P||={idem:.3e}, ||P-P^dag||={herm:.3e}"
            )
    elif flavor == "unitary":
        dev = _fro(matrix.conj().T @ matrix - np.eye(matrix.shape[0]))
        if not dev <= tol:
            raise FlavorError(f"not unitary: ||U^dag U - I||={dev:.3e}")
    elif flavor == "hermitian":
        dev = _fro(matrix - matrix.conj().T)
        if not dev <= tol:
            raise FlavorError(f"not Hermitian: ||A - A^dag||={dev:.3e}")
    elif flavor == "positive":
        dev = _fro(matrix - matrix.conj().T)
        if not dev <= tol:
            raise FlavorError(f"not Hermitian: ||A - A^dag||={dev:.3e}")
        lo = float(np.linalg.eigvalsh(matrix).min())
        if not lo >= -tol:
            raise FlavorError(f"not positive: min eigenvalue {lo:.3e}")
    else:
        raise ValueError(f"unknown operator flavor {flavor!r}")


class Operator:
    """Dense complex square matrix with an optional validated flavor tag.

    Flavor tags ("hermitian", "projector", "unitary", "positive") are
    validated on construction and trusted afterwards.  Arithmetic results
    carry no flavor.
    """

    __slots__ = ("matrix", "dims", "flavor")

    def __init__(self, matrix, dims: Sequence[int] | None = None,
                 flavor: str | None = None, tol: float = TOL_ALG):
        m = np.array(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise DimError(f"operator matrix must be square and nonempty, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise NonFiniteError("operator matrix entries must be finite")
        m.flags.writeable = False
        self.matrix = m
        self.dims = _factor_dims(m.shape[0], dims)
        if flavor is not None:
            _check_flavor(m, flavor, tol)
        self.flavor = flavor

    # The identity and zero matrices are exact projectors: tagged unchecked.
    @classmethod
    def identity(cls, dims) -> "Operator":
        dims = (dims,) if isinstance(dims, int) else tuple(dims)
        op = cls(np.eye(int(math.prod(dims))), dims)
        op.flavor = "projector"
        return op

    @classmethod
    def zero(cls, dims) -> "Operator":
        dims = (dims,) if isinstance(dims, int) else tuple(dims)
        d = int(math.prod(dims))
        op = cls(np.zeros((d, d)), dims)
        op.flavor = "projector"
        return op

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def dag(self) -> "Operator":
        flavor = self.flavor if self.flavor in ("hermitian", "projector", "positive") else None
        return Operator(self.matrix.conj().T, self.dims, flavor=flavor)

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))

    def norm(self) -> float:
        return _fro(self.matrix)

    def allclose(self, other: "Operator", tol: float = TOL_ALG) -> bool:
        self._check_same_dim(other)
        return _fro(self.matrix - other.matrix) <= tol

    def is_projector(self, tol: float = TOL_ALG) -> bool:
        m = self.matrix
        return _fro(m - m.conj().T) <= tol and _fro(m @ m - m) <= tol

    def is_unitary(self, tol: float = TOL_ALG) -> bool:
        m = self.matrix
        return _fro(m.conj().T @ m - np.eye(m.shape[0])) <= tol

    def is_hermitian(self, tol: float = TOL_ALG) -> bool:
        return _fro(self.matrix - self.matrix.conj().T) <= tol

    def is_positive(self, tol: float = TOL_ALG) -> bool:
        if not self.is_hermitian(tol):
            return False
        return float(np.linalg.eigvalsh(self.matrix).min()) >= -tol

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix).min())

    def _check_same_dim(self, other: "Operator") -> None:
        if other.dim != self.dim:
            raise DimError(f"operator dims {self.dim} and {other.dim} differ")

    def __add__(self, other: "Operator") -> "Operator":
        self._check_same_dim(other)
        return Operator(self.matrix + other.matrix, self.dims)

    def __sub__(self, other: "Operator") -> "Operator":
        self._check_same_dim(other)
        return Operator(self.matrix - other.matrix, self.dims)

    def __neg__(self) -> "Operator":
        return Operator(-self.matrix, self.dims)

    def __mul__(self, scalar) -> "Operator":
        return Operator(self.matrix * complex(scalar), self.dims)

    __rmul__ = __mul__

    def __matmul__(self, other):
        if isinstance(other, Ket):
            if other.dim != self.dim:
                raise DimError(f"operator dim {self.dim} does not match ket dim {other.dim}")
            return Ket(self.matrix @ other.amplitudes, other.dims)
        self._check_same_dim(other)
        return Operator(self.matrix @ other.matrix, self.dims)

    def complement(self) -> "Operator":
        """I - self."""
        return Operator(np.eye(self.dim) - self.matrix, self.dims)

    def expectation(self, ket: Ket) -> complex:
        """<ket| self |ket>."""
        if ket.dim != self.dim:
            raise DimError(f"operator dim {self.dim} does not match ket dim {ket.dim}")
        return complex(np.vdot(ket.amplitudes, self.matrix @ ket.amplitudes))

    def __repr__(self) -> str:
        tag = f", flavor={self.flavor!r}" if self.flavor else ""
        return f"Operator(dim={self.dim}, dims={self.dims}{tag})"


def dyad(ket: Ket, tol: float = TOL_NORM) -> Operator:
    """Rank-1 projector |k><k| for a normalized ket."""
    ket.require_normalized(tol)
    m = np.outer(ket.amplitudes, ket.amplitudes.conj())
    return Operator(m, ket.dims, flavor="projector")


def spin_ket(axis: str, sign: str) -> Ket:
    """Named spin-half states along x, y, or z (see module phase conventions)."""
    if axis not in AXES:
        raise ValueError(f"axis must be one of {AXES}, got {axis!r}")
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    s = 1.0 if sign == "+" else -1.0
    r = 1.0 / np.sqrt(2.0)
    if axis == "z":
        amp = [1.0, 0.0] if sign == "+" else [0.0, 1.0]
    elif axis == "x":
        amp = [r, s * r]
    else:
        amp = [r, s * 1j * r]
    return Ket(amp)


def spin_projectors(axis: str) -> tuple[Operator, Operator]:
    """The (+1/2, -1/2) dyads along the given axis; together a decomposition of I."""
    return dyad(spin_ket(axis, "+")), dyad(spin_ket(axis, "-"))


def commutator(a: Operator, b: Operator) -> Operator:
    a._check_same_dim(b)
    return Operator(a.matrix @ b.matrix - b.matrix @ a.matrix, a.dims)


def commutes(a: Operator, b: Operator, tol: float = TOL_ALG) -> bool:
    """True iff ||AB - BA|| <= tol (Frobenius)."""
    return commutator(a, b).norm() <= tol


def tensor(*parts):
    """Kronecker product of kets or of operators, in the declared factor order."""
    if len(parts) < 1:
        raise DimError("tensor needs at least one factor")
    if len(parts) == 1:
        return parts[0]
    if all(isinstance(p, Ket) for p in parts):
        amp = parts[0].amplitudes
        dims: tuple[int, ...] = parts[0].dims
        for p in parts[1:]:
            amp = _kron(amp, p.amplitudes)
            dims = dims + p.dims
        return Ket(amp, dims)
    if all(isinstance(p, Operator) for p in parts):
        m = parts[0].matrix
        dims = parts[0].dims
        for p in parts[1:]:
            m = _kron(m, p.matrix)
            dims = dims + p.dims
        flavors = {p.flavor for p in parts}
        flavor = flavors.pop() if len(flavors) == 1 and None not in flavors else None
        if flavor not in ("projector", "unitary", "hermitian", "positive"):
            flavor = None
        return Operator(m, dims, flavor=flavor)
    raise DimError("tensor factors must be all kets or all operators")


def embed(op: Operator, dims, slot: int) -> Operator:
    """Extend an operator acting on factor `slot` by identities on the rest.

    The result is `tensor` of the identities and `op`: the same products, and
    the flavor `tensor` gives (`op`'s own when there is one factor, else
    "projector" for a projector and none otherwise).  `op`'s flavor is checked
    at the default tolerance first, then the result's.
    """
    dims = tuple(int(d) for d in dims)
    if not 0 <= slot < len(dims):
        raise DimError(f"slot {slot} out of range for factors {dims}")
    if op.dim != dims[slot]:
        raise DimError(f"operator dim {op.dim} does not match factor dim {dims[slot]}")
    parts = [Operator.identity(d).matrix for d in dims]
    parts[slot] = op.matrix
    if op.flavor is not None:
        _check_flavor(op.matrix, op.flavor, TOL_ALG)
    flavor = op.flavor if len(dims) == 1 or op.flavor == "projector" else None
    return Operator(reduce(_kron, parts), dims, flavor=flavor)


def partial_trace(op: Operator, keep) -> Operator:
    """Trace out all factors not in `keep` (an index or iterable of indices)."""
    if isinstance(keep, int):
        keep = (keep,)
    n = len(op.dims)
    keep = tuple(sorted(set(int(k) for k in keep)))
    if not keep or any(k < 0 or k >= n for k in keep):
        raise DimError(f"keep indices {keep} invalid for {n} factors")
    drop = [i for i in range(n) if i not in keep]
    t = op.matrix.reshape(op.dims + op.dims)
    rows = n
    for ax in sorted(drop, reverse=True):
        t = np.trace(t, axis1=ax, axis2=ax + rows)
        rows -= 1
    kept_dims = tuple(op.dims[k] for k in keep)
    d = int(np.prod(kept_dims))
    return Operator(t.reshape(d, d), kept_dims)


def singlet() -> Ket:
    """Two-qubit spin singlet (|z+ z-> - |z- z+>)/sqrt(2)."""
    r = 1.0 / np.sqrt(2.0)
    return Ket([0.0, r, -r, 0.0], (2, 2))


def interval_projector(grid: Iterable[float], lo: float, hi: float) -> Operator:
    """Diagonal 0/1 projector selecting grid points with lo <= x <= hi."""
    points = tuple(float(x) for x in grid)
    if not points:
        raise DimError("position grid must be nonempty")
    if any(b <= a for a, b in zip(points, points[1:])):
        raise ArgumentError("position grid must be strictly increasing")
    if lo > hi:
        raise ArgumentError(f"interval bounds out of order: {lo} > {hi}")
    diag = np.array([1.0 if lo <= x <= hi else 0.0 for x in points])
    return Operator(np.diag(diag), (len(points),), flavor="projector")
