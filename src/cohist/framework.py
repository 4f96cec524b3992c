"""Single-time frameworks: projective decompositions of the identity.

A framework is a set of mutually orthogonal projectors summing to I (the
quantum sample space) together with the Boolean event algebra generated by
it.  Incompatible frameworks (ones whose projectors do not all commute)
must never be combined; `common_refinement` enforces this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    ArgumentError,
    CompletenessError,
    DimError,
    IncompatibleFrameworksError,
    NotProjectorError,
    OrthogonalityError,
    WeightError,
)
from .operators import (
    TOL_ALG,
    TOL_PROB,
    Operator,
    _fro,
    commutes,
    embed,
    interval_projector,
    spin_projectors,
    tensor,
)


def _norms(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a complex stack (over the last two
    axes, the last one contiguous)."""
    parts = stack.view(np.float64)
    return np.sqrt(np.einsum("...ij,...ij->...", parts, parts))


# Entries of P_i P_j computed at once by `_first_overlap`.
_OVERLAP_BLOCK = 1 << 16


def _first_overlap(stack: np.ndarray, tol: float) -> tuple[int, int, float] | None:
    """First pair i < j, in row-major order, with ||P_i P_j|| > tol, and that
    norm.  For a block of rows i, every product P_i P_j comes from one matmul
    of the block's stacked rows with all elements side by side."""
    k, d = stack.shape[:2]
    side_by_side = stack.transpose(1, 0, 2).reshape(d, k * d)
    rows = max(1, _OVERLAP_BLOCK // (k * d * d))
    for i0 in range(0, k - 1, rows):
        i1 = min(i0 + rows, k - 1)
        products = (stack[i0:i1].reshape(-1, d) @ side_by_side).reshape(i1 - i0, d, k, d)
        overlap = _norms(products.transpose(0, 2, 1, 3))
        i, j = np.nonzero(overlap > tol)
        above = np.flatnonzero(j > i + i0)
        if above.size:
            i, j = int(i[above[0]]), int(j[above[0]])
            return i0 + i, j, float(overlap[i, j])
    return None


def _distinct(labels: tuple[str, ...]) -> tuple[str, ...]:
    """`labels`, once no two are equal."""
    if len(set(labels)) != len(labels):
        raise ArgumentError(f"duplicate element labels in {labels}")
    return labels


class ProjectiveDecomposition:
    """Ordered set of mutually orthogonal projectors that sum to the identity."""

    __slots__ = ("projectors", "labels", "dims")

    def __init__(self, projectors: Sequence[Operator], labels: Sequence[str] | None = None,
                 tol: float = TOL_ALG):
        projectors = tuple(projectors)
        if not projectors:
            raise CompletenessError("a projective decomposition needs at least one element")
        dims = projectors[0].dims
        dim = projectors[0].dim
        if labels is None:
            labels = tuple(str(i) for i in range(len(projectors)))
        labels = tuple(str(l) for l in labels)
        if len(labels) != len(projectors):
            raise ArgumentError(f"{len(labels)} labels for {len(projectors)} projectors")
        _distinct(labels)
        # Errors come in the order of one element at a time: its dim, then
        # zero, then projector.  The elements before the first of another
        # dim form one (k, d, d) stack.
        k = next((i for i, p in enumerate(projectors) if p.dim != dim), len(projectors))
        stack = np.stack([p.matrix for p in projectors[:k]])
        norm, herm, idem = _norms(np.stack(
            [stack, stack - stack.conj().transpose(0, 2, 1), stack @ stack - stack]))
        zero = norm <= tol
        bad = np.flatnonzero(zero | ~(np.maximum(herm, idem) <= tol))
        if bad.size:
            i = int(bad[0])
            what = "the zero operator" if zero[i] else "not a projector"
            raise NotProjectorError(f"element {i} ({labels[i]}) is {what}")
        if k < len(projectors):
            raise DimError(f"element {k} has dim {projectors[k].dim}, expected {dim}")
        pair = _first_overlap(stack, tol)
        if pair is not None:
            i, j, overlap = pair
            raise OrthogonalityError(
                f"elements {i} ({labels[i]}) and {j} ({labels[j]}) are not "
                f"orthogonal: ||P_i P_j|| = {overlap:.3e}"
            )
        residual = _fro(stack.sum(axis=0) - np.eye(dim))
        if residual > tol:
            raise CompletenessError(
                f"projectors do not sum to the identity (completeness violated): "
                f"||sum - I|| = {residual:.3e}"
            )
        self.projectors = projectors
        self.labels = labels
        self.dims = dims

    @classmethod
    def _following(cls, projectors: Sequence[Operator],
                   labels: Sequence[str]) -> "ProjectiveDecomposition":
        """A decomposition that follows from checked ones (a product, a lift or
        a copy on other dims): only its labels are checked."""
        pd = object.__new__(cls)
        pd.projectors, pd.labels = tuple(projectors), _distinct(tuple(labels))
        pd.dims = pd.projectors[0].dims
        return pd

    def with_dims(self, dims) -> "ProjectiveDecomposition":
        """The same elements and labels on other factor dims."""
        return ProjectiveDecomposition._following(
            [p.with_dims(dims) for p in self.projectors], self.labels)

    @property
    def dim(self) -> int:
        return self.projectors[0].dim

    @property
    def size(self) -> int:
        return len(self.projectors)

    def __len__(self) -> int:
        return len(self.projectors)

    def __iter__(self):
        return iter(self.projectors)

    def __getitem__(self, i: int) -> Operator:
        return self.projectors[i]

    def items(self):
        return zip(self.labels, self.projectors)

    def label_index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"no element labeled {label!r} in {self.labels}") from None

    def event(self, members: Iterable[int | str]) -> "Event":
        """Event of the Boolean algebra given by element indices or labels."""
        idx = frozenset(
            m if isinstance(m, int) else self.label_index(m) for m in members
        )
        for i in idx:
            if not 0 <= i < self.size:
                raise ValueError(f"element index {i} out of range")
        return Event(self, idx)

    def __repr__(self) -> str:
        return f"ProjectiveDecomposition(dim={self.dim}, labels={self.labels})"


@dataclass(frozen=True)
class Event:
    """A subset of a decomposition's elements; its projector is their sum."""

    pd: ProjectiveDecomposition
    members: frozenset

    @property
    def projector(self) -> Operator:
        if not self.members:
            return Operator.zero(self.pd.dims)
        total = sum(self.pd.projectors[i].matrix for i in sorted(self.members))
        return Operator(total, self.pd.dims, flavor="projector")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.pd.labels[i] for i in sorted(self.members))


def make_pd(projectors: Sequence[Operator], labels: Sequence[str] | None = None,
            tol: float = TOL_ALG) -> ProjectiveDecomposition:
    """Validate and build a projective decomposition of the identity."""
    return ProjectiveDecomposition(projectors, labels, tol)


def trivial_pd(dims) -> ProjectiveDecomposition:
    return make_pd([Operator.identity(dims)], ["I"])


def basis_pd(dims, labels: Sequence[str] | None = None) -> ProjectiveDecomposition:
    """Computational-basis dyads on a space with the given dims."""
    dims = (dims,) if isinstance(dims, int) else tuple(dims)
    d = int(np.prod(dims))
    projs = []
    for i in range(d):
        m = np.zeros((d, d), dtype=complex)
        m[i, i] = 1.0
        projs.append(Operator(m, dims, flavor="projector"))
    return make_pd(projs, labels)


def spin_pd(axis: str) -> ProjectiveDecomposition:
    plus, minus = spin_projectors(axis)
    return make_pd([plus, minus], [f"{axis}+", f"{axis}-"])


def interval_pd(grid, lo: float, hi: float, tol: float = TOL_ALG) -> ProjectiveDecomposition:
    """Two-element decomposition {inside, outside}; empty sides are dropped."""
    inside = interval_projector(grid, lo, hi)
    sides = [(p, lab) for p, lab in ((inside, "in"), (inside.complement(), "out"))
             if p.norm() > tol]
    return make_pd([p for p, _ in sides], [lab for _, lab in sides], tol)


def tensor_pd(*pds: ProjectiveDecomposition) -> ProjectiveDecomposition:
    """Product decomposition on the composite space; labels join with '&'."""
    if len(pds) < 1:
        raise DimError("tensor_pd needs at least one factor")
    projs = [pds[0].projectors[i] for i in range(pds[0].size)]
    labels = list(pds[0].labels)
    for nxt in pds[1:]:
        projs = [tensor(p, q) for p in projs for q in nxt.projectors]
        labels = [f"{a}&{b}" for a in labels for b in nxt.labels]
    return ProjectiveDecomposition._following(projs, labels)


def lift_pd(pd: ProjectiveDecomposition, dims, slot: int) -> ProjectiveDecomposition:
    """Extend each element by identities on the other factors of `dims`."""
    return ProjectiveDecomposition._following(
        [embed(p, dims, slot) for p in pd.projectors], pd.labels)


def compatible(f: ProjectiveDecomposition, g: ProjectiveDecomposition,
               tol: float = TOL_ALG) -> bool:
    """True iff every projector of one commutes with every projector of the other."""
    if f.dim != g.dim:
        raise DimError(f"decompositions live on dims {f.dim} and {g.dim}")
    return all(commutes(p, q, tol) for p in f.projectors for q in g.projectors)


def common_refinement(f: ProjectiveDecomposition, g: ProjectiveDecomposition,
                      tol: float = TOL_ALG) -> ProjectiveDecomposition:
    """Decomposition of all nonzero products P_j Q_k of two compatible frameworks.

    Refuses incompatible inputs: combining them has no meaning, so no
    refinement exists.
    """
    if not compatible(f, g, tol):
        raise IncompatibleFrameworksError(
            "frameworks are incompatible (projectors do not all commute); "
            "they cannot be combined into a common refinement"
        )
    projs, labels = [], []
    for lf, p in f.items():
        for lg, q in g.items():
            prod = p @ q
            if prod.norm() > tol:
                projs.append(Operator(prod.matrix, p.dims, flavor="projector"))
                labels.append(f"{lf}&{lg}")
    return make_pd(projs, labels, tol)


def refines(fine: ProjectiveDecomposition, coarse: ProjectiveDecomposition,
            tol: float = TOL_ALG) -> bool:
    """True iff every coarse projector is a sum of fine projectors.

    A fine element belongs to a coarse one iff Q P_j = P_j; the residual of
    the reassembled sum is then verified.  This greedy test is exact for
    orthogonal families.
    """
    if fine.dim != coarse.dim:
        raise DimError(f"decompositions live on dims {fine.dim} and {coarse.dim}")
    for q in coarse.projectors:
        total = np.zeros((fine.dim, fine.dim), dtype=complex)
        for p in fine.projectors:
            if float(np.linalg.norm(q.matrix @ p.matrix - p.matrix)) <= tol:
                total = total + p.matrix
        if float(np.linalg.norm(total - q.matrix)) > tol:
            return False
    return True


def event_probability(pd: ProjectiveDecomposition, weights: Sequence[float],
                      event: Event, tol: float = TOL_PROB) -> float:
    """Probability of an event under per-element probabilities."""
    w = np.asarray(weights, dtype=float)
    if w.size != pd.size:
        raise WeightError(f"{w.size} weights for {pd.size} elements")
    if float(w.min(initial=0.0)) < -tol:
        raise WeightError(f"negative weight {float(w.min()):.3e}")
    if abs(float(w.sum()) - 1.0) > tol:
        raise WeightError(f"weights sum to {float(w.sum()):.12g}, expected 1")
    if event.pd is not pd:
        raise ValueError("event belongs to a different decomposition")
    return float(sum(w[i] for i in event.members))
