"""Time development, history weights, and the consistency check.

The chain operator of a history alternates its projectors with the step
unitaries; the decoherence functional is the Gram matrix of chain operators.
A family admits probabilities only when all off-diagonal entries vanish
(medium decoherence); probability queries on families that fail the check
are refused rather than silently answered.

All of it is array work: `_chains` evaluates every chain of a family at once
(per time, one batched matmul over the time's factor table gathered by the
family's index column), D is one Gram product, and `_verdict` walks the upper
triangle of D in blocks of rows, so its temporaries stay O(block * n).
Events are boolean masks over the histories.  Sampling draws as
`Generator.choice` with weights does, from one array of uniforms and the
cumulative weights; `sample_history` looks each draw up, and `sample_counts`
sorts the draws once and counts them below each cumulative weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DimError,
    FlavorError,
    GridMismatchError,
    InconsistentFamilyError,
    WeightError,
    ZeroConditionError,
)
from .framework import ProjectiveDecomposition
from .histories import KIND_THROWAWAY, History, HistoryFamily, TimeGrid, family_of
# The tolerance defaults live in operators; they stay importable from here.
from .operators import CONSISTENCY_FLOOR, TOL_ALG, TOL_CONSISTENCY, TOL_PROB, Operator


class Dynamics:
    """Per-interval unitaries T(t_{m+1}, t_m) over a time grid."""

    __slots__ = ("grid", "steps")

    def __init__(self, grid: TimeGrid, steps: Sequence[Operator], tol: float = TOL_ALG):
        steps = tuple(steps)
        if len(steps) != grid.f:
            raise GridMismatchError(f"{len(steps)} step unitaries for {grid.f} intervals")
        dims = steps[0].dims
        for m, u in enumerate(steps):
            if u.dims != dims:
                raise DimError(f"step {m} has dims {u.dims}, expected {dims}")
            if u.flavor != "unitary" and not u.is_unitary(tol):
                raise FlavorError(f"step {m} is not unitary")
        self.grid = grid
        self.steps = steps

    @classmethod
    def trivial(cls, grid: TimeGrid, dims) -> "Dynamics":
        ident = Operator.identity(dims)
        u = Operator(ident.matrix, ident.dims, flavor="unitary")
        return cls(grid, [u] * grid.f)

    @classmethod
    def from_hamiltonian(cls, grid: TimeGrid, hamiltonian: Operator,
                         tol: float = TOL_ALG) -> "Dynamics":
        """Steps exp(-i dt H), with hbar treated as 1.

        Exact (to rounding) via the eigendecomposition of the Hermitian H.
        """
        if not hamiltonian.is_hermitian(tol):
            raise FlavorError("Hamiltonian must be Hermitian")
        w, v = np.linalg.eigh(hamiltonian.matrix)
        steps = []
        for m in range(grid.f):
            phases = np.exp(-1j * w * grid.dt(m))
            u = (v * phases) @ v.conj().T
            steps.append(Operator(u, hamiltonian.dims, flavor="unitary"))
        return cls(grid, steps)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.steps[0].dims

    @property
    def dim(self) -> int:
        return self.steps[0].dim

    def step(self, m: int) -> Operator:
        """T(t_{m+1}, t_m)."""
        return self.steps[m]

    def propagator(self, m_from: int, m_to: int) -> Operator:
        """Composed T(t_to, t_from); backward propagation is the adjoint."""
        n = self.grid.n_times
        if not (0 <= m_from < n and 0 <= m_to < n):
            raise GridMismatchError(f"time indices ({m_from}, {m_to}) out of range")
        if m_from == m_to:
            return Operator.identity(self.dims)
        if m_to < m_from:
            return self.propagator(m_to, m_from).dag()
        m = self.steps[m_from].matrix
        for k in range(m_from + 1, m_to):
            m = self.steps[k].matrix @ m
        return Operator(m, self.dims, flavor="unitary")

    def reversed(self) -> "Dynamics":
        """Dynamics of the time-reversed grid: adjoint steps in reverse order."""
        steps = tuple(self.steps[self.grid.f - 1 - m].dag() for m in range(self.grid.f))
        steps = tuple(Operator(s.matrix, s.dims, flavor="unitary") for s in steps)
        return Dynamics(self.grid.reversed(), steps)

    def __repr__(self) -> str:
        return f"Dynamics(times={self.grid.n_times}, dim={self.dim})"


def _chains(family: HistoryFamily, dynamics: Dynamics) -> np.ndarray:
    """Chain operators of all histories as one (n, d, d) array.

    Per time the table's matrices are stacked once and gathered by the index
    column, and K -> F_m T(t_m, t_{m-1}) K is applied to every chain at once,
    one batched matmul per product.
    """
    tables = [np.stack([op.matrix for op in ops]) for ops in family.factors]
    k = tables[0][family.index[:, 0]]
    for m, step in enumerate(dynamics.steps, start=1):
        k = tables[m][family.index[:, m]] @ (step.matrix @ k)
    return k


def chain_operator(history: History, dynamics: Dynamics) -> Operator:
    """F_f T(t_f, t_{f-1}) ... F_1 T(t_1, t_0) F_0 for the given history; not
    in general a projector."""
    if history.dims != dynamics.dims:
        raise DimError(f"history dims {history.dims} do not match dynamics dims "
                       f"{dynamics.dims}")
    chain = _chains(family_of(dynamics.grid, [history]), dynamics)[0]
    return Operator(chain, history.dims)


@dataclass
class ConsistencyReport:
    """Decoherence functional of a family plus the consistency verdict.

    `matrix` is the full functional; `weights` its diagonal.  The verdict is
    relative: an off-diagonal entry is acceptable when it is at most
    tol_consistency * sqrt(W_a W_b), with an absolute allowance `floor` for
    pairs whose weights vanish.  `max_offdiag_rel` is a diagnostic of ours,
    not an independently defined quantity.
    """

    labels: tuple[tuple[str, ...], ...]
    matrix: np.ndarray
    weights: np.ndarray
    excluded: tuple[int, ...]
    consistent: bool
    max_offdiag_abs: float
    max_offdiag_rel: float
    tol_consistency: float
    floor: float

    @property
    def verdict(self) -> str:
        return "consistent" if self.consistent else "inconsistent"

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def included(self) -> np.ndarray:
        """Boolean mask of the histories that are not excluded."""
        mask = np.ones(self.n, dtype=bool)
        mask[list(self.excluded)] = False
        return mask

    def included_indices(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.included).tolist())

    def total_weight(self, mask: np.ndarray | None = None) -> float:
        """Weight of the included histories (those in `mask`, when given),
        added one at a time in index order."""
        keep = self.included if mask is None else mask & self.included
        return float(sum(self.weights[keep]))

    def probabilities(self) -> np.ndarray:
        """Weights normalized over the non-throwaway histories."""
        total = self.total_weight()
        if total <= self.floor:
            raise WeightError(f"total weight {total:.3e} is not positive")
        return np.where(self.included, np.maximum(self.weights, 0.0) / total, 0.0)


# Entries of D per verdict block; the block's temporaries stay a few MB.
_VERDICT_BLOCK = 1 << 16


def _verdict(matrix: np.ndarray, weights: np.ndarray, tol_consistency: float,
             floor: float) -> tuple[bool, float, float]:
    """(consistent, max_offdiag_abs, max_offdiag_rel) over the pairs a < b.

    A pair passes when |D(a, b)| <= max(tol sqrt(W_a W_b), floor), tested in
    that form so that a NaN fails it; the maxima propagate NaN too, and a
    non-finite weight fails the family even when it has no pairs.  The
    relative maximum runs over the pairs with sqrt(W_a W_b) > floor.  The
    upper triangle is walked a block of rows at a time, and only its entries
    that are not exactly zero are tested: an exact zero passes its bound and
    adds nothing to either maximum.  So past one comparison per entry, the
    cost follows the nonzero pairs.
    """
    n = len(weights)
    positive = np.maximum(weights, 0.0)
    consistent = bool(np.all(np.isfinite(weights)))
    max_abs, max_rel = 0.0, 0.0
    rows = max(1, _VERDICT_BLOCK // n)
    for r0 in range(0, n - 1, rows):
        r1 = min(r0 + rows, n - 1)
        block = matrix[r0:r1]
        # the nonzero entries of these rows, then those right of the diagonal
        a, b = np.nonzero(block != 0)
        upper = b > a + r0
        a, b = a[upper], b[upper]
        z = block[a, b]
        a += r0
        # hypot, as complex abs() of one entry; np.abs on complex arrays may
        # round differently in the last place.
        off = np.hypot(z.real, z.imag)
        scale = np.sqrt(positive[a] * positive[b])
        bound = np.maximum(tol_consistency * scale, floor)
        consistent = consistent and bool(np.all(off <= bound))
        max_abs = float(np.max(off, initial=max_abs))
        weighted = scale > floor
        max_rel = float(np.max(off[weighted] / scale[weighted], initial=max_rel))
    return consistent, max_abs, max_rel


def decoherence_functional(family: HistoryFamily, dynamics: Dynamics,
                           tol_consistency: float = TOL_CONSISTENCY,
                           floor: float = CONSISTENCY_FLOOR) -> ConsistencyReport:
    """Full decoherence functional D(a, b) = Tr[K(Y^a)^dag K(Y^b)].

    The Gram construction makes D Hermitian with a real nonnegative diagonal,
    which doubles as the history weights.
    """
    if family.grid != dynamics.grid:
        raise GridMismatchError("family and dynamics use different time grids")
    if family.dims != dynamics.dims:
        raise DimError(f"family dims {family.dims} do not match dynamics dims "
                       f"{dynamics.dims}")
    chains = _chains(family, dynamics).reshape(family.n, -1)
    matrix = chains.conj() @ chains.T
    weights = matrix.diagonal().real.copy()
    consistent, max_abs, max_rel = _verdict(matrix, weights, tol_consistency, floor)
    matrix.flags.writeable = False
    weights.flags.writeable = False
    excluded = tuple(np.flatnonzero(family.kinds == KIND_THROWAWAY).tolist())
    return ConsistencyReport(
        labels=family.labels, matrix=matrix, weights=weights, excluded=excluded,
        consistent=consistent, max_offdiag_abs=max_abs, max_offdiag_rel=max_rel,
        tol_consistency=tol_consistency, floor=floor,
    )


def born_weight(pd0: ProjectiveDecomposition, pd1: ProjectiveDecomposition,
                dynamics: Dynamics, j: int, k: int) -> float:
    """Two-time weight Tr(Q^k T(t_1, t_0) P^j T(t_0, t_1))."""
    if dynamics.grid.f != 1:
        raise GridMismatchError("Born weights are defined on a two-time grid")
    if pd0.dims != dynamics.dims or pd1.dims != dynamics.dims:
        raise DimError("decompositions do not match the dynamics dims")
    t = dynamics.step(0).matrix
    return float(np.trace(pd1[k].matrix @ t @ pd0[j].matrix @ t.conj().T).real)


def _require_consistent(report: ConsistencyReport) -> None:
    if not report.consistent:
        raise InconsistentFamilyError(
            "family fails the consistency condition "
            f"(max off-diagonal {report.max_offdiag_abs:.6e}); probabilities "
            "are meaningless for it and are refused"
        )


def event_weight(family: HistoryFamily, report: ConsistencyReport,
                 event: Mapping[int, str | Iterable[str]] | None) -> float:
    """Total weight of non-throwaway histories matching the event."""
    return report.total_weight(family.mask(event or {}))


def probability(family: HistoryFamily, dynamics: Dynamics,
                event: Mapping[int, str | Iterable[str]],
                tol_consistency: float = TOL_CONSISTENCY,
                floor: float = CONSISTENCY_FLOOR) -> float:
    """Probability of an event, conditioned on the family's sample space."""
    return conditional_probability(family, dynamics, event, None,
                                   tol_consistency=tol_consistency, floor=floor)


def conditional_probability(family: HistoryFamily, dynamics: Dynamics,
                            target: Mapping[int, str | Iterable[str]],
                            given: Mapping[int, str | Iterable[str]] | None = None,
                            tol_consistency: float = TOL_CONSISTENCY,
                            floor: float = CONSISTENCY_FLOOR) -> float:
    """Pr(target | given) from history weights; refuses inconsistent families."""
    report = decoherence_functional(family, dynamics,
                                    tol_consistency=tol_consistency, floor=floor)
    _require_consistent(report)
    given = family.mask(given or {})
    denominator = report.total_weight(given)
    if denominator <= floor:
        raise ZeroConditionError(
            f"conditioning event has weight {denominator:.3e}; the conditional "
            "probability is undefined"
        )
    return report.total_weight(given & family.mask(target)) / denominator


def _draw(family: HistoryFamily, dynamics: Dynamics, seed: int, size: int | None,
          tol_consistency: float, floor: float
          ) -> tuple[tuple[int, ...], np.ndarray, np.ndarray | float]:
    """The included history indices, their cumulative distribution and the
    uniform draws into it.

    This is how `Generator.choice(k, size, p=p)` draws: `cdf = cumsum(p)`
    divided by its last entry, `u = rng.random(size)`, and draw i is the
    position `cdf.searchsorted(u[i], "right")`.  Drawing u here lets
    `sample_counts` tally the positions without finding each one.
    """
    report = decoherence_functional(family, dynamics,
                                    tol_consistency=tol_consistency, floor=floor)
    _require_consistent(report)
    included = family.included_indices()
    weights = np.maximum(report.weights[report.included], 0.0)
    total = weights.sum()
    if total <= floor:
        raise WeightError("family carries no weight to sample from")
    cdf = np.cumsum(weights / total)
    cdf /= cdf[-1]
    return included, cdf, np.random.default_rng(seed).random(size)


def sample_history(family: HistoryFamily, dynamics: Dynamics, seed: int,
                   size: int | None = None,
                   tol_consistency: float = TOL_CONSISTENCY,
                   floor: float = CONSISTENCY_FLOOR):
    """Draw history labels with probability W(a)/sum W; deterministic per seed.

    Exactly one history of a family occurs; this picks it.  Returns a single
    label when size is None, else a list of labels.
    """
    included, cdf, u = _draw(family, dynamics, seed, size, tol_consistency, floor)
    picks = cdf.searchsorted(u, "right")
    labels = family.labels
    if size is None:
        return labels[included[int(picks)]]
    return [labels[included[i]] for i in picks.tolist()]


def sample_counts(family: HistoryFamily, dynamics: Dynamics, seed: int, size: int,
                  tol_consistency: float = TOL_CONSISTENCY,
                  floor: float = CONSISTENCY_FLOOR) -> np.ndarray:
    """How often each non-throwaway history (in `included_indices` order) is
    drawn in `size` draws: the tally of `sample_history`'s draws for the seed.

    Draw u lands on position i when cdf[i-1] <= u < cdf[i], so the draws
    below cdf[i], counted in the sorted draws, are the draws on positions
    0..i, and their differences are the tally.
    """
    _, cdf, u = _draw(family, dynamics, seed, size, tol_consistency, floor)
    u.sort()
    return np.diff(u.searchsorted(cdf, "left"), prepend=0)
