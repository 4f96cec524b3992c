"""History spaces and sample spaces of histories (families).

A history assigns one projector per time; formally it is the tensor product
of its factors on the history space H_0 (x) H_1 (x) ... (x) H_f.  Histories
are stored factored -- one single-time projector per time, never as a dense
d^(f+1) matrix -- which keeps chain-operator evaluation polynomial in the
single-time dimension and the number of times.

Mutual exclusivity, the sum rule and family compatibility are decided from
the factors too: `_pair_table` builds one table per time over the distinct
factors and multiplies the tables across times, so these checks cost O(n^2)
array work plus a table per time, never d^(f+1).
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    ArgumentError,
    CompletenessError,
    DimError,
    GridMismatchError,
    NotProjectorError,
    OrthogonalityError,
)
from .framework import ProjectiveDecomposition
from .operators import (
    CONSISTENCY_FLOOR,
    TOL_ALG,
    TOL_CONSISTENCY,
    Ket,
    Operator,
    commutes,
    dyad,
)

KIND_NORMAL = "normal"
KIND_THROWAWAY = "throwaway"
KIND_UNITARY = "unitary"


class TimeGrid:
    """Strictly increasing times t_0 < t_1 < ... < t_f, with f >= 1."""

    __slots__ = ("times",)

    def __init__(self, times: Iterable[float]):
        ts = tuple(float(t) for t in times)
        if len(ts) < 2:
            raise GridMismatchError("a time grid needs at least two times")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise GridMismatchError(f"times must be strictly increasing, got {ts}")
        self.times = ts

    @property
    def n_times(self) -> int:
        return len(self.times)

    @property
    def f(self) -> int:
        """Number of steps (one less than the number of times)."""
        return len(self.times) - 1

    def dt(self, m: int) -> float:
        return self.times[m + 1] - self.times[m]

    def reversed(self) -> "TimeGrid":
        return TimeGrid(tuple(-t for t in reversed(self.times)))

    def __eq__(self, other) -> bool:
        return isinstance(other, TimeGrid) and self.times == other.times

    def __hash__(self) -> int:
        return hash(self.times)

    def __repr__(self) -> str:
        return f"TimeGrid({self.times})"


class HistorySpace:
    """Bookkeeping for the tensor product of per-time copies of one space."""

    __slots__ = ("grid", "dims")

    def __init__(self, grid: TimeGrid, dims: tuple[int, ...]):
        self.grid = grid
        self.dims = tuple(int(d) for d in dims)

    @property
    def dim(self) -> int:
        """Dimension of the single-time space."""
        return int(np.prod(self.dims))

    @property
    def total_dim(self) -> int:
        return self.dim ** self.grid.n_times

    def __eq__(self, other) -> bool:
        return (isinstance(other, HistorySpace)
                and self.grid == other.grid and self.dims == other.dims)

    def __repr__(self) -> str:
        return f"HistorySpace(times={self.grid.n_times}, dim={self.dim})"


class History:
    """One projector per time; the product projector F_0 (x) ... (x) F_f."""

    __slots__ = ("factors", "label", "kind")

    def __init__(self, factors: Sequence[Operator], label: Sequence[str],
                 kind: str = KIND_NORMAL, tol: float = TOL_ALG):
        factors = tuple(factors)
        if not factors:
            raise GridMismatchError("a history needs at least one factor")
        dims = factors[0].dims
        for m, fct in enumerate(factors):
            if fct.dims != dims:
                raise DimError(f"factor at time {m} has dims {fct.dims}, expected {dims}")
            if fct.flavor != "projector" and not fct.is_projector(tol):
                raise NotProjectorError(f"factor at time {m} is not a projector")
        label = tuple(str(l) for l in label)
        if len(label) != len(factors):
            raise ValueError(f"{len(label)} label parts for {len(factors)} factors")
        if kind not in (KIND_NORMAL, KIND_THROWAWAY, KIND_UNITARY):
            raise ValueError(f"unknown history kind {kind!r}")
        self.factors = factors
        self.label = label
        self.kind = kind

    @property
    def n_times(self) -> int:
        return len(self.factors)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.factors[0].dims

    def display_label(self) -> str:
        return ",".join(self.label)

    def time_reversed(self) -> "History":
        return History(tuple(reversed(self.factors)), tuple(reversed(self.label)),
                       kind=self.kind)

    def __repr__(self) -> str:
        return f"History({self.display_label()!r}, kind={self.kind!r})"


class HistoryFamily:
    """Sample space of mutually exclusive histories on one history space."""

    __slots__ = ("space", "histories", "dynamics")

    def __init__(self, grid: TimeGrid, histories: Sequence[History], dynamics=None):
        histories = tuple(histories)
        if not histories:
            raise GridMismatchError("a family needs at least one history")
        dims = histories[0].dims
        for h in histories:
            if h.n_times != grid.n_times:
                raise GridMismatchError(
                    f"history {h.display_label()!r} has {h.n_times} factors for "
                    f"{grid.n_times} grid times"
                )
            if h.dims != dims:
                raise DimError(f"history {h.display_label()!r} has dims {h.dims}")
        labels = [h.label for h in histories]
        if len(set(labels)) != len(labels):
            raise ArgumentError("duplicate history labels in family")
        if dynamics is not None and dynamics.grid != grid:
            raise GridMismatchError("attached dynamics uses a different time grid")
        self.space = HistorySpace(grid, dims)
        self.histories = histories
        self.dynamics = dynamics

    @property
    def grid(self) -> TimeGrid:
        return self.space.grid

    @property
    def dims(self) -> tuple[int, ...]:
        return self.space.dims

    @property
    def n(self) -> int:
        return len(self.histories)

    @property
    def labels(self) -> tuple[tuple[str, ...], ...]:
        return tuple(h.label for h in self.histories)

    def index_of(self, label) -> int:
        label = tuple(label)
        for i, h in enumerate(self.histories):
            if h.label == label:
                return i
        raise ValueError(f"no history labeled {label}")

    def included_indices(self) -> tuple[int, ...]:
        """Indices of histories that carry probability (throwaways excluded)."""
        return tuple(i for i, h in enumerate(self.histories) if h.kind != KIND_THROWAWAY)

    def select(self, event: Mapping[int, str | Iterable[str]]) -> tuple[int, ...]:
        """Histories whose label at each given time lies in the allowed set."""
        crit: dict[int, set[str]] = {}
        for t, lab in event.items():
            t = int(t)
            if not 0 <= t < self.grid.n_times:
                raise GridMismatchError(f"time index {t} out of range")
            crit[t] = {lab} if isinstance(lab, str) else {str(x) for x in lab}
        return tuple(i for i, h in enumerate(self.histories)
                     if all(h.label[t] in allowed for t, allowed in crit.items()))

    def attach(self, dynamics) -> "HistoryFamily":
        return HistoryFamily(self.grid, self.histories, dynamics)

    def time_reversed(self) -> "HistoryFamily":
        return HistoryFamily(self.grid.reversed(),
                             tuple(h.time_reversed() for h in self.histories))

    def validate(self, tol: float = TOL_ALG) -> None:
        """Check mutual exclusivity and that the histories sum to the identity.

        Both checks use the factors only.  The norm of a product of two
        histories is the product of the per-time ||A_m B_m||; the first pair
        (i < j, row-major) above tol is reported.  Mutually exclusive
        projectors sum to a projector of rank sum_a prod_m Tr F_m^a, so the
        sum is I exactly when that integer is the history-space dimension;
        each distinct factor's rank is taken once, and the sum is exact in
        Python ints.  Cost: a table per time over its distinct factors,
        O(n^2) array work.
        """
        hs = self.histories
        overlap = ~(_pair_table(hs, hs, _product_norm) <= tol)
        bad = np.argwhere(np.triu(overlap, k=1))
        if bad.size:
            i, j = bad[0]
            raise OrthogonalityError(
                f"histories {hs[i].display_label()!r} and "
                f"{hs[j].display_label()!r} are not mutually exclusive"
            )
        per_time = []
        for m in range(self.grid.n_times):
            ops, idx = _distinct([h.factors[m] for h in hs])
            ranks = [round(op.trace().real) for op in ops]
            per_time.append([ranks[k] for k in idx])
        rank = sum(math.prod(r) for r in zip(*per_time))
        deficit = self.space.total_dim - rank
        if deficit:
            raise CompletenessError(
                f"histories do not sum to the history-space identity: "
                f"||sum - I|| = {math.sqrt(abs(deficit)):.3e}"
            )

    def __repr__(self) -> str:
        return f"HistoryFamily(n={self.n}, times={self.grid.n_times}, dim={self.space.dim})"


def product_family(grid: TimeGrid, pds: Sequence[ProjectiveDecomposition],
                   dynamics=None) -> HistoryFamily:
    """Family drawing the projector at each time from a fixed decomposition."""
    pds = tuple(pds)
    if len(pds) != grid.n_times:
        raise GridMismatchError(f"{len(pds)} decompositions for {grid.n_times} times")
    dims = pds[0].dims
    for m, pd in enumerate(pds):
        if pd.dims != dims:
            raise DimError(f"decomposition at time {m} has dims {pd.dims}, expected {dims}")
    histories = [
        History([pd[i] for pd, i in zip(pds, combo)],
                [pd.labels[i] for pd, i in zip(pds, combo)])
        for combo in itertools.product(*(range(pd.size) for pd in pds))
    ]
    return HistoryFamily(grid, histories, dynamics)


def fixed_initial_family(grid: TimeGrid, initial: Operator,
                         later_pds: Sequence[ProjectiveDecomposition],
                         label: str = "init", dynamics=None,
                         tol: float = TOL_ALG) -> HistoryFamily:
    """Family with a fixed initial projector and per-time decompositions after it.

    The complementary history (I - P_0 at t_0, I afterwards) is kept in the
    sample space so the histories sum to the identity, but it is marked as a
    zero-probability throwaway and excluded from probability assignments.
    """
    if initial.flavor != "projector" and not initial.is_projector(tol):
        raise NotProjectorError("initial condition is not a projector")
    if initial.norm() <= tol:
        raise NotProjectorError("initial projector is zero")
    later_pds = tuple(later_pds)
    if len(later_pds) != grid.f:
        raise GridMismatchError(
            f"{len(later_pds)} decompositions for {grid.f} later times"
        )
    for m, pd in enumerate(later_pds):
        if pd.dims != initial.dims:
            raise DimError(f"decomposition at step {m} has dims {pd.dims}, "
                           f"expected {initial.dims}")
    histories = [
        History([initial] + [pd[i] for pd, i in zip(later_pds, combo)],
                [label] + [pd.labels[i] for pd, i in zip(later_pds, combo)])
        for combo in itertools.product(*(range(pd.size) for pd in later_pds))
    ]
    rest = initial.complement()
    if rest.norm() > tol:
        identity = Operator.identity(initial.dims)
        histories.append(History(
            [Operator(rest.matrix, initial.dims, flavor="projector")]
            + [identity] * grid.f,
            [f"!{label}"] + ["I"] * grid.f,
            kind=KIND_THROWAWAY,
        ))
    return HistoryFamily(grid, histories, dynamics)


def unitary_family(psi0: Ket, dynamics, labels: tuple[str, str] = ("psi", "!psi"),
                   tol: float = TOL_ALG) -> HistoryFamily:
    """Family built from {[psi(t_m)], I - [psi(t_m)]} along the evolved state.

    The all-[psi] history is tagged as the unitary history.  The initial
    state is assigned probability 1: histories starting with the complement
    stay in the sample space for bookkeeping but are marked zero-probability
    throwaways, so with the family's own dynamics the unitary history carries
    all the weight.
    """
    psi0.require_normalized()
    grid = dynamics.grid
    kets = [psi0]
    for m in range(grid.f):
        kets.append(dynamics.step(m) @ kets[-1])
    per_time = []
    for ket in kets:
        p = dyad(ket.normalized())
        q = p.complement()
        choices = [(labels[0], p)]
        if q.norm() > tol:
            choices.append((labels[1], Operator(q.matrix, p.dims, flavor="projector")))
        per_time.append(choices)
    histories = []
    for combo in itertools.product(*per_time):
        label = tuple(lab for lab, _ in combo)
        if label[0] != labels[0]:
            kind = KIND_THROWAWAY
        elif all(lab == labels[0] for lab in label):
            kind = KIND_UNITARY
        else:
            kind = KIND_NORMAL
        histories.append(History([op for _, op in combo], label, kind=kind))
    return HistoryFamily(grid, histories, dynamics)


def raw_family(grid: TimeGrid, histories: Sequence[History], dynamics=None,
               tol: float = TOL_ALG) -> HistoryFamily:
    """Family from an explicit list of product histories; fully validated."""
    fam = HistoryFamily(grid, histories, dynamics)
    fam.validate(tol)
    return fam


def _distinct(ops: Sequence[Operator]) -> tuple[list[Operator], list[int]]:
    """The distinct objects in first-seen order, and each entry's index into them."""
    first = {id(op): op for op in ops}
    index = {key: k for k, key in enumerate(first)}
    return list(first.values()), [index[id(op)] for op in ops]


def _pair_table(rows: Sequence[History], cols: Sequence[History], fn) -> np.ndarray:
    """prod_m fn(A_m, B_m) for every history A of `rows` and B of `cols`.

    At each time fn runs once per pair of distinct factor objects, keyed by
    id() (the histories hold the objects, so the ids are stable for the call),
    and the small table is broadcast to all history pairs.
    """
    out = None
    for m in range(rows[0].n_times):
        a_ops, a_idx = _distinct([h.factors[m] for h in rows])
        b_ops, b_idx = _distinct([h.factors[m] for h in cols])
        table = np.array([[fn(a, b) for b in b_ops] for a in a_ops])[np.ix_(a_idx, b_idx)]
        out = table if out is None else out * table
    return out


def _product_norm(a: Operator, b: Operator) -> float:
    return float(np.linalg.norm(a.matrix @ b.matrix))


def family_compatible(f1: HistoryFamily, f2: HistoryFamily,
                      tol: float = TOL_ALG, tol_consistency: float = TOL_CONSISTENCY,
                      floor: float = CONSISTENCY_FLOOR) -> bool:
    """Whether two families on the same history space may be combined.

    Requires all history projectors to commute pairwise and, when dynamics
    is attached to either family, the common refinement to pass the
    consistency check.  Product projectors with a nonzero product commute
    only factor by factor (A B = c B A and Tr A B = ||A B||^2 > 0 force c = 1).
    """
    if f1.dims != f2.dims:
        raise DimError(f"families live on dims {f1.dims} and {f2.dims}")
    if f1.grid != f2.grid:
        raise DimError("families use different time grids")
    dyn = f1.dynamics if f1.dynamics is not None else f2.dynamics
    if f1.dynamics is not None and f2.dynamics is not None \
            and not f1.dynamics.equals(f2.dynamics, tol):
        raise ValueError("families carry different dynamics")

    h1s, h2s = f1.histories, f2.histories
    overlap = ~(_pair_table(h1s, h2s, _product_norm) <= tol)
    commute = _pair_table(h1s, h2s, lambda a, b: commutes(a, b, tol))
    if np.any(overlap & ~commute):
        return False
    # Refined factors are validated once per distinct (A, B), keyed by id()
    # as in `_pair_table`; the refined histories share the objects.
    products: dict[tuple[int, int], Operator] = {}

    def product(a: Operator, b: Operator) -> Operator:
        key = (id(a), id(b))
        if key not in products:
            products[key] = Operator(a.matrix @ b.matrix, a.dims, flavor="projector",
                                     tol=tol)
        return products[key]

    refined: list[History] = []
    for i, j in np.argwhere(overlap):
        h1, h2 = h1s[i], h2s[j]
        prods = [product(a, b) for a, b in zip(h1.factors, h2.factors)]
        kind = KIND_THROWAWAY if KIND_THROWAWAY in (h1.kind, h2.kind) else KIND_NORMAL
        label = tuple(f"{a}&{b}" for a, b in zip(h1.label, h2.label))
        refined.append(History(prods, label, kind=kind))
    if dyn is None:
        return True
    from .dynamics import decoherence_functional

    refinement = HistoryFamily(f1.grid, refined)
    report = decoherence_functional(refinement, dyn,
                                    tol_consistency=tol_consistency, floor=floor)
    return report.consistent
