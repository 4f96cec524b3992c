"""History spaces and sample spaces of histories (families).

A history assigns one projector per time; formally it is the tensor product
of its factors on the history space H_0 (x) H_1 (x) ... (x) H_f.  A family
is stored factored, as the sample space built from one decomposition per
time: per time a table of its distinct projectors, plus one (n, f+1) index
array of the entry each history picks -- never a dense d^(f+1) matrix, and
no object per history.

Mutual exclusivity, the sum rule and family compatibility are decided from
the tables too: `_entry_tables` evaluates a function once per pair of table
entries at each time, and `_pair_table` gathers those tables by the index
columns and multiplies across times.  Family compatibility costs O(n1 n2)
array work plus a table per time; `validate` costs only the tables when
each time's distinct entries are exactly orthogonal, as for basis and
product families, and O(n^2) array work otherwise.
"""

from __future__ import annotations

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
KINDS = (KIND_NORMAL, KIND_THROWAWAY, KIND_UNITARY)


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
        if kind not in KINDS:
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

    def __repr__(self) -> str:
        return f"History({self.display_label()!r}, kind={self.kind!r})"


class HistoryFamily:
    """Sample space of mutually exclusive histories on one history space.

    Stored as the paper builds it, one decomposition per time: `factors[m]`
    holds the distinct projectors at time m and `names[m]` their labels, and
    row a of the read-only (n, f+1) array `index` picks history a's factor
    factors[m][index[a, m]] at each time.  `kinds` tags each history normal,
    throwaway or unitary.  The history space is the tensor product of one
    copy of the `dims` system per time of `grid`.
    """

    __slots__ = ("grid", "dims", "factors", "names", "index", "kinds")

    def __init__(self, grid: TimeGrid, factors: Sequence[Sequence[Operator]],
                 names: Sequence[Sequence[str]], index, kinds):
        factors = tuple(tuple(ops) for ops in factors)
        names = tuple(tuple(str(lab) for lab in labs) for labs in names)
        index = np.array(index, dtype=np.intp)
        kinds = np.array(kinds, dtype=str)
        if len(factors) != grid.n_times or len(names) != grid.n_times:
            raise GridMismatchError(
                f"{len(factors)} factor tables for {grid.n_times} grid times")
        if not len(index):
            raise GridMismatchError("a family needs at least one history")
        sizes = [len(ops) for ops in factors]
        if ([len(labs) for labs in names] != sizes or index.shape != (len(kinds), len(sizes))
                or not np.all((index >= 0) & (index < sizes))):
            raise ArgumentError("factor tables, labels and index do not agree")
        dims = factors[0][0].dims
        for m, ops in enumerate(factors):
            for op in ops:
                if op.dims != dims:
                    raise DimError(f"factor at time {m} has dims {op.dims}, expected {dims}")
        if not set(kinds.tolist()) <= set(KINDS):
            raise ValueError(f"unknown history kinds {set(kinds.tolist()) - set(KINDS)}")
        # The label tuples must differ; a label's code is its last position
        # in its table.
        codes = []
        for labs, col in zip(names, index.T):
            last = {lab: k for k, lab in enumerate(labs)}
            codes.append(np.array([last[lab] for lab in labs])[col].tolist())
        if len(set(zip(*codes))) < len(index):
            raise ArgumentError("duplicate history labels in family")
        index.flags.writeable = False
        kinds.flags.writeable = False
        self.grid = grid
        self.dims = tuple(int(d) for d in dims)
        self.factors = factors
        self.names = names
        self.index = index
        self.kinds = kinds

    @property
    def dim(self) -> int:
        """Dimension of the single-time space."""
        return int(np.prod(self.dims))

    @property
    def total_dim(self) -> int:
        """Dimension of the history space."""
        return self.dim ** self.grid.n_times

    @property
    def space(self) -> "HistoryFamily":
        """The family itself, which carries `grid`, `dims`, `dim` and `total_dim`."""
        return self

    @property
    def n(self) -> int:
        return len(self.index)

    @property
    def labels(self) -> tuple[tuple[str, ...], ...]:
        return tuple(zip(*[[labs[k] for k in col]
                           for labs, col in zip(self.names, self.index.T.tolist())]))

    @property
    def histories(self) -> tuple[History, ...]:
        """The histories as `History` objects, built anew on each access."""
        return tuple(History([ops[k] for ops, k in zip(self.factors, row)], label, kind)
                     for row, label, kind in zip(self.index.tolist(), self.labels,
                                                 self.kinds.tolist()))

    def included_indices(self) -> tuple[int, ...]:
        """Indices of histories that carry probability (throwaways excluded)."""
        return tuple(np.flatnonzero(self.kinds != KIND_THROWAWAY).tolist())

    def mask(self, event: Mapping[int, str | Iterable[str]]) -> np.ndarray:
        """Histories whose label at each given time lies in the allowed set, as
        a boolean mask: per time, a hit table over the labels, gathered by index."""
        hit = np.ones(self.n, dtype=bool)
        for t, lab in event.items():
            t = int(t)
            if not 0 <= t < self.grid.n_times:
                raise GridMismatchError(f"time index {t} out of range")
            allowed = {lab} if isinstance(lab, str) else {str(x) for x in lab}
            hit &= np.array([name in allowed for name in self.names[t]])[self.index[:, t]]
        return hit

    def select(self, event: Mapping[int, str | Iterable[str]]) -> tuple[int, ...]:
        """Histories whose label at each given time lies in the allowed set."""
        return tuple(np.flatnonzero(self.mask(event)).tolist())

    def time_reversed(self) -> "HistoryFamily":
        return HistoryFamily(self.grid.reversed(), self.factors[::-1], self.names[::-1],
                             self.index[:, ::-1], self.kinds)

    def validate(self, tol: float = TOL_ALG) -> None:
        """Check mutual exclusivity and that the histories sum to the identity.

        Both checks use the factor tables only.  The norm of a product of two
        histories is the product of the per-time ||A_m B_m||; the first pair
        (i < j, row-major) above tol is reported.  Distinct label tuples are
        distinct index rows, so when every time's table of ||A B|| is zero
        off its diagonal (and finite), every pair has a zero product and the
        n x n product table is not built.  Mutually exclusive projectors sum
        to a projector of rank sum_a prod_m Tr F_m^a, so the sum is I exactly
        when that integer is the history-space dimension; each table entry's
        rank is taken once, and the sum is exact in Python ints.  Cost: a
        k x k table per time, O(n) work for the rank sum, and O(n^2) array
        work only when some time's distinct entries overlap.
        """
        tables = _entry_tables(self, self, _product_norm)
        # A negative or NaN tol fails even a zero product.
        if not (0.0 <= tol and all(map(_disjoint, tables))):
            overlap = ~(_pair_table(self, self, tables) <= tol)
            bad = np.argwhere(np.triu(overlap, k=1))
            if bad.size:
                i, j = bad[0]
                labels = self.labels
                raise OrthogonalityError(
                    f"histories {','.join(labels[i])!r} and {','.join(labels[j])!r} "
                    "are not mutually exclusive"
                )
        rank = np.ones(self.n, dtype=object)
        for ops, col in zip(self.factors, self.index.T):
            rank = rank * np.array([round(op.trace().real) for op in ops], dtype=object)[col]
        deficit = self.total_dim - int(rank.sum())
        if deficit:
            raise CompletenessError(
                f"histories do not sum to the history-space identity: "
                f"||sum - I|| = {math.sqrt(abs(deficit)):.3e}"
            )

    def __repr__(self) -> str:
        return f"HistoryFamily(n={self.n}, times={self.grid.n_times}, dim={self.dim})"


def _radix_index(sizes: Sequence[int]) -> np.ndarray:
    """Every combination of one entry per table, in itertools.product order."""
    return np.indices(sizes).reshape(len(sizes), -1).T


def product_family(grid: TimeGrid, pds: Sequence[ProjectiveDecomposition]) -> HistoryFamily:
    """Family drawing the projector at each time from a fixed decomposition."""
    pds = tuple(pds)
    if len(pds) != grid.n_times:
        raise GridMismatchError(f"{len(pds)} decompositions for {grid.n_times} times")
    index = _radix_index([pd.size for pd in pds])
    return HistoryFamily(grid, [pd.projectors for pd in pds], [pd.labels for pd in pds],
                         index, np.full(len(index), KIND_NORMAL))


def fixed_initial_family(grid: TimeGrid, initial: Operator,
                         later_pds: Sequence[ProjectiveDecomposition],
                         label: str = "init", tol: float = TOL_ALG) -> HistoryFamily:
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
    factors = [[initial]] + [list(pd.projectors) for pd in later_pds]
    names = [[label]] + [list(pd.labels) for pd in later_pds]
    index = _radix_index([len(ops) for ops in factors])
    rest = initial.complement()
    if rest.norm() > tol:
        # The throwaway is one more row: the complement at t_0, then an I
        # entry appended to each later table.
        identity = Operator.identity(initial.dims)
        factors[0].append(rest)
        names[0].append(f"!{label}")
        for ops, labs in zip(factors[1:], names[1:]):
            ops.append(identity)
            labs.append("I")
        index = np.vstack([index, [len(ops) - 1 for ops in factors]])
    kinds = np.where(index[:, 0] == 0, KIND_NORMAL, KIND_THROWAWAY)
    return HistoryFamily(grid, factors, names, index, kinds)


def unitary_family(psi0: Ket, dynamics, labels: tuple[str, str] = ("psi", "!psi"),
                   tol: float = TOL_ALG) -> HistoryFamily:
    """Family built from {[psi(t_m)], I - [psi(t_m)]} along the evolved state.

    The all-[psi] history is tagged as the unitary history.  The initial
    state is assigned probability 1: histories starting with the complement
    stay in the sample space for bookkeeping but are marked zero-probability
    throwaways, so with the dynamics it was built from the unitary history
    carries all the weight.
    """
    psi0.require_normalized()
    grid = dynamics.grid
    kets = [psi0]
    for m in range(grid.f):
        kets.append(dynamics.step(m) @ kets[-1])
    factors, names = [], []
    for ket in kets:
        p = dyad(ket.normalized())
        q = p.complement()
        factors.append([p])
        names.append([labels[0]])
        if q.norm() > tol:
            factors[-1].append(q)
            names[-1].append(labels[1])
    index = _radix_index([len(ops) for ops in factors])
    kinds = np.where(index[:, 0] != 0, KIND_THROWAWAY,
                     np.where(index.any(axis=1), KIND_NORMAL, KIND_UNITARY))
    return HistoryFamily(grid, factors, names, index, kinds)


def family_of(grid: TimeGrid, histories: Sequence[History]) -> HistoryFamily:
    """The family of the given histories, in their order.

    Each time's table holds the distinct (factor object, label) pairs in
    first-seen order.  They are keyed by id(), and the keys live only while
    `histories` is held here.
    """
    histories = tuple(histories)
    if any(h.n_times != grid.n_times for h in histories):
        raise GridMismatchError(f"a history needs {grid.n_times} factors, one per grid time")
    factors, names, columns = [], [], []
    for m in range(grid.n_times):
        first: dict[tuple[int, str], int] = {}
        for a, h in enumerate(histories):
            first.setdefault((id(h.factors[m]), h.label[m]), a)
        position = {key: k for k, key in enumerate(first)}
        factors.append([histories[a].factors[m] for a in first.values()])
        names.append([histories[a].label[m] for a in first.values()])
        columns.append([position[id(h.factors[m]), h.label[m]] for h in histories])
    index = np.array(columns, dtype=np.intp).T.reshape(len(histories), grid.n_times)
    return HistoryFamily(grid, factors, names, index, [h.kind for h in histories])


def raw_family(grid: TimeGrid, histories: Sequence[History],
               tol: float = TOL_ALG) -> HistoryFamily:
    """Family from an explicit list of product histories; fully validated."""
    fam = family_of(grid, histories)
    fam.validate(tol)
    return fam


def _entry_tables(rows: HistoryFamily, cols: HistoryFamily, fn) -> list[np.ndarray]:
    """fn(A, B) for every entry A of a `rows` table and B of the `cols` table
    of the same time: one (k1, k2) array per time."""
    return [np.array([[fn(a, b) for b in b_ops] for a in a_ops])
            for a_ops, b_ops in zip(rows.factors, cols.factors)]


def _pair_table(rows: HistoryFamily, cols: HistoryFamily, tables) -> np.ndarray:
    """prod_m tables[m][A_m, B_m] for every history A of `rows` and B of `cols`:
    each time's entry table gathered by the two index columns."""
    out = None
    for table, a_col, b_col in zip(tables, rows.index.T, cols.index.T):
        table = table[np.ix_(a_col, b_col)]
        out = table if out is None else out * table
    return out


def _disjoint(table: np.ndarray) -> bool:
    """Whether a time's table of ||A B|| is finite and exactly zero off its
    diagonal."""
    return bool(np.isfinite(table).all() and not table[~np.eye(len(table), dtype=bool)].any())


def _product_norm(a: Operator, b: Operator) -> float:
    return float(np.linalg.norm(a.matrix @ b.matrix))


def family_compatible(f1: HistoryFamily, f2: HistoryFamily, dynamics=None,
                      tol: float = TOL_ALG, tol_consistency: float = TOL_CONSISTENCY,
                      floor: float = CONSISTENCY_FLOOR) -> bool:
    """Whether two families on the same history space may be combined.

    Requires all history projectors to commute pairwise and, when dynamics
    is given, the common refinement to pass the consistency check under it.
    Product projectors with a nonzero product commute only factor by factor
    (A B = c B A and Tr A B = ||A B||^2 > 0 force c = 1).
    """
    if f1.dims != f2.dims:
        raise DimError(f"families live on dims {f1.dims} and {f2.dims}")
    if f1.grid != f2.grid:
        raise DimError("families use different time grids")
    if dynamics is not None and dynamics.grid != f1.grid:
        raise GridMismatchError("dynamics uses a different time grid")

    overlap = ~(_pair_table(f1, f2, _entry_tables(f1, f2, _product_norm)) <= tol)
    commute = _pair_table(f1, f2, _entry_tables(f1, f2, lambda a, b: commutes(a, b, tol)))
    if np.any(overlap & ~commute):
        return False
    # The refinement has one history per overlapping pair, row-major.  Per
    # time its table is the distinct (A, B) index pairs; each distinct
    # product A B is validated once, keyed by the factor objects' id().
    rows, cols = np.nonzero(overlap)
    products: dict[tuple[int, int], Operator] = {}
    factors, names, columns = [], [], []
    for m, (a_ops, b_ops) in enumerate(zip(f1.factors, f2.factors)):
        keys, column = np.unique(f1.index[rows, m] * len(b_ops) + f2.index[cols, m],
                                 return_inverse=True)
        pairs = [divmod(key, len(b_ops)) for key in keys.tolist()]
        for i, j in pairs:
            if (id(a_ops[i]), id(b_ops[j])) not in products:
                products[id(a_ops[i]), id(b_ops[j])] = Operator(
                    a_ops[i].matrix @ b_ops[j].matrix, a_ops[i].dims, flavor="projector", tol=tol)
        factors.append([products[id(a_ops[i]), id(b_ops[j])] for i, j in pairs])
        names.append([f"{f1.names[m][i]}&{f2.names[m][j]}" for i, j in pairs])
        columns.append(column.reshape(-1))
    if dynamics is None:
        return True
    from .dynamics import decoherence_functional

    throwaway = (f1.kinds[rows] == KIND_THROWAWAY) | (f2.kinds[cols] == KIND_THROWAWAY)
    refinement = HistoryFamily(f1.grid, factors, names, np.stack(columns, axis=1),
                               np.where(throwaway, KIND_THROWAWAY, KIND_NORMAL))
    report = decoherence_functional(refinement, dynamics,
                                    tol_consistency=tol_consistency, floor=floor)
    return report.consistent
