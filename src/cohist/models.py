"""Worked physical setups: measurement and preparation models, POVM
extraction from an ancilla, singlet correlations, and the locality harness.

The measurement models specify the interaction unitary only on the subspace
spanned by the relevant product states; the completion on the orthogonal
complement is arbitrary in principle and deterministic here for
reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    CompletenessError,
    DimError,
    FactorizationError,
    FlavorError,
    NormalizationError,
)
from .framework import (
    ProjectiveDecomposition,
    lift_pd,
    make_pd,
    spin_pd,
    tensor_pd,
    trivial_pd,
)
from .dynamics import (
    CONSISTENCY_FLOOR,
    ConsistencyReport,
    Dynamics,
    TOL_CONSISTENCY,
    decoherence_functional,
    event_weight,
)
from .histories import HistoryFamily, TimeGrid, fixed_initial_family
from .operators import (
    TOL_ALG,
    Ket,
    Operator,
    basis_ket,
    dyad,
    embed,
    partial_trace,
    singlet,
    tensor,
)

MODES = ("destructive", "vonNeumann")


def _normalize_mode(mode: str) -> str:
    for known in MODES:
        if mode.lower() == known.lower():
            return known
    raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def _check_orthonormal(kets: Sequence[Ket], what: str, tol: float = TOL_ALG) -> None:
    for i, a in enumerate(kets):
        for j, b in enumerate(kets):
            want = 1.0 if i == j else 0.0
            if abs(a.inner(b) - want) > tol:
                raise ValueError(f"{what} are not orthonormal (pair {i}, {j})")


def _complete_basis(columns: list[np.ndarray], dim: int) -> np.ndarray:
    """Extend orthonormal columns to a full basis by Gram-Schmidt over the
    standard basis, in index order."""
    basis = [c.astype(complex) for c in columns]
    for i in range(dim):
        if len(basis) == dim:
            break
        v = np.zeros(dim, dtype=complex)
        v[i] = 1.0
        for b in basis:
            v = v - b * np.vdot(b, v)
        n = float(np.linalg.norm(v))
        if n > 1e-7:
            basis.append(v / n)
    if len(basis) != dim:
        raise ValueError("failed to complete an orthonormal basis")
    return np.column_stack(basis)


def complete_unitary(pairs: Sequence[tuple[Ket, Ket]], dims) -> Operator:
    """Unitary sending each input ket to its output ket.

    Inputs must be orthonormal, as must outputs; the action on the orthogonal
    complement is completed deterministically.
    """
    dims = (dims,) if isinstance(dims, int) else tuple(dims)
    dim = int(np.prod(dims))
    ins = [p[0] for p in pairs]
    outs = [p[1] for p in pairs]
    _check_orthonormal(ins, "input states")
    _check_orthonormal(outs, "output states")
    in_full = _complete_basis([k.amplitudes for k in ins], dim)
    out_full = _complete_basis([k.amplitudes for k in outs], dim)
    return Operator(out_full @ in_full.conj().T, dims, flavor="unitary")


class MeasurementModel:
    """Two-step particle/apparatus interaction with a pointer decomposition.

    Between t_0 and t_1 the apparatus moves from its initial state to the
    ready state while the particle is untouched; between t_1 and t_2 the
    interaction correlates the pointer with the particle's basis state.  In
    destructive mode the particle always ends in the first basis state; in
    vonNeumann mode it is left unchanged.
    """

    __slots__ = ("mode", "basis", "ready0", "ready1", "pointers",
                 "u_first", "u_second", "pointer_pd", "grid")

    def __init__(self, mode: str, basis: Sequence[Ket], ready0: Ket, ready1: Ket,
                 pointers: Sequence[Ket], u_first: Operator, u_second: Operator,
                 pointer_pd: ProjectiveDecomposition, grid: TimeGrid):
        self.mode = mode
        self.basis = tuple(basis)
        self.ready0 = ready0
        self.ready1 = ready1
        self.pointers = tuple(pointers)
        self.u_first = u_first
        self.u_second = u_second
        self.pointer_pd = pointer_pd
        self.grid = grid
        for j, m in enumerate(self.pointers):
            proj = pointer_pd[j]
            if float(np.linalg.norm(proj.matrix @ m.amplitudes - m.amplitudes)) > TOL_ALG:
                raise ValueError(f"pointer projector {j} does not fix pointer state {j}")

    @property
    def d_s(self) -> int:
        return self.basis[0].dim

    @property
    def d_m(self) -> int:
        return self.ready0.dim

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.d_s, self.d_m)

    def dynamics(self) -> Dynamics:
        return Dynamics(self.grid, [self.u_first, self.u_second])

    def initial_state(self, c: Sequence[complex]) -> Ket:
        """psi_0 (x) M_0 with psi_0 = sum_j c_j |s^j>."""
        c = np.asarray(c, dtype=complex)
        if c.size != self.d_s:
            raise DimError(f"{c.size} amplitudes for {self.d_s} basis states")
        psi = Ket(sum(cj * k.amplitudes for cj, k in zip(c, self.basis)), (self.d_s,))
        psi.require_normalized(1e-10)
        return tensor(psi, self.ready0)

    def system_pd(self) -> ProjectiveDecomposition:
        return make_pd([dyad(k) for k in self.basis],
                       [f"s{j + 1}" for j in range(self.d_s)])

    def family(self, c: Sequence[complex]) -> HistoryFamily:
        """Fixed-initial family: [Psi_0], particle basis at t_1, pointer at t_2."""
        init = dyad(self.initial_state(c))
        at_t1 = lift_pd(self.system_pd(), self.dims, 0)
        at_t2 = lift_pd(self.pointer_pd, self.dims, 1)
        return fixed_initial_family(self.grid, init, [at_t1, at_t2], label="Psi0")


def _pointers(n: int, d_m: int) -> tuple[list[Ket], ProjectiveDecomposition]:
    """The pointer kets |2+j> of an apparatus of dim d_m, j < n, and the pointer
    decomposition P1..Pn, rest = I - sum_j |M^j><M^j|."""
    pointers = [basis_ket(2 + j, d_m) for j in range(n)]
    rest = Operator.identity(d_m)
    for m in pointers:
        rest = rest - dyad(m)
    pointer_pd = make_pd(
        [dyad(m) for m in pointers]
        + [Operator(rest.matrix, (d_m,), flavor="projector")],
        [f"P{j + 1}" for j in range(n)] + ["rest"],
    )
    return pointers, pointer_pd


def build_measurement(basis, mode: str = "destructive",
                      d_m: int | None = None) -> MeasurementModel:
    """Assemble the measurement model for a particle basis.

    `basis` is either the system dimension (computational basis) or a
    sequence of orthonormal kets.  The apparatus needs room for the initial
    state, the ready state, and one pointer state per basis state.
    """
    mode = _normalize_mode(mode)
    if isinstance(basis, int):
        basis = [basis_ket(j, basis) for j in range(basis)]
    basis = tuple(basis)
    d_s = basis[0].dim
    _check_orthonormal(basis, "basis states")
    if len(basis) != d_s:
        raise DimError(f"{len(basis)} basis states for dim {d_s}")
    if d_m is None:
        d_m = d_s + 2
    if d_m < d_s + 2:
        raise DimError(
            f"apparatus dim {d_m} too small: need {d_s + 2} orthonormal states"
        )
    ready0 = basis_ket(0, d_m)
    ready1 = basis_ket(1, d_m)
    pointers, pointer_pd = _pointers(d_s, d_m)
    dims = (d_s, d_m)

    # First step: apparatus moves M_0 -> M_1, particle untouched.
    swap = np.eye(d_m, dtype=complex)
    swap[[0, 1]] = swap[[1, 0]]
    u_first = Operator(np.kron(np.eye(d_s), swap), dims, flavor="unitary")

    # Second step: |s^j, M_1> -> |s^1, M^j> (destructive) or |s^j, M^j>.
    pairs = []
    for j, s in enumerate(basis):
        final = basis[0] if mode == "destructive" else s
        pairs.append((tensor(s, ready1), tensor(final, pointers[j])))
    u_second = complete_unitary(pairs, dims)
    grid = TimeGrid((0.0, 1.0, 2.0))
    return MeasurementModel(mode, basis, ready0, ready1, pointers,
                            u_first, u_second, pointer_pd, grid)


def _amplitudes(c, n: int) -> np.ndarray:
    c = np.asarray(c, dtype=complex)
    if c.size != n:
        raise DimError(f"{c.size} amplitudes where {n} are expected")
    if abs(float(np.linalg.norm(c)) - 1.0) > 1e-10:
        raise NormalizationError(
            f"amplitudes have norm {float(np.linalg.norm(c)):.6e}, expected 1"
        )
    return c


@dataclass
class MeasurementAnalysis:
    """Outcome table of a measurement run: the textbook numbers, derived from
    the history weights of the full particle+apparatus family."""

    report: ConsistencyReport
    pointer_labels: tuple[str, ...]
    outcome_probabilities: np.ndarray    # Pr(pointer k at t_2), incl. "rest"
    joint: np.ndarray                    # Pr(s^j at t_1 AND pointer k at t_2)
    conditionals: np.ndarray             # Pr(s^j at t_1 | pointer k), nan if undefined


def _table(family: HistoryFamily, report: ConsistencyReport, events) -> np.ndarray:
    """Pr(event) for each event of a nested list, as an array of its shape."""
    total = report.total_weight()

    def pr(e):
        if isinstance(e, list):
            return [pr(x) for x in e]
        return event_weight(family, report, e) / total
    return np.array(pr(events))


def _conditional(joint: np.ndarray, given: np.ndarray, axis: int) -> np.ndarray:
    """joint / given, where `given` runs along `axis` of the 2-d `joint`;
    NaN where given is not above 1e-12."""
    given = np.expand_dims(given, 1 - axis)
    return np.divide(joint, given, out=np.full(joint.shape, np.nan), where=given > 1e-12)


def measurement_analysis(model: MeasurementModel, c) -> MeasurementAnalysis:
    c = _amplitudes(c, model.d_s)
    family = model.family(c)
    report = decoherence_functional(family, model.dynamics())
    pointer_labels = model.pointer_pd.labels
    outcome = _table(family, report, [{2: lab} for lab in pointer_labels])
    joint = _table(family, report, [[{1: f"s{j + 1}", 2: lab} for lab in pointer_labels]
                                    for j in range(model.d_s)])
    return MeasurementAnalysis(report, pointer_labels, outcome, joint,
                               _conditional(joint, outcome, axis=1))


@dataclass
class PreparationAnalysis:
    """Joint particle/pointer table at the final time of a nondestructive run.

    The conditionals say the pointer outcome certifies the prepared state;
    textbook wave-function collapse is exactly this conditional probability,
    no separate process required."""

    report: ConsistencyReport
    joint: np.ndarray          # Pr([s^i] AND pointer j at t_2)
    conditionals: np.ndarray   # Pr([s^i] at t_2 | pointer j at t_2)


def preparation_analysis(model: MeasurementModel, c) -> PreparationAnalysis:
    if model.mode != "vonNeumann":
        raise ValueError("preparation analysis needs a vonNeumann-mode model")
    c = _amplitudes(c, model.d_s)
    init = dyad(model.initial_state(c))
    joint_pd = tensor_pd(model.system_pd(), model.pointer_pd)
    family = fixed_initial_family(
        model.grid, init, [trivial_pd(model.dims), joint_pd], label="Psi0"
    )
    report = decoherence_functional(family, model.dynamics())
    joint = _table(family, report, [[{2: f"s{i + 1}&{plab}"}
                                     for plab in model.pointer_pd.labels]
                                    for i in range(model.d_s)])
    return PreparationAnalysis(report, joint,
                               _conditional(joint, joint.sum(axis=0), axis=1))


class ContextualPreparation:
    """Preparation whose produced states need not be orthogonal.

    The interaction sends the initial product state to
    sum_j c_j |r_j> (x) |M^j>; the product states are orthonormal because the
    pointer states are, so given pointer outcome j the particle is certainly
    in |r_j> -- a contextual property tied to that outcome.
    """

    __slots__ = ("r_states", "c", "pointers", "unitary", "pointer_pd", "grid", "d_m")

    def __init__(self, r_states: Sequence[Ket], c, d_m: int | None = None):
        r_states = tuple(r_states)
        for j, r in enumerate(r_states):
            if not r.is_normalized(1e-10):
                raise NormalizationError(f"state {j} is not normalized")
        n = len(r_states)
        d_s = r_states[0].dim
        c = _amplitudes(c, n)
        if d_m is None:
            d_m = n + 2
        if d_m < n + 2:
            raise DimError(f"apparatus dim {d_m} too small for {n} pointer states")
        pointers, pointer_pd = _pointers(n, d_m)
        target = sum(cj * tensor(r, m).amplitudes
                     for cj, r, m in zip(c, r_states, pointers))
        initial = tensor(basis_ket(0, d_s), basis_ket(0, d_m))
        dims = (d_s, d_m)
        unitary = complete_unitary(
            [(initial, Ket(target, dims).require_normalized(1e-10))], dims
        )
        self.r_states = r_states
        self.c = c
        self.pointers = tuple(pointers)
        self.unitary = unitary
        self.pointer_pd = pointer_pd
        self.grid = TimeGrid((0.0, 1.0))
        self.d_m = d_m

    @property
    def d_s(self) -> int:
        return self.r_states[0].dim

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.d_s, self.d_m)

    def initial_state(self) -> Ket:
        return tensor(basis_ket(0, self.d_s), basis_ket(0, self.d_m))

    def dynamics(self) -> Dynamics:
        return Dynamics(self.grid, [self.unitary])

    def outcome_pd(self) -> ProjectiveDecomposition:
        """Cells [r_j] (x) P^j, their complements within each pointer sector,
        and the leftover pointer sector."""
        dims = self.dims
        projs, labels = [], []
        for j, r in enumerate(self.r_states):
            sector = embed(self.pointer_pd[j], dims, 1)
            inside = embed(dyad(r), dims, 0) @ sector
            outside = sector - inside
            projs.append(Operator(inside.matrix, dims, flavor="projector"))
            labels.append(f"r{j + 1}&P{j + 1}")
            projs.append(Operator(outside.matrix, dims, flavor="projector"))
            labels.append(f"!r{j + 1}&P{j + 1}")
        projs.append(embed(self.pointer_pd[len(self.r_states)], dims, 1))
        labels.append("rest")
        return make_pd(projs, labels)

    def family(self) -> HistoryFamily:
        init = dyad(self.initial_state())
        return fixed_initial_family(self.grid, init, [self.outcome_pd()],
                                    label="Psi0")


@dataclass
class ContextualAnalysis:
    report: ConsistencyReport
    pointer_probabilities: np.ndarray   # Pr(pointer j)
    certainty: np.ndarray               # Pr(particle in |r_j> | pointer j)


def contextual_preparation(r_states: Sequence[Ket], c,
                           d_m: int | None = None) -> ContextualPreparation:
    return ContextualPreparation(r_states, c, d_m)


def contextual_analysis(prep: ContextualPreparation) -> ContextualAnalysis:
    family = prep.family()
    report = decoherence_functional(family, prep.dynamics())
    # columns: the particle in |r_j>, or not, beside pointer j
    joint = _table(family, report, [[{1: f"r{j}&P{j}"}, {1: f"!r{j}&P{j}"}]
                                    for j in range(1, len(prep.r_states) + 1)])
    pointer_probs = joint.sum(axis=1)
    return ContextualAnalysis(report, pointer_probs,
                              _conditional(joint, pointer_probs, axis=0)[:, 0])


class PovmElementSet:
    """Positive operators summing to the identity on the system space."""

    __slots__ = ("elements", "labels")

    def __init__(self, elements: Sequence[Operator], labels: Sequence[str] | None = None,
                 tol: float = TOL_ALG):
        elements = tuple(elements)
        if not elements:
            raise DimError("a POVM needs at least one element")
        if labels is None:
            labels = tuple(str(i) for i in range(len(elements)))
        labels = tuple(labels)
        dims = elements[0].dims
        for i, r in enumerate(elements):
            if r.dims != dims:
                raise DimError(f"element {i} has dims {r.dims}, expected {dims}")
            if not r.is_positive(tol):
                raise FlavorError(
                    f"element {i} ({labels[i]}) is not positive: min eigenvalue "
                    f"{r.min_eigenvalue():.3e}"
                )
        total = sum(r.matrix for r in elements)
        residual = float(np.linalg.norm(total - np.eye(elements[0].dim)))
        if residual > tol:
            raise CompletenessError(f"elements do not sum to the identity: "
                                    f"||sum - I|| = {residual:.3e}")
        self.elements = elements
        self.labels = labels

    @property
    def dim(self) -> int:
        return self.elements[0].dim

    def __len__(self) -> int:
        return len(self.elements)

    def items(self):
        return zip(self.labels, self.elements)

    def outcome_probabilities(self, psi: Ket) -> np.ndarray:
        """Tr_s(R_k [psi]) for each element; a pre-probability calculation."""
        psi.require_normalized(1e-10)
        rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
        return np.array([float(np.trace(r.matrix @ rho).real) for r in self.elements])


def povm_from_ancilla(pd: ProjectiveDecomposition, a0: Ket,
                      ancilla: int | None = None, tol: float = TOL_ALG) -> PovmElementSet:
    """POVM R_k = Tr_A(P^k [A_0]) induced on the system by a decomposition of
    the system+ancilla space and a fixed ancilla state."""
    if len(pd.dims) < 2:
        raise DimError("decomposition must live on a composite space")
    if ancilla is None:
        ancilla = len(pd.dims) - 1
    if not 0 <= ancilla < len(pd.dims):
        raise DimError(f"ancilla slot {ancilla} out of range for {pd.dims}")
    if a0.dim != pd.dims[ancilla]:
        raise DimError(f"ancilla state dim {a0.dim} does not match factor "
                       f"{pd.dims[ancilla]}")
    if not a0.is_normalized(1e-10):
        raise NormalizationError("ancilla state must be normalized")
    a0_proj = embed(dyad(a0), pd.dims, ancilla)
    keep = tuple(i for i in range(len(pd.dims)) if i != ancilla)
    elements = [partial_trace(p @ a0_proj, keep) for p in pd.projectors]
    # Restore exact Hermiticity lost to rounding in the partial trace.
    elements = [Operator((r.matrix + r.matrix.conj().T) / 2.0, r.dims)
                for r in elements]
    return PovmElementSet(elements, pd.labels, tol)


class LocalityExperiment:
    """System A evolving beside non-interacting B and C.

    The joint dynamics factorizes as T_A (x) T_BC at every step; "doing
    something" to B is modeled by varying the initial state of C while the
    AB state stays fixed.  The family under study refers to A alone.
    """

    __slots__ = ("initial_ab", "c_dim", "steps", "a_pds", "grid", "_lifted")

    def __init__(self, initial_ab: Ket, c_dim: int,
                 steps: Sequence[tuple[Operator, Operator]],
                 a_pds: Sequence[ProjectiveDecomposition],
                 grid: TimeGrid | None = None,
                 totals: Sequence[Operator] | None = None,
                 tol: float = TOL_ALG):
        if len(initial_ab.dims) != 2:
            raise DimError("initial AB state must declare exactly two factors")
        initial_ab.require_normalized(1e-10)
        steps = tuple((a, bc) for a, bc in steps)
        if grid is None:
            grid = TimeGrid(tuple(float(i) for i in range(len(steps) + 1)))
        if len(steps) != grid.f:
            raise DimError(f"{len(steps)} steps for {grid.f} intervals")
        a_pds = tuple(a_pds)
        if len(a_pds) != grid.f:
            raise DimError(f"{len(a_pds)} A-decompositions for {grid.f} later times")
        d_a, d_b = initial_ab.dims
        for m, (t_a, t_bc) in enumerate(steps):
            if t_a.dim != d_a:
                raise DimError(f"step {m}: A unitary dim {t_a.dim}, expected {d_a}")
            if t_bc.dim != d_b * c_dim:
                raise DimError(f"step {m}: BC unitary dim {t_bc.dim}, expected "
                               f"{d_b * c_dim}")
            if not t_a.is_unitary(tol) or not t_bc.is_unitary(tol):
                raise FlavorError(f"step {m} factors are not unitary")
        if totals is not None:
            totals = tuple(totals)
            if len(totals) != len(steps):
                raise DimError(f"{len(totals)} total unitaries for {len(steps)} steps")
            for m, ((t_a, t_bc), t_tot) in enumerate(zip(steps, totals)):
                dev = float(np.linalg.norm(
                    t_tot.matrix - np.kron(t_a.matrix, t_bc.matrix)
                ))
                if dev > tol:
                    raise FactorizationError(
                        f"step {m} does not factorize as T_A (x) T_BC: "
                        f"deviation {dev:.3e}"
                    )
        for pd in a_pds:
            if pd.dim != d_a:
                raise DimError(f"A-decomposition dim {pd.dim}, expected {d_a}")
        self.initial_ab = initial_ab
        self.c_dim = int(c_dim)
        self.steps = steps
        self.a_pds = a_pds
        self.grid = grid
        self._lifted = None

    @property
    def dims(self) -> tuple[int, int, int]:
        d_a, d_b = self.initial_ab.dims
        return (d_a, d_b, self.c_dim)

    def dynamics(self) -> Dynamics:
        dims = self.dims
        ops = [Operator(np.kron(t_a.matrix, t_bc.matrix), dims, flavor="unitary")
               for t_a, t_bc in self.steps]
        return Dynamics(self.grid, ops)

    def family(self, c_state: Ket) -> HistoryFamily:
        if c_state.dim != self.c_dim:
            raise DimError(f"C state dim {c_state.dim}, expected {self.c_dim}")
        c_state.require_normalized(1e-10)
        dims = self.dims
        init = dyad(tensor(self.initial_ab, c_state)).with_dims(dims)  # C may be composite
        if self._lifted is None:
            # The same for every C state: lifted on the first family only.
            self._lifted = [lift_pd(pd, dims, 0) for pd in self.a_pds]
        return fixed_initial_family(self.grid, init, self._lifted, label="AB")


@dataclass
class LocalityReport:
    """Per-C-state results and the spread across them.

    When the dynamics factorize, both the probabilities of the A family and
    its consistency data are independent of the C state; the deviations
    quantify how exactly that holds numerically."""

    labels: tuple[tuple[str, ...], ...]
    probabilities: list[np.ndarray]
    offdiag_matrices: list[np.ndarray] = field(repr=False)
    verdicts: list[str] = field(default_factory=list)
    max_probability_deviation: float = 0.0
    max_residual_deviation: float = 0.0
    threshold: float = 1e-10
    passed: bool = False


def einstein_locality_check(experiment: LocalityExperiment, c_states: Sequence[Ket],
                            threshold: float = 1e-10,
                            tol_consistency: float = TOL_CONSISTENCY,
                            floor: float = CONSISTENCY_FLOOR) -> LocalityReport:
    """Sweep C states and report how much the A family's numbers move."""
    c_states = tuple(c_states)
    if not c_states:
        raise DimError("at least one C state is required")
    dyn = experiment.dynamics()
    labels = None
    probs, offdiags, verdicts = [], [], []
    for c_state in c_states:
        family = experiment.family(c_state)
        report = decoherence_functional(family, dyn,
                                        tol_consistency=tol_consistency, floor=floor)
        if labels is None:
            labels = report.labels
        probs.append(report.probabilities())
        offdiags.append(np.abs(report.matrix) - np.diag(np.abs(report.weights)))
        verdicts.append(report.verdict)
    prob_dev = 0.0
    res_dev = 0.0
    for p in probs[1:]:
        prob_dev = max(prob_dev, float(np.max(np.abs(p - probs[0]))))
    for m in offdiags[1:]:
        res_dev = max(res_dev, float(np.max(np.abs(m - offdiags[0]))))
    passed = (prob_dev <= threshold and res_dev <= threshold
              and len(set(verdicts)) == 1)
    return LocalityReport(
        labels=labels, probabilities=probs, offdiag_matrices=offdiags,
        verdicts=verdicts, max_probability_deviation=prob_dev,
        max_residual_deviation=res_dev, threshold=threshold, passed=passed,
    )


@dataclass
class SingletCorrelation:
    axis_a: str
    axis_b: str
    outcomes: tuple[str, str]
    joint: np.ndarray         # rows: a outcome, columns: b outcome
    conditional: np.ndarray   # Pr(b outcome | a outcome)


def singlet_correlation(axis_a: str, axis_b: str) -> SingletCorrelation:
    """Two-time Born analysis of spin components of a singlet pair.

    Same-axis outcomes anti-correlate perfectly; cross-axis conditionals are
    even.  The singlet state serves as a pre-probability here."""
    grid = TimeGrid((0.0, 1.0))
    pair_pd = tensor_pd(spin_pd(axis_a), spin_pd(axis_b))
    init = dyad(singlet())
    family = fixed_initial_family(grid, init, [pair_pd], label="singlet")
    dyn = Dynamics.trivial(grid, (2, 2))
    report = decoherence_functional(family, dyn)
    outcomes = ("+", "-")
    joint = _table(family, report, [[{1: f"{axis_a}{sa}&{axis_b}{sb}"} for sb in outcomes]
                                    for sa in outcomes])
    return SingletCorrelation(axis_a, axis_b, outcomes, joint,
                              _conditional(joint, joint.sum(axis=1), axis=0))
