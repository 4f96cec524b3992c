"""Seeded random generators and dense reference checks shared across the
test modules."""

import math
import re

import numpy as np

from cohist import (
    CompletenessError,
    DimError,
    Ket,
    NotProjectorError,
    Operator,
    OrthogonalityError,
    make_pd,
)


def random_unitary(rng, d):
    """Haar-random unitary via QR with the standard phase fix."""
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(a)
    phases = np.diag(r).copy()
    phases = phases / np.abs(phases)
    return Operator(q * phases, (d,), flavor="unitary")


def random_ket(rng, d, dims=None):
    amp = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return Ket(amp / np.linalg.norm(amp), dims)


def random_partition(rng, d, n_blocks=None):
    """Sizes of a random partition of d into nonempty blocks."""
    if n_blocks is None:
        n_blocks = int(rng.integers(1, d + 1))
    cuts = sorted(rng.choice(np.arange(1, d), size=n_blocks - 1, replace=False))
    bounds = [0] + list(cuts) + [d]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def random_pd(rng, d, n_blocks=None, dims=None):
    """Random projective decomposition from grouped columns of a random unitary."""
    u = random_unitary(rng, d).matrix
    sizes = random_partition(rng, d, n_blocks)
    projs = []
    start = 0
    for size in sizes:
        cols = u[:, start:start + size]
        projs.append(Operator(cols @ cols.conj().T, dims, flavor="projector"))
        start += size
    return make_pd(projs)


def random_projector(rng, d, rank):
    u = random_unitary(rng, d).matrix
    cols = u[:, :rank]
    return Operator(cols @ cols.conj().T, (d,), flavor="projector")


# Dense oracles on the history space.  They build the d^(f+1) matrices the
# library never forms, so they serve as independent references at small size.

def dense_history(h):
    """The history projector F_0 (x) ... (x) F_f as a dense matrix."""
    m = h.factors[0].matrix
    for f in h.factors[1:]:
        m = np.kron(m, f.matrix)
    return m


def dense_identity_residual(fam):
    """||sum_a P_a - I|| from explicit kron sums."""
    total = sum(dense_history(h) for h in fam.histories)
    return float(np.linalg.norm(total - np.eye(total.shape[0])))


def dense_identity_check(fam, tol=1e-10):
    """Independent oracle for the sum rule: explicit kron sums."""
    return dense_identity_residual(fam) <= tol


def dense_first_overlap(histories, tol=1e-10):
    """First pair (i, j), i < j in row-major order, with ||P_i P_j|| > tol."""
    dense = [dense_history(h) for h in histories]
    for i in range(len(dense)):
        for j in range(i + 1, len(dense)):
            if not np.linalg.norm(dense[i] @ dense[j]) <= tol:
                return i, j
    return None


def pairwise_first_overlap(fam, tol=1e-10):
    """First pair (i, j), i < j in row-major order, whose product of per-time
    ||A_m B_m|| is not <= tol: the factored overlap rule, one pair at a time."""
    histories = fam.histories
    for i in range(len(histories)):
        for j in range(i + 1, len(histories)):
            norm = None
            for a, b in zip(histories[i].factors, histories[j].factors):
                x = float(np.linalg.norm(a.matrix @ b.matrix))
                norm = x if norm is None else norm * x
            if not norm <= tol:
                return i, j
    return None


def dense_families_commute(f1, f2, tol=1e-10):
    """Independent oracle for family compatibility without dynamics: every
    pair of history projectors commutes on the history space."""
    dense2 = [dense_history(h) for h in f2.histories]
    for h1 in f1.histories:
        a = dense_history(h1)
        for b in dense2:
            if not np.linalg.norm(a @ b - b @ a) <= tol:
                return False
    return True


# Per-element references for the array-native decoherence functional and
# report code: the loops the library replaced, kept as oracles.

def loop_chain(history, dynamics):
    """F_f T_f ... F_1 T_1 F_0 by one matmul pair per time."""
    k = history.factors[0].matrix
    for m in range(1, history.n_times):
        k = history.factors[m].matrix @ (dynamics.steps[m - 1].matrix @ k)
    return k


def trace_gram(histories, dynamics):
    """D(a, b) = Tr[K_a^dag K_b], one trace per pair."""
    chains = [loop_chain(h, dynamics) for h in histories]
    return np.array([[np.trace(a.conj().T @ b) for b in chains] for a in chains])


def pairwise_verdict(matrix, weights, tol_consistency, floor):
    """(consistent, max_offdiag_abs, max_offdiag_rel), one pair at a time."""
    n = len(weights)
    consistent = True
    max_abs = 0.0
    max_rel = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            off = abs(matrix[i, j])
            scale = float(np.sqrt(max(weights[i], 0.0) * max(weights[j], 0.0)))
            # max() keeps its first argument against a NaN; a NaN maximum
            # stays NaN from then on.
            max_abs = off if math.isnan(off) else max(max_abs, off)
            if scale > floor:
                rel = off / scale
                max_rel = rel if math.isnan(rel) else max(max_rel, rel)
            if not off <= max(tol_consistency * scale, floor):
                consistent = False
    return consistent, max_abs, max_rel


def per_element_rows(matrix):
    """Machine-report matrix rows, one formatted complex entry at a time."""
    def c(z):
        z = complex(z)
        return f"{z.real:.16e}{z.imag:+.16e}i"

    return ["row " + " ".join(c(z) for z in row) for row in matrix]


# Human-report oracle: the machine line with every number field re-read and
# shortened to `.6g`, one whitespace-separated field at a time.
_MACHINE_REAL = r"(?:\d\.\d{16}e[+-]\d{2,3}|nan|inf)"
_REAL = re.compile(f"[+-]?{_MACHINE_REAL}")
_ENTRY = re.compile(f"([+-]?{_MACHINE_REAL})([+-]{_MACHINE_REAL})i")


def human_line(machine_line):
    """The human-report line (without indent) for one machine-report line."""
    def shorten(field, entry):
        if entry and field:
            re_part, im_part = _ENTRY.fullmatch(field).groups()
            return f"{float(re_part):.6g}{float(im_part):+.6g}i"
        return f"{float(field):.6g}" if _REAL.fullmatch(field) else field

    key, *fields = machine_line.split(" ")
    return " ".join([key] + [shorten(f, key == "row") for f in fields])


# Operator and decomposition checks as they were written before they were
# batched: np.kron chains, np.linalg.norm and one loop step per element and
# per pair.  They pin the faster code bit for bit (products, norms) or by
# error class and message (checks).

def linalg_norm(x):
    """The Frobenius norm as np.linalg.norm computes it."""
    return float(np.linalg.norm(x))


def kron_tensor(*parts):
    """`tensor` of operators or kets by a chain of np.kron calls."""
    if isinstance(parts[0], Ket):
        amp = parts[0].amplitudes
        for p in parts[1:]:
            amp = np.kron(amp, p.amplitudes)
        return Ket(amp, sum((p.dims for p in parts), ()))
    m = parts[0].matrix
    for p in parts[1:]:
        m = np.kron(m, p.matrix)
    flavors = {p.flavor for p in parts}
    flavor = flavors.pop() if len(flavors) == 1 and None not in flavors else None
    return Operator(m, sum((p.dims for p in parts), ()), flavor=flavor)


def kron_embed(op, dims, slot):
    """`embed` as the np.kron product of a flavor-checked identity per factor
    and a flavor-checked copy of `op`, checked again as a whole."""
    dims = tuple(int(d) for d in dims)
    parts = [Operator(np.eye(d), (d,), flavor="projector") for d in dims]
    parts[slot] = Operator(op.matrix, (dims[slot],), flavor=op.flavor)
    out = parts[0] if len(parts) == 1 else kron_tensor(*parts)
    return Operator(out.matrix, dims, flavor=out.flavor)


def loop_pd_check(projectors, labels, tol=1e-10):
    """Raise what `ProjectiveDecomposition` raises for these elements (with
    distinct labels), checking one element and then one pair at a time."""
    dim = projectors[0].dim
    for i, p in enumerate(projectors):
        if p.dim != dim:
            raise DimError(f"element {i} has dim {p.dim}, expected {dim}")
        if linalg_norm(p.matrix) <= tol:
            raise NotProjectorError(f"element {i} ({labels[i]}) is the zero operator")
        m = p.matrix
        if not (linalg_norm(m - m.conj().T) <= tol and linalg_norm(m @ m - m) <= tol):
            raise NotProjectorError(f"element {i} ({labels[i]}) is not a projector")
    for i in range(len(projectors)):
        for j in range(i + 1, len(projectors)):
            overlap = linalg_norm(projectors[i].matrix @ projectors[j].matrix)
            if overlap > tol:
                raise OrthogonalityError(
                    f"elements {i} ({labels[i]}) and {j} ({labels[j]}) are not "
                    f"orthogonal: ||P_i P_j|| = {overlap:.3e}")
    residual = linalg_norm(sum(p.matrix for p in projectors) - np.eye(dim))
    if residual > tol:
        raise CompletenessError(
            f"projectors do not sum to the identity (completeness violated): "
            f"||sum - I|| = {residual:.3e}")
