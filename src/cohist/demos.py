"""Built-in demo scenarios.

Each demo is a scenario document written as grammar lines from deterministic
ingredients, so running it twice (same seed) produces byte-identical
machine-mode reports.  Interaction unitaries that are awkward to write by
hand are computed by the model builders, and every computed number is
written by `scenario.format_complex`, so each line is already in the form
that `serialize` gives it.
"""

from __future__ import annotations

import numpy as np

from .models import build_measurement, contextual_preparation
from .operators import Ket
from .scenario import format_complex

_R = 1.0 / np.sqrt(2.0)


def _amps(*amps) -> str:
    return " ".join(map(format_complex, amps))


def _matrix(matrix) -> str:
    return " ; ".join(_amps(*row) for row in np.asarray(matrix, dtype=complex))


def _rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def stern_gerlach() -> str:
    return f"""\
system spin dim 2
state xplus system spin amps {_amps(_R, _R)}
operator pxp system spin dyad xplus
pd z system spin spin z
pd x system spin spin x
grid g times 0 1
dynamics free system spin grid g trivial
family f system spin grid g fixed pxp z
query compatibility pds z x
query compatibility pds z z
query refinement fine z coarse z
query consistency family f dynamics free
query probability family f dynamics free where 1=z+
query probability family f dynamics free where 1=z-
"""


def _pointer_model(kind: str, psi0: str) -> str:
    """System s in state `psi0` and a four-level pointer m, coupled by the
    two unitaries of `build_measurement(2, kind)`; the pointer pd."""
    model = build_measurement(2, kind)
    return f"""\
system s dim 2
system m dim 4
system sm factors s m
state psi0 system s amps {psi0}
state m0 system m basis 0
state m1ptr system m basis 2
state m2ptr system m basis 3
state init system sm tensor psi0 m0
operator u1 system sm matrix {_matrix(model.u_first.matrix)}
operator u2 system sm matrix {_matrix(model.u_second.matrix)}
operator P1 system m dyad m1ptr
operator P2 system m dyad m2ptr
operator Prest system m matrix {_matrix(np.diag([1.0, 1.0, 0.0, 0.0]))}
pd sbasis system s basis
pd pointer system m projectors P1 P2 Prest
"""


def measurement() -> str:
    return _pointer_model("destructive", _amps(0.6, 0.8)) + """\
pd slift system sm lift sbasis slot 0
pd plift system sm lift pointer slot 1
grid g times 0 1 2
dynamics meas system sm grid g unitaries u1 u2
family fam system sm grid g fixed init slift plift
query consistency family fam dynamics meas
query probability family fam dynamics meas where 2=P1
query probability family fam dynamics meas where 2=P2
query conditional family fam dynamics meas where 1=0 given 2=P1
query conditional family fam dynamics meas where 1=1 given 2=P2
query conditional family fam dynamics meas where 1=1 given 2=P1
"""


def preparation() -> str:
    return _pointer_model("vonNeumann", _amps(_R, _R)) + """\
pd triv system sm trivial
pd joint system sm tensor sbasis pointer
grid g times 0 1 2
dynamics prep system sm grid g unitaries u1 u2
family fam system sm grid g fixed init triv joint
query consistency family fam dynamics prep
query probability family fam dynamics prep where 2=0&P1
query probability family fam dynamics prep where 2=1&P2
query probability family fam dynamics prep where 2=0&P2
query conditional family fam dynamics prep where 2=0&P1 given 2=0&P1,1&P1
query conditional family fam dynamics prep where 2=1&P2 given 2=1&P2,0&P2
"""


def contextual() -> str:
    prep = contextual_preparation([Ket([1.0, 0.0]), Ket([0.6, 0.8])], [0.6, 0.8])
    op_names = ("r1P1", "nr1P1", "r2P2", "nr2P2", "Prest")
    ops = "".join(f"operator {name} system sm matrix {_matrix(proj.matrix)}\n"
                  for name, proj in zip(op_names, prep.outcome_pd().projectors))
    return f"""\
system s dim 2
system m dim 4
system sm factors s m
state s0 system s basis 0
state m0 system m basis 0
state init system sm tensor s0 m0
operator u system sm matrix {_matrix(prep.unitary.matrix)}
{ops}pd outcome system sm projectors {" ".join(op_names)}
grid g times 0 1
dynamics prep system sm grid g unitaries u
family fam system sm grid g fixed init outcome
query consistency family fam dynamics prep
query probability family fam dynamics prep where 1=r1P1
query probability family fam dynamics prep where 1=r2P2
query conditional family fam dynamics prep where 1=r1P1 given 1=r1P1,nr1P1
query conditional family fam dynamics prep where 1=r2P2 given 1=r2P2,nr2P2
"""


def povm() -> str:
    return f"""\
system s dim 2
system a dim 2
system sa factors s a
state b1 system sa amps {_amps(_R, 0.0, 0.0, _R)}
state b2 system sa amps {_amps(_R, 0.0, 0.0, -_R)}
state b3 system sa amps {_amps(0.0, _R, _R, 0.0)}
state b4 system sa amps {_amps(0.0, _R, -_R, 0.0)}
state a0 system a amps {_amps(0.8, 0.6j)}
pd bell system sa dyads b1 b2 b3 b4
query povm pd bell state a0 ancilla 1
"""


def singlet_demo() -> str:
    return """\
system a dim 2
system b dim 2
system pair factors a b
state psi system pair singlet
operator ppsi system pair dyad psi
pd za system a spin z
pd zb system b spin z
pd xb system b spin x
pd zz system pair tensor za zb
pd zx system pair tensor za xb
grid g times 0 1
dynamics free system pair grid g trivial
family fzz system pair grid g fixed ppsi zz
family fzx system pair grid g fixed ppsi zx
query compatibility pds zz zx
query consistency family fzz dynamics free
query conditional family fzz dynamics free where 1=z+&z- given 1=z+&z+,z+&z-
query conditional family fzz dynamics free where 1=z-&z+ given 1=z-&z+,z-&z-
query conditional family fzx dynamics free where 1=z+&x+ given 1=z+&x+,z+&x-
"""


def locality() -> str:
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) * _R
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                    dtype=float)
    cz = np.diag([1.0, 1.0, 1.0, -1.0])
    tbc1 = cnot @ np.kron(h, np.eye(2))
    tbc2 = cz @ np.kron(np.eye(2), h)
    return f"""\
system a dim 2
system b dim 2
system c dim 2
system ab factors a b
system bc factors b c
state phi0 system ab singlet
state c1 system c amps {_amps(1.0, 0.0)}
state c2 system c amps {_amps(0.6, 0.8j)}
state c3 system c amps {_amps(_R, -_R)}
operator ta1 system a matrix {_matrix(_rotation(0.35))}
operator ta2 system a matrix {_matrix(_rotation(0.9))}
operator tbc1 system bc matrix {_matrix(tbc1)}
operator tbc2 system bc matrix {_matrix(tbc2)}
pd za system a spin z
pd xa system a spin x
grid g times 0 1 2
locality L systems a b c grid g initial phi0 pds za xa
locality L step ta1 tbc1
locality L step ta2 tbc2
locality L cstate c1
locality L cstate c2
locality L cstate c3
query locality locality L
"""


def unitary_family_demo() -> str:
    return f"""\
system spin dim 2
state up system spin basis 0
operator rot system spin matrix {_matrix(_rotation(0.3 * np.pi))}
grid g times 0 1 2
dynamics dyn system spin grid g unitaries rot rot
family fam system spin grid g unitary up dyn
query consistency family fam dynamics dyn
query probability family fam dynamics dyn where 0=psi 1=psi 2=psi
query sample family fam dynamics dyn count 5 seed 7
"""


def inconsistent_triple() -> str:
    return f"""\
system spin dim 2
state xplus system spin amps {_amps(_R, _R)}
operator pxp system spin dyad xplus
pd z system spin spin z
pd x system spin spin x
grid g times 0 1 2
dynamics free system spin grid g trivial
family trip system spin grid g fixed pxp z x
query consistency family trip dynamics free
query probability family trip dynamics free where 2=x+
query conditional family trip dynamics free where 1=z+ given 2=x+
query compatibility pds z x
"""


def three_toss() -> str:
    return f"""\
system q dim 2
system qqq factors q q q
state up system q basis 0
state init system qqq tensor up up up
operator r system q matrix {_matrix(_rotation(np.pi / 4.0))}
operator rrr system qqq tensor r r r
pd zq system q spin z
pd zzz system qqq tensor zq zq zq
grid g times 0 1
dynamics toss system qqq grid g unitaries rrr
family fam system qqq grid g fixed init zzz
query consistency family fam dynamics toss
query probability family fam dynamics toss where 1=z+&z+&z+
query sample family fam dynamics toss count 100000 seed 20260810
"""


DEMOS: dict[str, tuple[str, callable]] = {
    "stern-gerlach": (
        "incompatible z/x frameworks and two-outcome beam statistics",
        stern_gerlach),
    "measurement": (
        "destructive measurement: pointer statistics and retrodiction",
        measurement),
    "preparation": (
        "nondestructive interaction; pointer outcome certifies the state",
        preparation),
    "contextual-preparation": (
        "preparation into non-orthogonal states, certain per pointer sector",
        contextual),
    "povm": (
        "positive operator set induced on the system by a Bell-basis pd",
        povm),
    "singlet": (
        "singlet pair: same-axis anti-correlation, cross-axis evenness",
        singlet_demo),
    "locality": (
        "A-system statistics unchanged by whatever C does to B",
        locality),
    "unitary-family": (
        "deterministic family tracking the evolved state",
        unitary_family_demo),
    "inconsistent-triple": (
        "three-time family that fails the consistency condition",
        inconsistent_triple),
    "three-toss": (
        "three rotated qubits read in the z basis, with seeded sampling",
        three_toss),
}


def list_demos() -> list[tuple[str, str]]:
    return [(name, desc) for name, (desc, _) in DEMOS.items()]


def demo_text(name: str) -> str:
    """The scenario text of the demo `name`; KeyError when there is none."""
    return f"scenario {name}\n" + DEMOS[name][1]()
