"""Declarative scenario files: parsing, validation, and serialization.

A scenario is a line-oriented plain-text document.  Each line declares one
named object (system, state, operator, pd, grid, dynamics, history, family,
locality) or one query; '#' starts a comment.  Names must be declared before
they are referenced.  Complex numbers are written as "re+imi" pairs, e.g.
"0.5-0.25i"; matrix rows are separated by ';'.

Parsing yields a `Scenario` of declaration records; `resolve` builds the
actual objects and validates every reference and every algebraic
precondition before any query runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import dynamics as dyn_mod
from . import framework as fw
from . import histories as hist_mod
from . import operators as op_mod
from .errors import CohistError, ParseError, ValidationError
from .models import LocalityExperiment
from .operators import Ket, Operator

DEFAULT_TOLERANCES = {
    "tol_alg": op_mod.TOL_ALG,
    "tol_consistency": dyn_mod.TOL_CONSISTENCY,
    "floor": dyn_mod.CONSISTENCY_FLOOR,
}
TOLERANCE_NAMES = tuple(DEFAULT_TOLERANCES)

QUERY_KINDS = ("consistency", "probability", "conditional", "compatibility",
               "refinement", "povm", "locality", "sample")

# Query argument keys whose values may span several tokens.
_MULTI_KEYS = {"where", "given", "pds", "families"}
_QUERY_KEYS = {"family", "dynamics", "pds", "families", "fine", "coarse",
               "pd", "state", "ancilla", "where", "given", "count", "seed",
               "locality"}


def format_float(x: float) -> str:
    return f"{float(x):.17g}"


def format_complex(z: complex) -> str:
    z = complex(z)
    return f"{z.real:.17g}{z.imag:+.17g}i"


def parse_float(token: str, line: int | None = None) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"expected a number, got {token!r}", line) from None


def parse_int(token: str, line: int | None = None) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"expected an integer, got {token!r}", line) from None


def parse_complex(token: str, line: int | None = None) -> complex:
    s = token.strip()
    try:
        if not s.endswith("i"):
            return complex(float(s), 0.0)
        body = s[:-1]
        split = None
        for i in range(len(body) - 1, 0, -1):
            if body[i] in "+-" and body[i - 1] not in "eE":
                split = i
                break
        if split is None:
            re_part, im_part = "", body
        else:
            re_part, im_part = body[:split], body[split:]
        if im_part in ("", "+"):
            im = 1.0
        elif im_part == "-":
            im = -1.0
        else:
            im = float(im_part)
        re = float(re_part) if re_part else 0.0
        return complex(re, im)
    except ValueError:
        raise ParseError(f"bad complex number {token!r}", line) from None


@dataclass(frozen=True)
class ToleranceDecl:
    name: str
    value: float
    line: int = field(default=0, compare=False)

    def to_line(self) -> str:
        return f"tolerance {self.name} {format_float(self.value)}"


@dataclass(frozen=True)
class SystemDecl:
    name: str
    dim: int = 0
    factors: tuple[str, ...] = ()
    line: int = field(default=0, compare=False)

    def to_line(self) -> str:
        if self.factors:
            return f"system {self.name} factors {' '.join(self.factors)}"
        return f"system {self.name} dim {self.dim}"


@dataclass(frozen=True)
class StateDecl:
    name: str
    system: str
    kind: str  # amps | basis | singlet | tensor
    amps: tuple[complex, ...] = ()
    index: int = 0
    parts: tuple[str, ...] = ()
    line: int = field(default=0, compare=False)

    def to_line(self) -> str:
        head = f"state {self.name} system {self.system}"
        if self.kind == "amps":
            return f"{head} amps {' '.join(format_complex(a) for a in self.amps)}"
        if self.kind == "basis":
            return f"{head} basis {self.index}"
        if self.kind == "singlet":
            return f"{head} singlet"
        return f"{head} tensor {' '.join(self.parts)}"


@dataclass(frozen=True)
class OperatorDecl:
    name: str
    system: str
    kind: str  # matrix | dyad | identity | tensor | spin | interval
    rows: tuple[tuple[complex, ...], ...] = ()
    state: str = ""
    parts: tuple[str, ...] = ()
    axis: str = ""
    sign: str = ""
    grid_points: tuple[float, ...] = ()
    lo: float = 0.0
    hi: float = 0.0
    line: int = field(default=0, compare=False)

    def to_line(self) -> str:
        head = f"operator {self.name} system {self.system}"
        if self.kind == "matrix":
            rows = " ; ".join(" ".join(format_complex(z) for z in row)
                              for row in self.rows)
            return f"{head} matrix {rows}"
        if self.kind == "dyad":
            return f"{head} dyad {self.state}"
        if self.kind == "identity":
            return f"{head} identity"
        if self.kind == "tensor":
            return f"{head} tensor {' '.join(self.parts)}"
        if self.kind == "spin":
            return f"{head} spin {self.axis} {self.sign}"
        points = " ".join(format_float(x) for x in self.grid_points)
        return (f"{head} interval grid {points} window "
                f"{format_float(self.lo)} {format_float(self.hi)}")


@dataclass(frozen=True)
class PdDecl:
    name: str
    system: str
    kind: str  # spin | basis | trivial | projectors | dyads | tensor | lift | interval
    members: tuple[str, ...] = ()
    axis: str = ""
    inner: str = ""
    slot: int = 0
    grid_points: tuple[float, ...] = ()
    lo: float = 0.0
    hi: float = 0.0
    line: int = field(default=0, compare=False)

    def to_line(self) -> str:
        head = f"pd {self.name} system {self.system}"
        if self.kind == "spin":
            return f"{head} spin {self.axis}"
        if self.kind in ("basis", "trivial"):
            return f"{head} {self.kind}"
        if self.kind in ("projectors", "dyads", "tensor"):
            return f"{head} {self.kind} {' '.join(self.members)}"
        if self.kind == "lift":
            return f"{head} lift {self.inner} slot {self.slot}"
        points = " ".join(format_float(x) for x in self.grid_points)
        return (f"{head} interval grid {points} window "
                f"{format_float(self.lo)} {format_float(self.hi)}")


@dataclass(frozen=True)
class GridDecl:
    name: str
    times: tuple[float, ...]
    line: int = field(default=0, compare=False)

    def to_line(self) -> str:
        return f"grid {self.name} times {' '.join(format_float(t) for t in self.times)}"


@dataclass(frozen=True)
class DynamicsDecl:
    name: str
    system: str
    grid: str
    kind: str  # trivial | unitaries | hamiltonian
    ops: tuple[str, ...] = ()
    line: int = field(default=0, compare=False)

    def to_line(self) -> str:
        head = f"dynamics {self.name} system {self.system} grid {self.grid}"
        if self.kind == "trivial":
            return f"{head} trivial"
        if self.kind == "unitaries":
            return f"{head} unitaries {' '.join(self.ops)}"
        return f"{head} hamiltonian {self.ops[0]}"


@dataclass(frozen=True)
class HistoryDecl:
    name: str
    factors: tuple[str, ...]
    line: int = field(default=0, compare=False)

    def to_line(self) -> str:
        return f"history {self.name} factors {' '.join(self.factors)}"


@dataclass(frozen=True)
class FamilyDecl:
    name: str
    system: str
    grid: str
    kind: str  # product | fixed | unitary | raw
    pds: tuple[str, ...] = ()
    initial: str = ""
    state: str = ""
    dynamics: str = ""
    histories: tuple[str, ...] = ()
    line: int = field(default=0, compare=False)

    def to_line(self) -> str:
        head = f"family {self.name} system {self.system} grid {self.grid}"
        if self.kind == "product":
            return f"{head} product {' '.join(self.pds)}"
        if self.kind == "fixed":
            return f"{head} fixed {self.initial} {' '.join(self.pds)}"
        if self.kind == "unitary":
            return f"{head} unitary {self.state} {self.dynamics}"
        return f"{head} raw {' '.join(self.histories)}"


@dataclass(frozen=True)
class LocalityHeadDecl:
    name: str
    sys_a: str
    sys_b: str
    sys_c: str
    grid: str
    initial: str
    pds: tuple[str, ...]
    line: int = field(default=0, compare=False)

    def to_line(self) -> str:
        return (f"locality {self.name} systems {self.sys_a} {self.sys_b} "
                f"{self.sys_c} grid {self.grid} initial {self.initial} "
                f"pds {' '.join(self.pds)}")


@dataclass(frozen=True)
class LocalityStepDecl:
    name: str
    op_a: str
    op_bc: str
    line: int = field(default=0, compare=False)

    def to_line(self) -> str:
        return f"locality {self.name} step {self.op_a} {self.op_bc}"


@dataclass(frozen=True)
class LocalityStateDecl:
    name: str
    state: str
    line: int = field(default=0, compare=False)

    def to_line(self) -> str:
        return f"locality {self.name} cstate {self.state}"


@dataclass(frozen=True)
class QueryDecl:
    kind: str
    args: tuple[tuple[str, str], ...]
    line: int = field(default=0, compare=False)

    def arg(self, key: str, default: str | None = None) -> str | None:
        for k, v in self.args:
            if k == key:
                return v
        return default

    def to_line(self) -> str:
        parts = [f"query {self.kind}"]
        for k, v in self.args:
            parts.append(f"{k} {v}")
        return " ".join(parts)


@dataclass(frozen=True)
class Scenario:
    name: str
    statements: tuple = ()

    @property
    def queries(self) -> tuple[QueryDecl, ...]:
        return tuple(s for s in self.statements if isinstance(s, QueryDecl))


def _tokens(line: str) -> list[str]:
    return line.replace(";", " ; ").split()


def _split_rows(tokens: Sequence[str], line: int) -> tuple[tuple[complex, ...], ...]:
    rows: list[tuple[complex, ...]] = []
    current: list[complex] = []
    for tok in tokens:
        if tok == ";":
            if not current:
                raise ParseError("empty matrix row", line)
            rows.append(tuple(current))
            current = []
        else:
            current.append(parse_complex(tok, line))
    if current:
        rows.append(tuple(current))
    if not rows:
        raise ParseError("matrix has no entries", line)
    return tuple(rows)


def _parse_state(tokens: list[str], n: int) -> StateDecl:
    if len(tokens) < 5 or tokens[2] != "system":
        raise ParseError("expected: state <name> system <sys> <kind> ...", n)
    name, system, kind = tokens[1], tokens[3], tokens[4]
    rest = tokens[5:]
    if kind == "amps":
        if not rest:
            raise ParseError("state amps needs at least one amplitude", n)
        return StateDecl(name, system, "amps",
                         amps=tuple(parse_complex(t, n) for t in rest), line=n)
    if kind == "basis":
        if len(rest) != 1:
            raise ParseError("state basis needs one index", n)
        return StateDecl(name, system, "basis", index=parse_int(rest[0], n), line=n)
    if kind == "singlet":
        if rest:
            raise ParseError("state singlet takes no arguments", n)
        return StateDecl(name, system, "singlet", line=n)
    if kind == "tensor":
        if len(rest) < 2:
            raise ParseError("state tensor needs at least two parts", n)
        return StateDecl(name, system, "tensor", parts=tuple(rest), line=n)
    raise ParseError(f"unknown state kind {kind!r}", n)


def _parse_operator(tokens: list[str], n: int) -> OperatorDecl:
    if len(tokens) < 5 or tokens[2] != "system":
        raise ParseError("expected: operator <name> system <sys> <kind> ...", n)
    name, system, kind = tokens[1], tokens[3], tokens[4]
    rest = tokens[5:]
    if kind == "matrix":
        return OperatorDecl(name, system, "matrix", rows=_split_rows(rest, n), line=n)
    if kind == "dyad":
        if len(rest) != 1:
            raise ParseError("operator dyad needs one state name", n)
        return OperatorDecl(name, system, "dyad", state=rest[0], line=n)
    if kind == "identity":
        if rest:
            raise ParseError("operator identity takes no arguments", n)
        return OperatorDecl(name, system, "identity", line=n)
    if kind == "tensor":
        if len(rest) < 2:
            raise ParseError("operator tensor needs at least two parts", n)
        return OperatorDecl(name, system, "tensor", parts=tuple(rest), line=n)
    if kind == "spin":
        if len(rest) != 2 or rest[1] not in ("+", "-"):
            raise ParseError("expected: operator ... spin <axis> <+|->", n)
        return OperatorDecl(name, system, "spin", axis=rest[0], sign=rest[1], line=n)
    if kind == "interval":
        return OperatorDecl(name, system, "interval", line=n,
                            **_parse_interval(rest, n))
    raise ParseError(f"unknown operator kind {kind!r}", n)


def _parse_interval(rest: list[str], n: int) -> dict:
    if not rest or rest[0] != "grid" or "window" not in rest:
        raise ParseError("expected: ... interval grid <x...> window <lo> <hi>", n)
    w = rest.index("window")
    points = tuple(parse_float(t, n) for t in rest[1:w])
    tail = rest[w + 1:]
    if len(tail) != 2:
        raise ParseError("interval window needs exactly two bounds", n)
    return {"grid_points": points, "lo": parse_float(tail[0], n),
            "hi": parse_float(tail[1], n)}


def _parse_pd(tokens: list[str], n: int) -> PdDecl:
    if len(tokens) < 5 or tokens[2] != "system":
        raise ParseError("expected: pd <name> system <sys> <kind> ...", n)
    name, system, kind = tokens[1], tokens[3], tokens[4]
    rest = tokens[5:]
    if kind == "spin":
        if len(rest) != 1:
            raise ParseError("pd spin needs one axis", n)
        return PdDecl(name, system, "spin", axis=rest[0], line=n)
    if kind in ("basis", "trivial"):
        if rest:
            raise ParseError(f"pd {kind} takes no arguments", n)
        return PdDecl(name, system, kind, line=n)
    if kind in ("projectors", "dyads", "tensor"):
        if not rest:
            raise ParseError(f"pd {kind} needs member names", n)
        return PdDecl(name, system, kind, members=tuple(rest), line=n)
    if kind == "lift":
        if len(rest) != 3 or rest[1] != "slot":
            raise ParseError("expected: pd ... lift <pd> slot <k>", n)
        return PdDecl(name, system, "lift", inner=rest[0],
                      slot=parse_int(rest[2], n), line=n)
    if kind == "interval":
        return PdDecl(name, system, "interval", line=n, **_parse_interval(rest, n))
    raise ParseError(f"unknown pd kind {kind!r}", n)


def _parse_family(tokens: list[str], n: int) -> FamilyDecl:
    if (len(tokens) < 7 or tokens[2] != "system" or tokens[4] != "grid"):
        raise ParseError(
            "expected: family <name> system <sys> grid <grid> <kind> ...", n)
    name, system, grid, kind = tokens[1], tokens[3], tokens[5], tokens[6]
    rest = tokens[7:]
    if kind == "product":
        if not rest:
            raise ParseError("family product needs one pd per time", n)
        return FamilyDecl(name, system, grid, "product", pds=tuple(rest), line=n)
    if kind == "fixed":
        if len(rest) < 2:
            raise ParseError("family fixed needs an initial ref and later pds", n)
        return FamilyDecl(name, system, grid, "fixed", initial=rest[0],
                          pds=tuple(rest[1:]), line=n)
    if kind == "unitary":
        if len(rest) != 2:
            raise ParseError("expected: family ... unitary <state> <dynamics>", n)
        return FamilyDecl(name, system, grid, "unitary", state=rest[0],
                          dynamics=rest[1], line=n)
    if kind == "raw":
        if not rest:
            raise ParseError("family raw needs history names", n)
        return FamilyDecl(name, system, grid, "raw", histories=tuple(rest), line=n)
    raise ParseError(f"unknown family kind {kind!r}", n)


def _parse_locality(tokens: list[str], n: int):
    if len(tokens) < 3:
        raise ParseError("truncated locality statement", n)
    name, verb = tokens[1], tokens[2]
    if verb == "systems":
        rest = tokens[3:]
        if (len(rest) < 8 or rest[3] != "grid" or rest[5] != "initial"
                or rest[7] != "pds"):
            raise ParseError(
                "expected: locality <name> systems <a> <b> <c> grid <g> "
                "initial <state> pds <pd...>", n)
        return LocalityHeadDecl(name, rest[0], rest[1], rest[2], rest[4],
                                rest[6], tuple(rest[8:]), line=n)
    if verb == "step":
        if len(tokens) != 5:
            raise ParseError("expected: locality <name> step <opA> <opBC>", n)
        return LocalityStepDecl(name, tokens[3], tokens[4], line=n)
    if verb == "cstate":
        if len(tokens) != 4:
            raise ParseError("expected: locality <name> cstate <state>", n)
        return LocalityStateDecl(name, tokens[3], line=n)
    raise ParseError(f"unknown locality verb {verb!r}", n)


def _parse_query(tokens: list[str], n: int) -> QueryDecl:
    if len(tokens) < 2:
        raise ParseError("query needs a kind", n)
    kind = tokens[1]
    if kind not in QUERY_KINDS:
        raise ParseError(f"unknown query kind {kind!r}", n)
    args: list[tuple[str, str]] = []
    i = 2
    while i < len(tokens):
        key = tokens[i]
        if key not in _QUERY_KEYS:
            raise ParseError(f"unknown query argument {key!r}", n)
        i += 1
        vals = []
        while i < len(tokens) and (tokens[i] not in _QUERY_KEYS or not vals):
            vals.append(tokens[i])
            i += 1
            if key not in _MULTI_KEYS:
                break
        if not vals:
            raise ParseError(f"query argument {key!r} has no value", n)
        args.append((key, " ".join(vals)))
    return QueryDecl(kind, tuple(args), line=n)


def parse(text: str) -> Scenario:
    """Parse scenario text; raises ParseError naming the offending line."""
    name = None
    statements: list = []
    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = _tokens(line)
        head = tokens[0]
        if head == "scenario":
            if name is not None:
                raise ParseError("duplicate scenario line", n)
            if len(tokens) != 2:
                raise ParseError("expected: scenario <name>", n)
            name = tokens[1]
            continue
        if name is None:
            raise ParseError("the first statement must be 'scenario <name>'", n)
        if head == "tolerance":
            if len(tokens) != 3:
                raise ParseError("expected: tolerance <name> <value>", n)
            statements.append(
                ToleranceDecl(tokens[1], parse_float(tokens[2], n), line=n))
        elif head == "system":
            if len(tokens) >= 4 and tokens[2] == "dim":
                if len(tokens) != 4:
                    raise ParseError("expected: system <name> dim <d>", n)
                statements.append(SystemDecl(tokens[1], dim=parse_int(tokens[3], n),
                                             line=n))
            elif len(tokens) >= 4 and tokens[2] == "factors":
                statements.append(SystemDecl(tokens[1], factors=tuple(tokens[3:]),
                                             line=n))
            else:
                raise ParseError("expected: system <name> dim <d> | factors <s...>", n)
        elif head == "state":
            statements.append(_parse_state(tokens, n))
        elif head == "operator":
            statements.append(_parse_operator(tokens, n))
        elif head == "pd":
            statements.append(_parse_pd(tokens, n))
        elif head == "grid":
            if len(tokens) < 4 or tokens[2] != "times":
                raise ParseError("expected: grid <name> times <t...>", n)
            statements.append(GridDecl(
                tokens[1], tuple(parse_float(t, n) for t in tokens[3:]), line=n))
        elif head == "dynamics":
            if len(tokens) < 7 or tokens[2] != "system" or tokens[4] != "grid":
                raise ParseError(
                    "expected: dynamics <name> system <sys> grid <g> <kind> ...", n)
            kind = tokens[6]
            if kind == "trivial":
                statements.append(DynamicsDecl(tokens[1], tokens[3], tokens[5],
                                               "trivial", line=n))
            elif kind == "unitaries":
                if len(tokens) < 8:
                    raise ParseError("dynamics unitaries needs operator names", n)
                statements.append(DynamicsDecl(tokens[1], tokens[3], tokens[5],
                                               "unitaries", ops=tuple(tokens[7:]),
                                               line=n))
            elif kind == "hamiltonian":
                if len(tokens) != 8:
                    raise ParseError("dynamics hamiltonian needs one operator", n)
                statements.append(DynamicsDecl(tokens[1], tokens[3], tokens[5],
                                               "hamiltonian", ops=(tokens[7],),
                                               line=n))
            else:
                raise ParseError(f"unknown dynamics kind {kind!r}", n)
        elif head == "history":
            if len(tokens) < 4 or tokens[2] != "factors":
                raise ParseError("expected: history <name> factors <op...>", n)
            statements.append(HistoryDecl(tokens[1], tuple(tokens[3:]), line=n))
        elif head == "family":
            statements.append(_parse_family(tokens, n))
        elif head == "locality":
            statements.append(_parse_locality(tokens, n))
        elif head == "query":
            statements.append(_parse_query(tokens, n))
        else:
            raise ParseError(f"unknown statement {head!r}", n)
    if name is None:
        raise ParseError("empty scenario: no 'scenario <name>' line found")
    return Scenario(name, tuple(statements))


def serialize(scenario: Scenario) -> str:
    lines = [f"scenario {scenario.name}"]
    lines.extend(stmt.to_line() for stmt in scenario.statements)
    return "\n".join(lines) + "\n"


@dataclass
class BoundQuery:
    decl: QueryDecl
    kind: str
    payload: dict


class Environment:
    """Resolved scenario: named objects plus bound queries, ready to run."""

    def __init__(self):
        self.tolerances = dict(DEFAULT_TOLERANCES)
        self.systems: dict[str, tuple[int, ...]] = {}
        self.states: dict[str, Ket] = {}
        self.operators: dict[str, Operator] = {}
        self.pds: dict[str, fw.ProjectiveDecomposition] = {}
        self.grids: dict[str, hist_mod.TimeGrid] = {}
        self.dynamics: dict[str, dyn_mod.Dynamics] = {}
        self.histories: dict[str, hist_mod.History] = {}
        self.families: dict[str, hist_mod.HistoryFamily] = {}
        self.locality_heads: dict[str, LocalityHeadDecl] = {}
        self.locality_steps: dict[str, list[LocalityStepDecl]] = {}
        self.locality_states: dict[str, list[str]] = {}
        self.localities: dict[str, tuple[LocalityExperiment, list[Ket]]] = {}
        self.queries: list[BoundQuery] = []

    def tol(self, key: str) -> float:
        return self.tolerances[key]

    def lookup(self, table: dict, name: str, what: str, line: int):
        if name not in table:
            raise ValidationError(f"unknown {what} {name!r}", line)
        return table[name]


def _fresh_name(env: Environment, name: str, line: int) -> None:
    for table in (env.systems, env.states, env.operators, env.pds, env.grids,
                  env.dynamics, env.histories, env.families, env.locality_heads):
        if name in table:
            raise ValidationError(f"name {name!r} is already declared", line)


def _resolve_state(env: Environment, d: StateDecl) -> Ket:
    dims = env.lookup(env.systems, d.system, "system", d.line)
    total = int(np.prod(dims))
    if d.kind == "amps":
        if len(d.amps) != total:
            raise ValidationError(
                f"state {d.name!r}: {len(d.amps)} amplitudes for dim {total}", d.line)
        return Ket(d.amps, dims)
    if d.kind == "basis":
        if not 0 <= d.index < total:
            raise ValidationError(
                f"state {d.name!r}: basis index {d.index} out of range for dim "
                f"{total}", d.line)
        return op_mod.basis_ket(d.index, dims)
    if d.kind == "singlet":
        if dims != (2, 2):
            raise ValidationError(
                f"state {d.name!r}: singlet needs a 2x2 composite system", d.line)
        return op_mod.singlet()
    parts = [env.lookup(env.states, p, "state", d.line) for p in d.parts]
    ket = op_mod.tensor(*parts)
    if ket.dim != total:
        raise ValidationError(
            f"state {d.name!r}: tensor parts have dim {ket.dim}, system has "
            f"{total}", d.line)
    return Ket(ket.amplitudes, dims)


def _resolve_operator(env: Environment, d: OperatorDecl) -> Operator:
    dims = env.lookup(env.systems, d.system, "system", d.line)
    total = int(np.prod(dims))
    if d.kind == "matrix":
        if any(len(row) != len(d.rows) for row in d.rows) or len(d.rows) != total:
            raise ValidationError(
                f"operator {d.name!r}: matrix must be {total}x{total}", d.line)
        return Operator(d.rows, dims)
    if d.kind == "dyad":
        ket = env.lookup(env.states, d.state, "state", d.line)
        if ket.dim != total:
            raise ValidationError(
                f"operator {d.name!r}: state dim {ket.dim} != system dim {total}",
                d.line)
        return op_mod.dyad(ket)
    if d.kind == "identity":
        return Operator.identity(dims)
    if d.kind == "tensor":
        parts = [env.lookup(env.operators, p, "operator", d.line) for p in d.parts]
        out = op_mod.tensor(*parts)
        if out.dim != total:
            raise ValidationError(
                f"operator {d.name!r}: tensor parts have dim {out.dim}, system "
                f"has {total}", d.line)
        return Operator(out.matrix, dims, flavor=out.flavor)
    if d.kind == "spin":
        if total != 2:
            raise ValidationError(
                f"operator {d.name!r}: spin operators need a dim-2 system", d.line)
        if d.axis not in op_mod.AXES:
            raise ValidationError(f"operator {d.name!r}: bad axis {d.axis!r}", d.line)
        return op_mod.dyad(op_mod.spin_ket(d.axis, d.sign))
    if len(d.grid_points) != total:
        raise ValidationError(
            f"operator {d.name!r}: {len(d.grid_points)} grid points for dim "
            f"{total}", d.line)
    return op_mod.interval_projector(d.grid_points, d.lo, d.hi)


def _resolve_pd(env: Environment, d: PdDecl) -> fw.ProjectiveDecomposition:
    dims = env.lookup(env.systems, d.system, "system", d.line)
    total = int(np.prod(dims))
    tol = env.tol("tol_alg")
    if d.kind == "spin":
        if total != 2:
            raise ValidationError(f"pd {d.name!r}: spin needs a dim-2 system", d.line)
        if d.axis not in op_mod.AXES:
            raise ValidationError(f"pd {d.name!r}: bad axis {d.axis!r}", d.line)
        return fw.spin_pd(d.axis)
    if d.kind == "basis":
        return fw.basis_pd(dims)
    if d.kind == "trivial":
        return fw.trivial_pd(dims)
    if d.kind == "projectors":
        ops = [env.lookup(env.operators, m, "operator", d.line) for m in d.members]
        for op in ops:
            if op.dim != total:
                raise ValidationError(
                    f"pd {d.name!r}: member dim {op.dim} != system dim {total}",
                    d.line)
        ops = [Operator(o.matrix, dims, flavor=o.flavor) for o in ops]
        return fw.make_pd(ops, d.members, tol)
    if d.kind == "dyads":
        kets = [env.lookup(env.states, m, "state", d.line) for m in d.members]
        return fw.make_pd([op_mod.dyad(Ket(k.amplitudes, dims)) for k in kets],
                          d.members, tol)
    if d.kind == "tensor":
        parts = [env.lookup(env.pds, m, "pd", d.line) for m in d.members]
        out = fw.tensor_pd(*parts)
        if out.dim != total:
            raise ValidationError(
                f"pd {d.name!r}: tensor parts have dim {out.dim}, system has "
                f"{total}", d.line)
        projs = [Operator(p.matrix, dims, flavor="projector") for p in out.projectors]
        return fw.make_pd(projs, out.labels, tol)
    if d.kind == "lift":
        inner = env.lookup(env.pds, d.inner, "pd", d.line)
        if not 0 <= d.slot < len(dims):
            raise ValidationError(
                f"pd {d.name!r}: slot {d.slot} out of range for {dims}", d.line)
        return fw.lift_pd(inner, dims, d.slot)
    if len(d.grid_points) != total:
        raise ValidationError(
            f"pd {d.name!r}: {len(d.grid_points)} grid points for dim {total}",
            d.line)
    return fw.interval_pd(d.grid_points, d.lo, d.hi, tol)


def _resolve_family(env: Environment, d: FamilyDecl) -> hist_mod.HistoryFamily:
    dims = env.lookup(env.systems, d.system, "system", d.line)
    grid = env.lookup(env.grids, d.grid, "grid", d.line)
    if d.kind == "product":
        pds = [env.lookup(env.pds, p, "pd", d.line) for p in d.pds]
        return hist_mod.product_family(grid, pds)
    if d.kind == "fixed":
        if d.initial in env.operators:
            initial = env.operators[d.initial]
        elif d.initial in env.states:
            initial = op_mod.dyad(env.states[d.initial])
        else:
            raise ValidationError(
                f"family {d.name!r}: unknown initial ref {d.initial!r}", d.line)
        if initial.dims != dims:
            initial = Operator(initial.matrix, dims, flavor=initial.flavor)
        pds = [env.lookup(env.pds, p, "pd", d.line) for p in d.pds]
        return hist_mod.fixed_initial_family(grid, initial, pds, label=d.initial)
    if d.kind == "unitary":
        psi = env.lookup(env.states, d.state, "state", d.line)
        dynamics = env.lookup(env.dynamics, d.dynamics, "dynamics", d.line)
        return hist_mod.unitary_family(psi, dynamics)
    histories = [env.lookup(env.histories, h, "history", d.line)
                 for h in d.histories]
    return hist_mod.raw_family(grid, histories, tol=env.tol("tol_alg"))


def _parse_event(env: Environment, family: hist_mod.HistoryFamily, spec: str,
                 line: int) -> dict[int, set[str]]:
    event: dict[int, set[str]] = {}
    for clause in spec.split():
        if "=" not in clause:
            raise ValidationError(f"bad event clause {clause!r} "
                                  "(expected <time>=<label>[,<label>...])", line)
        t_str, labels = clause.split("=", 1)
        try:
            t = int(t_str)
        except ValueError:
            raise ValidationError(f"bad time index {t_str!r}", line) from None
        if not 0 <= t < family.grid.n_times:
            raise ValidationError(f"time index {t} out of range", line)
        allowed = set(labels.split(","))
        known = {h.label[t] for h in family.histories}
        for lab in allowed:
            if lab not in known:
                raise ValidationError(
                    f"no history carries label {lab!r} at time {t}", line)
        event[t] = allowed
    if not event:
        raise ValidationError("empty event specification", line)
    return event


def _require(decl: QueryDecl, key: str) -> str:
    v = decl.arg(key)
    if v is None:
        raise ValidationError(f"query {decl.kind} needs argument {key!r}", decl.line)
    return v


def _bind_query(env: Environment, q: QueryDecl) -> BoundQuery:
    payload: dict = {}
    if q.kind in ("consistency", "probability", "conditional", "sample"):
        family = env.lookup(env.families, _require(q, "family"), "family", q.line)
        dynamics = env.lookup(env.dynamics, _require(q, "dynamics"), "dynamics",
                              q.line)
        if family.grid != dynamics.grid:
            raise ValidationError("family and dynamics use different grids", q.line)
        if family.dims != dynamics.dims:
            raise ValidationError("family and dynamics dims differ", q.line)
        payload["family"] = family
        payload["dynamics"] = dynamics
        if q.kind in ("probability", "conditional"):
            payload["where"] = _parse_event(env, family, _require(q, "where"), q.line)
        if q.kind == "conditional":
            payload["given"] = _parse_event(env, family, _require(q, "given"), q.line)
        if q.kind == "sample":
            payload["count"] = parse_int(_require(q, "count"), q.line)
            if payload["count"] < 1:
                raise ValidationError("sample count must be positive", q.line)
            payload["seed"] = parse_int(_require(q, "seed"), q.line)
    elif q.kind == "compatibility":
        if q.arg("pds") is not None:
            names = q.arg("pds").split()
            if len(names) != 2:
                raise ValidationError("compatibility pds needs two names", q.line)
            payload["pds"] = tuple(env.lookup(env.pds, m, "pd", q.line)
                                   for m in names)
        elif q.arg("families") is not None:
            names = q.arg("families").split()
            if len(names) != 2:
                raise ValidationError("compatibility families needs two names",
                                      q.line)
            payload["families"] = tuple(
                env.lookup(env.families, m, "family", q.line) for m in names)
            dyn_name = q.arg("dynamics")
            if dyn_name is not None:
                payload["dynamics"] = env.lookup(env.dynamics, dyn_name,
                                                 "dynamics", q.line)
        else:
            raise ValidationError("compatibility needs 'pds' or 'families'", q.line)
    elif q.kind == "refinement":
        payload["fine"] = env.lookup(env.pds, _require(q, "fine"), "pd", q.line)
        payload["coarse"] = env.lookup(env.pds, _require(q, "coarse"), "pd", q.line)
        if payload["fine"].dim != payload["coarse"].dim:
            raise ValidationError("refinement decompositions have different dims",
                                  q.line)
    elif q.kind == "povm":
        pd = env.lookup(env.pds, _require(q, "pd"), "pd", q.line)
        state = env.lookup(env.states, _require(q, "state"), "state", q.line)
        slot = parse_int(_require(q, "ancilla"), q.line)
        if len(pd.dims) < 2:
            raise ValidationError("povm needs a pd on a composite system", q.line)
        if not 0 <= slot < len(pd.dims):
            raise ValidationError(f"ancilla slot {slot} out of range", q.line)
        if state.dim != pd.dims[slot]:
            raise ValidationError(
                f"ancilla state dim {state.dim} != factor dim {pd.dims[slot]}",
                q.line)
        payload["pd"] = pd
        payload["state"] = state
        payload["ancilla"] = slot
    elif q.kind == "locality":
        name = _require(q, "locality")
        if name not in env.localities:
            raise ValidationError(f"unknown locality experiment {name!r}", q.line)
        payload["experiment"], payload["c_states"] = env.localities[name]
        payload["name"] = name
    return BoundQuery(q, q.kind, payload)


def _finish_locality(env: Environment, name: str, line: int) -> None:
    head = env.locality_heads[name]
    dims_a = env.lookup(env.systems, head.sys_a, "system", line)
    dims_b = env.lookup(env.systems, head.sys_b, "system", line)
    dims_c = env.lookup(env.systems, head.sys_c, "system", line)
    d_a, d_b, d_c = (int(np.prod(d)) for d in (dims_a, dims_b, dims_c))
    grid = env.lookup(env.grids, head.grid, "grid", line)
    initial = env.lookup(env.states, head.initial, "state", line)
    if initial.dim != d_a * d_b:
        raise ValidationError(
            f"locality {name!r}: initial AB state dim {initial.dim} != "
            f"{d_a * d_b}", line)
    initial = Ket(initial.amplitudes, (d_a, d_b))
    pds = [env.lookup(env.pds, p, "pd", line) for p in head.pds]
    steps = []
    for s in env.locality_steps.get(name, []):
        op_a = env.lookup(env.operators, s.op_a, "operator", s.line)
        op_bc = env.lookup(env.operators, s.op_bc, "operator", s.line)
        steps.append((op_a, op_bc))
    c_states = [env.lookup(env.states, c, "state", line)
                for c in env.locality_states.get(name, [])]
    if not c_states:
        raise ValidationError(f"locality {name!r} declares no cstate lines", line)
    try:
        exp = LocalityExperiment(initial, d_c, steps, pds, grid)
    except CohistError as err:
        raise ValidationError(f"locality {name!r}: {err}", line) from err
    env.localities[name] = (exp, c_states)


def resolve(scenario: Scenario,
            tolerance_overrides: dict[str, float] | None = None) -> Environment:
    """Build every declared object and bind every query, or fail with a
    ValidationError naming the statement."""
    env = Environment()
    for stmt in scenario.statements:
        if isinstance(stmt, ToleranceDecl):
            if stmt.name not in TOLERANCE_NAMES:
                raise ValidationError(f"unknown tolerance {stmt.name!r}", stmt.line)
            if stmt.value <= 0:
                raise ValidationError("tolerances must be positive", stmt.line)
            env.tolerances[stmt.name] = stmt.value
    if tolerance_overrides:
        for key, value in tolerance_overrides.items():
            if key not in TOLERANCE_NAMES:
                raise ValidationError(f"unknown tolerance {key!r}")
            env.tolerances[key] = float(value)

    pending_queries: list[QueryDecl] = []
    for stmt in scenario.statements:
        try:
            if isinstance(stmt, ToleranceDecl):
                continue
            elif isinstance(stmt, SystemDecl):
                _fresh_name(env, stmt.name, stmt.line)
                if stmt.factors:
                    dims: tuple[int, ...] = ()
                    for f in stmt.factors:
                        dims = dims + env.lookup(env.systems, f, "system", stmt.line)
                    env.systems[stmt.name] = dims
                else:
                    if stmt.dim < 1:
                        raise ValidationError(
                            f"system {stmt.name!r}: dim must be >= 1", stmt.line)
                    env.systems[stmt.name] = (stmt.dim,)
            elif isinstance(stmt, StateDecl):
                _fresh_name(env, stmt.name, stmt.line)
                env.states[stmt.name] = _resolve_state(env, stmt)
            elif isinstance(stmt, OperatorDecl):
                _fresh_name(env, stmt.name, stmt.line)
                env.operators[stmt.name] = _resolve_operator(env, stmt)
            elif isinstance(stmt, PdDecl):
                _fresh_name(env, stmt.name, stmt.line)
                env.pds[stmt.name] = _resolve_pd(env, stmt)
            elif isinstance(stmt, GridDecl):
                _fresh_name(env, stmt.name, stmt.line)
                env.grids[stmt.name] = hist_mod.TimeGrid(stmt.times)
            elif isinstance(stmt, DynamicsDecl):
                _fresh_name(env, stmt.name, stmt.line)
                dims = env.lookup(env.systems, stmt.system, "system", stmt.line)
                grid = env.lookup(env.grids, stmt.grid, "grid", stmt.line)
                if stmt.kind == "trivial":
                    env.dynamics[stmt.name] = dyn_mod.Dynamics.trivial(grid, dims)
                elif stmt.kind == "unitaries":
                    ops = [env.lookup(env.operators, o, "operator", stmt.line)
                           for o in stmt.ops]
                    ops = [Operator(o.matrix, dims, flavor="unitary") for o in ops]
                    env.dynamics[stmt.name] = dyn_mod.Dynamics(grid, ops)
                else:
                    ham = env.lookup(env.operators, stmt.ops[0], "operator",
                                     stmt.line)
                    ham = Operator(ham.matrix, dims)
                    env.dynamics[stmt.name] = dyn_mod.Dynamics.from_hamiltonian(
                        grid, ham)
            elif isinstance(stmt, HistoryDecl):
                _fresh_name(env, stmt.name, stmt.line)
                factors = [env.lookup(env.operators, f, "operator", stmt.line)
                           for f in stmt.factors]
                env.histories[stmt.name] = hist_mod.History(
                    factors, stmt.factors, tol=env.tol("tol_alg"))
            elif isinstance(stmt, FamilyDecl):
                _fresh_name(env, stmt.name, stmt.line)
                env.families[stmt.name] = _resolve_family(env, stmt)
            elif isinstance(stmt, LocalityHeadDecl):
                _fresh_name(env, stmt.name, stmt.line)
                env.locality_heads[stmt.name] = stmt
                env.locality_steps.setdefault(stmt.name, [])
                env.locality_states.setdefault(stmt.name, [])
            elif isinstance(stmt, LocalityStepDecl):
                if stmt.name not in env.locality_heads:
                    raise ValidationError(
                        f"locality {stmt.name!r} has no header line", stmt.line)
                env.locality_steps[stmt.name].append(stmt)
            elif isinstance(stmt, LocalityStateDecl):
                if stmt.name not in env.locality_heads:
                    raise ValidationError(
                        f"locality {stmt.name!r} has no header line", stmt.line)
                env.locality_states[stmt.name].append(stmt.state)
            elif isinstance(stmt, QueryDecl):
                pending_queries.append(stmt)
            else:
                raise ValidationError(f"unhandled statement {stmt!r}")
        except ValidationError:
            raise
        except CohistError as err:
            raise ValidationError(str(err), getattr(stmt, "line", None)) from err

    for name in env.locality_heads:
        _finish_locality(env, name, env.locality_heads[name].line)
    for q in pending_queries:
        env.queries.append(_bind_query(env, q))
    return env
