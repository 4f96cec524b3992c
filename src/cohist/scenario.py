"""Declarative scenario files: parsing, validation, and serialization.

A scenario is a line-oriented plain-text document.  Each line declares one
named object (system, state, operator, pd, grid, dynamics, history, family,
locality) or one query; '#' starts a comment.  Names must be declared before
they are referenced.  Complex numbers are written as "re+imi" pairs, e.g.
"0.5-0.25i"; matrix rows are separated by ';'.

Every statement kind but `scenario` and `query` is one row of `GRAMMAR`: its
usage line, the `Environment` table it fills and the builder of its object.
The usage line is the only declaration of the statement's fields.  One
matcher parses a line against its row into a `Decl` that carries the row and
the field values, one formatter writes a Decl back through its row, and
`resolve` walks the same rows.  Parsing yields a `Scenario` of Decls and
`QueryDecl`s; `resolve` builds the actual objects and validates every
reference and every algebraic precondition before any query runs; each query
kind binds its arguments through one entry of a `{kind: binder}` table.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

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
    """A real number, or `re+imi` / `imi` with Python's complex syntax."""
    s = token.strip()
    try:
        return complex(s[:-1] + "j") if s.endswith("i") else complex(float(s), 0.0)
    except ValueError:
        raise ParseError(f"bad complex number {token!r}", line) from None


def _parse_sign(token: str, line: int | None = None) -> str:
    if token not in ("+", "-"):
        raise ParseError(f"expected a sign '+' or '-', got {token!r}", line)
    return token


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
        return " ".join([f"query {self.kind}"] + [f"{k} {v}" for k, v in self.args])


@dataclass(frozen=True)
class Scenario:
    name: str
    statements: tuple = ()

    @property
    def queries(self) -> tuple[QueryDecl, ...]:
        return tuple(s for s in self.statements if isinstance(s, QueryDecl))


# Usage-line syntax.  A bare word is a literal.  `{word}` is the literal that
# picks the row among its statement's rows, the row's `kind`.  `<field>` takes
# one token, `<field...>` one or more, `[<field...>]` zero or more, and
# `<field> <field...>` two or more; a repeated field runs to the next literal
# or to the end of the line, and its value is a tuple.  A `:type` suffix
# converts the tokens (int, float, complex, sign, or matrix: complex entries
# with rows separated by ';'); untyped fields are names.
_FIELD = re.compile(r"(\[?)<(\w+)(?::(\w+))?(\.\.\.)?>\]?$")
# field type -> (token parser or None for names, value formatter)
_TYPES = {"name": (None, str), "int": (parse_int, str),
          "float": (parse_float, format_float),
          "complex": (parse_complex, format_complex), "sign": (_parse_sign, str)}


class _Field(NamedTuple):
    name: str
    type: str
    least: int  # fewest tokens
    many: bool  # may take more than one token
    stop: str | None = None  # the literal that ends a repeated field


class Row:
    """One statement kind: its usage line, compiled, and how to resolve it.

    `build(env, decl, dims)` makes the object, where `dims` is the looked-up
    `system` of the Decl (None for rows without a `system` field).  Its result
    is stored under the Decl's name in the Environment attribute `table`; a
    row without a table adds to an object declared earlier.
    """

    def __init__(self, usage: str, table: str | None = None,
                 build: Callable | None = None):
        self.usage, self.table, self.build = usage, table, build
        self.expected = "expected: " + usage.replace("{", "").replace("}", "")
        self.head = usage.split()[0]
        self.kind = self.kind_at = None  # the {word} and its position
        items: list = []
        for pos, word in enumerate(usage.split()):
            m = _FIELD.match(word)
            if m is None:
                if word.startswith("{"):
                    word = self.kind = word[1:-1]
                    self.kind_at = pos
                if items and getattr(items[-1], "many", False):
                    items[-1] = items[-1]._replace(stop=word)
                items.append(word)
            elif isinstance(items[-1], _Field) and items[-1].name == m[2]:
                items[-1] = items[-1]._replace(least=items[-1].least + 1, many=True)
            else:
                items.append(_Field(m[2], m[3] or "name", 0 if m[1] else 1, bool(m[4])))
        self.items = tuple(items)
        self.on_system = any(type(item) is _Field and item.name == "system"
                             for item in items)

    def match(self, tokens: list[str], n: int) -> Decl:
        """The Decl that `tokens` (line `n`) spell, or ParseError."""
        values = {}
        i, end = 0, len(tokens)
        for item in self.items:
            if type(item) is str:
                if i == end or tokens[i] != item:
                    raise ParseError(self.expected, n)
                i += 1
                continue
            j = i + 1
            if item.many:
                j = tokens.index(item.stop, i) if item.stop in tokens[i:] else end
            if j - i < item.least or j > end:
                raise ParseError(self.expected, n)
            if item.type == "matrix":
                values[item.name] = _split_rows(tokens[i:j], n)
            else:
                parse_token = _TYPES[item.type][0]
                vals = tokens[i:j] if parse_token is None else [
                    parse_token(t, n) for t in tokens[i:j]]
                values[item.name] = tuple(vals) if item.many else vals[0]
            i = j
        if i != end:
            raise ParseError(self.expected, n)
        return Decl(self, n, **values)

    def format(self, decl: Decl) -> str:
        out = []
        for item in self.items:
            if type(item) is str:
                out.append(item)
            elif item.type == "matrix":
                out.append(" ; ".join(" ".join(map(format_complex, row))
                                      for row in getattr(decl, item.name)))
            elif item.many:
                out.extend(map(_TYPES[item.type][1], getattr(decl, item.name)))
            else:
                out.append(_TYPES[item.type][1](getattr(decl, item.name)))
        return " ".join(out)


class Decl:
    """One statement: its `GRAMMAR` row, the values of the row's fields as
    attributes, and its line number.  Two Decls are equal when their rows and
    values are; the line is not compared."""

    def __init__(self, row: Row, line: int = 0, **values):
        self.__dict__.update(values)
        self.row, self.line = row, line

    def _values(self) -> dict:
        values = dict(vars(self))
        del values["line"]
        return values

    def __eq__(self, other) -> bool:
        return type(other) is Decl and self._values() == other._values()

    def __hash__(self) -> int:
        return hash(frozenset(self._values().items()))

    def to_line(self) -> str:
        return self.row.format(self)

    def __repr__(self) -> str:
        return f"Decl({self.to_line()!r}, line={self.line})"


def _split_rows(tokens: Sequence[str], line: int) -> tuple[tuple[complex, ...], ...]:
    rows = [row.split() for row in " ".join(tokens).split(";")]
    if len(rows) > 1 and not rows[-1]:
        rows.pop()  # a trailing ';' closes the last row
    if not all(rows):
        raise ParseError("empty matrix row", line)
    return tuple(tuple(parse_complex(t, line) for t in row) for row in rows)


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


def _select(tokens: list[str], n: int) -> Row:
    """The grammar row that a line's statement and kind tokens name."""
    if tokens[0] not in _BY_HEAD:
        raise ParseError(f"unknown statement {tokens[0]!r}", n)
    rows = _BY_HEAD[tokens[0]]
    first = next(iter(rows.values()))
    at = first.kind_at
    if at is None:
        return first
    if at < len(tokens) and tokens[at] in rows:
        return rows[tokens[at]]
    choices = " ".join(first.usage.split()[:at] + ["|".join(rows), "..."])
    if at >= len(tokens):
        raise ParseError(f"expected: {choices}", n)
    raise ParseError(f"unknown {tokens[0]} kind {tokens[at]!r}; expected: {choices}", n)


def parse(text: str) -> Scenario:
    """Parse scenario text; raises ParseError naming the offending line."""
    name = None
    statements: list = []
    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.replace(";", " ; ").split()
        if tokens[0] == "scenario":
            if name is not None:
                raise ParseError("duplicate scenario line", n)
            if len(tokens) != 2:
                raise ParseError("expected: scenario <name>", n)
            name = tokens[1]
        elif name is None:
            raise ParseError("the first statement must be 'scenario <name>'", n)
        elif tokens[0] == "query":
            statements.append(_parse_query(tokens, n))
        else:
            statements.append(_select(tokens, n).match(tokens, n))
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
        self.locality_heads: dict[str, Decl] = {}
        self.locality_steps: dict[str, list[Decl]] = {}
        self.locality_states: dict[str, list[Decl]] = {}
        self.localities: dict[str, tuple[LocalityExperiment, list[Ket]]] = {}
        self.queries: list[BoundQuery] = []

    def tol(self, key: str) -> float:
        return self.tolerances[key]

    def lookup(self, table: dict, name: str, what: str, line: int):
        if name not in table:
            raise ValidationError(f"unknown {what} {name!r}", line)
        return table[name]

    def lookup_all(self, table: dict, names, what: str, line: int) -> list:
        return [self.lookup(table, name, what, line) for name in names]


def _invalid(d, message: str) -> ValidationError:
    return ValidationError(f"{d.row.head} {d.name!r}: {message}", d.line)


def _grid(env: Environment, d) -> hist_mod.TimeGrid:
    return env.lookup(env.grids, d.grid, "grid", d.line)


def _fit(d, obj, dims: tuple[int, ...]):
    """`obj`, the tensor product of `d`'s parts, once its dim is the system's."""
    if obj.dim != math.prod(dims):
        raise _invalid(d, f"tensor parts have dim {obj.dim}, system has {math.prod(dims)}")
    return obj


def _spin_axis(d, dims: tuple[int, ...]) -> str:
    if math.prod(dims) != 2:
        raise _invalid(d, "spin needs a dim-2 system")
    if d.axis not in op_mod.AXES:
        raise _invalid(d, f"bad axis {d.axis!r}")
    return d.axis


def _grid_points(d, dims: tuple[int, ...]) -> tuple[float, ...]:
    if len(d.grid_points) != math.prod(dims):
        raise _invalid(d, f"{len(d.grid_points)} grid points for dim {math.prod(dims)}")
    return d.grid_points


def _system_dim(env, d, dims):
    if d.dim < 1:
        raise _invalid(d, "dim must be >= 1")
    return (d.dim,)


def _state_amps(env, d, dims):
    if len(d.amps) != math.prod(dims):
        raise _invalid(d, f"{len(d.amps)} amplitudes for dim {math.prod(dims)}")
    return Ket(d.amps, dims)


def _state_basis(env, d, dims):
    if not 0 <= d.index < math.prod(dims):
        raise _invalid(d, f"basis index {d.index} out of range for dim {math.prod(dims)}")
    return op_mod.basis_ket(d.index, dims)


def _state_singlet(env, d, dims):
    if dims != (2, 2):
        raise _invalid(d, "singlet needs a 2x2 composite system")
    return op_mod.singlet()


def _state_tensor(env, d, dims):
    parts = env.lookup_all(env.states, d.parts, "state", d.line)
    return Ket(_fit(d, op_mod.tensor(*parts), dims).amplitudes, dims)


def _operator_matrix(env, d, dims):
    total = math.prod(dims)
    if len(d.rows) != total or any(len(row) != total for row in d.rows):
        raise _invalid(d, f"matrix must be {total}x{total}")
    return Operator(d.rows, dims)


def _operator_dyad(env, d, dims):
    ket = env.lookup(env.states, d.state, "state", d.line)
    if ket.dim != math.prod(dims):
        raise _invalid(d, f"state dim {ket.dim} != system dim {math.prod(dims)}")
    return op_mod.dyad(ket)


def _operator_tensor(env, d, dims):
    parts = env.lookup_all(env.operators, d.parts, "operator", d.line)
    out = _fit(d, op_mod.tensor(*parts), dims)
    return Operator(out.matrix, dims, flavor=out.flavor)


def _pd_projectors(env, d, dims):
    ops = env.lookup_all(env.operators, d.members, "operator", d.line)
    for op in ops:
        if op.dim != math.prod(dims):
            raise _invalid(d, f"member dim {op.dim} != system dim {math.prod(dims)}")
    return fw.make_pd([Operator(o.matrix, dims, flavor=o.flavor) for o in ops],
                      d.members, env.tol("tol_alg"))


def _pd_dyads(env, d, dims):
    kets = env.lookup_all(env.states, d.members, "state", d.line)
    return fw.make_pd([op_mod.dyad(Ket(k.amplitudes, dims)) for k in kets],
                      d.members, env.tol("tol_alg"))


def _pd_tensor(env, d, dims):
    parts = env.lookup_all(env.pds, d.members, "pd", d.line)
    out = _fit(d, fw.tensor_pd(*parts), dims)
    projs = [Operator(p.matrix, dims, flavor="projector") for p in out.projectors]
    return fw.make_pd(projs, out.labels, env.tol("tol_alg"))


def _pd_lift(env, d, dims):
    inner = env.lookup(env.pds, d.inner, "pd", d.line)
    if not 0 <= d.slot < len(dims):
        raise _invalid(d, f"slot {d.slot} out of range for {dims}")
    return fw.lift_pd(inner, dims, d.slot)


def _dynamics_unitaries(env, d, dims):
    grid = _grid(env, d)
    ops = env.lookup_all(env.operators, d.ops, "operator", d.line)
    return dyn_mod.Dynamics(grid, [Operator(o.matrix, dims, flavor="unitary")
                                   for o in ops])


def _dynamics_hamiltonian(env, d, dims):
    grid = _grid(env, d)
    ham = env.lookup(env.operators, d.ops, "operator", d.line)
    return dyn_mod.Dynamics.from_hamiltonian(grid, Operator(ham.matrix, dims))


def _family_fixed(env, d, dims):
    grid = _grid(env, d)
    if d.initial in env.operators:
        initial = env.operators[d.initial]
    elif d.initial in env.states:
        initial = op_mod.dyad(env.states[d.initial])
    else:
        raise _invalid(d, f"unknown initial ref {d.initial!r}")
    if initial.dims != dims:
        initial = Operator(initial.matrix, dims, flavor=initial.flavor)
    pds = env.lookup_all(env.pds, d.pds, "pd", d.line)
    return hist_mod.fixed_initial_family(grid, initial, pds, label=d.initial)


def _family_unitary(env, d, dims):
    _grid(env, d)  # declared, like every family's, though the dynamics has its own
    psi = env.lookup(env.states, d.state, "state", d.line)
    dynamics = env.lookup(env.dynamics, d.dynamics, "dynamics", d.line)
    return hist_mod.unitary_family(psi, dynamics)


def _locality_part(table: str) -> Callable:
    """Builder of a line that adds to the locality experiment of its name."""
    def build(env, d, dims):
        if d.name not in env.locality_heads:
            raise ValidationError(f"locality {d.name!r} has no header line", d.line)
        getattr(env, table).setdefault(d.name, []).append(d)
    return build


_STATE = "state <name> system <system>"
_OPERATOR = "operator <name> system <system>"
_PD = "pd <name> system <system>"
_DYNAMICS = "dynamics <name> system <system> grid <grid>"
_FAMILY = "family <name> system <system> grid <grid>"
_INTERVAL = "{interval} grid [<grid_points:float...>] window <lo:float> <hi:float>"

GRAMMAR = (
    Row("tolerance <name> <value:float>"),
    Row("system <name> {dim} <dim:int>", "systems", _system_dim),
    Row("system <name> {factors} <factors...>", "systems",
        lambda env, d, dims: sum(
            env.lookup_all(env.systems, d.factors, "system", d.line), ())),
    Row(f"{_STATE} {{amps}} <amps:complex...>", "states", _state_amps),
    Row(f"{_STATE} {{basis}} <index:int>", "states", _state_basis),
    Row(f"{_STATE} {{singlet}}", "states", _state_singlet),
    Row(f"{_STATE} {{tensor}} <parts> <parts...>", "states", _state_tensor),
    Row(f"{_OPERATOR} {{matrix}} <rows:matrix...>", "operators",
        _operator_matrix),
    Row(f"{_OPERATOR} {{dyad}} <state>", "operators", _operator_dyad),
    Row(f"{_OPERATOR} {{identity}}", "operators",
        lambda env, d, dims: Operator.identity(dims)),
    Row(f"{_OPERATOR} {{tensor}} <parts> <parts...>", "operators",
        _operator_tensor),
    Row(f"{_OPERATOR} {{spin}} <axis> <sign:sign>", "operators",
        lambda env, d, dims: op_mod.dyad(op_mod.spin_ket(_spin_axis(d, dims), d.sign))),
    Row(f"{_OPERATOR} {_INTERVAL}", "operators",
        lambda env, d, dims: op_mod.interval_projector(
            _grid_points(d, dims), d.lo, d.hi)),
    Row(f"{_PD} {{spin}} <axis>", "pds",
        lambda env, d, dims: fw.spin_pd(_spin_axis(d, dims))),
    Row(f"{_PD} {{basis}}", "pds", lambda env, d, dims: fw.basis_pd(dims)),
    Row(f"{_PD} {{trivial}}", "pds", lambda env, d, dims: fw.trivial_pd(dims)),
    Row(f"{_PD} {{projectors}} <members...>", "pds", _pd_projectors),
    Row(f"{_PD} {{dyads}} <members...>", "pds", _pd_dyads),
    Row(f"{_PD} {{tensor}} <members...>", "pds", _pd_tensor),
    Row(f"{_PD} {{lift}} <inner> slot <slot:int>", "pds", _pd_lift),
    Row(f"{_PD} {_INTERVAL}", "pds",
        lambda env, d, dims: fw.interval_pd(
            _grid_points(d, dims), d.lo, d.hi, env.tol("tol_alg"))),
    Row("grid <name> times <times:float...>", "grids",
        lambda env, d, dims: hist_mod.TimeGrid(d.times)),
    Row(f"{_DYNAMICS} {{trivial}}", "dynamics",
        lambda env, d, dims: dyn_mod.Dynamics.trivial(_grid(env, d), dims)),
    Row(f"{_DYNAMICS} {{unitaries}} <ops...>", "dynamics",
        _dynamics_unitaries),
    Row(f"{_DYNAMICS} {{hamiltonian}} <ops>", "dynamics",
        _dynamics_hamiltonian),
    Row("history <name> factors <factors...>", "histories",
        lambda env, d, dims: hist_mod.History(
            env.lookup_all(env.operators, d.factors, "operator", d.line),
            d.factors, tol=env.tol("tol_alg"))),
    Row(f"{_FAMILY} {{product}} <pds...>", "families",
        lambda env, d, dims: hist_mod.product_family(
            _grid(env, d), env.lookup_all(env.pds, d.pds, "pd", d.line))),
    Row(f"{_FAMILY} {{fixed}} <initial> <pds...>", "families", _family_fixed),
    Row(f"{_FAMILY} {{unitary}} <state> <dynamics>", "families",
        _family_unitary),
    Row(f"{_FAMILY} {{raw}} <histories...>", "families",
        lambda env, d, dims: hist_mod.raw_family(
            _grid(env, d), env.lookup_all(env.histories, d.histories, "history", d.line),
            tol=env.tol("tol_alg"))),
    Row("locality <name> {systems} <sys_a> <sys_b> <sys_c> grid <grid> "
        "initial <initial> pds [<pds...>]", "locality_heads",
        lambda env, d, dims: d),
    Row("locality <name> {step} <op_a> <op_bc>", None,
        _locality_part("locality_steps")),
    Row("locality <name> {cstate} <state>", None,
        _locality_part("locality_states")),
)

# statement -> {kind: row}
_BY_HEAD: dict[str, dict[str | None, Row]] = {}
for _row in GRAMMAR:
    _BY_HEAD.setdefault(_row.head, {})[_row.kind] = _row


def _tolerance(name: str, value: float, line: int | None = None) -> float:
    """The value of a tolerance line or override, once it is known to be usable."""
    if name not in TOLERANCE_NAMES:
        raise ValidationError(f"unknown tolerance {name!r}", line)
    value = float(value)
    if not (math.isfinite(value) and value > 0):
        raise ValidationError(
            f"tolerance {name!r} must be finite and > 0, got {value!r}", line)
    return value


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
        for lab in allowed:
            if lab not in family.names[t]:
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


def _bind_family(env: Environment, q: QueryDecl) -> dict:
    family = env.lookup(env.families, _require(q, "family"), "family", q.line)
    dynamics = env.lookup(env.dynamics, _require(q, "dynamics"), "dynamics", q.line)
    if family.grid != dynamics.grid:
        raise ValidationError("family and dynamics use different grids", q.line)
    if family.dims != dynamics.dims:
        raise ValidationError("family and dynamics dims differ", q.line)
    return {"family": family, "dynamics": dynamics}


def _bind_probability(env: Environment, q: QueryDecl) -> dict:
    payload = _bind_family(env, q)
    payload["where"] = _parse_event(env, payload["family"], _require(q, "where"), q.line)
    return payload


def _bind_conditional(env: Environment, q: QueryDecl) -> dict:
    payload = _bind_probability(env, q)
    payload["given"] = _parse_event(env, payload["family"], _require(q, "given"), q.line)
    return payload


def _bind_compatibility(env: Environment, q: QueryDecl) -> dict:
    key = next((k for k in ("pds", "families") if q.arg(k) is not None), None)
    if key is None:
        raise ValidationError("compatibility needs 'pds' or 'families'", q.line)
    names = q.arg(key).split()
    if len(names) != 2:
        raise ValidationError(f"compatibility {key} needs two names", q.line)
    table, what = (env.pds, "pd") if key == "pds" else (env.families, "family")
    payload = {key: tuple(env.lookup_all(table, names, what, q.line))}
    if key == "families" and q.arg("dynamics") is not None:
        payload["dynamics"] = env.lookup(env.dynamics, q.arg("dynamics"),
                                         "dynamics", q.line)
    return payload


def _bind_refinement(env: Environment, q: QueryDecl) -> dict:
    fine = env.lookup(env.pds, _require(q, "fine"), "pd", q.line)
    coarse = env.lookup(env.pds, _require(q, "coarse"), "pd", q.line)
    if fine.dim != coarse.dim:
        raise ValidationError("refinement decompositions have different dims", q.line)
    return {"fine": fine, "coarse": coarse}


def _bind_povm(env: Environment, q: QueryDecl) -> dict:
    pd = env.lookup(env.pds, _require(q, "pd"), "pd", q.line)
    state = env.lookup(env.states, _require(q, "state"), "state", q.line)
    slot = parse_int(_require(q, "ancilla"), q.line)
    if len(pd.dims) < 2:
        raise ValidationError("povm needs a pd on a composite system", q.line)
    if not 0 <= slot < len(pd.dims):
        raise ValidationError(f"ancilla slot {slot} out of range", q.line)
    if state.dim != pd.dims[slot]:
        raise ValidationError(
            f"ancilla state dim {state.dim} != factor dim {pd.dims[slot]}", q.line)
    return {"pd": pd, "state": state, "ancilla": slot}


def _bind_locality(env: Environment, q: QueryDecl) -> dict:
    name = _require(q, "locality")
    if name not in env.localities:
        raise ValidationError(f"unknown locality experiment {name!r}", q.line)
    experiment, c_states = env.localities[name]
    return {"experiment": experiment, "c_states": c_states, "name": name}


def _bind_sample(env: Environment, q: QueryDecl) -> dict:
    payload = _bind_family(env, q)
    payload["count"] = parse_int(_require(q, "count"), q.line)
    if payload["count"] < 1:
        raise ValidationError("sample count must be positive", q.line)
    payload["seed"] = parse_int(_require(q, "seed"), q.line)
    if payload["seed"] < 0:
        raise ValidationError("sample seed must be non-negative", q.line)
    return payload


# query kind -> binder of its arguments into the payload of its runner
_BINDERS = {
    "consistency": _bind_family,
    "probability": _bind_probability,
    "conditional": _bind_conditional,
    "compatibility": _bind_compatibility,
    "refinement": _bind_refinement,
    "povm": _bind_povm,
    "locality": _bind_locality,
    "sample": _bind_sample,
}
QUERY_KINDS = tuple(_BINDERS)


def _finish_locality(env: Environment, head: Decl) -> None:
    name, line = head.name, head.line
    d_a, d_b, d_c = (math.prod(d) for d in env.lookup_all(
        env.systems, (head.sys_a, head.sys_b, head.sys_c), "system", line))
    grid = env.lookup(env.grids, head.grid, "grid", line)
    initial = env.lookup(env.states, head.initial, "state", line)
    if initial.dim != d_a * d_b:
        raise _invalid(head, f"initial AB state dim {initial.dim} != {d_a * d_b}")
    initial = Ket(initial.amplitudes, (d_a, d_b))
    pds = env.lookup_all(env.pds, head.pds, "pd", line)
    steps = [tuple(env.lookup_all(env.operators, (s.op_a, s.op_bc), "operator", s.line))
             for s in env.locality_steps.get(name, [])]
    c_states = [env.lookup(env.states, c.state, "state", line)
                for c in env.locality_states.get(name, [])]
    if not c_states:
        raise ValidationError(f"locality {name!r} declares no cstate lines", line)
    try:
        exp = LocalityExperiment(initial, d_c, steps, pds, grid)
    except CohistError as err:
        raise _invalid(head, str(err)) from err
    env.localities[name] = (exp, c_states)


def resolve(scenario: Scenario,
            tolerance_overrides: dict[str, float] | None = None) -> Environment:
    """Build every declared object and bind every query, or fail with a
    ValidationError naming the statement."""
    env = Environment()
    decls = [s for s in scenario.statements if not isinstance(s, QueryDecl)]
    for stmt in decls:
        if stmt.row.head == "tolerance":
            env.tolerances[stmt.name] = _tolerance(stmt.name, stmt.value, stmt.line)
    for key, value in (tolerance_overrides or {}).items():
        env.tolerances[key] = _tolerance(key, value)

    declared: set[str] = set()  # every name in the Environment tables of the rows
    for stmt in decls:  # queries bind last
        row = stmt.row
        if row.build is None:  # tolerances came first
            continue
        try:
            if row.table is not None and stmt.name in declared:
                raise ValidationError(f"name {stmt.name!r} is already declared", stmt.line)
            dims = (env.lookup(env.systems, stmt.system, "system", stmt.line)
                    if row.on_system else None)
            built = row.build(env, stmt, dims)
            if row.table is not None:
                getattr(env, row.table)[stmt.name] = built
                declared.add(stmt.name)
        except ValidationError:
            raise
        except CohistError as err:
            raise ValidationError(str(err), stmt.line) from err

    for head in env.locality_heads.values():
        _finish_locality(env, head)
    env.queries = [BoundQuery(q, _BINDERS[q.kind](env, q)) for q in scenario.queries]
    return env
