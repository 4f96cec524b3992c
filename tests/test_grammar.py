"""The scenario grammar table: round trips over every row, malformed lines,
and the README's scenario blocks."""

import pathlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohist import ParseError
from cohist.scenario import GRAMMAR, Decl, Scenario, parse, serialize

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

# Names are single tokens: no whitespace, ';' or '#'.
NAMES = st.text(alphabet="abcxyzAZ019_-+.,=&", min_size=1, max_size=6)
FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                     1e300, -1e-300, 0.1, float("inf"), float("-inf")]),
    st.floats(allow_nan=False))
COMPLEX = st.builds(complex, FLOATS, FLOATS)
TOKEN = {
    "name": NAMES,
    "int": st.integers(-10**20, 10**20),
    "float": FLOATS,
    "complex": COMPLEX,
    "sign": st.sampled_from(["+", "-"]),
}


def _value(item):
    """Strategy for the value of one field of a row: a repeated field's is a
    tuple of at least as many tokens as the field takes."""
    if item.type == "matrix":
        return st.lists(st.lists(COMPLEX, min_size=1, max_size=3).map(tuple),
                        min_size=1, max_size=3).map(tuple)
    if not item.many:
        return TOKEN[item.type]
    return st.lists(TOKEN[item.type], min_size=item.least,
                    max_size=item.least + 3).map(tuple)


def decls(row):
    fields = {item.name: _value(item)
              for item in row.items if not isinstance(item, str)}
    return st.fixed_dictionaries(fields).map(lambda kw: Decl(row, **kw))


def _row_id(row):
    return " ".join(row.usage.split()[:5])


class TestRoundTrip:

    @pytest.mark.parametrize("row", GRAMMAR, ids=_row_id)
    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_parse_inverts_serialize(self, row, data):
        stmts = data.draw(st.lists(decls(row), min_size=1, max_size=3))
        scenario = Scenario(data.draw(NAMES), tuple(stmts))
        text = serialize(scenario)
        assert parse(text) == scenario
        assert serialize(parse(text)) == text

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(stmts=st.lists(st.sampled_from(GRAMMAR).flatmap(decls), max_size=8))
    def test_mixed_statements(self, stmts):
        scenario = Scenario("mixed", tuple(stmts))
        assert parse(serialize(scenario)) == scenario

    def test_every_usage_line_is_a_row_of_its_own(self):
        assert len({row.usage for row in GRAMMAR}) == len(GRAMMAR)
        keys = {(row.head, row.kind) for row in GRAMMAR}
        assert len(keys) == len(GRAMMAR)


class TestDecl:

    # Lines with the same field names and values on different rows, of two
    # statements or of two kinds of one statement: only the row tells them apart.
    @pytest.mark.parametrize("one,other", [
        ("operator a system s identity", "pd a system s trivial"),
        ("pd a system s basis", "pd a system s trivial"),
        ("state k system s singlet", "operator k system s identity"),
    ])
    def test_rows_take_part_in_equality(self, one, other):
        a, b = (parse(f"scenario x\n{line}\n").statements[0] for line in (one, other))
        assert vars(a).keys() - {"row"} == vars(b).keys() - {"row"}
        assert a != b
        assert len({a, b}) == 2

    def test_equality_and_hash_ignore_the_line(self):
        line = "pd p system s lift x slot 1"
        a = parse(f"scenario x\n{line}\n").statements[0]
        b = parse(f"scenario x\n\n\n{line}\n").statements[0]
        assert (a.line, b.line) == (2, 4)
        assert a == b and hash(a) == hash(b)
        assert a == Decl(a.row, name="p", system="s", inner="x", slot=1)
        assert a != Decl(a.row, name="p", system="s", inner="x", slot=0)

    def test_repeated_fields_are_tuples(self):
        tensor, ham = parse("scenario x\nstate k system s tensor a b\n"
                            "dynamics d system s grid g hamiltonian h\n").statements
        assert tensor.parts == ("a", "b")
        assert ham.ops == "h"


# Malformed lines per grammar row, keyed by (statement, kind).  Each one is
# line 3 after a valid prefix.
MALFORMED = {
    ("tolerance", None): ["tolerance tol_alg", "tolerance tol_alg x",
                          "tolerance tol_alg 1 2"],
    ("system", "dim"): ["system a dim", "system a dim two", "system a dim 2 3"],
    ("system", "factors"): ["system a factors"],
    ("state", "amps"): ["state k system s amps", "state k system s amps 1 zz",
                        "state k sys s amps 1 0"],
    ("state", "basis"): ["state k system s basis", "state k system s basis 1.5"],
    ("state", "singlet"): ["state k system s singlet extra"],
    ("state", "tensor"): ["state k system s tensor a"],
    ("operator", "matrix"): ["operator m system s matrix",
                             "operator m system s matrix ; 1 0",
                             "operator m system s matrix 1 x"],
    ("operator", "dyad"): ["operator m system s dyad", "operator m system s dyad a b"],
    ("operator", "identity"): ["operator m system s identity x"],
    ("operator", "tensor"): ["operator m system s tensor a"],
    ("operator", "spin"): ["operator m system s spin z *", "operator m system s spin z"],
    ("operator", "interval"): ["operator m system s interval grid 0 1 window 0.5",
                               "operator m system s interval grid 0 1",
                               "operator m system s interval 0 1 window 0 1"],
    ("pd", "spin"): ["pd p system s spin", "pd p system s spin x y"],
    ("pd", "basis"): ["pd p system s basis z"],
    ("pd", "trivial"): ["pd p system s trivial z"],
    ("pd", "projectors"): ["pd p system s projectors"],
    ("pd", "dyads"): ["pd p system s dyads"],
    ("pd", "tensor"): ["pd p system s tensor"],
    ("pd", "lift"): ["pd p system s lift x slot", "pd p system s lift x 0",
                     "pd p system s lift x slot one"],
    ("pd", "interval"): ["pd p system s interval grid 0 1 window 0.5",
                         "pd p system s interval grid 0 1 window 0 1 2"],
    ("grid", None): ["grid g times", "grid g times 0 x", "grid g at 0 1"],
    ("dynamics", "trivial"): ["dynamics d sys s grid g trivial"],
    ("dynamics", "unitaries"): ["dynamics d system s grid g unitaries"],
    ("dynamics", "hamiltonian"): ["dynamics d system s grid g hamiltonian",
                                  "dynamics d system s grid g hamiltonian h1 h2"],
    ("history", None): ["history h factors", "history h of a b"],
    ("family", "product"): ["family f system s grid g product"],
    ("family", "fixed"): ["family f system s grid g fixed p"],
    ("family", "unitary"): ["family f system s grid g unitary k",
                            "family f system s grid g unitary k d x"],
    ("family", "raw"): ["family f system s grid g raw"],
    ("locality", "systems"): ["locality L systems a b c grid g initial phi pd za",
                              "locality L systems a b c grid g"],
    ("locality", "step"): ["locality L step ta", "locality L step ta tbc x"],
    ("locality", "cstate"): ["locality L cstate", "locality L cstate c1 c2"],
}
# Lines too short to name a kind, or with a word out of place before it.
MALFORMED_HEADS = ["system a", "state k system s", "dynamics d system s trivial",
                   "family f system s product z", "locality L"]

# Unknown statement and kind tokens: the error names the token.
UNKNOWN = [
    ("widget a b c", "widget"),
    ("state k system s weird", "weird"),
    ("operator m system s rotation", "rotation"),
    ("pd p system s blah 1", "blah"),
    ("dynamics d system s grid g chaotic", "chaotic"),
    ("family f system s grid g mixed a", "mixed"),
    ("locality L verb x", "verb"),
    ("system a size 2", "size"),
    ("query teleport family f", "teleport"),
]


def _at_line_3(line):
    return "scenario bad\nsystem s dim 2\n" + line + "\n"


class TestMalformed:

    def test_every_row_has_a_malformed_case(self):
        assert set(MALFORMED) == {(row.head, row.kind) for row in GRAMMAR}

    @pytest.mark.parametrize(
        "line", [line for lines in MALFORMED.values() for line in lines] + MALFORMED_HEADS)
    def test_parse_error_names_line(self, line):
        with pytest.raises(ParseError, match=r"^line 3: "):
            parse(_at_line_3(line))

    @pytest.mark.parametrize("line,token", UNKNOWN)
    def test_unknown_token_is_named(self, line, token):
        with pytest.raises(ParseError, match=rf"^line 3: .*'{token}'"):
            parse(_at_line_3(line))

    def test_error_text_is_the_usage_line(self):
        with pytest.raises(ParseError) as err:
            parse(_at_line_3("pd p system s lift x slot"))
        assert str(err.value) == (
            "line 3: expected: pd <name> system <system> lift <inner> slot <slot:int>")

    def test_missing_kind_lists_the_kinds(self):
        with pytest.raises(ParseError) as err:
            parse(_at_line_3("state k system s"))
        assert str(err.value) == (
            "line 3: expected: state <name> system <system> "
            "amps|basis|singlet|tensor ...")

    def test_trailing_tokens_after_trivial_dynamics_rejected(self):
        with pytest.raises(ParseError, match="line 3"):
            parse(_at_line_3("dynamics d system s grid g trivial extra"))


def readme_scenario_blocks():
    return re.findall(r"```text\n(.*?)```", README.read_text(), flags=re.S)


class TestReadme:
    """The README's scenario blocks are parsed, not resolved: they use names
    (`h`, `ident`, ...) that they never declare."""

    def test_two_blocks(self):
        assert len(readme_scenario_blocks()) == 2

    @pytest.mark.parametrize("index", [0, 1])
    def test_block_parses(self, index):
        block = readme_scenario_blocks()[index]
        if not block.startswith("scenario "):
            block = "scenario readme\n" + block
        scenario = parse(block)
        assert parse(serialize(scenario)) == scenario
        lines = [l for l in block.splitlines() if l.split("#", 1)[0].strip()]
        assert len(scenario.statements) == len(lines) - 1
