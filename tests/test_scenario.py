"""Scenario text: parsing, diagnostics, validation, round-trips."""

import numpy as np
import pytest

from cohist import ParseError, ValidationError
from cohist.demos import DEMOS, demo_text
from cohist.scenario import (
    Scenario,
    format_complex,
    parse,
    parse_complex,
    resolve,
    serialize,
)

MINIMAL = """\
scenario tiny
system spin dim 2
pd z system spin spin z
grid g times 0 1
dynamics free system spin grid g trivial
family f system spin grid g product z z
query consistency family f dynamics free
"""


class TestComplexNumbers:

    @pytest.mark.parametrize("text,value", [
        ("1", 1 + 0j),
        ("-2.5", -2.5 + 0j),
        ("i", 1j),
        ("-i", -1j),
        ("2i", 2j),
        ("1+2i", 1 + 2j),
        ("0.5-0.25i", 0.5 - 0.25j),
        ("1e-3+2e-4i", 1e-3 + 2e-4j),
        ("-1.5e2-2E-1i", -150 - 0.2j),
    ])
    def test_parse(self, text, value):
        assert parse_complex(text) == value

    def test_format_round_trips_exactly(self):
        rng = np.random.default_rng(151)
        for _ in range(200):
            z = complex(rng.standard_normal(), rng.standard_normal())
            assert parse_complex(format_complex(z)) == z

    def test_bad_token(self):
        with pytest.raises(ParseError):
            parse_complex("abc")


class TestParsing:

    def test_minimal_scenario(self):
        s = parse(MINIMAL)
        assert s.name == "tiny"
        assert len(s.queries) == 1
        resolve(s)

    def test_comments_and_blank_lines_ignored(self):
        s = parse("scenario c\n\n# comment\nsystem a dim 2  # trailing\n")
        assert "a" in {st.name for st in s.statements}

    def test_error_names_line(self):
        bad = MINIMAL.replace("grid g times 0 1", "grid g times")
        with pytest.raises(ParseError, match="line 4"):
            parse(bad)

    def test_unknown_statement(self):
        with pytest.raises(ParseError, match="widget"):
            parse("scenario x\nwidget a b c\n")

    def test_scenario_line_required_first(self):
        with pytest.raises(ParseError):
            parse("system a dim 2\n")

    def test_unknown_query_kind(self):
        with pytest.raises(ParseError, match="teleport"):
            parse("scenario x\nquery teleport family f\n")


class TestValidation:

    def test_invalid_pd_cites_completeness(self):
        text = """\
scenario bad
system spin dim 2
state zp system spin amps 1 0
state xm system spin amps 0.70710678118654752 -0.70710678118654752
operator pz system spin dyad zp
operator px system spin dyad xm
pd broken system spin projectors pz px
"""
        with pytest.raises(ValidationError, match="orthogonal|completeness"):
            resolve(parse(text))

    def test_dropped_element_cites_completeness(self):
        text = """\
scenario bad
system spin dim 2
state zp system spin amps 1 0
operator pz system spin dyad zp
pd broken system spin projectors pz
"""
        with pytest.raises(ValidationError, match="completeness"):
            resolve(parse(text))

    def test_unknown_reference_names_field(self):
        text = MINIMAL.replace("product z z", "product z missing")
        with pytest.raises(ValidationError, match="missing"):
            resolve(parse(text))

    def test_duplicate_name_rejected(self):
        text = "scenario x\nsystem a dim 2\nsystem a dim 3\n"
        with pytest.raises(ValidationError, match="already declared"):
            resolve(parse(text))

    def test_query_label_checked(self):
        text = MINIMAL + "query probability family f dynamics free where 1=zz\n"
        with pytest.raises(ValidationError, match="zz"):
            resolve(parse(text))

    def test_query_time_checked(self):
        text = MINIMAL + "query probability family f dynamics free where 7=z+\n"
        with pytest.raises(ValidationError, match="7"):
            resolve(parse(text))

    def test_tolerance_override(self):
        text = MINIMAL.replace("scenario tiny", "scenario tiny\ntolerance tol_alg 1e-6")
        env = resolve(parse(text))
        assert env.tol("tol_alg") == 1e-6
        env2 = resolve(parse(text), {"tol_alg": 1e-4})
        assert env2.tol("tol_alg") == 1e-4

    def test_unknown_tolerance_rejected(self):
        text = MINIMAL.replace("scenario tiny", "scenario tiny\ntolerance bogus 1e-6")
        with pytest.raises(ValidationError, match="bogus"):
            resolve(parse(text))

    def test_unnormalized_dyad_state_rejected(self):
        text = """\
scenario bad
system spin dim 2
state s system spin amps 1 1
operator p system spin dyad s
"""
        with pytest.raises(ValidationError):
            resolve(parse(text))


class TestRoundTrip:

    def test_minimal_round_trip(self):
        s = parse(MINIMAL)
        assert parse(serialize(s)) == s

    @pytest.mark.parametrize("name", sorted(DEMOS))
    def test_demo_round_trip(self, name):
        text = demo_text(name)
        s = parse(text)
        assert parse(serialize(s)) == s
        assert serialize(s) == text
        resolve(s)

    def test_round_trip_preserves_numbers_exactly(self):
        text = ("scenario n\nsystem spin dim 2\n"
                "state k system spin amps 0.12345678901234567+0.9876543210987i "
                "-0.1e-7i\n")
        s = parse(text)
        rt = parse(serialize(s))
        assert rt == s


class TestHamiltonianAndRawFamilies:

    def test_hamiltonian_dynamics_in_scenario(self):
        text = """\
scenario ham
system spin dim 2
operator h system spin matrix 1 0 ; 0 -1
grid g times 0 0.5
dynamics u system spin grid g hamiltonian h
family f system spin grid g product z z
pd z system spin spin z
"""
        # pd declared after family: declaration order matters
        with pytest.raises(ValidationError):
            resolve(parse(text))
        fixed = """\
scenario ham
system spin dim 2
operator h system spin matrix 1 0 ; 0 -1
grid g times 0 0.5
dynamics u system spin grid g hamiltonian h
pd z system spin spin z
family f system spin grid g product z z
query consistency family f dynamics u
"""
        env = resolve(parse(fixed))
        step = env.dynamics["u"].step(0).matrix
        expected = np.diag(np.exp([-0.5j, 0.5j]))
        assert np.allclose(step, expected)

    def test_raw_family_in_scenario(self):
        text = """\
scenario raw
system spin dim 2
state zp system spin amps 1 0
state zm system spin amps 0 1
operator pzp system spin dyad zp
operator pzm system spin dyad zm
operator ident system spin identity
grid g times 0 1
history hup factors pzp ident
history hdn factors pzm ident
family f system spin grid g raw hup hdn
dynamics free system spin grid g trivial
query consistency family f dynamics free
"""
        env = resolve(parse(text))
        assert env.families["f"].n == 2

    def test_interval_pd_in_scenario(self):
        text = """\
scenario grid4
system line dim 4
pd cut system line interval grid 0 1 2 3 window 0.5 2.5
"""
        env = resolve(parse(text))
        assert env.pds["cut"].labels == ("in", "out")
        assert abs(env.pds["cut"][0].trace() - 2.0) < 1e-12


class TestScenarioStructure:

    def test_queries_property(self):
        s = parse(MINIMAL)
        assert s.queries[0].kind == "consistency"
        assert s.queries[0].arg("family") == "f"

    def test_equality_ignores_line_numbers(self):
        a = parse(MINIMAL)
        b = parse("scenario tiny\n# pad\n" + "\n".join(
            serialize(a).splitlines()[1:]))
        assert a == b
        assert isinstance(a, Scenario)
