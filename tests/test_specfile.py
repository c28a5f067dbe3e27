import re
from fractions import Fraction

import pytest

from idemq.fields import GF, QQ
from idemq.specfile import SpecError, emit_spec, format_monomial, parse_spec

F = Fraction

GOLDEN = """\
# two divisible variables, one plain
field Q
root_base 2
var x divisible
var y divisible
var z
truncate x, y^2
ideal I = roots(x), roots(y)
ideal J = x^{1/2} y, z^3   # trailing comment
set deg_max 4
set weight_max 3/2
"""


# ---------- parsing ----------


def test_golden_parse():
    ps = parse_spec(GOLDEN)
    ring = ps.ring
    assert ring.field == QQ
    assert ring.root_base == 2
    assert [v.name for v in ring.variables] == ["x", "y", "z"]
    assert [v.divisible for v in ring.variables] == [True, True, False]
    assert ring.truncations == ((F(1), F(0), F(0)), (F(0), F(2), F(0)))
    assert set(ps.ideals) == {"I", "J"}
    assert ps.ideals["I"].root_vars == (0, 1)
    assert ps.ideals["I"].gens == ()
    assert ps.ideals["J"].root_vars == ()
    assert ps.ideals["J"].gens == ((F(1, 2), F(1), F(0)), (F(0), F(0), F(3)))
    assert ps.settings == {"deg_max": 4, "weight_max": F(3, 2)}


def test_defaults_field_and_root_base():
    ps = parse_spec("var t divisible\n")
    assert ps.ring.field == QQ
    assert ps.ring.root_base == 2
    assert ps.ideals == {}
    assert ps.settings == {}


def test_declarations_in_any_order():
    # the ideal line precedes the variable it mentions
    ps = parse_spec("ideal I = roots(t)\nvar t divisible\n")
    assert ps.ideals["I"].root_vars == (0,)


def test_finite_field_spelling():
    ps = parse_spec("field Fp 7\nvar t divisible\n")
    assert ps.ring.field == GF(7)


def test_monomial_factor_forms():
    ps = parse_spec("var x divisible\nvar y\nideal J = x^{1/2}*y^2, x x\n")
    assert ps.ideals["J"].gens == ((F(1, 2), F(2)), (F(2), F(0)))


def test_root_base_three():
    ps = parse_spec("root_base 3\nvar x divisible\nideal J = x^{1/9}\n")
    assert ps.ideals["J"].gens == ((F(1, 9),),)
    with pytest.raises(SpecError, match="denominator not a power of 3"):
        parse_spec("root_base 3\nvar x divisible\nideal J = x^{1/2}\n")


# ---------- positioned errors ----------


def test_unknown_variable_carries_line():
    with pytest.raises(SpecError, match=r"line 2: unknown variable 'y'"):
        parse_spec("var x divisible\nideal J = y^2\n")


def test_bad_denominator_message():
    with pytest.raises(SpecError, match="denominator not a power of 2"):
        parse_spec("var x divisible\nideal J = x^{1/3}\n")


def test_nondivisible_variable_rejects_fractions():
    with pytest.raises(SpecError, match="'z' is not divisible"):
        parse_spec("var z\nideal J = z^{1/2}\n")


def test_truncation_must_be_integer():
    with pytest.raises(
        SpecError, match=r"line 2: truncation exponents must be nonnegative integers"
    ):
        parse_spec("var x divisible\ntruncate x^{1/2}\n")


def test_negative_exponent_rejected():
    with pytest.raises(SpecError, match="nonnegative"):
        parse_spec("var x divisible\nideal J = x^{-1}\n")


def test_bad_factor_and_directive():
    with pytest.raises(SpecError, match="bad monomial factor"):
        parse_spec("var x divisible\nideal J = 2x\n")
    with pytest.raises(SpecError, match=r"line 1: unknown directive 'ring'"):
        parse_spec("ring Q\n")


def test_duplicates_rejected():
    for text, what in [
        ("field Q\nfield Q\n", "duplicate field"),
        ("root_base 2\nroot_base 2\n", "duplicate root_base"),
        ("var t\nvar t\n", "duplicate variable"),
        ("var t divisible\nideal I = roots(t)\nideal I = t\n", "duplicate ideal"),
        ("set deg_max 3\nset deg_max 4\n", "duplicate setting"),
    ]:
        with pytest.raises(SpecError, match=what):
            parse_spec(text)


def test_settings_validation():
    with pytest.raises(SpecError, match="unknown setting 'depth'"):
        parse_spec("set depth 3\n")
    with pytest.raises(SpecError, match="bad value for deg_max"):
        parse_spec("set deg_max many\n")


def test_roots_needs_divisible_variable():
    with pytest.raises(SpecError, match="needs a divisible variable"):
        parse_spec("var z\nideal I = roots(z)\n")
    with pytest.raises(SpecError, match="unknown variable 'w'"):
        parse_spec("var z\nideal I = roots(w)\n")


def test_ideal_line_shape():
    with pytest.raises(SpecError, match="expected: ideal"):
        parse_spec("var t divisible\nideal I roots(t)\n")
    with pytest.raises(SpecError, match="expected: var"):
        parse_spec("var t invertible\n")


def test_ideal_name_joins_words_with_plus():
    ps = parse_spec("var t divisible\nideal I+J = roots(t)\n")
    assert list(ps.ideals) == ["I+J"]
    assert parse_spec(emit_spec(ps)) == ps
    for bad in ("I+", "+I", "I++J", "I J"):
        with pytest.raises(SpecError, match="expected: ideal"):
            parse_spec(f"var t divisible\nideal {bad} = roots(t)\n")


def test_ring_errors_name_their_line():
    with pytest.raises(SpecError, match="^line 2: root_base must be >= 2$"):
        parse_spec("var t divisible\nroot_base 1\n")
    with pytest.raises(SpecError, match="^line 3: cannot truncate by the unit monomial$"):
        parse_spec("var t divisible\ntruncate t\ntruncate 1\n")


def test_variable_name_must_be_spellable_in_a_monomial():
    for bad in ("9t", "t-1", "t^2", "é"):
        with pytest.raises(SpecError, match=re.escape(f"line 1: bad variable name '{bad}'")):
            parse_spec(f"var {bad}\nideal I = t\n")
    assert parse_spec("var _t9\nideal I = _t9^2\n").ideals["I"].gens == ((Fraction(2),),)


def test_spec_error_carries_position():
    try:
        parse_spec("var x divisible\n\nideal J = y\n")
    except SpecError as e:
        assert e.line == 3
        assert str(e) == "line 3: unknown variable 'y'"
    else:
        raise AssertionError("expected SpecError")


# ---------- emission ----------


def test_round_trip_identity():
    ps = parse_spec(GOLDEN)
    text = emit_spec(ps)
    again = parse_spec(text)
    assert again == ps
    assert emit_spec(again) == text


def test_round_trip_finite_field():
    ps = parse_spec("field Fp 7\nvar t divisible\ntruncate t\nideal I = roots(t)\n")
    assert parse_spec(emit_spec(ps)) == ps


def test_round_trip_unit_ideal():
    ps = parse_spec("var t divisible\nideal U = 1\nideal V = t, 1\n")
    assert ps.ideals["U"].gens == ((F(0),),)
    text = emit_spec(ps)
    assert "ideal U = 1\n" in text
    assert parse_spec(text) == ps
    with pytest.raises(SpecError, match="bad monomial factor '1'"):
        parse_spec("var t divisible\nideal U = t*1\n")


def test_format_monomial_forms():
    ps = parse_spec("var x divisible\nvar y\n")
    ring = ps.ring
    assert format_monomial((F(0), F(0)), ring) == "1"
    assert format_monomial((F(1), F(2)), ring) == "x y^2"
    assert format_monomial((F(1, 2), F(0)), ring) == "x^{1/2}"
