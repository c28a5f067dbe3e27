import re
from fractions import Fraction

import pytest

from idemq.fields import QQ
from idemq.ideals import (
    IdealFamily,
    Idempotent,
    NotIdempotent,
    check_idempotent,
    fixed_family,
    live_frac_gens,
    roots_family,
)
from idemq.rings import LevelRing, RingSpec, VarInfo
from idemq.specfile import ProblemSpec, emit_spec, parse_spec


def _spec(a=2):
    return RingSpec(
        field=QQ,
        root_base=2,
        variables=(VarInfo("t", True),),
        truncations=((Fraction(a),),),
    )


def test_roots_family_gens():
    spec = _spec()
    fam = roots_family(spec, "t")
    r0 = LevelRing(spec, 0)
    r3 = LevelRing(spec, 3)
    assert fam.gens_at(r0) == [r0.pack((1,))]
    # numerator 1 at scale 8 is t^(1/8)
    assert fam.gens_at(r3) == [r3.pack((1,))]
    assert r3.weight(fam.gens_at(r3)[0]) == Fraction(1, 8)


def test_roots_family_needs_divisible_var():
    spec = RingSpec(field=QQ, root_base=2, variables=(VarInfo("t", False),))
    with pytest.raises(ValueError):
        roots_family(spec, "t")


def test_fixed_family_gens_and_min_level():
    spec = _spec(a=2)
    fam = fixed_family(spec, [(Fraction(3, 4),)])
    assert fam.min_level() == 2
    r2 = LevelRing(spec, 2)
    assert fam.gens_at(r2) == [r2.pack((3,))]
    r3 = LevelRing(spec, 3)
    assert fam.gens_at(r3) == [r3.pack((6,))]


def test_fixed_family_rejects_bad_exponents():
    spec = RingSpec(field=QQ, root_base=2, variables=(VarInfo("x", False),))
    with pytest.raises(ValueError):
        fixed_family(spec, [(Fraction(1, 2),)])
    spec2 = _spec()
    with pytest.raises(ValueError):
        fixed_family(spec2, [(Fraction(1, 3),)])
    with pytest.raises(ValueError):
        fixed_family(spec2, [(Fraction(-1),)])


F = Fraction
XY = RingSpec(QQ, 3, (VarInfo("x", True), VarInfo("y")))


@pytest.mark.parametrize(
    "args, message",
    [
        (("I", XY, (2,)), "roots part needs a variable index"),
        (("I", XY, (1,)), "roots(y) needs a divisible variable"),
        (("I", XY, (0, 0)), "duplicate roots variable"),
        (("I", XY, (), ((F(1),),)), "generator arity mismatch"),
        (("I", XY, (), ((F(-1), F(0)),)), "negative exponent in ideal generator"),
        (("I", XY, (), ((F(0), F(1, 3)),)), "fractional exponent on non-divisible variable y"),
        (("I", XY, (), ((F(1, 2), F(0)),)), "denominator of 1/2 is not a power of root_base"),
    ],
)
def test_family_checks_its_fields_by_position_and_by_keyword(args, message):
    names = ("name", "spec", "root_vars", "gens")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        IdealFamily(*args)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        IdealFamily(**dict(zip(names, args)))


def test_two_parses_of_a_spec_give_equal_hashable_families():
    text = "root_base 3\nvar x divisible\nvar y\nideal I = roots(x), y x^{1/9}\n"
    a, b = parse_spec(text).ideals["I"], parse_spec(text).ideals["I"]
    assert a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert a != parse_spec(text.replace("1/9", "1/3")).ideals["I"]
    assert (a.root_vars, a.gens) == ((0,), ((F(1, 9), F(1)),))


def test_verdicts_are_truthy_exactly_when_idempotent():
    assert Idempotent(("t^{1/2} = t^{1/4} * t^{1/4}",))
    assert Idempotent(())
    assert not NotIdempotent("t")
    assert not NotIdempotent("")


def test_family_records_are_frozen():
    fam = roots_family(_spec(), "t")
    with pytest.raises(AttributeError):
        fam.name = "J"
    with pytest.raises(AttributeError):
        fam.root_vars = ()
    with pytest.raises(AttributeError):
        fam.level = 0  # no attribute beyond the fields either
    verdict = check_idempotent(fam)
    with pytest.raises(AttributeError):
        verdict.certificate = ()
    with pytest.raises(AttributeError):
        NotIdempotent("t").witness = "t^2"
    assert fam.name == "I" and fam.root_vars == (0,)


def test_roots_are_idempotent():
    fam = roots_family(_spec(), "t")
    v = check_idempotent(fam)
    assert isinstance(v, Idempotent)
    assert v


def test_principal_fixed_ideal_not_idempotent():
    spec = _spec(a=5)
    fam = fixed_family(spec, [(Fraction(1),)])
    v = check_idempotent(fam)
    assert isinstance(v, NotIdempotent)
    assert v.witness == "t"
    assert not v


def test_truncation_killed_gens_are_dropped():
    spec = _spec(a=2)
    # t^3 = 0 in the ring, so the family is the zero ideal
    fam = fixed_family(spec, [(Fraction(3),)])
    assert live_frac_gens(fam) == []
    assert isinstance(check_idempotent(fam), Idempotent)


def test_redundant_gens_are_pruned():
    spec = _spec(a=5)
    fam = fixed_family(spec, [(Fraction(1),), (Fraction(2),)])
    assert live_frac_gens(fam) == [(Fraction(1),)]


def test_two_var_idempotency_witness():
    spec = RingSpec(
        field=QQ,
        root_base=2,
        variables=(VarInfo("x", True), VarInfo("y", False)),
        truncations=((Fraction(0), Fraction(3)),),
    )
    # (x^(1/2), y): x^(1/2) = x^(1/4) * x^(1/4) would need roots in the
    # family; the fixed family keeps the same gens at every level
    fam = fixed_family(spec, [(Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(1))])
    v = check_idempotent(fam)
    assert isinstance(v, NotIdempotent)


def test_describe():
    # a family is described by the ideal line emit_spec writes for it
    spec = _spec()
    fams = {"I": roots_family(spec, "t"), "J": fixed_family(spec, [(Fraction(3, 2),)], name="J")}
    text = emit_spec(ProblemSpec(ring=spec, ideals=fams))
    assert "ideal I = roots(t)\n" in text
    assert "ideal J = t^{3/2}\n" in text
