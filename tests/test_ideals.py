from fractions import Fraction

import pytest

from idemq.fields import QQ
from idemq.ideals import (
    Idempotent,
    NotIdempotent,
    check_idempotent,
    fixed_family,
    live_frac_gens,
    roots_family,
)
from idemq.rings import LevelRing, RingSpec, VarInfo
from idemq.specfile import ProblemSpec, emit_spec


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
