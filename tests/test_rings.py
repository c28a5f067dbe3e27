from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idemq.fields import QQ
from idemq.rings import (
    LevelRing,
    RingSpec,
    VarInfo,
    format_mono,
    make_level_ring,
)


def _spec_one_var(a=2, divisible=True):
    """K[t^(1/2^l)] / t^a."""
    return RingSpec(
        field=QQ,
        root_base=2,
        variables=(VarInfo("t", divisible),),
        truncations=((Fraction(a),),),
    )


def test_scales_and_weights():
    spec = _spec_one_var()
    r0 = LevelRing(spec, 0)
    r2 = LevelRing(spec, 2)
    assert r0.scales == (1,)
    assert r2.scales == (4,)
    assert r2.weight((3,)) == Fraction(3, 4)
    assert r2.exp_of((Fraction(1, 2),)) == (2,)


def test_exp_of_rejects_undefined_level():
    spec = _spec_one_var()
    r1 = LevelRing(spec, 1)
    with pytest.raises(ValueError):
        r1.exp_of((Fraction(1, 4),))


def test_truncation_kills_monomials():
    spec = _spec_one_var(a=2)
    r1 = LevelRing(spec, 1)
    # t^2 at level 1 has numerator 4
    assert r1.mono_is_zero((4,))
    assert r1.mono_is_zero((5,))
    assert not r1.mono_is_zero((3,))


def test_basis_strands():
    spec = _spec_one_var(a=2)
    r1 = LevelRing(spec, 1)
    b = r1.basis_upto(Fraction(2))
    # numerators 0..3 survive t^2 = 0
    assert sorted(sum(b.values(), [])) == [(0,), (1,), (2,), (3,)]
    assert r1.basis(Fraction(1, 2)) == [(1,)]
    assert r1.basis(Fraction(2)) == []


def test_basis_cache_extends():
    spec = _spec_one_var(a=3)
    r0 = LevelRing(spec, 0)
    assert r0.basis(Fraction(1)) == [(1,)]
    assert r0.basis(Fraction(2)) == [(2,)]
    assert r0.basis(Fraction(3)) == []


def _spec_mixed():
    """K[x^(1/2^l), y] / (x^2, y^2): x divisible, y not."""
    return RingSpec(
        field=QQ,
        root_base=2,
        variables=(VarInfo("x", True), VarInfo("y", False)),
        truncations=((Fraction(2), Fraction(0)), (Fraction(0), Fraction(2))),
    )


def test_num_is_exact_on_the_lattice_and_none_off_it():
    r2 = LevelRing(_spec_mixed(), 2)
    assert r2.denom == 4
    assert r2.num(Fraction(3, 4)) == 3
    assert r2.num(Fraction(5, 2)) == 10
    assert r2.num(Fraction(0)) == 0
    assert r2.num(2) == 8
    assert r2.num(Fraction(-1, 2)) == -2
    assert r2.num(Fraction(1, 8)) is None
    assert r2.num(Fraction(1, 3)) is None
    # a monomial's integer weight is its weight over denom
    for e in ((1, 0), (3, 1), (0, 1), (7, 1)):
        assert r2.num(r2.weight(e)) * Fraction(1, r2.denom) == r2.weight(e)


def test_denom_at_level_zero_and_without_divisible_variables():
    r0 = LevelRing(_spec_mixed(), 0)
    assert r0.denom == 1
    assert r0.num(Fraction(3)) == 3
    assert r0.num(Fraction(1, 2)) is None
    plain = LevelRing(_spec_one_var(divisible=False), 3)
    assert plain.denom == 1
    assert plain.num(Fraction(1, 8)) is None


def test_basis_off_the_lattice_is_empty():
    r1 = LevelRing(_spec_mixed(), 1)
    assert r1.basis(Fraction(1, 4)) == []
    assert r1.basis(Fraction(1, 3)) == []
    assert r1.basis(Fraction(1, 2)) == [(1, 0)]
    assert r1.basis(Fraction(3, 2)) == [(1, 1), (3, 0)]
    # the store is keyed by integer weight over denom
    assert r1.basis_at(3) == r1.basis(Fraction(3, 2))
    assert set(r1.basis_upto(Fraction(2))) == {0, 1, 2, 3, 4}


def test_two_var_basis_counts():
    spec = RingSpec(
        field=QQ,
        root_base=2,
        variables=(VarInfo("x", True), VarInfo("y", False)),
        truncations=((Fraction(2), Fraction(0)), (Fraction(0), Fraction(2))),
    )
    r1 = LevelRing(spec, 1)
    b = r1.basis_upto(Fraction(3))
    all_monos = sum(b.values(), [])
    # x numerators 0..3 (scale 2, x^2 = 0), y exponents 0..1
    assert len(all_monos) == 8
    assert r1.basis(Fraction(3, 2)) == [(1, 1), (3, 0)]


def test_elem_mul_reduces():
    spec = _spec_one_var(a=2)
    r1 = LevelRing(spec, 1)
    t_half = {(1,): 1}
    x = r1.elem_mul(t_half, t_half)
    assert x == {(2,): 1}
    # t^(3/2) * t^(1/2) = t^2 = 0
    assert r1.elem_mul({(3,): 1}, t_half) == {}


def test_elem_add_cancels():
    spec = _spec_one_var()
    r0 = LevelRing(spec, 0)
    x = {(1,): 1}
    y = {(1,): -1, (0,): 2}
    assert r0.elem_add(x, y) == {(0,): 2}


def test_elem_weight():
    spec = _spec_one_var()
    r1 = LevelRing(spec, 1)
    assert r1.elem_weight({(2,): 1, (2,): 1}) == Fraction(1)
    assert r1.elem_weight({}) is None
    with pytest.raises(ValueError):
        r1.elem_weight({(1,): 1, (2,): 1})


def test_include_exp():
    spec = _spec_one_var(a=2)
    r0 = LevelRing(spec, 0)
    r1 = LevelRing(spec, 1)
    assert r0.include_exp((1,)) == (2,)
    assert r1.include_exp((3,)) == (6,)
    # the image keeps its weight
    assert r1.weight(r0.include_exp((1,))) == r0.weight((1,))


def test_make_level_ring_cached():
    spec = _spec_one_var()
    assert make_level_ring(spec, 2) is make_level_ring(spec, 2)


def test_format_mono():
    spec = RingSpec(
        field=QQ,
        root_base=2,
        variables=(VarInfo("x", True), VarInfo("y", False)),
    )
    assert format_mono(spec, (Fraction(1, 2), Fraction(0))) == "x^{1/2}"
    assert format_mono(spec, (Fraction(1), Fraction(2))) == "x*y^2"
    assert format_mono(spec, (Fraction(0), Fraction(0))) == "1"


def test_spec_validation():
    with pytest.raises(ValueError):
        RingSpec(field=QQ, root_base=1, variables=(VarInfo("x"),))
    with pytest.raises(ValueError):
        RingSpec(field=QQ, root_base=2, variables=(VarInfo("x"), VarInfo("x")))
    with pytest.raises(ValueError):
        RingSpec(
            field=QQ,
            root_base=2,
            variables=(VarInfo("x"),),
            truncations=((Fraction(1, 2),),),
        )
    with pytest.raises(ValueError):
        RingSpec(
            field=QQ,
            root_base=2,
            variables=(VarInfo("x"),),
            truncations=((Fraction(0),),),
        )


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=7))
def test_weight_additive_under_mul(n1, n2):
    spec = _spec_one_var(a=100)
    r1 = LevelRing(spec, 1)
    e = r1.mul_mono((n1,), (n2,))
    assert r1.weight(e) == r1.weight((n1,)) + r1.weight((n2,))


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=3))
def test_include_preserves_weight(level):
    spec = _spec_one_var(a=5)
    r = make_level_ring(spec, level)
    r_next = make_level_ring(spec, level + 1)
    for e in r.basis(Fraction(2)):
        assert r_next.weight(r.include_exp(e)) == r.weight(e)
