import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idemq.fields import QQ
from idemq.rings import (
    LevelRing,
    RingSpec,
    VarInfo,
    divides_any,
    format_mono,
    make_level_ring,
    root_exponent,
)
from idemq.specfile import parse_spec
from oracles import basis


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
    assert r2.weight(r2.pack((3,))) == Fraction(3, 4)
    assert r2.exp_of((Fraction(1, 2),)) == r2.pack((2,))


def test_exp_of_rejects_undefined_level():
    spec = _spec_one_var()
    r1 = LevelRing(spec, 1)
    with pytest.raises(ValueError):
        r1.exp_of((Fraction(1, 4),))


def test_truncation_kills_monomials():
    spec = _spec_one_var(a=2)
    r1 = LevelRing(spec, 1)
    # t^2 at level 1 has numerator 4
    assert r1.mono_is_zero(r1.pack((4,)))
    assert r1.mono_is_zero(r1.pack((5,)))
    assert not r1.mono_is_zero(r1.pack((3,)))


def test_basis_strands():
    spec = _spec_one_var(a=2)
    r1 = LevelRing(spec, 1)
    b = r1.basis_upto(4)  # weight 2 at denom 2
    # numerators 0..3 survive t^2 = 0
    assert sorted(map(r1.unpack, sum(b.values(), []))) == [(0,), (1,), (2,), (3,)]
    assert basis(r1, Fraction(1, 2)) == [r1.pack((1,))]
    assert basis(r1, Fraction(2)) == []


def test_basis_cache_extends():
    spec = _spec_one_var(a=3)
    r0 = LevelRing(spec, 0)
    assert basis(r0, Fraction(1)) == [r0.pack((1,))]
    assert basis(r0, Fraction(2)) == [r0.pack((2,))]
    assert basis(r0, Fraction(3)) == []


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
    for e in map(r2.pack, ((1, 0), (3, 1), (0, 1), (7, 1))):
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
    assert basis(r1, Fraction(1, 4)) == []
    assert basis(r1, Fraction(1, 3)) == []
    assert basis(r1, Fraction(1, 2)) == [r1.pack((1, 0))]
    assert basis(r1, Fraction(3, 2)) == [r1.pack((1, 1)), r1.pack((3, 0))]
    # the store is keyed by integer weight over denom
    assert r1.basis_at(3) == basis(r1, Fraction(3, 2))
    assert set(r1.basis_upto(4)) == {0, 1, 2, 3, 4}


def test_two_var_basis_counts():
    spec = RingSpec(
        field=QQ,
        root_base=2,
        variables=(VarInfo("x", True), VarInfo("y", False)),
        truncations=((Fraction(2), Fraction(0)), (Fraction(0), Fraction(2))),
    )
    r1 = LevelRing(spec, 1)
    b = r1.basis_upto(6)  # weight 3 at denom 2
    all_monos = sum(b.values(), [])
    # x numerators 0..3 (scale 2, x^2 = 0), y exponents 0..1
    assert len(all_monos) == 8
    assert basis(r1, Fraction(3, 2)) == [r1.pack((1, 1)), r1.pack((3, 0))]


def test_elem_mul_reduces():
    spec = _spec_one_var(a=2)
    r1 = LevelRing(spec, 1)
    t_half = {r1.pack((1,)): 1}
    x = r1.elem_mul(t_half, t_half)
    assert x == {r1.pack((2,)): 1}
    # t^(3/2) * t^(1/2) = t^2 = 0
    assert r1.elem_mul({r1.pack((3,)): 1}, t_half) == {}


def test_elem_add_cancels():
    spec = _spec_one_var()
    r0 = LevelRing(spec, 0)
    t, one = r0.pack((1,)), r0.pack((0,))
    x = {t: 1}
    y = {t: -1, one: 2}
    assert r0.elem_add(x, y) == {one: 2}


def test_elem_weight():
    spec = _spec_one_var()
    r1 = LevelRing(spec, 1)
    assert r1.elem_weight({r1.pack((2,)): 1}) == Fraction(1)
    assert r1.elem_weight({}) is None
    with pytest.raises(ValueError):
        r1.elem_weight({r1.pack((1,)): 1, r1.pack((2,)): 1})


def test_include_exp():
    spec = _spec_one_var(a=2)
    r0 = LevelRing(spec, 0)
    r1 = LevelRing(spec, 1)
    r2 = LevelRing(spec, 2)
    assert r0.include_exp(r0.pack((1,))) == r1.pack((2,))
    assert r1.include_exp(r1.pack((3,))) == r2.pack((6,))
    # the image keeps its weight
    assert r1.weight(r0.include_exp(r0.pack((1,)))) == r0.weight(r0.pack((1,)))


def test_make_level_ring_cached():
    spec = _spec_one_var()
    assert make_level_ring(spec, 2) is make_level_ring(spec, 2)


def test_root_exponent():
    assert [root_exponent(q, 2) for q in (1, 2, 4, 16)] == [0, 1, 2, 4]
    assert root_exponent(27, 3) == 3
    assert root_exponent(3, 2) is None
    assert root_exponent(12, 2) is None


def test_format_mono():
    spec = RingSpec(
        field=QQ,
        root_base=2,
        variables=(VarInfo("x", True), VarInfo("y", False)),
    )
    assert format_mono(spec, (Fraction(1, 2), Fraction(0))) == "x^{1/2}"
    assert format_mono(spec, (Fraction(1), Fraction(2))) == "x*y^2"
    assert format_mono(spec, (Fraction(0), Fraction(0))) == "1"


F = Fraction
X, Y = VarInfo("x"), VarInfo("y")


@pytest.mark.parametrize(
    "args, message",
    [
        ((QQ, 1, (X,)), "root_base must be >= 2"),
        ((QQ, 2, (X, VarInfo("x", True))), "duplicate variable names"),
        ((QQ, 2, (X, Y), ((F(1),),)), "truncation arity mismatch"),
        ((QQ, 2, (X,), ((F(1, 2),),)), "truncation exponents must be nonnegative integers"),
        ((QQ, 2, (X,), ((F(-1),),)), "truncation exponents must be nonnegative integers"),
        ((QQ, 2, (X, Y), ((F(0), F(0)),)), "cannot truncate by the unit monomial"),
    ],
)
def test_spec_checks_its_fields_by_position_and_by_keyword(args, message):
    names = ("field", "root_base", "variables", "truncations")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        RingSpec(*args)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        RingSpec(**dict(zip(names, args)))


def test_two_parses_of_a_spec_give_equal_hashable_rings():
    text = "field Fp 7\nroot_base 3\nvar x divisible\nvar y\ntruncate x^2, y^3\n"
    a, b = parse_spec(text).ring, parse_spec(text).ring
    assert a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert a != parse_spec(text.replace("y^3", "y^4")).ring
    assert a.variables == (VarInfo("x", True), VarInfo("y", False))


def test_ring_records_are_frozen():
    spec = _spec_one_var()
    with pytest.raises(AttributeError):
        spec.root_base = 3
    with pytest.raises(AttributeError):
        spec.nvars = 2
    with pytest.raises(AttributeError):
        spec.levels = ()  # no attribute beyond the fields either
    with pytest.raises(AttributeError):
        spec.variables[0].divisible = False
    assert spec.root_base == 2 and spec.variables[0].divisible


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
    a, b = r1.pack((n1,)), r1.pack((n2,))
    assert r1.weight(a + b) == r1.weight(a) + r1.weight(b)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=3))
def test_include_preserves_weight(level):
    spec = _spec_one_var(a=5)
    r = make_level_ring(spec, level)
    r_next = make_level_ring(spec, level + 1)
    for e in basis(r, Fraction(2)):
        assert r_next.weight(r.include_exp(e)) == r.weight(e)


# ---------- packed monomials ----------


@st.composite
def _ring_and_exponents(draw):
    """A level ring (1-3 variables, divisible or not, r in {2, 3}, levels
    0-3) and two exponent tuples below its field cap; the second shares
    some fields with the first, so ties are drawn."""
    nvars = draw(st.integers(min_value=1, max_value=3))
    variables = tuple(VarInfo(f"v{i}", draw(st.booleans())) for i in range(nvars))
    spec = RingSpec(field=QQ, root_base=draw(st.sampled_from((2, 3))), variables=variables)
    ring = LevelRing(spec, draw(st.integers(min_value=0, max_value=3)))
    field = st.integers(min_value=0, max_value=ring.cap - 1)
    a = tuple(draw(field) for _ in range(nvars))
    b = tuple(n if draw(st.booleans()) else draw(field) for n in a)
    return ring, a, b


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_ring_and_exponents())
def test_packing_keeps_order_products_divisibility_levels_and_weights(case):
    ring, a, b = case
    pa, pb = ring.pack(a), ring.pack(b)
    # injective and order-preserving
    assert ring.unpack(pa) == a and ring.unpack(pb) == b
    assert (pa == pb) == (a == b)
    assert (pa < pb) == (a < b)
    # a product is a sum with no carry between fields
    s = tuple(x + y for x, y in zip(a, b))
    assert ring.unpack(pa + pb) == s
    if ring.fits(s):
        assert pa + pb == ring.pack(s)
    else:
        assert (pa + pb) & ring.guard
    # the mask test is tuple dominance, ties included
    assert divides_any(pa, (pb,), ring.guard) == all(x >= y for x, y in zip(a, b))
    assert divides_any(pb, (pa,), ring.guard) == all(y >= x for x, y in zip(a, b))
    # level inclusion commutes with packing
    up = LevelRing(ring.spec, ring.level + 1)
    r = ring.spec.root_base
    scaled = tuple(n * r if v.divisible else n for n, v in zip(a, ring.spec.variables))
    if up.fits(scaled):
        assert ring.include_exp(pa) == up.pack(scaled)
    else:
        with pytest.raises(ValueError, match="exponent too large"):
            ring.include_exp(pa)
    assert ring.weight(pa) == sum(Fraction(n, sc) for n, sc in zip(a, ring.scales))


def test_exponents_at_or_beyond_the_cap():
    plain = LevelRing(_spec_one_var(a=2**40, divisible=False), 0)
    cap = plain.cap
    # a truncation that does not fit kills no monomial that does
    assert plain.trunc_monos == ()
    assert not plain.mono_is_zero(plain.pack((cap - 1,)))
    with pytest.raises(ValueError, match="exponent too large"):
        plain.exp_of((Fraction(cap),))
    top = plain.pack((cap - 1,))
    # a product beyond the cap that no truncation kills cannot be stored
    with pytest.raises(ValueError, match="exponent too large"):
        plain.mono_is_zero(top + top)
    with pytest.raises(ValueError, match="exponent too large"):
        plain.basis_upto(cap)  # level 0: denom 1
    # one that a truncation kills is zero, also when that truncation does not fit
    at_cap = LevelRing(_spec_one_var(a=cap, divisible=False), 0)
    assert at_cap.trunc_monos == ()
    assert at_cap.mono_is_zero(top + top)
    assert basis(at_cap, Fraction(cap)) == []
    assert basis(at_cap, Fraction(cap - 1)) == [top]


def test_a_basis_box_too_wide_above_level_zero_names_the_level_cap():
    # three untruncated divisible variables at level 5 and weight 4: the
    # walk would visit (4 * 32 + 1)^3 exponent vectors; the same weight
    # cap fits at level 4, so the advice names the level cap too
    spec = RingSpec(QQ, 2, tuple(VarInfo(v, True) for v in "xyz"))
    ring = LevelRing(spec, 5)
    with pytest.raises(ValueError) as exc:
        ring.basis_upto(4 * ring.denom)
    assert str(exc.value) == (
        "weight cap 4 at level 5 spans 2146689 exponent vectors, above the limit of"
        " 2097152; lower --weight-max, or --max-level below 5"
    )
    LevelRing(spec, 4).basis_upto(4 * 16)
