from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from idemq.fields import GF, QQ, field_from_name


def test_qq_basic_ops():
    # the arithmetic is Python's operators; the field only normalizes
    assert QQ.normalize(2 + 3) == 5
    assert QQ.normalize(2 * 3) == 6
    assert QQ.normalize(2 - 3) == -1
    assert QQ.normalize(-4) == -4
    assert QQ.inv(-1) == -1
    assert not QQ.normalize(Fraction(0, 7))
    assert QQ.normalize(Fraction(1, 7))


def test_qq_normalize_collapses_integral_fractions():
    v = QQ.normalize(Fraction(6, 3))
    assert v == 2 and isinstance(v, int)
    assert QQ.normalize(Fraction(1, 3)) == Fraction(1, 3)


FIELDS = [QQ, GF(2), GF(7), GF(2**31 - 1)]


@st.composite
def _field_and_scalar(draw):
    """A field and a scalar of it before normalizing: an int of any sign,
    and over Q also a Fraction, integral ones included."""
    field = draw(st.sampled_from(FIELDS))
    ints = st.integers()
    if field.char:
        return field, draw(ints)
    return field, draw(ints | st.fractions() | st.builds(Fraction, ints))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_field_and_scalar())
@example((QQ, -1))
@example((QQ, Fraction(6, 3)))
@example((QQ, Fraction(1, 7)))
@example((GF(7), -1))
@example((GF(7), 15))
@example((GF(7), 3))
@example((GF(2), 0))
def test_normalize_and_inv_keep_the_scalar_contract(field_scalar):
    # scalars are plain numbers combined with operators and reduced once
    # by normalize: it is idempotent, it lands in [0, p) over F_p and
    # gives an int for an integral Fraction over Q, its result is falsy
    # exactly at zero, and a nonzero scalar times its inverse is one
    field, a = field_scalar
    p = field.char
    v = field.normalize(a)
    w = field.normalize(v)
    assert w == v and type(w) is type(v)
    if p:
        assert type(v) is int and 0 <= v < p and (v - a) % p == 0
    else:
        assert v == a
        assert type(v) is (Fraction if a.denominator != 1 else int)
    assert bool(v) == (a % p != 0 if p else a != 0)
    if v:
        s = field.inv(v)
        assert field.normalize(v * s) == field.one
        if p:
            assert 0 <= s < p
        elif v in (1, -1):
            assert s == v and type(s) is int


def test_gfp_ops():
    F = GF(7)
    assert F.normalize(5 + 4) == 2
    assert F.normalize(2 - 5) == 4
    assert F.normalize(3 * 5) == 1
    assert F.inv(3) == 5
    assert F.normalize(-1) == 6
    assert F.normalize(15) == 1
    assert F.normalize(-0) == 0
    assert F.normalize(-2) == 5


def test_gfp_rejects_composite():
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        GF(1)


def test_gfp_primality_is_miller_rabin():
    for p in (2, 3, 7, 2**61 - 1):
        assert GF(p).p == p
    # 561 is a Carmichael number; 3215031751 is a strong pseudoprime to
    # the bases 2, 3, 5 and 7
    for n in (0, 1, 4, 561, 3215031751, 2**61 + 1):
        with pytest.raises(ValueError):
            GF(n)
    with pytest.raises(ValueError, match="too large"):
        GF(2**89 - 1)


def test_gf_cached_and_eq():
    assert GF(7) is GF(7)
    assert GF(7) == GF(7)
    assert GF(7) != GF(11)


def test_field_from_name():
    assert field_from_name("Q") is QQ
    assert field_from_name("F7").p == 7
    with pytest.raises(ValueError):
        field_from_name("R")
