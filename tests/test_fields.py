from fractions import Fraction

import pytest

from idemq.fields import GF, QQ, field_from_name


def test_qq_basic_ops():
    assert QQ.add(2, 3) == 5
    assert QQ.mul(2, 3) == 6
    assert QQ.sub(2, 3) == -1
    assert QQ.neg(4) == -4
    assert QQ.inv(-1) == -1
    assert QQ.is_zero(0)
    assert not QQ.is_zero(Fraction(1, 7))


def test_qq_normalize_collapses_integral_fractions():
    v = QQ.normalize(Fraction(6, 3))
    assert v == 2 and isinstance(v, int)
    assert QQ.normalize(Fraction(1, 3)) == Fraction(1, 3)


def test_gfp_ops():
    F = GF(7)
    assert F.add(5, 4) == 2
    assert F.sub(2, 5) == 4
    assert F.mul(3, 5) == 1
    assert F.inv(3) == 5
    assert F.normalize(-1) == 6
    assert F.normalize(15) == 1
    assert F.neg(0) == 0
    assert F.neg(2) == 5
    assert F.from_int(-1) == 6


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
