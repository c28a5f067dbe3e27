"""Exact scalar arithmetic: the rationals and prime fields.

Scalars are plain Python numbers: int or Fraction over Q, int over F_p.
They are combined with the operators `+`, `-`, `*` and unary `-`, and
each result is reduced once by the field's `normalize`, which gives an
int in [0, p) over F_p and turns an integral Fraction back into an int
over Q. A normalized zero is the int 0, falsy in both fields, so a
vector drops an entry with `if v`. A field object holds only what the
operators cannot give: `normalize`, `inv` and `one`, with its
characteristic `char`. No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Scalar = Union[int, Fraction]


class RationalField:
    """The field Q. Scalars are int or Fraction; ints are kept as long as
    no division forces a Fraction (the common case in monomial complexes)."""

    char = 0
    one = 1

    @staticmethod
    def inv(a: Scalar) -> Scalar:
        if a == 1:
            return 1
        if a == -1:
            return -1
        return Fraction(1) / a

    @staticmethod
    def normalize(a: Scalar) -> Scalar:
        # collapse integral Fractions back to int so the int fast path stays hot
        if type(a) is Fraction and a.denominator == 1:
            return int(a)
        return a

    def __repr__(self) -> str:
        return "QQ"


# Miller-Rabin with the prime bases up to 41 decides primality exactly
# for every n below _MR_LIMIT (Sorenson and Webster, 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 0 <= n < _MR_LIMIT."""
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} is too large: primality is decided only below {_MR_LIMIT}")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """F_p for prime p. Scalars are ints in [0, p)."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.char = p
        self.one = 1

    def inv(self, a: int) -> int:
        return pow(a, -1, self.p)

    def normalize(self, a: int) -> int:
        return a % self.p

    def __repr__(self) -> str:
        return f"GF({self.p})"

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))


QQ = RationalField()

_GF_CACHE: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    f = _GF_CACHE.get(p)
    if f is None:
        f = _GF_CACHE[p] = PrimeField(p)
    return f


def field_from_name(name: str):
    """Parse a field spec string: "Q" or "Fp <p>" / "F<p>"."""
    t = name.strip()
    if t in ("Q", "QQ", "q"):
        return QQ
    if t.startswith("F"):
        try:
            return GF(int(t[1:]))
        except ValueError as e:
            raise ValueError(f"bad field name {name!r}: {e}") from None
    raise ValueError(f"bad field name {name!r}")
