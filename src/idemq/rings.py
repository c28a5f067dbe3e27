"""Truncated monoid algebras and their root-adjunction levels.

A ring spec fixes a field K, a root base r, variables (each optionally
divisible), and truncation monomials. Level l is the K-algebra on monomials
T_i^{e_i / r^l} (divisible vars; integer exponents otherwise) modulo the
monomial ideal generated by the truncations. Exponents at a level are kept
as integer numerators against per-variable scales, and every weight strand
is a finite monomial basis.

Inside a level every weight is an integer over one denominator, `denom`
(r^l when some variable is divisible, else 1): `num(w)` is that integer,
and the level's basis store is keyed by it. Fractions are the weights
where levels meet (cells, tables, generator lists); `basis(w)` and
`basis_upto(wmax)` take one and convert it once.

Ring elements are {exponent tuple: scalar} dicts; monomials killed by the
truncation ideal are dropped on reduction.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

Exponents = tuple[int, ...]
FracMono = tuple[Fraction, ...]  # level-free monomial, one exponent per var
Elem = dict  # {Exponents: scalar}


@dataclass(frozen=True)
class VarInfo:
    name: str
    divisible: bool = False


@dataclass(frozen=True)
class RingSpec:
    field: object
    root_base: int
    variables: tuple[VarInfo, ...]
    truncations: tuple[FracMono, ...] = ()

    def __post_init__(self):
        if self.root_base < 2:
            raise ValueError("root_base must be >= 2")
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        for t in self.truncations:
            if len(t) != len(self.variables):
                raise ValueError("truncation arity mismatch")
            for f in t:
                if f.denominator != 1 or f < 0:
                    raise ValueError("truncation exponents must be nonnegative integers")
            if all(f == 0 for f in t):
                raise ValueError("cannot truncate by the unit monomial")

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def var_index(self, name: str) -> int:
        for i, v in enumerate(self.variables):
            if v.name == name:
                return i
        raise KeyError(f"no variable named {name!r}")


def format_mono(spec: RingSpec, mono: FracMono, sep: str = "*") -> str:
    parts = []
    for v, f in zip(spec.variables, mono):
        if f == 0:
            continue
        if f == 1:
            parts.append(v.name)
        elif f.denominator == 1:
            parts.append(f"{v.name}^{f}")
        else:
            parts.append(f"{v.name}^{{{f}}}")
    return sep.join(parts) if parts else "1"


class LevelRing:
    """One level of the root tower over a RingSpec."""

    def __init__(self, spec: RingSpec, level: int):
        if level < 0:
            raise ValueError("level must be >= 0")
        self.spec = spec
        self.level = level
        self.field = spec.field
        r = spec.root_base
        self.scales: tuple[int, ...] = tuple(
            r**level if v.divisible else 1 for v in spec.variables
        )
        self.denom: int = r**level if any(v.divisible for v in spec.variables) else 1
        self.trunc_exps: tuple[Exponents, ...] = tuple(
            tuple(int(f) * s for f, s in zip(t, self.scales))
            for t in spec.truncations
        )
        self.nvars = spec.nvars
        self.unit: Exponents = (0,) * self.nvars
        # integer weight -> monomials of that weight, complete up to _basis_top
        self._basis: dict[int, list[Exponents]] = {}
        self._basis_top = -1

    # ---------- monomials ----------

    def weight(self, e: Exponents) -> Fraction:
        w = Fraction(0)
        for n, s in zip(e, self.scales):
            w += Fraction(n, s)
        return w

    def num(self, w) -> Optional[int]:
        """The integer n with w = n / denom, or None when w lies off this
        level's weight lattice."""
        n, rem = divmod(w.numerator * self.denom, w.denominator)
        return None if rem else n

    def mono_is_zero(self, e: Exponents) -> bool:
        for t in self.trunc_exps:
            if all(a >= b for a, b in zip(e, t)):
                return True
        return False

    def mul_mono(self, a: Exponents, b: Exponents) -> Exponents:
        return tuple(map(operator.add, a, b))

    def exp_of(self, mono: FracMono) -> Exponents:
        """Numerators of a level-free monomial at this level."""
        out = []
        for f, s in zip(mono, self.scales):
            n = f * s
            if n.denominator != 1:
                raise ValueError(
                    f"exponent {f} not defined at level {self.level} (scale {s})"
                )
            out.append(int(n))
        return tuple(out)

    # ---------- elements ----------

    def one(self) -> Elem:
        return {self.unit: self.field.one}

    def elem_add(self, x: Elem, y: Elem) -> Elem:
        F = self.field
        out = dict(x)
        for e, v in y.items():
            nv = F.normalize(F.add(out.get(e, F.zero), v))
            if F.is_zero(nv):
                out.pop(e, None)
            else:
                out[e] = nv
        return out

    def elem_neg(self, x: Elem) -> Elem:
        F = self.field
        return {e: F.neg(v) for e, v in x.items()}

    def elem_mul(self, x: Elem, y: Elem) -> Elem:
        F = self.field
        out: Elem = {}
        for e1, v1 in x.items():
            for e2, v2 in y.items():
                e = self.mul_mono(e1, e2)
                if self.mono_is_zero(e):
                    continue
                nv = F.normalize(F.add(out.get(e, F.zero), F.mul(v1, v2)))
                if F.is_zero(nv):
                    out.pop(e, None)
                else:
                    out[e] = nv
        return out

    def elem_weight(self, x: Elem) -> Optional[Fraction]:
        """Common weight of a homogeneous element, None for 0."""
        ws = {self.weight(e) for e in x}
        if not ws:
            return None
        if len(ws) > 1:
            raise ValueError("element is not weight-homogeneous")
        return ws.pop()

    # ---------- weight strands ----------

    def basis_upto(self, wmax: Fraction) -> dict[int, list[Exponents]]:
        """Monomial basis of the ring, bucketed by integer weight (see
        num), complete for weights <= wmax; it may hold heavier buckets."""
        top = wmax.numerator * self.denom // wmax.denominator
        if top > self._basis_top:
            buckets: dict[int, list[Exponents]] = {}
            stack = [0] * self.nvars
            units = [self.denom // s for s in self.scales]  # weight of one numerator step

            def rec(i: int, acc: int):
                if i == self.nvars:
                    e = tuple(stack)
                    if not self.mono_is_zero(e):
                        buckets.setdefault(acc, []).append(e)
                    return
                n = 0
                while acc + n * units[i] <= top:
                    stack[i] = n
                    rec(i + 1, acc + n * units[i])
                    n += 1
                stack[i] = 0

            rec(0, 0)
            for lst in buckets.values():
                lst.sort()
            self._basis = buckets
            self._basis_top = top
        return self._basis

    def basis_at(self, n: int) -> list[Exponents]:
        """Monomials of integer weight n (weight n / denom)."""
        if n > self._basis_top:
            self.basis_upto(Fraction(n, self.denom))
        return self._basis.get(n, [])

    def basis(self, w: Fraction) -> list[Exponents]:
        """Monomials of weight w; none when w is off this level's lattice."""
        n = self.num(w)
        return [] if n is None else self.basis_at(n)

    # ---------- level maps ----------

    def include_exp(self, e: Exponents) -> Exponents:
        """Image of a monomial under R(l) -> R(l+1)."""
        r = self.spec.root_base
        return tuple(
            n * r if v.divisible else n
            for n, v in zip(e, self.spec.variables)
        )

    def __repr__(self) -> str:
        return f"<LevelRing level={self.level} of {_spec_brief(self.spec)}>"


def _spec_brief(spec: RingSpec) -> str:
    vs = ",".join(
        v.name + ("~" if v.divisible else "") for v in spec.variables
    )
    ts = ",".join(format_mono(spec, t) for t in spec.truncations)
    return f"K[{vs}]/({ts})" if ts else f"K[{vs}]"


_RING_CACHE: dict[tuple[int, int], LevelRing] = {}


def make_level_ring(spec: RingSpec, level: int) -> LevelRing:
    key = (id(spec), level)
    r = _RING_CACHE.get(key)
    if r is None or r.spec is not spec:
        r = _RING_CACHE[key] = LevelRing(spec, level)
    return r
