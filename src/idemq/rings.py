"""Truncated monoid algebras and their root-adjunction levels.

A ring spec fixes a field K, a root base r, variables (each optionally
divisible), and truncation monomials. Level l is the K-algebra on monomials
T_i^{e_i / r^l} (divisible vars; integer exponents otherwise) modulo the
monomial ideal generated by the truncations. Exponents at a level are kept
as integer numerators against per-variable scales, and every weight strand
is a finite monomial basis.

Inside a level every weight is an integer over one denominator, `denom`
(r^l when some variable is divisible, else 1): weight w is n = w * denom,
and the basis store (`basis_at`, `basis_upto`) takes and is keyed by n.
Its position table `pos` maps each listed monomial to its place in its
weight's list, which a wider walk does not move.
Fractions are the weights where levels meet (cells, tables, generator
lists); `num` and `num_floor` turn one into its integer.

Inside a level a monomial is one int, its packed exponent vector
(Monagan-Pearce): one `bits`-wide field per variable, variable 0 most
significant, each below `cap`, so integer order is exponent-tuple order.
The top bit of a field is a guard bit no stored monomial sets, so `+` of
two stored monomials never carries between fields: a product is a sum,
and t divides e exactly when ((e | G) - t) & G == G, G the guard mask
(`divides_any`). Ring elements are {packed monomial: scalar} dicts;
monomials killed by the truncation ideal are dropped on reduction. Tuples
stay at the edges (pack/unpack, exp_of, weight, include_exp, spec I/O); a
live exponent at or above the cap raises ValueError, it never carries.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

Exponents = tuple[int, ...]  # numerators at a level, one per variable
Mono = int  # a packed monomial at a level (see the module docstring)
FracMono = tuple[Fraction, ...]  # level-free monomial, one exponent per var
Elem = dict  # {Mono: scalar}

# the most exponent vectors one basis_upto may walk (about 1 s and 50 MB
# for two variables): 32 times the largest box the test suite and the
# benchmark workloads ask for, 65,537 for one variable and 37,249 for two
BASIS_BOX_MAX = 1 << 21


class VarInfo(NamedTuple):
    name: str
    divisible: bool = False


class _RingSpecFields(NamedTuple):
    field: object
    root_base: int
    variables: tuple[VarInfo, ...]
    truncations: tuple[FracMono, ...] = ()


class RingSpec(_RingSpecFields):
    # a NamedTuple body cannot define __new__, so the checks live here
    __slots__ = ()

    def __new__(cls, field, root_base, variables, truncations=()):
        self = super().__new__(cls, field, root_base, variables, truncations)
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
        return self

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


def root_exponent(q: int, r: int) -> Optional[int]:
    """The k with r**k == q, or None when q is no power of r."""
    k = 0
    while q % r == 0:
        q //= r
        k += 1
    return k if q == 1 else None


def divides_any(e: Mono, gens, guard: int) -> bool:
    """Whether some stored monomial of gens divides e: field i of
    (e | guard) - t is 2^(bits-1) + e_i - t_i, in [1, 2^bits), so it borrows
    nothing and keeps its guard bit exactly when e_i >= t_i."""
    eg = e | guard
    for t in gens:
        if (eg - t) & guard == guard:
            return True
    return False


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
        self.units = tuple(self.denom // s for s in self.scales)  # weight of one numerator step
        self.nvars = spec.nvars
        self.bits = self.denom.bit_length() + 16  # every weight below 2^15 fits
        self.cap = 1 << (self.bits - 1)  # every stored exponent lies below it
        self.shifts = tuple(self.bits * i for i in reversed(range(self.nvars)))
        self.guard = sum(self.cap << s for s in self.shifts)
        # the variables at numerator 1, which generate the ideal that cuts K out of R
        self.var_monos: tuple[Mono, ...] = tuple(1 << s for s in self.shifts)
        self.trunc_exps: tuple[Exponents, ...] = tuple(
            self.numerators(t) for t in spec.truncations
        )
        # a truncation with an exponent at or above the cap divides no
        # monomial that fits, so the packed test leaves it out
        self.trunc_monos = tuple(self.pack(t) for t in self.trunc_exps if self.fits(t))
        self.unit: Mono = 0
        # integer weight -> monomials of that weight, complete up to _basis_top
        self._basis: dict[int, list[Mono]] = {}
        self._basis_top = -1
        # monomial -> its position in its weight's list, for every listed one
        self.pos: dict[Mono, int] = {}
        self._up: Optional[LevelRing] = None  # level l+1, for include_exp

    # ---------- monomials ----------

    def fits(self, e: Exponents) -> bool:
        return all(0 <= n < self.cap for n in e)

    def pack(self, e: Exponents) -> Mono:
        if not self.fits(e):
            raise ValueError(f"exponent too large for a {self.bits}-bit field: {tuple(e)}")
        return sum(n << s for n, s in zip(e, self.shifts))

    def unpack(self, e: Mono) -> Exponents:
        """The numerators of e, also of a sum of two stored monomials."""
        mask = (1 << self.bits) - 1
        return tuple((e >> s) & mask for s in self.shifts)

    def weight(self, e: Mono) -> Fraction:
        return Fraction(sum(n * u for n, u in zip(self.unpack(e), self.units)), self.denom)

    def num(self, w) -> Optional[int]:
        """The integer n with w = n / denom: the weight w as this level
        names it, or None when w lies off the level's weight lattice. A
        level-free weight (a generator's, a cell's) is converted here once,
        at the edge of the level; inside it, strands, walks and caches are
        keyed by n alone."""
        n, rem = divmod(w.numerator * self.denom, w.denominator)
        return None if rem else n

    def num_floor(self, w) -> int:
        """The largest integer n with n / denom <= w: a weight cap as this
        level names it."""
        return w.numerator * self.denom // w.denominator

    def mono_is_zero(self, e: Mono) -> bool:
        """Whether a truncation divides e, a stored monomial or a sum of two."""
        if e & self.guard:
            return self._zero_beyond_cap(self.unpack(e))
        return divides_any(e, self.trunc_monos, self.guard)

    def _zero_beyond_cap(self, e) -> bool:
        """Numerators e, one at or above the cap: zero if a truncation
        divides them, else a live monomial no field holds."""
        if any(all(a >= b for a, b in zip(e, t)) for t in self.trunc_exps):
            return True
        raise ValueError(f"exponent too large for a {self.bits}-bit field: {tuple(e)}")

    def numerators(self, mono: FracMono) -> Exponents:
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

    def exp_of(self, mono: FracMono) -> Mono:
        """A level-free monomial, packed at this level."""
        return self.pack(self.numerators(mono))

    # ---------- elements ----------

    def one(self) -> Elem:
        return {self.unit: self.field.one}

    def elem_add(self, x: Elem, y: Elem) -> Elem:
        norm = self.field.normalize
        out = dict(x)
        for e, v in y.items():
            nv = norm(out.get(e, 0) + v)
            if nv:
                out[e] = nv
            else:
                out.pop(e, None)
        return out

    def elem_neg(self, x: Elem) -> Elem:
        norm = self.field.normalize
        return {e: norm(-v) for e, v in x.items()}

    def elem_mul(self, x: Elem, y: Elem) -> Elem:
        norm = self.field.normalize
        out: Elem = {}
        for e1, v1 in x.items():
            for e2, v2 in y.items():
                e = e1 + e2
                if self.mono_is_zero(e):
                    continue
                nv = norm(out.get(e, 0) + v1 * v2)
                if nv:
                    out[e] = nv
                else:
                    out.pop(e, None)
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

    def basis_upto(self, top: int) -> dict[int, list[Mono]]:
        """Monomial basis of the ring, bucketed by integer weight (see
        num), complete for integer weights <= top; it may hold heavier
        buckets. The walk visits every exponent vector of weight <= top,
        truncated or not, so a box that holds more than BASIS_BOX_MAX of
        them is refused with a ValueError before any is visited."""
        if top > self._basis_top:
            box = 1
            for u in self.units:
                box *= top // u + 1
            if box > BASIS_BOX_MAX:
                # above level 0 a lower level cap also keeps the walk small
                advice = f", or --max-level below {self.level}" if self.level else ""
                raise ValueError(
                    f"weight cap {Fraction(top, self.denom)} at level {self.level} spans"
                    f" {box} exponent vectors, above the limit of {BASIS_BOX_MAX};"
                    f" lower --weight-max{advice}"
                )
            buckets: dict[int, list[Mono]] = {}
            stack = [0] * self.nvars
            units, cap, shifts = self.units, self.cap, self.shifts

            def rec(i: int, acc: int, p: Mono, big: bool):
                if i == self.nvars:
                    if big:
                        self._zero_beyond_cap(stack)
                    elif not self.mono_is_zero(p):
                        buckets.setdefault(acc, []).append(p)
                    return
                n = 0
                while acc + n * units[i] <= top:
                    stack[i] = n
                    rec(i + 1, acc + n * units[i], p + (n << shifts[i]), big or n >= cap)
                    n += 1
                stack[i] = 0

            rec(0, 0, 0, False)
            pos = self.pos  # a wider walk lists each weight as before: positions stay
            for lst in buckets.values():
                lst.sort()
                pos.update(zip(lst, range(len(lst))))
            self._basis = buckets
            self._basis_top = top
        return self._basis

    def basis_at(self, n: int) -> list[Mono]:
        """Monomials of integer weight n (weight n / denom)."""
        if n > self._basis_top:
            self.basis_upto(n)
        return self._basis.get(n, [])

    # ---------- level maps ----------

    def include_exp(self, e: Mono) -> Mono:
        """Image of a monomial under R(l) -> R(l+1), packed at level l+1."""
        up = self._up = self._up or make_level_ring(self.spec, self.level + 1)
        r = self.spec.root_base
        return up.pack(
            [n * r if v.divisible else n for n, v in zip(self.unpack(e), self.spec.variables)]
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
