"""Monomial ideal families over the level tower and their idempotency.

A family is a union of parts: a roots part contributes the generator
T^{1/r^l} at level l (requires a divisible variable), and fixed monomial
generators repeat at every level where they are defined. Exterior sums
juxtapose families, so one family may carry both kinds of part.

Idempotency (I*I = I in the colimit) is decidable exactly for monomial
families. A root generator factors into two generators one level deeper,
and a fixed generator g lies in I*I iff it either has positive exponent
on some roots variable (two arbitrarily small roots divide it) or
dominates the sum of two fixed generators. So every family gets a
verdict: Idempotent or NotIdempotent, never "unknown".
"""

from __future__ import annotations

from typing import NamedTuple

from .rings import FracMono, LevelRing, RingSpec, format_mono, root_exponent

# ---------- verdicts ----------


class Idempotent(NamedTuple):
    certificate: tuple[str, ...]  # one factorization per generator

    def __bool__(self) -> bool:
        return True


class NotIdempotent(NamedTuple):
    witness: str  # generator not in I*I

    def __bool__(self) -> bool:
        return False


# ---------- families ----------


class _IdealFamilyFields(NamedTuple):
    name: str
    spec: RingSpec
    root_vars: tuple[int, ...] = ()
    gens: tuple[FracMono, ...] = ()


class IdealFamily(_IdealFamilyFields):
    # a NamedTuple body cannot define __new__, so the checks live here
    __slots__ = ()

    def __new__(cls, name, spec, root_vars=(), gens=()):
        self = super().__new__(cls, name, spec, root_vars, gens)
        seen = set()
        for v in self.root_vars:
            if not (0 <= v < self.spec.nvars):
                raise ValueError("roots part needs a variable index")
            if not self.spec.variables[v].divisible:
                raise ValueError(
                    f"roots({self.spec.variables[v].name}) needs a divisible variable"
                )
            if v in seen:
                raise ValueError("duplicate roots variable")
            seen.add(v)
        for g in self.gens:
            if len(g) != self.spec.nvars:
                raise ValueError("generator arity mismatch")
            for f, v in zip(g, self.spec.variables):
                if f < 0:
                    raise ValueError("negative exponent in ideal generator")
                if not v.divisible and f.denominator != 1:
                    raise ValueError(
                        f"fractional exponent on non-divisible variable {v.name}"
                    )
                if v.divisible and root_exponent(f.denominator, self.spec.root_base) is None:
                    raise ValueError(
                        f"denominator of {f} is not a power of root_base"
                    )
        return self

    # -- level data --

    def min_level(self) -> int:
        """Lowest level where every generator has integral numerators."""
        spec = self.spec
        divs = (f for g in self.gens for f, v in zip(g, spec.variables) if v.divisible)
        return max((root_exponent(f.denominator, spec.root_base) for f in divs), default=0)

    def gens_at(self, ring: LevelRing) -> list:
        """Nonzero packed generators at a level (sorted, deduped)."""
        if ring.spec is not self.spec:
            raise ValueError("ring spec mismatch")
        exps = [ring.var_monos[v] for v in self.root_vars]  # numerator 1 = T^{1/r^level}
        # a generator that does not fit a field generates no storable monomial
        exps.extend(ring.pack(e) for e in map(ring.numerators, self.gens) if ring.fits(e))
        return sorted({e for e in exps if not ring.mono_is_zero(e)})


def roots_family(spec: RingSpec, varname: str, name: str = "I") -> IdealFamily:
    return IdealFamily(name=name, spec=spec, root_vars=(spec.var_index(varname),))


def fixed_family(spec: RingSpec, gens, name: str = "I") -> IdealFamily:
    return IdealFamily(name=name, spec=spec, gens=tuple(gens))


# ---------- idempotency ----------


def _dominates(a: FracMono, b: FracMono) -> bool:
    return all(x >= y for x, y in zip(a, b))


def _killed_by_truncation(spec: RingSpec, g: FracMono) -> bool:
    # truncation exponents are integers, so this is level-independent
    return any(_dominates(g, t) for t in spec.truncations)


def live_frac_gens(family: IdealFamily) -> list[FracMono]:
    """Fixed generators that survive truncation, minimal under divisibility."""
    gens = [g for g in family.gens if not _killed_by_truncation(family.spec, g)]
    gens = sorted(set(gens))
    out = []
    for g in gens:
        if not any(h != g and _dominates(g, h) for h in gens):
            out.append(g)
    return out


def check_idempotent(family: IdealFamily):
    """Decide whether the family satisfies I*I = I in the colimit; exact
    for monomial families."""
    spec = family.spec
    r = spec.root_base
    certs = []
    for v in family.root_vars:
        name = spec.variables[v].name
        certs.append(
            f"{name}^(1/r^(l+1)) * {name}^({r - 1}/r^(l+1)) at every level l"
        )

    gens = live_frac_gens(family)
    if not gens and not family.root_vars:
        return Idempotent(certificate=("zero ideal",))

    for g in gens:
        hit = None
        for v in family.root_vars:
            if g[v] > 0:
                name = spec.variables[v].name
                hit = f"two deep roots of {name}"
                break
        if hit is None:
            for i, a in enumerate(gens):
                for b in gens[i:]:
                    s = tuple(x + y for x, y in zip(a, b))
                    if _dominates(g, s):
                        hit = (
                            f"m * {format_mono(spec, a)} * {format_mono(spec, b)}"
                        )
                        break
                if hit:
                    break
        if hit is None:
            return NotIdempotent(witness=format_mono(spec, g))
        certs.append(f"{format_mono(spec, g)} = {hit}")
    return Idempotent(certificate=tuple(certs))
