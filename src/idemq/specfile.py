"""Problem spec files: a line-oriented, diffable grammar.

    field Q | Fp <p>
    root_base <r>
    var <name> [divisible]
    truncate <monomial>[, ...]
    ideal <word>[+<word>...] = roots(<var>) | <monomial> [, ...]
    set <key> <value>

An ideal name is one or more words joined by `+` (`I`, `I+J`), the form
of an exterior sum's default name (IDEAL_NAME), and the only form
`exterior-sum --name` accepts. Monomials are products of factors `x`,
`x^2`, `x^{1/2}`, separated by spaces or `*`; a bare `1` is the empty
monomial. Lines may carry `#` comments. Declarations can appear in any
order; monomials are resolved once all variables are known, errors point
at the offending line. A `set` value below its setting's minimum
(MINIMUM, which the flags share) is refused as the spec is parsed, with
the message the flag would give, naming the setting: a spec is valid or
not whatever the command and its flags.
emit_spec(parse_spec(text)) is canonical and parses back to an
identical spec.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional

from .fields import QQ, field_from_name
from .ideals import IdealFamily
from .rings import FracMono, RingSpec, VarInfo, format_mono, root_exponent

# settings understood by the command layer; weight_max is a fraction,
# the rest are integers
_SETTINGS = {
    "deg_max": int,
    "weight_max": Fraction,
    "max_level": int,
    "window": int,
    "amitsur_depth": int,
}
# least value of each setting, whether given as a `set` line or a flag
# (n_max is a flag only); weight_max must lie strictly above its bound
MINIMUM = {
    "deg_max": 0, "max_level": 1, "window": 1, "n_max": 1, "weight_max": 0, "amitsur_depth": 1,
}


def check_setting(where: str, key: str, value) -> None:
    """Refuse a value below the setting's minimum; where names the `set`
    line or the flag that gave it."""
    low, strict = MINIMUM[key], key == "weight_max"
    if value < low or (strict and value == low):
        need = "greater than" if strict else "at least"
        raise ValueError(f"{where} must be {need} {low}, got {value}")


class SpecError(ValueError):
    def __init__(self, line: int, msg: str):
        super().__init__(f"line {line}: {msg}")
        self.line = line
        self.msg = msg


class ProblemSpec:
    """A parsed spec file: the ring, its named ideals and its settings.
    Two specs are equal when all three are, as emit_spec's round trip
    needs."""

    __slots__ = ("ring", "ideals", "settings")

    def __init__(
        self,
        ring: RingSpec,
        ideals: Optional[dict[str, IdealFamily]] = None,
        settings: Optional[dict[str, object]] = None,
    ):
        self.ring = ring
        self.ideals = {} if ideals is None else ideals
        self.settings = {} if settings is None else settings

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.ring, self.ideals, self.settings) == (other.ring, other.ideals, other.settings)


# ---------- parsing ----------

_NAME = r"[A-Za-z_]\w*"  # a variable name, as a monomial factor can spell it
IDEAL_NAME = re.compile(r"\w+(?:\+\w+)*")  # an ideal name, to fullmatch
_FACTOR = re.compile(rf"^({_NAME})(?:\^(.+))?$")
_ROOTS = re.compile(rf"^roots\(\s*({_NAME})\s*\)$")


def _parse_exponent(tok: str, line: int) -> Fraction:
    t = tok.strip()
    if t.startswith("{") and t.endswith("}"):
        t = t[1:-1].strip()
    try:
        e = Fraction(t)
    except (ValueError, ZeroDivisionError):
        raise SpecError(line, f"bad exponent {tok!r}") from None
    if e < 0:
        raise SpecError(line, "exponents must be nonnegative")
    return e


def _parse_monomial(
    text: str, spec_vars: list[VarInfo], root_base: int, line: int
) -> FracMono:
    names = {v.name: i for i, v in enumerate(spec_vars)}
    exps = [Fraction(0)] * len(spec_vars)
    if text.strip() == "1":
        # the empty monomial, as format_monomial writes it
        return tuple(exps)
    for tok in re.split(r"[\s*]+", text.strip()):
        if not tok:
            continue
        m = _FACTOR.match(tok)
        if m is None:
            raise SpecError(line, f"bad monomial factor {tok!r}")
        name, etok = m.group(1), m.group(2)
        if name not in names:
            raise SpecError(line, f"unknown variable {name!r}")
        e = Fraction(1) if etok is None else _parse_exponent(etok, line)
        i = names[name]
        if spec_vars[i].divisible:
            if root_exponent(e.denominator, root_base) is None:
                raise SpecError(line, f"denominator not a power of {root_base}")
        elif e.denominator != 1:
            raise SpecError(
                line, f"variable {name!r} is not divisible; integer exponents only"
            )
        exps[i] += e
    return tuple(exps)


def parse_spec(text: str) -> ProblemSpec:
    field_obj = None
    root_base = None
    variables: list[VarInfo] = []
    trunc_raw: list[tuple[str, int]] = []
    ideal_raw: list[tuple[str, str, int]] = []
    settings: dict[str, object] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "field":
            if field_obj is not None:
                raise SpecError(lineno, "duplicate field line")
            tok = rest.strip()
            if tok.startswith("Fp"):
                tok = "F" + tok[2:].strip()
            try:
                field_obj = field_from_name(tok)
            except ValueError as e:
                raise SpecError(lineno, str(e)) from None
        elif head == "root_base":
            if root_base is not None:
                raise SpecError(lineno, "duplicate root_base line")
            try:
                root_base = int(rest)
            except ValueError:
                raise SpecError(lineno, f"bad root_base {rest!r}") from None
            if root_base < 2:
                raise SpecError(lineno, "root_base must be >= 2")
        elif head == "var":
            parts = rest.split()
            if not parts or len(parts) > 2 or (len(parts) == 2 and parts[1] != "divisible"):
                raise SpecError(lineno, "expected: var <name> [divisible]")
            if not re.fullmatch(_NAME, parts[0]):
                raise SpecError(
                    lineno, f"bad variable name {parts[0]!r}: a letter or _, then letters, digits or _"
                )
            if any(v.name == parts[0] for v in variables):
                raise SpecError(lineno, f"duplicate variable {parts[0]!r}")
            variables.append(VarInfo(parts[0], len(parts) == 2))
        elif head == "truncate":
            for item in rest.split(","):
                trunc_raw.append((item.strip(), lineno))
        elif head == "ideal":
            name, eq, items = rest.partition("=")
            name = name.strip()
            if not eq or not IDEAL_NAME.fullmatch(name):
                raise SpecError(lineno, "expected: ideal <name> = <items>")
            if any(n == name for n, _, _ in ideal_raw):
                raise SpecError(lineno, f"duplicate ideal {name!r}")
            ideal_raw.append((name, items.strip(), lineno))
        elif head == "set":
            key, _, val = rest.partition(" ")
            if key not in _SETTINGS:
                raise SpecError(
                    lineno, f"unknown setting {key!r}; known: {', '.join(sorted(_SETTINGS))}"
                )
            if key in settings:
                raise SpecError(lineno, f"duplicate setting {key!r}")
            try:
                settings[key] = _SETTINGS[key](val.strip())
            except (ValueError, ZeroDivisionError):
                raise SpecError(lineno, f"bad value for {key}: {val.strip()!r}") from None
            check_setting(f"set {key}", key, settings[key])
        else:
            raise SpecError(lineno, f"unknown directive {head!r}")

    if field_obj is None:
        field_obj = QQ
    if root_base is None:
        root_base = 2

    truncations = []
    for item, lineno in trunc_raw:
        mono = _parse_monomial(item, variables, root_base, lineno)
        if any(e.denominator != 1 for e in mono):
            raise SpecError(lineno, "truncation exponents must be nonnegative integers")
        if not any(mono):
            raise SpecError(lineno, "cannot truncate by the unit monomial")
        truncations.append(mono)
    ring = RingSpec(field_obj, root_base, tuple(variables), tuple(truncations))

    ideals: dict[str, IdealFamily] = {}
    for name, items, lineno in ideal_raw:
        root_vars: list[int] = []
        gens: list[FracMono] = []
        for item in items.split(","):
            item = item.strip()
            if not item:
                continue
            rm = _ROOTS.match(item)
            if rm is not None:
                vname = rm.group(1)
                idx = next(
                    (i for i, v in enumerate(variables) if v.name == vname), None
                )
                if idx is None:
                    raise SpecError(lineno, f"unknown variable {vname!r}")
                if not variables[idx].divisible:
                    raise SpecError(lineno, "roots(...) needs a divisible variable")
                root_vars.append(idx)
            else:
                gens.append(_parse_monomial(item, variables, root_base, lineno))
        try:
            ideals[name] = IdealFamily(
                name=name, spec=ring, root_vars=tuple(root_vars), gens=tuple(gens)
            )
        except ValueError as e:
            raise SpecError(lineno, str(e)) from None

    return ProblemSpec(ring=ring, ideals=ideals, settings=settings)


# ---------- emission ----------


def format_monomial(mono: FracMono, ring: RingSpec) -> str:
    return format_mono(ring, mono, sep=" ")


def emit_spec(ps: ProblemSpec) -> str:
    ring = ps.ring
    out = []
    out.append("field Q" if ring.field == QQ else f"field Fp {ring.field.p}")
    out.append(f"root_base {ring.root_base}")
    for v in ring.variables:
        out.append(f"var {v.name} divisible" if v.divisible else f"var {v.name}")
    for t in ring.truncations:
        out.append(f"truncate {format_monomial(t, ring)}")
    for name, fam in ps.ideals.items():
        items = [f"roots({ring.variables[i].name})" for i in fam.root_vars]
        items += [format_monomial(g, ring) for g in fam.gens]
        out.append(f"ideal {name} = {', '.join(items)}")
    for key in sorted(ps.settings):
        out.append(f"set {key} {ps.settings[key]}")
    return "\n".join(out) + "\n"
