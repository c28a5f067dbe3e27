"""The Amitsur totalization Tot^m against its Morse reduction.

amitsur_crosscheck reads Tot^m as the tower stage Q(m + 1) (the proof
is in `amitsur`'s module docstring). The oracle route builds Tot^m
itself (oracles.amitsur_tot_family); these tests walk both over the
levels the check reads and require the same cell results, and count
the critical cells of the matching against Q(m + 1)'s generators. Below
the level cap the check judges the reference's cells first; each of
them, judged alone, must be judged as the full walk judges it.
"""

from collections import Counter
from fractions import Fraction

import pytest

from idemq import derived
from idemq.amitsur import _tot_lifetime
from idemq.derived import Bounds, Tower, default_bounds, level_range, quotient_homotopy
from idemq.rings import make_level_ring
from idemq.specfile import parse_spec
from oracles import amitsur_level, amitsur_tot_family

T = "var t divisible\ntruncate t\nideal I = roots(t)"
XY = "var x divisible\nvar y divisible\ntruncate x y\nideal I = roots(x), roots(y)"

# two variables grow the strands fast with the level and weight
SMALL = Bounds(Fraction(3, 2), 4, 2)

# id -> (spec text, N, m, bounds or None for default_bounds(N))
ROUTE_CASES = {
    "t-0-2": (T, 0, 2, None),
    "t-1-3": (T, 1, 3, None),
    "t-2-4": (T, 2, 4, None),
    "t-3-5": (T, 3, 5, None),
    "t-3-6": (T, 3, 6, None),
    "t-plain": ("var t divisible\nideal I = roots(t)", 1, 3, None),
    "t2-root-base-3": (
        "root_base 3\nvar t divisible\ntruncate t^2\nideal I = roots(t)", 1, 3, None
    ),
    "t2-f2": ("field Fp 2\nvar t divisible\ntruncate t^2\nideal I = roots(t)", 1, 3, None),
    "xy-f7": ("field Fp 7\n" + XY, 1, 3, SMALL),
    "xy-q": (XY, 1, 3, SMALL),
    "x-roots-y-plain": (
        "var x divisible\nvar y\ntruncate x^2 y, y^2\nideal I = roots(x)", 1, 3, SMALL
    ),
    "xy-root-base-3-roots-y": (
        "root_base 3\nvar x divisible\nvar y divisible\ntruncate x^2, x y\n"
        "ideal I = roots(y)",
        1,
        3,
        Bounds(Fraction(3, 2), 3, 2),
    ),
    "xyz-f3": (
        "field Fp 3\nvar x divisible\nvar y divisible\nvar z divisible\n"
        "truncate x y z, z^2\nideal I = roots(x), roots(y), roots(z)",
        0,
        2,
        Bounds(Fraction(1), 3, 2),
    ),
}
CASES = pytest.mark.parametrize(
    "text,N,m,bounds", ROUTE_CASES.values(), ids=ROUTE_CASES.keys()
)


def _family(text):
    return parse_spec(text).ideals["I"]


@CASES
def test_morse_reduction_walks_like_the_totalization(text, N, m, bounds):
    # every top the level loop can try, each walked in full, with the
    # window amitsur_crosscheck widens to the junk lifetime
    family = _family(text)
    spec, l0 = family.spec, family.min_level()
    bounds = bounds or default_bounds(N)
    wmax = bounds.weight_max
    window = max(bounds.window, _tot_lifetime(m, spec.root_base))
    tot = amitsur_tot_family(spec, family, m, N, wmax)
    q = Tower(spec, family, N, wmax).Q(m + 1)
    for top in range(min(l0 + window, bounds.max_level), bounds.max_level + 1):
        levels = level_range(l0, top)
        want = tot.diagram(levels).run(range(N + 1), wmax, window)
        assert q.diagram(levels).run(range(N + 1), wmax, window) == want, top


def _matched(data, m):
    """(degree, weight) of each cell of Tot^m in a matched pair: w0 (x) a
    in column k >= 1, or a with no w0 in slot 0 in column k < m."""
    # at_w0[k][(i, g)]: generator g of internal degree i of column k has
    # w0 in slot 0
    at_w0 = [{(0, 0): True}]
    for index in data.indexes[1:]:
        below = at_w0[-1]
        at_w0.append({(p + q, g): below.get((p, i), False) for (p, i, q, _j), g in index.items()})
    cells = Counter()
    for d in data.tot.gens:
        for k, power in enumerate(data.powers):
            for g, w in enumerate(power.gens_at(d + k)):
                w0_first = at_w0[k].get((d + k, g), False)
                if (w0_first and k >= 1) or (not w0_first and k < m):
                    cells[(d, w)] += 1
    return cells


@CASES
def test_totalization_less_its_matched_pairs_is_the_morse_reduction(text, N, m, bounds):
    family = _family(text)
    spec = family.spec
    wmax = (bounds or default_bounds(N)).weight_max
    q = Tower(spec, family, N, wmax).Q(m + 1)
    for l in range(family.min_level(), family.min_level() + 2):
        data = amitsur_level(make_level_ring(spec, l), family, m, N, wmax)
        gens = Counter((d, w) for d, gl in data.tot.gens.items() for w in gl)
        matched = _matched(data, m)
        assert not matched - gens, l
        critical = gens - matched
        cone = Counter((d, w) for d, gl in q.at(l).gens.items() if d <= N + 1 for w in gl)
        assert critical == cone, l


@CASES
def test_a_reference_cell_judged_first_is_judged_as_the_walk_judges_it(
    text, N, m, bounds, monkeypatch
):
    # each reference cell, its neighbours on the top lattice and a weight
    # off it, is judged first and alone, on caches only the cells judged
    # before it have filled; a needed value of -1, which no cell has,
    # ends the walk right after it. It is judged as the full walk then
    # judges it, and left out exactly where that walk has no entry for it.
    family = _family(text)
    spec, l0 = family.spec, family.min_level()
    bounds = bounds or default_bounds(N)
    wmax = bounds.weight_max
    window = max(bounds.window, _tot_lifetime(m, spec.root_base))
    reference = quotient_homotopy(spec, family, N, bounds).table.cells
    q = Tower(spec, family, N, wmax).Q(m + 1)
    judged, judge = [], derived.judge_cell
    monkeypatch.setattr(derived, "judge_cell", lambda *a: judged.append(judge(*a)) or judged[-1])
    for top in range(min(l0 + window, bounds.max_level), bounds.max_level + 1):
        diagram = q.diagram(level_range(l0, top))
        half = Fraction(1, 2 * diagram.complexes[-1].ring.denom)
        alone = {}
        for d, w0 in reference:
            for w in (w0, w0 - 2 * half, w0 + 2 * half, w0 + half):
                judged.clear()
                with pytest.raises(derived._Unsettled):
                    diagram.run(range(N + 1), wmax, window, lambda r: True, {(d, w): -1})
                alone[(d, w)] = judged[:]
        walk = diagram.run(range(N + 1), wmax, window)
        assert alone == {c: [walk[c]] if c in walk else [] for c in alone}, top
