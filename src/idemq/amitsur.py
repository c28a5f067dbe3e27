"""The Amitsur cross-check of R/I^infty.

The truncated, normalized Amitsur totalization of R -> R/I is a level
family (_amitsur_family) whose stabilized homology must agree with
quotient_homotopy degree by degree (amitsur_crosscheck). It is read
through the level loop of `derived` (settle), which it shares with
`tor` and `tower`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple, Optional

from .complexes import (
    ChainMap,
    FreeComplex,
    TensorIndex,
    identity_map,
    lift_chain_map,
    minimal_resolution,
    tensor_complexes,
    tensor_maps,
)
from .derived import (
    Bounds,
    Family,
    QuotientHomotopy,
    StabilizedTable,
    default_bounds,
    family_contains_unit,
    make_table,
    quotient_homotopy,
    settle,
)
from .ideals import IdealFamily
from .rings import LevelRing, RingSpec, make_level_ring


class _TotData(NamedTuple):
    tot: FreeComplex
    powers: list[FreeComplex]  # powers[k] = W (x) Wbar^{(x) k}, column k
    indexes: list[Optional[TensorIndex]]  # indexes[k] builds powers[k] from powers[k-1]
    wbar: FreeComplex
    # offsets[d][k]: where column k's generators start in Tot_d, k ascending;
    # offsets[d][-1] is rank(Tot_d)
    offsets: dict[int, list[int]]


def _reduced_resolution(W: FreeComplex) -> FreeComplex:
    """W modulo the span of its unit generator.

    Valid only when degree 0 is the single weight-0 unit generator; then
    the span is a subcomplex and the quotient is free on the remaining
    generators, with the degree-1 differential dropped.
    """
    g0 = W.gens_at(0)
    if len(g0) != 1 or g0[0] != 0:
        raise AssertionError("resolution is not cyclic on a unit generator")
    gens = {d: gl for d, gl in W.gens.items() if d >= 1 and gl}
    diff = {d: ent for d, ent in W.diff.items() if d >= 2}
    return FreeComplex(ring=W.ring, gens=gens, diff=diff)


def _shifted(col, off: int, neg=None):
    """col with every row moved by off, each entry negated by neg if given."""
    if neg is not None:
        return tuple([(off + i, neg(elem)) for i, elem in col])
    return tuple([(off + i, elem) for i, elem in col]) if off and col else col


def _amitsur_level(
    ring: LevelRing, family: IdealFamily, m: int, N: int, wmax: Fraction
) -> _TotData:
    """Normalized truncated totalization Tot^m of (R/I)^{(x) k+1}, k <= m,
    as one complex in total degrees -1 .. N+1 (column k sits in degree
    i - k).

    Cofaces insert the unit generator w0 of W = res(R/I), so the span of
    basis tensors carrying w0 in a positive slot is the coface-degenerate
    subcomplex; the Moore normalization is the basis-aligned quotient by
    it (Weibel, An Introduction to Homological Algebra, 8.4). Column k of
    the quotient is powers[k] = W (x) Wbar^{(x) k}, Wbar = W / R.w0, and
    only the slot-0 coface survives: the chain map delta_k: powers[k] ->
    powers[k+1], a -> w0 (x) a. delta_0 is one lookup per generator of W
    (w0 itself goes to 0, as w0 is not in Wbar), and delta_k = delta_{k-1}
    (x) id(Wbar).

    Tot_d is the blocks powers[k]_{d+k}, k ascending, block k starting at
    offsets[d][k]. A generator a of internal degree i in column k has the
    boundary d(a) + (-1)^i delta_k(a), the sign that makes the two
    anticommute (Weibel 1.2.6): its internal boundary in block k and its
    coface in block k+1 of Tot_{d-1}. The block order is kept: it sets how
    many boundary columns the rank-first homology reads, and descending k
    reads more.

    Column k keeps internal degrees <= N + 1 + k, so power k is built
    through N + 1 + k. Its k Wbar factors each sit in degree >= 1, so none
    of them is read above N + 2, which is what W is built through. For
    the same reason power k starts in degree k, and Tot_{-1} is zero."""
    W = minimal_resolution(ring, tuple(family.gens_at(ring)), N + 2, wmax)
    wbar = _reduced_resolution(W)
    powers = [W]
    indexes: list[Optional[TensorIndex]] = [None]
    for k in range(1, m + 1):
        t, index = tensor_complexes(powers[-1], wbar, N + 1 + k, wmax)
        powers.append(t)
        indexes.append(index)
    # w0 (x) a, for a generator i of W_d, is (p, i, q, j) = (0, 0, d, i)
    # in W (x) Wbar; w0 (x) w0 is not there
    ent = {}
    for d, gl in W.gens.items():
        hits = (indexes[1].get((0, 0, d, i)) for i in range(len(gl)))
        ent[d] = [() if t is None else ((t, ring.one()),) for t in hits]
    cofaces = [ChainMap(src=W, dst=powers[1], entries=ent)]
    id_bar = identity_map(wbar)
    for k in range(1, m):
        cofaces.append(
            tensor_maps(cofaces[-1], id_bar, powers[k], indexes[k], powers[k + 1], indexes[k + 1])
        )

    degrees = range(-1, N + 2)
    offsets = {
        d: list(accumulate((pw.rank(d + k) for k, pw in enumerate(powers)), initial=0))
        for d in degrees
    }
    gens = {d: [w for k, pw in enumerate(powers) for w in pw.gens_at(d + k)] for d in degrees}
    diff = {}
    for d in degrees[1:]:
        below = offsets[d - 1]
        cols = []
        for k, pw in enumerate(powers):
            i = d + k
            cof = cofaces[k].entries_at(i) if k < m else [()] * pw.rank(i)
            neg = ring.elem_neg if i % 2 else None
            for dcol, ccol in zip(pw.diff_at(i), cof):
                cols.append(_shifted(dcol, below[k]) + _shifted(ccol, below[k + 1], neg))
        diff[d] = cols

    tot = FreeComplex(ring=ring, gens=gens, diff=diff)
    return _TotData(tot, powers, indexes, wbar, offsets)


def _amitsur_step(lo: _TotData, hi: _TotData, inc, m: int) -> ChainMap:
    """Transition Tot(l) -> Tot(l+1) from the lift beta: W(l) -> W(l+1)
    along the ring inclusion inc.

    Column k maps by maps[k] = beta (x) beta_bar^{(x) k}, so the step is
    block-diagonal: block k of Tot_d(l) lands in block k of Tot_d(l+1)."""
    beta = lift_chain_map(lo.powers[0], hi.powers[0], ring_map=inc)
    # beta restricts to the reduced factors: positive-degree entries never
    # target the unit generator, so no entries are dropped
    beta_bar = ChainMap(
        src=lo.wbar,
        dst=hi.wbar,
        entries={d: ent for d, ent in beta.entries.items() if d >= 1},
        ring_map=inc,
    )
    maps = [beta]
    for k in range(1, m + 1):
        maps.append(
            tensor_maps(
                maps[-1], beta_bar, lo.powers[k], lo.indexes[k], hi.powers[k], hi.indexes[k]
            )
        )
    ent = {}
    for d in lo.tot.gens:
        at = hi.offsets[d]
        ent[d] = [_shifted(col, at[k]) for k, f in enumerate(maps) for col in f.entries_at(d + k)]
    return ChainMap(src=lo.tot, dst=hi.tot, entries=ent, ring_map=inc)


def _amitsur_family(
    spec: RingSpec, family: IdealFamily, m: int, N: int, wmax: Fraction
) -> Family:
    """Tot^m (_amitsur_level) at each level, its column data as the index,
    with the block-diagonal transitions of _amitsur_step."""

    def make(l: int) -> tuple[FreeComplex, _TotData]:
        data = _amitsur_level(make_level_ring(spec, l), family, m, N, wmax)
        return data.tot, data

    def step(fam: Family, l: int) -> ChainMap:
        return _amitsur_step(fam.index(l), fam.index(l + 1), fam.at(l).ring.include_exp, m)

    return Family(make, step, min_level=family.min_level())


def _tot_lifetime(m: int, root_base: int) -> int:
    # truncation junk rides tensor columns whose weight numerators scale
    # by root_base per level, so it drowns past column m within this many
    # levels of its birth
    lam = 1
    t = root_base
    while t <= m:
        lam += 1
        t *= root_base
    return lam


@dataclass
class AmitsurReport:
    table: StabilizedTable
    reference: QuotientHomotopy
    agree: dict[int, bool]
    m: int
    window: int
    undetermined: tuple = ()

    def all_agree(self) -> bool:
        return all(self.agree.values())


def amitsur_crosscheck(
    spec: RingSpec,
    family: IdealFamily,
    m: int,
    N: int,
    bounds: Optional[Bounds] = None,
) -> AmitsurReport:
    """Compare H_i of the truncated Amitsur totalization against
    quotient_homotopy, degree by degree up to N; the reference follows
    quotient_homotopy's route, so a family with roots is compared with
    base change. Needs m >= N+2 so the truncation error sits above the
    compared range.

    Truncation junk lives longer here than in the tower diagrams, so the
    run widens the detector window to the junk lifetime and treats cells
    first alive within lifetime + window - 1 levels of the top as young:
    they are still in flight and do not count against agreement."""
    if m < N + 2:
        raise ValueError(f"cosimplicial truncation m={m} needs m >= N+2={N + 2}")
    bounds = bounds if bounds is not None else default_bounds(N)
    reference = quotient_homotopy(spec, family, N, bounds)

    if family_contains_unit(family):
        table = StabilizedTable("amitsur", [], (), N, N)
        agree = {
            d: reference.table.stable_cells_at(d) == {} for d in range(N + 1)
        }
        return AmitsurReport(table, reference, agree, m, bounds.window)

    l0 = family.min_level()
    tot = _amitsur_family(spec, family, m, N, bounds.weight_max)

    lam = _tot_lifetime(m, spec.root_base)
    window = max(bounds.window, lam)
    horizon = window + lam - 1

    def young(dims, top):
        alive = [k for k, v in enumerate(dims) if v]
        return bool(alive) and l0 + alive[0] + horizon > top

    def attempt(levels, lazy):
        # below the cap, an unstable cell that is not young already makes
        # its degree disagree
        top = levels[-1]
        stop = (lambda r: not (r.stable or young(r.dims, top))) if lazy else None
        raw = tot.diagram(levels).run(range(N + 1), bounds.weight_max, window, stop)
        table = make_table(f"amitsur Tot^{m}", raw, levels, N, N)
        agree = {}
        undet = []
        for d in range(N + 1):
            loose = [
                (dd, w)
                for (dd, w), r in raw.items()
                if dd == d and not r.stable
            ]
            undet.extend(loose)
            agree[d] = (
                reference.table.degree_stable(d)
                and table.stable_cells_at(d) == reference.table.stable_cells_at(d)
                and all(young(raw[c].dims, top) for c in loose)
            )
        return (table, agree, undet), all(agree.values())

    table, agree, undet = settle(l0, window, bounds.max_level, attempt)
    return AmitsurReport(
        table, reference, agree, m, window, tuple(sorted(undet))
    )
