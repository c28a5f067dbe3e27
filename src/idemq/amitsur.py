"""The Amitsur cross-check of R/I^infty.

The truncated, normalized Amitsur totalization Tot^m of R -> R/I has
stabilized homology that must agree with quotient_homotopy degree by
degree (amitsur_crosscheck). Tot^m is read through its algebraic Morse
reduction (Skoldberg, Morse theory from an algebraic viewpoint, Trans.
AMS 358, 2006; Jollenbeck-Welker, Mem. AMS 197, 2009), which is the tower
stage Q(m+1) = cone(eps_{m+1}: X_{m+1} -> R) of `derived`. It is read
through the level loop of `derived` (settle), which it shares with `tor`
and `tower`. Below the level cap an attempt first judges the reference's
cells on Q(m+1), in walk order (degrees descending, weights ascending),
each as the full walk would, and is abandoned at the first one that is
not stable at the reference's value or that the walk leaves out; with
an unstable reference cell it is abandoned before judging any. Each of
these makes its degree disagree, so such an attempt could never settle,
and homology stays cached per level, degree and weight, so the level
loop reads the same cells to the same results.

Let W = res(R/I), minimal, with unit generator w0 of degree and weight
0, and Wbar = W / R.w0. Column k of Tot^m, k <= m, is W (x) Wbar^{(x)k}
in total degree i - k for internal degree i, and its coface is
delta_k(a) = w0 (x) a (Weibel, An Introduction to Homological Algebra,
8.4); w0 (x) w0 (x) ... is degenerate, so delta_k kills w0 (x) Wbar^{(x)k}.
(1) As graded modules W = R.w0 + Wbar. So column k is
    w0 (x) Wbar^{(x)k} + Wbar^{(x)(k+1)}.
(2) delta_k maps Wbar^{(x)(k+1)} in column k onto w0 (x) Wbar^{(x)(k+1)}
    in column k+1, basis element to basis element, with unit entries.
(3) Match each basis element a of Wbar^{(x)(k+1)} in column k, k < m,
    with w0 (x) a. No other edge leaves column k for column k+1, so a
    zig-zag path (an internal differential edge, then a matched edge
    backwards) lowers the column by one at each step: the matching is
    acyclic. The critical cells are w0 and column m's Wbar^{(x)(m+1)}.
(4) Write eps(x) for w0's coefficient in d_W(x). The internal
    differential of x_0 (x) ... (x) x_m in column m is d of
    Wbar^{(x)(m+1)} plus eps(x_0) w0 (x) x_1 (x) ... (x) x_m, and each
    zig-zag path from there peels one more factor, down to w0. So the
    Morse differential is d of Wbar^{(x)(m+1)} plus
    x_0 (x) ... (x) x_m -> +-eps(x_0)...eps(x_m) w0.
(5) Wbar[-1] is the minimal resolution of I (complexes.ideal_resolution)
    with augmentation eps, so Wbar^{(x)(m+1)} is X_{m+1} one degree up and
    the Morse complex is cone(eps_{m+1}), up to signs on generators. The
    reduction is a homotopy equivalence of weight-graded R-complexes, so
    every level has the same homology dims.
(6) A step of Tot is beta (x) beta_bar^{(x)k} on column k, for a lift
    beta of the level inclusion with beta(w0) = w0. It respects the
    matching, so it induces beta_bar^{(x)(m+1)} on the critical cells: a
    lift of the inclusion I(l)^{(x)(m+1)} -> I(l+1)^{(x)(m+1)}, as the step
    of X_{m+1} is. Lifts are unique up to homotopy, so every step rank is
    the same.
(7) Tot built through degree N+1 and X_{m+1} built through N (Q(m+1)
    through N+1) hold every cell of degree <= N+1 and weight <= wmax,
    and matched pairs share a weight (w0 has weight 0). So the reads of
    H_0..H_N on both sides are exact.
tests/oracles.py keeps Tot^m itself (amitsur_tot_family), and the tests
compare the two walks cell for cell.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .derived import (
    Bounds,
    QuotientHomotopy,
    StabilizedTable,
    Tower,
    default_bounds,
    family_contains_unit,
    make_table,
    quotient_homotopy,
    settle,
)
from .ideals import IdealFamily
from .rings import RingSpec


def _tot_lifetime(m: int, root_base: int) -> int:
    # truncation junk rides the (m+1)-fold tensors of X_{m+1} (column m's
    # critical cells), whose weight numerators scale by root_base per
    # level, so it drowns within this many levels of its birth
    lam = 1
    t = root_base
    while t <= m:
        lam += 1
        t *= root_base
    return lam


class AmitsurReport(NamedTuple):
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

    Tot^m is read as Q(m+1) of a tower built through N: by the module
    docstring's (1)-(7) it has every level dim and every step rank that
    Tot^m has, cell for cell, and the detector reads nothing else, so
    every cell result is the same as Tot^m's.

    Truncation junk lives longer here than in the tower diagrams, so the
    run widens the detector window to the junk lifetime and treats cells
    first alive within lifetime + window - 1 levels of the top as young:
    they are still in flight and do not count against agreement.

    So a deeper truncation needs a higher level cap. With root base r,
    lam = _tot_lifetime(m, r) grows with m, and the window is widened to
    max(window, lam). Degree 0 of X_{m+1} is spanned by (m+1)-fold
    tensors of I's generators, so on the truncated t spec the cell
    (1, 1), which the reference holds stable at 1, is first alive at the
    first level l with r^l >= m+1, and that l is lam. It is born later
    than its weight is representable, so the born-late guard of
    colimit_stabilize keeps it unstable until the top reaches
    lam + max(window, lam): below that cap degree 1 disagrees and the
    check exits 3. At r = 2 and --deg-max 3 that is level 6 for depths
    5-7 (the default cap), 8 for depths 8-15 and 10 for depths 16-31.

    An attempt below the level cap judges the reference's cells first:
    a stable one must be stable at the reference's value on Q(m+1), and
    an unstable one ends the attempt before any cell is judged, since
    either failure makes its degree disagree (module docstring). After
    them it stops at the first unstable cell that is not young."""
    if m < N + 2:
        raise ValueError(f"cosimplicial truncation m={m} needs m >= N+2={N + 2}")
    bounds = bounds if bounds is not None else default_bounds(N)
    reference = quotient_homotopy(spec, family, N, bounds)

    if family_contains_unit(family):
        table = StabilizedTable("amitsur", [], (), N)
        agree = {
            d: reference.table.stable_cells_at(d) == {} for d in range(N + 1)
        }
        return AmitsurReport(table, reference, agree, m, bounds.window)

    l0 = family.min_level()
    tot = Tower(spec, family, N, bounds.weight_max).Q(m + 1)

    lam = _tot_lifetime(m, spec.root_base)
    window = max(bounds.window, lam)
    horizon = window + lam - 1

    def young(dims, top):
        alive = [k for k, v in enumerate(dims) if v]
        return bool(alive) and l0 + alive[0] + horizon > top

    # below the cap, an unstable reference cell (None), a reference cell
    # that Q(m+1) does not hold stable at the reference's value, or an
    # unstable cell that is not young already makes its degree disagree
    need = {
        (c.degree, c.weight): c.dim if c.stable else None
        for c in reference.table.cells
    }

    def attempt(levels, lazy):
        top = levels[-1]
        stop = (lambda r: not (r.stable or young(r.dims, top))) if lazy else None
        raw = tot.diagram(levels).run(
            range(N + 1), bounds.weight_max, window, stop, need
        )
        table = make_table(f"amitsur Tot^{m}", raw, levels, N)
        undet = [c for c, r in raw.items() if not r.stable]
        old = {d for d, w in undet if not young(raw[(d, w)].dims, top)}
        agree = {
            d: d not in old
            and reference.table.degree_stable(d)
            and table.stable_cells_at(d) == reference.table.stable_cells_at(d)
            for d in range(N + 1)
        }
        return (table, agree, undet), all(agree.values())

    table, agree, undet = settle(l0, window, bounds.max_level, attempt)
    return AmitsurReport(
        table, reference, agree, m, window, tuple(sorted(undet))
    )
