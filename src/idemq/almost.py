"""Almost-module verdicts against a monomial ideal family.

A module is almost zero for I when every level generator of I acts as
zero on its stabilized homology. Two independent routes decide this:
the annihilation route multiplies homology representatives by the level
generators and stabilizes the rank of the spanned subspace, the tensor
route stabilizes I (x) M through the Tor machinery. The routes must
agree on every input and the test suite holds them to that.

Maps are judged through their cones: a level map (derived.LevelMap) is
an almost equivalence when its cone family is almost zero. The gluing
check verifies that a module M is reassembled from its open piece (a
trusted derived power tensored in) and its closed piece (the derived
quotient tensored in). Hom corners are inverse limits over the level
tower and admit no forward transitions, so the square is checked in its
rotated, level-functorial form, on families (_glue_square): the tensor
families X_m (x) M, X_n (x) M and R (x) M, the cone families of
eps_m (x) id and eps_n (x) id (the closed piece), and the double cone of
the map between them that sigma_n induces, which must be acyclic; and
the tensor families X_{d+2} (x) closed piece, which must be acyclic in
degree d (orthogonality against the derived powers).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .complexes import (
    ChainMap,
    FreeComplex,
    cone_map,
    homology_map_matrix,
    identity_map,
    tensor_complexes,
    tensor_maps,
)
from .derived import (
    Bounds,
    CellResult,
    Family,
    LevelDiagram,
    LevelMap,
    ModuleRef,
    Tower,
    cone_family,
    default_bounds,
    derived_tensor,
    gluing_bounds,
    ideal_module,
    level_range,
    module_min_level,
    require_idempotent,
    resolution_family,
    tensor_family,
)
from .ideals import IdealFamily
from .rings import Mono, RingSpec, VarInfo
from .sparsela import SparseMatrix

# ---------- verdicts ----------


class AlmostVerdict(NamedTuple):
    """Per-degree outcome of an almost-zero check.

    degrees[d] is True (almost zero), False (stable nonzero cell, the
    smallest witness weight recorded), or None (level range exhausted
    before the cells settled). Cells carry the stabilized data of the
    annihilated subspace resp. the tensor table per (degree, weight).
    Unstable cells in flight (CellResult.in_flight) are newborn-layer
    junk; they are listed in in_flight and do not block a True verdict.
    """

    criterion: str  # "annihilation" | "tensor"
    bound: int
    degrees: dict[int, Optional[bool]]
    witnesses: dict[int, Fraction]
    cells: dict[tuple[int, Fraction], CellResult]
    in_flight: list[tuple[int, Fraction]]

    @property
    def almost_zero(self) -> Optional[bool]:
        vals = [self.degrees[d] for d in sorted(self.degrees)]
        if any(v is False for v in vals):
            return False
        if any(v is None for v in vals):
            return None
        return True

    @property
    def stable(self) -> bool:
        return all(v is not None for v in self.degrees.values())


# ---------- annihilation route ----------


def _mult_map(cx: FreeComplex, g: Mono) -> ChainMap:
    """Multiplication by the monomial g as a chain self-map."""
    one = cx.field.one
    ent = {d: [((i, {g: one}),) for i in range(len(gl))] for d, gl in cx.gens.items() if gl}
    return ChainMap(src=cx, dst=cx, entries=ent)


def _hstack(nrows: int, mats: list[SparseMatrix], field) -> SparseMatrix:
    rows: list[dict] = [dict() for _ in range(nrows)]
    off = 0
    for m in mats:
        for i, r in enumerate(m.rows):
            for j, v in r.items():
                rows[i][off + j] = v
        off += m.ncols
    return SparseMatrix(nrows, off, field, rows)


def _annihilation_cells(
    diagram: LevelDiagram,
    family: IdealFamily,
    degrees,
    wmax: Fraction,
    window: int,
) -> dict[tuple[int, Fraction], CellResult]:
    """Stabilized rank of I(l)*H_d per weight cell; CellResult.dims are
    the per-level dims of the annihilated subspace, not of H itself.
    The cells are those of the diagram's own walk (LevelDiagram.walk):
    at level k a generator g of integer weight gn carries the strand of
    integer weight n - gn into the one of weight n."""
    rings = [x.ring for x in diagram.complexes]
    gens = [family.gens_at(r) for r in rings]
    gnums = [[r.num(r.weight(g)) for g in gs] for r, gs in zip(rings, gens)]
    field = diagram.complexes[0].field
    mults: dict[tuple[int, Mono], ChainMap] = {}

    def track(d, ns):
        hs = [diagram.homology(k, d, n) for k, n in enumerate(ns)]
        if not any(h.dim for h in hs):
            return None
        bs = []
        for k, (h, n) in enumerate(zip(hs, ns)):
            cols = []
            if h.dim:
                for g, gn in zip(gens[k], gnums[k]):
                    if n < gn:
                        continue
                    sh = diagram.homology(k, d, n - gn)
                    if sh.dim == 0:
                        continue
                    mm = mults.get((k, g))
                    if mm is None:
                        mm = mults[(k, g)] = _mult_map(diagram.complexes[k], g)
                    cols.append(homology_map_matrix(mm, d, sh, h))
            bs.append(_hstack(h.dim, cols, field))
        return [b.rank() for b in bs], bs

    return diagram.walk(degrees, wmax, window, track)


def _verdict(
    cells: dict[tuple[int, Fraction], CellResult], degrees
) -> tuple[
    dict[int, Optional[bool]], dict[int, Fraction], list[tuple[int, Fraction]]
]:
    verdicts: dict[int, Optional[bool]] = {}
    witnesses: dict[int, Fraction] = {}
    in_flight: list[tuple[int, Fraction]] = []
    for d in degrees:
        here = {w: r for (dd, w), r in cells.items() if dd == d}
        bad = sorted(w for w, r in here.items() if r.stable and r.value)
        loose = {w: r for w, r in here.items() if not r.stable}
        flight = {w for w, r in loose.items() if r.in_flight}
        in_flight.extend((d, w) for w in sorted(flight))
        if bad:
            verdicts[d] = False
            witnesses[d] = bad[0]
        elif set(loose) - flight:
            verdicts[d] = None
        else:
            verdicts[d] = True
    return verdicts, witnesses, in_flight


def is_almost_zero(
    spec: RingSpec,
    family: IdealFamily,
    module: ModuleRef,
    bound: int = 2,
    bounds: Optional[Bounds] = None,
) -> AlmostVerdict:
    """Does every generator of the family act as zero on the module,
    stabilized over levels? Annihilation criterion: the rank of the
    subspace spanned by generator multiples inside each homology cell
    of the module's resolution must stabilize to zero."""
    return _annihilation_verdict(
        family, lambda wmax: resolution_family(spec, module, bound + 1, wmax), bound, bounds
    )


def _annihilation_verdict(
    family: IdealFamily,
    read: Callable[[Fraction], Family],
    bound: int,
    bounds: Optional[Bounds],
) -> AlmostVerdict:
    """The annihilation verdict through degree bound on the family that
    read(weight bound) gives: a module's resolution or a map's cone."""
    require_idempotent(family)
    b = bounds or default_bounds(bound)
    fam = read(b.weight_max)
    levels = level_range(max(1, family.min_level(), fam.min_level), b.max_level)
    cells = _annihilation_cells(
        fam.diagram(levels), family, range(bound + 1), b.weight_max, b.window
    )
    degrees, witnesses, flight = _verdict(cells, range(bound + 1))
    return AlmostVerdict("annihilation", bound, degrees, witnesses, cells, flight)


# ---------- tensor route ----------


def tensor_zero_criterion(
    spec: RingSpec,
    family: IdealFamily,
    module: ModuleRef,
    bound: int = 2,
    bounds: Optional[Bounds] = None,
) -> AlmostVerdict:
    """Does I (x) M vanish, stabilized over levels? Computed through
    the Tor machinery (resolution of the ideal read against the module),
    independent of the annihilation route. Module homology sits in
    degree zero, so higher degrees are almost zero by fiat."""
    require_idempotent(family)
    b = bounds or default_bounds(bound)
    table = derived_tensor(spec, ideal_module(family), module, 0, b)
    cells = {
        (c.degree, c.weight): CellResult(c.dim, c.stable, (), c.in_flight)
        for c in table.cells
    }
    degrees, witnesses, flight = _verdict(cells, [0])
    for d in range(1, bound + 1):
        degrees[d] = True
    return AlmostVerdict("tensor", bound, degrees, witnesses, cells, flight)


# ---------- almost equivalences ----------


def _identity(fam: Family) -> LevelMap:
    return LevelMap(fam, fam, lambda l: identity_map(fam.at(l)))


def power_multiplication_map(
    spec: RingSpec, family: IdealFamily, n: int, bound: int, bounds: Bounds
) -> LevelMap:
    """Multiplication of the n-th derived power into the ring; its cone
    is the derived quotient model, so this is the map whose almost
    invertibility the quotient construction asserts. The cone's homology
    is read up to degree bound, so the cone is read through bound + 1 and
    the power, its source, is built through bound."""
    return Tower(spec, family, bound, bounds.weight_max).eps(n)


def module_identity_map(
    spec: RingSpec, module: ModuleRef, bound: int, bounds: Bounds
) -> LevelMap:
    """The identity of the module's resolution. The cone's homology is
    read up to degree bound, so the resolution, its target, is built
    through bound + 1."""
    return _identity(resolution_family(spec, module, bound + 1, bounds.weight_max))


def module_zero_map(
    spec: RingSpec, module: ModuleRef, bound: int, bounds: Bounds
) -> LevelMap:
    """The zero self-map of the module's resolution, built through
    bound + 1 like module_identity_map."""
    res = resolution_family(spec, module, bound + 1, bounds.weight_max)
    return LevelMap(res, res, lambda l: ChainMap(src=res.at(l), dst=res.at(l)))


def is_almost_equivalence(
    family: IdealFamily,
    f: LevelMap,
    bound: int = 2,
    bounds: Optional[Bounds] = None,
) -> AlmostVerdict:
    """Is the cone of the level map almost zero up to the degree bound?
    The cone homology is checked with the annihilation criterion."""
    return _annihilation_verdict(family, lambda _wmax: cone_family(f), bound, bounds)


# ---------- the gluing square ----------


class GluingReport(NamedTuple):
    cartesian: Optional[bool]  # None when refused
    refused: bool
    reason: Optional[str]
    witness: Optional[tuple[str, int, Fraction]]
    cells: dict[tuple[str, int, Fraction], CellResult]
    stages: tuple[int, int]  # derived powers compared (m, n), m = n + 1
    levels: list[int]


def _tensor(a: Family, b: Family, dmax: int, wmax: Fraction) -> Family:
    return tensor_family(a, b, lambda x, y: tensor_complexes(x, y, dmax, wmax))


def _glue_square(tower: Tower, module: Family, m: int, n: int) -> tuple[Family, Family]:
    """The double cone comparing cone(eps_m (x) M) with cone(eps_n (x) M)
    along sigma_n, and the closed piece cone(eps_n (x) M), as families.
    sigma strictly interpolates the two eps legs, so every cone square
    commutes on the nose. The tensors with M are built through the
    tower's degree and weight."""

    def times_id(f: LevelMap, src: Family, dst: Family) -> LevelMap:  # f (x) id_M
        def at(l: int) -> ChainMap:
            one = identity_map(module.at(l))
            return tensor_maps(f.at(l), one, src.at(l), src.index(l), dst.at(l), dst.index(l))

        return LevelMap(src, dst, at)

    um, xm, xn = (
        _tensor(a, module, tower.dmax, tower.wmax) for a in (tower.unit, tower.X(m), tower.X(n))
    )
    open_m = cone_family(times_id(tower.eps(m), xm, um))
    closed = cone_family(times_id(tower.eps(n), xn, um))
    mid, id_um = times_id(tower.sigma(n), xm, xn), _identity(um)
    double = cone_family(
        LevelMap(
            open_m,
            closed,
            lambda l: cone_map(mid.at(l), id_um.at(l), open_m.at(l), closed.at(l)),
        )
    )
    return double, closed


def gluing_square_check(
    spec: RingSpec,
    family: IdealFamily,
    module: Optional[ModuleRef] = None,
    quotient_stage: Optional[int] = None,
    bound: int = 2,
    bounds: Optional[Bounds] = None,
) -> GluingReport:
    """Does the open/closed decomposition square of M glue, on stabilized
    homology in degrees <= bound?

    Two acyclicity statements are checked, both level-functorial:
    the fit part compares cone(eps_m (x) M) against cone(eps_n (x) M)
    for independent stages m = n + 1, n = bound + 2 through an explicit
    double cone (the total complex of the square), and the orthogonality
    part requires H_d(X_{d+2} (x) cone(eps_n (x) M)) = 0, i.e. the
    derived powers kill the closed piece. Pass either a module or a
    quotient_stage k to glue the stage-k derived quotient itself.
    Undetermined cells at the level cap produce an explicit refusal.

    Both parts read homology up to degree bound, so the closed piece,
    the double cone's target, is read through bound + 1 and the tower,
    M and every tensor are built through bound + 1."""
    if (module is None) == (quotient_stage is None):
        raise ValueError("pass exactly one of module / quotient_stage")
    require_idempotent(family)
    b = bounds or gluing_bounds()
    n = bound + 2
    m = n + 1
    tower = Tower(spec, family, bound + 1, b.weight_max)
    mod_min = 0 if module is None else module_min_level(module)
    levels = level_range(max(1, family.min_level(), mod_min), b.max_level)
    if module is None:
        if quotient_stage < 1:
            raise ValueError("quotient stages start at 1")
        glued = tower.Q(quotient_stage)
    else:
        glued = resolution_family(spec, module, tower.dmax, tower.wmax)
    double, closed = _glue_square(tower, glued, m, n)

    cells: dict[tuple[str, int, Fraction], CellResult] = {}
    fit = double.diagram(levels).run(range(bound + 1), b.weight_max, b.window)
    for (d, w), r in fit.items():
        cells[("fit", d, w)] = r
    for d in range(bound + 1):
        orth = _tensor(tower.X(d + 2), closed, tower.dmax, tower.wmax)
        for (dd, w), r in orth.diagram(levels).run([d], b.weight_max, b.window).items():
            cells[("orth", dd, w)] = r

    bad = sorted(
        ((part, d, w) for (part, d, w), r in cells.items() if r.stable and r.value),
        key=lambda t: (t[1], t[2], t[0]),
    )
    if bad:
        return GluingReport(False, False, None, bad[0], cells, (m, n), levels)
    loose = [k for k, r in cells.items() if not r.stable and not r.in_flight]
    if loose:
        reason = (
            f"{len(loose)} cells undetermined at level {levels[-1]}; "
            "widen max_level or the weight bound"
        )
        return GluingReport(None, True, reason, None, cells, (m, n), levels)
    return GluingReport(True, False, None, None, cells, (m, n), levels)


# ---------- exterior sums ----------


def exterior_sum(
    spec_a: RingSpec,
    family_a: IdealFamily,
    spec_b: RingSpec,
    family_b: IdealFamily,
    name: Optional[str] = None,
) -> tuple[RingSpec, IdealFamily]:
    """Juxtapose two specs and the ideal generated by both families in
    the joined ring. Requires a common coefficient field and root base.
    Colliding variable names get side suffixes, so a spec can be summed
    with itself."""
    if family_a.spec is not spec_a or family_b.spec is not spec_b:
        raise ValueError("family was built over a different spec")
    if spec_a.field != spec_b.field:
        raise ValueError("exterior sum needs a common coefficient field")
    if spec_a.root_base != spec_b.root_base:
        raise ValueError("exterior sum needs a common root base")
    clash = {v.name for v in spec_a.variables} & {v.name for v in spec_b.variables}
    taken = {v.name for v in spec_a.variables} | {v.name for v in spec_b.variables}

    def rename(v: VarInfo, k: int) -> VarInfo:
        if v.name not in clash:
            return v
        cand = f"{v.name}_{k}"
        while cand in taken:
            k += 2
            cand = f"{v.name}_{k}"
        taken.add(cand)
        return VarInfo(cand, v.divisible)

    vars_a = tuple(rename(v, 1) for v in spec_a.variables)
    vars_b = tuple(rename(v, 2) for v in spec_b.variables)
    na, nb = spec_a.nvars, spec_b.nvars
    pad_a = (Fraction(0),) * na
    pad_b = (Fraction(0),) * nb
    joint = RingSpec(
        field=spec_a.field,
        root_base=spec_a.root_base,
        variables=vars_a + vars_b,
        truncations=tuple(t + pad_b for t in spec_a.truncations)
        + tuple(pad_a + t for t in spec_b.truncations),
    )
    fam = IdealFamily(
        name=name or f"{family_a.name}+{family_b.name}",
        spec=joint,
        root_vars=family_a.root_vars
        + tuple(v + na for v in family_b.root_vars),
        gens=tuple(g + pad_b for g in family_a.gens)
        + tuple(pad_a + g for g in family_b.gens),
    )
    return joint, fam
