"""Almost-module verdicts against a monomial ideal family.

A module is almost zero for I when every level generator of I acts as
zero on its stabilized homology. Two independent routes decide this:
the annihilation route multiplies homology representatives by the level
generators and stabilizes the rank of the spanned subspace, the tensor
route stabilizes I (x) M through the Tor machinery. The routes must
agree on every input and the test suite holds them to that.

Maps are judged through their cones: a level family of chain maps is an
almost equivalence when its cone family is almost zero. The gluing
check verifies that a module is reassembled from its open piece (a
trusted derived power tensored in) and its closed piece (the derived
quotient tensored in). Hom corners are inverse limits over the level
tower and admit no forward transitions, so the square is checked in its
rotated, level-functorial form: stage agreement of the two cone legs as
acyclicity of an explicit double-cone total complex, plus orthogonality
of the closed piece against the derived powers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .complexes import (
    ChainMap,
    FreeComplex,
    RingStrands,
    cone,
    cone_map,
    homology_map_matrix,
    identity_map,
    lift_chain_map,
    tensor_complexes,
    tensor_maps,
)
from .derived import (
    Bounds,
    CellResult,
    LevelDiagram,
    ModuleRef,
    TorDiagram,
    Tower,
    default_bounds,
    derived_tensor,
    ideal_module,
    judge_cell,
    module_min_level,
    rep_level,
    ring_module,
)
from .ideals import IdealFamily
from .rings import Exponents, RingSpec, VarInfo
from .sparsela import SparseMatrix

# ---------- verdicts ----------


@dataclass
class AlmostVerdict:
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


def _mult_map(cx: FreeComplex, g: Exponents) -> ChainMap:
    """Multiplication by the monomial g as a chain self-map."""
    one = cx.field.one
    ent = {
        d: {(i, i): {g: one} for i in range(len(gl))}
        for d, gl in cx.gens.items()
        if gl
    }
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
    the per-level dims of the annihilated subspace, not of H itself."""
    K = len(diagram.levels)
    rings = [diagram.providers[k].ring for k in range(K)]
    gens = [family.gens_at(r) for r in rings]
    gweights = [[r.weight(g) for g in gs] for r, gs in zip(rings, gens)]
    mults: dict[tuple[int, Exponents], ChainMap] = {}
    out: dict[tuple[int, Fraction], CellResult] = {}
    for d in degrees:
        for w in diagram.cell_weights(d, wmax):
            hs = [diagram.homology(k, d, w) for k in range(K)]
            if not any(h.dim for h in hs):
                continue
            field = diagram.complexes[0].field
            bs = []
            for k in range(K):
                h = hs[k]
                cols = []
                if h.dim:
                    for g, wg in zip(gens[k], gweights[k]):
                        wsrc = w - wg
                        if wsrc < 0:
                            continue
                        sh = diagram.homology(k, d, wsrc)
                        if sh.dim == 0:
                            continue
                        mm = mults.get((k, g))
                        if mm is None:
                            mm = mults[(k, g)] = _mult_map(diagram.complexes[k], g)
                        cols.append(
                            homology_map_matrix(mm, d, sh, h)
                        )
                bs.append(_hstack(h.dim, cols, field))
            ts = [diagram.step_matrix(k, d, w) for k in range(K - 1)]
            dims = [b.rank() for b in bs]
            out[(d, w)] = judge_cell(
                diagram.levels, dims, ts, window, rep_level(w, diagram.root_base), bs
            )
    return out


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
    b = bounds or default_bounds(bound)
    td = TorDiagram(spec, module, ring_module(), bound + 1, b.weight_max)
    l0 = max(1, family.min_level(), td.min_level)
    levels = list(range(l0, b.max_level + 1))
    cells = _annihilation_cells(
        td.diagram(levels), family, range(bound + 1), b.weight_max, b.window
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
    b = bounds or default_bounds(bound)
    table = derived_tensor(
        spec,
        ideal_module(family),
        module,
        0,
        b.weight_max,
        max_level=b.max_level,
        window=b.window,
    )
    cells = {
        (c.degree, c.weight): CellResult(c.dim, c.stable, (), c.in_flight)
        for c in table.cells
    }
    degrees, witnesses, flight = _verdict(cells, [0])
    for d in range(1, bound + 1):
        degrees[d] = True
    return AlmostVerdict("tensor", bound, degrees, witnesses, cells, flight)


# ---------- almost equivalences ----------


@dataclass
class MapFamily:
    """Level family of same-ring chain maps f_l with transition maps on
    both sides; the transition squares must commute strictly so the
    cones form a level diagram."""

    spec: RingSpec
    at: Callable[[int], ChainMap]
    src_step: Callable[[int], ChainMap]
    dst_step: Callable[[int], ChainMap]
    min_level: int = 0
    label: str = "f"


def power_multiplication_map(
    spec: RingSpec, family: IdealFamily, n: int, bounds: Bounds
) -> MapFamily:
    """Multiplication of the n-th derived power into the ring; its cone
    is the derived quotient model, so this is the map whose almost
    invertibility the quotient construction asserts."""
    tower = Tower(spec, family, bounds.deg_max, bounds.weight_max)
    return MapFamily(
        spec,
        at=lambda l: tower.eps(n, l),
        src_step=lambda l: tower.lam(n, l),
        dst_step=tower.unit_step,
        min_level=family.min_level(),
        label=f"mul{n}({family.name})",
    )


def module_identity_map(
    spec: RingSpec, module: ModuleRef, bounds: Bounds
) -> MapFamily:
    td = TorDiagram(spec, module, ring_module(), bounds.deg_max, bounds.weight_max)
    return MapFamily(
        spec,
        at=lambda l: identity_map(td.res(l)),
        src_step=td.lift,
        dst_step=td.lift,
        min_level=td.min_level,
        label=f"id({module.label})",
    )


def module_zero_map(spec: RingSpec, module: ModuleRef, bounds: Bounds) -> MapFamily:
    td = TorDiagram(spec, module, ring_module(), bounds.deg_max, bounds.weight_max)
    return MapFamily(
        spec,
        at=lambda l: ChainMap(src=td.res(l), dst=td.res(l)),
        src_step=td.lift,
        dst_step=td.lift,
        min_level=td.min_level,
        label=f"0({module.label})",
    )


def is_almost_equivalence(
    spec: RingSpec,
    family: IdealFamily,
    f: MapFamily,
    bound: int = 2,
    bounds: Optional[Bounds] = None,
) -> AlmostVerdict:
    """Is the cone of the map family almost zero up to the degree bound?
    The cone homology is checked with the annihilation criterion."""
    b = bounds or default_bounds(bound)
    l0 = max(1, family.min_level(), f.min_level)
    levels = list(range(l0, b.max_level + 1))
    cones = []
    wheres = []
    for l in levels:
        c, wh = cone(f.at(l))
        cones.append(c)
        wheres.append(wh)
    steps = [
        cone_map(
            f.src_step(levels[k]),
            f.dst_step(levels[k]),
            cones[k],
            wheres[k],
            cones[k + 1],
            wheres[k + 1],
        )
        for k in range(len(levels) - 1)
    ]
    diagram = LevelDiagram(
        levels=levels,
        complexes=cones,
        steps=steps,
        providers=[RingStrands(c.ring) for c in cones],
        root_base=spec.root_base,
        cache={},
        tag=("almosteq", f.label),
    )
    cells = _annihilation_cells(
        diagram, family, range(bound + 1), b.weight_max, b.window
    )
    degrees, witnesses, flight = _verdict(cells, range(bound + 1))
    return AlmostVerdict("annihilation", bound, degrees, witnesses, cells, flight)


# ---------- the gluing square ----------


@dataclass
class GluingReport:
    cartesian: Optional[bool]  # None when refused
    refused: bool
    reason: Optional[str]
    witness: Optional[tuple[str, int, Fraction]]
    cells: dict[tuple[str, int, Fraction], CellResult]
    stages: tuple[int, int]  # derived powers compared (m, n), m = n + 1
    levels: list[int]


def _glue_complexes(
    tower: Tower,
    fcx: dict[int, FreeComplex],
    fstep: dict[int, ChainMap],
    levels: list[int],
    m: int,
    n: int,
    b: Bounds,
) -> tuple[
    dict[int, FreeComplex],
    dict[int, ChainMap],
    dict[int, FreeComplex],
    dict[int, ChainMap],
]:
    """Per level: the double cone T comparing cone(eps_m (x) M) with
    cone(eps_n (x) M) along sigma_n, and the closed piece K2 with its
    transitions. sigma strictly interpolates the two eps legs, so all
    cone squares commute on the nose."""
    XmM: dict[int, FreeComplex] = {}
    XmI: dict[int, object] = {}
    XnM: dict[int, FreeComplex] = {}
    XnI: dict[int, object] = {}
    UM: dict[int, FreeComplex] = {}
    UI: dict[int, object] = {}
    K1: dict[int, FreeComplex] = {}
    K1w: dict[int, dict] = {}
    K2: dict[int, FreeComplex] = {}
    K2w: dict[int, dict] = {}
    TT: dict[int, FreeComplex] = {}
    TTw: dict[int, dict] = {}
    for l in levels:
        fid = identity_map(fcx[l])
        XmM[l], XmI[l] = tensor_complexes(tower.X(m, l), fcx[l], b.deg_max, b.weight_max)
        XnM[l], XnI[l] = tensor_complexes(tower.X(n, l), fcx[l], b.deg_max, b.weight_max)
        UM[l], UI[l] = tensor_complexes(tower.unit(l), fcx[l], b.deg_max, b.weight_max)
        top = tensor_maps(tower.eps(m, l), fid, XmM[l], XmI[l], UM[l], UI[l])
        bot = tensor_maps(tower.eps(n, l), fid, XnM[l], XnI[l], UM[l], UI[l])
        K1[l], K1w[l] = cone(top)
        K2[l], K2w[l] = cone(bot)
        comp = tensor_maps(tower.sigma(n, l), fid, XmM[l], XmI[l], XnM[l], XnI[l])
        mid = cone_map(comp, identity_map(UM[l]), K1[l], K1w[l], K2[l], K2w[l])
        TT[l], TTw[l] = cone(mid)
    sK2: dict[int, ChainMap] = {}
    stepT: dict[int, ChainMap] = {}
    for l in levels[:-1]:
        sxm = tensor_maps(
            tower.lam(m, l), fstep[l], XmM[l], XmI[l], XmM[l + 1], XmI[l + 1]
        )
        sxn = tensor_maps(
            tower.lam(n, l), fstep[l], XnM[l], XnI[l], XnM[l + 1], XnI[l + 1]
        )
        su = tensor_maps(
            tower.unit_step(l), fstep[l], UM[l], UI[l], UM[l + 1], UI[l + 1]
        )
        sk1 = cone_map(sxm, su, K1[l], K1w[l], K1[l + 1], K1w[l + 1])
        sk2 = cone_map(sxn, su, K2[l], K2w[l], K2[l + 1], K2w[l + 1])
        sK2[l] = sk2
        stepT[l] = cone_map(sk1, sk2, TT[l], TTw[l], TT[l + 1], TTw[l + 1])
    return TT, stepT, K2, sK2


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
    Undetermined cells at the level cap produce an explicit refusal."""
    if (module is None) == (quotient_stage is None):
        raise ValueError("pass exactly one of module / quotient_stage")
    b = bounds or Bounds(bound + 3, Fraction(3, 2), 5, 2)
    n = bound + 2
    m = n + 1
    tower = Tower(spec, family, b.deg_max, b.weight_max)
    mod_min = 0 if module is None else module_min_level(module)
    l0 = max(1, family.min_level(), mod_min)
    levels = list(range(l0, b.max_level + 1))
    mlabel = module.label if module is not None else f"Q{quotient_stage}"

    fcx: dict[int, FreeComplex] = {}
    fstep: dict[int, ChainMap] = {}
    if module is None:
        if quotient_stage < 1:
            raise ValueError("quotient stages start at 1")
        for l in levels:
            fcx[l] = tower.Q(quotient_stage, l)[0]
        for l in levels[:-1]:
            fstep[l] = tower.Qstep(quotient_stage, l)
    else:
        td = TorDiagram(spec, module, ring_module(), b.deg_max, b.weight_max)
        for l in levels:
            fcx[l] = td.res(l)
        for l in levels[:-1]:
            # ride the tower's include map so tensor_maps sees one ring map
            fstep[l] = lift_chain_map(fcx[l], fcx[l + 1], ring_map=tower.inc(l))

    TT, stepT, K2, sK2 = _glue_complexes(tower, fcx, fstep, levels, m, n, b)

    cache: dict = {}
    cells: dict[tuple[str, int, Fraction], CellResult] = {}
    fit = LevelDiagram(
        levels=levels,
        complexes=[TT[l] for l in levels],
        steps=[stepT[l] for l in levels[:-1]],
        providers=[RingStrands(tower.ring(l)) for l in levels],
        root_base=spec.root_base,
        cache=cache,
        tag=("gluefit", mlabel),
    )
    for (d, w), r in fit.run(range(bound + 1), b.weight_max, b.window).items():
        cells[("fit", d, w)] = r
    for d in range(bound + 1):
        nd = d + 2
        Od: dict[int, FreeComplex] = {}
        OdI: dict[int, object] = {}
        for l in levels:
            Od[l], OdI[l] = tensor_complexes(
                tower.X(nd, l), K2[l], b.deg_max, b.weight_max
            )
        orth = LevelDiagram(
            levels=levels,
            complexes=[Od[l] for l in levels],
            steps=[
                tensor_maps(
                    tower.lam(nd, l), sK2[l], Od[l], OdI[l], Od[l + 1], OdI[l + 1]
                )
                for l in levels[:-1]
            ],
            providers=[RingStrands(tower.ring(l)) for l in levels],
            root_base=spec.root_base,
            cache=cache,
            tag=("glueorth", nd, mlabel),
        )
        for (dd, w), r in orth.run([d], b.weight_max, b.window).items():
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
