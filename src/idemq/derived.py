"""Derived powers of an ideal family, Tor, and their stabilized homology.

The homotopy of the idempotent quotient R/I^infty is read by base change,
as Tor over the untruncated algebra (quotient_homotopy), and so is the
static check. When every divisible variable is a root variable, that Tor
descends to level 0, whose homology is already the colimit: it is read
there once, every nonzero cell exact (LevelDiagram.exact), with no level
loop, transition or detector. Otherwise the Tor level loop settles it.
X_{n,l} models the n-fold derived tensor power of I(l) as the n-fold
tensor of the minimal free resolution of the ideal at level l, and the
cone of the multiplication eps_n: X_{n,l} -> R(l) models R/I^{(x)n}
(Tower); the gluing check and the almost equivalence of a power read
those, and the tower report reads the cofibre of sigma_n as X_n against
R/I.

Every table and verdict is a colimit over ring levels, and one detector
decides it cell by cell (colimit_stabilize): a weight cell is Stable
when its last `window` homology transition ranks agree with each other
and with the rank of their composite, and the stable value is that
common rank (the eventual image). The almost routes track a subspace of
each level's homology instead of all of it and pass its spanning
columns; ranks are then taken on those columns. A cell whose class
appears later than the level where its weight first becomes
representable must additionally survive a full window past its birth;
without that guard a freshly born persistent class is indistinguishable
from the transient classes that die one level after they appear.

An unstable cell is in flight (CellResult.in_flight, judge_cell)
when it was first alive within one window of the top level, or is alive
somewhere but dead at the top and waiting out the window before zero can
be certified. A cell alive from the first level is never in flight: it
is undersampled, not newborn. In-flight cells do not block a verdict.

One level loop (settle) serves every command that raises its level
cap until the cells settle, base change by descent excepted: it starts
at min(l0 + window, max_level) and adds one level at a time until the
run settles or reaches the cap. An attempt below the cap is lazy: its
walks stop at the first judged cell that keeps it from settling, and
the loop moves on to the next top. A lazy walk may also be handed cells
to judge first, each with the stable value its attempt needs there (the
Amitsur check passes its reference's cells, so an attempt bound to
disagree ends at its first such cell, before the rest are judged). Only
judging is skipped: the homology read stays in the family caches, and
the next top reads every level below it again. The attempt at the cap
walks in full. A family whose first level lies above the cap is a usage
error (level_range), under descent too.

Every level-indexed object is a Family: a complex per level with its
transition, its module structure and its own homology cache. The tower's
resolution, derived powers and cones (the Amitsur check reads Q(m+1)),
Tor, the cones of almost equivalences and the gluing square are all
families, made from resolutions (resolution_family), tensor products
(tensor_family) and cones of chain maps between families (LevelMap,
cone_family); a LevelDiagram reads one over a range of levels.

Homology is decided by ranks first. A diagram walks its degrees from the
top down, so the (d+1, w) homology is cached when (d, w) is computed and
hands over rank(d_{d+1}); a strand with as many cycles as that rank is
exact, and its boundaries are never built. A strand with no cached
neighbour, the top of its walk (every strand quotient-homotopy reads),
takes rank(d_{d+1}) from the rows of d_{d+1} at d_d's free columns
(complexes.homology_data). Only a step matrix with homology on both
sides makes its transition (Family.step) and the two homology bases,
reading boundary columns. Cells still come back in ascending (d, w)
order. Inside a level a weight is an integer over the level's denom, and
the walk keys its strands and caches by it; a cell gets a Fraction
weight only when it is recorded (LevelDiagram.walk). The annihilation
route of `almost` walks the same cells.

Every complex is built only through the degree its reads need, by one
rule. H_d reads a complex through degree d + 1. A cone read through D
reads its target through D and its source through D - 1. A tensor built
through D needs each factor through D, and a chain map is built through
the degree of its source. So at degree bound N the quotient builds its
Tor resolution over the untruncated algebra through N + 1, and so does
the static check (it reads Tor in degrees 1..N); the gluing check builds
its tower, module and tensors through N + 1. An almost equivalence
builds a derived power, the source of its cone, through N and a module
resolution through N + 1. The tower report builds X_n through n_max - 1
for n < n_max, as it reads X_n against R/I below n, and X(n_max)
through 1, as it reads only its H_0. The Amitsur check reads Q(m+1)
through N + 1, so it builds its tower through N. A resolution that
splits by variable (complexes.minimal_resolution) is written down to
the same degree: its 2-periodic pieces run through it, and its Koszul
part stops at the number of its generators, so base change's
resolution of K_S has no generator above degree |S| however high N is.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple, Optional

from .complexes import (
    ChainMap,
    FreeComplex,
    NO_HOMOLOGY,
    HomologyData,
    Strands,
    cone,
    cone_map,
    homology_data,
    homology_map_matrix,
    ideal_resolution,
    lift_chain_map,
    minimal_resolution,
    strand_weights,
    tensor_complexes,
    tensor_maps,
    unit_complex,
)
from .ideals import IdealFamily, NotIdempotent, check_idempotent
from .rings import LevelRing, Mono, RingSpec, make_level_ring
from .sparsela import SparseMatrix, matmul

# ---------- bounds ----------


class Bounds(NamedTuple):
    """Weight and level bounds of a run. The degree each complex is built
    through follows from the degrees the run reads (module docstring)."""

    weight_max: Fraction
    max_level: int = 6
    window: int = 2


def default_bounds(N: int) -> Bounds:
    """Bounds for a degree-N request: weights to N+2."""
    return Bounds(Fraction(N + 2), 6, 2)


def gluing_bounds() -> Bounds:
    """Bounds of the gluing check: its double cones grow fast in weight,
    so weights stop at 3/2 and levels at 5."""
    return Bounds(Fraction(3, 2), 5, 2)


# ---------- stabilization detector ----------


class CellResult(NamedTuple):
    value: int  # rank of the eventual image over the window
    stable: bool
    dims: tuple[int, ...]  # homology dim at each inspected level
    in_flight: bool  # unstable, and only a higher cap could settle it


def colimit_stabilize(
    levels: list[int],
    dims: list[int],
    steps: list[Optional[SparseMatrix]],
    window: int,
    first_rep: int,
    spans: Optional[list[SparseMatrix]] = None,
) -> tuple[int, bool]:
    """Stable value of one colimit cell from its dims at consecutive
    levels and the transition matrices between them; first_rep is the
    first level where the cell's weight is representable.

    Only the last window steps, steps[len(steps) - window:], are read,
    and none when there are fewer than window: the born-late guard reads
    from born_idx on and runs only when born_idx > len(steps) - window.
    Every other step may be None (LevelDiagram.walk builds none of them).

    spans[k], when given, holds columns spanning the tracked subspace of
    level k's homology and dims[k] is its dimension. Transitions must
    carry each tracked subspace into the next, so the subspaces form a
    nested sub-tower; every rank is then taken on the spanning columns.
    None tracks the whole homology."""

    def rank(m: SparseMatrix, k: int) -> int:  # m applied at level k
        return (m if spans is None else matmul(m, spans[k])).rank()

    if len(steps) < window:
        return (dims[-1] if dims else 0, False)
    alive = [k for k, v in enumerate(dims) if v]
    if alive:
        born_idx = alive[0]
        born = levels[born_idx]
        if born > max(first_rep, levels[0]) and levels[-1] < born + window:
            # born later than it could have been: demand a full window
            # past birth before judging, unless the class already died
            died = dims[-1] == 0 and all(
                rank(steps[k], k) == 0 for k in range(born_idx, len(steps))
            )
            if not died:
                return (dims[-1], False)
    first = len(steps) - window
    comp = steps[first]
    for m in steps[first + 1 :]:
        comp = matmul(m, comp)
    crank = rank(comp, first)
    stable = all(rank(steps[k], k) == crank for k in range(first, len(steps)))
    return (crank, stable)


def cell_in_flight(dims: tuple[int, ...], levels: list[int], window: int) -> bool:
    """Is an unstable cell with these level dims in flight: born too
    close to the top to judge, or already dead at the top and waiting
    out the window? A cell alive from the first level is undersampled,
    not newborn."""
    alive = [k for k, v in enumerate(dims) if v]
    if not alive:
        return False
    if dims[-1] == 0:
        return True
    return alive[0] > 0 and levels[alive[0]] + window > levels[-1]


def judge_cell(
    levels: list[int],
    dims: list[int],
    steps: list[Optional[SparseMatrix]],
    window: int,
    first_rep: int,
    spans: Optional[list[SparseMatrix]] = None,
) -> CellResult:
    """One cell judged from its level diagram (see colimit_stabilize)."""
    value, stable = colimit_stabilize(levels, dims, steps, window, first_rep, spans)
    flight = not stable and cell_in_flight(dims, levels, window)
    return CellResult(value, stable, tuple(dims), flight)


def level_range(l0: int, top: int) -> list[int]:
    """The levels l0..top. A family whose first level lies above the
    level cap would run on no level at all, so that is a usage error."""
    if l0 > top:
        raise ValueError(f"the family starts at level {l0}, above the level cap {top}")
    return list(range(l0, top + 1))


class _Unsettled(Exception):
    """A walk met a cell its stop test holds on (LevelDiagram.walk)."""


def _unstable(r: CellResult) -> bool:
    """The stop test of an attempt that settles when every cell is stable."""
    return not r.stable


def settle(
    l0: int, window: int, max_level: int, attempt: Callable[[list[int], bool], tuple]
):
    """Run attempt(levels, lazy) on the levels l0..top, starting at top =
    min(l0 + window, max_level) and raising top by one until the attempt
    reports settled or top reaches max_level. attempt returns
    (result, settled); the last result is returned.

    lazy is True below max_level: the attempt then gives its walks a stop
    test that holds only on a cell that keeps it from settling, and may
    give them cells to judge first, each with the stable value it needs
    there (LevelDiagram.walk); it is abandoned at the first cell that
    fails either (_Unsettled). Its homology stays in the family caches,
    and the next top reads every level below it again, so only the
    judging of the other cells is skipped. The attempt at max_level is
    never abandoned."""
    top = min(l0 + window, max_level)
    while top < max_level:
        try:
            result, settled = attempt(level_range(l0, top), True)
            if settled:
                return result
        except _Unsettled:
            pass
        top += 1
    return attempt(level_range(l0, top), False)[0]


# ---------- level families ----------


class Family:
    """A complex per level: at(l) is the complex at level l and step(l)
    its transition chain map at(l) -> at(l+1), each made on first request
    and kept, provider(l) the module structure its homology is read
    against, and min_level its first level. index(l) is what the family
    keeps beside the complex: a tensor's generator table, or None. left
    is a tensor family's left factor (tensor_family), or None.

    make(l) returns (complex, index), step(family, l) the transition, and
    provider(l) the strand provider (default R). The family is passed to
    step so that nothing it holds closes over it: the cyclic collector is
    off while a command runs (cli.main), so a reference cycle through a
    family would keep every complex and cache it reaches alive until the
    command ends. make, step and provider must not hold the family or
    anything that holds it.

    Its homology is cached in homology_cache and its step matrices in
    step_cache, each under (level, d, n) of the source level, n the
    integer weight on that level's lattice (LevelDiagram), so the
    diagrams of one family over growing level ranges share them."""

    def __init__(
        self,
        make: Callable[[int], tuple[FreeComplex, object]],
        step: Callable[[Family, int], ChainMap],
        provider: Optional[Callable[[int], Strands]] = None,
        min_level: int = 0,
    ):
        self._make, self._step, self._provider = make, step, provider
        self.min_level = min_level
        self.left: Optional[Family] = None
        self._made: dict[int, tuple[FreeComplex, object]] = {}
        self._steps: dict[int, ChainMap] = {}
        self._providers: dict[int, Strands] = {}
        self.homology_cache: dict[tuple[int, int, int], HomologyData] = {}
        self.step_cache: dict[tuple[int, int, int], SparseMatrix] = {}

    def _made_at(self, l: int) -> tuple[FreeComplex, object]:
        hit = self._made.get(l)
        if hit is None:
            hit = self._made[l] = self._make(l)
        return hit

    def at(self, l: int) -> FreeComplex:
        return self._made_at(l)[0]

    def index(self, l: int):
        return self._made_at(l)[1]

    def step(self, l: int) -> ChainMap:
        hit = self._steps.get(l)
        if hit is None:
            hit = self._steps[l] = self._step(self, l)
        return hit

    def provider(self, l: int) -> Strands:
        hit = self._providers.get(l)
        if hit is None:
            make = self._provider
            hit = self._providers[l] = Strands(self.at(l).ring) if make is None else make(l)
        return hit

    def diagram(self, levels) -> LevelDiagram:
        return LevelDiagram(self, levels)


class LevelMap(NamedTuple):
    """A chain map per level between two families, at(l): src.at(l) ->
    dst.at(l), made on each request. Its squares with the two families'
    steps commute strictly, so its cone is a family (cone_family)."""

    src: Family
    dst: Family
    at: Callable[[int], ChainMap]


def cone_family(f: LevelMap) -> Family:
    """cone(f.at(l)) at each level, with the transitions that cone_map
    induces from the steps of f's source and target."""
    return Family(
        lambda l: (cone(f.at(l)), None),
        lambda fam, l: cone_map(f.src.step(l), f.dst.step(l), fam.at(l), fam.at(l + 1)),
        min_level=max(f.src.min_level, f.dst.min_level),
    )


def _from_below(
    a: Family, done: Callable[[Family], bool], make: Callable[[Family], object]
) -> None:
    """make(f) for a and each left factor below it that is not done,
    lowest first."""
    pending = []
    while a is not None and not done(a):
        pending.append(a)
        a = a.left
    for f in reversed(pending):
        make(f)


def tensor_family(
    a: Family, b: Family, make: Callable[[FreeComplex, FreeComplex], tuple]
) -> Family:
    """a.at(l) (x) b.at(l) at each level, made with its generator table by
    make (tensor_complexes), with the transitions a.step (x) b.step.

    A chain of left factors (the tower's powers) is made bottom-up: each
    factor then finds the one below it made, so the stack depth does not
    grow with the length of the chain."""

    def at(l: int) -> tuple:
        _from_below(a, lambda f: l in f._made, lambda f: f.at(l))
        return make(a.at(l), b.at(l))

    def step(fam: Family, l: int) -> ChainMap:
        _from_below(a, lambda f: l in f._steps, lambda f: f.step(l))
        return tensor_maps(
            a.step(l), b.step(l), fam.at(l), fam.index(l), fam.at(l + 1), fam.index(l + 1)
        )

    fam = Family(at, step, min_level=max(a.min_level, b.min_level))
    fam.left = a
    return fam


# what a walk tracks in one cell: (dims per level, spanning columns or
# None), or None when the cell is zero at every level
Tracked = Optional[tuple[list[int], Optional[list[SparseMatrix]]]]


class LevelDiagram:
    """A family over consecutive levels: complexes[k] is its complex at
    levels[k] and providers[k] the module structure, both made as the
    diagram is. The transition to levels[k+1] (with the lifts beneath
    it) is made only for a step matrix with homology on both sides, and
    a walk asks only for the step matrices its judge reads: those of the
    last window of levels (colimit_stabilize).

    Inside level k a weight is its integer n over that level's denom
    (rings.LevelRing.num). Homology and step matrices go to the family's
    caches; a weight off a level's lattice has the empty strand there,
    passed as None: its homology is NO_HOMOLOGY and its step matrix has no
    columns, neither built nor cached.

    A strand reads each differential's rows from its complex's row index
    (FreeComplex.rows_at), and a transition by the columns of its
    generators, so the diagram keeps no index of its own.

    `homology` passes the cached (d+1, n) entry, where there is one, to
    homology_data, whose rank of d_{d+1} can settle dim 0 with no read
    of d_{d+1} at all. `walk` goes through the degrees from the top down so
    that entry is there, and through each degree's cells on the top
    level's lattice (see walk); `run` is the walk that tracks all of the
    homology."""

    def __init__(self, family: Family, levels):
        self.family = family
        self.levels = list(levels)
        self.complexes = [family.at(l) for l in self.levels]
        self.providers = [family.provider(l) for l in self.levels]

    def homology(self, k: int, d: int, n: Optional[int]) -> HomologyData:
        if n is None:  # the level's strand is empty
            return NO_HOMOLOGY
        cache, l = self.family.homology_cache, self.levels[k]
        h = cache.get((l, d, n))
        if h is None:
            above = cache.get((l, d + 1, n))
            h = homology_data(self.complexes[k], d, n, self.providers[k], above=above)
            cache[(l, d, n)] = h
        return h

    def step_matrix(self, k: int, d: int, ns: list[Optional[int]]) -> SparseMatrix:
        """H_d of the transition from levels[k] on the cell whose integer
        weight at level i is ns[i]."""
        n, field = ns[k], self.complexes[0].field
        if n is None:
            return SparseMatrix(self.homology(k + 1, d, ns[k + 1]).dim, 0, field)
        cache, key = self.family.step_cache, (self.levels[k], d, n)
        m = cache.get(key)
        if m is None:
            src_h = self.homology(k, d, n)
            dst_h = self.homology(k + 1, d, ns[k + 1])
            if src_h.dim == 0 or dst_h.dim == 0:
                m = SparseMatrix(dst_h.dim, src_h.dim, field)
            else:
                step = self.family.step(self.levels[k])
                m = homology_map_matrix(step, d, src_h, dst_h)
            cache[key] = m
        return m

    def walk(
        self,
        degrees,
        wmax: Fraction,
        window: int,
        track: Callable[[int, list[Optional[int]]], Tracked],
        stop: Optional[Callable[[CellResult], bool]] = None,
        first: Optional[dict] = None,
    ) -> dict[tuple[int, Fraction], CellResult]:
        """Judge every cell of the degrees up to weight wmax, degrees from
        the top down. A cell is an integer nt over the top level's denom
        D: the weights where some level's degree-d strand is nonzero,
        merged on that lattice. At level k its weight is nt / (D / D_k),
        or None (the empty strand) when that does not divide. track(d, ns)
        gives the cell's tracked dims and spans (colimit_stabilize), or
        None to skip it; only a judged cell gets a Fraction weight nt / D.
        The cells come back in ascending (d, w) order. The walk raises
        _Unsettled at the first judged cell that stop holds on (settle).

        With stop set, the cells of `first` are judged before the rest, in
        walk order, by the same judge and kept for the walk: first maps a
        cell (d, w) to the stable value its caller needs there, or to None
        where no value will do. The walk raises _Unsettled before judging
        anything when a value is None, and otherwise at the first of these
        cells that is not stable at its value or that the walk leaves out
        (not among its cells, or skipped by track)."""
        degrees = sorted(degrees, reverse=True)
        denom = self.complexes[-1].ring.denom
        ratios = [denom // x.ring.denom for x in self.complexes]
        cells = {
            d: sorted({
                n * q
                for x, prov, q in zip(self.complexes, self.providers, ratios)
                for n in strand_weights(x, d, x.ring.num_floor(wmax), prov)
            })
            for d in degrees
        }

        def judge(d: int, nt: int) -> Optional[CellResult]:
            ns = [nt // q if nt % q == 0 else None for q in ratios]
            tracked = track(d, ns)
            if tracked is None:
                return None
            dims, spans = tracked
            # only the steps colimit_stabilize reads: the last window
            lo = len(ns) - 1 - window
            mats = [
                self.step_matrix(k, d, ns) if 0 <= lo <= k else None
                for k in range(len(ns) - 1)
            ]
            # the level lattices are nested, so the first level with a
            # weight here is where the cell becomes representable
            first_rep = next(l for l, n in zip(self.levels, ns) if n is not None)
            return judge_cell(self.levels, dims, mats, window, first_rep, spans)

        judged = {}
        if stop is not None and first:
            if None in first.values():
                raise _Unsettled
            for d, w in sorted(first, key=lambda c: (-c[0], c[1])):
                nt = w * denom
                on = nt.denominator == 1 and nt.numerator in cells.get(d, ())
                r = on and judge(d, nt.numerator)
                if not (r and r.stable and r.value == first[(d, w)]):
                    raise _Unsettled
                judged[(d, nt.numerator)] = r
        blocks = []
        for d in degrees:
            block = []
            for nt in cells[d]:
                result = judged.get((d, nt)) or judge(d, nt)
                if result is None:
                    continue
                if stop is not None and stop(result):
                    raise _Unsettled
                block.append(((d, Fraction(nt, denom)), result))
            blocks.append(block)
        return dict(cell for block in reversed(blocks) for cell in block)

    def run(
        self,
        degrees,
        wmax: Fraction,
        window: int,
        stop: Optional[Callable[[CellResult], bool]] = None,
        first: Optional[dict] = None,
    ) -> dict[tuple[int, Fraction], CellResult]:
        """The walk that tracks each cell's whole homology."""

        def track(d, ns):
            dims = [self.homology(k, d, n).dim for k, n in enumerate(ns)]
            return (dims, None) if any(dims) else None

        return self.walk(degrees, wmax, window, track, stop=stop, first=first)

    def exact(self, degrees, wmax: Fraction) -> dict[tuple[int, Fraction], CellResult]:
        """Every nonzero cell of the first level up to weight wmax, each
        exact (stable at its own dim, never in flight): for a diagram whose
        colimit its first level already is. Degrees go from the top down,
        as in walk, so each homology hands its rank to the one below; the
        cells come back in ascending (d, w) order."""
        x, prov = self.complexes[0], self.providers[0]
        top, denom = x.ring.num_floor(wmax), x.ring.denom
        raw = {}
        for d in sorted(degrees, reverse=True):
            for n in strand_weights(x, d, top, prov):
                dim = self.homology(0, d, n).dim
                if dim:
                    raw[(d, Fraction(n, denom))] = CellResult(dim, True, (dim,), False)
        return dict(sorted(raw.items()))


# ---------- result types ----------


class Cell(NamedTuple):
    degree: int
    weight: Fraction
    dim: int
    stable: bool
    in_flight: bool


class StabilizedTable(NamedTuple):
    name: str
    cells: list[Cell]  # stable nonzero and unstable cells, sorted
    levels: tuple[int, ...]
    deg_max: int  # degrees 0..deg_max, reported as trusted_degree_max

    def dims(self) -> tuple[int, ...]:
        out = [0] * (self.deg_max + 1)
        for c in self.cells:
            if c.stable and c.degree <= self.deg_max:
                out[c.degree] += c.dim
        return tuple(out)

    def degree_stable(self, d: int) -> bool:
        return all(c.stable for c in self.cells if c.degree == d)

    def all_stable(self) -> bool:
        return all(c.stable for c in self.cells)

    def unstable_cells(self) -> list[Cell]:
        return [c for c in self.cells if not c.stable]

    def stable_cells_at(self, d: int) -> dict[Fraction, int]:
        return {
            c.weight: c.dim
            for c in self.cells
            if c.degree == d and c.stable and c.dim
        }


def make_table(
    name: str,
    raw: dict[tuple[int, Fraction], CellResult],
    levels,
    deg_max: int,
) -> StabilizedTable:
    cells = []
    for (d, w) in sorted(raw):
        r = raw[(d, w)]
        if r.stable and r.value == 0:
            continue
        cells.append(Cell(d, w, r.value, r.stable, r.in_flight))
    return StabilizedTable(name, cells, tuple(levels), deg_max)


# ---------- module references ----------


class ModuleRef(NamedTuple):
    kind: str  # "ring" | "residue" | "quotient" | "ideal"
    family: Optional[IdealFamily] = None

    @property
    def label(self) -> str:
        if self.kind == "ring":
            return "R"
        if self.kind == "residue":
            return "K"
        if self.kind == "quotient":
            return f"R/{self.family.name}"
        return self.family.name


def ring_module() -> ModuleRef:
    return ModuleRef("ring")


def residue_module() -> ModuleRef:
    return ModuleRef("residue")


def quotient_module(family: IdealFamily) -> ModuleRef:
    return ModuleRef("quotient", family)


def ideal_module(family: IdealFamily) -> ModuleRef:
    return ModuleRef("ideal", family)


def _module_exps(ref: ModuleRef, ring: LevelRing) -> tuple[Mono, ...]:
    """The monomial ideal J that cuts the module `ref` out of R: empty for
    R, the variables for K, the family's generators for R/J and for J."""
    if ref.kind == "ring":
        return ()
    if ref.kind == "residue":
        return ring.var_monos
    if ref.kind in ("quotient", "ideal"):
        return tuple(ref.family.gens_at(ring))
    raise AssertionError(f"unknown module kind {ref.kind!r}")


def _resolve_ref(ref: ModuleRef, ring: LevelRing, dmax: int, wmax: Fraction) -> FreeComplex:
    exps = _module_exps(ref, ring)
    if ref.kind == "ring":
        return unit_complex(ring)
    if ref.kind == "ideal":
        return ideal_resolution(ring, exps, dmax, wmax)
    return minimal_resolution(ring, exps, dmax, wmax)


def module_strands(ref: ModuleRef, ring: LevelRing) -> Strands:
    """The strand provider that reads homology against the module `ref`."""
    return Strands(ring, _module_exps(ref, ring), inside=ref.kind == "ideal")


def module_min_level(ref: ModuleRef) -> int:
    return ref.family.min_level() if ref.family is not None else 0


def _lift_step(fam: Family, l: int) -> ChainMap:
    src = fam.at(l)
    return lift_chain_map(src, fam.at(l + 1), ring_map=src.ring.include_exp)


def resolution_family(
    spec: RingSpec,
    ref: ModuleRef,
    deg_max: int,
    weight_max: Fraction,
    against: Optional[ModuleRef] = None,
) -> Family:
    """The resolution of the module `ref` at each level, built through
    deg_max and weight_max, with the lifts of the level inclusions as its
    transitions, read against the module `against` (default R): its
    homology is Tor(ref, against)."""
    against = against if against is not None else ring_module()
    for r in (ref, against):
        if r.family is not None and r.family.spec is not spec:
            raise ValueError("module family was built over a different spec")
    wmax = Fraction(weight_max)
    return Family(
        lambda l: (_resolve_ref(ref, make_level_ring(spec, l), deg_max, wmax), None),
        _lift_step,
        lambda l: module_strands(against, make_level_ring(spec, l)),
        max(module_min_level(ref), module_min_level(against)),
    )


# ---------- the tower ----------


def family_contains_unit(family: IdealFamily) -> bool:
    return any(all(x == 0 for x in g) for g in family.gens)


def _unit_step(fam: Family, l: int) -> ChainMap:
    src, dst = fam.at(l), fam.at(l + 1)
    return ChainMap(
        src=src, dst=dst, entries={0: [((0, dst.ring.one()),)]}, ring_map=src.ring.include_exp
    )


def _power(x: FreeComplex, r: FreeComplex, dmax: int, wmax: Fraction):
    """x (x) r with its generator table, scanned for a unit entry (see
    Tower.X)."""
    t, index = tensor_complexes(x, r, dmax, wmax)
    unit = t.ring.unit
    if any(unit in elem for cols in t.diff.values() for col in cols for _i, elem in col):
        raise AssertionError("tensor of minimal complexes has a unit entry")
    return t, index


class Tower:
    """The derived powers of one ideal family and the maps between them,
    as level families: res = res(I(l)), unit = R, the powers X(n), the
    multiplications eps(n), the maps sigma(n), the cones Q(n) and the
    cofibres of sigma(n) read as X(n) against R/I. The resolutions and
    powers are built through degree deg_max and weight weight_max, so the
    cones of maps between them reach degree deg_max + 1. Each power,
    cone and cofibre is made once and kept, with its homology.

    tower_report reads the cofibres and the powers below n_max (its
    X(n_max), read at degree 0 alone, is a power built through 1 from
    X(n_max - 1) and res), the gluing check the
    multiplications, sigma(n) and Q(n), an almost equivalence of a
    power its eps(n), and amitsur_crosscheck Q(m + 1), the Morse
    reduction of the Amitsur totalization Tot^m. quotient_homotopy and
    static_check build none of it; the tests read Q(d + 2) and
    cone(sigma_1) as oracles for them."""

    def __init__(
        self,
        spec: RingSpec,
        family: IdealFamily,
        deg_max: int,
        weight_max: Fraction,
    ):
        if family.spec is not spec:
            raise ValueError("family was built over a different spec")
        self.family = family
        self.dmax = deg_max
        self.wmax = Fraction(weight_max)
        self.unit = Family(lambda l: (unit_complex(make_level_ring(spec, l)), None), _unit_step)
        self.res = resolution_family(spec, ideal_module(family), deg_max, self.wmax)
        self._kept: dict[tuple[str, int], Family] = {("X", 1): self.res}

    def _keep(self, key: tuple[str, int], make: Callable[[], Family]) -> Family:
        hit = self._kept.get(key)
        if hit is None:
            hit = self._kept[key] = make()
        return hit

    def X(self, n: int) -> Family:
        """X(n): the n-fold tensor power of res(I(l)), built through the
        tower's deg_max and weight_max.

        Its generators are the n-tuples of resolution generators, so its
        generator table (index) stays valid. That needs the power to be
        minimal as it stands: res(I(l)) is minimal, and a tensor of
        minimal complexes over a positively graded ring stays minimal.
        Every variable has positive weight, so an entry is a unit exactly
        when it holds the unit monomial; the power is scanned for one, and
        finding one is an internal fault (AssertionError)."""
        if n < 1:
            raise ValueError("derived powers start at n = 1")
        kept, dmax, wmax = self._kept, self.dmax, self.wmax
        for k in range(2, n + 1):  # bottom-up, so no recursion in n
            if ("X", k) not in kept:
                kept[("X", k)] = tensor_family(
                    kept[("X", k - 1)], self.res, lambda x, r: _power(x, r, dmax, wmax)
                )
        return kept[("X", n)]

    def eps(self, n: int) -> LevelMap:
        """Multiplication X(n) -> R, stored as the augmentation."""
        x, unit = self.X(n), self.unit

        def at(l: int) -> ChainMap:
            src = x.at(l)
            ent = {0: [((0, a),) if a else () for a in src.aug]} if src.aug else {}
            return ChainMap(src=src, dst=unit.at(l), entries=ent)

        return LevelMap(x, unit, at)

    def sigma(self, n: int) -> LevelMap:
        """id (x) eps_1: X(n+1) -> X(n)."""
        x, y, res = self.X(n + 1), self.X(n), self.res

        def at(l: int) -> ChainMap:
            aug, src = res.at(l).aug, x.at(l)
            ent = {d: [()] * len(gl) for d, gl in src.gens.items()}
            for (p, i, q, j), idx in x.index(l).items():
                if q == 0 and aug[j]:
                    ent[p][idx] = ((i, aug[j]),)
            return ChainMap(src=src, dst=y.at(l), entries=ent)

        return LevelMap(x, y, at)

    def Q(self, n: int) -> Family:
        """cone(eps_n), the stage-n model of R/I^infty; for n = m + 1 the
        Morse reduction of the Amitsur totalization Tot^m (amitsur)."""
        return self._keep(("Q", n), lambda: cone_family(self.eps(n)))

    def cofibre(self, n: int) -> Family:
        """The cofibre of sigma_n as X(n)'s own complexes and steps read
        against R/I (tower_report)."""
        x, quotient = self.X(n), quotient_module(self.family)
        return self._keep(
            ("cofibre", n),
            lambda: Family(
                lambda l: (x.at(l), None),
                lambda _fam, l: x.step(l),
                lambda l: module_strands(quotient, x.at(l).ring),
                x.min_level,
            ),
        )


# ---------- Tor ----------


def derived_tensor(
    spec: RingSpec,
    left: ModuleRef,
    right: ModuleRef,
    deg_max: int,
    bounds: Bounds,
    deg_min: int = 0,
) -> StabilizedTable:
    """Stabilized Tor table of two modules, degrees deg_min..deg_max.

    deg_min matters when Tor_0 is infinite-dimensional weight by weight
    (an ideal against R/J, say): every level adds classes at its new
    finest weights, so the low degree drags the level loop to its cap,
    and the finest weights it leaves unstable there are in flight (see
    cell_in_flight).
    """
    raw, levels = _tor_cells(spec, left, right, range(deg_min, deg_max + 1), bounds)
    name = f"Tor({left.label}, {right.label})"
    return make_table(name, raw, levels, deg_max)


def _tor_cells(
    spec: RingSpec, left: ModuleRef, right: ModuleRef, degrees: range, bounds: Bounds
) -> tuple[dict[tuple[int, Fraction], CellResult], list[int]]:
    """The judged Tor cells of the degrees and the levels they were
    settled on: the resolution of left, read against right."""
    wmax = Fraction(bounds.weight_max)
    res = resolution_family(spec, left, degrees[-1] + 1, wmax, against=right)

    def attempt(levels, lazy):
        raw = res.diagram(levels).run(degrees, wmax, bounds.window, _unstable if lazy else None)
        return (raw, levels), all(r.stable for r in raw.values())

    return settle(res.min_level, bounds.window, bounds.max_level, attempt)


# ---------- quotient homotopy ----------


class QuotientHomotopy(NamedTuple):
    """pi_*(R/I^infty) in degrees 0..N. top_level is the top level of the
    diagrams the table was settled on, 0 when base change descends to
    level 0, and notes name base change, its descent or a unit ideal.
    n_used[d] is the derived power whose cone gave degree d:
    quotient_homotopy builds no derived power and leaves it empty, and
    only the tower oracle of the tests sets it."""

    table: StabilizedTable
    dims: tuple[int, ...]  # stable dims per degree 0..N
    stable: bool
    top_level: int
    notes: list[str]
    n_used: tuple[int, ...] = ()  # derived power per degree, tower oracle only


@lru_cache(maxsize=None)
def _untruncated(field, root_base: int, variables) -> RingSpec:
    # one spec object per ring, so that its level rings are made once
    # (make_level_ring keeps them by spec identity)
    return RingSpec(field, root_base, variables)


_BASE_CHANGE_NOTE = "base change: Tor^A(A/I_A, R) over the untruncated algebra A"
_DESCENT_NOTE = (
    "base change by descent: Tor^A(A/I_A, R) = Tor^{A_0}(A_0/(x_S), R_0), read at level 0"
)


def _base_change_modules(
    spec: RingSpec, family: IdealFamily
) -> tuple[RingSpec, ModuleRef, ModuleRef]:
    """(A, K_S, R) of base change: A the untruncated spec, K_S = A/I_A for
    the ideal I_A of A that the family's roots generate (K_S = A when it
    has none), and R = A/T, T the truncation ideal (R = A when there is
    none)."""
    A = _untruncated(spec.field, spec.root_base, spec.variables)
    left = quotient_module(IdealFamily(family.name, A, root_vars=family.root_vars))
    T = spec.truncations
    right = quotient_module(IdealFamily("T", A, gens=T)) if T else ring_module()
    return A, left, right


def _quotient_by_base_change(
    spec: RingSpec, family: IdealFamily, degrees: range, bounds: Bounds
) -> tuple[dict[tuple[int, Fraction], CellResult], list[int], str]:
    """Tor^A(K_S, R) in the degrees (_base_change_modules), the levels it
    was read on and the note naming the route. When every divisible
    variable is a root variable it descends to level 0, where each
    nonzero cell is exact (quotient_homotopy, (5)); otherwise the Tor
    level loop settles it."""
    # base change reads no generator, but one above the cap is still a
    # usage error
    level_range(family.min_level(), bounds.max_level)
    A, left, right = _base_change_modules(spec, family)
    if any(v.divisible and i not in family.root_vars for i, v in enumerate(spec.variables)):
        return (*_tor_cells(A, left, right, degrees, bounds), _BASE_CHANGE_NOTE)
    res = resolution_family(A, left, degrees[-1] + 1, bounds.weight_max, against=right)
    return res.diagram([0]).exact(degrees, Fraction(bounds.weight_max)), [0], _DESCENT_NOTE


def require_idempotent(family: IdealFamily) -> None:
    """Refuse a family with I*I != I: the derived quotient R/I^infty and
    the almost verdicts are taken with respect to an idempotent ideal.
    The family comes from the user, so this is a usage error."""
    verdict = check_idempotent(family)
    if isinstance(verdict, NotIdempotent):
        raise ValueError(
            f"ideal {family.name} is not idempotent (witness {verdict.witness});"
            " the derived quotient and the almost verdicts need an idempotent family"
        )


def quotient_homotopy(
    spec: RingSpec,
    family: IdealFamily,
    N: int,
    bounds: Optional[Bounds] = None,
) -> QuotientHomotopy:
    """Homotopy of R/I^infty in degrees 0..N, stabilized over levels.

    A family without a unit takes base change: pi_d(R/I^infty) =
    Tor_d^A(A/I_A, R) on the untruncated spec, with no derived power
    built. It is read at level 0 alone when every divisible variable is a
    root variable (5), and by the Tor level loop otherwise. Its fixed
    generators are not read: once the family is idempotent and holds no
    unit, check_idempotent has accepted each live one for a positive
    exponent on a root variable, so it lies in I_A, and each dead one
    lies in T; so I = I_A R. A family
    with no roots therefore has dead generators only: it is the zero
    ideal, S is empty, K_S = A, and the table is R in degree 0. The tower
    of derived powers (degree d from cone(eps_{d+2})) gives the same
    stable cells; the tests keep it as an oracle.

    Why base change holds. Write A for the colimit algebra, S for the
    root variables of the family, I_A for the ideal of A their roots
    generate, K_S = A/I_A, T for the truncation ideal, R = A/T and
    I = I_A R. S may be empty: then I_A = 0, K_S = A and each step below
    holds trivially.
    (1) K_S (x)^L_A K_S = K_S. A and K_S split over the variables. For one
    divisible v, m_v = U_l v^{1/r^l} A is a directed union of free
    modules, so it is flat, and m_v^2 = m_v; so Tor_1^{A_v}(k, k) =
    m_v/m_v^2 = 0 and k (x)^L k = k over A_v, and Kunneth gives (1).
    Equivalently I_A (x)^L_A K_S = 0 and I_A (x)^L_A I_A = I_A. I_A itself
    need not be flat: for S = {x, y}, Tor_2^A(K_S, A/(x^c, y^c)) = K_S by
    Kunneth, and that is Tor_1^A(I_A, A/(x^c, y^c)).
    (2) E := I_A (x)^L_A R -> I is onto on H_0, so its cone N has homology
    only in degrees >= 1: H_1(N) = (I_A cap T)/I_A T and H_i(N) =
    Tor_{i-1}^A(I_A, R) for i >= 2, each killed by I_A, so a K_S-module.
    So E (x)^L_R N = I_A (x)^L_A N = 0 by (1), and E (x)^L_R E =
    I_A (x)^L_A I_A (x)^L_A R = E: E is a derived idempotent of R, and
    cone(E -> R) = K_S (x)^L_A R.
    (3) By induction on n, E -> I^{(x)L n} -> N^{(x)L n} is a triangle:
    E (x)^L_R I^{(x)L (n-1)} = E and N (x)^L_R I^{(x)L (n-1)} = N^{(x)L n},
    both since E (x)^L_R N = 0. N^{(x)L n} lives in degrees >= n, so the
    octahedron on E -> I^{(x)L n} -> R gives H_d cone(I^{(x)L n} -> R) =
    Tor_d^A(K_S, R) for d <= n - 1, in particular at n = d + 2.
    (4) A is free over each level algebra A_l, so the level-wise Tor over
    A_l, with the lifts of the level inclusions as transitions, has the
    same colimit that the tower's level diagram reads.
    (5) Descent. Suppose every divisible variable lies in S (S^c empty).
    Every monomial with a positive exponent on a root variable lies in
    I_A, so K_S = A/I_A is the polynomial ring on the plain variables,
    and as an A_0-module it is A_0/(x_S), x_S the variables of S. The
    truncations have integral exponents, so T is generated in A_0 and
    R = A (x)_{A_0} R_0, R_0 = A_0/T_0. A is free over A_0, so a free
    A_0-resolution P of R_0 gives the free A-resolution A (x)_{A_0} P of
    R, and K_S (x)_A (A (x)_{A_0} P) = K_S (x)_{A_0} P: Tor^A(K_S, R) =
    Tor^{A_0}(A_0/(x_S), R_0) (flat base change, Weibel, An Introduction
    to Homological Algebra, 3.2). That is the Koszul homology of x_S on
    R_0, which the level-0 diagram of (4) reads: the resolution of K_S at
    level 0 against R_0. It is integrally graded, finite in each weight
    and already the colimit, so each of its nonzero cells is exact and
    nothing is lifted or judged across levels. With a divisible variable
    outside S, pi_0 has a cell at every weight of that variable's finest
    lattice, and the level loop settles what it can.
    """
    bounds = bounds if bounds is not None else default_bounds(N)
    require_idempotent(family)
    if family_contains_unit(family):
        raw, levels = {}, [family.min_level()]
        notes = ["ideal contains a unit, the quotient vanishes"]
    else:
        raw, levels, note = _quotient_by_base_change(spec, family, range(N + 1), bounds)
        notes = [note]
    table = make_table(f"pi(R/{family.name}^infty)", raw, levels, N)
    return QuotientHomotopy(
        table=table,
        dims=table.dims(),
        stable=table.all_stable(),
        top_level=levels[-1],
        notes=notes,
    )


# ---------- static check ----------


class StaticCheck(NamedTuple):
    static: Optional[bool]  # None when level stabilization ran out
    witness: Optional[tuple[int, Fraction]]
    stable: bool
    levels: tuple[int, ...]


def static_check(
    spec: RingSpec, family: IdealFamily, N: int, bounds: Optional[Bounds] = None
) -> StaticCheck:
    """Is R/I^infty static in degrees <= N: is its homotopy there all in
    degree 0? The witness is the first stable nonzero cell above degree 0.

    Write C for the cone of E -> I in quotient_homotopy, (2) (N there).
    By (2) and 0 -> I_A -> A -> K_S -> 0, H_d(C) = Tor_d^A(K_S, R) for
    d >= 1 and H_0(C) = 0. So R/I^infty is static iff Tor_d^A(K_S, R) = 0
    for d >= 1, and the check reads the base-change table in degrees
    1..N: at level 0 alone when every divisible variable is a root
    variable (quotient_homotopy, (5): levels is (0,) and every cell is
    exact), by the level loop otherwise. This is the classical test,
    cone(sigma_1: I (x)^L I -> I) acyclic, witness included. E (x)^L_R C = 0 and E (x)^L_R E = E turn
    the triangle E -> I -> C into E -> I (x)^L I -> C (x)^L C, so the
    octahedron gives cone(sigma_1) = cone(C (x)^L C -> C). If C starts in
    degree c >= 1, C (x)^L C starts in degree 2c, so the cone and C
    vanish below c and agree, cell by cell, in degree c. At N = 0 nothing
    is read: H_0 cone(sigma_1) = I/I^2 = 0."""
    require_idempotent(family)
    bounds = bounds if bounds is not None else default_bounds(N)
    if family_contains_unit(family) or N == 0:
        return StaticCheck(True, None, True, ())
    raw, levels, _note = _quotient_by_base_change(spec, family, range(1, N + 1), bounds)
    witness = next(((d, w) for (d, w), r in sorted(raw.items()) if r.stable and r.value), None)
    if witness is not None:
        return StaticCheck(False, witness, True, tuple(levels))
    if all(r.stable for r in raw.values()):
        return StaticCheck(True, None, True, tuple(levels))
    return StaticCheck(None, None, False, tuple(levels))


# ---------- tower report ----------


class TowerReport(NamedTuple):
    ok: bool
    n_max: int
    connectivity_failures: list[tuple[int, int, Fraction]]  # (n, i, w)
    h0_mismatches: list[tuple[int, Fraction, int, int]]  # (n, w, got, want)
    undetermined: list[tuple[int, int, Fraction]]
    levels: tuple[int, ...]
    h0_cells_checked: int
    # True when every undetermined cell is in flight (CellResult.in_flight)
    undetermined_is_boundary: bool = True
    # same flag restricted to the cofibre cells; the H_0 strands of a ring
    # with two or more root variables grow with the level at every weight,
    # so only the connectivity half can be expected to clear its frontier
    cof_undetermined_is_boundary: bool = True


def tower_report(
    spec: RingSpec,
    family: IdealFamily,
    n_max: int,
    bounds: Bounds,
) -> TowerReport:
    """Connectivity of the tower maps and collapse of H_0.

    For each n < n_max the cofibre of sigma_n must have stabilized
    H_i = 0 for i < n; for each 2 < n <= n_max the stabilized H_0(X_n)
    must equal H_0(X_2) weight by weight on mutually stable cells. The
    cofibres' homology is read up to degree n_max - 2 and the powers'
    at degree 0, so the tower is built through max(1, n_max - 1), and
    X(n_max), read at degree 0 alone, through 1. Below the level cap an
    attempt stops at its first unstable cell (settle): one unstable cell
    keeps it from settling.

    Cofibre n is read as X_n against R/I (Tower.cofibre): no sigma_n and
    no cone is built. At level l write eps_1: res(I_l) -> R_l.
    (1) sigma_n = id_{X_n} (x) eps_1, so cone(sigma_n) = X_n (x) cone(eps_1),
    up to the Koszul sign on X_n's generators of odd degree.
    (2) res(I_l) resolves I_l, so the projection cone(eps_1) -> R_l/I_l
    of R_l in degree 0 is a quasi-isomorphism.
    (3) X_n is a bounded-below complex of free modules, so X_n (x) -
    preserves that quasi-isomorphism: cone(sigma_n) -> X_n (x) R_l/I_l.
    (4) I_l R_{l+1} lies in I_{l+1}, so the projections commute with the
    level transitions.
    (5) X_n is built through max(1, n_max - 1) >= n for n < n_max, so the
    degrees read (H_d for d < n reads X_n through d + 1 <= n) and the
    weight cap are exact. So every level dim and every step rank is equal
    cell for cell, and with them every verdict, undetermined cell and
    flag.
    """
    tw = Tower(spec, family, max(1, n_max - 1), bounds.weight_max)
    wmax, window = tw.wmax, bounds.window
    powers = {n: tw.X(n) for n in range(2, n_max)}
    if n_max >= 2:
        powers[n_max] = tensor_family(
            tw.X(n_max - 1), tw.res, lambda x, r: _power(x, r, 1, wmax)
        )

    def attempt(levels, lazy):
        stop = _unstable if lazy else None
        cof_raw = {
            n: tw.cofibre(n).diagram(levels).run(range(n), wmax, window, stop)
            for n in range(1, n_max)
        }
        h0_raw = {n: x.diagram(levels).run([0], wmax, window, stop) for n, x in powers.items()}
        settled = all(
            r.stable
            for raw in (*cof_raw.values(), *h0_raw.values())
            for r in raw.values()
        )
        return (cof_raw, h0_raw, levels), settled

    cof_raw, h0_raw, levels = settle(family.min_level(), window, bounds.max_level, attempt)
    conn_failures = []
    undetermined = []
    all_boundary = True
    cof_boundary = True
    for n in sorted(cof_raw):
        for (d, w) in sorted(cof_raw[n]):
            r = cof_raw[n][(d, w)]
            if not r.stable:
                undetermined.append((n, d, w))
                all_boundary = all_boundary and r.in_flight
                cof_boundary = cof_boundary and r.in_flight
            elif r.value:
                conn_failures.append((n, d, w))

    h0_mismatches = []
    checked = 0
    base = h0_raw.get(2, {})
    zero = CellResult(0, True, (), False)  # a cell the walk left out
    for n in range(3, n_max + 1):
        for key in sorted(set(base) | set(h0_raw[n])):
            rb, rn = base.get(key, zero), h0_raw[n].get(key, zero)
            if not (rb.stable and rn.stable):
                undetermined.append((n, 0, key[1]))
                for r in (rb, rn):
                    if not r.stable:
                        all_boundary = all_boundary and r.in_flight
                continue
            checked += 1
            if rb.value != rn.value:
                h0_mismatches.append((n, key[1], rn.value, rb.value))

    return TowerReport(
        ok=not conn_failures and not h0_mismatches,
        n_max=n_max,
        connectivity_failures=conn_failures,
        h0_mismatches=h0_mismatches,
        undetermined=undetermined,
        levels=tuple(levels),
        h0_cells_checked=checked,
        undetermined_is_boundary=all_boundary,
        cof_undetermined_is_boundary=cof_boundary,
    )
