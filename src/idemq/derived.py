"""Derived powers of an ideal family and their stabilized homology.

X_{n,l} models the n-fold derived tensor power of I(l) as the n-fold
tensor of the minimal free resolution of the ideal at level l; the cone
of the multiplication eps_n: X_{n,l} -> R(l) models R/I^{(x)n}. Homotopy
of the idempotent quotient in degree d is read off that cone at n = d+2,
the smallest power the stabilization bound trusts for degree d.

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

One level loop (_settle) serves every command that raises its level
cap until the cells settle: it starts at min(l0 + window, max_level)
and adds one level at a time until the run settles or reaches the cap.
A family whose first level lies above the cap is a usage error
(level_range).

Every level family (the tower, Tor, the Amitsur totalization, the cones
of almost equivalences, the gluing square) is built by one builder,
_LevelBuilder: it makes each per-level piece on first request and keeps
it, and its level_diagram is the one place a LevelDiagram is assembled.
The diagrams of one builder share one homology cache, their tags keeping
the entries apart.

Homology is decided by ranks first. A diagram walks its degrees from the
top down, so the (d+1, w) homology is cached when (d, w) is computed and
hands over rank(d_{d+1}); a strand with as many cycles as that rank is
exact, and its boundaries are never built. A strand with no cached
neighbour, the top of its walk (every strand quotient-homotopy reads),
takes rank(d_{d+1}) from the rows of d_{d+1} at d_d's free columns, and
reads boundary columns only when it has homology
(complexes.homology_data). Cells still come back in ascending (d, w)
order. Inside a level a weight is an integer over the level's denom,
and the walk keys its strands and caches by it; a cell gets a Fraction
weight only when it is recorded (LevelDiagram.walk). The annihilation
route of `almost` walks the same cells.

Every complex is built only through the degree its reads need, by one
rule. H_d reads a complex through degree d + 1. A cone read through D
reads its target through D and its source through D - 1. A tensor built
through D needs each factor through D, and a chain map is built through
the degree of its source. So at degree bound N the quotient route builds
its tower through N, the static check through N + 1 (it reads
cone(sigma_1) at N), and the gluing check its tower, module and tensors
through N + 1. An almost equivalence builds a derived power, the source
of its cone, through N and a module resolution through N + 1. The tower
report builds through n_max - 1: it reads cone(sigma_n) below n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable, NamedTuple, Optional

from .complexes import (
    ChainMap,
    FreeComplex,
    NO_HOMOLOGY,
    HomologyData,
    Strands,
    TensorInfo,
    cone,
    cone_map,
    homology_data,
    homology_map_matrix,
    ideal_resolution,
    identity_map,
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
    steps: list[SparseMatrix],
    window: int,
    first_rep: int,
    spans: Optional[list[SparseMatrix]] = None,
) -> tuple[int, bool]:
    """Stable value of one colimit cell from its level dims and
    consecutive transition matrices; first_rep is the first level where
    the cell's weight is representable.

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
    steps: list[SparseMatrix],
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


def _settle(
    l0: int, window: int, max_level: int, attempt: Callable[[list[int]], tuple]
):
    """Run attempt(levels) on the levels l0..top, starting at top =
    min(l0 + window, max_level) and raising top by one until the attempt
    reports settled or top reaches max_level. attempt returns
    (result, settled); the last result is returned."""
    top = min(l0 + window, max_level)
    while True:
        result, settled = attempt(level_range(l0, top))
        if settled or top >= max_level:
            return result
        top += 1


# ---------- level diagrams ----------


# what a walk tracks in one cell: (dims per level, spanning columns or
# None), or None when the cell is zero at every level
Tracked = Optional[tuple[list[int], Optional[list[SparseMatrix]]]]


@dataclass
class LevelDiagram:
    """Complexes over consecutive levels with transition chain maps
    (steps[k]: complexes[k] -> complexes[k+1]) and a module structure
    provider per level, made by _LevelBuilder.level_diagram.

    Inside level k a weight is its integer n over that level's denom
    (rings.LevelRing.num). Homology is cached in the builder's cache
    under (tag, level, d, n) and a step matrix under (tag, "step", level,
    d, n), n on that level's lattice; a weight off it has the empty
    strand there, passed as None: its homology is NO_HOMOLOGY and its
    step matrix has no columns, neither built nor cached.

    Differentials and transitions are stored by column, so a strand reads
    the columns of its generators directly and the diagram keeps no index
    of its own.

    `homology` passes the cached (d+1, n) entry, where there is one, to
    homology_data, whose rank of d_{d+1} can settle dim 0 with no read
    of d_{d+1} at all. `walk` goes through the degrees from the top down so
    that entry is there, and through each degree's cells on the top
    level's lattice (see walk); `run` is the walk that tracks all of the
    homology."""

    levels: list[int]
    complexes: list[FreeComplex]
    steps: list[ChainMap]
    providers: list
    cache: dict
    tag: tuple

    def homology(self, k: int, d: int, n: Optional[int]) -> HomologyData:
        if n is None:  # the level's strand is empty
            return NO_HOMOLOGY
        key = (self.tag, self.levels[k], d, n)
        h = self.cache.get(key)
        if h is None:
            above = self.cache.get((self.tag, self.levels[k], d + 1, n))
            h = homology_data(self.complexes[k], d, n, self.providers[k], above=above)
            self.cache[key] = h
        return h

    def step_matrix(self, k: int, d: int, ns: list[Optional[int]]) -> SparseMatrix:
        """H_d(steps[k]) on the cell whose integer weight at level i is
        ns[i]."""
        n, field = ns[k], self.complexes[0].field
        if n is None:
            return SparseMatrix(self.homology(k + 1, d, ns[k + 1]).dim, 0, field)
        key = (self.tag, "step", self.levels[k], d, n)
        m = self.cache.get(key)
        if m is None:
            src_h = self.homology(k, d, n)
            dst_h = self.homology(k + 1, d, ns[k + 1])
            if src_h.dim == 0 or dst_h.dim == 0:
                m = SparseMatrix(dst_h.dim, src_h.dim, field)
            else:
                m = homology_map_matrix(self.steps[k], d, src_h, dst_h)
            self.cache[key] = m
        return m

    def walk(
        self,
        degrees,
        wmax: Fraction,
        window: int,
        track: Callable[[int, list[Optional[int]]], Tracked],
    ) -> dict[tuple[int, Fraction], CellResult]:
        """Judge every cell of the degrees up to weight wmax, degrees from
        the top down. A cell is an integer nt over the top level's denom
        D: the weights where some level's degree-d strand is nonzero,
        merged on that lattice. At level k its weight is nt / (D / D_k),
        or None (the empty strand) when that does not divide. track(d, ns)
        gives the cell's tracked dims and spans (colimit_stabilize), or
        None to skip it; only a judged cell gets a Fraction weight nt / D.
        The cells come back in ascending (d, w) order."""
        denom = self.complexes[-1].ring.denom
        ratios = [denom // x.ring.denom for x in self.complexes]
        blocks = []
        for d in sorted(degrees, reverse=True):
            cells = set()
            for x, prov, q in zip(self.complexes, self.providers, ratios):
                cells.update(n * q for n in strand_weights(x, d, x.ring.num_floor(wmax), prov))
            block = []
            for nt in sorted(cells):
                ns = [nt // q if nt % q == 0 else None for q in ratios]
                tracked = track(d, ns)
                if tracked is None:
                    continue
                dims, spans = tracked
                mats = [self.step_matrix(k, d, ns) for k in range(len(ns) - 1)]
                # the level lattices are nested, so the first level with a
                # weight here is where the cell becomes representable
                first_rep = next(l for l, n in zip(self.levels, ns) if n is not None)
                result = judge_cell(self.levels, dims, mats, window, first_rep, spans)
                block.append(((d, Fraction(nt, denom)), result))
            blocks.append(block)
        return dict(cell for block in reversed(blocks) for cell in block)

    def run(
        self, degrees, wmax: Fraction, window: int
    ) -> dict[tuple[int, Fraction], CellResult]:
        """The walk that tracks each cell's whole homology."""

        def track(d, ns):
            dims = [self.homology(k, d, n).dim for k, n in enumerate(ns)]
            return (dims, None) if any(dims) else None

        return self.walk(degrees, wmax, window, track)


# ---------- result types ----------


@dataclass(frozen=True)
class Cell:
    degree: int
    weight: Fraction
    dim: int
    stable: bool
    in_flight: bool


@dataclass
class StabilizedTable:
    name: str
    cells: list[Cell]  # stable nonzero and unstable cells, sorted
    levels: tuple[int, ...]
    trusted_degree_max: int
    deg_max: int

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


def _make_table(
    name: str,
    raw: dict[tuple[int, Fraction], CellResult],
    levels,
    trusted: int,
    deg_max: int,
) -> StabilizedTable:
    cells = []
    for (d, w) in sorted(raw):
        r = raw[(d, w)]
        if r.stable and r.value == 0:
            continue
        cells.append(Cell(d, w, r.value, r.stable, r.in_flight))
    return StabilizedTable(name, cells, tuple(levels), trusted, deg_max)


# ---------- the tower ----------


def _family_contains_unit(family: IdealFamily) -> bool:
    return any(all(x == 0 for x in g) for g in family.gens)


class _LevelBuilder:
    """Pieces built per level (rings, inclusions, complexes, maps), each
    made on first request and kept. Every later request gets the same
    object back, which matters where maps are compared with `is` (the
    ring maps that tensor_maps and cone_map check).

    Its level diagrams share one homology cache; each diagram's tag keeps
    its entries apart."""

    def __init__(self, spec: RingSpec):
        self.spec = spec
        self._memo: dict = {}
        self.cache: dict = {}  # homology of the level diagrams

    def memo(self, key, make: Callable[[], object]):
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = make()
        return hit

    @staticmethod
    def per_level(make: Callable[[int], object]) -> Callable[[int], object]:
        """make(l) as a function of the level whose values it keeps. make
        may close over the builder, so the builder's store must not hold
        it: that would be a reference cycle, which only the cyclic
        collector frees."""
        store: dict = {}

        def at(l: int):
            hit = store.get(l)
            if hit is None:
                hit = store[l] = make(l)
            return hit

        return at

    def ring(self, l: int) -> LevelRing:
        return make_level_ring(self.spec, l)

    def inc(self, l: int) -> Callable[[Mono], Mono]:
        return self.memo(("inc", l), lambda: self.ring(l).include_exp)

    def level_diagram(
        self,
        tag: tuple,
        levels,
        complex_at: Callable[[int], FreeComplex],
        step_at: Callable[[int], ChainMap],
        provider_at: Optional[Callable[[int], object]] = None,
    ) -> LevelDiagram:
        """The diagram of complex_at(l) over the levels, with transitions
        step_at(l) and module structure provider_at(l) (default R)."""
        if provider_at is None:
            provider_at = lambda l: Strands(self.ring(l))  # noqa: E731
        return LevelDiagram(
            levels=list(levels),
            complexes=[complex_at(l) for l in levels],
            steps=[step_at(l) for l in levels[:-1]],
            providers=[provider_at(l) for l in levels],
            cache=self.cache,
            tag=tag,
        )


class Tower(_LevelBuilder):
    """Per-level resolutions, derived powers, cones and their transition
    maps for one ideal family. The resolutions and powers are built
    through degree deg_max and weight weight_max, so the cones of maps
    between them reach degree deg_max + 1."""

    def __init__(
        self,
        spec: RingSpec,
        family: IdealFamily,
        deg_max: int,
        weight_max: Fraction,
    ):
        if family.spec is not spec:
            raise ValueError("family was built over a different spec")
        super().__init__(spec)
        self.family = family
        self.dmax = deg_max
        self.wmax = Fraction(weight_max)

    # -- per-level primitives --

    def unit(self, l: int) -> FreeComplex:
        return self.memo(("unit", l), lambda: unit_complex(self.ring(l)))

    def unit_step(self, l: int) -> ChainMap:
        return ChainMap(
            src=self.unit(l),
            dst=self.unit(l + 1),
            entries={0: [((0, self.ring(l + 1).one()),)]},
            ring_map=self.inc(l),
        )

    def resI(self, l: int) -> FreeComplex:
        def make():
            ring = self.ring(l)
            return ideal_resolution(ring, self.family.gens_at(ring), self.dmax, self.wmax)

        return self.memo(("resI", l), make)

    def alpha(self, l: int) -> ChainMap:
        return self.memo(
            ("alpha", l),
            lambda: lift_chain_map(self.resI(l), self.resI(l + 1), ring_map=self.inc(l)),
        )

    # -- derived powers --

    def _power(self, n: int, l: int) -> tuple[FreeComplex, Optional[TensorInfo]]:
        if n < 1:
            raise ValueError("derived powers start at n = 1")

        def make():
            if n == 1:
                return self.resI(l), None
            t, info = tensor_complexes(self.X(n - 1, l), self.resI(l), self.dmax, self.wmax)
            unit = t.ring.unit
            if any(unit in elem for cols in t.diff.values() for col in cols for _i, elem in col):
                raise AssertionError("tensor of minimal complexes has a unit entry")
            return t, info

        return self.memo(("X", n, l), make)

    def X(self, n: int, l: int) -> FreeComplex:
        """X_{n,l}: the n-fold tensor power of res(I(l)), built through
        the tower's deg_max and weight_max.

        Its generators are the n-tuples of resolution generators, so the
        index tables of Xinfo stay valid. That needs the power to be
        minimal as it stands: res(I(l)) is minimal, and a tensor of
        minimal complexes over a positively graded ring stays minimal.
        Every variable has positive weight, so an entry is a unit exactly
        when it holds the unit monomial; the power is scanned for one, and
        finding one is an internal fault (AssertionError)."""
        return self._power(n, l)[0]

    def Xinfo(self, n: int, l: int) -> TensorInfo:
        return self._power(n, l)[1]

    def lam(self, n: int, l: int) -> ChainMap:
        """Level transition X(n, l) -> X(n, l+1)."""
        if n == 1:
            return self.alpha(l)
        return self.memo(
            ("lam", n, l),
            lambda: tensor_maps(
                self.lam(n - 1, l),
                self.alpha(l),
                self.X(n, l),
                self.Xinfo(n, l),
                self.X(n, l + 1),
                self.Xinfo(n, l + 1),
            ),
        )

    def eps(self, n: int, l: int) -> ChainMap:
        """Multiplication X(n, l) -> R, stored as the augmentation."""
        x = self.X(n, l)
        ent = {0: [((0, a),) if a else () for a in x.aug]} if x.aug else {}
        return ChainMap(src=x, dst=self.unit(l), entries=ent)

    def sigma(self, n: int, l: int) -> ChainMap:
        """id (x) eps_1: X(n+1, l) -> X(n, l)."""

        def make():
            aug, src = self.resI(l).aug, self.X(n + 1, l)
            ent = {d: [()] * len(gl) for d, gl in src.gens.items()}
            for (d, idx), (p, i, q, j) in self.Xinfo(n + 1, l).prov.items():
                if q == 0 and aug[j]:
                    ent[d][idx] = ((i, aug[j]),)
            return ChainMap(src=src, dst=self.X(n, l), entries=ent)

        return self.memo(("sigma", n, l), make)

    # -- cones and their transitions --

    def Q(self, n: int, l: int) -> FreeComplex:
        return self.memo(("Q", n, l), lambda: cone(self.eps(n, l)))

    def Qstep(self, n: int, l: int) -> ChainMap:
        return self.memo(
            ("Qstep", n, l),
            lambda: cone_map(
                self.lam(n, l), self.unit_step(l), self.Q(n, l), self.Q(n, l + 1)
            ),
        )

    def cof_sigma(self, n: int, l: int) -> FreeComplex:
        return self.memo(("cof", n, l), lambda: cone(self.sigma(n, l)))

    def cof_step(self, n: int, l: int) -> ChainMap:
        return self.memo(
            ("cofstep", n, l),
            lambda: cone_map(
                self.lam(n + 1, l),
                self.lam(n, l),
                self.cof_sigma(n, l),
                self.cof_sigma(n, l + 1),
            ),
        )

    # -- diagrams --

    def q_diagram(self, n: int, levels) -> LevelDiagram:
        return self.level_diagram(
            ("Q", n), levels, lambda l: self.Q(n, l), lambda l: self.Qstep(n, l)
        )

    def x_diagram(self, n: int, levels) -> LevelDiagram:
        return self.level_diagram(
            ("X", n), levels, lambda l: self.X(n, l), lambda l: self.lam(n, l)
        )

    def cof_diagram(self, n: int, levels) -> LevelDiagram:
        return self.level_diagram(
            ("cof", n),
            levels,
            lambda l: self.cof_sigma(n, l),
            lambda l: self.cof_step(n, l),
        )


# ---------- module references for derived tensors ----------


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


class TorDiagram(_LevelBuilder):
    """Tor(left, right) over the levels: the resolution of `left` read
    against the module structure of `right`, with lifted transitions."""

    def __init__(
        self,
        spec: RingSpec,
        left: ModuleRef,
        right: ModuleRef,
        deg_max: int,
        weight_max: Fraction,
    ):
        for ref in (left, right):
            if ref.family is not None and ref.family.spec is not spec:
                raise ValueError("module family was built over a different spec")
        super().__init__(spec)
        self.left = left
        self.right = right
        self.dmax = deg_max
        self.wmax = Fraction(weight_max)
        self.min_level = max(module_min_level(left), module_min_level(right))

    def res(self, l: int) -> FreeComplex:
        return self.memo(
            ("res", l), lambda: _resolve_ref(self.left, self.ring(l), self.dmax, self.wmax)
        )

    def provider(self, l: int):
        return self.memo(("prov", l), lambda: module_strands(self.right, self.ring(l)))

    def lift(self, l: int) -> ChainMap:
        return self.memo(
            ("lift", l),
            lambda: lift_chain_map(self.res(l), self.res(l + 1), ring_map=self.inc(l)),
        )

    def diagram(self, levels) -> LevelDiagram:
        return self.level_diagram(("tor",), levels, self.res, self.lift, self.provider)


def derived_tensor(
    spec: RingSpec,
    left: ModuleRef,
    right: ModuleRef,
    deg_max: int,
    weight_max: Fraction,
    max_level: int = 6,
    window: int = 2,
    deg_min: int = 0,
) -> StabilizedTable:
    """Stabilized Tor table of two modules, degrees deg_min..deg_max.

    deg_min matters when Tor_0 is infinite-dimensional weight by weight
    (an ideal against R/J, say): every level adds classes at its new
    finest weights, so the low degree drags the level loop to its cap,
    and the finest weights it leaves unstable there are in flight (see
    cell_in_flight).
    """
    td = TorDiagram(spec, left, right, deg_max + 1, weight_max)

    def attempt(levels):
        raw = td.diagram(levels).run(range(deg_min, deg_max + 1), td.wmax, window)
        return (raw, levels), all(r.stable for r in raw.values())

    raw, levels = _settle(td.min_level, window, max_level, attempt)
    name = f"Tor({left.label}, {right.label})"
    return _make_table(name, raw, levels, deg_max, deg_max)


# ---------- quotient homotopy ----------


@dataclass
class QuotientHomotopy:
    table: StabilizedTable
    dims: tuple[int, ...]  # stable dims per degree 0..N
    stable: bool
    top_level: int
    n_used: tuple[int, ...]  # tensor power per degree
    notes: list[str]


def variable_blocks(spec: RingSpec, family: IdealFamily) -> list[list[int]]:
    """Partition of the variables: truncation monomials and ideal
    generators tie their supports together; everything else is free."""
    parent = list(range(spec.nvars))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for t in spec.truncations:
        sup = [i for i, x in enumerate(t) if x]
        for b in sup[1:]:
            union(sup[0], b)
    for g in family.gens:
        sup = [i for i, x in enumerate(g) if x]
        for b in sup[1:]:
            union(sup[0], b)
    buckets: dict[int, list[int]] = {}
    for i in range(spec.nvars):
        buckets.setdefault(find(i), []).append(i)
    return sorted(buckets.values())


def _restrict_spec(spec: RingSpec, block: list[int]) -> RingSpec:
    pos = {v: k for k, v in enumerate(block)}
    variables = tuple(spec.variables[v] for v in block)
    truncs = []
    for t in spec.truncations:
        sup = [i for i, x in enumerate(t) if x]
        if sup and all(i in pos for i in sup):
            e = [Fraction(0)] * len(block)
            for i in sup:
                e[pos[i]] = t[i]
            truncs.append(tuple(e))
    return RingSpec(spec.field, spec.root_base, variables, tuple(truncs))


def _restrict_family(
    family: IdealFamily, sub: RingSpec, block: list[int]
) -> IdealFamily:
    pos = {v: k for k, v in enumerate(block)}
    roots = tuple(pos[v] for v in family.root_vars if v in pos)
    gens = []
    for g in family.gens:
        sup = [i for i, x in enumerate(g) if x]
        if sup and all(i in pos for i in sup):
            e = [Fraction(0)] * len(block)
            for i in sup:
                e[pos[i]] = g[i]
            gens.append(tuple(e))
    return IdealFamily(
        name=family.name, spec=sub, root_vars=roots, gens=tuple(gens)
    )


def _kunneth_cells(
    tables: list[dict[tuple[int, Fraction], CellResult]],
    N: int,
    wmax: Fraction,
) -> dict[tuple[int, Fraction], CellResult]:
    acc: dict[tuple[int, Fraction], tuple[int, bool]] = {
        (0, Fraction(0)): (1, True)
    }
    for cells in tables:
        nxt: dict[tuple[int, Fraction], tuple[int, bool]] = {}
        for (d1, w1), (v1, s1) in acc.items():
            for (d2, w2), r in cells.items():
                v2, s2 = r.value, r.stable
                if v1 * v2 == 0 and (s1 and s2):
                    continue
                d, w = d1 + d2, w1 + w2
                if d > N or w > wmax:
                    continue
                old = nxt.get((d, w), (0, True))
                nxt[(d, w)] = (old[0] + v1 * v2, old[1] and s1 and s2)
        acc = nxt
    return {
        key: CellResult(v, s, (), False)
        for key, (v, s) in acc.items()
        if v or not s
    }


def _quotient_direct(
    spec: RingSpec, family: IdealFamily, N: int, bounds: Bounds
) -> tuple[dict[tuple[int, Fraction], CellResult], int]:
    tw = Tower(spec, family, N, bounds.weight_max)

    def attempt(levels):
        raw: dict[tuple[int, Fraction], CellResult] = {}
        for d in range(N + 1):
            raw.update(
                tw.q_diagram(d + 2, levels).run([d], bounds.weight_max, bounds.window)
            )
        return (raw, levels[-1]), all(r.stable for r in raw.values())

    return _settle(family.min_level(), bounds.window, bounds.max_level, attempt)


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
    force_direct: bool = False,
) -> QuotientHomotopy:
    """Homotopy of R/I^infty in degrees 0..N, stabilized over levels.

    Degree d is computed from cone(eps_{d+2}), the smallest power the
    stabilization bound trusts there. When the variables split into
    independent blocks the computation factors across them and the
    tables recombine by Kunneth convolution over the ground field.
    """
    bounds = bounds if bounds is not None else default_bounds(N)
    require_idempotent(family)
    notes = []
    blocks = variable_blocks(spec, family)
    if _family_contains_unit(family):
        # unit generators have empty support and belong to no block
        raw, top = {}, family.min_level()
        notes.append("ideal contains a unit, the quotient vanishes")
    elif force_direct or len(blocks) <= 1:
        raw, top = _quotient_direct(spec, family, N, bounds)
    else:
        per_block = []
        top = family.min_level()
        for block in blocks:
            sub = _restrict_spec(spec, block)
            fam = _restrict_family(family, sub, block)
            r, t = _quotient_direct(sub, fam, N, bounds)
            per_block.append(r)
            top = max(top, t)
        raw = _kunneth_cells(per_block, N, bounds.weight_max)
        notes.append(
            "factored over variable blocks "
            + " | ".join(
                ",".join(spec.variables[v].name for v in b) for b in blocks
            )
        )

    table = _make_table(
        f"pi(R/{family.name}^infty)", raw, range(family.min_level(), top + 1), N, N
    )
    return QuotientHomotopy(
        table=table,
        dims=table.dims(),
        stable=table.all_stable(),
        top_level=top,
        n_used=tuple(d + 2 for d in range(N + 1)),
        notes=notes,
    )


# ---------- static check ----------


@dataclass
class StaticCheck:
    static: Optional[bool]  # None when level stabilization ran out
    witness: Optional[tuple[int, Fraction]]
    stable: bool
    levels: tuple[int, ...]


def static_check(
    spec: RingSpec, family: IdealFamily, N: int, bounds: Optional[Bounds] = None
) -> StaticCheck:
    """Is R/I^infty static? True iff cone(sigma_1: X_2 -> X_1) is
    acyclic in degrees <= N at the stabilized colimit."""
    require_idempotent(family)
    bounds = bounds if bounds is not None else default_bounds(N)
    if _family_contains_unit(family):
        return StaticCheck(True, None, True, ())
    tw = Tower(spec, family, N + 1, bounds.weight_max)

    def attempt(levels):
        raw = tw.cof_diagram(1, levels).run(range(N + 1), bounds.weight_max, bounds.window)
        return (raw, levels), all(r.stable for r in raw.values())

    raw, levels = _settle(family.min_level(), bounds.window, bounds.max_level, attempt)
    witness = None
    for (d, w) in sorted(raw):
        r = raw[(d, w)]
        if r.stable and r.value:
            witness = (d, w)
            break
    if witness is not None:
        return StaticCheck(False, witness, True, tuple(levels))
    if all(r.stable for r in raw.values()):
        return StaticCheck(True, None, True, tuple(levels))
    return StaticCheck(None, None, False, tuple(levels))


# ---------- tower report ----------


@dataclass
class TowerReport:
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
    at degree 0, so the tower is built through max(1, n_max - 1).
    """
    tw = Tower(spec, family, max(1, n_max - 1), bounds.weight_max)

    def attempt(levels):
        cof_raw: dict[int, dict] = {}
        for n in range(1, n_max):
            cof_raw[n] = tw.cof_diagram(n, levels).run(
                range(n), bounds.weight_max, bounds.window
            )
        h0_raw: dict[int, dict] = {}
        for n in range(2, n_max + 1):
            h0_raw[n] = tw.x_diagram(n, levels).run(
                [0], bounds.weight_max, bounds.window
            )
        settled = all(
            r.stable
            for raw in (*cof_raw.values(), *h0_raw.values())
            for r in raw.values()
        )
        return (cof_raw, h0_raw, levels), settled

    cof_raw, h0_raw, levels = _settle(
        family.min_level(), bounds.window, bounds.max_level, attempt
    )
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
    for n in sorted(h0_raw):
        if n == 2:
            continue
        keys = set(base) | set(h0_raw[n])
        for key in sorted(keys):
            rb = base.get(key)
            rn = h0_raw[n].get(key)
            vb = rb.value if rb is not None else 0
            vn = rn.value if rn is not None else 0
            sb = rb.stable if rb is not None else True
            sn = rn.stable if rn is not None else True
            if not (sb and sn):
                undetermined.append((n, 0, key[1]))
                for r in (rb, rn):
                    if r is not None and not r.stable:
                        all_boundary = all_boundary and r.in_flight
                continue
            checked += 1
            if vb != vn:
                h0_mismatches.append((n, key[1], vn, vb))

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


# ---------- Amitsur comparison ----------


class _TotData(NamedTuple):
    tot: FreeComplex
    powers: list[FreeComplex]  # powers[k] = W (x) Wbar^{(x) k}, column k
    infos: list[Optional[TensorInfo]]  # infos[k] builds powers[k] from powers[k-1]
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
    infos: list[Optional[TensorInfo]] = [None]
    for k in range(1, m + 1):
        t, info = tensor_complexes(powers[-1], wbar, N + 1 + k, wmax)
        powers.append(t)
        infos.append(info)
    # w0 (x) a, for a generator i of W_d, is (p, i, q, j) = (0, 0, d, i)
    # in W (x) Wbar; w0 (x) w0 is not there
    rev = infos[1].rev
    ent = {}
    for d, gl in W.gens.items():
        hits = (rev.get((0, 0, d, i)) for i in range(len(gl)))
        ent[d] = [() if t is None else ((t, ring.one()),) for t in hits]
    cofaces = [ChainMap(src=W, dst=powers[1], entries=ent)]
    id_bar = identity_map(wbar)
    for k in range(1, m):
        cofaces.append(
            tensor_maps(cofaces[-1], id_bar, powers[k], infos[k], powers[k + 1], infos[k + 1])
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
    return _TotData(tot, powers, infos, wbar, offsets)


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
                maps[-1], beta_bar, lo.powers[k], lo.infos[k], hi.powers[k], hi.infos[k]
            )
        )
    ent = {}
    for d in lo.tot.gens:
        at = hi.offsets[d]
        ent[d] = [_shifted(col, at[k]) for k, f in enumerate(maps) for col in f.entries_at(d + k)]
    return ChainMap(src=lo.tot, dst=hi.tot, entries=ent, ring_map=inc)


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
    """Compare H_i of the truncated Amitsur totalization against the
    tower route, degree by degree up to N. Needs m >= N+2 so the
    truncation error sits above the compared range.

    Truncation junk lives longer here than in the tower diagrams, so the
    run widens the detector window to the junk lifetime and treats cells
    first alive within lifetime + window - 1 levels of the top as young:
    they are still in flight and do not count against agreement."""
    if m < N + 2:
        raise ValueError(f"cosimplicial truncation m={m} needs m >= N+2={N + 2}")
    bounds = bounds if bounds is not None else default_bounds(N)
    reference = quotient_homotopy(spec, family, N, bounds)

    if _family_contains_unit(family):
        table = StabilizedTable("amitsur", [], (), N, N)
        agree = {
            d: reference.table.stable_cells_at(d) == {} for d in range(N + 1)
        }
        return AmitsurReport(table, reference, agree, m, bounds.window)

    l0 = family.min_level()
    am = _LevelBuilder(spec)
    tot = am.per_level(
        lambda l: _amitsur_level(am.ring(l), family, m, N, bounds.weight_max)
    )
    tot_step = am.per_level(lambda l: _amitsur_step(tot(l), tot(l + 1), am.inc(l), m))

    lam = _tot_lifetime(m, spec.root_base)
    window = max(bounds.window, lam)
    horizon = window + lam - 1

    def young(dims, top):
        alive = [k for k, v in enumerate(dims) if v]
        return bool(alive) and l0 + alive[0] + horizon > top

    def attempt(levels):
        diag = am.level_diagram(("tot", m), levels, lambda l: tot(l).tot, tot_step)
        raw = diag.run(range(N + 1), bounds.weight_max, window)
        table = _make_table(f"amitsur Tot^{m}", raw, levels, N, N)
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
                and all(young(raw[c].dims, levels[-1]) for c in loose)
            )
        return (table, agree, undet), all(agree.values())

    table, agree, undet = _settle(l0, window, bounds.max_level, attempt)
    return AmitsurReport(
        table, reference, agree, m, window, tuple(sorted(undet))
    )
