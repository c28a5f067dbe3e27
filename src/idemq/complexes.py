"""Free chain complexes over level rings, weight strand by weight strand.

A FreeComplex is a bounded complex of free modules with weight-homogeneous
differentials. All homology is computed on weight strands: fixing a weight
w cuts every degree down to a finite K-vector space (generator j paired
with a module monomial m, weight(j) + weight(m) = w) and the differential
to an exact scalar matrix. Truncating generators above a weight bound is
exact on the strands that remain.

One provider, Strands, selects the module structure: a monomial ideal J
read as R/J (R itself when J is empty) or, with `inside`, as J, so Tor
against a monomial quotient or ideal and reduction mod the maximal ideal
are one code path. `basis_at(n)` never returns a zero monomial.

Every map is stored by column. For each degree d, a differential
`FreeComplex.diff[d]` and a chain map's `ChainMap.entries[d]` are lists
with one column per source generator; column j is a tuple of (row
generator, ring element) pairs, `()` when generator j maps to zero. A
degree that is not stored maps every generator to zero (`diff_at`,
`entries_at`). Columns are immutable, so a cone or a cone map shares a
leg's column wherever its rows keep their positions.

One engine reads every map on strands: one row reader for the linear
systems and one column reader for images. `strand_rows` reads a map's
rows from its row index (`rows_of`; a differential keeps its own in
FreeComplex.rows_at): row (i, m) meets term c * e at the pair (j, m - e)
when e divides m. `add_image` adds a column of ring elements times a
module monomial to a strand vector. These are the two places a product
is looked up in a strand, and a pair the strand lacks is zero in the
module, so no monomial is tested for zero. Both write coefficients in
the program's one scalar convention (see fields): plain numbers summed
with `+`, each sum reduced once by the field's `normalize`, and an entry
whose terms cancel is dropped, so a strand vector stores no zero.
Monomials are packed ints (see rings), so a product is `e + mono` and a
quotient `m - e`.

A strand (StrandBasis) is a list of blocks, one (generator j, offset,
monomials) per generator with a nonzero part, generators ascending; the
monomials are the provider's own list for weight n - weight(j), so a
strand copies no monomial and builds no pair. Each provider keeps one
position table `pos`, monomial -> its place in its weight's list, and
pair (j, m) sits at offset[j] + pos[m]: the lookup is two integer keys
and no tuple. It needs no weight because every map is weight-
homogeneous (the tests' check_complex asserts it for a differential):
a product or quotient that meets generator j has the weight of j's
block, so a monomial the table holds lies in that block's list, and j
has a block.
`StrandBasis.pair` maps a position back to its pair.

Every system is solved from rows, with no matrix: homology reduces d_d
(homology_data), a resolution that is not written down in closed form
takes the kernel of the map out of a degree and a lift solves against
it, that map being the differential or in degree 0 the augmentation
(`out_rows`). Homology is
dim H_d(w) = nullity(d_d(w)) - rank(d_{d+1}(w)), where rank(d_{d+1})
comes from a caller that has the (d+1, w) homology or else from the rows
of d_{d+1} at d_d's free columns. Columns are read only for images:
boundaries where a strand's homology basis is read (`strand_columns`),
chain-map images, resolution spans and lift targets; `strand_column` is
the inverse of a column read.

A generator is nothing but its weight: `FreeComplex.gens[d]` lists the
weights of degree d's generators, and a generator is its position there.
FreeComplex groups each degree's generators by weight once
(`gens_by_weight`), so a strand costs one basis lookup per distinct
generator weight, not one per generator. It indexes each differential's
rows once too (`rows_at`), as flat tuples of terms, so a row read
touches only the terms of its own row. Both indexes are built on first
use and kept: a degree's generators and differential are written once,
before the degree is first read, and never replaced.

Inside a level a weight is the integer n = w * denom over the ring's
`denom` (LevelRing.num), and the strand functions take and return it:
`strand_basis`, `out_rows` and `homology_data` read the strand of
integer weight n, `strand_weights` lists the integer weights up to an
integer cap. Weight groups and module bases are keyed by integers too.
Generator lists keep Fractions, the weights where levels meet, and
`gens_by_weight` converts them once per degree; a caller holding a
level-free weight converts it with `num`, and one off the level's
lattice has the empty strand, so it builds none.

No complex here is ever minimised. Resolutions are built minimal, and
the tensor product of minimal complexes over a positively graded ring is
again minimal (no differential entry is a unit), so Gauss cancellation
would find nothing to cancel. Callers that rely on minimality check it
by scanning for the unit monomial. A quotient that splits by variable
(each generator a power of its own variable, truncated at most by pure
powers of it) has its resolution written down as such a tensor product
of Koszul and 2-periodic pieces (minimal_resolution); any other is
resolved strand by strand from kernels.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Collection, Iterable, Iterator, NamedTuple, Optional

from .rings import Elem, LevelRing, Mono, divides_any
from .sparsela import Echelon, SparseMatrix, Vec, kernel_rows, solve_rows

# ---------- complexes ----------

# one column of a map: (row generator, ring element) pairs
Column = tuple[tuple[int, Elem], ...]


def rows_of(cols: Iterable[Column], nrows: int, field) -> list[tuple]:
    """The row index of the map whose column j is cols[j]: for each of the
    nrows target generators i one flat tuple (j0, e0, c0, j1, e1, c1, ...)
    of the terms c * e in row i, columns ascending."""
    norm = field.normalize
    rows: list = [[] for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i, elem in col:
            row = rows[i]
            for e, c in elem.items():
                row += (j, e, norm(c))
    for i, row in enumerate(rows):  # in place: each list goes as its tuple comes
        rows[i] = tuple(row)
    return rows


class FreeComplex:
    """Bounded complex of free modules with weight-graded generators.

    gens[d] lists the weights of the degree-d generators. diff[d] maps
    degree d to degree d-1, one column per degree-d generator: column j
    pairs each generator i of degree d-1 in the boundary of generator j
    with its coefficient (a ring element).
    """

    __slots__ = ("ring", "gens", "diff", "aug", "aug_quotient", "_by_weight", "_rows")

    def __init__(
        self,
        ring: LevelRing,
        gens: Optional[dict[int, list[Fraction]]] = None,
        diff: Optional[dict[int, list[Column]]] = None,
        aug: Optional[list[Elem]] = None,
        aug_quotient: tuple[Mono, ...] = (),
    ):
        self.ring = ring
        self.gens = {} if gens is None else gens
        self.diff = {} if diff is None else diff
        # augmentation of the degree-0 part, one target element per
        # generator; aug_quotient lists monomial generators of the ideal
        # cut out of the target (empty tuple = the target is R itself)
        self.aug = aug
        self.aug_quotient = aug_quotient
        # degree -> its weight groups (gens_by_weight) and its rows (rows_at)
        self._by_weight: dict = {}
        self._rows: dict = {}

    @property
    def field(self):
        return self.ring.field

    @property
    def lo(self) -> int:
        ds = [d for d, g in self.gens.items() if g]
        return min(ds) if ds else 0

    @property
    def hi(self) -> int:
        ds = [d for d, g in self.gens.items() if g]
        return max(ds) if ds else 0

    def gens_at(self, d: int) -> list[Fraction]:
        return self.gens.get(d, [])

    def gens_by_weight(self, d: int) -> list[tuple[int, list[int]]]:
        """Degree-d generator indices grouped by integer weight (see
        LevelRing.num): (weight, indices) pairs, ascending in weight,
        indices ascending within a group. Built on first use and kept."""
        index = self._by_weight.get(d)
        if index is None:
            num = self.ring.num
            groups: dict[int, list[int]] = {}
            for j, gw in enumerate(self.gens.get(d, ())):
                n = num(gw)
                if n is None:
                    raise AssertionError(f"generator weight {gw} is off the level's lattice")
                groups.setdefault(n, []).append(j)
            index = self._by_weight[d] = sorted(groups.items())
        return index

    def rows_at(self, d: int) -> list[tuple]:
        """The row index of diff[d] (rows_of). Built on first use and kept."""
        rows = self._rows.get(d)
        if rows is None:
            rows = self._rows[d] = rows_of(self.diff.get(d, ()), self.rank(d - 1), self.field)
        return rows

    def rank(self, d: int) -> int:
        return len(self.gens.get(d, []))

    def diff_at(self, d: int) -> list[Column]:
        """diff[d], or rank(d) empty columns where it is not stored."""
        return self.diff.get(d) or [()] * self.rank(d)

    def total_rank(self) -> int:
        return sum(len(g) for g in self.gens.values())

    def __repr__(self) -> str:
        ranks = {d: len(g) for d, g in sorted(self.gens.items()) if g}
        return f"<FreeComplex ranks={ranks} over {self.ring!r}>"


def unit_complex(ring: LevelRing) -> FreeComplex:
    """R sitting in degree 0."""
    return FreeComplex(
        ring=ring,
        gens={0: [Fraction(0)]},
        diff={},
        aug=[ring.one()],
        aug_quotient=(),
    )


# ---------- the strand provider ----------


class Strands:
    """A module cut out by a monomial ideal J (packed generators at the
    ring's level): R/J by default, R itself when J is empty, and J as a
    submodule of R when `inside` is set. `basis_at(n)` lists the monomials
    of integer weight n (LevelRing.num) that are nonzero in the module, so
    in either reading a product of a listed monomial with a ring monomial
    that is not listed is zero in the module. A module other than R keeps
    its list per weight. `pos` maps each listed monomial to its position
    in its weight's list: R's is the ring's own table (LevelRing.pos),
    another module fills its own as it lists a weight."""

    def __init__(
        self, ring: LevelRing, ideal_exps: tuple[Mono, ...] = (), inside: bool = False
    ):
        self.ring = ring
        self.ideal_exps = tuple(ideal_exps)
        self.inside = inside
        self._lists: dict[int, list[Mono]] = {}
        self.pos: dict[Mono, int] = {} if ideal_exps or inside else ring.pos

    def in_ideal(self, e: Mono) -> bool:
        return divides_any(e, self.ideal_exps, self.ring.guard)

    def basis_at(self, n: int) -> list[Mono]:
        if n < 0:
            return []
        if not self.ideal_exps and not self.inside:
            return self.ring.basis_at(n)
        hit = self._lists.get(n)
        if hit is None:
            hit = self._lists[n] = [
                e for e in self.ring.basis_at(n) if self.in_ideal(e) == self.inside
            ]
            self.pos.update(zip(hit, range(len(hit))))
        return hit


# ---------- the strand engine ----------


class StrandBasis(NamedTuple):
    """The strand of one degree and weight, as blocks: one (generator j,
    offset, monomials) per generator whose part is nonzero, generators
    ascending, its monomials the provider's own list for the weight left
    to it. Position offset + k holds the pair (j, monomials[k]). `offset`
    finds a generator's block and `pos` is the provider's position table,
    so pair (j, m) sits at offset[j] + pos[m]."""

    blocks: list[tuple[int, int, list[Mono]]]
    offset: dict[int, int]  # generator -> the offset of its block
    pos: dict[Mono, int]  # monomial -> its position in its weight's list
    size: int

    def pair(self, k: int) -> tuple[int, Mono]:
        """The (generator, monomial) pair at position k."""
        j, off, ms = self.blocks[bisect_right(self.blocks, k, key=_block_offset) - 1]
        return j, ms[k - off]


_block_offset = itemgetter(1)


def _strand(owners: list[tuple[int, list[Mono]]], pos: dict[Mono, int]) -> StrandBasis:
    """The strand of the (generator, nonempty monomial list) owners, in
    generator order."""
    blocks, offset, size = [], {}, 0
    for j, ms in owners:
        blocks.append((j, size, ms))
        offset[j] = size
        size += len(ms)
    return StrandBasis(blocks, offset, pos, size)


def strand_basis(x: FreeComplex, d: int, n: int, provider: Strands) -> StrandBasis:
    """The strand of degree d and integer weight n: pairs (j, m) whose
    integer weights sum to n, generators ascending, then monomials in
    basis order. One basis lookup per generator weight."""
    basis_at = provider.basis_at
    owners = []  # (generator, its monomials), one per contributing generator
    for gn, js in x.gens_by_weight(d):
        if gn > n:
            break
        ms = basis_at(n - gn)
        if ms:
            owners += [(j, ms) for j in js]
    owners.sort()  # generator indices are distinct, so only they are compared
    return _strand(owners, provider.pos)


def add_image(
    out: Vec, col: Iterable[tuple[int, Elem]], mono: Mono, sb: StrandBasis, scale, ring: LevelRing
) -> None:
    """Add scale * (col x mono) to the strand vector `out` of sb. `col` is
    a column of (row generator, ring element) pairs and `mono` a module
    monomial; a product the position table does not hold is zero in the
    module and drops out, and so does every product into a row generator
    without a block."""
    norm = ring.field.normalize
    offset, pos = sb.offset, sb.pos
    for i, elem in col:
        o = offset.get(i)
        if o is None:
            continue
        for e, coeff in elem.items():
            p = pos.get(e + mono)
            if p is None:
                continue
            r = o + p
            nv = norm(out.get(r, 0) + scale * coeff)
            if nv:
                out[r] = nv
            else:
                out.pop(r, None)


def strand_rows(
    rows: list[tuple],
    dst: StrandBasis,
    src: StrandBasis,
    ring: LevelRing,
    skip: Collection[int] = (),
) -> Iterator[Vec]:
    """The rows, as strand vectors of src, of the map whose row index
    (FreeComplex.rows_at) is `rows`: one per pair (i, m) of the target
    strand dst, in its order, leaving out the positions in `skip`. Term
    (j, e, c) of row i meets src pair (j, m - e) when e divides m, one
    guard-mask test (see rings.divides_any); a quotient the position table
    does not hold is zero in the module and drops out. One it holds has
    the weight of generator j's block, as the map is homogeneous, so j has
    a block. The test only saves the lookup: m - e for an e that does not
    divide m borrows into a guard bit, and no position table holds such a
    key."""
    norm = ring.field.normalize
    guard = ring.guard
    offset, pos = src.offset, src.pos
    for i, off, ms in dst.blocks:
        terms_i = rows[i]
        for k, m in enumerate(ms, off):
            if k in skip:
                continue
            out: Vec = {}
            mg = m | guard
            terms = iter(terms_i)
            for j, e, c in zip(terms, terms, terms):
                if (mg - e) & guard != guard:
                    continue
                p = pos.get(m - e)
                if p is None:
                    continue
                r = offset[j] + p
                if r in out:
                    c = norm(out[r] + c)
                    if not c:
                        del out[r]
                        continue
                out[r] = c
            yield out


def strand_column(vec: Vec, sb: StrandBasis) -> dict[int, Elem]:
    """The column of ring elements, by row generator, that a strand
    vector spells out: the inverse of reading a column on a strand."""
    col: dict[int, Elem] = {}
    for k, coeff in vec.items():
        i, mono = sb.pair(k)
        col.setdefault(i, {})[mono] = coeff
    return col


def strand_columns(
    cols: list[Column], src: StrandBasis, dst: StrandBasis, ring: LevelRing
) -> Iterator[Vec]:
    """The columns, one strand vector of dst per pair of src, of the map
    whose column j is cols[j]."""
    one = ring.field.one
    for j, _off, ms in src.blocks:
        colj = cols[j]
        for mono in ms:
            col: Vec = {}
            add_image(col, colj, mono, dst, one, ring)
            yield col


def out_rows(
    x: FreeComplex, d: int, n: int, provider: Strands, src: StrandBasis
) -> tuple[Iterator[Vec], StrandBasis]:
    """The rows, on the degree-d strand src of integer weight n, of the
    map out of degree d, with its target strand: diff[d] onto degree d-1,
    or in degree 0 the augmentation, one row onto R/aug_quotient."""
    if d:
        rows, dst = x.rows_at(d), strand_basis(x, d - 1, n, provider)
    elif x.aug is None:
        raise AssertionError("complex has no augmentation")
    else:
        rows = rows_of([((0, a),) for a in x.aug], 1, x.field)
        target = Strands(x.ring, x.aug_quotient)
        ms = target.basis_at(n)
        dst = _strand([(0, ms)] if ms else [], target.pos)
    return strand_rows(rows, dst, src, x.ring), dst


def strand_weights(x: FreeComplex, d: int, top: int, provider) -> list[int]:
    """Integer weights n <= top, ascending, where the degree-d strand is
    nonzero: a generator weight plus a weight where the module's basis is
    nonempty."""
    ring = provider.ring
    module_ns = [n for n in ring.basis_upto(top) if n <= top and provider.basis_at(n)]
    ns = set()
    for gn, _js in x.gens_by_weight(d):
        if gn > top:  # module weights are >= 0
            break
        for mn in module_ns:
            if gn + mn <= top:
                ns.add(gn + mn)
    return sorted(ns)


# ---------- homology ----------


class HomologyData:
    """Homology of one weight strand in degree d, with `rank` the rank of
    d_d on the strand. dim = nullity(d_d) - rank(d_{d+1}), and most
    strands have none: those keep their basis and rank, and no echelon.

    Otherwise `diff_ech` is the echelon of d_d's rows on the strand, read
    by the row reader in the order of the degree-(d-1) strand. Each
    free column f (one without a pivot) gives the cycle z_f (see
    Echelon.kernel), and a cycle is the sum of the z_f weighted by its own
    entries at the free columns. `free_bnd` holds the boundaries in those
    coordinates; the representatives `reps` are the z_f of the free
    columns that are not its pivots, `rep_cols`, ascending.

    Most strands with homology are never read past their dim, so those
    three are filled on first read (homology_map_matrix, coords) from
    `_fill` = (complex, d, degree-(d+1) strand, rank(d_{d+1})), None once
    filled. Only they are properties: a __getattr__ hook would slow every
    read of dim."""

    __slots__ = ("dim", "basis", "rank", "diff_ech", "_free_bnd", "_rep_cols", "_reps", "_fill")

    def __init__(
        self,
        dim: int,
        basis: StrandBasis,
        rank: int,
        diff_ech: Optional[Echelon] = None,
        fill: Optional[tuple] = None,
    ):
        self.dim, self.basis, self.rank = dim, basis, rank
        self.diff_ech, self._fill = diff_ech, fill
        self._free_bnd, self._rep_cols, self._reps = None, (), []

    def _fill_basis(self) -> None:
        x, d, above, full = self._fill
        pivots = self.diff_ech.rows
        free_bnd = Echelon(x.field)
        if full:
            for col in strand_columns(x.diff_at(d + 1), above, self.basis, x.ring):
                free_bnd.insert({r: v for r, v in col.items() if r not in pivots})
                if free_bnd.rank == full:  # every later column lies in its span
                    break
        rep_cols = tuple(
            c for c in range(self.basis.size) if c not in pivots and c not in free_bnd.rows
        )
        self._free_bnd, self._rep_cols = free_bnd, rep_cols
        self._reps = self.diff_ech.kernel(list(rep_cols))
        self._fill = None

    @property
    def free_bnd(self) -> Optional[Echelon]:  # None when dim == 0
        if self._fill is not None:
            self._fill_basis()
        return self._free_bnd

    @property
    def rep_cols(self) -> tuple[int, ...]:
        if self._fill is not None:
            self._fill_basis()
        return self._rep_cols

    @property
    def reps(self) -> list[Vec]:  # cycles spanning homology, as strand vectors
        if self._fill is not None:
            self._fill_basis()
        return self._reps

    def coords(self, vec: Vec, fieldobj) -> Vec:
        """Coordinates of a cycle in the homology basis. Only a strand with
        homology has them; callers skip the others."""
        if self._fill is not None:
            self._fill_basis()
        pivots = self.diff_ech.rows
        rows = SparseMatrix(len(pivots), self.basis.size, fieldobj, list(pivots.values()))
        if rows.mul_vec(vec):  # the rows span d_d's row space: 0 exactly on cycles
            raise AssertionError("vector is not a cycle modulo boundaries")
        res = self._free_bnd.reduce({c: v for c, v in vec.items() if c not in pivots})
        return {k: res[f] for k, f in enumerate(self._rep_cols) if f in res}


# the homology of an empty strand
NO_HOMOLOGY = HomologyData(0, StrandBasis([], {}, {}, 0), 0)


def homology_data(
    x: FreeComplex,
    d: int,
    n: int,
    provider,
    above: Optional[HomologyData] = None,
) -> HomologyData:
    """Homology of the strand of integer weight n in degree d, decided by
    ranks alone: dim = nullity(d_d) - rank(d_{d+1}), with d_d reduced in
    one echelon of its rows, read by the row reader (strand_rows) in the
    order of the degree-(d-1) strand. `above` is the weight-n homology in
    degree d+1 where the caller has it; it carries rank(d_{d+1}) and the
    strand basis there.

    No cycles, or as many as above.rank, make dim 0 with no boundary read.
    Without `above`, rank(d_{d+1}) is read from its free rows: the rows
    at the positions that are not pivots of d_d. Projection onto those
    free columns is one-to-one on cycles, and every boundary is a cycle,
    so the rank of that projection of d_{d+1}, which is made of exactly
    the free rows, is rank(d_{d+1}). Their echelon stops once it reaches
    the nullity, and then dim is 0 with no column read.

    No column of d_{d+1} is read here: a strand with homology defers its
    basis (HomologyData). Its fill projects the columns of d_{d+1} (the
    boundaries) onto the free columns into `free_bnd`, and stops once
    that reaches rank(d_{d+1}), as every later column then lies in its
    span."""
    F = x.field
    sb = strand_basis(x, d, n, provider)
    size = sb.size
    diff_ech = Echelon(F)
    if size:
        below = strand_basis(x, d - 1, n, provider)
        for row in strand_rows(x.rows_at(d), below, sb, x.ring):
            diff_ech.insert(row)
    rank = diff_ech.rank
    nullity = size - rank
    if nullity == 0 or (above is not None and above.rank == nullity):
        return HomologyData(0, sb, rank)
    if above is None:
        basis = strand_basis(x, d + 1, n, provider)
        free_rows = Echelon(F)
        if basis.size:
            for row in strand_rows(x.rows_at(d + 1), sb, basis, x.ring, skip=diff_ech.rows):
                free_rows.insert(row)
                if free_rows.rank == nullity:
                    return HomologyData(0, sb, rank)
        full = free_rows.rank
    else:
        basis, full = above.basis, above.rank
    return HomologyData(nullity - full, sb, rank, diff_ech, (x, d, basis, full))


# ---------- chain maps ----------


class ChainMap:
    """Chain map src -> dst, stored like a differential: entries[d] holds
    one column per degree-d generator of src, its entries in the target
    ring. ring_map pushes source monomials into the target ring (None =
    same ring)."""

    __slots__ = ("src", "dst", "entries", "ring_map")

    def __init__(
        self,
        src: FreeComplex,
        dst: FreeComplex,
        entries: Optional[dict[int, list[Column]]] = None,
        ring_map: Optional[Callable[[Mono], Mono]] = None,
    ):
        self.src = src
        self.dst = dst
        self.entries = {} if entries is None else entries
        self.ring_map = ring_map

    def entries_at(self, d: int) -> list[Column]:
        """entries[d], or src.rank(d) empty columns where it is not stored."""
        return self.entries.get(d) or [()] * self.src.rank(d)

    def push_exp(self, e: Mono) -> Mono:
        return e if self.ring_map is None else self.ring_map(e)


def identity_map(x: FreeComplex) -> ChainMap:
    one = x.ring.one()
    ent = {d: [((j, dict(one)),) for j in range(len(gl))] for d, gl in x.gens.items() if gl}
    return ChainMap(src=x, dst=x, entries=ent)


# ---------- strand action of a chain map ----------


def push_strand_vec(
    f: ChainMap, cols: list[Column], vec: Vec, src_sb: StrandBasis, dst_sb: StrandBasis
) -> Vec:
    """Image of a strand vector under f (weights preserved); `cols` is
    f.entries_at(d) for the strand's degree d."""
    out: Vec = {}
    for k, c in vec.items():
        j, mono = src_sb.pair(k)
        add_image(out, cols[j], f.push_exp(mono), dst_sb, c, f.dst.ring)
    return out


def homology_map_matrix(
    f: ChainMap, d: int, src_h: HomologyData, dst_h: HomologyData
) -> SparseMatrix:
    """Matrix of H_d(f) on the chosen homology bases (one weight strand)."""
    F = f.dst.field
    m = SparseMatrix(dst_h.dim, src_h.dim, F)
    cols = f.entries_at(d)
    for k, rep in enumerate(src_h.reps):
        img = push_strand_vec(f, cols, rep, src_h.basis, dst_h.basis)
        for r, v in dst_h.coords(img, F).items():
            m.set(r, k, v)
    return m


# ---------- tensor products ----------


# (p, i, q, j) -> index of generator i of a_p (x) generator j of b_q in
# degree p + q: the one generator table of a tensor product, its entries
# degree by degree and indices ascending inside each degree
TensorIndex = dict


def tensor_complexes(
    a: FreeComplex,
    b: FreeComplex,
    dmax: Optional[int] = None,
    wmax: Optional[Fraction] = None,
) -> tuple[FreeComplex, TensorIndex]:
    """a (x) b with Koszul signs, truncated above dmax / wmax, and its
    generator table.

    Weight truncation is exact for strands of weight <= wmax since the
    differential preserves weight; degree truncation is exact below dmax.
    Weights are summed as integers over the ring's denom, and each
    distinct weight is one shared Fraction. The differential and the
    augmentation are built in one pass over the table, each generator's
    column appended in the table's order.
    """
    if a.ring is not b.ring:
        raise AssertionError("tensor factors live over different rings")
    ring = a.ring
    a_nums, b_nums = ({d: [ring.num(g) for g in gl] for d, gl in x.gens.items()} for x in (a, b))
    if any(None in ns for x in (a_nums, b_nums) for ns in x.values()):
        raise AssertionError("a generator weight is off the level's lattice")
    top_n = None if wmax is None else ring.num_floor(wmax)
    weights: dict[int, Fraction] = {}
    gens: dict[int, list[Fraction]] = {}
    index: TensorIndex = {}
    top = a.hi + b.hi if dmax is None else min(a.hi + b.hi, dmax)
    for d in range(a.lo + b.lo, top + 1):
        gl: list[Fraction] = []
        for p in range(a.lo, a.hi + 1):
            q = d - p
            if q < b.lo or q > b.hi:
                continue
            bn = b_nums.get(q, ())
            for i, an in enumerate(a_nums.get(p, ())):
                for j, n in enumerate(bn):
                    n += an
                    if top_n is not None and n > top_n:
                        continue
                    w = weights.get(n)
                    if w is None:
                        w = weights[n] = Fraction(n, ring.denom)
                    index[(p, i, q, j)] = len(gl)
                    gl.append(w)
        gens[d] = gl
    a_diff = {p: a.diff_at(p) for p in a.gens}
    b_diff = {q: b.diff_at(q) for q in b.gens}
    diff: dict[int, list[Column]] = {d: [] for d in gens if d - 1 in gens}
    # both augment into R, so the product augments by multiplication
    into_r = a.aug is not None and b.aug is not None and not (a.aug_quotient or b.aug_quotient)
    aug = [] if into_r and 0 in gens else None
    for p, i, q, j in index:
        if p + q == 0 and aug is not None:
            aug.append(ring.elem_mul(a.aug[i], b.aug[j]))
        cols = diff.get(p + q)
        if cols is None:
            continue
        col = []
        for (i2, elem) in a_diff[p][i]:
            tgt = index.get((p - 1, i2, q, j))
            if tgt is not None:
                col.append((tgt, elem))
        for (j2, elem) in b_diff[q][j]:
            tgt = index.get((p, i, q - 1, j2))
            if tgt is not None:
                col.append((tgt, ring.elem_neg(elem) if p % 2 else elem))
        cols.append(tuple(col))
    return FreeComplex(ring=ring, gens=gens, diff=diff, aug=aug), index


def tensor_maps(
    f: ChainMap,
    g: ChainMap,
    src: FreeComplex,
    src_index: TensorIndex,
    dst: FreeComplex,
    dst_index: TensorIndex,
) -> ChainMap:
    """f (x) g on given tensor models; f and g must be degree-0 maps
    sharing a ring map (equal ones: each read of a bound method such as
    LevelRing.include_exp makes a new object), so no Koszul signs arise."""
    if f.ring_map is not None and g.ring_map is not None and f.ring_map != g.ring_map:
        raise AssertionError("tensor_maps: factors carry different ring maps")
    ring = dst.ring
    f_cols = {p: f.entries_at(p) for p in f.src.gens}
    g_cols = {q: g.entries_at(q) for q in g.src.gens}
    ent = {d: [()] * len(gl) for d, gl in src.gens.items()}
    for (p, i, q, j), idx in src_index.items():
        # each (i2, j2) has its own target generator, so no two products meet
        gcol = g_cols[q][j]
        col = []
        for i2, ea in f_cols[p][i]:
            for j2, eb in gcol:
                tgt = dst_index.get((p, i2, q, j2))
                if tgt is None:
                    continue
                prod = ring.elem_mul(ea, eb)
                if prod:
                    col.append((tgt, prod))
        ent[p + q][idx] = tuple(col)
    return ChainMap(
        src=src, dst=dst, entries=ent, ring_map=f.ring_map or g.ring_map
    )


# ---------- cones ----------


def cone(f: ChainMap) -> FreeComplex:
    """Mapping cone of f: X -> Y (same ring): C_d = Y_d + X_{d-1},
    d(y, x) = (dy + (-1)^(d-1) fx, dx) for x in X_{d-1}. This is the cone
    with d(y, x) = (dy + fx, -dx) twisted by x -> -x in every other
    degree, so it has the same homology and ranks; it shares Y's columns
    and the entries of X's differential, and f is negated only in odd
    X-degrees. The degree-d generators are those of Y_d in order, then
    those of X_{d-1}: X-generator i of degree d-1 sits at Y.rank(d) + i."""
    if f.ring_map is not None:
        raise AssertionError("cone needs a same-ring chain map")
    x, y = f.src, f.dst
    ring = y.ring
    lo = min(y.lo, x.lo + 1)
    hi = max(y.hi, x.hi + 1)
    gens = {d: y.gens_at(d) + x.gens_at(d - 1) for d in range(lo, hi + 1)}
    diff: dict[int, list[Column]] = {}
    for d in range(lo, hi + 1):
        below = y.rank(d - 1)
        odd = (d - 1) % 2
        cols = list(y.diff_at(d))
        for fcol, xcol in zip(f.entries_at(d - 1), x.diff_at(d - 1)):
            if odd:
                fcol = tuple((i, ring.elem_neg(elem)) for i, elem in fcol)
            if below:
                xcol = tuple((below + i, elem) for i, elem in xcol)
            cols.append(fcol + xcol)
        diff[d] = cols
    return FreeComplex(ring=ring, gens=gens, diff=diff)


def cone_map(
    fx: ChainMap, fy: ChainMap, src_cone: FreeComplex, dst_cone: FreeComplex
) -> ChainMap:
    """Induced map on cones from a strictly commuting square: fx on the
    shifted part, fy on the target part, with no signs, since both cones
    carry the same (-1)^(d-1) twist on f. Both legs must share a ring map,
    and each cone must have the generator layout of cone() over its legs."""
    if fx.ring_map is not None and fy.ring_map is not None and fx.ring_map != fy.ring_map:
        raise AssertionError("cone_map: legs carry different ring maps")
    for c, y, x in ((src_cone, fy.src, fx.src), (dst_cone, fy.dst, fx.dst)):
        for d in set(c.gens) | set(y.gens) | {e + 1 for e in x.gens}:
            if c.rank(d) != y.rank(d) + x.rank(d - 1):
                raise AssertionError(f"cone_map: cone ranks in degree {d} do not fit the square")
    ent: dict[int, list[Column]] = {}
    for d in src_cone.gens:
        di = fy.dst.rank(d)
        ent[d] = list(fy.entries_at(d)) + [
            tuple((di + i, elem) for i, elem in col) if di else col
            for col in fx.entries_at(d - 1)
        ]
    return ChainMap(
        src=src_cone, dst=dst_cone, entries=ent, ring_map=fx.ring_map or fy.ring_map
    )


# ---------- minimal resolutions ----------


def minimal_resolution(
    ring: LevelRing,
    quotient_gens: tuple[Mono, ...],
    dmax: int,
    wmax: Fraction,
) -> FreeComplex:
    """Minimal free resolution of R / (monomial ideal) up to degree dmax
    and generator weight wmax.

    When the module splits by variable, the resolution is written down
    (_split_resolution). The module splits when each generator is a power
    u^a of its own variable u, and each truncation that involves a
    generator's variable is a pure power of it, the least being u^N. Then
    R = (tensor over K of the K[u]/(u^N)) (x) R' for an algebra R' on the
    other variables, a generator with a >= N is zero in R and drops out,
    and R/J = (tensor of the K[u]/(u^N, u^a)) (x) R'. Each remaining
    generator has a one-variable resolution: R <-u^a- R when u is not
    truncated, and the 2-periodic R <-u^a- R <-u^(N-a)- R <-u^a- ... when
    it is. Their tensor product over R is exact by the Kunneth formula
    over K, with R/J in degree 0, and minimal since no entry is a unit.
    With no truncation it is the Koszul complex of the generators, a
    regular sequence (Eisenbud, Commutative Algebra, Cor. 17.5).

    Any other ideal is resolved by kernels (_kernel_resolution): the new
    generators of each degree complete the strand kernels modulo
    multiples of generators already chosen, ascending through weights,
    so no differential entry is a unit and strands of weight <= wmax are
    resolved exactly.
    """
    gens, wmax = tuple(quotient_gens), Fraction(wmax)
    split = _split_resolution(ring, gens, dmax, wmax)
    return split if split is not None else _kernel_resolution(ring, gens, dmax, wmax)


def _split_resolution(
    ring: LevelRing, gens: tuple[Mono, ...], dmax: int, wmax: Fraction
) -> Optional[FreeComplex]:
    """The resolution of R/(gens) through dmax and wmax as the tensor
    product of one-variable resolutions (minimal_resolution), or None
    when the module does not split by variable."""
    powers: dict[int, int] = {}  # variable -> exponent of its generator
    for g in gens:
        exps = ring.unpack(g)
        vs = [v for v, n in enumerate(exps) if n]
        if len(vs) != 1 or vs[0] in powers:
            return None
        powers[vs[0]] = exps[vs[0]]
    periods: dict[int, int] = {}  # variable -> its least truncating power
    for t in ring.trunc_exps:
        vs = [v for v, n in enumerate(t) if n]
        if any(v in powers for v in vs):
            if len(vs) != 1:
                return None
            periods[vs[0]] = min(t[vs[0]], periods.get(vs[0], t[vs[0]]))
    one, top = ring.one(), ring.num_floor(wmax)
    res = None
    for v, a in powers.items():
        period = periods.get(v)
        if period is not None and a >= period:  # u^a is zero in R: no factor
            continue
        # Koszul: one step; periodic: u^a and u^(N-a) in turn
        steps, length = ((a,), min(dmax, 1)) if period is None else ((a, period - a), dmax)
        x = FreeComplex(ring=ring, gens={0: [Fraction(0)]}, aug=[one])
        n = 0  # integer weight of the current degree's generator
        for d in range(1, length + 1):
            k = steps[(d - 1) % len(steps)]
            n += k * ring.units[v]
            if n > top:
                break
            x.gens[d] = [Fraction(n, ring.denom)]
            x.diff[d] = [((0, {k * ring.var_monos[v]: ring.field.one}),)]
        res = x if res is None else tensor_complexes(res, x, dmax, wmax)[0]
    if res is None:
        res = unit_complex(ring)
    res.aug_quotient = gens
    return res


def _kernel_resolution(
    ring: LevelRing,
    quotient_gens: tuple[Mono, ...],
    dmax: int,
    wmax: Fraction,
) -> FreeComplex:
    """The resolution of minimal_resolution, degree by degree from the
    kernels of its strands: the route of every ideal that does not split
    by variable, and the tests' oracle for the split one."""
    F = ring.field
    prov = Strands(ring)
    x = FreeComplex(
        ring=ring,
        gens={0: [Fraction(0)]},
        diff={},
        aug=[ring.one()],
        aug_quotient=tuple(quotient_gens),
    )
    top = ring.num_floor(wmax)
    for d in range(1, dmax + 1):
        # (integer weight, boundary column) of each new generator
        chosen: list[tuple[int, dict[int, Elem]]] = []
        for n in strand_weights(x, d - 1, top, prov):
            sb = strand_basis(x, d - 1, n, prov)
            if not sb.size:
                continue
            rows, _dst = out_rows(x, d - 1, n, prov, sb)
            cycles = kernel_rows(rows, sb.size, F)
            if not cycles:
                continue
            span = Echelon(F)
            for (ng, colg) in chosen:
                for mono in prov.basis_at(n - ng):
                    vec: Vec = {}
                    add_image(vec, colg.items(), mono, sb, F.one, ring)
                    span.insert(vec)
            for z in cycles:
                if span.insert(z) is not None:
                    chosen.append((n, strand_column(z, sb)))
        x.gens[d] = [Fraction(n, ring.denom) for (n, _c) in chosen]
        if not chosen:  # nothing left to resolve
            break
        x.diff[d] = [tuple(col.items()) for _n, col in chosen]
    return x


def ideal_resolution(
    ring: LevelRing, gens: list[Mono], dmax: int, wmax: Fraction
) -> FreeComplex:
    """Minimal free resolution of the ideal (gens) as a module: the
    resolution of R/(gens) shifted down one degree, augmented into R by
    the inclusion."""
    res = minimal_resolution(ring, tuple(gens), dmax + 1, Fraction(wmax))
    gens_out = {d - 1: gl for d, gl in res.gens.items() if d >= 1}
    diff_out = {d - 1: cols for d, cols in res.diff.items() if d >= 2}
    # the only row of diff[1] is the single degree-0 generator of res(R/I)
    aug = [col[0][1] if col else {} for col in res.diff_at(1)]
    return FreeComplex(
        ring=ring, gens=gens_out, diff=diff_out, aug=aug, aug_quotient=()
    )


# ---------- lifting chain maps over resolutions ----------


def lift_chain_map(
    x: FreeComplex,
    y: FreeComplex,
    ring_map: Optional[Callable[[Mono], Mono]] = None,
) -> ChainMap:
    """Lift the identity of the augmentation targets to a chain map
    x -> y over acyclic y (a resolution). With a ring_map this lifts
    along a level inclusion; augmentation targets must correspond.

    Degree 0 solves aug_y(f(g)) = push(aug_x(g)) on each strand, higher
    degrees solve d(f(g)) = f(d(g)), each from the rows of y's map out of
    degree d (out_rows). Over a resolution every one of these
    systems is solvable, so a failure is an internal fault: AssertionError.
    Every complex this is called on is augmented, so a missing augmentation
    is one too.
    """
    if x.aug is None or y.aug is None:
        raise AssertionError("both complexes need augmentations")
    ring = y.ring
    F = y.field
    prov = Strands(ring)
    f = ChainMap(src=x, dst=y, entries={}, ring_map=ring_map)
    for d in range(x.lo, x.hi + 1):
        cols: list[Column] = []
        # in degree 0 the augmentations are the boundaries, into one
        # generator on which f is the identity
        x_cols = x.diff_at(d) if d else [((0, a),) for a in x.aug]
        f_cols = f.entries_at(d - 1) if d else [((0, ring.one()),)]
        for j, w in enumerate(x.gens_at(d)):
            n = ring.num(w)
            ysb = strand_basis(y, d, n, prov)
            rows, ydst = out_rows(y, d, n, prov, ysb)
            # f(d g): the ring is commutative, so each monomial of f's
            # entry scales the pushed boundary entry; pushed monomials that
            # vanish in y's ring are not in the strand and drop out
            rhs: Vec = {}
            for i, selem in x_cols[j]:
                pushed = {f.push_exp(e): v for e, v in selem.items()}
                for i2, felem in f_cols[i]:
                    for mono, c in felem.items():
                        add_image(rhs, ((i2, pushed),), mono, ydst, c, ring)
            sol = solve_rows(rows, ysb.size, rhs, F)
            if sol is None:
                raise AssertionError(f"no lift at degree {d}, generator {j}")
            cols.append(tuple(strand_column(sol, ysb).items()))
        f.entries[d] = cols
    return f
