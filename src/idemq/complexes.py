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

One engine reads every map on strands, by columns or by rows. `add_image`
adds a column of ring elements times a module monomial to a strand
vector, and `strand_rows` reads a differential's rows from its row index
(FreeComplex.rows_at): row (i, m) meets term c * e at the pair
(j, m - e) when e divides m. These are the two places a product is looked
up in a strand's (generator, monomial) index, and a pair the index lacks
is zero in the module, so nothing tests for zero. `strand_column` is the
inverse of a column read. Monomials are packed ints (see rings), so a
product is `e + mono` and a quotient `m - e`. `strand_columns` yields a
map's columns on strands, and `strand_map` builds matrices from them:
differentials, chain maps, the augmentation (a map onto one generator),
resolution spans and lifts. Only homology reads rows, with no matrix:
dim H_d(w) = nullity(d_d(w)) - rank(d_{d+1}(w)), d_d is reduced from its
rows, rank(d_{d+1}) comes from a caller that has the (d+1, w) homology
or else from the rows of d_{d+1} at d_d's free columns, and boundary
columns are read only where the strand has homology (homology_data).

A generator is nothing but its weight: `FreeComplex.gens[d]` lists the
weights of degree d's generators, and a generator is its position there.
A strand's basis pairs each generator of weight gw with basis(w - gw).
FreeComplex groups each degree's generators by weight once
(`gens_by_weight`), so a strand costs one basis lookup per distinct
generator weight, not one per generator. It indexes each differential's
rows once too (`rows_at`), as flat tuples of terms, so a row read
touches only the terms of its own row.

Inside a level a weight is the integer n = w * denom over the ring's
`denom` (LevelRing.num), and the strand functions take and return it:
`strand_pairs`, `strand_basis`, `strand_matrix`, `homology_data` and
`aug_strand` read the strand of integer weight n, `strand_weights` lists
the integer weights up to an integer cap. Weight groups, module bases
and strand lookups are keyed by integers too. Generator lists keep
Fractions, the weights where levels meet, and `gens_by_weight` converts
them once per degree; a caller holding a level-free weight converts it
with `num`, and one off the level's lattice has the empty strand, so it
builds none.

No complex here is ever minimised. Resolutions are built minimal, and
the tensor product of minimal complexes over a positively graded ring is
again minimal (no differential entry is a unit), so Gauss cancellation
would find nothing to cancel. Callers that rely on minimality check it
by scanning for the unit monomial.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Collection, Iterable, Iterator, NamedTuple, Optional

from .rings import Elem, LevelRing, Mono, divides_any
from .sparsela import Echelon, SparseMatrix, Vec, kernel_rows, solve_rows

# ---------- complexes ----------

# one column of a map: (row generator, ring element) pairs
Column = tuple[tuple[int, Elem], ...]


@dataclass
class FreeComplex:
    """Bounded complex of free modules with weight-graded generators.

    gens[d] lists the weights of the degree-d generators. diff[d] maps
    degree d to degree d-1, one column per degree-d generator: column j
    pairs each generator i of degree d-1 in the boundary of generator j
    with its coefficient (a ring element).
    """

    ring: LevelRing
    gens: dict[int, list[Fraction]] = field(default_factory=dict)
    diff: dict[int, list[Column]] = field(default_factory=dict)
    # augmentation of the degree-0 part, one target element per generator;
    # aug_quotient lists monomial generators of the ideal cut out of the
    # target (empty tuple = the target is R itself)
    aug: Optional[list[Elem]] = None
    aug_quotient: tuple[Mono, ...] = ()
    # degree -> (the gens list it indexes, its weight groups); see gens_by_weight
    _by_weight: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # degree -> (the diff and gens lists it indexes, its rows); see rows_at
    _rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
        indices ascending within a group. Built on first use and kept
        while gens[d] is the same list object, so a degree whose list is
        replaced is indexed afresh."""
        gl = self.gens.get(d)
        if not gl:
            return []
        hit = self._by_weight.get(d)
        if hit is not None and hit[0] is gl:
            return hit[1]
        num = self.ring.num
        groups: dict[int, list[int]] = {}
        for j, gw in enumerate(gl):
            n = num(gw)
            if n is None:
                raise AssertionError(f"generator weight {gw} is off the level's lattice")
            groups.setdefault(n, []).append(j)
        index = sorted(groups.items())
        self._by_weight[d] = (gl, index)
        return index

    def rows_at(self, d: int) -> list[tuple]:
        """The row index of diff[d]: for each degree-(d-1) generator i one
        flat tuple (j0, e0, c0, j1, e1, c1, ...) of the terms c * e of
        diff[d] in row i, columns ascending. Built on first use and kept
        while diff[d] and gens[d-1] are the same list objects, so a
        replaced differential is indexed afresh."""
        cols, below = self.diff.get(d), self.gens.get(d - 1)
        hit = self._rows.get(d)
        if hit is not None and hit[0] is cols and hit[1] is below:
            return hit[2]
        norm = self.field.normalize
        rows: list = [[] for _ in range(self.rank(d - 1))]
        for j, col in enumerate(cols or ()):
            for i, elem in col:
                row = rows[i]
                for e, c in elem.items():
                    row += (j, e, norm(c))
        for i, row in enumerate(rows):  # in place: each list goes as its tuple comes
            rows[i] = tuple(row)
        self._rows[d] = (cols, below, rows)
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


def _check_layout(maps: dict[int, list[Column]], rank: Callable[[int], int], what: str) -> None:
    """Assert that each stored degree holds one column per source generator."""
    for d, cols in maps.items():
        if len(cols) != rank(d):
            raise AssertionError(
                f"{what} at d={d} holds {len(cols)} columns for {rank(d)} generators"
            )


def check_complex(x: FreeComplex) -> None:
    """Assert the column layout, dd = 0 and weight homogeneity of every
    entry."""
    ring = x.ring
    _check_layout(x.diff, x.rank, "differential")
    for d, cols in x.diff.items():
        below = x.gens.get(d - 1, [])
        here = x.gens.get(d, [])
        for j, col in enumerate(cols):
            for i, elem in col:
                if not elem:
                    raise AssertionError(f"stored zero entry at d={d} ({i},{j})")
                w = ring.elem_weight(elem)
                if w != here[j] - below[i]:
                    raise AssertionError(
                        f"entry ({i},{j}) at d={d} has weight {w}, want {here[j] - below[i]}"
                    )
    for d in sorted(x.diff):
        if d - 1 not in x.diff:
            continue
        # compose each column of diff[d] with diff[d-1]
        lower = x.diff[d - 1]
        for j, col in enumerate(x.diff[d]):
            acc: dict[int, Elem] = {}
            for i, elem in col:
                for i2, elem2 in lower[i]:
                    prod = ring.elem_mul(elem2, elem)
                    if prod:
                        acc[i2] = ring.elem_add(acc.get(i2, {}), prod)
            for i2, elem in acc.items():
                if elem:
                    raise AssertionError(f"dd != 0 at degree {d}, entry {(i2, j)}: {elem}")
    if x.aug is not None and 1 in x.diff:
        # augmentation composes to zero with the first differential
        q = Strands(x.ring, x.aug_quotient)
        for j, col in enumerate(x.diff[1]):
            acc: Elem = {}
            for i, elem in col:
                acc = ring.elem_add(acc, ring.elem_mul(x.aug[i], elem))
            acc = {e: v for e, v in acc.items() if not q.in_ideal(e)}
            if acc:
                raise AssertionError(f"aug . d != 0 on generator {j}")


# ---------- the strand provider ----------


class Strands:
    """A module cut out by a monomial ideal J (packed generators at the
    ring's level): R/J by default, R itself when J is empty, and J as a
    submodule of R when `inside` is set. `basis_at(n)` lists the monomials
    of integer weight n (LevelRing.num) that are nonzero in the module, so
    in either reading a product of a listed monomial with a ring monomial
    that is not listed is zero in the module. A module other than R keeps
    its list per weight."""

    def __init__(
        self, ring: LevelRing, ideal_exps: tuple[Mono, ...] = (), inside: bool = False
    ):
        self.ring = ring
        self.ideal_exps = tuple(ideal_exps)
        self.inside = inside
        self._lists: dict[int, list[Mono]] = {}

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
        return hit


# ---------- the strand engine ----------


class StrandBasis(NamedTuple):
    pairs: list[tuple[int, Mono]]  # (generator index, module monomial)
    index: dict  # pair -> position

    @classmethod
    def of(cls, pairs: list[tuple[int, Mono]]) -> "StrandBasis":
        return cls(pairs, {p: k for k, p in enumerate(pairs)})


def strand_pairs(x: FreeComplex, d: int, n: int, provider: Strands) -> list[tuple[int, Mono]]:
    """Pairs (j, m) whose integer weights sum to n, generators ascending,
    then monomials in basis order. One basis lookup per generator weight."""
    basis_at = provider.basis_at
    owners = []  # (generator, its monomials), one per contributing generator
    for gn, js in x.gens_by_weight(d):
        if gn > n:
            break
        ms = basis_at(n - gn)
        if ms:
            owners.extend((j, ms) for j in js)
    owners.sort()  # generator indices are distinct, so only they are compared
    return [(j, m) for j, ms in owners for m in ms]


def strand_basis(x: FreeComplex, d: int, n: int, provider: Strands) -> StrandBasis:
    """The strand pairs of degree d and integer weight n, indexed."""
    return StrandBasis.of(strand_pairs(x, d, n, provider))


def add_image(
    out: Vec, col: Iterable[tuple[int, Elem]], mono: Mono, index: dict, scale, ring: LevelRing
) -> None:
    """Add scale * (col x mono) to the strand vector `out`. `col` is a
    column of (row generator, ring element) pairs and `mono` a module
    monomial; a product the strand `index` does not hold is zero in the
    module (or lies off the strand) and drops out."""
    F = ring.field
    for i, elem in col:
        for e, coeff in elem.items():
            r = index.get((i, e + mono))
            if r is None:
                continue
            nv = F.mul(scale, coeff)
            if r in out:
                nv = F.add(out[r], nv)
                if F.is_zero(nv):
                    del out[r]
                    continue
            out[r] = F.normalize(nv)


def strand_rows(
    rows: list[tuple],
    pairs: list[tuple[int, Mono]],
    src: StrandBasis,
    ring: LevelRing,
    skip: Collection[int] = (),
) -> Iterator[Vec]:
    """The rows, as strand vectors of src, of the map whose row index
    (FreeComplex.rows_at) is `rows`: one per target pair (i, m) in
    `pairs`, leaving out the positions in `skip`. Term (j, e, c) of row i
    meets src pair (j, m - e) when e divides m, one guard-mask test (see
    rings.divides_any); a quotient the src index does not hold is zero in
    the module (or lies off the strand) and drops out. The test only saves
    the lookup: m - e for an e that does not divide m borrows into a guard
    bit, and no index holds such a key."""
    F = ring.field
    guard = ring.guard
    index = src.index
    for k, (i, m) in enumerate(pairs):
        if k in skip:
            continue
        out: Vec = {}
        mg = m | guard
        terms = iter(rows[i])
        for j, e, c in zip(terms, terms, terms):
            if (mg - e) & guard != guard:
                continue
            r = index.get((j, m - e))
            if r is None:
                continue
            if r in out:
                c = F.add(out[r], c)
                if F.is_zero(c):
                    del out[r]
                    continue
                c = F.normalize(c)
            out[r] = c
        yield out


def strand_column(vec: Vec, sb: StrandBasis) -> dict[int, Elem]:
    """The column of ring elements, by row generator, that a strand
    vector spells out: the inverse of reading a column on a strand."""
    col: dict[int, Elem] = {}
    for pos, coeff in vec.items():
        i, mono = sb.pairs[pos]
        col.setdefault(i, {})[mono] = coeff
    return col


def strand_columns(
    cols: list[Column], src: StrandBasis, dst: StrandBasis, ring: LevelRing
) -> Iterator[Vec]:
    """The columns, one strand vector of dst per pair of src, of the map
    whose column j is cols[j]."""
    one = ring.field.one
    for j, mono in src.pairs:
        col: Vec = {}
        add_image(col, cols[j], mono, dst.index, one, ring)
        yield col


def strand_map(
    cols: list[Column], src: StrandBasis, dst: StrandBasis, ring: LevelRing
) -> SparseMatrix:
    """Matrix, from strand src to strand dst, of the map whose column j
    is cols[j]."""
    m = SparseMatrix(len(dst.pairs), len(src.pairs), ring.field)
    rows = m.rows
    for c, col in enumerate(strand_columns(cols, src, dst, ring)):
        for r, v in col.items():
            rows[r][c] = v
    return m


def strand_matrix(
    x: FreeComplex,
    d: int,
    n: int,
    provider: Strands,
    src: Optional[StrandBasis] = None,
    dst: Optional[StrandBasis] = None,
) -> SparseMatrix:
    """Matrix of diff[d] on the strand of integer weight n (rows: degree
    d-1)."""
    if src is None:
        src = strand_basis(x, d, n, provider)
    if dst is None:
        dst = strand_basis(x, d - 1, n, provider)
    return strand_map(x.diff_at(d), src, dst, x.ring)


def aug_strand(x: FreeComplex, n: int) -> tuple[list[Column], StrandBasis]:
    """The augmentation as a map onto one generator of weight 0: its
    columns, and the strand of integer weight n of the target
    R/aug_quotient."""
    if x.aug is None:
        raise AssertionError("complex has no augmentation")
    cols = [((0, a),) for a in x.aug]
    return cols, StrandBasis.of([(0, m) for m in Strands(x.ring, x.aug_quotient).basis_at(n)])


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


class HomologyData(NamedTuple):
    """Homology of one weight strand in degree d, with `rank` the rank of
    d_d on the strand. dim = nullity(d_d) - rank(d_{d+1}), and most
    strands have none: those keep their basis and rank, and no echelon.

    Otherwise `diff_ech` is the echelon of d_d's rows on the strand, read
    by the row reader in the order of the degree-(d-1) strand. Each
    free column f (one without a pivot) gives the cycle z_f (see
    Echelon.kernel), and a cycle is the sum of the z_f weighted by its own
    entries at the free columns. `free_bnd` holds the boundaries in those
    coordinates; the representatives are the z_f of the free columns that
    are not its pivots, `rep_cols`, ascending."""

    dim: int
    basis: StrandBasis
    rank: int
    reps: list[Vec]  # cycles spanning homology, as strand vectors
    diff_ech: Optional[Echelon]  # None when dim == 0
    free_bnd: Optional[Echelon]  # None when dim == 0
    rep_cols: tuple[int, ...]

    def coords(self, vec: Vec, fieldobj) -> Vec:
        """Coordinates of a cycle in the homology basis. Only a strand with
        homology has them; callers skip the others."""
        pivots = self.diff_ech.rows
        rows = SparseMatrix(len(pivots), len(self.basis.pairs), fieldobj, list(pivots.values()))
        if rows.mul_vec(vec):  # the rows span d_d's row space: 0 exactly on cycles
            raise AssertionError("vector is not a cycle modulo boundaries")
        res = self.free_bnd.reduce({c: v for c, v in vec.items() if c not in pivots})
        return {k: res[f] for k, f in enumerate(self.rep_cols) if f in res}


# the homology of an empty strand
NO_HOMOLOGY = HomologyData(0, StrandBasis([], {}), 0, [], None, None, ())


def homology_data(
    x: FreeComplex,
    d: int,
    n: int,
    provider,
    above: Optional[HomologyData] = None,
) -> HomologyData:
    """Homology of the strand of integer weight n in degree d, decided by
    ranks first: dim = nullity(d_d) - rank(d_{d+1}), with d_d reduced in
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

    Otherwise the columns of d_{d+1} (the boundaries) are projected onto
    the free columns, where they fill `free_bnd`; the fill stops once it
    reaches rank(d_{d+1}), as every later column then lies in its span."""
    F = x.field
    sb = strand_basis(x, d, n, provider)
    size = len(sb.pairs)
    diff_ech = Echelon(F)
    if size:
        below = strand_pairs(x, d - 1, n, provider)
        for row in strand_rows(x.rows_at(d), below, sb, x.ring):
            diff_ech.insert(row)
    rank = diff_ech.rank
    nullity = size - rank
    if nullity == 0 or (above is not None and above.rank == nullity):
        return HomologyData(0, sb, rank, [], None, None, ())
    pivots = diff_ech.rows
    if above is None:
        basis = strand_basis(x, d + 1, n, provider)
        free_rows = Echelon(F)
        if basis.pairs:
            for row in strand_rows(x.rows_at(d + 1), sb.pairs, basis, x.ring, skip=pivots):
                free_rows.insert(row)
                if free_rows.rank == nullity:
                    return HomologyData(0, sb, rank, [], None, None, ())
        full = free_rows.rank
    else:
        basis, full = above.basis, above.rank
    free_bnd = Echelon(F)
    if full:
        for col in strand_columns(x.diff_at(d + 1), basis, sb, x.ring):
            free_bnd.insert({r: v for r, v in col.items() if r not in pivots})
            if free_bnd.rank == full:
                break
    rep_cols = tuple(c for c in range(size) if c not in pivots and c not in free_bnd.rows)
    return HomologyData(
        len(rep_cols), sb, rank, diff_ech.kernel(list(rep_cols)), diff_ech, free_bnd, rep_cols
    )


# ---------- chain maps ----------


@dataclass
class ChainMap:
    """Chain map src -> dst, stored like a differential: entries[d] holds
    one column per degree-d generator of src, its entries in the target
    ring. ring_map pushes source monomials into the target ring (None =
    same ring)."""

    src: FreeComplex
    dst: FreeComplex
    entries: dict[int, list[Column]] = field(default_factory=dict)
    ring_map: Optional[Callable[[Mono], Mono]] = None

    def entries_at(self, d: int) -> list[Column]:
        """entries[d], or src.rank(d) empty columns where it is not stored."""
        return self.entries.get(d) or [()] * self.src.rank(d)

    def push_exp(self, e: Mono) -> Mono:
        return e if self.ring_map is None else self.ring_map(e)


def identity_map(x: FreeComplex) -> ChainMap:
    one = x.ring.one()
    ent = {d: [((j, dict(one)),) for j in range(len(gl))] for d, gl in x.gens.items() if gl}
    return ChainMap(src=x, dst=x, entries=ent)


def check_chain_map(f: ChainMap) -> None:
    """Assert the column layout and d . f = f . d degreewise."""
    ring = f.dst.ring
    _check_layout(f.entries, f.src.rank, "chain map")
    for d in sorted(set(f.entries) | set(f.src.diff)):
        f_here, f_below = f.entries_at(d), f.entries_at(d - 1)
        dst_diff, src_diff = f.dst.diff_at(d), f.src.diff_at(d)
        # f then d on one side, d then f on the other, per source generator
        for j in range(f.src.rank(d)):
            lhs: dict[int, Elem] = {}
            for i, elem in f_here[j]:
                for (i2, delem) in dst_diff[i]:
                    acc = ring.elem_mul(delem, elem)
                    if acc:
                        lhs[i2] = ring.elem_add(lhs.get(i2, {}), acc)
            rhs: dict[int, Elem] = {}
            for i, selem in src_diff[j]:
                pushed = {f.push_exp(e): v for e, v in selem.items()}
                for i2, felem in f_below[i]:
                    acc = ring.elem_mul(felem, pushed)
                    if acc:
                        rhs[i2] = ring.elem_add(rhs.get(i2, {}), acc)
            keys = set(lhs) | set(rhs)
            for k in keys:
                dl = ring.elem_add(lhs.get(k, {}), ring.elem_neg(rhs.get(k, {})))
                if dl:
                    raise AssertionError(
                        f"not a chain map at degree {d}, source gen {j}, row {k}"
                    )


# ---------- strand action of a chain map ----------


def push_strand_vec(
    f: ChainMap, cols: list[Column], vec: Vec, src_sb: StrandBasis, dst_sb: StrandBasis
) -> Vec:
    """Image of a strand vector under f (weights preserved); `cols` is
    f.entries_at(d) for the strand's degree d."""
    out: Vec = {}
    for pos, c in vec.items():
        j, mono = src_sb.pairs[pos]
        add_image(out, cols[j], f.push_exp(mono), dst_sb.index, c, f.dst.ring)
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


class TensorInfo(NamedTuple):
    prov: dict  # (d, idx) -> (p, i, q, j)
    rev: dict  # (p, i, q, j) -> idx


def tensor_complexes(
    a: FreeComplex,
    b: FreeComplex,
    dmax: Optional[int] = None,
    wmax: Optional[Fraction] = None,
) -> tuple[FreeComplex, TensorInfo]:
    """a (x) b with Koszul signs, truncated above dmax / wmax.

    Weight truncation is exact for strands of weight <= wmax since the
    differential preserves weight; degree truncation is exact below dmax.
    Weights are summed as integers over the ring's denom, and each
    distinct weight is one shared Fraction.
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
    prov: dict = {}
    rev: dict = {}
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
                    idx = len(gl)
                    gl.append(w)
                    prov[(d, idx)] = (p, i, q, j)
                    rev[(p, i, q, j)] = idx
        gens[d] = gl
    a_diff = {p: a.diff_at(p) for p in a.gens}
    b_diff = {q: b.diff_at(q) for q in b.gens}
    diff: dict[int, list[Column]] = {}
    for d, gl in gens.items():
        if d - 1 not in gens:
            continue
        cols = []
        for idx in range(len(gl)):
            p, i, q, j = prov[(d, idx)]
            col = []
            for (i2, elem) in a_diff[p][i]:
                tgt = rev.get((p - 1, i2, q, j))
                if tgt is not None:
                    col.append((tgt, elem))
            for (j2, elem) in b_diff[q][j]:
                tgt = rev.get((p, i, q - 1, j2))
                if tgt is not None:
                    col.append((tgt, ring.elem_neg(elem) if p % 2 else elem))
            cols.append(tuple(col))
        diff[d] = cols
    aug = None
    if (
        a.aug is not None
        and b.aug is not None
        and not a.aug_quotient
        and not b.aug_quotient
        and 0 in gens
    ):
        # both augment into R, so the product augments by multiplication
        aug = []
        for idx in range(len(gens[0])):
            p, i, q, j = prov[(0, idx)]
            aug.append(ring.elem_mul(a.aug[i], b.aug[j]))
    return (
        FreeComplex(ring=ring, gens=gens, diff=diff, aug=aug),
        TensorInfo(prov, rev),
    )


def tensor_maps(
    f: ChainMap,
    g: ChainMap,
    src: FreeComplex,
    src_info: TensorInfo,
    dst: FreeComplex,
    dst_info: TensorInfo,
) -> ChainMap:
    """f (x) g on given tensor models; f and g must be degree-0 maps
    sharing a ring map, so no Koszul signs arise."""
    if f.ring_map is not None and g.ring_map is not None and f.ring_map is not g.ring_map:
        raise AssertionError("tensor_maps: factors carry different ring maps")
    ring = dst.ring
    f_cols = {p: f.entries_at(p) for p in f.src.gens}
    g_cols = {q: g.entries_at(q) for q in g.src.gens}
    ent = {d: [()] * len(gl) for d, gl in src.gens.items()}
    for (d, idx), (p, i, q, j) in src_info.prov.items():
        # each (i2, j2) has its own target generator, so no two products meet
        gcol = g_cols[q][j]
        col = []
        for i2, ea in f_cols[p][i]:
            for j2, eb in gcol:
                tgt = dst_info.rev.get((p, i2, q, j2))
                if tgt is None:
                    continue
                prod = ring.elem_mul(ea, eb)
                if prod:
                    col.append((tgt, prod))
        ent[d][idx] = tuple(col)
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
    if fx.ring_map is not None and fy.ring_map is not None and fx.ring_map is not fy.ring_map:
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

    New generators at each degree complete the strand kernels modulo
    multiples of generators already chosen, ascending through weights, so
    no differential entry is a unit and strands of weight <= wmax are
    resolved exactly.
    """
    wmax = Fraction(wmax)
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
            if not sb.pairs:
                continue
            if d == 1:
                aug_cols, tgt = aug_strand(x, n)
                mat = strand_map(aug_cols, sb, tgt, ring)
            else:
                mat = strand_matrix(x, d - 1, n, prov, src=sb)
            cycles = kernel_rows(mat.rows, len(sb.pairs), F)
            if not cycles:
                continue
            span = Echelon(F)
            for (ng, colg) in chosen:
                for mono in prov.basis_at(n - ng):
                    vec: Vec = {}
                    add_image(vec, colg.items(), mono, sb.index, F.one, ring)
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
    degrees solve d(f(g)) = f(d(g)). Over a resolution every one of these
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
        if d == 0:
            # the augmentations are the degree-0 boundaries, into one
            # generator on which f is the identity
            x_cols = [((0, a),) for a in x.aug]
            f_cols = [((0, ring.one()),)]
        else:
            x_cols, f_cols = x.diff_at(d), f.entries_at(d - 1)
        for j, w in enumerate(x.gens_at(d)):
            n = ring.num(w)
            ysb = strand_basis(y, d, n, prov)
            if d == 0:
                y_cols, ydst = aug_strand(y, n)
                mat = strand_map(y_cols, ysb, ydst, ring)
            else:
                ydst = strand_basis(y, d - 1, n, prov)
                mat = strand_matrix(y, d, n, prov, src=ysb, dst=ydst)
            # f(d g): the ring is commutative, so each monomial of f's
            # entry scales the pushed boundary entry; pushed monomials that
            # vanish in y's ring are not in the strand and drop out
            rhs: Vec = {}
            for i, selem in x_cols[j]:
                pushed = {f.push_exp(e): v for e, v in selem.items()}
                for i2, felem in f_cols[i]:
                    for mono, c in felem.items():
                        add_image(rhs, ((i2, pushed),), mono, ydst.index, c, ring)
            sol = solve_rows(mat.rows, len(ysb.pairs), rhs, F)
            if sol is None:
                raise AssertionError(f"no lift at degree {d}, generator {j}")
            cols.append(tuple(strand_column(sol, ysb).items()))
        f.entries[d] = cols
    return f
