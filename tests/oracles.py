"""Helpers that only the tests use: dense matrix conversion, a dense
reduced echelon form and rank that share no code with `sparsela`,
kernels and solutions of a SparseMatrix, a reference strand indexed by
(generator, monomial) tuples, strand matrices of a differential and an
augmentation by a scan that tests every product for zero and shares no
code with the strand engine, a homology dimension read from two dense
ranks with no representatives, a homology basis filled eagerly from
those scanned matrices, multigraded Betti numbers of a monomial ideal
from its Taylor complex, the complex check (layout, dd = 0 and weight
homogeneity: check_complex), the chain-map check d . f = f . d
(check_chain_map), and small conveniences on chain maps,
monomials and tables (settled). Two reference routes through the tower of derived
powers, which share no code with base change: pi_*(R/I^infty) read off
the cones of the multiplications (quotient_by_tower), also by Kunneth
convolution over independent variable blocks (kunneth_quotient), and the
static check read off cone(sigma_1) (static_check_by_tower). The
cofibre of sigma_n built as that cone (cofibre_cone), which tower_report
reads as X_n against R/I instead. The truncated, normalized Amitsur
totalization Tot^m (amitsur_tot_family), which amitsur_crosscheck reads
through its Morse reduction Tower.Q(m + 1) instead. Base change without descent:
quotient_homotopy and static_check with Tor^A(K_S, R) settled by the Tor
level loop even where it descends to level 0 (quotient_by_levels,
static_check_by_levels)."""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, combinations
from typing import Callable, NamedTuple, Optional
from unittest import mock

from idemq import derived
from idemq.complexes import (
    ChainMap,
    Column,
    FreeComplex,
    StrandBasis,
    Strands,
    TensorIndex,
    identity_map,
    lift_chain_map,
    minimal_resolution,
    tensor_complexes,
    tensor_maps,
)
from idemq.derived import (
    STABLE,
    UNDETERMINED,
    Bounds,
    Cell,
    QuotientHomotopy,
    StabilizedTable,
    StaticCheck,
    default_bounds,
    read_cells,
)
from idemq.ideals import IdealFamily
from idemq.rings import Elem, LevelRing, RingSpec, make_level_ring
from idemq.sparsela import Echelon, SparseMatrix, Vec, kernel_rows, solve_rows


def from_dense(data: list[list], field) -> SparseMatrix:
    nrows = len(data)
    ncols = len(data[0]) if nrows else 0
    m = SparseMatrix(nrows, ncols, field)
    for i, drow in enumerate(data):
        for j, v in enumerate(drow):
            v = field.normalize(v)
            if v:
                m.rows[i][j] = v
    return m


def to_dense(m: SparseMatrix) -> list[list]:
    return [[row.get(j, 0) for j in range(m.ncols)] for row in m.rows]


def dense_rref(data: list[list], field) -> dict[int, dict]:
    """Reduced row echelon form by Gauss-Jordan elimination on a dense
    copy, each entry reduced by the field's normalize after every step:
    pivot column -> its row as {col: value}, 1 at its pivot and 0 at every
    other pivot, pivots ascending."""
    norm = field.normalize
    m = [[norm(v) for v in row] for row in data]
    ncols = len(m[0]) if m else 0
    pivots = []
    for c in range(ncols):
        rk = len(pivots)
        p = next((i for i in range(rk, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[rk], m[p] = m[p], m[rk]
        inv = field.inv(m[rk][c])
        prow = m[rk] = [norm(v * inv) for v in m[rk]]
        for i in range(len(m)):
            if i != rk and m[i][c]:
                f = m[i][c]
                m[i] = [norm(v - f * pv) for v, pv in zip(m[i], prow)]
        pivots.append(c)
    return {c: {j: v for j, v in enumerate(m[k]) if v} for k, c in enumerate(pivots)}


def dense_rank(data: list[list], field) -> int:
    return len(dense_rref(data, field))


def rank(m: SparseMatrix) -> int:
    return dense_rank(to_dense(m), m.field)


def add_at(m: SparseMatrix, i: int, j: int, v) -> None:
    m.set(i, j, m.rows[i].get(j, 0) + v)


def kernel_basis(m: SparseMatrix) -> list[Vec]:
    return kernel_rows(m.rows, m.ncols, m.field)


def solve(m: SparseMatrix, rhs: Vec) -> Optional[Vec]:
    return solve_rows(m.rows, m.ncols, rhs, m.field)


def rank_kernel(m: SparseMatrix) -> tuple[int, list[Vec]]:
    """Rank and kernel basis in one call (kernel dim + rank = ncols)."""
    ker = kernel_basis(m)
    return m.ncols - len(ker), ker


def basis(ring, w: Fraction, module=None) -> list:
    """The monomials of the level-free weight w in the ring, or in a
    Strands module over it; none off the ring's weight lattice."""
    n = ring.num(w)
    return [] if n is None else (module or ring).basis_at(n)


def divisible(ring, e, gens) -> bool:
    """Whether the monomial e lies in the monomial ideal (gens), compared
    on exponent tuples."""
    return any(all(a >= b for a, b in zip(ring.unpack(e), ring.unpack(t))) for t in gens)


def mono_mul(ring, a, b):
    """The product of two monomials, added on exponent tuples."""
    return ring.pack(tuple(x + y for x, y in zip(ring.unpack(a), ring.unpack(b))))


def is_zero(provider: Strands, e) -> bool:
    """Whether the monomial e vanishes in the provider's module."""
    if provider.ring.mono_is_zero(e):
        return True
    return divisible(provider.ring, e, provider.ideal_exps) != provider.inside


class RefStrand(NamedTuple):
    """A strand by a scan: its (generator, monomial) pairs and the tuple
    index pair -> position."""

    pairs: list[tuple[int, int]]
    index: dict


def ref_strand(x: FreeComplex, d: int, n: int, provider: Strands) -> RefStrand:
    """The strand of degree d and integer weight n, every generator of the
    degree in turn, each with the ring's monomials of the weight left to
    it that `is_zero` keeps."""
    ring = provider.ring
    pairs = []
    for j, gw in enumerate(x.gens_at(d)):
        k = n - ring.num(gw)
        if k >= 0:
            pairs.extend((j, m) for m in ring.basis_at(k) if not is_zero(provider, m))
    return RefStrand(pairs, {p: k for k, p in enumerate(pairs)})


def pairs_of(sb: StrandBasis) -> list[tuple[int, int]]:
    """The pairs of a strand of the engine, position by position."""
    return [sb.pair(k) for k in range(sb.size)]


def scan_push(cols, vec: Vec, src: RefStrand, dst: RefStrand, ring, zero, push=None) -> Vec:
    """Image of the strand vector vec under the map whose column j is
    cols[j], with `push` carrying source monomials into ring (None: the
    same ring): every product of an entry with a pushed source monomial,
    less those `zero` finds vanishing in the target module."""
    norm = ring.field.normalize
    out: Vec = {}
    for c, s in vec.items():
        j, mono = src.pairs[c]
        if push is not None:
            mono = push(mono)
        for i, elem in cols[j]:
            for e, coeff in elem.items():
                ee = mono_mul(ring, e, mono)
                if zero(ee):
                    continue
                r = dst.index.get((i, ee))
                if r is not None:
                    v = norm(out.get(r, 0) + s * coeff)
                    if v:
                        out[r] = v
                    else:
                        out.pop(r, None)
    return out


def _scan_map(cols, src: RefStrand, dst: RefStrand, ring, zero) -> SparseMatrix:
    """Matrix, from strand src to strand dst, of the map whose column j is
    cols[j] (scan_push of each unit vector)."""
    m = SparseMatrix(len(dst.pairs), len(src.pairs), ring.field)
    for c in range(len(src.pairs)):
        for r, v in scan_push(cols, {c: ring.field.one}, src, dst, ring, zero).items():
            m.rows[r][c] = v
    return m


def strand_matrix(
    x: FreeComplex,
    d: int,
    n: int,
    provider: Strands,
    src: Optional[RefStrand] = None,
    dst: Optional[RefStrand] = None,
) -> SparseMatrix:
    """Matrix of diff[d] on the strand of integer weight n, rows in the
    order of the degree-(d-1) strand."""
    if src is None:
        src = ref_strand(x, d, n, provider)
    if dst is None:
        dst = ref_strand(x, d - 1, n, provider)
    return _scan_map(x.diff_at(d), src, dst, x.ring, lambda e: is_zero(provider, e))


def aug_matrix(x: FreeComplex, n: int, src: RefStrand) -> tuple[SparseMatrix, list]:
    """Matrix of the augmentation on the degree-0 strand src of integer
    weight n, onto the weight-n monomials of R/aug_quotient, and those
    monomials."""
    ring = x.ring
    tgt = [m for m in ring.basis_at(n) if not divisible(ring, m, x.aug_quotient)]
    dst = RefStrand([(0, m) for m in tgt], {(0, m): r for r, m in enumerate(tgt)})
    quotient = Strands(ring, x.aug_quotient)
    cols = [((0, a),) for a in x.aug]
    return _scan_map(cols, src, dst, ring, lambda e: is_zero(quotient, e)), tgt


def homology_dim(x: FreeComplex, d: int, w: Fraction, provider) -> int:
    """dim H_d at the level-free weight w, 0 off the level's lattice."""
    n = x.ring.num(w)
    if n is None:
        return 0
    sb = ref_strand(x, d, n, provider)
    if not sb.pairs:
        return 0
    out = strand_matrix(x, d, n, provider, src=sb)
    inc = strand_matrix(x, d + 1, n, provider, dst=sb)
    return len(sb.pairs) - rank(out) - rank(inc)


class EagerHomology(NamedTuple):
    """A strand's homology with every boundary read (eager_homology)."""

    dim: int
    rank: int  # of d_d on the strand
    reps: list[Vec]
    rep_cols: tuple[int, ...]
    pivots: dict  # d_d's echelon rows, by pivot column
    free_bnd: Echelon

    def coords(self, vec: Vec) -> Vec:
        """Coordinates of a cycle in the basis `reps`."""
        res = self.free_bnd.reduce({c: v for c, v in vec.items() if c not in self.pivots})
        return {k: res[f] for k, f in enumerate(self.rep_cols) if f in res}


def eager_homology(x: FreeComplex, d: int, n: int, provider: Strands) -> EagerHomology:
    """Homology of the strand of integer weight n in degree d, its basis
    filled up front from the scanned matrices: the rows of d_d in one
    echelon, every column of d_{d+1} projected off d_d's pivots in
    another, and as representatives the cycles (Echelon.kernel) of the
    free columns that are not pivots of the boundaries."""
    sb = ref_strand(x, d, n, provider)
    diff, bnd = Echelon(x.field), Echelon(x.field)
    for row in strand_matrix(x, d, n, provider, src=sb).rows:
        diff.insert(row)
    pivots = diff.rows
    inc = strand_matrix(x, d + 1, n, provider, dst=sb)
    for c in range(inc.ncols):
        bnd.insert({r: row[c] for r, row in enumerate(inc.rows) if c in row and r not in pivots})
    rep_cols = tuple(c for c in range(len(sb.pairs)) if c not in pivots and c not in bnd.rows)
    return EagerHomology(
        len(rep_cols), diff.rank, diff.kernel(list(rep_cols)), rep_cols, pivots, bnd
    )


def taylor_betti(gens: list[tuple], field) -> dict[tuple[int, tuple], int]:
    """Multigraded Betti numbers beta_{i,b} of the monomial ideal T =
    (gens), exponent tuples, as a module: {(i, b): dim}, nonzero only.

    The Taylor complex of R/T has a basis e_S, S a subset of the gens in
    homological degree |S| and multidegree lcm(S), with
    d e_S = sum_k (-1)^k (lcm S / lcm S-s_k) e_{S-s_k}. It resolves R/T, so
    beta_{|S|,b}(R/T) is the homology of its reduction mod the variables
    at multidegree b: the subsets with lcm b, and the faces of S that keep
    lcm b, with sign (-1)^k. T's own resolution is R/T's shifted down one
    degree: beta_{i,b}(T) = beta_{i+1,b}(R/T)."""
    r = len(gens)
    width = len(gens[0]) if gens else 0

    def lcm(s: tuple[int, ...]) -> tuple:
        return tuple(max((gens[k][v] for k in s), default=0) for v in range(width))

    by_b: dict[tuple, dict[int, list]] = {}
    for size in range(1, r + 1):
        for s in combinations(range(r), size):
            by_b.setdefault(lcm(s), {}).setdefault(size, []).append(s)
    out = {}
    for b, faces in by_b.items():
        for k, here in faces.items():
            dim = len(here) - _face_rank(faces, k, field) - _face_rank(faces, k + 1, field)
            if dim:
                out[(k - 1, b)] = dim
    return out


def _face_rank(faces: dict[int, list], k: int, field) -> int:
    """Rank of the reduced Taylor differential from the k-subsets to the
    (k-1)-subsets of one multidegree, `faces` holding the subsets by size."""
    src, dst = faces.get(k, []), faces.get(k - 1, [])
    pos = {s: p for p, s in enumerate(dst)}
    data = [[0] * len(src) for _ in dst]
    for c, s in enumerate(src):
        for k2 in range(len(s)):
            face = s[:k2] + s[k2 + 1 :]
            if face in pos:
                data[pos[face]][c] = 1 if k2 % 2 == 0 else -1
    return dense_rank(data, field)


def column(f: ChainMap, d: int, j: int) -> dict:
    """Column j of f in degree d, as {row generator: ring element}."""
    return dict(f.entries_at(d)[j])


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


def compose_maps(g: ChainMap, f: ChainMap) -> ChainMap:
    """g after f. f: A -> B, g: B -> C. A degree where the composite is
    zero is not stored."""
    if g.src is not f.dst:
        raise AssertionError("compose_maps: middle complexes differ")
    ring = g.dst.ring
    ent: dict = {}
    for d, fcols in f.entries.items():
        gcols = g.entries_at(d)
        cols = []
        for fcol in fcols:
            acc: dict = {}
            for i, elem in fcol:
                pushed = {g.push_exp(e): v for e, v in elem.items()}
                for (i2, elem2) in gcols[i]:
                    prod = ring.elem_mul(elem2, pushed)
                    if not prod:
                        continue
                    s = ring.elem_add(acc.get(i2, {}), prod)
                    if s:
                        acc[i2] = s
                    else:
                        acc.pop(i2, None)
            cols.append(tuple(acc.items()))
        if any(cols):
            ent[d] = cols
    rm = None
    if f.ring_map or g.ring_map:
        fm, gm = f.ring_map, g.ring_map
        if fm and gm:
            rm = lambda e: gm(fm(e))  # noqa: E731
        else:
            rm = fm or gm
    return ChainMap(src=f.src, dst=g.dst, entries=ent, ring_map=rm)


def settled(table) -> bool:
    """Is every cell of the table stable (read_cells, in-flight cells
    blocking), as quotient_homotopy's status reads it?"""
    return not read_cells(table.cells, flight_blocks=True).blocking


def mono(spec, **exps) -> tuple:
    """Exponent tuple aligned with the spec's variables, e.g. mono(spec, t=1)."""
    names = [v.name for v in spec.variables]
    if set(exps) - set(names):
        raise KeyError(f"unknown variables {sorted(set(exps) - set(names))}")
    return tuple(Fraction(exps.get(n, 0)) for n in names)


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
    tables: list[dict[tuple[int, Fraction], Cell]],
    N: int,
    wmax: Fraction,
) -> dict[tuple[int, Fraction], Cell]:
    acc: dict[tuple[int, Fraction], tuple[int, bool]] = {
        (0, Fraction(0)): (1, True)
    }
    for cells in tables:
        nxt: dict[tuple[int, Fraction], tuple[int, bool]] = {}
        for (d1, w1), (v1, s1) in acc.items():
            for (d2, w2), r in cells.items():
                v2, s2 = r.value, r.state == STABLE
                if v1 * v2 == 0 and (s1 and s2):
                    continue
                d, w = d1 + d2, w1 + w2
                if d > N or w > wmax:
                    continue
                old = nxt.get((d, w), (0, True))
                nxt[(d, w)] = (old[0] + v1 * v2, old[1] and s1 and s2)
        acc = nxt
    return {
        key: Cell(v, STABLE if s else UNDETERMINED)
        for key, (v, s) in acc.items()
        if v or not s
    }


def _tower_cells(
    spec: RingSpec, family: IdealFamily, N: int, bounds: Bounds
) -> tuple[dict[tuple[int, Fraction], Cell], list[int]]:
    """The cells of pi_d(R/I^infty), d <= N, each read off cone(eps_{d+2})
    on a tower built through N, and the levels they settled on."""
    tw = derived.Tower(spec, family, N, bounds.weight_max)

    def attempt(levels, lazy):
        stop = derived._unstable if lazy else None
        raw: dict[tuple[int, Fraction], Cell] = {}
        for d in range(N + 1):
            raw.update(
                tw.Q(d + 2).diagram(levels).run([d], bounds.weight_max, bounds.window, stop)
            )
        return (raw, levels), not read_cells(raw, flight_blocks=True).blocking

    return derived.settle(family.min_level(), bounds.window, bounds.max_level, attempt)


def quotient_by_tower(
    spec: RingSpec, family: IdealFamily, N: int, bounds: Optional[Bounds] = None
) -> QuotientHomotopy:
    """pi_*(R/I^infty) in degrees 0..N through the tower of derived powers,
    for an idempotent family without a unit: degree d from
    cone(eps_{d+2}), the smallest power the stabilization bound trusts
    there. n_used names those powers, and notes is empty."""
    bounds = bounds if bounds is not None else default_bounds(N)
    raw, levels = _tower_cells(spec, family, N, bounds)
    table = derived.make_table(f"pi(R/{family.name}^infty)", raw, levels, N)
    return QuotientHomotopy(
        table=table,
        dims=table.dims(),
        top_level=levels[-1],
        notes=[],
        n_used=tuple(d + 2 for d in range(N + 1)),
    )


def cofibre_cone(tw: derived.Tower, n: int) -> derived.Family:
    """cone(sigma_n: X_{n+1} -> X_n) of the tower tw, the cofibre that
    Tower.cofibre reads as X_n against R/I; made once per tower and kept,
    as Tower.cofibre is."""
    return tw._keep(("cone", n), lambda: derived.cone_family(tw.sigma(n)))


class TotData(NamedTuple):
    tot: FreeComplex
    powers: list[FreeComplex]  # powers[k] = W (x) Wbar^{(x) k}, column k
    indexes: list[Optional[TensorIndex]]  # indexes[k] builds powers[k] from powers[k-1]
    wbar: FreeComplex
    # offsets[d][k]: where column k's generators start in Tot_d, k ascending;
    # offsets[d][-1] is rank(Tot_d)
    offsets: dict[int, list[int]]


def reduced_resolution(W: FreeComplex) -> FreeComplex:
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


def amitsur_level(
    ring: LevelRing, family: IdealFamily, m: int, N: int, wmax: Fraction
) -> TotData:
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
    wbar = reduced_resolution(W)
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
    return TotData(tot, powers, indexes, wbar, offsets)


def amitsur_step(lo: TotData, hi: TotData, inc, m: int) -> ChainMap:
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


def amitsur_tot_family(
    spec: RingSpec, family: IdealFamily, m: int, N: int, wmax: Fraction
) -> derived.Family:
    """Tot^m (amitsur_level) at each level, its column data as the index,
    with the block-diagonal transitions of amitsur_step: the family that
    amitsur_crosscheck reads as Tower.Q(m + 1), its Morse reduction."""

    def make(l: int) -> tuple[FreeComplex, TotData]:
        data = amitsur_level(make_level_ring(spec, l), family, m, N, wmax)
        return data.tot, data

    def step(fam: derived.Family, l: int) -> ChainMap:
        return amitsur_step(fam.index(l), fam.index(l + 1), fam.at(l).ring.include_exp, m)

    return derived.Family(make, step, min_level=family.min_level())


def static_check_by_tower(
    spec: RingSpec, family: IdealFamily, N: int, bounds: Optional[Bounds] = None
) -> StaticCheck:
    """The static check for an idempotent family without a unit, read off
    cone(sigma_1: X_2 -> X_1) in degrees 0..N on a tower built through
    N + 1: static when it is acyclic there at the stabilized colimit,
    the witness its first stable nonzero cell."""
    bounds = bounds if bounds is not None else default_bounds(N)
    cof = cofibre_cone(derived.Tower(spec, family, N + 1, bounds.weight_max), 1)

    def attempt(levels, lazy):
        stop = derived._unstable if lazy else None
        raw = cof.diagram(levels).run(range(N + 1), bounds.weight_max, bounds.window, stop)
        return (raw, levels), not read_cells(raw, flight_blocks=True).blocking

    raw, levels = derived.settle(family.min_level(), bounds.window, bounds.max_level, attempt)
    read = read_cells(raw, flight_blocks=True)
    static = False if read.nonzero else None if read.blocking else True
    return StaticCheck(static, read.witness, tuple(levels))


def kunneth_quotient(
    spec: RingSpec, family: IdealFamily, N: int, bounds: Bounds
) -> tuple[StabilizedTable, list[list[int]]]:
    """pi_*(R/I^infty) in degrees 0..N from the tower on each block of
    variable_blocks, recombined by Kunneth convolution over the ground
    field; the table and the blocks."""
    blocks = variable_blocks(spec, family)
    per_block, top = [], family.min_level()
    for block in blocks:
        sub = _restrict_spec(spec, block)
        fam = _restrict_family(family, sub, block)
        raw, levels = _tower_cells(sub, fam, N, bounds)
        per_block.append(raw)
        top = max(top, levels[-1])
    raw = _kunneth_cells(per_block, N, bounds.weight_max)
    levels = range(family.min_level(), top + 1)
    return derived.make_table(f"pi(R/{family.name}^infty)", raw, levels, N), blocks


def _base_change_by_levels(
    spec: RingSpec, family: IdealFamily, degrees: range, bounds: Bounds
) -> tuple[dict[tuple[int, Fraction], Cell], list[int], str]:
    """derived._quotient_by_base_change with no descent: Tor^A(K_S, R)
    settled by the Tor level loop for every family."""
    derived.level_range(family.min_level(), bounds.max_level)
    A, left, right = derived._base_change_modules(spec, family)
    return (*derived._tor_cells(A, left, right, degrees, bounds), derived._BASE_CHANGE_NOTE)


def quotient_by_levels(
    spec: RingSpec, family: IdealFamily, N: int, bounds: Optional[Bounds] = None
) -> QuotientHomotopy:
    """quotient_homotopy with base change settled by the level loop, as
    it was read before descent: the same table where both apply."""
    with mock.patch.object(derived, "_quotient_by_base_change", _base_change_by_levels):
        return derived.quotient_homotopy(spec, family, N, bounds)


def static_check_by_levels(
    spec: RingSpec, family: IdealFamily, N: int, bounds: Optional[Bounds] = None
) -> StaticCheck:
    """static_check with base change settled by the level loop."""
    with mock.patch.object(derived, "_quotient_by_base_change", _base_change_by_levels):
        return derived.static_check(spec, family, N, bounds)
