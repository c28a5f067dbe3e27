"""Helpers that only the tests use: dense matrix conversion, a dense rank
that shares no code with `sparsela`, kernels and solutions of a
SparseMatrix, a homology dimension read from two dense ranks with no
representatives, and small conveniences on chain maps, monomials and
tables."""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from idemq.complexes import ChainMap, FreeComplex, strand_basis, strand_matrix
from idemq.sparsela import SparseMatrix, Vec, kernel_rows, solve_rows


def from_dense(data: list[list], field) -> SparseMatrix:
    nrows = len(data)
    ncols = len(data[0]) if nrows else 0
    m = SparseMatrix(nrows, ncols, field)
    for i, drow in enumerate(data):
        for j, v in enumerate(drow):
            v = field.from_int(v) if isinstance(v, int) else v
            if not field.is_zero(v):
                m.rows[i][j] = v
    return m


def to_dense(m: SparseMatrix) -> list[list]:
    z = m.field.zero
    return [[row.get(j, z) for j in range(m.ncols)] for row in m.rows]


def dense_rank(data: list[list], field) -> int:
    """Rank by Gauss elimination on a dense copy, over Q in Fractions and
    over F_p in the field's own operations."""
    if field.char == 0:
        m = [[Fraction(v) for v in row] for row in data]
    else:
        m = [[field.from_int(v) if isinstance(v, int) else v for v in row] for row in data]
    ncols = len(m[0]) if m else 0
    rk = 0
    for c in range(ncols):
        p = next((i for i in range(rk, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[rk], m[p] = m[p], m[rk]
        prow = m[rk]
        nz = [j for j in range(c, ncols) if prow[j]]
        inv = field.inv(prow[c])
        for i in range(rk + 1, len(m)):
            if m[i][c]:
                f = field.mul(m[i][c], inv)
                for j in nz:
                    m[i][j] = field.sub(m[i][j], field.mul(f, prow[j]))
        rk += 1
    return rk


def rank(m: SparseMatrix) -> int:
    return dense_rank(to_dense(m), m.field)


def add_at(m: SparseMatrix, i: int, j: int, v) -> None:
    F = m.field
    m.set(i, j, F.normalize(F.add(m.rows[i].get(j, F.zero), v)))


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


def homology_dim(x: FreeComplex, d: int, w: Fraction, provider) -> int:
    """dim H_d at the level-free weight w, 0 off the level's lattice."""
    n = x.ring.num(w)
    if n is None:
        return 0
    sb = strand_basis(x, d, n, provider)
    if not sb.pairs:
        return 0
    out = strand_matrix(x, d, n, provider, src=sb)
    inc = strand_matrix(x, d + 1, n, provider, dst=sb)
    return len(sb.pairs) - rank(out) - rank(inc)


def column(f: ChainMap, d: int, j: int) -> dict:
    """Column j of f in degree d, as {row generator: ring element}."""
    return dict(f.entries_at(d)[j])


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


def mono(spec, **exps) -> tuple:
    """Exponent tuple aligned with the spec's variables, e.g. mono(spec, t=1)."""
    names = [v.name for v in spec.variables]
    if set(exps) - set(names):
        raise KeyError(f"unknown variables {sorted(set(exps) - set(names))}")
    return tuple(Fraction(exps.get(n, 0)) for n in names)


def cell_map(table) -> dict:
    """A table's cells by (degree, weight)."""
    return {(c.degree, c.weight): c for c in table.cells}
