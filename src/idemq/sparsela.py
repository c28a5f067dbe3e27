"""Sparse exact linear algebra over Q and F_p.

Matrices are rows-of-dicts: row i is {col: coeff} with exact scalars.
Rank-only queries (the bulk of the homology work: most strands have no
homology, and their dimension is decided by two ranks) take a sparse fast
path that keeps no echelon: over Q rows are cleared to integers and
reduced by cross-multiplication, over F_p they are reduced with pivots
normalised to 1. Every prime takes the same path.

Kernels and solving reduce the rows of a matrix to reduced row echelon
form in one Echelon. A column that holds no pivot is free, and each free
column f gives the kernel vector e_f - sum_p R_p[f] e_p, read off the
pivot rows R_p (`Echelon.kernel`). Solving A x = b reduces the rows of
[A | b], keeping b's column out of the pivots; then each pivot row's
entry in that column is the value of its pivot variable, with every
free variable 0.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd
from typing import Optional

Vec = dict  # {col: scalar}, zero entries absent


# ---------- vector helpers ----------


def vec_clean(vec: Vec, field) -> Vec:
    return {c: v for c, v in vec.items() if not field.is_zero(v)}


# ---------- full RREF echelon (kernel / solve / membership) ----------


def _is_unit(v, field) -> bool:
    if field.char == 0:
        return v == 1 or v == -1
    return True


class Echelon:
    """Streaming reduced row echelon form.

    Stored rows are mutually reduced: each pivot column occurs in exactly
    one row, with coefficient 1, so reduce() is a single pass. Pivot choice
    prefers columns below ``prefer_below`` (used to keep the right-hand
    side of a linear system out of the pivots), then unit coefficients,
    then the lowest column index; everything is deterministic.
    """

    def __init__(self, field, prefer_below: Optional[int] = None):
        self.field = field
        self.prefer_below = prefer_below
        self.rows: dict[int, Vec] = {}  # pivot col -> row, row[pivot] == 1

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: Vec) -> Vec:
        """Residual of vec modulo the stored row span."""
        F = self.field
        rows = self.rows
        res = vec_clean(vec, F)
        # subtracting a stored row only introduces non-pivot columns, so a
        # snapshot of the pivot hits is enough
        for c in [c for c in res if c in rows]:
            a = res.pop(c)
            row = rows[c]
            for j, v in row.items():
                if j == c:
                    continue
                nv = F.normalize(F.sub(res.get(j, F.zero), F.mul(a, v)))
                if F.is_zero(nv):
                    res.pop(j, None)
                else:
                    res[j] = nv
        return res

    def contains(self, vec: Vec) -> bool:
        return not self.reduce(vec)

    def insert(self, vec: Vec) -> Optional[int]:
        """Add vec to the span. Returns the new pivot column, or None if
        vec was already in the span."""
        F = self.field
        res = self.reduce(vec)
        if not res:
            return None
        cand = list(res)
        if self.prefer_below is not None:
            below = [c for c in cand if c < self.prefer_below]
            if below:
                cand = below
        pick = min(cand, key=lambda c: (not _is_unit(res[c], F), c))
        a = res[pick]
        if a != F.one:
            inv = F.inv(a)
            res = {c: F.normalize(F.mul(inv, v)) for c, v in res.items()}
        for prow in self.rows.values():
            b = prow.pop(pick, None)
            if b is not None:
                for j, v in res.items():
                    if j == pick:
                        continue
                    nv = F.normalize(F.sub(prow.get(j, F.zero), F.mul(b, v)))
                    if F.is_zero(nv):
                        prow.pop(j, None)
                    else:
                        prow[j] = nv
        self.rows[pick] = res
        return pick

    def kernel(self, free: list[int]) -> list[Vec]:
        """Vectors the stored rows annihilate, one per column f in `free`
        (columns without a pivot): e_f - sum_p R_p[f] e_p over the rows
        R_p. Each is 1 at its own free column and 0 at every other one."""
        F = self.field
        out = {f: {f: F.one} for f in free}
        for p, row in self.rows.items():
            for c, v in row.items():
                z = out.get(c)
                if z is not None:
                    z[p] = F.neg(v)
        return [out[f] for f in free]


# ---------- fraction-free rank over Q ----------


def _clear_row_to_int(row: Vec) -> Vec:
    den = 1
    for v in row.values():
        if type(v) is Fraction:
            den = den * v.denominator // gcd(den, v.denominator)
    if den == 1:
        out = {c: int(v) for c, v in row.items() if v}
    else:
        out = {}
        for c, v in row.items():
            w = int(v * den)
            if w:
                out[c] = w
    g = 0
    for v in out.values():
        g = gcd(g, v)
    if g > 1:
        out = {c: v // g for c, v in out.items()}
    return out

# gcd-normalize a working row once entries pass this many bits
_GROWTH_BITS = 512


def _max_bits(row: Vec) -> int:
    return max(map(abs, row.values()), default=0).bit_length()


def _rank_int_rows(rows: list[Vec]) -> int:
    """REF rank of integer rows by cross-multiplication. No divisions.
    `bits` bounds a working row's entry bit lengths from each step's
    multipliers and pivot row, so the row is scanned for _GROWTH_BITS
    only when the bound passes it."""
    piv: dict[int, tuple[Vec, int]] = {}  # pivot col -> (row, _max_bits(row))
    for row in rows:
        res = {c: v for c, v in row.items() if v}
        bits = _max_bits(res)
        heap = list(res)
        heapq.heapify(heap)
        newpiv = -1
        while heap:
            c = heapq.heappop(heap)
            a = res.get(c, 0)
            if a == 0:
                continue
            hit = piv.get(c)
            if hit is None:
                newpiv = c
                break
            pr, pbits = hit
            b = pr[c]
            g = gcd(a, b)
            ma, mb = a // g, b // g
            if mb != 1:
                for j in res:
                    res[j] *= mb
                bits += mb.bit_length()
            step = ma.bit_length() + pbits
            bits = (step if step > bits else bits) + 1
            del res[c]
            for j, v in pr.items():
                if j == c:
                    continue
                nv = res.get(j, 0) - ma * v
                if nv:
                    if j not in res:
                        heapq.heappush(heap, j)
                    res[j] = nv
                else:
                    res.pop(j, None)
            if bits > _GROWTH_BITS:
                bits = _max_bits(res)
                if bits > _GROWTH_BITS:
                    g = 0
                    for v in res.values():
                        g = gcd(g, v)
                    if g > 1:
                        for j in res:
                            res[j] //= g
                        bits = _max_bits(res)
        if newpiv >= 0:
            piv[newpiv] = (res, _max_bits(res))
    return len(piv)


# ---------- sparse rank mod p ----------


def _rank_modp_rows(rows: list[Vec], p: int) -> int:
    piv: dict[int, Vec] = {}
    for row in rows:
        res = {c: v % p for c, v in row.items() if v % p}
        heap = list(res)
        heapq.heapify(heap)
        newpiv = -1
        while heap:
            c = heapq.heappop(heap)
            a = res.get(c, 0)
            if a == 0:
                continue
            pr = piv.get(c)
            if pr is None:
                newpiv = c
                break
            del res[c]
            for j, v in pr.items():  # pr normalized: pr[c] == 1
                if j == c:
                    continue
                nv = (res.get(j, 0) - a * v) % p
                if nv:
                    if j not in res:
                        heapq.heappush(heap, j)
                    res[j] = nv
                else:
                    res.pop(j, None)
        if newpiv >= 0:
            a = res[newpiv]
            if a != 1:
                inv = pow(a, -1, p)
                res = {j: (inv * v) % p for j, v in res.items()}
            piv[newpiv] = res
    return len(piv)


# ---------- rank dispatch ----------


def rank_rows(rows: list[Vec], ncols: int, field) -> int:
    if not rows or ncols == 0:
        return 0
    if field.char == 0:
        return _rank_int_rows([_clear_row_to_int(r) for r in rows])
    return _rank_modp_rows(rows, field.p)


# ---------- kernel and solve from one row reduction ----------


def kernel_rows(rows: list[Vec], ncols: int, field) -> list[Vec]:
    """Basis of {x : A x = 0}, A the nrows x ncols matrix given by rows,
    one vector per free column, ascending."""
    ech = Echelon(field)
    for row in rows:
        ech.insert(row)
    return ech.kernel([c for c in range(ncols) if c not in ech.rows])


def solve_rows(rows: list[Vec], ncols: int, rhs: Vec, field) -> Optional[Vec]:
    """One x with A x = rhs, or None. rhs is {row index: value}."""
    ech = Echelon(field, prefer_below=ncols)
    for i, row in enumerate(rows):
        b = rhs.get(i)
        ech.insert(row if b is None else {**row, ncols: b})
    if ncols in ech.rows:  # a row reduced to 0 = 1
        return None
    return {p: row[ncols] for p, row in ech.rows.items() if ncols in row}


# ---------- matrix wrapper ----------


class SparseMatrix:
    """nrows x ncols matrix over an exact field."""

    __slots__ = ("nrows", "ncols", "field", "rows")

    def __init__(self, nrows: int, ncols: int, field, rows: Optional[list[Vec]] = None):
        self.nrows = nrows
        self.ncols = ncols
        self.field = field
        self.rows = rows if rows is not None else [dict() for _ in range(nrows)]

    def set(self, i: int, j: int, v) -> None:
        if self.field.is_zero(v):
            self.rows[i].pop(j, None)
        else:
            self.rows[i][j] = v

    def add_at(self, i: int, j: int, v) -> None:
        F = self.field
        nv = F.normalize(F.add(self.rows[i].get(j, F.zero), v))
        self.set(i, j, nv)

    def transpose(self) -> "SparseMatrix":
        t = SparseMatrix(self.ncols, self.nrows, self.field)
        for i, row in enumerate(self.rows):
            for j, v in row.items():
                t.rows[j][i] = v
        return t

    def mul_vec(self, x: Vec) -> Vec:
        F = self.field
        out: Vec = {}
        for i, row in enumerate(self.rows):
            s = F.zero
            for j, v in row.items():
                xj = x.get(j)
                if xj is not None:
                    s = F.add(s, F.mul(v, xj))
            s = F.normalize(s)
            if not F.is_zero(s):
                out[i] = s
        return out

    def rank(self) -> int:
        return rank_rows(self.rows, self.ncols, self.field)

    def nnz(self) -> int:
        return sum(len(r) for r in self.rows)

    def __repr__(self) -> str:
        return f"<SparseMatrix {self.nrows}x{self.ncols} over {self.field!r}, nnz={self.nnz()}>"


def matmul(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """a . b (apply b first)."""
    if a.ncols != b.nrows:
        raise AssertionError(f"matmul shape mismatch: {a.ncols} vs {b.nrows}")
    F = a.field
    out = SparseMatrix(a.nrows, b.ncols, F)
    for i, arow in enumerate(a.rows):
        acc: Vec = out.rows[i]
        for k, av in arow.items():
            for j, bv in b.rows[k].items():
                nv = F.normalize(F.add(acc.get(j, F.zero), F.mul(av, bv)))
                if F.is_zero(nv):
                    acc.pop(j, None)
                else:
                    acc[j] = nv
    return out
