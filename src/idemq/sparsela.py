"""Sparse exact linear algebra over Q and F_p.

Matrices are rows-of-dicts: row i is {col: coeff} with exact scalars.
Every elimination is one Echelon, the same code over Q and F_p. It keeps
each row under its lowest column, the row's pivot, scaled to 1 there.
Inserting a row reduces it against the stored rows and stores what is
left; the stored rows are never touched again. Reducing clears the pivot
columns of a vector in ascending order: a stored row has no entry below
its pivot, so clearing one pivot only adds entries at higher columns.

Kernels and solutions are read off the reduced form, built once by
back-substitution from the highest pivot down: there each pivot column
occurs in its own row only. A column that holds no pivot is free, and
each free column f gives the kernel vector e_f - sum_p R_p[f] e_p over
the reduced rows R_p. Solving A x = b stores the rows of [A | b] with b
in column ncols, which the lowest-column rule keeps out of the pivots
unless a row reduces to 0 = b_i; each reduced row's entry in that column
is the value of its pivot variable, with every free variable 0.

Input contract: every vector given to an Echelon holds normalized,
nonzero entries (v != 0 and F.normalize(v) gives v back unchanged), as
every producer here makes them: the strand row reader, add_image, matmul,
kernel and the ring element operations. Reducing does not normalize its
input again. It never changes a caller's vector either: a vector that
touches no pivot is returned, and may be stored, as itself, and any
other is reduced in a copy. So a vector must not be changed after it
was inserted.
"""

from __future__ import annotations

import heapq
from typing import Optional

Vec = dict  # {col: scalar}, zero entries absent


def _reduce(vec: Vec, rows: dict[int, Vec], F) -> Vec:
    """vec minus the multiples of `rows` (pivot col -> row, 1 at the
    pivot and nothing below it) that clear every pivot column of vec:
    vec itself when it has none, else a new dict."""
    if rows.keys().isdisjoint(vec):
        return vec
    norm = F.normalize
    res = dict(vec)
    heap = [c for c in res if c in rows]
    heapq.heapify(heap)
    while heap:
        c = heapq.heappop(heap)
        a = res.pop(c, None)
        if a is None:  # cancelled after it was pushed, or pushed twice
            continue
        for j, v in rows[c].items():
            if j == c:
                continue
            old = res.get(j)
            if old is None:
                res[j] = norm(-a * v)
                if j in rows:
                    heapq.heappush(heap, j)
            else:
                nv = norm(old - a * v)
                if nv:  # zero is 0 in both fields
                    res[j] = nv
                else:
                    del res[j]
    return res


class Echelon:
    """Row echelon form, one row at a time: `rows` maps each pivot column
    to the stored row whose lowest column it is, with coefficient 1."""

    def __init__(self, field):
        self.field = field
        self.rows: dict[int, Vec] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: Vec) -> Vec:
        """Residual of vec modulo the stored row span: it holds no pivot
        column, and it is empty exactly when vec lies in the span."""
        return _reduce(vec, self.rows, self.field)

    def insert(self, vec: Vec) -> Optional[int]:
        """Add vec to the span. Returns the new pivot column, or None if
        vec was already in the span. vec must hold normalized, nonzero
        entries; it is never changed, but one that touches no pivot and is
        1 at its lowest column is stored as itself, so the caller must not
        change it afterwards."""
        if not vec:
            return None
        F = self.field
        res = _reduce(vec, self.rows, F)
        if not res:
            return None
        pick = min(res)
        a = res[pick]
        if a != F.one:
            inv = F.inv(a)
            res = {c: F.normalize(inv * v) for c, v in res.items()}
        self.rows[pick] = res
        return pick

    def reduced(self) -> dict[int, Vec]:
        """The stored rows made mutually reduced, highest pivot first: each
        pivot column then occurs in its own row only."""
        out: dict[int, Vec] = {}
        for p in sorted(self.rows, reverse=True):
            out[p] = _reduce(self.rows[p], out, self.field)
        return out

    def kernel(self, free: list[int]) -> list[Vec]:
        """Vectors the stored rows annihilate, one per column f in `free`
        (columns without a pivot): e_f - sum_p R_p[f] e_p over the reduced
        rows R_p. Each is 1 at its own free column and 0 at every other one."""
        F = self.field
        out = {f: {f: F.one} for f in free}
        for p, row in self.reduced().items():
            for c, v in row.items():
                z = out.get(c)
                if z is not None:
                    z[p] = F.neg(v)
        return [out[f] for f in free]


def kernel_rows(rows: list[Vec], ncols: int, field) -> list[Vec]:
    """Basis of {x : A x = 0}, A the nrows x ncols matrix given by rows,
    one vector per free column, ascending."""
    ech = Echelon(field)
    for row in rows:
        ech.insert(row)
    return ech.kernel([c for c in range(ncols) if c not in ech.rows])


def solve_rows(rows: list[Vec], ncols: int, rhs: Vec, field) -> Optional[Vec]:
    """One x with A x = rhs, or None. rhs is {row index: value}."""
    ech = Echelon(field)
    for i, row in enumerate(rows):
        b = rhs.get(i)
        ech.insert(row if b is None else {**row, ncols: b})
    if ncols in ech.rows:  # a row reduced to 0 = 1
        return None
    return {p: row[ncols] for p, row in ech.reduced().items() if ncols in row}


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
        v = self.field.normalize(v)
        if self.field.is_zero(v):
            self.rows[i].pop(j, None)
        else:
            self.rows[i][j] = v

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
        ech = Echelon(self.field)
        for row in self.rows:
            ech.insert(row)
        return ech.rank

    def __repr__(self) -> str:
        return f"<SparseMatrix {self.nrows}x{self.ncols} over {self.field!r}>"


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
