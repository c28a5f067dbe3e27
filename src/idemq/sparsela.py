"""Sparse exact linear algebra over Q and F_p.

Matrices are rows-of-dicts: row i is {col: coeff} with exact scalars.
Every elimination is one Echelon, the same code over Q and F_p. It keeps
each row under its lowest column, the row's pivot, stored as reduced
only that far: inserting a row clears its lowest column while a stored
row has its pivot there, and stores the rest; stored rows are never
touched again. A stored row keeps its pivot coefficient, with the
inverse beside it where that is not 1 (`Echelon.inv`). Reducing a vector
(`Echelon.reduce`) clears all its pivot columns in ascending order. A
stored row has no entry below its pivot, so clearing a pivot only adds
entries at higher columns: the pivots, the rank and each residual are
those of a full elimination, however far the stored rows were reduced.

Kernels and solutions are read off the reduced form, built once by
back-substitution from the highest pivot down and scaled to 1 at each
pivot: there each pivot column occurs in its own row only. A column that
holds no pivot is free, and each free column f gives the kernel vector
e_f - sum_p R_p[f] e_p over the reduced rows R_p. Solving A x = b stores
the rows of [A | b] with b in column ncols, which the lowest-column rule
keeps out of the pivots unless a row reduces to 0 = b_i; each reduced
row's entry in that column is the value of its pivot variable, with
every free variable 0.

Input contract: the scalar convention of the whole program (see
fields). Scalars are plain numbers combined with operators, each result
is reduced once by F.normalize, and a normalized zero is falsy and never
stored. So every vector given to an Echelon holds normalized, nonzero
entries (v != 0 and F.normalize(v) gives v back unchanged), as every
producer makes them: the strand row reader, add_image, matmul, kernel
and the ring element operations. Reducing does not normalize its input
again. It never changes a caller's vector either: insert stores a
vector whose lowest column holds no pivot as itself, reduce returns one
that touches no pivot as itself, and any other is reduced in a copy. So
a vector must not be changed after it was inserted.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Optional

Vec = dict  # {col: scalar}, zero entries absent


def _reduce(vec: Vec, rows: dict[int, Vec], inv: dict[int, object], F) -> Vec:
    """vec minus the multiples of `rows` (pivot col -> row with nothing
    below its pivot; `inv` holds the inverse of each pivot coefficient
    that is not 1) that clear every pivot column of vec: vec itself when
    it has none, else a new dict."""
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
        s = inv.get(c)
        if s is not None:
            a = norm(a * s)
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
                if nv:
                    res[j] = nv
                else:
                    del res[j]
    return res


def _reduce_head(
    vec: Vec, rows: dict[int, Vec], inv: dict[int, object], F
) -> tuple[Optional[int], Vec]:
    """(lowest column, residual) of vec after clearing its lowest column
    with `rows` (as in _reduce) while a row has its pivot there: vec
    itself when none has, and (None, {}) when vec lies in their span."""
    c = min(vec)
    row = rows.get(c)
    if row is None:
        return c, vec
    norm = F.normalize
    res = dict(vec)
    while True:
        a = res.pop(c)
        s = inv.get(c)
        if s is not None:
            a = norm(a * s)
        for j, v in row.items():
            if j == c:
                continue
            old = res.get(j)
            if old is None:
                res[j] = norm(-a * v)
            else:
                nv = norm(old - a * v)
                if nv:
                    res[j] = nv
                else:
                    del res[j]
        if not res:
            return None, res
        c = min(res)
        row = rows.get(c)
        if row is None:
            return c, res


class Echelon:
    """Row echelon form, one row at a time: `rows` maps each pivot column
    to the stored row whose lowest column it is, and `inv` each pivot
    whose coefficient there is not 1 to the inverse of that coefficient."""

    def __init__(self, field):
        self.field = field
        self.rows: dict[int, Vec] = {}
        self.inv: dict[int, object] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: Vec) -> Vec:
        """Residual of vec modulo the stored row span: it holds no pivot
        column, and it is empty exactly when vec lies in the span."""
        return _reduce(vec, self.rows, self.inv, self.field)

    def insert(self, vec: Vec) -> Optional[int]:
        """Add vec to the span. Returns the new pivot column, or None if
        vec was already in the span. vec must hold normalized, nonzero
        entries; it is never changed, but one whose lowest column holds
        no pivot is stored as itself, so the caller must not change it
        afterwards."""
        if not vec:
            return None
        F = self.field
        pick, res = _reduce_head(vec, self.rows, self.inv, F)
        if pick is None:
            return None
        a = res[pick]
        if a != F.one:
            self.inv[pick] = F.inv(a)
        self.rows[pick] = res
        return pick

    def reduced(self) -> dict[int, Vec]:
        """The stored rows made mutually reduced and scaled to 1 at their
        pivots, highest pivot first: each pivot column then occurs in its
        own row only."""
        F = self.field
        norm = F.normalize
        out: dict[int, Vec] = {}
        for p in sorted(self.rows, reverse=True):
            row = _reduce(self.rows[p], out, {}, F)  # out's rows are 1 at their pivots
            s = self.inv.get(p)
            if s is not None:  # rows above p hold nothing at p: its coefficient is as stored
                row = {c: norm(s * v) for c, v in row.items()}
            out[p] = row
        return out

    def kernel(self, free: list[int]) -> list[Vec]:
        """Vectors the stored rows annihilate, one per column f in `free`
        (columns without a pivot): e_f - sum_p R_p[f] e_p over the reduced
        rows R_p. Each is 1 at its own free column and 0 at every other one."""
        F = self.field
        norm = F.normalize
        out = {f: {f: F.one} for f in free}
        for p, row in self.reduced().items():
            for c, v in row.items():
                z = out.get(c)
                if z is not None:
                    z[p] = norm(-v)
        return [out[f] for f in free]


def kernel_rows(rows: Iterable[Vec], ncols: int, field) -> list[Vec]:
    """Basis of {x : A x = 0}, one vector per free column, ascending. A
    has ncols columns and is given by its rows, any iterable of vectors
    (a list, or the strand row reader), read once in order."""
    ech = Echelon(field)
    for row in rows:
        ech.insert(row)
    return ech.kernel([c for c in range(ncols) if c not in ech.rows])


def solve_rows(rows: Iterable[Vec], ncols: int, rhs: Vec, field) -> Optional[Vec]:
    """One x with A x = rhs, or None. A is given by its rows as in
    kernel_rows, and rhs is {row index: value}, rows counted in that
    order."""
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
        if v:
            self.rows[i][j] = v
        else:
            self.rows[i].pop(j, None)

    def mul_vec(self, x: Vec) -> Vec:
        norm = self.field.normalize
        out: Vec = {}
        for i, row in enumerate(self.rows):
            s = 0
            for j, v in row.items():
                xj = x.get(j)
                if xj is not None:
                    s += v * xj
            s = norm(s)
            if s:
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
    norm = a.field.normalize
    out = SparseMatrix(a.nrows, b.ncols, a.field)
    for i, arow in enumerate(a.rows):
        acc: Vec = out.rows[i]
        for k, av in arow.items():
            for j, bv in b.rows[k].items():
                nv = norm(acc.get(j, 0) + av * bv)
                if nv:
                    acc[j] = nv
                else:
                    acc.pop(j, None)
    return out
