"""Helpers that only the tests use: dense matrix conversion, kernels and
solutions of a SparseMatrix, and a homology dimension read from two
ranks with no representatives."""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from idemq.complexes import ColumnIndex, FreeComplex, strand_basis, strand_matrix
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


def kernel_basis(m: SparseMatrix) -> list[Vec]:
    return kernel_rows(m.rows, m.ncols, m.field)


def solve(m: SparseMatrix, rhs: Vec) -> Optional[Vec]:
    return solve_rows(m.rows, m.ncols, rhs, m.field)


def rank_kernel(m: SparseMatrix) -> tuple[int, list[Vec]]:
    """Rank and kernel basis in one call (kernel dim + rank = ncols)."""
    ker = kernel_basis(m)
    return m.ncols - len(ker), ker


def homology_dim(x: FreeComplex, d: int, w: Fraction, provider) -> int:
    sb = strand_basis(x, d, w, provider)
    if not sb.pairs:
        return 0
    cols = ColumnIndex(x)
    out = strand_matrix(x, d, w, provider, cols[d], src=sb)
    inc = strand_matrix(x, d + 1, w, provider, cols[d + 1], dst=sb)
    return len(sb.pairs) - out.rank() - inc.rank()
