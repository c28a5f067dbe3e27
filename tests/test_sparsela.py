import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idemq.fields import GF, QQ
from idemq.sparsela import Echelon, SparseMatrix, kernel_rows, matmul, solve_rows
from oracles import dense_rank, from_dense, kernel_basis, rank_kernel, solve, to_dense

FIELDS = [QQ, GF(7), GF((1 << 31) - 1)]


def test_rank_and_kernel_baseline():
    # hand-checked: [[1,2],[2,4]] has rank 1, kernel spanned by (-2, 1)
    m = from_dense([[1, 2], [2, 4]], QQ)
    assert m.rank() == 1
    ker = kernel_basis(m)
    assert len(ker) == 1
    assert ker[0] == {0: -2, 1: 1}


def test_matmul_shape_mismatch_is_an_internal_fault():
    a = from_dense([[1, 2]], QQ)
    with pytest.raises(AssertionError, match="shape mismatch: 2 vs 1"):
        matmul(a, a)


def test_solve_baseline():
    m = from_dense([[2]], QQ)
    x = solve(m, {0: 3})
    assert x == {0: Fraction(3, 2)}
    # a unit right-hand side beside a non-unit coefficient stays out of the pivots
    assert solve(m, {0: 1}) == {0: Fraction(1, 2)}


def test_solve_inconsistent():
    m = from_dense([[1, 1], [1, 1]], QQ)
    assert solve(m, {0: 1, 1: 2}) is None
    assert solve(m, {0: 1, 1: 1}) is not None


def test_rank_kernel_counts():
    m = from_dense([[1, 2, 3], [4, 5, 6], [7, 8, 9]], QQ)
    rank, ker = rank_kernel(m)
    assert rank == 2
    assert len(ker) == 1
    # kernel vector is killed by the matrix
    assert m.mul_vec(ker[0]) == {}


def test_empty_edges():
    assert SparseMatrix(0, 5, QQ).rank() == 0
    assert kernel_rows([], 3, QQ) == [{0: 1}, {1: 1}, {2: 1}]
    assert SparseMatrix(0, 0, QQ).rank() == 0
    assert solve_rows([], 2, {}, QQ) == {}


def test_fraction_entries():
    m = from_dense(
        [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 2]], QQ
    )
    assert m.rank() == 2
    assert kernel_basis(m) == []
    # row 2 = 3 * row 1: rank drops, kernel is a line
    m2 = from_dense(
        [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1)]], QQ
    )
    assert m2.rank() == 1
    ker = kernel_basis(m2)
    assert len(ker) == 1
    assert m2.mul_vec(ker[0]) == {}


def test_mod_p_rank():
    # [[1,2],[2,4]] mod 3: second row = 2 * first, rank 1
    m = from_dense([[1, 2], [2, 1]], GF(3))
    assert m.rank() == 1
    m = from_dense([[1, 2], [2, 1]], GF(5))
    assert m.rank() == 2
    m = from_dense([[1, 2, 3], [4, 5, 6], [7, 8, 10]], GF(32003))
    assert m.rank() == 3


def test_kernel_mod_p():
    F = GF(7)
    m = from_dense([[1, 2], [2, 4]], F)
    ker = kernel_basis(m)
    assert len(ker) == 1
    assert m.mul_vec(ker[0]) == {}


def _random_int_matrix(rng, nrows, ncols, lo=-4, hi=4):
    return [[rng.randint(lo, hi) for _ in range(ncols)] for _ in range(nrows)]


def test_rank_q_agrees_with_large_prime():
    # over a prime far larger than any minor, ranks of small int matrices agree
    rng = random.Random(11)
    F = GF(32003)
    for _ in range(40):
        data = _random_int_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        mq = from_dense(data, QQ)
        mp = from_dense(data, F)
        assert mq.rank() == mp.rank()


def test_rank_negative_pivot_regression():
    # a fraction-free rank loop once flipped the pivot-row sign when it
    # cross-multiplied against a negative leading entry, and overcounted
    # the rank (got 6, want 4)
    data = [
        {0: -1, 1: 1, 2: 1},
        {0: 1, 2: -1, 3: 1},
        {2: 1, 4: 1},
        {2: -1, 4: -1},
        {1: 1, 3: 1},
        {2: 1, 4: 1},
        {4: -1, 5: 1},
        {4: 1, 5: -1},
        {4: -1, 5: 1},
        {4: 1, 5: -1},
    ]
    for field in FIELDS:
        rows = [{c: field.from_int(v) for c, v in row.items()} for row in data]
        m = SparseMatrix(len(rows), 6, field, rows)
        assert m.rank() == 4 == dense_rank(to_dense(m), field)


def test_rank_q_signed_random_agrees_with_fraction_gauss():
    rng = random.Random(1009)
    for _ in range(200):
        nr, nc = rng.randint(1, 8), rng.randint(1, 8)
        data = [
            [rng.choice([-2, -1, -1, 0, 0, 0, 1, 1, 2]) for _ in range(nc)]
            for _ in range(nr)
        ]
        mq = from_dense(data, QQ)
        assert mq.rank() == dense_rank(data, QQ)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=3),
        min_size=1,
        max_size=5,
    )
)
def test_rank_nullity_property(data):
    m = from_dense(data, QQ)
    rank, ker = rank_kernel(m)
    assert rank + len(ker) == m.ncols
    for v in ker:
        assert m.mul_vec(v) == {}


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([7, (1 << 31) + 11]),
    st.lists(
        st.lists(st.integers(min_value=-20, max_value=20), min_size=4, max_size=4),
        min_size=1,
        max_size=6,
    ),
)
def test_rank_mod_p_matches_augmented_echelon(p, data):
    # the rank counts the echelon's pivots; kernel_rows reads one kernel
    # vector off each free column of its reduced form; the dense rank
    # shares no code with either
    F = GF(p)
    m = from_dense(data, F)
    assert m.rank() == m.ncols - len(kernel_rows(m.rows, m.ncols, F)) == dense_rank(data, F)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(FIELDS),
    st.lists(
        st.lists(st.integers(min_value=-20, max_value=20), min_size=5, max_size=5),
        min_size=1,
        max_size=6,
    ),
)
def test_kernel_rows_are_a_kernel_basis(field, data):
    m = from_dense(data, field)
    ker = kernel_rows(m.rows, m.ncols, field)
    assert len(ker) == m.ncols - dense_rank(data, field)
    for v in ker:
        assert m.mul_vec(v) == {}
    assert dense_rank(to_dense(SparseMatrix(len(ker), m.ncols, field, ker)), field) == len(ker)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(FIELDS),
    st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=2, max_size=4),
        min_size=2,
        max_size=4,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=4),
    st.integers(min_value=0, max_value=3),
)
def test_solve_solutions_check_out(field, data, xs, bump):
    m = from_dense(data, field)
    x = {j: field.from_int(v) for j, v in enumerate(xs[: m.ncols]) if v}
    rhs = m.mul_vec(x)
    got = solve(m, rhs)
    assert got is not None
    assert m.mul_vec(got) == rhs
    # moved off the image in one row: solvable exactly when the dense
    # rank of [A | b] equals the rank of A
    i = bump % m.nrows
    rhs[i] = field.normalize(field.add(rhs.get(i, field.zero), field.one))
    got = solve(m, rhs)
    aug = [row + [rhs.get(r, field.zero)] for r, row in enumerate(to_dense(m))]
    if dense_rank(aug, field) > dense_rank(data, field):
        assert got is None
    else:
        assert got is not None and m.mul_vec(got) == {r: v for r, v in rhs.items() if v}


def test_echelon_membership():
    e = Echelon(QQ)
    assert e.insert({0: 1, 1: 2}) is not None
    assert e.insert({0: 2, 1: 4}) is None
    assert e.rank == 1
    assert not e.reduce({0: 3, 1: 6})
    assert e.reduce({0: 1, 1: 1})


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(FIELDS),
    st.lists(
        st.lists(st.integers(min_value=-5, max_value=5), min_size=5, max_size=5),
        min_size=1,
        max_size=8,
    ),
)
def test_echelon_keeps_rows_under_their_lowest_column(field, data):
    e = Echelon(field)
    seen = []
    for drow in data:
        vec = {c: field.from_int(v) for c, v in enumerate(drow) if field.from_int(v)}
        grows = dense_rank(seen + [drow], field) > dense_rank(seen, field)
        res = e.reduce(vec)
        assert not set(res) & set(e.rows)
        assert (not res) == (not grows)
        pick = e.insert(vec)
        assert (pick is None) == (not grows)
        seen.append(drow)
        for key, row in e.rows.items():
            assert key == min(row) and row[key] == field.one
    assert e.rank == dense_rank(data, field)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
def test_set_normalizes_before_the_zero_test(field):
    m = SparseMatrix(1, 3, field)
    if field.char:
        m.set(0, 0, 7)  # 0 in F_7
        m.set(0, 1, 9)
        assert m.rows[0] == {1: 2}
    else:
        m.set(0, 0, Fraction(0, 3))
        m.set(0, 1, Fraction(4, 2))
        assert m.rows[0] == {1: 2} and type(m.rows[0][1]) is int
    m.set(0, 1, field.zero)
    assert m.rows[0] == {}


def _normalized_rows(field, ncols):
    """Sparse rows with normalized, nonzero entries, as the echelon takes them."""
    if field.char:
        scalar = st.integers(min_value=1, max_value=field.char - 1)
    else:
        scalar = st.builds(
            lambda a, b: field.normalize(Fraction(a, b)),
            st.integers(min_value=-6, max_value=6).filter(bool),
            st.sampled_from([1, 1, 2, 3]),
        )
    row = st.dictionaries(st.integers(min_value=0, max_value=ncols - 1), scalar, max_size=ncols)
    return st.lists(row, max_size=8)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
def test_echelon_on_normalized_rows_leaves_them_untouched(field, data):
    ncols = 6
    rows = data.draw(_normalized_rows(field, ncols))
    before = [dict(r) for r in rows]
    dense = [[r.get(c, 0) for c in range(ncols)] for r in rows]
    rank = dense_rank(dense, field)

    e = Echelon(field)
    for r in rows:
        e.insert(r)
    ker = e.kernel([c for c in range(ncols) if c not in e.rows])
    assert e.rank == rank
    assert len(ker) == ncols - rank
    m = SparseMatrix(len(rows), ncols, field, rows)
    for v in ker:
        assert m.mul_vec(v) == {}
    assert dense_rank(to_dense(SparseMatrix(len(ker), ncols, field, ker)), field) == len(ker)
    assert rows == before
    # colimit_stabilize takes the rank of cached step matrices more than once
    assert m.rank() == rank and m.rank() == rank
    assert m.rows == before
