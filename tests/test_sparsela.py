import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idemq.fields import GF, QQ
from idemq.sparsela import Echelon, SparseMatrix, kernel_rows, matmul, solve_rows
from oracles import (
    dense_rank,
    dense_rref,
    from_dense,
    kernel_basis,
    rank_kernel,
    solve,
    to_dense,
)

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
        rows = [{c: field.normalize(v) for c, v in row.items()} for row in data]
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
    x = {j: field.normalize(v) for j, v in enumerate(xs[: m.ncols]) if v}
    rhs = m.mul_vec(x)
    got = solve(m, rhs)
    assert got is not None
    assert m.mul_vec(got) == rhs
    # moved off the image in one row: solvable exactly when the dense
    # rank of [A | b] equals the rank of A
    i = bump % m.nrows
    rhs[i] = field.normalize(rhs.get(i, 0) + field.one)
    got = solve(m, rhs)
    aug = [row + [rhs.get(r, 0)] for r, row in enumerate(to_dense(m))]
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
        vec = {c: field.normalize(v) for c, v in enumerate(drow) if field.normalize(v)}
        grows = dense_rank(seen + [drow], field) > dense_rank(seen, field)
        res = e.reduce(vec)
        assert not set(res) & set(e.rows)
        assert (not res) == (not grows)
        pick = e.insert(vec)
        assert (pick is None) == (not grows)
        seen.append(drow)
        assert set(e.inv) <= set(e.rows)
        for key, row in e.rows.items():
            # a row keeps its pivot coefficient, its inverse beside it
            # unless it is 1
            s = e.inv.get(key, field.one)
            assert key == min(row) and field.normalize(row[key] * s) == field.one
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
    m.set(0, 1, 0)
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


def _dense(rows, ncols):
    return [[r.get(c, 0) for c in range(ncols)] for r in rows]


def _residual(vec, rref, field):
    """vec less its entry at each pivot times that pivot's row of the
    reduced echelon form rref: no pivot column is left."""
    out = dict(vec)
    for p, row in rref.items():
        a = vec.get(p)  # rref rows are 0 at every other pivot
        if a:
            for c, v in row.items():
                out[c] = field.normalize(out.get(c, 0) - a * v)
    return {c: v for c, v in out.items() if v}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
def test_echelon_contract(field, data):
    # rows stored as reduced only until their lowest column holds no
    # pivot, with no rescaling: after each insert the pivots are those of
    # a dense elimination, and a vector whose lowest column is fresh is
    # stored as itself, also where it touches other pivots; reduce,
    # reduced, kernel and solve_rows give exactly what the dense reduced
    # echelon form gives; no inserted dict is changed
    ncols = 6
    rows = data.draw(_normalized_rows(field, ncols))
    probes = data.draw(_normalized_rows(field, ncols))
    xs = data.draw(st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols))
    before = [dict(r) for r in rows]

    e = Echelon(field)
    for i, r in enumerate(rows):
        fresh = bool(r) and min(r) not in e.rows
        pick = e.insert(r)
        if fresh:
            assert pick == min(r) and e.rows[pick] is r
            assert (pick in e.inv) == (r[pick] != field.one)
        assert set(e.rows) == set(dense_rref(_dense(rows[: i + 1], ncols), field))
    rref = dense_rref(_dense(rows, ncols), field)
    stored = {p: dict(row) for p, row in e.rows.items()}

    red = e.reduced()
    assert list(red) == sorted(rref, reverse=True) and red == rref
    for v in probes:
        assert e.reduce(v) == _residual(v, rref, field)

    free = [c for c in range(ncols) if c not in rref]
    want = [
        {f: field.one, **{p: field.normalize(-row[f]) for p, row in rref.items() if f in row}}
        for f in free
    ]
    assert e.kernel(free) == want

    m = SparseMatrix(len(rows), ncols, field, rows)
    x = {j: field.normalize(v) for j, v in enumerate(xs) if field.normalize(v)}
    rhs = m.mul_vec(x)
    for bump in (False, True):
        if bump and rows:  # moved off the image in one row, perhaps
            rhs[0] = field.normalize(rhs.get(0, 0) + field.one)
            rhs = {i: v for i, v in rhs.items() if v}
        aug = [row + [rhs.get(i, 0)] for i, row in enumerate(_dense(rows, ncols))]
        aug_rref = dense_rref(aug, field)
        solved = None
        if ncols not in aug_rref:
            solved = {p: row[ncols] for p, row in aug_rref.items() if ncols in row}
        assert solve_rows(rows, ncols, rhs, field) == solved
        if not bump:
            assert solved is not None and m.mul_vec(solved) == rhs

    assert rows == before
    assert {p: dict(row) for p, row in e.rows.items()} == stored


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
def test_an_insert_reduces_only_to_a_fresh_lowest_column(field):
    one, two, three = field.one, field.normalize(2), field.normalize(3)
    e = Echelon(field)
    a = {2: one, 3: one}
    assert e.insert(a) == 2 and e.rows[2] is a
    b = {0: one, 1: one, 2: one}  # its lowest column is fresh: stored as is
    assert e.insert(b) == 0 and e.rows[0] is b
    c = {0: one, 1: two, 2: three}  # c - b is {1: 1, 2: 2}: column 1 is fresh
    assert e.insert(c) == 1 and e.rows[1] == {1: one, 2: two}
    assert b == {0: one, 1: one, 2: one} and c == {0: one, 1: two, 2: three}
    rref = dense_rref(_dense([a, b, c], 4), field)
    assert e.reduced() == rref
    assert e.reduce({1: one, 3: one}) == _residual({1: one, 3: one}, rref, field)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
def test_a_vector_with_a_non_unit_pivot_is_stored_as_itself(field):
    two, one = field.normalize(2), field.one
    e = Echelon(field)
    first = {0: one, 2: two}
    assert e.insert(first) == 0 and e.rows[0] is first and 0 not in e.inv
    vec = {1: two, 3: one}
    assert e.insert(vec) == 1 and e.rows[1] is vec
    assert vec == {1: two, 3: one} and e.inv[1] == field.inv(two)
    assert e.reduced()[1] == {1: one, 3: field.inv(two)}
    # a multiple of a stored row reduces to nothing through the inverse
    assert e.reduce({1: field.normalize(6), 3: field.normalize(3)}) == {}
