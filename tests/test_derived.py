from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from idemq import derived
from idemq.fields import GF, QQ
from idemq.complexes import (
    Strands,
    homology_data,
    homology_map_matrix,
    ideal_resolution,
)
from idemq.amitsur import amitsur_crosscheck
from idemq.derived import (
    Bounds,
    ModuleRef,
    Tower,
    default_bounds,
    derived_tensor,
    ideal_module,
    quotient_homotopy,
    quotient_module,
    residue_module,
    resolution_family,
    ring_module,
    static_check,
    tower_report,
)
from idemq.ideals import IdealFamily, check_idempotent, fixed_family, roots_family
from idemq.rings import RingSpec, VarInfo, make_level_ring
from idemq.sparsela import SparseMatrix, matmul
from idemq.specfile import parse_spec
from idemq.derived import STABLE, read_cells
from oracles import (
    amitsur_level,
    amitsur_step,
    check_chain_map,
    check_complex,
    cofibre_cone,
    compose_maps,
    from_dense,
    homology_dim,
    kunneth_quotient,
    mono,
    quotient_by_levels,
    quotient_by_tower,
    settled,
    reduced_resolution,
    static_check_by_levels,
    static_check_by_tower,
    taylor_betti,
    to_dense,
    variable_blocks,
)

F0 = Fraction(0)
F1 = Fraction(1)


def _spec_t(trunc=True):
    """K[t^(1/2^l)], optionally cut at t^1."""
    return RingSpec(
        field=QQ,
        root_base=2,
        variables=(VarInfo("t", True),),
        truncations=(((F1,),) if trunc else ()),
    )


def _spec_xy(trunc=True):
    truncs = ((F1, F0), (F0, F1)) if trunc else ()
    return RingSpec(
        field=QQ,
        root_base=2,
        variables=(VarInfo("x", True), VarInfo("y", True)),
        truncations=truncs,
    )


def _roots_xy(spec, name="I"):
    return IdealFamily(name=name, spec=spec, root_vars=(0, 1))


# ---------- stabilization detector ----------


def _m(data):
    return from_dense(data, QQ)


def _stabilize(levels, dims, steps, window, first_rep):
    """The detector on the whole homology; spanning it by identity
    columns must give the same answer."""
    got = derived.colimit_stabilize(levels, dims, steps, window, first_rep)
    spans = [SparseMatrix(n, n, QQ, [{i: QQ.one} for i in range(n)]) for n in dims]
    assert derived.colimit_stabilize(levels, dims, steps, window, first_rep, spans) == got
    return got


def test_stabilize_constant_tower():
    ident = _m([[1]])
    value, stable = _stabilize(
        [0, 1, 2, 3], [1, 1, 1, 1], [ident, ident, ident], 2, 0
    )
    assert (value, stable) == (1, True)


def test_stabilize_transient_certifies_zero():
    # class alive at levels 0-1 then gone: eventual image is 0
    steps = [_m([[1]]), SparseMatrix(0, 1, QQ), SparseMatrix(0, 0, QQ)]
    value, stable = _stabilize([0, 1, 2, 3], [1, 1, 0, 0], steps, 2, 0)
    assert (value, stable) == (0, True)


def test_stabilize_nilpotent_steps_are_not_stable():
    # each step has rank 1 but the composite dies: dims alone lie here
    n = _m([[0, 1], [0, 0]])
    value, stable = _stabilize([0, 1, 2], [2, 2, 2], [n, n], 2, 0)
    assert stable is False


def test_stabilize_late_birth_needs_window_past_birth():
    # class born at level 2 with weight representable from level 0: the
    # tower must run a full window past the birth before certifying
    steps3 = [SparseMatrix(0, 0, QQ), SparseMatrix(1, 0, QQ), _m([[1]])]
    value, stable = _stabilize([0, 1, 2, 3], [0, 0, 1, 1], steps3, 2, 0)
    assert stable is False
    steps4 = steps3 + [_m([[1]])]
    value, stable = _stabilize(
        [0, 1, 2, 3, 4], [0, 0, 1, 1, 1], steps4, 2, 0
    )
    assert (value, stable) == (1, True)
    # born exactly at the representability level: an ordinary newborn,
    # judged by the tail window alone
    value, stable = _stabilize([0, 1, 2, 3], [0, 0, 1, 1], steps3, 2, 2)
    assert stable is False  # only one step since birth carries rank


def test_stabilize_late_birth_death_witness():
    # a late class that already died certifies zero without the extra wait
    steps = [SparseMatrix(0, 0, QQ), SparseMatrix(1, 0, QQ), SparseMatrix(0, 1, QQ)]
    value, stable = _stabilize([0, 1, 2, 3], [0, 0, 1, 0], steps, 2, 0)
    assert (value, stable) == (0, True)


def test_stabilize_needs_window_many_steps():
    value, stable = _stabilize([0, 1], [1, 1], [_m([[1]])], 2, 0)
    assert stable is False


def _image_stabilize(levels, bs, ts, window, first_rep):
    # reference for spans: the subspace detector written out on its own,
    # with every step rank computed up front
    dims = [b.rank() for b in bs]
    if len(ts) < window:
        return (dims[-1] if dims else 0, False)
    sranks = [matmul(ts[k], bs[k]).rank() for k in range(len(ts))]
    alive = [k for k, v in enumerate(dims) if v]
    if alive:
        born_idx = alive[0]
        born = levels[born_idx]
        if born > max(first_rep, levels[0]) and levels[-1] < born + window:
            died = dims[-1] == 0 and all(r == 0 for r in sranks[born_idx:])
            if not died:
                return (dims[-1], False)
    tail = ts[-window:]
    comp = tail[0]
    for m in tail[1:]:
        comp = matmul(m, comp)
    crank = matmul(comp, bs[len(ts) - window]).rank()
    stable = all(r == crank for r in sranks[len(ts) - window :])
    return (crank, stable)


@st.composite
def _span_towers(draw):
    """A tower of at most 5 levels: homology dims, transition matrices
    between them and spanning columns at each level, entries sparse."""
    field = draw(st.sampled_from([QQ, GF(7)]))

    def mat(nrows, ncols):
        m = SparseMatrix(nrows, ncols, field)
        for i in range(nrows):
            for j in range(ncols):
                v = draw(st.sampled_from([0, 0, 1, -1, 2]))
                if v:
                    m.rows[i][j] = field.normalize(v)
        return m

    K = draw(st.integers(1, 5))
    l0 = draw(st.integers(0, 2))
    hs = [draw(st.integers(0, 3)) for _ in range(K)]
    bs = [mat(h, draw(st.integers(0, 3))) for h in hs]
    ts = [mat(hs[k + 1], hs[k]) for k in range(K - 1)]
    window = draw(st.integers(1, 3))
    first_rep = draw(st.integers(0, l0 + K))
    return list(range(l0, l0 + K)), bs, ts, window, first_rep


# a late class that dies while its step is nonzero off the span: only
# the ranks on the spans see the death
_DIES_ON_THE_SPAN = (
    [0, 1, 2, 3],
    [SparseMatrix(0, 0, QQ), SparseMatrix(0, 0, QQ), _m([[1], [0]]), _m([[0]])],
    [SparseMatrix(0, 0, QQ), SparseMatrix(2, 0, QQ), _m([[0, 1]])],
    2,
    0,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_span_towers())
@example(_DIES_ON_THE_SPAN)
def test_stabilize_on_spans_matches_the_subspace_reference(tower):
    levels, bs, ts, window, first_rep = tower
    dims = [b.rank() for b in bs]
    got = derived.colimit_stabilize(levels, dims, ts, window, first_rep, bs)
    assert got == _image_stabilize(levels, bs, ts, window, first_rep)


def test_settle_raises_the_top_until_settled():
    seen = []

    def attempt(levels, lazy):
        seen.append((levels, lazy))
        return levels[-1], levels[-1] >= 5

    # starts one window above l0 and stops at the first settled top; every
    # attempt below the cap is lazy
    assert derived.settle(1, 2, 7, attempt) == 5
    assert seen == [([1, 2, 3], True), ([1, 2, 3, 4], True), ([1, 2, 3, 4, 5], True)]
    seen.clear()
    assert derived.settle(4, 2, 9, attempt) == 6
    assert seen == [([4, 5, 6], True)]
    # an attempt that settles at the cap is the one attempt there
    seen.clear()
    assert derived.settle(1, 2, 5, attempt) == 5
    assert seen == [([1, 2, 3], True), ([1, 2, 3, 4], True), ([1, 2, 3, 4, 5], False)]


def test_settle_stops_at_the_cap():
    seen = []

    def attempt(levels, lazy):
        seen.append((levels, lazy))
        return levels[-1], False

    assert derived.settle(1, 2, 4, attempt) == 4
    assert seen == [([1, 2, 3], True), ([1, 2, 3, 4], False)]
    # a cap below l0 + window is where the first attempt starts, and it
    # is the cap: the attempt is not lazy
    seen.clear()
    assert derived.settle(1, 2, 2, attempt) == 2
    assert seen == [([1, 2], False)]
    with pytest.raises(ValueError, match="above the level cap 2"):
        derived.settle(3, 2, 2, attempt)


def _tor_i_rj():
    # Tor(I, R/J) on the plain t spec: H_0 gains classes at the new finest
    # weights of every level, so no top below the cap settles
    spec = _spec_t(trunc=False)
    I = roots_family(spec, "t")
    J = fixed_family(spec, [mono(spec, t=1)], name="J")
    return resolution_family(spec, ideal_module(I), 2, F1, against=quotient_module(J))


def test_a_lazy_walk_is_abandoned_at_its_first_stopping_cell():
    tor = _tor_i_rj()
    full = tor.diagram([1, 2, 3]).run(range(2), F1, 2)
    # the walk's order: degrees from the top down, weights ascending
    order = sorted(full, key=lambda c: (-c[0], c[1]))
    first = next(i for i, c in enumerate(order) if full[c].state != STABLE)
    assert 0 < first < len(order) - 1
    seen = []

    def stop(r):
        seen.append(r)
        return r.state != STABLE

    with pytest.raises(derived._Unsettled):
        tor.diagram([1, 2, 3]).run(range(2), F1, 2, stop)
    assert seen == [full[c] for c in order[: first + 1]]


def test_settle_never_abandons_the_attempt_at_the_cap():
    # a stop test that holds on every cell abandons each lazy attempt at
    # its first cell; the attempt at the cap walks in full all the same
    tor = _tor_i_rj()
    tops = []

    def attempt(levels, lazy):
        tops.append((levels[-1], lazy))
        raw = tor.diagram(levels).run(range(2), F1, 2, (lambda r: True) if lazy else None)
        return raw, True

    raw = derived.settle(1, 2, 5, attempt)
    assert tops == [(3, True), (4, True), (5, False)]
    assert raw == _tor_i_rj().diagram([1, 2, 3, 4, 5]).run(range(2), F1, 2)
    assert any(r.state != STABLE for r in raw.values())


# ---------- quotient homotopy, one variable ----------


def test_quotient_homotopy_one_var_truncated():
    spec = _spec_t()
    I = roots_family(spec, "t")
    # base change builds no derived power; the tower oracle reads cone(eps_{d+2})
    for route, n_used in ((quotient_homotopy, ()), (quotient_by_tower, (2, 3, 4))):
        qh = route(spec, I, 2)
        assert qh.dims == (1, 1, 0)
        assert settled(qh.table)
        assert qh.top_level <= 4
        assert qh.n_used == n_used
        cells = qh.table.cells
        assert cells[(0, F0)].value == 1
        assert cells[(1, F1)].value == 1


def test_quotient_homotopy_untruncated_is_residue_field():
    spec = _spec_t(trunc=False)
    I = roots_family(spec, "t")
    qh = quotient_homotopy(spec, I, 2)
    assert qh.dims == (1, 0, 0)
    assert settled(qh.table)
    assert qh.table.stable_cells_at(0) == {F0: 1}
    assert qh.table.stable_cells_at(1) == {}


XY = "var x divisible\nvar y divisible\n"
TAYLOR_SPECS = {
    "t": ("var t divisible\ntruncate t\nideal I = roots(t)", 2),
    "t2": ("var t divisible\ntruncate t^2\nideal I = roots(t)", 2),
    "xy-f7": ("field Fp 7\n" + XY + "truncate x y\nideal I = roots(x), roots(y)", 2),
    "xy-f2": ("field Fp 2\n" + XY + "truncate x^2 y, x y^2\nideal I = roots(x), roots(y)", 2),
    "xyz": (
        XY + "var z divisible\ntruncate x y z\nideal I = roots(x), roots(y), roots(z)",
        1,
    ),
}


@pytest.mark.parametrize(
    "text,N,route",
    [(text, N, quotient_homotopy) for text, N in TAYLOR_SPECS.values()]
    + [(text, N, quotient_by_tower) for text, N in TAYLOR_SPECS.values()],
    ids=[*TAYLOR_SPECS, *(key + "-tensor" for key in TAYLOR_SPECS)],
)
def test_quotient_homotopy_is_the_taylor_betti_numbers_of_the_truncation(text, N, route):
    # I holds roots of every variable, so A/I = K over the untruncated
    # algebra A, and base change gives pi_d(R/I^infty) = Tor^A_d(K, A/T):
    # 1 at (0, 0), and beta_{i,b}(T) at degree i + 1, weight |b|. The
    # Taylor complex shares no code with either route: quotient_homotopy
    # takes base change, the oracle the tower of derived powers
    ps = parse_spec(text)
    qh = route(ps.ring, ps.ideals["I"], N)
    assert settled(qh.table)
    want = {(0, F0): 1}
    for (i, b), dim in taylor_betti(list(ps.ring.truncations), ps.ring.field).items():
        if i + 1 <= N:
            key = (i + 1, sum(b))
            want[key] = want.get(key, 0) + dim
    got = {k: c.value for k, c in qh.table.cells.items() if c.state == STABLE and c.value}
    assert got == want


def test_static_check_untruncated_vs_truncated():
    untrunc = _spec_t(trunc=False)
    sc = static_check(untrunc, roots_family(untrunc, "t"), 2)
    assert sc.static is True
    assert sc.witness is None
    trunc = _spec_t()
    sc = static_check(trunc, roots_family(trunc, "t"), 2)
    assert sc.static is False
    assert sc.witness == (1, F1)
    # Tor_d^A(K, A) = 0 for d >= 1: a definite answer, where cone(sigma_1)
    # leaves cells unstable at the level cap
    xy = _spec_xy(trunc=False)
    sc = static_check(xy, _roots_xy(xy), 2)
    assert sc.static is True
    assert sc.witness is None


# spec text for the static check at N = 1 on base change and on the tower
STATIC_SPECS = {
    "t": TAYLOR_SPECS["t"][0],
    "t2": TAYLOR_SPECS["t2"][0],
    "root-base-3": "root_base 3\nvar t divisible\ntruncate t^2\nideal I = roots(t)",
    "x-plain": "var x\nvar t divisible\ntruncate x^2, t\nideal I = roots(t)",
    "roots-x": XY + "truncate x y\nideal I = roots(x)",
    "xy-f7": TAYLOR_SPECS["xy-f7"][0],
    "x2-y": XY + "truncate x^2, y\nideal I = roots(x), roots(y)",
    "xy-f2": TAYLOR_SPECS["xy-f2"][0],
}


@pytest.mark.parametrize("text", STATIC_SPECS.values(), ids=STATIC_SPECS.keys())
def test_static_check_agrees_with_the_tower(text):
    # base change reads Tor in degrees >= 1, the oracle cone(sigma_1);
    # they vanish below the same degree and agree there cell by cell
    ps = parse_spec(text)
    I = ps.ideals["I"]
    ours, tower = static_check(ps.ring, I, 1), static_check_by_tower(ps.ring, I, 1)
    assert (ours.static, ours.witness) == (tower.static, tower.witness)


# every divisible variable is a root variable (S^c empty), so base change
# descends to level 0; the field line, if any, is replaced per case
DESCENT_SPECS = {
    **{key: text for key, (text, _N) in TAYLOR_SPECS.items()},
    **{key: text for key, text in STATIC_SPECS.items() if key != "roots-x"},
    "zero-plain": "var x\nvar y\ntruncate x^2, x y, y^3\nideal I = x^2",
}


def _over(text: str, field: str) -> str:
    lines = [line for line in text.split("\n") if not line.startswith("field ")]
    return "\n".join([f"field {field}", *lines])


@pytest.mark.parametrize("field", ["Q", "Fp 3"])
@pytest.mark.parametrize("key", list(DESCENT_SPECS))
def test_descent_reads_the_level_loop_table(key, field):
    # Tor^A(K_S, R) = Tor^{A_0}(A_0/(x_S), R_0): the level-0 homology is the
    # colimit the level loop settles, cell for cell, and the static check
    # reads the same verdict and witness off it
    ps = parse_spec(_over(DESCENT_SPECS[key], field))
    I = ps.ideals["I"]
    for N in range(4):
        ours, loop = quotient_homotopy(ps.ring, I, N), quotient_by_levels(ps.ring, I, N)
        assert settled(loop.table) and settled(ours.table)
        # descent's cells carry no level dims
        assert {k: c.value for k, c in ours.table.cells.items()} == {
            k: c.value for k, c in loop.table.cells.items()
        }
        assert ours.dims == loop.dims
        assert ours.top_level == 0 and ours.table.levels == (0,)
        if N:
            sc, sc_loop = static_check(ps.ring, I, N), static_check_by_levels(ps.ring, I, N)
            assert (sc.static, sc.witness) == (sc_loop.static, sc_loop.witness)
            assert sc.levels == (0,)


def test_descent_lifts_nothing_and_reads_level_zero_only(monkeypatch):
    # no transition, no lift and no colimit detector: one level-0 read
    levels = set()
    real_ring = derived.make_level_ring

    def ring(spec, l):
        levels.add(l)
        return real_ring(spec, l)

    def refused(*args, **kwargs):
        raise AssertionError("descent reached the level loop")

    monkeypatch.setattr(derived, "make_level_ring", ring)
    for name in ("lift_chain_map", "colimit_stabilize", "homology_map_matrix", "settle"):
        monkeypatch.setattr(derived, name, refused)
    ps = parse_spec(TAYLOR_SPECS["xy-f7"][0])
    qh = quotient_homotopy(ps.ring, ps.ideals["I"], 3)
    assert settled(qh.table) and qh.top_level == 0
    assert static_check(ps.ring, ps.ideals["I"], 3).levels == (0,)
    assert levels == {0}


def test_quotient_homotopy_unit_ideal_vanishes():
    spec = _spec_t()
    U = fixed_family(spec, [mono(spec)], name="U")
    qh = quotient_homotopy(spec, U, 2)
    assert qh.dims == (0, 0, 0)
    assert settled(qh.table)
    assert qh.table.cells == {}
    assert any("unit" in n for n in qh.notes)


def test_zero_ideal_degenerate_paths():
    spec = _spec_t()
    Z = IdealFamily(name="Z", spec=spec)
    x2 = Tower(spec, Z, 3, Fraction(2)).X(2).at(1)
    assert all(x2.rank(d) == 0 for d in range(4))
    sc = static_check(spec, Z, 1, Bounds(F1, 3, 2))
    assert sc.static is True


def test_quotient_homotopy_rejects_non_idempotent():
    spec = _spec_t(trunc=False)
    J = fixed_family(spec, [mono(spec, t=F1)], name="J")
    with pytest.raises(ValueError, match="not idempotent"):
        quotient_homotopy(spec, J, 1)


# ---------- quotient homotopy, two variables ----------


def test_variable_blocks_split_and_merge():
    spec = _spec_xy()
    I = _roots_xy(spec)
    assert variable_blocks(spec, I) == [[0], [1]]
    # a mixed generator ties the variables together
    spec2 = _spec_xy(trunc=False)
    J = fixed_family(spec2, [mono(spec2, x=F1, y=F1)])
    assert variable_blocks(spec2, J) == [[0, 1]]


def test_quotient_homotopy_two_var_factors():
    # the tensor route on each of the blocks x | y, recombined by Kunneth:
    # the square of (1, 1, 0), dims (1, 2, 1), is what base change reads
    spec = _spec_xy()
    I = _roots_xy(spec)
    table, blocks = kunneth_quotient(spec, I, 2, default_bounds(2))
    assert blocks == [[0], [1]]
    assert table.dims() == (1, 2, 1) and settled(table)
    assert table.stable_cells_at(1) == {F1: 2}
    assert table.stable_cells_at(2) == {Fraction(2): 1}
    qh = quotient_homotopy(spec, I, 2)
    assert settled(qh.table) and qh.dims == table.dims()
    for d in range(3):
        assert qh.table.stable_cells_at(d) == table.stable_cells_at(d)


def test_quotient_homotopy_direct_route_agrees():
    # base change, the direct tensor route and Kunneth over the blocks
    # x | y give the same stable cells
    spec = _spec_xy()
    I = _roots_xy(spec)
    bounds = Bounds(Fraction(2), 4, 2)
    base_change = quotient_homotopy(spec, I, 1, bounds)
    direct = quotient_by_tower(spec, I, 1, bounds)
    viablocks, _ = kunneth_quotient(spec, I, 1, bounds)
    assert base_change.n_used == () and direct.n_used == (2, 3)
    assert direct.dims == viablocks.dims() == base_change.dims == (1, 2)
    for d in range(2):
        cells = direct.table.stable_cells_at(d)
        assert cells == viablocks.stable_cells_at(d) == base_change.table.stable_cells_at(d)


# spec text, N: base change exits 0 on each, the tensor route exits 3 on
# root_base 3; the tensor route runs at N <= 2, where the two split specs
# already hold every nonzero cell (it takes 2.5 s each at N = 3)
ROUTE_SPECS = {
    "t2": ("var t divisible\ntruncate t^2\nideal I = roots(t)", 2),
    "x2-y": (XY + "truncate x^2, y\nideal I = roots(x), roots(y)", 3),
    "x-y2": (XY + "truncate x, y^2\nideal I = roots(x), roots(y)", 3),
    "xy-f2": (TAYLOR_SPECS["xy-f2"][0], 2),
    "root-base-3": ("root_base 3\nvar t divisible\ntruncate t^2\nideal I = roots(t)", 2),
    "x-plain": ("var x\nvar t divisible\ntruncate x^2, t\nideal I = roots(t)", 2),
}


def _stable_values(qh, deg_max):
    # (d, w) -> dim, or None when unstable; a cell the table leaves out is
    # stable zero
    return {
        (d, w): c.value if c.state == STABLE else None
        for (d, w), c in qh.table.cells.items()
        if d <= deg_max
    }


@pytest.mark.parametrize("text,N", ROUTE_SPECS.values(), ids=ROUTE_SPECS.keys())
def test_quotient_homotopy_routes_agree_on_stable_cells(text, N):
    ps = parse_spec(text)
    I = ps.ideals["I"]
    base_change = quotient_homotopy(ps.ring, I, N)
    assert settled(base_change.table)
    D = min(N, 2)
    tensor = _stable_values(quotient_by_tower(ps.ring, I, D), D)
    ours = _stable_values(base_change, D)
    for key in tensor.keys() | ours.keys():
        a, b = tensor.get(key, 0), ours.get(key, 0)
        assert a is None or a == b, key


def test_quotient_homotopy_routes_on_the_ideal_not_its_generators():
    spec = _spec_xy()
    qh = quotient_homotopy(spec, _roots_xy(spec), 2)
    assert qh.n_used == ()
    # x and y are both root variables: base change descends to level 0
    assert qh.notes == [
        "base change by descent: Tor^A(A/I_A, R) = Tor^{A_0}(A_0/(x_S), R_0), read at level 0"
    ]
    # x^{1/2} lies in the ideal roots(x), roots(y) generate, so adding it
    # changes neither the ideal nor the report
    x_half = IdealFamily(
        name="I", spec=spec, root_vars=(0, 1), gens=(mono(spec, x=Fraction(1, 2)),)
    )
    assert check_idempotent(x_half)
    assert quotient_homotopy(spec, x_half, 2) == qh
    # the tower oracle builds one derived power per degree
    direct = quotient_by_tower(spec, x_half, 2)
    assert direct.n_used == (2, 3, 4) and direct.notes == []
    # the zero ideal has no roots: base change reads K_S = A on the level
    # loop, and its table is the tower's
    zero = fixed_family(spec, [mono(spec, x=F1)], name="Z")
    zero_qh = quotient_homotopy(spec, zero, 1)
    assert zero_qh.n_used == ()
    assert zero_qh.notes == ["base change: Tor^A(A/I_A, R) over the untruncated algebra A"]
    assert zero_qh.table == quotient_by_tower(spec, zero, 1).table


# ---------- derived powers and the multiplication kernel ----------


def test_derived_power_h0_is_ideal_square():
    # I = (t^(1/4)) in K[t^(1/4)]/t: I (x) I has one basis element
    # t^(k/4) g (x) g per weight 1/2 + k/4 until t^(k/4) g dies in I
    spec = _spec_t()
    I = roots_family(spec, "t")
    x2 = Tower(spec, I, 3, Fraction(2)).X(2).at(2)
    ring_prov = Strands(make_level_ring(spec, 2))
    got = {
        w: homology_dim(x2, 0, w, ring_prov)
        for w in (Fraction(1, 2), Fraction(3, 4), F1, Fraction(5, 4))
    }
    assert got == {Fraction(1, 2): 1, Fraction(3, 4): 1, F1: 1, Fraction(5, 4): 0}


def test_unit_entry_in_a_tensor_power_is_an_internal_fault(monkeypatch):
    spec = _spec_t()
    I = roots_family(spec, "t")
    real = derived.tensor_complexes

    def with_unit_entry(a, b, dmax=None, wmax=None):
        t, info = real(a, b, dmax, wmax)
        cols = t.diff[min(t.diff)]
        j = next(j for j, col in enumerate(cols) if col)
        (i, _elem), *rest = cols[j]
        cols[j] = ((i, t.ring.one()), *rest)
        return t, info

    monkeypatch.setattr(derived, "tensor_complexes", with_unit_entry)
    tw = Tower(spec, I, 3, Fraction(2))
    assert tw.X(1).at(1).total_rank() > 0
    with pytest.raises(AssertionError, match="unit entry"):
        tw.X(2).at(1)


def test_multiplication_kernel_weight_one():
    # ker(I (x) I -> I) at weight 1 is the one-dimensional class feeding
    # the degree-1 homotopy of the truncated quotient
    spec = _spec_t()
    I = roots_family(spec, "t")
    tw = Tower(spec, I, 3, Fraction(2))
    for l in (1, 2, 3):
        ring = make_level_ring(spec, l)
        prov, n = Strands(ring), ring.num(F1)
        h_src = homology_data(tw.X(2).at(l), 0, n, prov)
        h_dst = homology_data(tw.X(1).at(l), 0, n, prov)
        assert h_src.dim == 1
        assert h_dst.dim == 0  # t^1 already dies in I
    raw = cofibre_cone(tw, 1).diagram([1, 2, 3, 4]).run([1], Fraction(3, 2), 2)
    r = raw[(1, F1)]
    assert r.state == STABLE and r.value == 1


def test_sigma_compatible_with_multiplication():
    # eps_n . (id (x) eps_1) = eps_{n+1}
    spec = _spec_t()
    I = roots_family(spec, "t")
    tw = Tower(spec, I, 3, Fraction(2))
    for n, l in ((1, 1), (2, 1), (1, 2)):
        check_chain_map(tw.sigma(n).at(l))
        lhs = compose_maps(tw.eps(n).at(l), tw.sigma(n).at(l))
        want = {d: cols for d, cols in tw.eps(n + 1).at(l).entries.items() if any(cols)}
        assert lhs.entries == want


def test_tower_transition_maps_are_chain_maps():
    spec = _spec_t()
    I = roots_family(spec, "t")
    tw = Tower(spec, I, 3, Fraction(2))
    check_chain_map(tw.X(2).step(1))
    check_chain_map(tw.Q(2).step(1))
    check_chain_map(cofibre_cone(tw, 1).step(1))


# ---------- derived tensors ----------


def test_tor_ideal_against_residue_periodic():
    # I over K[t^(1/2^l)]/t: Tor_odd(I, K) is one class at weights 1, 2;
    # Tor_0 lives at the moving weight 1/2^l, zero against any fixed one
    spec = _spec_t()
    I = roots_family(spec, "t")
    table = derived_tensor(spec, ideal_module(I), residue_module(), 3, Bounds(Fraction(5, 2)))
    assert table.dims() == (0, 1, 0, 1)
    assert table.stable_cells_at(0) == {}
    assert table.stable_cells_at(1) == {F1: 1}
    assert table.stable_cells_at(3) == {Fraction(2): 1}


def test_tor_is_balanced():
    # resolving the other side gives the same stable table
    spec = _spec_t()
    I = roots_family(spec, "t")
    left = derived_tensor(spec, ideal_module(I), residue_module(), 2, Bounds(Fraction(2)))
    right = derived_tensor(spec, residue_module(), ideal_module(I), 2, Bounds(Fraction(2)))
    for d in range(3):
        assert left.stable_cells_at(d) == right.stable_cells_at(d)


def test_tor_roots_against_fixed_quotient():
    # untruncated pair: Tor_1(I, R/(x, y)) is one class at weight 2,
    # nothing above (choose(2, i+1) in degree i)
    spec = _spec_xy(trunc=False)
    I = _roots_xy(spec)
    J = fixed_family(
        spec,
        [mono(spec, x=F1), mono(spec, y=F1)],
        name="J",
    )
    table = derived_tensor(
        spec, ideal_module(I), quotient_module(J), 3, Bounds(Fraction(3)), deg_min=1
    )
    assert [sum(table.stable_cells_at(d).values()) for d in (1, 2, 3)] == [1, 0, 0]
    assert table.stable_cells_at(1) == {Fraction(2): 1}


def test_tor_residue_against_fixed_quotient_is_koszul():
    # K (x)^L R/(x, y) on two untruncated variables: dims choose(2, i)
    # concentrated in weight i
    spec = _spec_xy(trunc=False)
    I = _roots_xy(spec)
    J = fixed_family(
        spec,
        [mono(spec, x=F1), mono(spec, y=F1)],
        name="J",
    )
    table = derived_tensor(spec, residue_module(), quotient_module(J), 3, Bounds(Fraction(3)))
    assert table.dims() == (1, 2, 1, 0)
    assert table.stable_cells_at(1) == {F1: 2}
    assert table.stable_cells_at(2) == {Fraction(2): 1}


def _symmetry_modules(trunc):
    """R, K, I = roots(t), the unit ideal U and, untruncated, J = (t), each
    ideal also as its quotient."""
    spec = _spec_t(trunc)
    ideals = [roots_family(spec, "t"), fixed_family(spec, [mono(spec)], name="U")]
    if not trunc:
        ideals.insert(1, fixed_family(spec, [mono(spec, t=F1)], name="J"))
    mods = [ring_module(), residue_module()]
    for fam in ideals:
        mods += [ideal_module(fam), quotient_module(fam)]
    return spec, mods


@pytest.mark.parametrize("trunc", [True, False], ids=["t", "t-plain"])
def test_tor_is_symmetric(trunc):
    # Tor(M, N) = Tor(N, M): resolving either side must give the same
    # value on every cell that both runs call stable (a missing cell is a
    # stable zero)
    spec, mods = _symmetry_modules(trunc)
    tables = {
        (a, b): derived_tensor(spec, a, b, 1, Bounds(Fraction(3, 2), max_level=4)).cells
        for a in mods
        for b in mods
        if a != b
    }
    differ = []
    for i, a in enumerate(mods):
        for b in mods[i + 1:]:
            ab, ba = tables[(a, b)], tables[(b, a)]
            for key in set(ab) | set(ba):
                x, y = ab.get(key), ba.get(key)
                if (x is None or x.state == STABLE) and (y is None or y.state == STABLE):
                    if (x.value if x else 0) != (y.value if y else 0):
                        differ.append((a.label, b.label, key))
    assert len(mods) * (len(mods) - 1) // 2 == (15 if trunc else 28)
    assert differ == []


def test_tor_against_the_unit_ideal_is_tor_against_r():
    # U = R as modules, so Tor(K, U) = Tor(K, R) = K in degree 0, weight 0
    spec, _ = _symmetry_modules(True)
    U = fixed_family(spec, [mono(spec)], name="U")
    via_u = derived_tensor(spec, residue_module(), ideal_module(U), 1, Bounds(Fraction(3, 2)))
    via_r = derived_tensor(spec, residue_module(), ring_module(), 1, Bounds(Fraction(3, 2)))
    assert via_u.cells == via_r.cells and list(via_r.cells) == [(0, F0)]
    assert via_r.cells[(0, F0)].value == 1 and via_r.cells[(0, F0)].state == STABLE


def test_tor_transitions_compose():
    spec = _spec_t()
    I = roots_family(spec, "t")
    tor = resolution_family(spec, ideal_module(I), 4, Fraction(2), against=residue_module())
    diag = tor.diagram([1, 2, 3])
    two_levels = compose_maps(tor.step(2), tor.step(1))
    for d, w in ((1, F1), (3, Fraction(2))):
        ns = [x.ring.num(w) for x in diag.complexes]
        assert diag.homology(0, d, ns[0]).dim > 0
        one = matmul(diag.step_matrix(1, d, ns), diag.step_matrix(0, d, ns))
        two = homology_map_matrix(
            two_levels, d, diag.homology(0, d, ns[0]), diag.homology(2, d, ns[2])
        )
        assert to_dense(one) == to_dense(two)


def test_unknown_module_kind_is_an_internal_fault():
    spec = _spec_t()
    ring = make_level_ring(spec, 1)
    bogus = ModuleRef("bogus")
    with pytest.raises(AssertionError, match="unknown module kind 'bogus'"):
        derived.module_strands(bogus, ring)
    with pytest.raises(AssertionError, match="unknown module kind 'bogus'"):
        resolution_family(spec, bogus, 2, F1).at(1)


def test_reduced_resolution_of_a_non_cyclic_resolution_is_an_internal_fault():
    # res(R/I) starts at the unit generator; res(I) starts at I's generators
    ring = make_level_ring(_spec_t(), 1)
    res = ideal_resolution(ring, [ring.pack((1,))], 2, F1)
    with pytest.raises(AssertionError, match="not cyclic on a unit generator"):
        reduced_resolution(res)


# ---------- tower report ----------


def test_tower_report_one_var():
    spec = _spec_t()
    I = roots_family(spec, "t")
    rep = tower_report(spec, I, 3, Bounds(Fraction(2), 5, 2))
    assert rep.ok
    assert rep.connectivity_failures == []
    assert rep.h0_mismatches == []
    assert rep.h0_cells_checked > 0
    # every undetermined cell is in flight
    assert not read_cells({**rep.cofibres, **rep.powers}, flight_blocks=False).blocking


# spec -> (text, top level, weight cap) of the cofibre routes' comparison
TOWER_SPECS = {
    "t": ("var t divisible\ntruncate t\nideal I = roots(t)", 4, Fraction(2)),
    "t2": ("var t divisible\ntruncate t^2\nideal I = roots(t)", 4, Fraction(2)),
    "t3": ("var t divisible\ntruncate t^3\nideal I = roots(t), t^2", 4, Fraction(2)),
    "root-base-3": (
        "root_base 3\nvar t divisible\ntruncate t\nideal I = roots(t)", 4, Fraction(2)
    ),
    "s-plain": ("var s\nvar t divisible\ntruncate s^2, t\nideal I = roots(t)", 4, Fraction(2)),
    "xy": (XY + "truncate x y\nideal I = roots(x), roots(y)", 3, Fraction(3, 2)),
    "roots-x": (XY + "truncate x y\nideal I = roots(x)", 3, Fraction(2)),
    "roots-y": (XY + "truncate x^2, x y\nideal I = roots(y)", 3, Fraction(2)),
    "unit": ("var t divisible\ntruncate t\nideal I = 1", 4, Fraction(2)),
}


def _level_cells(family, levels, degrees, wmax):
    """(d, top-level weight) -> (dims per level, step ranks) of every cell
    that is nonzero at some level."""
    diagram, cells = family.diagram(levels), {}

    def track(d, ns):
        dims = [diagram.homology(k, d, n).dim for k, n in enumerate(ns)]
        if any(dims):
            ranks = [diagram.step_matrix(k, d, ns).rank() for k in range(len(ns) - 1)]
            cells[(d, ns[-1])] = (dims, ranks)

    diagram.walk(degrees, wmax, 2, track)
    return cells


@pytest.mark.parametrize("field", ["Q", "Fp 7"])
@pytest.mark.parametrize("key", list(TOWER_SPECS))
def test_cofibre_reads_the_cone_of_sigma(key, field, monkeypatch):
    # cone(sigma_n) = X_n (x) cone(eps_1) ~ X_n (x) R/I (tower_report):
    # the two level diagrams agree cell for cell, and so do the reports
    text, top, wmax = TOWER_SPECS[key]
    ps = parse_spec(_over(text, field))
    I = ps.ideals["I"]
    tw = Tower(ps.ring, I, 4, wmax)
    levels = list(range(I.min_level(), top + 1))
    for n in range(1, 5):
        cone = _level_cells(cofibre_cone(tw, n), levels, range(n), wmax)
        assert _level_cells(tw.cofibre(n), levels, range(n), wmax) == cone, n
    bounds = Bounds(wmax, top, 2)
    ours = [tower_report(ps.ring, I, n_max, bounds) for n_max in range(1, 7)]
    monkeypatch.setattr(Tower, "cofibre", cofibre_cone)
    assert [tower_report(ps.ring, I, n_max, bounds) for n_max in range(1, 7)] == ours


def test_tower_report_builds_no_sigma_and_no_cone(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("sigma_n or a cone was built")

    monkeypatch.setattr(derived, "cone_family", refused)
    monkeypatch.setattr(Tower, "sigma", refused)
    spec = _spec_t()
    rep = tower_report(spec, roots_family(spec, "t"), 5, default_bounds(4))
    assert rep.ok and rep.h0_cells_checked > 0


def _weights(ring, wmax):
    # each weight of the level's lattice up to wmax, as its integer
    return range(ring.num_floor(wmax) + 1)


def test_h0_of_the_powers_is_the_tensor_power_of_the_ideal():
    # I_l = u R_l for u = t^(1/2^l) and R_l = k[u]/(u^(2^l)), so I_l^(x)n
    # is spanned by u^n .. u^(n + 2^l - 2): dim 1 at the weights
    # n/2^l .. (n + 2^l - 2)/2^l, nothing elsewhere
    spec = _spec_t()
    wmax = Fraction(3)
    tw = Tower(spec, roots_family(spec, "t"), 1, wmax)
    for n in range(1, 6):
        for l in range(6):
            diagram = tw.X(n).diagram([l])
            for k in _weights(diagram.complexes[0].ring, wmax):
                want = int(n <= k <= n + 2**l - 2)
                assert diagram.homology(0, 0, k).dim == want, (n, l, k)


def test_cofibre_homology_counts_the_generators_of_the_power():
    # on the t spec R_l/I_l = k and X_n is minimal, so X_n (x) R/I has no
    # differential: its H_d at a weight counts X_n's degree-d generators
    spec = _spec_t()
    wmax = Fraction(2)
    tw = Tower(spec, roots_family(spec, "t"), 4, wmax)
    for n in range(1, 5):
        cof = tw.cofibre(n)
        for l in range(6):
            diagram, x = cof.diagram([l]), tw.X(n).at(l)
            for d in range(4):
                weights = [x.ring.num(w) for w in x.gens_at(d)]
                for k in _weights(x.ring, wmax):
                    assert diagram.homology(0, d, k).dim == weights.count(k), (n, l, d, k)


# ---------- cosimplicial comparison ----------


def test_amitsur_agrees_truncated():
    spec = _spec_t()
    I = roots_family(spec, "t")
    rep = amitsur_crosscheck(spec, I, 4, 1, Bounds(Fraction(2), 6, 2))
    assert rep.all_agree()
    assert rep.reference.dims == (1, 1)
    # junk from the column cutoff lives three levels at m = 4, so the
    # run must widen its window accordingly
    assert rep.window == 3


def test_amitsur_agrees_with_the_tensor_route():
    # the reference run follows quotient_homotopy's route, base change
    # here; the tower route stays an independent oracle for Tot
    spec = _spec_t()
    I = roots_family(spec, "t")
    bounds = Bounds(Fraction(2), 6, 2)
    rep = amitsur_crosscheck(spec, I, 4, 1, bounds)
    assert rep.reference.n_used == ()
    tower = quotient_by_tower(spec, I, 1, bounds)
    assert settled(tower.table) and tower.n_used == (2, 3)
    assert rep.all_agree()
    for d in range(2):
        assert rep.table.stable_cells_at(d) == tower.table.stable_cells_at(d)


def test_amitsur_agrees_untruncated():
    spec = _spec_t(trunc=False)
    I = roots_family(spec, "t")
    rep = amitsur_crosscheck(spec, I, 3, 1, Bounds(Fraction(2), 6, 2))
    assert rep.all_agree()
    assert rep.reference.dims == (1, 0)
    assert rep.window == 2


def _spec_xy_f7():
    return RingSpec(
        field=GF(7),
        root_base=2,
        variables=(VarInfo("x", True), VarInfo("y", True)),
        truncations=((F1, F0), (F0, F1)),
    )


@pytest.mark.parametrize("m,N", [(3, 1), (4, 2)])
@pytest.mark.parametrize(
    "family",
    [roots_family(_spec_t(), "t"), roots_family(_spec_t(False), "t"), _roots_xy(_spec_xy_f7())],
    ids=["t", "t-plain", "xy-f7"],
)
def test_amitsur_totalizations_and_their_transition_are_chain_complexes(family, m, N):
    # Tot at levels 1 and 2 and the transition between them, the oracle
    # route of amitsur_crosscheck
    spec = family.spec
    wmax = default_bounds(N).weight_max
    lo, hi = (amitsur_level(make_level_ring(spec, l), family, m, N, wmax) for l in (1, 2))
    for tot in (lo, hi):
        check_complex(tot.tot)
        assert tot.tot.total_rank() > 0
        # Tot_d is the blocks powers[k]_{d+k}, k ascending, each at its offset
        for d, gl in tot.tot.gens.items():
            at = 0
            for k, pw in enumerate(tot.powers):
                assert tot.offsets[d][k] == at
                block = pw.gens_at(d + k)
                assert gl[at : at + len(block)] == block
                at += len(block)
            assert at == len(gl) == tot.offsets[d][-1]
    step = amitsur_step(lo, hi, make_level_ring(spec, 1).include_exp, m)
    check_chain_map(step)
    assert any(any(cols) for cols in step.entries.values())
