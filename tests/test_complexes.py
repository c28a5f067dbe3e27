from fractions import Fraction

import pytest

from idemq.fields import GF, QQ
from idemq.complexes import (
    ChainMap,
    _kernel_resolution,
    _split_resolution,
    FreeComplex,
    HomologyData,
    Strands,
    add_image,
    cone,
    cone_map,
    homology_data,
    homology_map_matrix,
    identity_map,
    ideal_resolution,
    lift_chain_map,
    minimal_resolution,
    out_rows,
    push_strand_vec,
    strand_basis,
    strand_rows,
    strand_weights,
    tensor_complexes,
    tensor_maps,
    unit_complex,
)
from idemq.derived import (
    Tower,
    ideal_module,
    module_strands,
    quotient_module,
    residue_module,
    ring_module,
)
from idemq.ideals import IdealFamily
from idemq.rings import LevelRing, RingSpec, VarInfo, make_level_ring
from idemq.sparsela import Echelon, SparseMatrix, solve_rows
from oracles import (
    aug_matrix,
    basis,
    check_chain_map,
    check_complex,
    cofibre_cone,
    column,
    compose_maps,
    divisible,
    eager_homology,
    homology_dim,
    is_zero,
    pairs_of,
    ref_strand,
    scan_push,
    strand_matrix,
    to_dense,
)

F0 = Fraction(0)


def _ring(a=3, level=0, field=QQ):
    spec = RingSpec(
        field=field,
        root_base=2,
        variables=(VarInfo("x", True),),
        truncations=((Fraction(a),),),
    )
    return make_level_ring(spec, level)


# ---------- minimal resolutions ----------


def test_resolution_of_k_is_periodic():
    # R = K[x]/x^3: ... -> R --x^2--> R --x--> R -> K, ranks all 1
    ring = _ring(a=3)
    res = minimal_resolution(ring, (ring.pack((1,)),), dmax=4, wmax=Fraction(8))
    check_complex(res)
    for d in range(5):
        assert res.rank(d) == 1
    assert res.diff[1] == [((0, {ring.pack((1,)): 1}),)]
    assert res.diff[2] == [((0, {ring.pack((2,)): 1}),)]
    assert res.diff[3] == [((0, {ring.pack((1,)): 1}),)]
    # generator weights 0, 1, 3, 4, 6
    assert [res.gens[d][0] for d in range(5)] == [0, 1, 3, 4, 6]


def test_resolution_is_acyclic_in_positive_degrees():
    ring = _ring(a=3)
    res = minimal_resolution(ring, (ring.pack((1,)),), dmax=3, wmax=Fraction(6))
    prov = Strands(ring)
    for d in (1, 2):
        for w in (F0, Fraction(1), Fraction(2), Fraction(3), Fraction(4)):
            assert homology_dim(res, d, w, prov) == 0
    # H_0 = K: dim 1 at weight 0, nothing above
    assert homology_dim(res, 0, F0, prov) == 1
    assert homology_dim(res, 0, Fraction(1), prov) == 0


def test_resolution_weight_truncation_is_exact_below_bound():
    ring = _ring(a=3)
    full = minimal_resolution(ring, (ring.pack((1,)),), dmax=4, wmax=Fraction(8))
    cut = minimal_resolution(ring, (ring.pack((1,)),), dmax=4, wmax=Fraction(3))
    # gens above weight 3 are dropped, the rest agree
    assert [cut.gens_at(d) for d in range(3)] == [full.gens_at(d) for d in range(3)]
    assert cut.rank(3) == 0


def test_tor_of_k_against_k():
    # Tor_d(K, K) over K[x]/x^3 is K in every degree, in weights 0,1,3,4
    ring = _ring(a=3)
    res = minimal_resolution(ring, (ring.pack((1,)),), dmax=3, wmax=Fraction(6))
    ks = Strands(ring, ring.var_monos)
    want = {0: F0, 1: Fraction(1), 2: Fraction(3), 3: Fraction(4)}
    for d, w in want.items():
        assert homology_dim(res, d, w, ks) == 1
        assert homology_dim(res, d, w + Fraction(1, 2), ks) == 0


def test_resolution_at_level_one():
    # level 1: same shape with x^(1/2) steps
    ring = _ring(a=2, level=1)
    res = minimal_resolution(ring, (ring.pack((1,)),), dmax=2, wmax=Fraction(4))
    check_complex(res)
    assert res.diff[1] == [((0, {ring.pack((1,)): 1}),)]
    # x^(1/2) * x^(3/2) = x^2 = 0
    assert res.diff[2] == [((0, {ring.pack((3,)): 1}),)]


def test_two_var_resolution_is_koszul_times_periodic():
    spec = RingSpec(
        field=QQ,
        root_base=2,
        variables=(VarInfo("x", True), VarInfo("y", True)),
        truncations=((Fraction(2), Fraction(0)), (Fraction(0), Fraction(2))),
    )
    ring = make_level_ring(spec, 0)
    res = minimal_resolution(ring, (ring.pack((1, 0)), ring.pack((0, 1))), dmax=3, wmax=Fraction(6))
    check_complex(res)
    # Tor of K over K[x]/x^2 (x) K[y]/y^2: dims C(d+1, 1) by multiplicativity
    assert [res.rank(d) for d in range(4)] == [1, 2, 3, 4]


def test_ideal_resolution_shifts():
    ring = _ring(a=3)
    resi = ideal_resolution(ring, [ring.pack((1,))], dmax=3, wmax=Fraction(8))
    check_complex(resi)
    assert resi.rank(0) == 1
    assert resi.aug == [{ring.pack((1,)): 1}]
    # first differential of the ideal resolution is x^2
    assert resi.diff[1] == [((0, {ring.pack((2,)): 1}),)]


# ---------- resolutions in closed form ----------


def _spec(*variables, truncations=(), root_base=2):
    """A spec over Q from (name, divisible) pairs and truncation exponents."""
    return RingSpec(
        field=QQ,
        root_base=root_base,
        variables=tuple(VarInfo(n, d) for n, d in variables),
        truncations=tuple(tuple(Fraction(e) for e in t) for t in truncations),
    )


def _split_cases():
    """(name, ring, generators, weight cap) of modules that split by
    variable: the t spec truncated at t, at t^2 and at both t^2 and t^3,
    its root base 3 version, 1-3 untruncated divisible variables, and a
    plain s truncated at s^3 beside a divisible t, at levels 0-3."""
    t = ("t", True)
    specs = {
        "t": (_spec(t, truncations=[(1,)]), Fraction(3)),
        "t2": (_spec(t, truncations=[(2,)]), Fraction(3)),
        "t2-t3": (_spec(t, truncations=[(2,), (3,)]), Fraction(3)),
        "root3": (_spec(t, truncations=[(1,)], root_base=3), Fraction(2)),
        "u1": (_spec(t), Fraction(3)),
        "u2": (_spec(("x", True), ("y", True)), Fraction(2)),
        "u3": (_spec(("x", True), ("y", True), ("z", True)), Fraction(3, 2)),
        "s3-t": (_spec(("s", False), t, truncations=[(3, 0)]), Fraction(2)),
    }
    for name, (spec, wmax) in specs.items():
        for level in range(4):
            ring = make_level_ring(spec, level)
            if name == "s3-t":
                s, root = ring.var_monos
                gen_sets = {
                    "s": (s,), "root": (root,), "s-root": (s, root), "s2-root": (2 * s, root)
                }
            else:
                # the roots, the first root alone, and the first variable itself
                roots = ring.var_monos
                first = ring.exp_of((Fraction(1),) + (F0,) * (ring.nvars - 1))
                gen_sets = {"roots": roots, "root": roots[:1], "var": (first,)}
            for gname, gens in gen_sets.items():
                yield f"{name}-l{level}-{gname}", ring, gens, wmax


SPLIT_CASES = list(_split_cases())


@pytest.mark.parametrize(
    "ring, gens, wmax", [c[1:] for c in SPLIT_CASES], ids=[c[0] for c in SPLIT_CASES]
)
def test_split_resolution_matches_the_kernel_loop(ring, gens, wmax):
    # the kernel loop is the oracle: ranks and generator weights agree
    # degree by degree, and the closed form resolves R/J exactly on every
    # strand below the cap
    dmax = 5
    closed = _split_resolution(ring, gens, dmax, wmax)
    assert closed is not None
    routed = minimal_resolution(ring, gens, dmax, wmax)
    assert (routed.gens, routed.diff) == (closed.gens, closed.diff)
    oracle = _kernel_resolution(ring, gens, dmax, wmax)
    for d in range(dmax + 1):
        assert sorted(closed.gens_at(d)) == sorted(oracle.gens_at(d)), d
    check_complex(closed)
    quotient = Strands(ring, gens)
    for n in range(ring.num_floor(wmax) + 1):
        w = Fraction(n, ring.denom)
        assert homology_dim(closed, 0, w, Strands(ring)) == len(quotient.basis_at(n))
        for d in range(1, dmax):
            assert homology_dim(closed, d, w, Strands(ring)) == 0, (d, w)


def test_split_resolution_of_a_zero_generator_is_the_ring():
    # t is zero in K[t]/(t): R/(t) = R, resolved by R alone
    ring = make_level_ring(_spec(("t", True), truncations=[(1,)]), 0)
    res = _split_resolution(ring, ring.var_monos, 3, Fraction(3))
    assert {d: gl for d, gl in res.gens.items() if gl} == {0: [F0]}
    assert res.aug_quotient == ring.var_monos


# (name, spec, generator exponents, ranks in degrees 0-5 at weight cap 3,
# as the kernel loop gives them at levels 1 and 2)
DECLINED = [
    ("mixed-truncation", _spec(("x", True), ("y", True), truncations=[(1, 1)]), [(1, 0)],
     [1, 1, 1, 1, 0, 0]),
    ("two-variable-generator",
     _spec(("x", True), ("y", True), truncations=[(2, 0), (0, 2)]), [(1, 1)],
     [1, 1, 2, 2, 0, 0]),
    ("one-variable-twice", _spec(("t", True), truncations=[(2,)]), [(1,), (2,)],
     [1, 1, 1, 1, 0, 0]),
]


@pytest.mark.parametrize("level", [1, 2])
@pytest.mark.parametrize(
    "spec, exps, ranks", [c[1:] for c in DECLINED], ids=[c[0] for c in DECLINED]
)
def test_modules_that_do_not_split_keep_the_kernel_loop(spec, exps, ranks, level):
    ring = make_level_ring(spec, level)
    gens = tuple(ring.pack(e) for e in exps)
    assert _split_resolution(ring, gens, 5, Fraction(3)) is None
    res = minimal_resolution(ring, gens, 5, Fraction(3))
    oracle = _kernel_resolution(ring, gens, 5, Fraction(3))
    assert (res.gens, res.diff) == (oracle.gens, oracle.diff)
    assert [res.rank(d) for d in range(6)] == ranks
    check_complex(res)


@pytest.mark.parametrize("root_base", [2, 3])
@pytest.mark.parametrize("kind", ["periodic", "koszul"])
def test_lift_between_split_resolutions_is_a_chain_map(kind, root_base):
    # the inclusion sends the root u to u'^r, so the lift is u'^(r-1) in
    # degree 1; in the periodic case (N = r^l, a = 1) it sends u^(N-a) to
    # u'^(r(N-a)), and u'^(r(N-a)) u'^(r-1) = u'^(rN-1) is the next
    # level's degree-2 entry, so the lift is 1 in degree 2
    truncations = [(1,)] if kind == "periodic" else []
    spec = _spec(("t", True), truncations=truncations, root_base=root_base)
    for level in (1, 2):
        lo, hi = make_level_ring(spec, level), make_level_ring(spec, level + 1)
        x, y = (_split_resolution(r, r.var_monos, 4, Fraction(2)) for r in (lo, hi))
        lift = lift_chain_map(x, y, ring_map=lo.include_exp)
        check_chain_map(lift)
        assert column(lift, 1, 0) == {0: {hi.pack((root_base - 1,)): 1}}
        if kind == "periodic":
            assert x.hi == 4
            assert column(lift, 2, 0) == {0: {hi.unit: 1}}
        else:
            assert x.hi == 1


# ---------- strand mechanics ----------


def test_strand_basis_and_matrix_shapes():
    ring = _ring(a=3)
    res = minimal_resolution(ring, (ring.pack((1,)),), dmax=2, wmax=Fraction(6))
    prov = Strands(ring)
    # level 0: the integer weight of w is w itself
    sb = strand_basis(res, 1, 2, prov)
    # degree 1 generator has weight 1; monomials of weight 1: x
    assert pairs_of(sb) == [(0, ring.pack((1,)))]
    m = strand_matrix(res, 1, 2, prov)
    assert (m.nrows, m.ncols) == (1, 1)
    assert m.rows[0] == {0: 1}
    rows, dst = out_rows(res, 1, 2, prov, sb)
    assert list(rows) == m.rows and dst.size == m.nrows


# ---------- tensor products ----------


def test_tensor_squares_ranks_and_homology():
    ring = _ring(a=3)
    res = minimal_resolution(ring, (ring.pack((1,)),), dmax=3, wmax=Fraction(6))
    sq, info = tensor_complexes(res, res, dmax=3, wmax=Fraction(6))
    check_complex(sq)
    # ranks convolve: 1, 2, 3, 4
    assert [sq.rank(d) for d in range(4)] == [1, 2, 3, 4]
    # res (x) res resolves K (x)^L K: homology is Tor(K, K) again
    prov = Strands(ring)
    assert homology_dim(sq, 0, F0, prov) == 1
    assert homology_dim(sq, 1, Fraction(1), prov) == 1
    assert homology_dim(sq, 1, Fraction(2), prov) == 0
    assert homology_dim(sq, 2, Fraction(3), prov) == 1
    assert homology_dim(sq, 2, Fraction(2), prov) == 0


def test_tensor_unit_is_identity():
    ring = _ring(a=3)
    res = minimal_resolution(ring, (ring.pack((1,)),), dmax=3, wmax=Fraction(6))
    t, info = tensor_complexes(res, unit_complex(ring))
    assert [t.rank(d) for d in range(4)] == [res.rank(d) for d in range(4)]
    check_complex(t)


def test_tensor_weight_truncation_drops_heavy_gens():
    ring = _ring(a=3)
    res = minimal_resolution(ring, (ring.pack((1,)),), dmax=3, wmax=Fraction(6))
    t, _ = tensor_complexes(res, res, dmax=3, wmax=Fraction(2))
    # degree-2 pairs have weights 3+0, 1+1, 0+3: only weight 2 survives
    assert t.gens_at(2) == [Fraction(2)]


# ---------- minimality ----------


def _unit_entries(x):
    """Differential entries of x that hold the unit monomial."""
    unit = x.ring.unit
    return [
        (d, (i, j))
        for d, cols in x.diff.items()
        for j, col in enumerate(cols)
        for i, elem in col
        if unit in elem
    ]


def test_tensor_powers_have_no_unit_entry():
    # the tensor of minimal complexes over a positively graded ring stays
    # minimal, so nothing in X_n needs cancelling
    for name, family in (("t", _t_family()), ("xy", _xy_family())):
        for level in (1, 2, 3):
            ring = make_level_ring(family.spec, level)
            wmax = Fraction(2) if name == "t" or level < 3 else Fraction(1)
            res = ideal_resolution(ring, family.gens_at(ring), dmax=3, wmax=wmax)
            power = res
            for n in range(1, 5):
                assert not _unit_entries(power), (name, level, n)
                assert power.total_rank() > 0
                power, _ = tensor_complexes(power, res, dmax=3, wmax=wmax)
    # the scan does see units: the cone of an identity is contractible,
    # and every entry of its connecting map is the unit
    ring = _ring(a=3)
    res = minimal_resolution(ring, (ring.pack((1,)),), dmax=3, wmax=Fraction(6))
    c = cone(identity_map(res))
    assert len(_unit_entries(c)) == res.total_rank()


# ---------- cones ----------


def test_cone_of_augmentation():
    # cone(res(I) -> R) computes R/I derived: here R/(x) = K in degree 0
    ring = _ring(a=3)
    resi = ideal_resolution(ring, [ring.pack((1,))], dmax=3, wmax=Fraction(8))
    eps = ChainMap(
        src=resi,
        dst=unit_complex(ring),
        entries={0: [((0, dict(resi.aug[0])),)]},
    )
    check_chain_map(eps)
    c = cone(eps)
    check_complex(c)
    # Y_d first, then X_{d-1}
    for d in range(-1, 6):
        assert c.gens_at(d) == eps.dst.gens_at(d) + eps.src.gens_at(d - 1)
    prov = Strands(ring)
    assert homology_dim(c, 0, F0, prov) == 1
    assert homology_dim(c, 0, Fraction(1), prov) == 0
    assert homology_dim(c, 0, Fraction(2), prov) == 0
    # the multiplication I -> R is injective: H_1 vanishes
    for w in (F0, Fraction(1), Fraction(2), Fraction(3)):
        assert homology_dim(c, 1, w, prov) == 0


def test_cofibres_of_sigma_are_complexes_sharing_the_entries_of_x():
    # cone(sigma_n): sigma is negated in odd X-degrees, X's differential
    # is shared as it stands
    for family in (_t_family(), _xy_family()):
        tw = Tower(family.spec, family, 3, Fraction(3, 2))
        for n in (1, 2):
            for level in (1, 2):
                c = cofibre_cone(tw, n).at(level)
                check_complex(c)
                sigma, x, y = tw.sigma(n).at(level), tw.X(n + 1).at(level), tw.X(n).at(level)
                for d, cols in x.diff.items():
                    here, below = y.rank(d + 1), y.rank(d)
                    for j, col in enumerate(cols):
                        got = dict(c.diff[d + 1][here + j])
                        for i, elem in col:
                            assert got[below + i] is elem
                for d, cols in sigma.entries.items():
                    here = y.rank(d + 1)
                    for j, col in enumerate(cols):
                        got = dict(c.diff[d + 1][here + j])
                        for i, elem in col:
                            if d % 2:
                                assert got[i] == x.ring.elem_neg(elem)
                            else:
                                assert got[i] is elem
        # eps lives in X-degree 0, so the cone of eps never negates it
        q = tw.Q(1).at(1)
        check_complex(q)
        assert any(tw.eps(1).at(1).entries[0])
        for j, col in enumerate(tw.eps(1).at(1).entries[0]):
            got = dict(q.diff[1][tw.unit.at(1).rank(1) + j])
            for i, elem in col:
                assert got[i] is elem


def test_check_complex_refuses_a_differential_missing_a_column():
    sq, _prov = _xy_square(QQ)
    check_complex(sq)
    broken = FreeComplex(ring=sq.ring, gens=sq.gens, diff={**sq.diff, 2: sq.diff[2][:-1]})
    want = f"differential at d=2 holds {sq.rank(2) - 1} columns for {sq.rank(2)} generators"
    with pytest.raises(AssertionError, match=want):
        check_complex(broken)


# ---------- chain map lifting ----------


def test_lift_along_level_inclusion():
    spec = _ring(a=2).spec
    r0 = make_level_ring(spec, 0)
    r1 = make_level_ring(spec, 1)
    res0 = minimal_resolution(r0, (r0.pack((1,)),), dmax=4, wmax=Fraction(8))
    # maximal ideal at level 1 is generated by x^(1/2), numerator 1
    res1 = minimal_resolution(r1, (r1.pack((1,)),), dmax=4, wmax=Fraction(8))
    lift = lift_chain_map(res0, res1, ring_map=r0.include_exp)
    check_chain_map(lift)
    # even degrees lift by a unit, odd degrees land in the maximal ideal
    for d in range(4):
        col = column(lift, d, 0)
        elem = col[0]
        if d % 2 == 0:
            assert elem == {r1.pack((0,)): 1}
        else:
            assert all(sum(r1.unpack(e)) > 0 for e in elem)


def test_check_chain_map_refuses_a_map_missing_a_column():
    sq, _prov = _xy_square(QQ)
    f = identity_map(sq)
    check_chain_map(f)
    broken = ChainMap(src=sq, dst=sq, entries={**f.entries, 1: f.entries[1][:-1]})
    want = f"chain map at d=1 holds {sq.rank(1) - 1} columns for {sq.rank(1)} generators"
    with pytest.raises(AssertionError, match=want):
        check_chain_map(broken)


def test_lift_onto_a_complex_that_is_not_a_resolution_is_an_internal_fault():
    # the target stops at degree 1, so the degree-2 generator of the source
    # (boundary x^2 times the degree-1 generator) has nowhere to go
    ring = _ring(a=3)
    x = minimal_resolution(ring, (ring.pack((1,)),), dmax=3, wmax=Fraction(6))
    y = minimal_resolution(ring, (ring.pack((1,)),), dmax=1, wmax=Fraction(6))
    with pytest.raises(AssertionError, match="no lift at degree 2, generator 0"):
        lift_chain_map(x, y)


def test_missing_augmentation_is_an_internal_fault():
    # every complex that is lifted or resolved further is augmented
    ring = _ring(a=3)
    res = minimal_resolution(ring, (ring.pack((1,)),), dmax=2, wmax=Fraction(4))
    bare = FreeComplex(ring=ring, gens=dict(res.gens), diff=dict(res.diff))
    with pytest.raises(AssertionError, match="both complexes need augmentations"):
        lift_chain_map(bare, res)
    with pytest.raises(AssertionError, match="both complexes need augmentations"):
        lift_chain_map(res, bare)
    prov = Strands(ring)
    with pytest.raises(AssertionError, match="complex has no augmentation"):
        out_rows(bare, 0, 0, prov, strand_basis(bare, 0, 0, prov))


def _lift_0_to_1(ring_map=None):
    # res(x) at levels 0 and 1 of K[x^(1/2^l)] / (x^2), and a lift between
    spec = _ring(a=2).spec
    r0, r1 = make_level_ring(spec, 0), make_level_ring(spec, 1)
    res0 = minimal_resolution(r0, (r0.pack((1,)),), dmax=2, wmax=Fraction(4))
    res1 = minimal_resolution(r1, (r1.pack((2,)),), dmax=2, wmax=Fraction(4))
    return res0, res1, lift_chain_map(res0, res1, ring_map=ring_map or r0.include_exp)


def test_composing_maps_that_do_not_meet_is_an_internal_fault():
    res0, res1, lift = _lift_0_to_1()
    with pytest.raises(AssertionError, match="middle complexes differ"):
        compose_maps(identity_map(res0), lift)


def test_tensor_over_different_rings_is_an_internal_fault():
    res0, res1, _ = _lift_0_to_1()
    with pytest.raises(AssertionError, match="different rings"):
        tensor_complexes(res0, res1)


def test_tensor_of_maps_with_different_ring_maps_is_an_internal_fault():
    res0, res1, f = _lift_0_to_1()
    g = lift_chain_map(res0, res1, ring_map=lambda e: f.ring_map(e))
    sq0, i0 = tensor_complexes(res0, res0, dmax=2, wmax=Fraction(4))
    sq1, i1 = tensor_complexes(res1, res1, dmax=2, wmax=Fraction(4))
    with pytest.raises(AssertionError, match="factors carry different ring maps"):
        tensor_maps(f, g, sq0, i0, sq1, i1)


def test_cone_of_a_map_between_rings_is_an_internal_fault():
    _, _, lift = _lift_0_to_1()
    with pytest.raises(AssertionError, match="same-ring chain map"):
        cone(lift)


def test_cone_map_with_different_ring_maps_is_an_internal_fault():
    res0, res1, f = _lift_0_to_1()
    g = lift_chain_map(res0, res1, ring_map=lambda e: f.ring_map(e))
    c0 = cone(identity_map(res0))
    c1 = cone(identity_map(res1))
    with pytest.raises(AssertionError, match="legs carry different ring maps"):
        cone_map(f, g, c0, c1)


def test_lifts_along_one_inclusion_carry_equal_ring_maps():
    # each read of include_exp is a new bound method, and two of them
    # compare equal: lifts along the level 1 -> 2 inclusion of the t spec,
    # each made with its own read, are tensored and coned together
    family = _t_family()
    r1, r2 = (make_level_ring(family.spec, l) for l in (1, 2))
    res1, res2 = (
        ideal_resolution(r, family.gens_at(r), dmax=2, wmax=Fraction(2)) for r in (r1, r2)
    )
    f, g = (lift_chain_map(res1, res2, ring_map=r1.include_exp) for _ in range(2))
    assert f.ring_map is not g.ring_map
    sq1, i1 = tensor_complexes(res1, res1, dmax=2, wmax=Fraction(2))
    sq2, i2 = tensor_complexes(res2, res2, dmax=2, wmax=Fraction(2))
    check_chain_map(tensor_maps(f, g, sq1, i1, sq2, i2))
    check_chain_map(cone_map(f, g, cone(identity_map(res1)), cone(identity_map(res2))))


def test_cone_map_on_cones_off_its_square_is_an_internal_fault():
    res0, res1, f = _lift_0_to_1()
    c0 = cone(identity_map(res0))
    c1 = cone(identity_map(res1))
    check_chain_map(cone_map(f, f, c0, c1))
    # a target that is not the cone of the square's right-hand leg
    with pytest.raises(AssertionError, match="do not fit the square"):
        cone_map(f, f, c0, res1)


def test_lift_identity_is_solved_degreewise():
    ring = _ring(a=3)
    res = minimal_resolution(ring, (ring.pack((1,)),), dmax=3, wmax=Fraction(6))
    lift = lift_chain_map(res, res)
    check_chain_map(lift)
    for d in range(4):
        assert column(lift, d, 0)[0] == {ring.pack((0,)): 1} or column(lift, d, 0)[0] == {
            ring.pack((0,)): -1
        }


# ---------- homology maps ----------


def test_homology_map_of_identity():
    ring = _ring(a=3)
    res = minimal_resolution(ring, (ring.pack((1,)),), dmax=3, wmax=Fraction(6))
    sq, _ = tensor_complexes(res, res, dmax=3, wmax=Fraction(6))
    prov = Strands(ring)
    h = homology_data(sq, 1, 1, prov)
    assert h.dim == 1
    m = homology_map_matrix(identity_map(sq), 1, h, h)
    assert m.rank() == 1
    assert to_dense(m) == [[1]]


def test_homology_data_reps_are_cycles():
    ring = _ring(a=3)
    res = minimal_resolution(ring, (ring.pack((1,)),), dmax=3, wmax=Fraction(6))
    sq, _ = tensor_complexes(res, res, dmax=3, wmax=Fraction(6))
    prov = Strands(ring)
    h = homology_data(sq, 2, 3, prov)
    assert h.dim == homology_dim(sq, 2, Fraction(3), prov) == 1
    out = strand_matrix(sq, 2, 3, prov)
    for rep in h.reps:
        # matrix-vector product: rows of `out` dot rep
        for row in out.rows:
            s = sum(row.get(c, 0) * v for c, v in rep.items())
            assert s == 0


def _xy_spec(field):
    # x, y divisible, truncated at x and y
    return RingSpec(
        field=field,
        root_base=2,
        variables=(VarInfo("x", True), VarInfo("y", True)),
        truncations=((Fraction(1), F0), (F0, Fraction(1))),
    )


def _xy_square(field, level=2, wmax=Fraction(2)):
    # I (x) I for I = roots(x), roots(y)
    ring = make_level_ring(_xy_spec(field), level)
    res = ideal_resolution(ring, [ring.pack((1, 0)), ring.pack((0, 1))], dmax=3, wmax=wmax)
    sq, _ = tensor_complexes(res, res, dmax=3, wmax=wmax)
    return sq, Strands(ring)


def _xy_cone(field, level=2, wmax=Fraction(2)):
    # cone of the multiplication I (x) I -> I for I = roots(x), roots(y)
    spec = _xy_spec(field)
    family = IdealFamily(name="I", spec=spec, root_vars=(0, 1))
    cof = cofibre_cone(Tower(spec, family, 2, wmax), 1).at(level)
    return cof, Strands(make_level_ring(spec, level))


@pytest.mark.parametrize("build", [_xy_square, _xy_cone], ids=["square", "cone"])
@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "F7"])
def test_rank_first_dims_match_homology_dim_on_xy(field, build):
    x, prov = build(field)
    seen = nonzero = 0
    for d in range(x.lo, x.hi + 1):
        for n in strand_weights(x, d, x.ring.num_floor(Fraction(2)), prov):
            h = homology_data(x, d, n, prov)
            assert h.dim == homology_dim(x, d, Fraction(n, x.ring.denom), prov)
            assert len(h.reps) == h.dim
            seen += 1
            if h.dim:
                nonzero += 1
                continue
            assert h.diff_ech is None and h.free_bnd is None and not h.rep_cols
            assert not any(
                isinstance(getattr(h, slot), (Echelon, SparseMatrix))
                for slot in HomologyData.__slots__
            )
    assert 0 < nonzero < seen


@pytest.mark.parametrize("build", [_xy_square, _xy_cone], ids=["square", "cone"])
@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "F7"])
def test_coords_read_each_representative_on_xy(field, build):
    # on every strand with homology: representatives are cycles, each has
    # the unit coordinates of its own class, also when moved by a boundary,
    # and a vector that is not a cycle is refused
    x, prov = build(field)
    norm = field.normalize
    seen = 0
    for d in range(x.lo, x.hi + 1):
        for n in strand_weights(x, d, x.ring.num_floor(Fraction(2)), prov):
            h = homology_data(x, d, n, prov)
            if not h.dim:
                continue
            seen += 1
            out = strand_matrix(x, d, n, prov)
            inc = strand_matrix(x, d + 1, n, prov)
            # a boundary: the image of a sum of d+1 strand basis vectors
            bnd = inc.mul_vec({j: norm(j + 1) for j in range(inc.ncols)})
            for k, rep in enumerate(h.reps):
                assert out.mul_vec(rep) == {}
                assert h.coords(rep, field) == {k: 1}
                moved = {r: norm(rep.get(r, 0) + bnd.get(r, 0)) for r in set(rep) | set(bnd)}
                moved = {r: v for r, v in moved.items() if v}
                assert h.coords(moved, field) == {k: 1}
            hit = next((r for r in range(out.ncols) if any(r in row for row in out.rows)), None)
            if hit is not None:
                with pytest.raises(AssertionError, match="not a cycle modulo boundaries"):
                    h.coords({hit: field.one}, field)
    assert seen


@pytest.mark.parametrize("build", [_xy_square, _xy_cone], ids=["square", "cone"])
@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "F7"])
def test_deferred_fill_runs_once_and_matches_an_eager_basis_on_xy(field, build, monkeypatch):
    # homology_data reads no boundary column; a strand with homology fills
    # its basis on the first read of reps, rep_cols, free_bnd or coords and
    # never again, a strand without fills nothing, and the filled basis and
    # coordinates are those of a basis filled up front from scanned matrices
    fills = []
    real = HomologyData._fill_basis

    def counting(self):
        fills.append(self)
        real(self)

    monkeypatch.setattr(HomologyData, "_fill_basis", counting)
    x, prov = build(field)
    norm = field.normalize
    seen = 0
    for d in range(x.lo, x.hi + 1):
        for n in strand_weights(x, d, x.ring.num_floor(Fraction(2)), prov):
            h = homology_data(x, d, n, prov)
            ref = eager_homology(x, d, n, prov)
            assert pairs_of(h.basis) == ref_strand(x, d, n, prov).pairs
            assert not fills
            assert (h.dim, h.rank) == (ref.dim, ref.rank)
            inc = strand_matrix(x, d + 1, n, prov)
            bnd = inc.mul_vec({j: norm(j + 1) for j in range(inc.ncols)})
            for _ in range(2):
                assert (h.reps, h.rep_cols) == (ref.reps, ref.rep_cols)
                total = {}
                for k, rep in enumerate(h.reps):
                    for r, v in rep.items():
                        total[r] = norm(total.get(r, 0) + (k + 2) * v)
                    moved = {r: norm(rep.get(r, 0) + bnd.get(r, 0)) for r in set(rep) | set(bnd)}
                    for vec in (rep, moved):
                        vec = {r: v for r, v in vec.items() if v}
                        assert h.coords(vec, field) == ref.coords(vec)
                if h.dim:  # only a strand with homology has coordinates
                    total = {r: v for r, v in total.items() if v}
                    assert h.coords(total, field) == ref.coords(total)
            assert fills == ([h] if h.dim else []), (d, n)
            fills.clear()
            seen += bool(h.dim)
    assert seen


def test_coords_on_a_strand_with_homology_checks_cycles():
    sq, prov = _xy_square(QQ)

    def strands():
        for d in range(sq.lo, sq.hi + 1):
            for n in strand_weights(sq, d, sq.ring.num_floor(Fraction(2)), prov):
                h = homology_data(sq, d, n, prov)
                yield h, strand_matrix(sq, d + 1, n, prov)

    # homology beside boundaries, and cycles that do not fill the strand
    h, inc = next(
        (h, inc) for h, inc in strands()
        if h.dim and inc.rank() and inc.rank() + h.dim < h.basis.size
    )
    cols = [{r: row[c] for r, row in enumerate(inc.rows) if c in row} for c in range(inc.ncols)]
    cols = [col for col in cols if col]
    cycles = Echelon(QQ)
    for v in cols + h.reps:
        cycles.insert(dict(v))
    # a boundary, and a sum of boundaries, has zero coordinates
    total = {}
    for col in cols:
        for r, v in col.items():
            total[r] = total.get(r, 0) + v
    assert h.coords(cols[0], QQ) == {}
    assert h.coords({r: v for r, v in total.items() if v}, QQ) == {}
    # a representative moved by a boundary keeps its class
    moved = dict(h.reps[0])
    for r, v in cols[0].items():
        moved[r] = moved.get(r, 0) + v
    assert h.coords({r: v for r, v in moved.items() if v}, QQ) == {0: 1}
    outside = next(
        {r: 1} for r in range(h.basis.size) if cycles.reduce({r: 1})
    )
    with pytest.raises(AssertionError, match="not a cycle modulo boundaries"):
        h.coords(outside, QQ)


# ---------- tensor of maps ----------


def test_tensor_maps_square_of_lift():
    spec = _ring(a=2).spec
    r0 = make_level_ring(spec, 0)
    r1 = make_level_ring(spec, 1)
    res0 = minimal_resolution(r0, (r0.pack((1,)),), dmax=3, wmax=Fraction(6))
    res1 = minimal_resolution(r1, (r1.pack((2,)),), dmax=3, wmax=Fraction(6))
    lift = lift_chain_map(res0, res1, ring_map=r0.include_exp)
    sq0, i0 = tensor_complexes(res0, res0, dmax=3, wmax=Fraction(6))
    sq1, i1 = tensor_complexes(res1, res1, dmax=3, wmax=Fraction(6))
    sqmap = tensor_maps(lift, lift, sq0, i0, sq1, i1)
    check_chain_map(sqmap)


# ---------- columns against full scans ----------


def _entries(cols):
    """A degree's columns as entries {(i, j): elem}, column by column."""
    return {(i, j): elem for j, col in enumerate(cols) for i, elem in col}


def _keyed(maps):
    """The degrees of a differential or chain map that hold an entry, each
    as _entries."""
    return {d: _entries(cols) for d, cols in maps.items() if any(cols)}


def _scan(entries, j):
    """Entries of column j, by a scan of every entry."""
    return [(i, elem) for (i, jj), elem in entries.items() if jj == j]


def _provenance(index):
    """(degree, index) -> (p, i, q, j), read from a tensor's generator table."""
    return {(key[0] + key[2], idx): key for key, idx in index.items()}


def _scan_tensor_diff(a, b, t, index):
    ring = a.ring
    prov = _provenance(index)
    diff = {}
    for d, gl in t.gens.items():
        if d - 1 not in t.gens:
            continue
        ent = {}
        for idx in range(len(gl)):
            p, i, q, j = prov[(d, idx)]
            for i2, elem in _scan(_entries(a.diff_at(p)), i):
                tgt = index.get((p - 1, i2, q, j))
                if tgt is not None:
                    ent[(tgt, idx)] = elem
            for j2, elem in _scan(_entries(b.diff_at(q)), j):
                tgt = index.get((p, i, q - 1, j2))
                if tgt is not None:
                    ent[(tgt, idx)] = elem if p % 2 == 0 else ring.elem_neg(elem)
        if ent:
            diff[d] = ent
    return diff


def _scan_tensor_map(f, g, src_index, dst_index, ring):
    ent = {}
    for (d, idx), (p, i, q, j) in _provenance(src_index).items():
        for i2, ea in _scan(_entries(f.entries_at(p)), i):
            for j2, eb in _scan(_entries(g.entries_at(q)), j):
                tgt = dst_index.get((p, i2, q, j2))
                prod = ring.elem_mul(ea, eb)
                if tgt is None or not prod:
                    continue
                dent = ent.setdefault(d, {})
                s = ring.elem_add(dent.get((tgt, idx), {}), prod)
                if s:
                    dent[(tgt, idx)] = s
                else:
                    dent.pop((tgt, idx), None)
    return ent


def _scan_lift(x, y, ring_map):
    ring, F = y.ring, y.field
    prov = Strands(ring)

    def push(elem):
        pushed = ((ring_map(e), v) for e, v in elem.items())
        return {e: v for e, v in pushed if not ring.mono_is_zero(e) and v}

    entries = {}
    for d in range(x.lo, x.hi + 1):
        ent = {}
        for j, gw in enumerate(x.gens_at(d)):
            ysb = ref_strand(y, d, ring.num(gw), prov)
            if d == 0:
                mat, tgt = aug_matrix(y, ring.num(gw), ysb)
                tindex = {m: r for r, m in enumerate(tgt)}
                rhs = {
                    tindex[e]: v
                    for e, v in push(x.aug[j]).items()
                    if not divisible(ring, e, y.aug_quotient)
                }
            else:
                mat = strand_matrix(y, d, ring.num(gw), prov, src=ysb)
                ydst = ref_strand(y, d - 1, ring.num(gw), prov)
                rhs = {}
                for i, selem in _scan(_entries(x.diff_at(d)), j):
                    for i2, felem in _scan(entries.get(d - 1, {}), i):
                        for e, c in ring.elem_mul(felem, push(selem)).items():
                            r = ydst.index.get((i2, e))
                            if r is not None:
                                nv = F.normalize(rhs.get(r, 0) + c)
                                if nv:
                                    rhs[r] = nv
                                else:
                                    rhs.pop(r, None)
            sol = solve_rows(mat.rows, len(ysb.pairs), rhs, F)
            for pos, c in sol.items():
                i, mono = ysb.pairs[pos]
                cur = ent.setdefault((i, j), {})
                nv = F.normalize(cur.get(mono, 0) + c)
                if nv:
                    cur[mono] = nv
                else:
                    cur.pop(mono, None)
        ent = {k: v for k, v in ent.items() if v}
        if ent:
            entries[d] = ent
    return entries


def test_grouped_columns_match_full_scans_on_xy_level_2():
    # I = roots(x), roots(y)
    spec = _xy_spec(QQ)
    r1, r2 = make_level_ring(spec, 1), make_level_ring(spec, 2)
    wmax = Fraction(2)
    res1 = ideal_resolution(r1, [r1.pack((1, 0)), r1.pack((0, 1))], dmax=3, wmax=wmax)
    res2 = ideal_resolution(r2, [r2.pack((1, 0)), r2.pack((0, 1))], dmax=3, wmax=wmax)
    sq1, index1 = tensor_complexes(res1, res1, dmax=3, wmax=wmax)
    sq2, index2 = tensor_complexes(res2, res2, dmax=3, wmax=wmax)
    assert sq2.total_rank() > 50
    # the one generator table runs degree by degree, each degree's indices
    # 0..rank-1 in order: the differential is appended column by column in
    # this order
    for sq, index in ((sq1, index1), (sq2, index2)):
        assert [(p + q, idx) for (p, _i, q, _j), idx in index.items()] == [
            (d, idx) for d in sorted(sq.gens) for idx in range(sq.rank(d))
        ]
    got, want = _keyed(sq2.diff), _scan_tensor_diff(res2, res2, sq2, index2)
    assert list(got) == list(want)
    for d in want:
        assert list(got[d].items()) == list(want[d].items())

    lift = lift_chain_map(res1, res2, ring_map=r1.include_exp)
    got, want = _keyed(lift.entries), _scan_lift(res1, res2, r1.include_exp)
    assert list(got) == list(want)
    for d in want:
        assert list(got[d].items()) == list(want[d].items())

    sqmap = tensor_maps(lift, lift, sq1, index1, sq2, index2)
    check_chain_map(sqmap)
    got, want = _keyed(sqmap.entries), _scan_tensor_map(lift, lift, index1, index2, r2)
    assert list(got) == list(want)
    for d in want:
        assert list(got[d].items()) == list(want[d].items())


# ---------- strands from the weight index ----------


def _t_spec():
    # t divisible, truncated at t
    return RingSpec(
        field=QQ, root_base=2, variables=(VarInfo("t", True),), truncations=((Fraction(1),),)
    )


def _t_family():
    return IdealFamily(name="I", spec=_t_spec(), root_vars=(0,))


def _xy_family():
    return IdealFamily(name="I", spec=_xy_spec(QQ), root_vars=(0, 1))


def _mixed_family():
    # roots(x), y on K[x^(1/2^l), y] / (x^2, y^2): x divisible, y not, so
    # a unit of y's exponent is denom units of integer weight
    spec = RingSpec(
        field=QQ,
        root_base=2,
        variables=(VarInfo("x", True), VarInfo("y", False)),
        truncations=((Fraction(2), F0), (F0, Fraction(2))),
    )
    return IdealFamily(name="I", spec=spec, root_vars=(0,), gens=((F0, Fraction(1)),))


def _scan_strand_weights(x, d, wmax, provider):
    """Generator weight plus a weight where the module's basis is nonempty."""
    ring = provider.ring
    ring_ws = [Fraction(n, ring.denom) for n in ring.basis_upto(ring.num_floor(wmax))]
    module_ws = [rw for rw in ring_ws if basis(ring, rw, provider)]
    return sorted(
        {gw + rw for gw in x.gens_at(d) for rw in module_ws if gw + rw <= wmax}
    )


def _strand_cases():
    """(name, complex, weight bound, family) for the t, x y and mixed specs
    at levels 1-3: an ideal resolution, its tensor square and the cone of
    the multiplication I (x) I -> I, whose generators are not sorted by
    weight."""
    for name, family in (("t", _t_family()), ("xy", _xy_family()), ("mixed", _mixed_family())):
        for level in (1, 2, 3):
            wmax = Fraction(2) if name == "t" or level < 3 else Fraction(1)
            ring = make_level_ring(family.spec, level)
            res = ideal_resolution(ring, family.gens_at(ring), dmax=3, wmax=wmax)
            sq, _ = tensor_complexes(res, res, dmax=3, wmax=wmax)
            cof = cofibre_cone(Tower(family.spec, family, 2, wmax), 1).at(level)
            for kind, x in (("res", res), ("square", sq), ("cone", cof)):
                yield f"{name}-l{level}-{kind}", x, wmax, family


def _strand_providers(ring, family):
    refs = (ring_module(), residue_module(), quotient_module(family), ideal_module(family))
    return [module_strands(ref, ring) for ref in refs]


def _check_blocks(x, d, n, provider, where):
    """The block strand of (d, n) against the tuple-indexed scan: the same
    pairs in the same order, pair(k) reading each position back, and
    offset[j] + pos[m] placing each pair where the scan's index does. Each
    block is a generator's run of the provider's own monomial list, at the
    offset the generator finds."""
    sb, ref = strand_basis(x, d, n, provider), ref_strand(x, d, n, provider)
    assert pairs_of(sb) == ref.pairs, where
    assert sb.size == len(ref.pairs) and sb.pos is provider.pos
    assert [j for j, _off, _ms in sb.blocks] == sorted(sb.offset), where
    for j, off, ms in sb.blocks:
        assert ms and sb.offset[j] == off, where
        assert ms is provider.basis_at(n - x.ring.num(x.gens_at(d)[j])), where
        for m in ms:
            assert off + sb.pos[m] == ref.index[(j, m)], where
    return sb


def test_indexed_strands_match_generator_scans():
    unsorted = 0
    for name, x, wmax, family in _strand_cases():
        for d in range(x.lo, x.hi + 1):
            weights = x.gens_at(d)
            unsorted += weights != sorted(weights)
            for provider in _strand_providers(x.ring, family):
                ns = strand_weights(x, d, x.ring.num_floor(wmax), provider)
                ws = [Fraction(n, x.ring.denom) for n in ns]
                assert ws == _scan_strand_weights(x, d, wmax, provider), (name, d)
                for n in ns:
                    _check_blocks(x, d, n, provider, (name, d, n))
    assert unsorted > 0  # the merge of weight groups back into generator order is exercised


def test_mixed_ring_strands_are_walked_in_integer_weights():
    for name, x, wmax, family in _strand_cases():
        if not name.startswith("mixed"):
            continue
        ring = x.ring
        assert ring.denom == 2**ring.level
        for d in range(x.lo, x.hi + 1):
            groups = x.gens_by_weight(d)
            assert all(isinstance(n, int) for n, _js in groups)
            assert [Fraction(n, ring.denom) for n, _js in groups] == sorted(set(x.gens_at(d)))
            # a weight off the lattice has no integer weight, and no module
            # monomials: its strand is empty
            off = Fraction(1, 2 * ring.denom)
            assert ring.num(off) is None
            for provider in _strand_providers(ring, family):
                assert basis(ring, off, provider) == []


def test_strand_matrix_needs_no_zero_test():
    # the row reader tests no product for zero, yet gives the rows of a
    # scan that does, in the same order: of every differential on every
    # module, and of the augmentation of every resolution, into R or onto
    # R/I
    compared = nonzero = 0
    for name, x, wmax, family in _strand_cases():
        for d in sorted(x.diff):
            for provider in _strand_providers(x.ring, family):
                for n in strand_weights(x, d, x.ring.num_floor(wmax), provider):
                    src = strand_basis(x, d, n, provider)
                    below = strand_basis(x, d - 1, n, provider)
                    rows = list(strand_rows(x.rows_at(d), below, src, x.ring))
                    want = strand_matrix(x, d, n, provider)
                    assert (len(rows), src.size) == (want.nrows, want.ncols)
                    assert rows == want.rows, (name, d, n)
                    skip = set(range(0, below.size, 2))
                    kept = list(strand_rows(x.rows_at(d), below, src, x.ring, skip=skip))
                    assert kept == [r for k, r in enumerate(want.rows) if k not in skip]
                    compared += 1
                    nonzero += any(want.rows)
    assert 0 < nonzero < compared
    compared = nonzero = 0
    for name, x, wmax, family in _strand_cases():
        if not name.endswith("-res"):
            continue
        ring, prov = x.ring, Strands(x.ring)
        quotient = minimal_resolution(ring, tuple(family.gens_at(ring)), 2, wmax)
        for res in (x, quotient):
            for n in strand_weights(res, 0, ring.num_floor(wmax), prov):
                src = _check_blocks(res, 0, n, prov, (name, n))
                rows, dst = out_rows(res, 0, n, prov, src)
                want, tgt = aug_matrix(res, n, ref_strand(res, 0, n, prov))
                assert pairs_of(dst) == [(0, m) for m in tgt]
                assert [dst.offset[0] + dst.pos[m] for m in tgt] == list(range(len(tgt)))
                assert list(rows) == want.rows, (name, res.aug_quotient, n)
                compared += 1
                nonzero += any(want.rows)
    assert 0 < nonzero < compared


def test_pushed_strand_vectors_match_a_scan_across_levels():
    # push_strand_vec along the lift res_1 -> res_2 over include_exp, on
    # every module: each unit vector of a level-1 strand, and their sum
    # with distinct coefficients, goes where a scan between the
    # tuple-indexed strands sends it
    pushed = nonzero = 0
    for name, family in (("t", _t_family()), ("xy", _xy_family()), ("mixed", _mixed_family())):
        wmax = Fraction(2) if name == "t" else Fraction(1)
        r1, r2 = make_level_ring(family.spec, 1), make_level_ring(family.spec, 2)
        res1 = ideal_resolution(r1, family.gens_at(r1), dmax=3, wmax=wmax)
        res2 = ideal_resolution(r2, family.gens_at(r2), dmax=3, wmax=wmax)
        lift = lift_chain_map(res1, res2, ring_map=r1.include_exp)
        F = r2.field
        for p1, p2 in zip(_strand_providers(r1, family), _strand_providers(r2, family)):
            for d in range(res1.lo, res1.hi + 1):
                cols = lift.entries_at(d)
                for n1 in strand_weights(res1, d, r1.num_floor(wmax), p1):
                    n2 = r2.num(Fraction(n1, r1.denom))
                    src, dst = strand_basis(res1, d, n1, p1), strand_basis(res2, d, n2, p2)
                    rsrc, rdst = ref_strand(res1, d, n1, p1), ref_strand(res2, d, n2, p2)
                    vecs = [{k: F.one} for k in range(src.size)]
                    vecs.append({k: F.normalize(k + 2) for k in range(src.size)})
                    for vec in vecs:
                        got = push_strand_vec(lift, cols, vec, src, dst)
                        want = scan_push(
                            cols, vec, rsrc, rdst, r2, lambda e: is_zero(p2, e), r1.include_exp
                        )
                        assert got == want, (name, d, n1)
                        pushed += 1
                        nonzero += bool(want)
    assert 0 < nonzero < pushed


def test_weight_index_groups_each_degree_once():
    ring = _ring(a=3)
    x = FreeComplex(ring=ring, gens={0: [Fraction(2), F0]})
    prov = Strands(ring)
    assert x.gens_by_weight(0) == [(0, [1]), (2, [0])]
    assert x.gens_by_weight(0) is x.gens_by_weight(0)  # built on first use and kept
    pairs = [(0, ring.pack((0,))), (1, ring.pack((2,)))]
    # level 0: integer weights are the weights themselves
    assert pairs_of(strand_basis(x, 0, 2, prov)) == pairs
    y = FreeComplex(ring=ring, gens={0: [Fraction(1)]})
    assert y.gens_by_weight(0) == [(1, [0])]
    assert pairs_of(strand_basis(y, 0, 2, prov)) == [(0, ring.pack((1,)))]
    assert strand_weights(y, 0, 2, prov) == [1, 2]
    assert y.gens_by_weight(1) == []


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "F7"])
def test_cancelling_terms_store_no_zero_entry(field):
    # add_image and strand_rows sum each coefficient into the strand
    # vector with operators, reduce it once by normalize and drop an
    # entry whose terms cancel; K[x]/x^3 with d_1 = x: 0 -> 1
    ring = _ring(a=3, field=field)
    x1, x2 = ring.pack((1,)), ring.pack((2,))
    x = FreeComplex(ring=ring, gens={0: [F0], 1: [Fraction(1)]}, diff={1: [((0, {x1: 1}),)]})
    prov = Strands(ring)
    dst, src = strand_basis(x, 0, 2, prov), strand_basis(x, 1, 2, prov)
    assert (pairs_of(dst), pairs_of(src)) == ([(0, x2)], [(0, x1)])
    one, two, minus = field.one, field.normalize(2), field.normalize(-1)
    out = {}
    add_image(out, x.diff[1][0], x1, dst, one, ring)
    assert out == {0: one}
    add_image(out, x.diff[1][0], x1, dst, minus, ring)
    assert out == {}
    add_image(out, ((0, {x1: two}), (0, {x1: minus})), x1, dst, minus, ring)
    assert out == {0: minus}
    add_image(out, ((0, {x1: two}), (0, {x1: minus})), x1, dst, one, ring)
    assert out == {}
    # a row index with two terms at the same pair of src
    assert list(strand_rows([(0, x1, one, 0, x1, minus)], dst, src, ring)) == [{}]
    assert list(strand_rows([(0, x1, two, 0, x1, minus)], dst, src, ring)) == [{0: one}]


def test_row_index_reads_each_differential_once():
    # K[x]/x^3 with d_1 = x: 0 -> 1, and another complex with d_1 = x^2
    ring = _ring(a=3)
    x1, x2 = ring.pack((1,)), ring.pack((2,))
    x = FreeComplex(ring=ring, gens={0: [F0], 1: [Fraction(1)]}, diff={1: [((0, {x1: 1}),)]})
    prov = Strands(ring)
    rows = x.rows_at(1)
    assert rows == [(0, x1, 1)]
    assert x.rows_at(1) is rows  # built on first use and kept
    dst = strand_basis(x, 0, 2, prov)
    assert pairs_of(dst) == [(0, x2)]
    src = strand_basis(x, 1, 2, prov)
    assert list(strand_rows(rows, dst, src, ring)) == [{0: 1}]
    y = FreeComplex(ring=ring, gens={0: [F0], 1: [Fraction(2)]}, diff={1: [((0, {x2: 1}),)]})
    assert y.rows_at(1) == [(0, x2, 1)]
    src = strand_basis(y, 1, 2, prov)
    assert list(strand_rows(y.rows_at(1), dst, src, ring)) == [{0: 1}]
    # a degree with no stored differential has one empty row per generator
    assert y.rows_at(0) == []
    assert y.rows_at(2) == [()]
