import random
from fractions import Fraction

import pytest

from idemq.almost import (
    exterior_sum,
    gluing_square_check,
    is_almost_equivalence,
    is_almost_zero,
    module_identity_map,
    module_zero_map,
    power_multiplication_map,
    tensor_zero_criterion,
    _glue_square,
)
from idemq.complexes import cone, cone_map
from idemq.derived import (
    Bounds,
    Tower,
    default_bounds,
    ideal_module,
    quotient_homotopy,
    quotient_module,
    residue_module,
    ring_module,
)
from idemq.fields import GF, QQ
from idemq.ideals import IdealFamily, check_idempotent, Idempotent, fixed_family
from idemq.rings import RingSpec, VarInfo
from oracles import check_chain_map, settled

F0 = Fraction(0)
F1 = Fraction(1)


def _spec_t(trunc=True):
    return RingSpec(
        field=QQ,
        root_base=2,
        variables=(VarInfo("t", True),),
        truncations=(((F1,),) if trunc else ()),
    )


def _spec_xy():
    return RingSpec(
        field=QQ,
        root_base=2,
        variables=(VarInfo("x", True), VarInfo("y", True)),
        truncations=((F1, F0), (F0, F1)),
    )


def _roots_t(spec, name="I"):
    return IdealFamily(name=name, spec=spec, root_vars=(0,))


# ---------- almost zero, both criteria ----------


def test_residue_field_is_almost_zero():
    spec = _spec_t()
    I = _roots_t(spec)
    for check in (is_almost_zero, tensor_zero_criterion):
        v = check(spec, I, residue_module(), bound=2)
        assert v.almost_zero is True
        assert None not in v.degrees.values()
        assert v.witnesses == {}


def test_ring_is_not_almost_zero():
    spec = _spec_t()
    I = _roots_t(spec)
    a = is_almost_zero(spec, I, ring_module(), bound=2)
    t = tensor_zero_criterion(spec, I, ring_module(), bound=2)
    assert a.almost_zero is False
    assert t.almost_zero is False
    # the ideal itself survives; smallest certified weight at the
    # default level cap
    assert a.witnesses[0] == Fraction(1, 16)
    assert t.witnesses[0] == a.witnesses[0]
    # degrees above 0 carry no module homology
    assert a.degrees[1] is True and a.degrees[2] is True


def test_idempotent_quotient_is_almost_zero():
    # R/I against I: each level leaves I(l)/I(l)^2 junk, but it moves
    # down the tower and dies
    spec = _spec_t()
    I = _roots_t(spec)
    a = is_almost_zero(spec, I, quotient_module(I), bound=2)
    t = tensor_zero_criterion(spec, I, quotient_module(I), bound=2)
    assert a.almost_zero is True
    assert t.almost_zero is True


def test_fixed_quotient_is_not_almost_zero():
    # J = (t^1/2) is not idempotent; I acts nontrivially on R/J at all
    # weights below 1/2
    spec = _spec_t()
    I = _roots_t(spec)
    J = fixed_family(spec, [(Fraction(1, 2),)], name="J")
    a = is_almost_zero(spec, I, quotient_module(J), bound=1)
    t = tensor_zero_criterion(spec, I, quotient_module(J), bound=1)
    assert a.almost_zero is False
    assert t.almost_zero is False
    assert a.witnesses[0] == t.witnesses[0] == Fraction(1, 16)


def test_annihilation_is_zero_per_level_on_split_quotient():
    # I = roots(x) on R/I: every level annihilates on the nose, no junk
    # in flight at all
    spec = _spec_xy()
    I = IdealFamily(name="Ix", spec=spec, root_vars=(0,))
    a = is_almost_zero(spec, I, quotient_module(I), bound=1)
    t = tensor_zero_criterion(spec, I, quotient_module(I), bound=1)
    assert a.almost_zero is True
    assert t.almost_zero is True
    assert all(r.value == 0 for r in a.cells.values())


def test_criteria_agree_on_random_quotients():
    rng = random.Random(41)
    b = Bounds(Fraction(2), 5, 2)
    for _ in range(10):
        nv = rng.choice([1, 2])
        variables = tuple(VarInfo(n, True) for n in "xy"[:nv])
        truncs = tuple(
            tuple(F1 if j == i else F0 for j in range(nv)) for i in range(nv)
        )
        spec = RingSpec(QQ, 2, variables, truncs)
        jroots = tuple(sorted(rng.sample(range(nv), rng.randint(1, nv))))
        gens = []
        for _ in range(rng.randint(0, 2)):
            g = [F0] * nv
            g[rng.randrange(nv)] = Fraction(
                rng.randint(1, 3), rng.choice([1, 2, 4])
            )
            if max(g) < 1:
                gens.append(tuple(g))
        J = IdealFamily(name="J", spec=spec, root_vars=jroots, gens=tuple(gens))
        I = IdealFamily(
            name="I",
            spec=spec,
            root_vars=tuple(sorted(rng.sample(range(nv), rng.randint(1, nv)))),
        )
        a = is_almost_zero(spec, I, quotient_module(J), bound=1, bounds=b)
        t = tensor_zero_criterion(spec, I, quotient_module(J), bound=1, bounds=b)
        assert a.degrees[0] == t.degrees[0]
        assert a.witnesses.get(0) == t.witnesses.get(0)


# ---------- almost equivalences ----------


def test_model_map_is_almost_equivalence():
    # X_3 -> R: the cone is the stage-3 quotient model, almost zero
    spec = _spec_t()
    I = _roots_t(spec)
    b = default_bounds(2)
    f = power_multiplication_map(spec, I, 3, 2, b)
    v = is_almost_equivalence(I, f, bound=2, bounds=b)
    assert v.almost_zero is True
    assert v.degrees == {0: True, 1: True, 2: True}


def test_identity_is_almost_equivalence():
    spec = _spec_t()
    I = _roots_t(spec)
    b = default_bounds(2)
    f = module_identity_map(spec, residue_module(), 2, b)
    v = is_almost_equivalence(I, f, bound=2, bounds=b)
    assert v.almost_zero is True


def test_zero_map_on_ring_is_not_almost_equivalence():
    # cone(0: R -> R) = R + R[1], and I acts freely on both
    spec = _spec_t()
    I = _roots_t(spec)
    b = default_bounds(2)
    f = module_zero_map(spec, ring_module(), 2, b)
    v = is_almost_equivalence(I, f, bound=2, bounds=b)
    assert v.almost_zero is False
    assert v.degrees[0] is False and v.degrees[1] is False
    assert v.degrees[2] is True
    assert v.witnesses[0] == v.witnesses[1] == Fraction(1, 16)


def test_cone_transition_is_a_chain_map():
    spec = _spec_t()
    I = _roots_t(spec)
    b = default_bounds(1)
    f = power_multiplication_map(spec, I, 2, 1, b)
    step = cone_map(f.src.step(1), f.dst.step(1), cone(f.at(1)), cone(f.at(2)))
    check_chain_map(step)


# ---------- gluing square ----------


def test_gluing_square_ring():
    spec = _spec_t()
    I = _roots_t(spec)
    g = gluing_square_check(spec, I, module=ring_module(), bound=2)
    assert g.cartesian is True
    assert not g.refused
    assert g.stages == (5, 4)


def test_gluing_square_quotient_stage():
    # one corner collapses: the closed piece of a quotient model is the
    # quotient again
    spec = _spec_t()
    I = _roots_t(spec)
    g = gluing_square_check(spec, I, quotient_stage=2, bound=1)
    assert g.cartesian is True
    assert not g.refused


def test_gluing_square_zero_module():
    spec = _spec_t()
    I = _roots_t(spec)
    g = gluing_square_check(
        spec, I, module=ideal_module(fixed_family(spec, [], name="Z")), bound=2
    )
    assert g.cartesian is True
    assert g.fit == g.orth == {}


def test_gluing_refuses_short_tower():
    spec = _spec_t()
    I = _roots_t(spec)
    g = gluing_square_check(
        spec, I, module=ring_module(), bound=2, bounds=Bounds(Fraction(3, 2), 2, 2)
    )
    assert g.cartesian is None
    assert g.refused
    assert "undetermined" in g.reason


def test_gluing_requires_one_target():
    spec = _spec_t()
    I = _roots_t(spec)
    with pytest.raises(ValueError):
        gluing_square_check(spec, I)
    with pytest.raises(ValueError):
        gluing_square_check(spec, I, module=ring_module(), quotient_stage=2)


def test_gluing_steps_are_chain_maps():
    spec = _spec_t()
    I = _roots_t(spec)
    tower = Tower(spec, I, 4, F1)
    double, closed = _glue_square(tower, tower.unit, 3, 2)
    for l in (1, 2):
        check_chain_map(double.step(l))
        check_chain_map(closed.step(l))


# ---------- exterior sums ----------


def test_exterior_sum_shapes():
    sa = _spec_t()
    sb = RingSpec(QQ, 2, (VarInfo("u", True),), ((F1,),))
    Ia = _roots_t(sa, name="Ia")
    Jb = fixed_family(sb, [(Fraction(1, 2),)], name="Jb")
    joint, fam = exterior_sum(sa, Ia, sb, Jb)
    assert [v.name for v in joint.variables] == ["t", "u"]
    assert joint.truncations == ((F1, F0), (F0, F1))
    assert fam.root_vars == (0,)
    assert fam.gens == ((F0, Fraction(1, 2)),)
    assert fam.name == "Ia+Jb"


def test_exterior_sum_matches_joint_roots():
    sa = _spec_t()
    sb = RingSpec(QQ, 2, (VarInfo("u", True),), ((F1,),))
    joint, fam = exterior_sum(sa, _roots_t(sa), sb, IdealFamily(name="J", spec=sb, root_vars=(0,)))
    assert isinstance(check_idempotent(fam), Idempotent)
    qh = quotient_homotopy(joint, fam, 2)
    assert qh.dims == (1, 2, 1)
    assert settled(qh.table)


def test_exterior_sum_with_zero_family():
    sa = _spec_t()
    sb = RingSpec(QQ, 2, (VarInfo("u", True),), ((F1,),))
    joint, fam = exterior_sum(sa, _roots_t(sa), sb, fixed_family(sb, [], name="0"))
    assert fam.root_vars == (0,)
    assert fam.gens == ()


def test_exterior_sum_rejects_mismatches():
    sa = _spec_t()
    Ia = _roots_t(sa, name="Ia")
    sb7 = RingSpec(GF(7), 2, (VarInfo("u", True),), ((F1,),))
    with pytest.raises(ValueError, match="field"):
        exterior_sum(sa, Ia, sb7, IdealFamily(name="J", spec=sb7, root_vars=(0,)))
    sb3 = RingSpec(QQ, 3, (VarInfo("u", True),), ((F1,),))
    with pytest.raises(ValueError, match="root base"):
        exterior_sum(sa, Ia, sb3, IdealFamily(name="J", spec=sb3, root_vars=(0,)))
    # colliding names are not a mismatch: the docstring promises side
    # suffixes, so a spec can be summed with itself
    joint, _ = exterior_sum(sa, Ia, sa, _roots_t(sa, name="Ib"))
    assert [v.name for v in joint.variables] == ["t_1", "t_2"]
    sb = RingSpec(QQ, 2, (VarInfo("u", True),), ((F1,),))
    with pytest.raises(ValueError, match="different spec"):
        exterior_sum(sa, Ia, sb, Ia)
