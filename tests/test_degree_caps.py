"""Exactness of the degree caps: every reader builds its complexes only
through the degree its reads need (see the rule in `derived`'s module
docstring). Raising every cap by two must leave each cell it reads, and
each report it returns, exactly as it was."""

import json
from fractions import Fraction

import pytest

import oracles
from idemq import almost, amitsur, derived
from idemq.almost import (
    gluing_square_check,
    is_almost_equivalence,
    module_identity_map,
    module_zero_map,
    power_multiplication_map,
)
from idemq.cli import main
from idemq.derived import (
    default_bounds,
    quotient_homotopy,
    residue_module,
    static_check,
    tower_report,
)
from idemq.fields import GF, QQ
from idemq.ideals import IdealFamily, roots_family
from idemq.rings import RingSpec, VarInfo, make_level_ring
from oracles import quotient_by_tower

F0 = Fraction(0)
F1 = Fraction(1)
WIDER = 2


def _spec_t(trunc=True):
    return RingSpec(QQ, 2, (VarInfo("t", True),), (((F1,),) if trunc else ()))


def _roots_xy_f7():
    spec = RingSpec(
        GF(7), 2, (VarInfo("x", True), VarInfo("y", True)), ((F1, F0), (F0, F1))
    )
    return IdealFamily(name="I", spec=spec, root_vars=(0, 1))


T = roots_family(_spec_t(), "t")


def _widened(owner, name, at, widened):
    """owner.name with its degree cap, positional argument `at`, raised
    by WIDER; each call is noted in widened."""
    make = getattr(owner, name)

    def wide(*args, **kwargs):
        widened.append(name)
        return make(*args[:at], args[at] + WIDER, *args[at + 1 :], **kwargs)

    return owner, name, wide


def _tower_targets(widened):
    """Every place a tower-side command fixes its degree cap: the tower
    (the gluing tensors take its cap) and the module resolutions."""
    return [
        _widened(owner, name, 2, widened)
        for owner in (derived, almost)
        for name in ("Tower", "resolution_family")
    ]


def _same_at_wider_caps(monkeypatch, run, targets=_tower_targets):
    """run() at the derived caps and with every cap in targets raised by
    WIDER: the reports, and every cell each level diagram read, agree.
    A diagram's family is logged by the order of its first read."""
    real_run = derived.LevelDiagram.run

    def reading(log):
        families = {}

        def run_logged(self, degrees, wmax, window, stop=None, first=None):
            degrees = list(degrees)
            out = real_run(self, degrees, wmax, window, stop, first)
            family = families.setdefault(self.family, len(families))
            log.append((family, tuple(self.levels), tuple(degrees), out))
            return out

        return run_logged

    narrow_cells, wide_cells, widened = [], [], []
    with monkeypatch.context() as mp:
        mp.setattr(derived.LevelDiagram, "run", reading(narrow_cells))
        narrow = run()
    with monkeypatch.context() as mp:
        mp.setattr(derived.LevelDiagram, "run", reading(wide_cells))
        for owner, name, wide in targets(widened):
            mp.setattr(owner, name, wide)
        wide = run()
    assert widened, "no cap was raised"
    assert wide_cells == narrow_cells
    assert wide == narrow
    return narrow


def test_quotient_route_reads_the_same_cells_at_a_wider_cap(monkeypatch):
    # base change reads Tor through N from a resolution built through
    # N + 1; the tower oracle reads Tower.Q(d + 2) at degree d, for d <= N,
    # on a tower built through N
    for family, N in ((T, 2), (roots_family(_spec_t(False), "t"), 2), (_roots_xy_f7(), 1)):
        for route in (quotient_by_tower, quotient_homotopy):
            qh = _same_at_wider_caps(monkeypatch, lambda: route(family.spec, family, N))
            assert qh.dims[0] == 1


@pytest.mark.parametrize("N", [1, 2])
def test_static_check_reads_the_same_cells_at_a_wider_cap(monkeypatch, N):
    # Tor in degrees 1..N, from a resolution built through N + 1
    sc = _same_at_wider_caps(monkeypatch, lambda: static_check(T.spec, T, N))
    assert sc.stable


def test_static_check_at_degree_zero_builds_nothing(tmp_path, capsys, monkeypatch):
    # H_0 cone(sigma_1) = I/I^2 = 0, so at --deg-max 0 there is no degree
    # to read: no complex is built and the quotient is static
    def no_family(*args, **kwargs):
        raise AssertionError("a complex was built")

    monkeypatch.setattr(derived.Family, "__init__", no_family)
    spec = tmp_path / "t.spec"
    spec.write_text("var t divisible\ntruncate t\nideal I = roots(t)\n")
    code = main(["static-check", str(spec), "--deg-max", "0", "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["certificates"] == {"levels": [], "static": True, "witness": None}


def _tower_report_targets(widened):
    """The tower-side caps and the power's own (derived._power), which
    the tower report fixes at 1 for X(n_max)."""
    return [*_tower_targets(widened), _widened(derived, "_power", 2, widened)]


@pytest.mark.parametrize("n_max,N", [(3, 2), (4, 1), (5, 0)])
def test_tower_report_reads_the_same_cells_at_a_wider_cap(monkeypatch, n_max, N):
    # the cofibres below n for n < n_max and H_0 of X_n, on a tower
    # built through n_max - 1 and an X(n_max) built through 1; n_max >=
    # N + 5 is where a cap tied to N read a degree it left inexact
    rep = _same_at_wider_caps(
        monkeypatch,
        lambda: tower_report(T.spec, T, n_max, default_bounds(N)),
        _tower_report_targets,
    )
    assert rep.ok


@pytest.mark.parametrize(
    "make",
    [
        lambda N, b: power_multiplication_map(T.spec, T, 2, N, b),
        lambda N, b: module_identity_map(T.spec, residue_module(), N, b),
        lambda N, b: module_zero_map(T.spec, residue_module(), N, b),
    ],
    ids=["power", "identity", "zero"],
)
def test_map_cones_read_the_same_cells_at_a_wider_cap(monkeypatch, make):
    N = 2
    b = default_bounds(N)
    v = _same_at_wider_caps(
        monkeypatch, lambda: is_almost_equivalence(T, make(N, b), bound=N, bounds=b)
    )
    assert v.stable


@pytest.mark.parametrize(
    "target", [{"module": residue_module()}, {"quotient_stage": 2}], ids=["module", "stage"]
)
def test_gluing_parts_read_the_same_cells_at_a_wider_cap(monkeypatch, target):
    # the fit and orthogonality parts, on a tower, module and tensors
    # built through N + 1
    g = _same_at_wider_caps(
        monkeypatch, lambda: gluing_square_check(T.spec, T, bound=1, **target)
    )
    assert g.cartesian is True


def _amitsur_targets(widened):
    return [
        _widened(oracles, name, 2, widened)
        for name in ("minimal_resolution", "tensor_complexes")
    ]


AMITSUR_CASES = pytest.mark.parametrize(
    "family,m,N",
    [(T, 3, 1), (T, 4, 2), (roots_family(_spec_t(False), "t"), 3, 1), (_roots_xy_f7(), 3, 1)],
    ids=["t-3-1", "t-4-2", "t-plain-3-1", "xy-f7-3-1"],
)


@AMITSUR_CASES
def test_amitsur_level_is_the_same_at_a_wider_cap(monkeypatch, family, m, N):
    # the oracle Tot^m: W through N + 2 and power k through N + 1 + k, at
    # levels 1 and 2
    rings = [make_level_ring(family.spec, l) for l in (1, 2)]
    wmax = default_bounds(N).weight_max

    def run():
        lo, hi = (oracles.amitsur_level(r, family, m, N, wmax) for r in rings)
        step = oracles.amitsur_step(lo, hi, rings[0].include_exp, m)
        return [(t.tot.gens, t.tot.diff, t.offsets) for t in (lo, hi)], step.entries

    _same_at_wider_caps(monkeypatch, run, _amitsur_targets)


def _amitsur_q_targets(widened):
    """The caps of Q(m + 1) on a tower built through N: the resolution
    of I and the powers, and the reference's module resolutions."""
    return [
        _widened(derived, name, 2, widened)
        for name in ("ideal_resolution", "minimal_resolution", "tensor_complexes")
    ]


@AMITSUR_CASES
def test_amitsur_check_reads_the_same_cells_at_a_wider_cap(monkeypatch, family, m, N):
    # Q(m + 1) read through N + 1, so X_{m+1} through N
    rep = _same_at_wider_caps(
        monkeypatch,
        lambda: amitsur.amitsur_crosscheck(family.spec, family, m, N),
        _amitsur_q_targets,
    )
    assert rep.all_agree()
