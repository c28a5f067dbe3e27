"""Each command's status and exit code over fixed mixes of cell states.

The detector is replaced by a plan: every cell a level loop judges gets
the state its (part, degree) is planned to have, whatever its homology.
The kinds are "zero" (stable at 0), "nonzero" (stable at 1), "flight"
(unstable and in flight), "undet" (unstable, not in flight) and "none"
(no cell at all: the degree's homology reads 0 at every level). A part
names the family a cell belongs to where a command reads two kinds of
family: "cof" for the tower's cofibres (its powers are untagged), "tot"
for the Amitsur check's Q(m+1) (its reference is untagged) and "ann"
for the module resolution of the annihilation route (the tensor route's
Tor is untagged). A plain degree key plans the untagged cells of that
degree and every part without its own key. Unplanned cells are stable
at 0.

The plan acts through the detector's two functions
(derived.colimit_stabilize and derived.cell_in_flight) and the diagram's
homology read (derived.LevelDiagram.homology), and it tags families
where the tower, the Amitsur check and the annihilation route make them.
The test reads only the command line's reports, so it holds each
command's rule whatever shape the cells take inside the program:

- quotient-homotopy and static-check: an in-flight cell blocks (exit 3);
  static-check stays Stable with its witness when a stable nonzero cell
  exists;
- tor: only undetermined cells block, and in-flight cells are counted;
- almost-zero and almost-equiv: a degree is False on a stable nonzero
  cell, else None on an undetermined cell, else True; routes that
  disagree exit 4, and almost-equiv's one route exits 0 on False;
- gluing-check: exit 4 on a stable nonzero cell, and refused (exit 3)
  only on undetermined cells;
- tower: exit 4 on a connectivity failure or an H_0 mismatch, and exit 3
  only when an undetermined cofibre cell is not in flight;
- amitsur-check: the reference's in-flight cells block, and a
  disagreement between fully stable degrees exits 4.
"""

import json

import pytest

from idemq import almost, derived
from idemq.cli import main
from idemq.complexes import NO_HOMOLOGY

T_SPEC = "var t divisible\ntruncate t\nideal I = roots(t)\n"
# u is divisible and not a root variable, so base change takes the level
# loop, and Tor^A(K_S, R) = k[u^Q] (x) Koszul(t, s; k) fills degrees 0..2
LOOP_SPEC = (
    "var t divisible\nvar s divisible\nvar u divisible\n"
    "truncate t, s\nideal I = roots(t), roots(s)\n"
)
TU_SPEC = "var t divisible\nvar u divisible\ntruncate t\nideal I = roots(t)\n"
CAPS = ["--weight-max", "2", "--max-level", "2", "--window", "1"]


def _kind(plan, part, d):
    return plan.get((part, d), plan.get(d, "zero"))


@pytest.fixture
def planned(monkeypatch):
    plan = {}
    current = {}

    def kind():
        return _kind(plan, *current["cell"])

    homology = derived.LevelDiagram.homology

    def read(self, k, d, n):
        current["cell"] = (getattr(self.family, "status_part", ""), d)
        if kind() == "none":
            return NO_HOMOLOGY
        return homology(self, k, d, n)

    def stabilize(levels, dims, steps, window, first_rep, spans=None):
        return {"zero": (0, True), "nonzero": (1, True)}.get(kind(), (1, False))

    def tagged(method, part):
        def make(self, n):
            fam = method(self, n)
            fam.status_part = part
            return fam

        return make

    monkeypatch.setattr(derived.LevelDiagram, "homology", read)
    monkeypatch.setattr(derived, "colimit_stabilize", stabilize)
    monkeypatch.setattr(derived, "cell_in_flight", lambda dims, levels, window: kind() == "flight")
    monkeypatch.setattr(derived.Tower, "cofibre", tagged(derived.Tower.cofibre, "cof"))
    monkeypatch.setattr(derived.Tower, "Q", tagged(derived.Tower.Q, "tot"))
    resolution = almost.resolution_family

    def annihilated(*args):
        fam = resolution(*args)
        fam.status_part = "ann"
        return fam

    monkeypatch.setattr(almost, "resolution_family", annihilated)
    return plan


def _report(tmp_path, capsys, plan, planned, text, argv):
    planned.clear()
    planned.update(plan)
    spec = tmp_path / "problem.spec"
    spec.write_text(text)
    code = main([argv[0], str(spec), *argv[1:], *CAPS, "--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.mark.parametrize(
    "plan, code",
    [
        ({0: "nonzero", 1: "nonzero"}, 0),
        ({0: "nonzero", 1: "zero"}, 0),
        ({0: "nonzero", 1: "none"}, 0),
        ({0: "flight", 1: "zero"}, 3),
        ({0: "nonzero", 1: "flight"}, 3),
        ({0: "undet", 1: "nonzero"}, 3),
    ],
)
def test_quotient_homotopy_blocks_on_every_unstable_cell(tmp_path, capsys, planned, plan, code):
    got, rep = _report(tmp_path, capsys, plan, planned, TU_SPEC, ["quotient-homotopy", "--deg-max", "1"])
    assert (got, rep["status"]) == (code, ["Stable", "", "", "Unstable"][code])


@pytest.mark.parametrize(
    "plan, code, static, witness_degree",
    [
        ({1: "zero", 2: "zero"}, 0, True, None),
        ({1: "none", 2: "none"}, 0, True, None),
        ({1: "nonzero", 2: "zero"}, 0, False, 1),
        ({1: "flight", 2: "zero"}, 3, None, None),
        ({1: "undet", 2: "zero"}, 3, None, None),
        ({1: "flight", 2: "nonzero"}, 0, False, 2),
        ({1: "undet", 2: "nonzero"}, 0, False, 2),
        ({1: "nonzero", 2: "flight"}, 0, False, 1),
    ],
)
def test_static_check_keeps_its_witness_over_unstable_cells(
    tmp_path, capsys, planned, plan, code, static, witness_degree
):
    got, rep = _report(tmp_path, capsys, plan, planned, LOOP_SPEC, ["static-check", "--deg-max", "2"])
    cert = rep["certificates"]
    witness = cert["witness"] and cert["witness"][0]
    assert (got, cert["static"], witness) == (code, static, witness_degree)


@pytest.mark.parametrize(
    "plan, code, flight",
    [
        ({0: "nonzero", 1: "nonzero"}, 0, False),
        ({0: "nonzero", 1: "flight"}, 0, True),
        ({0: "flight", 1: "none"}, 0, True),
        ({0: "nonzero", 1: "undet"}, 3, False),
        ({0: "flight", 1: "undet"}, 3, True),
        ({0: "zero", 1: "zero"}, 0, False),
    ],
)
def test_tor_blocks_only_on_undetermined_cells(tmp_path, capsys, planned, plan, code, flight):
    got, rep = _report(
        tmp_path, capsys, plan, planned, T_SPEC,
        ["tor", "--left", "K", "--right", "K", "--deg-max", "1"],
    )
    cells = rep["tables"][0]["cells"]
    assert got == code
    assert rep["certificates"]["in_flight"] == sum(
        plan.get(c["degree"]) == "flight" for c in cells
    )
    assert (rep["certificates"]["in_flight"] > 0) == flight
    # stable zero cells are dropped from a derived table
    assert all(plan.get(c["degree"]) != "zero" for c in cells)


@pytest.mark.parametrize(
    "plan, code, verdict, tensor",
    [
        ({0: "zero"}, 0, True, True),
        ({0: "flight"}, 0, True, True),
        ({0: "undet"}, 3, None, None),
        ({0: "nonzero"}, 0, False, False),
        ({("ann", 0): "nonzero", 0: "zero"}, 4, False, True),
        ({("ann", 0): "undet", 0: "nonzero"}, 4, None, False),
        ({("ann", 0): "flight", 0: "undet"}, 4, True, None),
        ({("ann", 0): "none", 0: "flight"}, 0, True, True),
    ],
)
def test_almost_zero_reads_each_degree_and_compares_the_routes(
    tmp_path, capsys, planned, plan, code, verdict, tensor
):
    got, rep = _report(
        tmp_path, capsys, plan, planned, T_SPEC,
        ["almost-zero", "--module", "K", "--deg-max", "1"],
    )
    cert = rep["certificates"]
    # a resolution has no homology above degree 0, so degree 1 is True
    assert got == code
    assert cert["annihilation"]["verdict"] == {"0": verdict, "1": True}
    assert cert["tensor"]["verdict"] == {"0": tensor, "1": True}
    assert cert["agree"] == (verdict == tensor)
    # the almost tables list stable zero cells
    for table, part in zip(rep["tables"], ("ann", "")):
        for c in table["cells"]:
            assert (c["dim"], c["stable"]) == {
                "zero": (0, True), "nonzero": (1, True)
            }.get(_kind(plan, part, c["degree"]), (1, False))


@pytest.mark.parametrize(
    "plan, code, equivalence",
    [
        ({0: "zero", 1: "flight"}, 0, True),
        ({0: "zero", 1: "undet"}, 3, None),
        ({0: "nonzero", 1: "undet"}, 0, False),
        ({0: "none", 1: "nonzero"}, 0, False),
    ],
)
def test_almost_equiv_exits_0_on_any_definite_verdict(
    tmp_path, capsys, planned, plan, code, equivalence
):
    got, rep = _report(
        tmp_path, capsys, plan, planned, T_SPEC,
        ["almost-equiv", "--map", "power:2", "--deg-max", "1"],
    )
    assert (got, rep["certificates"]["almost_equivalence"]) == (code, equivalence)
    assert rep["certificates"]["in_flight"] == sum(
        c["stable"] is False for c in rep["tables"][0]["cells"] if plan[c["degree"]] == "flight"
    )


@pytest.mark.parametrize(
    "plan, code, cartesian",
    [
        ({0: "zero"}, 0, True),
        ({0: "flight"}, 0, True),
        ({0: "none"}, 0, True),
        ({0: "undet"}, 3, None),
        ({0: "nonzero"}, 4, False),
    ],
)
def test_gluing_refuses_only_on_undetermined_cells(tmp_path, capsys, planned, plan, code, cartesian):
    got, rep = _report(
        tmp_path, capsys, plan, planned, T_SPEC,
        ["gluing-check", "--module", "K", "--deg-max", "0"],
    )
    cert = rep["certificates"]
    assert (got, cert["cartesian"], cert["refused"]) == (code, cartesian, code == 3)
    assert (cert["witness"] is not None) == (code == 4)


@pytest.mark.parametrize(
    "plan, code, boundary, cof_boundary",
    [
        ({}, 0, True, True),
        ({("cof", 1): "nonzero"}, 4, True, True),
        ({0: "nonzero", ("cof", 0): "zero"}, 4, True, True),
        ({("cof", 0): "flight", ("cof", 1): "flight"}, 0, True, True),
        ({("cof", 1): "undet"}, 3, False, False),
        ({0: "undet", ("cof", 0): "zero"}, 0, False, True),
        ({0: "flight", ("cof", 0): "zero"}, 0, True, True),
        ({("cof", 1): "undet", 0: "nonzero", ("cof", 0): "zero"}, 4, False, False),
    ],
)
def test_tower_refuses_only_on_an_undetermined_cofibre_cell(
    tmp_path, capsys, planned, plan, code, boundary, cof_boundary
):
    got, rep = _report(tmp_path, capsys, plan, planned, T_SPEC, ["tower", "--n-max", "3"])
    cert = rep["certificates"]
    assert got == code
    assert (cert["undetermined_is_boundary"], cert["cof_undetermined_is_boundary"]) == (
        boundary, cof_boundary
    )
    failing = any(_kind(plan, "cof", d) == "nonzero" for d in (0, 1))
    assert bool(cert["connectivity_failures"]) == failing
    assert bool(cert["h0_mismatches"]) == (_kind(plan, "", 0) == "nonzero")


@pytest.mark.parametrize(
    "plan, code, agree",
    [
        ({}, 0, True),
        # both sides stable at 1, but on different weights
        ({0: "nonzero"}, 4, False),
        ({("tot", 0): "nonzero"}, 4, False),
        ({0: "nonzero", ("tot", 0): "zero"}, 4, False),
        ({0: "flight", ("tot", 0): "zero"}, 3, False),
        ({0: "undet", ("tot", 0): "zero"}, 3, False),
        # Q(m+1)'s own unstable cells count by the check's young horizon,
        # and at depth 2 below level 3 every cell is young
        ({("tot", 0): "flight"}, 0, True),
        ({("tot", 0): "undet"}, 0, True),
    ],
)
def test_amitsur_check_blocks_on_in_flight_reference_cells(
    tmp_path, capsys, planned, plan, code, agree
):
    got, rep = _report(
        tmp_path, capsys, plan, planned, TU_SPEC,
        ["amitsur-check", "--deg-max", "0", "--depth", "2"],
    )
    assert (got, rep["certificates"]["all_agree"]) == (code, agree)
