"""Every report of the benchmark's solves, and the largest elimination
over Q, byte for byte.

The spec templates and all solves but `qh-xy-q3`, `qh-xy-roots-x`,
`tower-n4`, `tower-n6` and the four `amitsur-*` solves after
`amitsur-t-q3` are those of perfbench/workloads.py, copied here so that
tier-1 does not depend on the benchmark. `tower-n6` holds the tower's
false H_0 cell at weight 17/16 (exit 4). The four Amitsur solves pin
each way a lazy attempt of the check can end: `amitsur-t-plain` and
`amitsur-xy-f7` settle, `amitsur-xy-roots-x` has an unstable reference
(exit 3), and `amitsur-t-d8` is held by the level cap (exit 3). `qh-xy-q3`
(quotient-homotopy over Q on the truncated x y spec at degree 3) is not
a benchmark solve, and neither is `qh-xy-roots-x`: its divisible y is
not a root variable, so base change stays on the level loop, and the
level cap leaves cells unstable (exit 3). The four quotient-homotopy
solves hold roots families, so they take base change (Tor over the
untruncated algebra), not the derived-power tower; every divisible
variable of theirs is a root variable, so base change descends to level
0, and so does `static-check`. LEVEL_LOOP pins these five reports with
base change settled by the level loop instead. TENSOR_ROUTE pins the
tower on the same four solves, run with `oracles.quotient_by_tower` in
place of `quotient_homotopy`: those reports are the ones these solves
gave before base change, and `qh-xy-q3` among them reduces the largest Q
strands tier-1 reaches. TOWER_BY_CONES runs the three tower solves with
each cofibre built as cone(sigma_n) (`oracles.cofibre_cone`) in place of
X_n read against R/I: the same reports. The digests are the SHA-256 of
each JSON report as it stood when its entry was written. A change meant
to alter a report re-records its digest and says why in CHANGES.md; any
other change must leave all of them alone.
"""

import hashlib

import pytest

from idemq import cli, derived
from idemq.cli import main
from oracles import (
    cofibre_cone,
    quotient_by_levels,
    quotient_by_tower,
    static_check_by_levels,
)

SPECS = {
    "t": ["var t divisible", "truncate t", "ideal I = roots(t)"],
    "t-plain": ["var t divisible", "ideal I = roots(t)", "ideal J = t"],
    "xy-f7": [
        "field Fp 7",
        "var x divisible",
        "var y divisible",
        "truncate x y",
        "ideal I = roots(x), roots(y)",
    ],
    "xy-q": [
        "field Q",
        "var x divisible",
        "var y divisible",
        "truncate x y",
        "ideal I = roots(x), roots(y)",
    ],
    "xy-roots-x": [
        "var x divisible",
        "var y divisible",
        "truncate x y",
        "ideal I = roots(x)",
    ],
}

# key -> (argv with {template} placeholders, exit code, sha256 of the report)
SOLVES = {
    "qh-t-q5": (
        ["quotient-homotopy", "{t}", "--deg-max", "5"],
        0,
        "431a2980207ed69e470947f961fd821c1fd55816c9185c4c39ffc98609f5649a",
    ),
    "qh-xy-f7": (
        ["quotient-homotopy", "{xy-f7}", "--deg-max", "2"],
        0,
        "7a5946cb4c73442127fd5976e1021a9173f7ec65a77173ed75137e894eb4414d",
    ),
    "qh-xy-q": (
        ["quotient-homotopy", "{xy-q}", "--deg-max", "2"],
        0,
        "a524a81606d018673ba655808209eef6ac36281b41bb8d613aba970fa0643249",
    ),
    "qh-xy-q3": (
        ["quotient-homotopy", "{xy-q}", "--deg-max", "3"],
        0,
        "8dab9478e294e8ad913401a56323e2576bb0f84a0867b4ef0f51b4caeac244c5",
    ),
    "qh-xy-roots-x": (
        ["quotient-homotopy", "{xy-roots-x}", "--deg-max", "1"],
        3,
        "030ff753638cd61927e8de17d0c2219395a333b8cc19fd57c75161d5e72e9bdd",
    ),
    "amitsur-t-q3": (
        ["amitsur-check", "{t}", "--deg-max", "3", "--depth", "5"],
        0,
        "77edc247d921d8a4399eb9dc5ed0067415662502d216fcaa101f218928703b74",
    ),
    "amitsur-t-plain": (
        ["amitsur-check", "{t-plain}", "--deg-max", "2", "--ideal", "I"],
        0,
        "36862ffa4be0be790a97043c2638840500be0b5a44c2e560ea0c2b0999feeb4a",
    ),
    "amitsur-xy-f7": (
        ["amitsur-check", "{xy-f7}", "--deg-max", "1", "--depth", "3"],
        0,
        "41c5d3f88ad14106bccaf981a91717cbcaebdb6733a292d1f08fb91c6234a1a7",
    ),
    "amitsur-xy-roots-x": (
        ["amitsur-check", "{xy-roots-x}", "--deg-max", "1", "--depth", "3"],
        3,
        "a79a5053761f2d1fef61b0e62a2ffa72db1e7a0d04f035cd8ec8c29d6bbac5d6",
    ),
    "amitsur-t-d8": (
        ["amitsur-check", "{t}", "--deg-max", "3", "--depth", "8"],
        3,
        "1afe3c5c57e77e3d3b543d7b206f5a2a5d05bf02a6673a50ebd9e2cf361704ac",
    ),
    "check-idempotent": (
        ["check-idempotent", "{t}"],
        0,
        "5fcdb1cde12fefcb9b329fa257bab2b2ac53a90e0468e9fcd50cf4bcc3325ea6",
    ),
    "tor-K-K": (
        ["tor", "{t}", "--left", "K", "--right", "K"],
        0,
        "1735da1eb0a9c9d8a42d24d1103335e8e1b253f53a73fa25720d690c9fadd9f2",
    ),
    "tor-I-RJ": (
        ["tor", "{t-plain}", "--left", "I", "--right", "R/J", "--deg-max", "1"],
        0,
        "a7a6ab3276b01b4544765bf96fa137b8e7b91a5777e471b5dae9550e0459ad0e",
    ),
    "static-check": (
        ["static-check", "{t}"],
        0,
        "c4ebf9e659585b1e5f6d820cd41b72247ad665275b383bddd5c161529f738ddc",
    ),
    "tower": (
        ["tower", "{t}", "--n-max", "5"],
        0,
        "68363d360b2d27570f52b2975ecc62e5fb72ae23892c355eb2ffa27880919215",
    ),
    "tower-n4": (
        ["tower", "{t}", "--n-max", "4"],
        0,
        "fb7e60704223c89552839dd8e58904e976f4e1cd2ebe60607a110e0657218191",
    ),
    "tower-n6": (
        ["tower", "{t}", "--n-max", "6"],
        4,
        "04d7b13b3aceb4eb400b77d54f665884830d8193fd376608957c6b062257e3e1",
    ),
    "almost-zero": (
        ["almost-zero", "{t}", "--module", "R"],
        0,
        "71d70ae37c954f74b662f2cc860097b585506632fc7bd893d99fe1a40e7d50d5",
    ),
    "almost-equiv": (
        ["almost-equiv", "{t}", "--map", "power:2"],
        0,
        "0470baeee77aa07048707357fc4dfeabf923954df729b025b5966a1bea6ec0e3",
    ),
    "gluing-check": (
        ["gluing-check", "{t}", "--module", "K"],
        0,
        "87c559abb301aac22bf665247e9779b981233ad8e05416e71098098dbfd737b2",
    ),
    "exterior-sum": (
        ["exterior-sum", "{t}", "{t}", "--left", "I", "--right", "I"],
        0,
        "35947f0a7b1873f1f5b4425f4b59f9ac2dca36f2750286da445e8f5bae2b37f5",
    ),
}


# key of a solve that descends -> sha256 of its report with base change
# settled by the level loop (oracles.quotient_by_levels and
# static_check_by_levels): the same tables, with the top level and the
# route note (the levels, for static-check) the level loop reads
LEVEL_LOOP = {
    "qh-t-q5": "bbd77f518f87f652f6586b9435c747733de38629aebf488193a3ed09ad66e965",
    "qh-xy-f7": "af5c70024901bf38365ead9ba418b12471562fdcdf057bf30e4a88f5d5041e86",
    "qh-xy-q": "5b13c4ca9e9978f678a902261cea8a8e12744e7a872a319ef9580ca2b29ce21e",
    "qh-xy-q3": "af4588593c9b0bd44184b42be7c91d1bead100990d2b16a736a1102cbd9c429c",
    "static-check": "cd15fbc1f5027530b4753b55cd48a6bc7ec0e20983f3fb023c8913687dbbdb78",
}


# key of a quotient-homotopy solve -> sha256 of its report on the
# tensor route (derived powers, oracles.quotient_by_tower)
TENSOR_ROUTE = {
    "qh-t-q5": "a977550548003f571bb51f85ba6ed67a6543e14ab0c529824eb4d29d14bee464",
    "qh-xy-f7": "a36ee9d1bc54a1ba2c8b634fd82194c52174494e662d90ae2a85ebe5e022a900",
    "qh-xy-q": "9df44ece0459e0c3aa3f53cc450757f92490e8c2e5b0feaba2e86013e4f96e2b",
    "qh-xy-q3": "ef346c9d385b26b6575a361598e40f25ec0427a80511f173e087ad807f8dc467",
}


# tower solves whose reports the cone route gives byte for byte
TOWER_BY_CONES = ("tower", "tower-n4", "tower-n6")


def _check(argv, want_code, want_digest, tmp_path, capsys):
    paths = {}
    for name, lines in SPECS.items():
        paths[name] = tmp_path / f"{name}.spec"
        paths[name].write_text("\n".join(lines) + "\n")
    argv = [str(paths[a[1:-1]]) if a.startswith("{") else a for a in argv]
    code = main(argv + ["--format", "json"])
    report = capsys.readouterr().out
    assert code == want_code
    assert hashlib.sha256(report.encode()).hexdigest() == want_digest


@pytest.mark.parametrize("key", list(SOLVES))
def test_report_is_byte_identical(key, tmp_path, capsys):
    _check(*SOLVES[key], tmp_path, capsys)


@pytest.mark.parametrize("key", list(TENSOR_ROUTE))
def test_tensor_route_report_is_byte_identical(key, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "quotient_homotopy", quotient_by_tower)
    argv, want_code, _ = SOLVES[key]
    _check(argv, want_code, TENSOR_ROUTE[key], tmp_path, capsys)


@pytest.mark.parametrize("key", list(LEVEL_LOOP))
def test_level_loop_report_is_byte_identical(key, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "quotient_homotopy", quotient_by_levels)
    monkeypatch.setattr(cli, "static_check", static_check_by_levels)
    argv, want_code, _ = SOLVES[key]
    _check(argv, want_code, LEVEL_LOOP[key], tmp_path, capsys)


@pytest.mark.parametrize("key", TOWER_BY_CONES)
def test_tower_by_cones_report_is_byte_identical(key, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(derived.Tower, "cofibre", cofibre_cone)
    _check(*SOLVES[key], tmp_path, capsys)
