import csv
import hashlib
import io
import json
import time

import pytest

from idemq.cli import main

T_SPEC = """\
var t divisible
truncate t
ideal I = roots(t)
"""

PLAIN_SPEC = """\
var t divisible
ideal I = roots(t)
ideal J = t
"""


def _write(tmp_path, text, name="problem.spec"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(capsys, argv):
    code, out, err = _run(capsys, argv + ["--format", "json"])
    return code, (json.loads(out) if out else None), err


# ---------- verdict commands and exit codes ----------


def test_check_idempotent_roots_family(tmp_path, capsys):
    spec = _write(tmp_path, T_SPEC)
    code, rep, _ = _run_json(capsys, ["check-idempotent", spec])
    assert code == 0
    assert rep["status"] == "Stable"
    assert rep["command"] == "check-idempotent"
    assert len(rep["spec_hash"]) == 64


def test_check_idempotent_falsified(tmp_path, capsys):
    spec = _write(tmp_path, PLAIN_SPEC)
    code, rep, _ = _run_json(capsys, ["check-idempotent", spec, "--ideal", "J"])
    assert code == 4
    assert rep["status"] == "Falsified"
    assert rep["certificates"]["witness"] is not None


def test_quotient_homotopy_dims(tmp_path, capsys):
    spec = _write(tmp_path, T_SPEC)
    code, rep, _ = _run_json(capsys, ["quotient-homotopy", spec, "--deg-max", "2"])
    assert code == 0
    cells = rep["tables"][0]["cells"]
    dims = [0, 0, 0]
    for c in cells:
        if c["stable"]:
            dims[c["degree"]] += c["dim"]
    assert dims == [1, 1, 0]
    assert all(isinstance(c["weight"], str) for c in cells)


def test_static_check_truncated_is_static(tmp_path, capsys):
    # For R = Q[t^(1/2^oo)]/(t) and K = R/I = Q, the cone of
    # I (x)^L I -> I is I (x)^L K. From I -> R -> K and
    # Tor_1(K, K) = I/I^2 = 0, H_1(I (x)^L K) = Tor_2(K, K), which is
    # nonzero at weight 1 (the relation t = 0; `tor --left K --right K`
    # agrees). So the truncated quotient is not static, witness (1, 1).
    spec = _write(tmp_path, T_SPEC)
    code, rep, _ = _run_json(capsys, ["static-check", spec, "--deg-max", "1"])
    assert code == 0
    assert rep["certificates"]["static"] is False
    assert rep["certificates"]["witness"] == [1, "1"]
    # without the truncation I is flat, I (x)^L I = I^2 = I: static
    plain = _write(tmp_path, PLAIN_SPEC, "plain.spec")
    code, rep, _ = _run_json(
        capsys, ["static-check", plain, "--ideal", "I", "--deg-max", "1"]
    )
    assert code == 0
    assert rep["certificates"]["static"] is True


def test_almost_zero_routes_agree(tmp_path, capsys):
    spec = _write(tmp_path, T_SPEC)
    code, rep, _ = _run_json(capsys, ["almost-zero", spec, "--module", "R"])
    # R itself is not almost zero, but both criteria say so in agreement
    assert code == 0
    assert rep["status"] == "Stable"
    assert rep["certificates"]["agree"] is True
    assert rep["certificates"]["almost_zero"] is False
    names = [t["name"] for t in rep["tables"]]
    assert names == ["annihilation", "tensor"]


def test_gluing_refuses_on_short_tower(tmp_path, capsys):
    spec = _write(tmp_path, T_SPEC)
    code, rep, _ = _run_json(
        capsys, ["gluing-check", spec, "--module", "R", "--max-level", "2"]
    )
    assert code == 3
    assert rep["status"] == "Unstable"
    assert rep["certificates"]["refused"] is True
    assert "undetermined" in rep["certificates"]["reason"]


def test_tower_report_stable(tmp_path, capsys):
    spec = _write(tmp_path, T_SPEC)
    code, rep, _ = _run_json(
        capsys,
        ["tower", spec, "--n-max", "3", "--deg-max", "2", "--weight-max", "1"],
    )
    assert code == 0
    assert rep["certificates"]["ok"] is True
    assert rep["certificates"]["connectivity_failures"] == []


def test_amitsur_check_agrees(tmp_path, capsys):
    spec = _write(tmp_path, T_SPEC)
    code, rep, _ = _run_json(capsys, ["amitsur-check", spec, "--deg-max", "1"])
    assert code == 0
    assert rep["status"] == "Stable"
    assert rep["certificates"]["m"] == 5


def test_amitsur_depth_setting_is_the_default_for_depth(tmp_path, capsys):
    spec = _write(tmp_path, T_SPEC + "set amitsur_depth 3\n")
    code, rep, _ = _run_json(capsys, ["amitsur-check", spec, "--deg-max", "1"])
    assert code == 0
    assert rep["certificates"]["m"] == 3
    code, rep, _ = _run_json(
        capsys, ["amitsur-check", spec, "--deg-max", "1", "--depth", "4"]
    )
    assert code == 0
    assert rep["certificates"]["m"] == 4
    # the setting reaches the depth check: N=1 needs a depth of at least 3
    shallow = _write(tmp_path, T_SPEC + "set amitsur_depth 2\n", "shallow.spec")
    code, out, err = _run(capsys, ["amitsur-check", shallow, "--deg-max", "1"])
    assert code == 2
    assert out == ""
    assert err == "idemq: error: cosimplicial truncation m=2 needs m >= N+2=3\n"


def test_seed_flag_is_gone(tmp_path, capsys):
    spec = _write(tmp_path, T_SPEC)
    with pytest.raises(SystemExit) as exc:
        main(["quotient-homotopy", spec, "--seed", "7"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 7" in capsys.readouterr().err


def test_check_idempotent_depth_flag_is_gone(tmp_path, capsys):
    # the monomial test always decides, so there was no depth to cap
    spec = _write(tmp_path, PLAIN_SPEC)
    with pytest.raises(SystemExit) as exc:
        main(["check-idempotent", spec, "--ideal", "I", "--depth", "0"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --depth 0" in capsys.readouterr().err


# ---------- usage errors ----------


def test_spec_error_is_positioned(tmp_path, capsys):
    spec = _write(tmp_path, "var t divisible\nideal I = u\n")
    code, out, err = _run(capsys, ["check-idempotent", spec])
    assert code == 2
    assert out == ""
    assert "line 2: unknown variable 'u'" in err


def test_spec_without_ideals_says_so(tmp_path, capsys):
    spec = _write(tmp_path, "var t divisible\ntruncate t\n")
    for command in ("quotient-homotopy", "check-idempotent", "static-check"):
        code, out, err = _run(capsys, [command, spec])
        assert code == 2
        assert out == ""
        assert "spec declares no ideal" in err


def test_bad_module_expression(tmp_path, capsys):
    spec = _write(tmp_path, T_SPEC)
    code, _, err = _run(capsys, ["almost-zero", spec, "--module", "Spec(R)"])
    assert code == 2
    assert "bad module" in err


def test_ambiguous_ideal_needs_flag(tmp_path, capsys):
    spec = _write(tmp_path, PLAIN_SPEC)
    code, _, err = _run(capsys, ["quotient-homotopy", spec])
    assert code == 2
    assert "--ideal" in err


def test_unknown_command_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "x.spec"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, setting, message",
    [
        (["tor", "--left", "I", "--right", "R/J", "--deg-max", "1", "--window", "0"],
         "", "--window must be at least 1, got 0"),
        (["tor", "--left", "I", "--right", "R/J", "--deg-max", "1"],
         "set window 0\n", "set window must be at least 1, got 0"),
        (["quotient-homotopy", "--ideal", "I", "--deg-max", "-1"],
         "", "--deg-max must be at least 0, got -1"),
        (["quotient-homotopy", "--ideal", "I"],
         "set deg_max -2\n", "set deg_max must be at least 0, got -2"),
        (["quotient-homotopy", "--ideal", "I", "--max-level", "0"],
         "", "--max-level must be at least 1, got 0"),
        (["quotient-homotopy", "--ideal", "I", "--weight-max", "-1"],
         "", "--weight-max must be greater than 0, got -1"),
        (["quotient-homotopy", "--ideal", "I", "--weight-max", "0"],
         "", "--weight-max must be greater than 0, got 0"),
        (["quotient-homotopy", "--ideal", "I"],
         "set weight_max -1/2\n", "set weight_max must be greater than 0, got -1/2"),
        (["tower", "--ideal", "I", "--n-max", "0"],
         "", "--n-max must be at least 1, got 0"),
        (["tower", "--ideal", "I", "--n-max", "-1"],
         "", "--n-max must be at least 1, got -1"),
        (["amitsur-check", "--ideal", "I", "--depth", "0"],
         "", "--depth must be at least 1, got 0"),
        (["amitsur-check", "--ideal", "I", "--depth", "-1"],
         "", "--depth must be at least 1, got -1"),
        (["amitsur-check", "--depth", "0", "--ideal", "I"],
         "", "--depth must be at least 1, got 0"),
        (["amitsur-check", "--ideal", "I"],
         "set amitsur_depth 0\n", "set amitsur_depth must be at least 1, got 0"),
        (["tor", "--left", "I", "--right", "R/J", "--deg-max", "1", "--deg-min", "5"],
         "", "--deg-min must be between 0 and deg_max 1, got 5"),
        (["tor", "--left", "I", "--right", "R/J", "--deg-max", "1", "--deg-min", "-1"],
         "", "--deg-min must be between 0 and deg_max 1, got -1"),
    ],
)
def test_out_of_range_settings_exit_2(tmp_path, capsys, argv, setting, message):
    spec = _write(tmp_path, PLAIN_SPEC + setting)
    code, out, err = _run(capsys, [argv[0], spec] + argv[1:])
    assert code == 2
    assert out == ""
    assert err == f"idemq: error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["quotient-homotopy"],
        ["static-check"],
        ["almost-zero", "--module", "R/J"],
        ["almost-equiv", "--map", "power:2"],
        ["gluing-check", "--module", "K"],
    ],
)
def test_non_idempotent_acting_ideal_exits_2(tmp_path, capsys, argv):
    # J = (t) has J*J = (t^2) != J, and every answer here is taken with
    # respect to an idempotent ideal; `tower` is not refused, because its
    # Falsified on J is true (H_0 of the n-th power is J^n)
    spec = _write(tmp_path, PLAIN_SPEC)
    code, out, err = _run(capsys, [argv[0], spec, "--ideal", "J", "--deg-max", "0"] + argv[1:])
    assert code == 2
    assert out == ""
    assert err == (
        "idemq: error: ideal J is not idempotent (witness t); the derived quotient"
        " and the almost verdicts need an idempotent family\n"
    )


@pytest.mark.parametrize(
    "argv, cap",
    [
        (["tor", "--left", "I", "--right", "K"], 6),
        (["quotient-homotopy"], 6),
        (["tower", "--n-max", "2"], 6),
        (["static-check"], 6),
        (["almost-zero", "--module", "R"], 6),
        (["almost-equiv", "--map", "power:2"], 6),
        (["gluing-check", "--module", "K"], 5),
        (["amitsur-check"], 6),
    ],
)
def test_family_above_the_level_cap_exits_2(tmp_path, capsys, argv, cap):
    # t^{1/256} first exists at level 8, above every default cap
    spec = _write(tmp_path, "var t divisible\ntruncate t\nideal I = roots(t), t^{1/256}\n")
    code, out, err = _run(capsys, [argv[0], spec, "--deg-max", "1"] + argv[1:])
    assert code == 2
    assert out == ""
    assert err == f"idemq: error: the family starts at level 8, above the level cap {cap}\n"


@pytest.mark.parametrize("value", ["1/0", "abc"])
def test_weight_max_that_is_not_a_fraction_exits_2(tmp_path, capsys, value):
    spec = _write(tmp_path, PLAIN_SPEC)
    with pytest.raises(SystemExit) as exc:
        main(["quotient-homotopy", spec, "--ideal", "I", "--weight-max", value])
    assert exc.value.code == 2
    assert f"--weight-max: not a fraction: '{value}'" in capsys.readouterr().err


def test_weight_max_too_wide_for_the_basis_walk_exits_2(tmp_path, capsys):
    # two untruncated variables, a weight cap just below the level-0 field
    # cap (2^16): the basis walk would visit 65536^2 exponent vectors, so
    # it is refused before it starts
    spec = _write(tmp_path, "var x\nvar y\nideal J = x\nideal K = y\n")
    argv = ["tor", spec, "--left", "J", "--right", "R/K", "--deg-max", "0"]
    t0 = time.perf_counter()
    code, out, err = _run(capsys, argv + ["--weight-max", "65535"])
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert out == ""
    assert "spans 4294967296 exponent vectors" in err
    assert err.endswith("lower --weight-max\n")


def test_internal_fault_exits_5_without_traceback(tmp_path, capsys, monkeypatch):
    from idemq import derived

    def broken(*args, **kwargs):
        raise AssertionError("not a chain map at degree 1, source gen 0, row 0")

    monkeypatch.setattr(derived, "lift_chain_map", broken)
    spec = _write(tmp_path, T_SPEC)
    code, out, err = _run(capsys, ["quotient-homotopy", spec, "--deg-max", "1"])
    assert code == 5
    assert out == ""
    assert err == (
        "idemq: internal error: not a chain map at degree 1, source gen 0, row 0\n"
    )
    assert "Traceback" not in err


def test_failed_lift_exits_5(tmp_path, capsys, monkeypatch):
    # over a resolution every lift exists; a system without a solution is
    # an internal fault, not a usage error
    from idemq import complexes

    monkeypatch.setattr(complexes, "solve_rows", lambda *args: None)
    spec = _write(tmp_path, T_SPEC)
    code, out, err = _run(capsys, ["quotient-homotopy", spec, "--deg-max", "1"])
    assert code == 5
    assert out == ""
    assert err == "idemq: internal error: no lift at degree 0, generator 0\n"


def test_gluing_wants_exactly_one_target(tmp_path, capsys):
    spec = _write(tmp_path, T_SPEC)
    code, _, err = _run(capsys, ["gluing-check", spec])
    assert code == 2
    assert "exactly one" in err


# ---------- output formats ----------


def test_json_reports_are_byte_identical(tmp_path, capsys):
    spec = _write(tmp_path, T_SPEC)
    argv = ["quotient-homotopy", spec, "--deg-max", "1", "--format", "json"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second
    assert first.endswith("\n")


def test_csv_has_cell_and_certificate_rows(tmp_path, capsys):
    spec = _write(tmp_path, T_SPEC)
    code, out, _ = _run(
        capsys, ["quotient-homotopy", spec, "--deg-max", "1", "--format", "csv"]
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["kind", "table", "degree", "weight", "value", "stable"]
    kinds = {r[0] for r in rows[1:]}
    assert "cell" in kinds
    assert "certificate" in kinds


def test_pretty_output_mentions_status(tmp_path, capsys):
    spec = _write(tmp_path, T_SPEC)
    code, out, _ = _run(capsys, ["check-idempotent", spec])
    assert code == 0
    assert "status: Stable" in out


# ---------- tor and exterior sum ----------


def test_tor_table_schema(tmp_path, capsys):
    spec = _write(tmp_path, T_SPEC)
    code, rep, _ = _run_json(
        capsys, ["tor", spec, "--left", "I", "--right", "K", "--deg-max", "3"]
    )
    assert code == 0
    table = rep["tables"][0]
    assert set(table) == {"name", "trusted_degree_max", "cells"}
    dims = [0, 0, 0, 0]
    for c in table["cells"]:
        assert set(c) == {"degree", "weight", "dim", "stable"}
        if c["stable"]:
            dims[c["degree"]] += c["dim"]
    assert dims == [0, 1, 0, 1]


def test_tor_right_can_be_quotient(tmp_path, capsys):
    spec = _write(tmp_path, PLAIN_SPEC)
    code, rep, _ = _run_json(
        capsys, ["tor", spec, "--left", "I", "--right", "R/J", "--deg-max", "1"]
    )
    assert code == 0
    assert rep["status"] in ("Stable", "Unstable")


def test_tor_frontier_cells_are_in_flight(tmp_path, capsys):
    # Tor_0(I, R/J) = I/tI has a class at every dyadic weight in (0, 1];
    # the weights k/32 first appear one level below the cap and can
    # never get a full window, so they are in flight, not undetermined
    spec = _write(tmp_path, PLAIN_SPEC)
    code, rep, _ = _run_json(
        capsys, ["tor", spec, "--left", "I", "--right", "R/J", "--deg-max", "1"]
    )
    assert code == 0
    assert rep["status"] == "Stable"
    assert rep["certificates"]["in_flight"] == 16
    loose = [c["weight"] for c in rep["tables"][0]["cells"] if not c["stable"]]
    assert loose == [f"{k}/32" for k in range(1, 32, 2)]


# t^(2^40) has an exponent far above every field of a level's packed
# monomials: as a truncation or an ideal generator it kills nothing and
# holds nothing below the weight cap, so both runs read as if it were
# absent. The digests are the SHA-256 of stdout as the tuple-monomial
# code printed it.
HUGE_T_SPEC = """\
var t divisible
truncate t^1099511627776
ideal I = roots(t)
"""


@pytest.mark.parametrize(
    "extra, argv, digest",
    [
        (
            "",
            ["quotient-homotopy", "--deg-max", "2"],
            "622507e546f1caede4ca2b63ed828bd6bcc5de1557640786beeb47648b3e9e53",
        ),
        (
            "ideal J = t^1099511627776\n",
            ["tor", "--left", "I", "--right", "R/J", "--deg-max", "1"],
            "533f8add592811959bc6c6ee0a5734c1ccdc2cd98dcfe74591fb80a99766583d",
        ),
    ],
    ids=["quotient-homotopy", "tor-I-RJ"],
)
def test_exponents_too_large_for_a_field_change_no_report(tmp_path, capsys, extra, argv, digest):
    spec = _write(tmp_path, HUGE_T_SPEC + extra)
    code, out, _ = _run(capsys, argv[:1] + [spec] + argv[1:])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_tor_short_tower_is_unstable(tmp_path, capsys):
    # at max level 1 the weight-1 class, alive from level 0, never gets
    # its window: undetermined, not in flight
    spec = _write(tmp_path, PLAIN_SPEC)
    code, rep, _ = _run_json(
        capsys,
        ["tor", spec, "--left", "I", "--right", "R/J", "--deg-max", "1",
         "--max-level", "1"],
    )
    assert code == 3
    assert rep["status"] == "Unstable"
    assert rep["certificates"]["in_flight"] == 1


def test_tower_short_tower_uses_the_tor_in_flight_rule(tmp_path, capsys):
    # at max level 1 the H_0 cells are alive from level 0: undersampled,
    # not in flight, as in tor; the cofibre frontier stays clear, so the
    # connectivity certificate still holds
    spec = _write(tmp_path, PLAIN_SPEC)
    code, rep, _ = _run_json(
        capsys, ["tower", spec, "--ideal", "I", "--n-max", "3", "--max-level", "1"]
    )
    assert code == 0
    assert rep["status"] == "Stable"
    cert = rep["certificates"]
    assert cert["levels"] == [0, 1]
    assert [0, "1"] in [u[1:] for u in cert["undetermined"]]
    assert cert["undetermined_is_boundary"] is False
    assert cert["cof_undetermined_is_boundary"] is True


def test_exterior_sum_emits_parseable_spec(tmp_path, capsys):
    from idemq.specfile import parse_spec

    a = _write(tmp_path, T_SPEC, "a.spec")
    b = _write(tmp_path, T_SPEC, "b.spec")
    code, out, _ = _run(
        capsys, ["exterior-sum", a, b, "--left", "I", "--right", "I"]
    )
    assert code == 0
    joint = parse_spec(out)
    assert len(joint.ring.variables) == 2
    assert len(joint.ideals) == 1


def test_exterior_sum_json_embeds_spec(tmp_path, capsys):
    a = _write(tmp_path, T_SPEC, "a.spec")
    b = _write(tmp_path, T_SPEC, "b.spec")
    code, rep, _ = _run_json(
        capsys, ["exterior-sum", a, b, "--left", "I", "--right", "I", "--name", "S"]
    )
    assert code == 0
    assert rep["certificates"]["ideal"] == "S"
    assert "var t_1 divisible" in rep["certificates"]["spec"]


def test_exterior_sum_default_name_selects_ideal(tmp_path, capsys):
    a = _write(tmp_path, T_SPEC, "a.spec")
    code, out, _ = _run(
        capsys, ["exterior-sum", a, a, "--left", "I", "--right", "I"]
    )
    assert code == 0
    assert "ideal I+I = roots(t_1), roots(t_2)" in out
    joint = _write(tmp_path, out, "joint.spec")
    code, rep, _ = _run_json(capsys, ["check-idempotent", joint, "--ideal", "I+I"])
    assert code == 0
    assert rep["certificates"]["idempotent"] is True


# ---------- what a command hands the echelon, and the collector ----------

XY_F7_SPEC = """\
field Fp 7
var x divisible
var y divisible
truncate x y
ideal I = roots(x), roots(y)
"""


def _is_normalized(field, v) -> bool:
    n = field.normalize(v)
    return n != 0 and n == v and type(n) is type(v)


@pytest.mark.parametrize(
    "text, argv",
    [
        (T_SPEC, ["quotient-homotopy", "{spec}", "--deg-max", "2"]),
        (XY_F7_SPEC, ["quotient-homotopy", "{spec}", "--deg-max", "1"]),
        (T_SPEC, ["almost-equiv", "{spec}", "--map", "power:2"]),
        (T_SPEC, ["gluing-check", "{spec}", "--module", "K"]),
        (PLAIN_SPEC, ["tor", "{spec}", "--left", "I", "--right", "R/J", "--deg-max", "1"]),
    ],
    ids=["qh-t", "qh-xy-f7", "almost-equiv", "gluing-check", "tor-I-RJ"],
)
def test_every_vector_reaching_the_echelon_is_normalized(tmp_path, capsys, monkeypatch, text, argv):
    # the echelon does not normalize its input: every producer must
    from idemq import sparsela

    real = sparsela._reduce
    seen, bad = [0], []

    def checked(vec, rows, field):
        seen[0] += 1
        bad.extend((c, v) for c, v in vec.items() if not _is_normalized(field, v))
        return real(vec, rows, field)

    monkeypatch.setattr(sparsela, "_reduce", checked)
    spec = _write(tmp_path, text)
    code, _, err = _run(capsys, [spec if a == "{spec}" else a for a in argv])
    assert code == 0, err
    assert seen[0] > 0
    assert bad == []


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("case", ["exit-0", "exit-2", "exit-5"])
def test_main_runs_without_the_collector_and_restores_it(tmp_path, capsys, monkeypatch, enabled, case):
    import gc

    from idemq import cli, derived

    if case == "exit-5":
        def broken(*args, **kwargs):
            raise AssertionError("no lift at degree 1, generator 0")

        monkeypatch.setattr(derived, "lift_chain_map", broken)
    during = []
    real_run = cli._run

    def spy(args, out):
        during.append(gc.isenabled())
        return real_run(args, out)

    monkeypatch.setattr(cli, "_run", spy)
    spec = _write(tmp_path, "var t divisible\nideal I = bogus(t)\n" if case == "exit-2" else T_SPEC)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        code, _, _ = _run(capsys, ["quotient-homotopy", spec, "--deg-max", "1"])
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert code == int(case[-1])
    assert during == [False]
    assert after is enabled
