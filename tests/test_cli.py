import contextlib
import csv
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idemq.cli import main
from oracles import quotient_by_tower

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


@pytest.mark.parametrize("command", ["quotient-homotopy", "static-check"])
def test_descent_needs_no_window_of_levels(tmp_path, capsys, command):
    # t is a root variable, so level 0 is the colimit: a level cap below
    # the window changes nothing (the level loop left every cell
    # undetermined there and exited 3)
    spec = _write(tmp_path, T_SPEC)
    default = _run_json(capsys, [command, spec, "--deg-max", "2"])[:2]
    for caps in (["--max-level", "1"], ["--window", "5"]):
        assert _run_json(capsys, [command, spec, "--deg-max", "2", *caps])[:2] == default
    assert default[0] == 0


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


@pytest.mark.parametrize(
    "argv",
    [
        ["almost-equiv", "--map", "power:330", "--weight-max", "1", "--deg-max", "0"],
        ["gluing-check", "--quotient-stage", "400", "--weight-max", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_a_long_chain_of_powers_is_built_without_recursion(tmp_path, capsys, argv):
    # X(n) = X(n - 1) (x) res is made bottom-up, at a stack depth that
    # does not grow with n
    spec = _write(tmp_path, T_SPEC)
    code, out, err = _run(capsys, [argv[0], spec, *argv[1:]])
    assert code in (0, 2, 3), err
    assert out


@pytest.mark.parametrize("depth,digest", [("400", "fca6ada514ab"), ("1000", "80afd9421256")])
def test_a_deep_amitsur_check_keeps_its_report(tmp_path, capsys, depth, digest):
    # Q(depth + 1) reads X(depth + 1); the report is the one Tot^depth gave
    spec = _write(tmp_path, T_SPEC)
    code, out, err = _run(
        capsys, ["amitsur-check", spec, "--deg-max", "0", "--depth", depth, "--format", "json"]
    )
    assert code == 3, err
    assert hashlib.sha256(out.encode()).hexdigest()[:12] == digest


@pytest.mark.parametrize("cap, code", [(None, 3), ("7", 3), ("8", 0)])
def test_a_deeper_amitsur_truncation_needs_a_higher_level_cap(tmp_path, capsys, cap, code):
    # the window widens to _tot_lifetime(8, 2) = 4, and the cell (1, 1) of
    # Q(9) is born at level 4, so the born-late guard holds it to a top of 8
    spec = _write(tmp_path, T_SPEC)
    argv = ["amitsur-check", spec, "--deg-max", "3", "--depth", "8", "--format", "json"]
    got, out, err = _run(capsys, argv + (["--max-level", cap] if cap else []))
    assert got == code, err
    cert = json.loads(out)["certificates"]
    assert cert["agree"] == {"0": True, "1": code == 0, "2": True, "3": True}
    assert ([1, "1"] in cert["undetermined"]) == (code == 3)


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


def _parse_outcome(capsys, parse, argv):
    """(exit code or parsed namespace, stdout, stderr) of one parse."""
    try:
        result = vars(parse(argv))
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


# each command's minimal valid argv after the command name
COMMAND_ARGV = {
    "check-idempotent": ["s.spec"],
    "tor": ["s.spec", "--left", "I", "--right", "K"],
    "quotient-homotopy": ["s.spec"],
    "tower": ["s.spec"],
    "static-check": ["s.spec"],
    "almost-zero": ["s.spec", "--module", "R"],
    "almost-equiv": ["s.spec", "--map", "power:2"],
    "gluing-check": ["s.spec", "--module", "K"],
    "amitsur-check": ["s.spec"],
    "exterior-sum": ["a.spec", "b.spec", "--left", "I", "--right", "I"],
}


@pytest.mark.parametrize(
    "extra, want",
    [
        ([], None),
        (["-h"], 0),
        (["--deg-max", "two"], 2),
        (["--bogus"], 2),
        (["--format", "xml"], 2),
        (None, 2),
    ],
    ids=["valid", "help", "bad-value", "unrecognized", "bad-choice", "missing-required"],
)
@pytest.mark.parametrize("command", list(COMMAND_ARGV))
def test_one_command_parser_answers_as_the_full_parser(capsys, command, extra, want):
    # main parses a plain argv from the invoked command's table alone and
    # leaves any other to the full parser; the namespace, help, messages
    # and exit codes are the full parser's. "missing-required" passes the
    # command name alone
    from idemq import cli

    argv = [command] + (COMMAND_ARGV[command] + extra if extra is not None else [])
    assert (cli._plain_args(argv) is None) == (want is not None)
    ours = _parse_outcome(capsys, cli._parse_args, argv)
    full = _parse_outcome(capsys, lambda a: cli._build_parser().parse_args(a), argv)
    assert ours == full
    assert isinstance(ours[0], dict) if want is None else ours[0] == want


@pytest.mark.parametrize("argv", [[], ["frobnicate", "x.spec"], ["-h"], ["--format", "json"]])
def test_parsing_without_a_known_command_is_the_full_parsers(capsys, argv):
    from idemq import cli

    ours = _parse_outcome(capsys, cli._parse_args, argv)
    full = _parse_outcome(capsys, lambda a: cli._build_parser().parse_args(a), argv)
    assert ours == full and ours[0] in (0, 2)


def _option_values(kw) -> tuple[list[str], list[str]]:
    """Valid and bad values for an option of this kind."""
    from idemq import cli

    if "choices" in kw:
        return kw["choices"], ["xml", ""]
    if kw.get("type") is int:
        return ["0", "3", " 4", "+2"], ["-1", "two", "1.5", ""]
    if kw.get("type") is cli._fraction:
        return ["1/2", "3", " 5/4", "0"], ["-1/2", "1/0", "abc", "2.5"]
    return ["I", "R/J", "power:2", ""], ["-x"]


@st.composite
def _argvs(draw) -> list[str]:
    """An argv read off the command tables, often plain, with hostile
    variants: abbreviated, `=`, repeated or unknown options, negative
    values, `--` and `-h` anywhere, options before the spec, extra or
    missing positionals, empty strings, bad values and choices, and
    missing required options."""
    from idemq import cli

    command = draw(st.sampled_from([*cli._COMMANDS, "frobnicate", "-h"]))
    table = cli._SHARED + cli._COMMANDS.get(command, ())
    count = sum(not name.startswith("-") for (name, *_), _ in table)
    count += draw(st.sampled_from([0] * 8 + [-1, 1]))
    groups = [[draw(st.sampled_from(["s.spec", "b.spec", "", "tor"]))] for _ in range(count)]
    for (name, *_), kw in table:
        keep = draw(st.sampled_from([True] * 3 + [False] if kw.get("required") else [True, False]))
        if not name.startswith("-") or not keep:
            continue
        spelling = draw(st.sampled_from([name] * 10 + [name[:-1], name + "="]))
        good, bad = _option_values(kw)
        value = draw(st.sampled_from(good if draw(st.sampled_from([True] * 3 + [False])) else bad))
        group = [spelling + value] if spelling.endswith("=") else [spelling, value]
        groups += [group] * draw(st.sampled_from([1] * 9 + [2]))
    extra = draw(st.sampled_from([None] * 4 + ["-h", "--", "--bogus", "-1"]))
    groups += [[extra]] if extra else []
    return [command] + [t for group in draw(st.permutations(groups)) for t in group]


def _outcome(parse, argv):
    """(each parsed value with its type, or the exit code; stdout;
    stderr) of one parse, for a test that cannot take capsys. Types are
    kept because Fraction(3) == 3 == 3.0."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = {k: (type(v), v) for k, v in vars(parse(argv)).items()}
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@settings(max_examples=250, deadline=None, derandomize=True)
@given(_argvs())
def test_the_plain_parser_answers_only_as_the_full_parser(argv):
    from idemq import cli

    plain = cli._plain_args(argv)
    full = _outcome(cli._build_parser().parse_args, argv)
    if plain is not None:
        assert full == _outcome(lambda _: plain, argv)
    else:
        assert _outcome(cli._parse_args, argv) == full
    # it declines no argv that the full parser takes whose every "-" token
    # is an exact option of the command, given once and followed by a value
    options = {name for (name, *_), _ in cli._SHARED + cli._COMMANDS.get(argv[0], ())}
    flags = [i for i, t in enumerate(argv) if t.startswith("-")]
    plain_shape = (
        argv[0] in cli._COMMANDS
        and len({argv[i] for i in flags}) == len(flags)
        and all(argv[i] in options and i + 1 not in flags and i + 1 < len(argv) for i in flags)
    )
    if isinstance(full[0], dict) and plain_shape:
        assert plain is not None


FRESH_RUN = """\
import contextlib, io, sys
before = set(sys.modules)  # what site and this script loaded
from idemq.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
    codes = [
        main(["quotient-homotopy", sys.argv[1], "--deg-max", "2", "--format", sys.argv[2]]),
        main(["tower", sys.argv[1], "--n-max", "2", "--format", sys.argv[2]]),
    ]
watched = {"argparse", "gettext", "locale", "dataclasses", "inspect", "csv"}
print(codes, sorted(watched & (set(sys.modules) - before)))
print(out.getvalue(), end="")
"""

# the CSV of the two FRESH_RUN solves on T_SPEC, byte for byte as when csv
# was imported with cli
FRESH_RUN_CSV = """\
kind,table,degree,weight,value,stable
cell,pi(R/I^infty),0,0,1,True
cell,pi(R/I^infty),1,1,1,True
certificate,dims,,,"[1, 1, 0]",
certificate,n_used,,,[],
certificate,notes,,,"[""base change by descent: Tor^A(A/I_A, R) = Tor^{A_0}(A_0/(x_S), R_0), read at level 0""]",
certificate,top_level,,,0,
kind,table,degree,weight,value,stable
certificate,cof_undetermined_is_boundary,,,true,
certificate,connectivity_failures,,,[],
certificate,h0_cells_checked,,,0,
certificate,h0_mismatches,,,[],
certificate,levels,,,"[0, 1, 2, 3, 4, 5, 6]",
certificate,ok,,,true,
certificate,undetermined,,,[],
certificate,undetermined_is_boundary,,,true,
"""

FRESH_FALLBACK = """\
import contextlib, io, json, sys
from idemq import cli

def outcome(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = parse(argv)
        except SystemExit as exc:
            code = exc.code
    return [code, out.getvalue(), err.getvalue()]

print("argparse" in sys.modules)
for argv in (["-h"], ["quotient-homotopy", sys.argv[1], "--deg-max", "two"]):
    ours = outcome(cli.main, argv)  # before anything here imports argparse
    print(json.dumps([ours, outcome(lambda a: cli._build_parser().parse_args(a), argv)]))
"""


def _fresh(script: str, *args: str) -> list[str]:
    """The stdout lines of script run in a new interpreter on this idemq."""
    from idemq import cli

    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "COLUMNS": "80"}
    done = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_a_plain_command_imports_no_argparse(tmp_path):
    # argparse's first use imports gettext and locale and builds a parser:
    # about 2 ms, more than a small solve takes; dataclasses (with inspect)
    # cost about 10 ms of every start-up and csv about 0.6 ms
    spec = _write(tmp_path, T_SPEC)
    assert _fresh(FRESH_RUN, spec, "json")[0] == "[0, 0] []"
    first, *rows = _fresh(FRESH_RUN, spec, "csv")
    assert first == "[0, 0] ['csv']"
    assert rows == FRESH_RUN_CSV.splitlines()


def test_help_and_errors_still_come_from_the_full_parser(tmp_path):
    first, *lines = _fresh(FRESH_FALLBACK, _write(tmp_path, T_SPEC))
    assert first == "False"
    (help_, full_help), (error, full_error) = (json.loads(line) for line in lines)
    assert help_ == full_help and error == full_error
    assert help_[0] == 0 and help_[1].startswith("usage: idemq") and help_[2] == ""
    assert error[0] == 2 and error[1] == ""
    assert error[2].endswith("argument --deg-max: invalid int value: 'two'\n")


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


# name -> (spec text, argv after the spec file, the error message)
HOSTILE = {
    "root-base-0": ("root_base 0\n" + T_SPEC, [], "line 1: root_base must be >= 2"),
    "root-base-1": ("root_base 1\n" + T_SPEC, [], "line 1: root_base must be >= 2"),
    "root-base-minus-2": ("root_base -2\n" + T_SPEC, [], "line 1: root_base must be >= 2"),
    "field-F4": ("field Fp 4\n" + T_SPEC, [], "line 1: bad field name 'F4': 4 is not prime"),
    "field-F1": ("field Fp 1\n" + T_SPEC, [], "line 1: bad field name 'F1': 1 is not prime"),
    "field-F0": ("field Fp 0\n" + T_SPEC, [], "line 1: bad field name 'F0': 0 is not prime"),
    "field-F10^26": (
        f"field Fp {10**26}\n" + T_SPEC,
        [],
        f"line 1: bad field name 'F{10**26}': {10**26} is too large:"
        " primality is decided only below 3317044064679887385961981",
    ),
    "duplicate-var": ("var t divisible\n" + T_SPEC, [], "line 2: duplicate variable 't'"),
    "truncate-t^-1": (
        "var t divisible\ntruncate t^-1\nideal I = roots(t)\n", [],
        "line 2: exponents must be nonnegative",
    ),
    "truncate-t^0": (
        "var t divisible\ntruncate t^0\nideal I = roots(t)\n", [],
        "line 2: cannot truncate by the unit monomial",
    ),
    "truncate-t^1/2": (
        "var t divisible\ntruncate t^1/2\nideal I = roots(t)\n", [],
        "line 2: truncation exponents must be nonnegative integers",
    ),
    "truncate-t^2^3": (
        "var t divisible\ntruncate t^2^3\nideal I = roots(t)\n", [], "line 2: bad exponent '2^3'"
    ),
    "truncate-unknown-var": (
        "var t divisible\ntruncate u\nideal I = roots(t)\n", [], "line 2: unknown variable 'u'"
    ),
    "roots-unknown-var": (
        "var t divisible\ntruncate t\nideal I = roots(u)\n", [], "line 3: unknown variable 'u'"
    ),
    "roots-plain-var": (
        "var t\ntruncate t\nideal I = roots(t)\n", [],
        "line 3: roots(...) needs a divisible variable",
    ),
    "exponent-t^1/3": (
        "var t divisible\ntruncate t\nideal I = t^1/3\n", [],
        "line 3: denominator not a power of 2",
    ),
    "duplicate-ideal": (T_SPEC + "ideal I = roots(t)\n", [], "line 4: duplicate ideal 'I'"),
    "set-bogus": (
        T_SPEC + "set bogus 3\n", [],
        "line 4: unknown setting 'bogus'; known: amitsur_depth, deg_max, max_level, weight_max,"
        " window",
    ),
    "set-deg-max-3.5": (T_SPEC + "set deg_max 3.5\n", [], "line 4: bad value for deg_max: '3.5'"),
    "set-weight-max-1/0": (
        T_SPEC + "set weight_max 1/0\n", [], "line 4: bad value for weight_max: '1/0'"
    ),
    "window-0": (T_SPEC, ["--window", "0"], "--window must be at least 1, got 0"),
    "n-max-0": (T_SPEC, ["--n-max", "0"], "--n-max must be at least 1, got 0"),
    "depth-0": (T_SPEC, ["--depth", "0"], "--depth must be at least 1, got 0"),
    "deg-min-above-deg-max": (
        T_SPEC, ["--left", "K", "--right", "K", "--deg-max", "1", "--deg-min", "2"],
        "--deg-min must be between 0 and deg_max 1, got 2",
    ),
    "map-bogus": (
        T_SPEC, ["--map", "bogus"], "--map takes power:<n>, identity:<module>, or zero:<module>"
    ),
    "map-power-0": (T_SPEC, ["--map", "power:0"], "derived powers start at n = 1"),
    "map-identity-Q": (
        T_SPEC, ["--map", "identity:Q"], "bad module 'Q'; use R, K, <ideal>, or R/<ideal>"
    ),
    # a `set` line is checked when the spec is parsed, whatever the
    # command and whatever flag would override it
    "set-deg-max-minus-1-under-a-flag": (
        T_SPEC + "set deg_max -1\n", ["--deg-max", "1"], "set deg_max must be at least 0, got -1"
    ),
    "set-window-0-under-a-flag": (
        T_SPEC + "set window 0\n", ["--left", "K", "--right", "K", "--window", "2"],
        "set window must be at least 1, got 0",
    ),
    "set-deg-max-minus-1-unread": (
        T_SPEC + "set deg_max -1\n", [], "set deg_max must be at least 0, got -1"
    ),
    "set-window-0-unread": (T_SPEC + "set window 0\n", [], "set window must be at least 1, got 0"),
}
# the command each case runs, where it is not quotient-homotopy
HOSTILE_COMMAND = {
    "n-max-0": "tower",
    "depth-0": "amitsur-check",
    "deg-min-above-deg-max": "tor",
    "map-bogus": "almost-equiv",
    "map-power-0": "almost-equiv",
    "map-identity-Q": "almost-equiv",
    "set-window-0-under-a-flag": "tor",
    "set-deg-max-minus-1-unread": "check-idempotent",
    "set-window-0-unread": "check-idempotent",
}


@pytest.mark.parametrize("case", list(HOSTILE))
def test_hostile_input_exits_2_with_one_error_line(tmp_path, capsys, case):
    text, argv, message = HOSTILE[case]
    spec = _write(tmp_path, text)
    code, out, err = _run(capsys, [HOSTILE_COMMAND.get(case, "quotient-homotopy"), spec, *argv])
    assert (code, out) == (2, "")
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


# the zero ideal leaves the divisible t outside its roots, so base change
# settles on the level loop and lifts each level inclusion; the roots
# ideal of T_SPEC descends to level 0 and lifts nothing
LIFTING_SPEC = """\
var t divisible
truncate t
ideal Z = t
"""


def test_internal_fault_exits_5_without_traceback(tmp_path, capsys, monkeypatch):
    from idemq import derived

    def broken(*args, **kwargs):
        raise AssertionError("not a chain map at degree 1, source gen 0, row 0")

    monkeypatch.setattr(derived, "lift_chain_map", broken)
    spec = _write(tmp_path, LIFTING_SPEC)
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
    spec = _write(tmp_path, LIFTING_SPEC)
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
# absent. The tor digest is the SHA-256 of stdout as the tuple-monomial
# code printed it; the quotient-homotopy one has the same table, with the
# certificates of base change by descent (no derived power, top level 0,
# a route note).
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
            "5fd74b0d751c9baff47c51f0b47e31d85c1e85db279d60f01db2ec6f1b328008",
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


@pytest.mark.parametrize("name", [None, "S", "I+J", "ideal_2+K"])
def test_exterior_sum_spec_parses_back_with_its_name(tmp_path, capsys, name):
    from idemq.specfile import emit_spec, parse_spec

    a = _write(tmp_path, T_SPEC, "a.spec")
    b = _write(tmp_path, PLAIN_SPEC, "b.spec")
    flags = [] if name is None else ["--name", name]
    code, out, _ = _run(capsys, ["exterior-sum", a, b, "--left", "I", "--right", "I", *flags])
    assert code == 0
    joint = parse_spec(out)
    assert list(joint.ideals) == [name or "I+I"]
    assert emit_spec(joint) == out


@pytest.mark.parametrize("name", ["a b", "x,y", "I=J", "", "I+", "+I", "I++J"])
def test_exterior_sum_refuses_a_name_the_spec_grammar_refuses(tmp_path, capsys, name):
    a = _write(tmp_path, T_SPEC, "a.spec")
    code, out, err = _run(
        capsys, ["exterior-sum", a, a, "--left", "I", "--right", "I", "--name=" + name]
    )
    assert (code, out) == (2, "")
    assert err == (
        f"idemq: error: bad ideal name {name!r} for --name: words joined by '+', as I or I+J\n"
    )


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


# ---------- spec hash ----------

# the benchmark's spec templates (perfbench/workloads.py), in canonical order
BENCH_SPECS = {
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
}


def _canonical_sha256(text: str) -> str:
    from idemq.specfile import emit_spec, parse_spec

    return hashlib.sha256(emit_spec(parse_spec(text)).encode()).hexdigest()


def _spec_variants(lines: list[str]):
    """Texts of the spec `lines` as the benchmark's seeds write it: the
    non-`var` lines in every order that keeps each directive's lines in
    order (emit_spec keeps that order), with `#` comment lines added."""
    head = [ln for ln in lines if ln.startswith("var ")]
    rest = [ln for ln in lines if not ln.startswith("var ")]
    for order in itertools.permutations(rest):
        if any(
            a.split()[0] == b.split()[0] and rest.index(a) > rest.index(b)
            for a, b in itertools.combinations(order, 2)
        ):
            continue
        body = head + list(order)
        yield "\n".join(body) + "\n"
        yield "# leading\n" + "\n".join(body) + "\n# trailing\n"
        yield "".join(f"{ln}\n# after line {i}\n" for i, ln in enumerate(body))


@pytest.mark.parametrize("name", BENCH_SPECS)
def test_spec_hash_is_the_sha256_of_the_canonical_spec(tmp_path, capsys, name):
    want = _canonical_sha256("\n".join(BENCH_SPECS[name]) + "\n")
    hashes = set()
    for text in _spec_variants(BENCH_SPECS[name]):
        rep = _run_json(capsys, ["check-idempotent", _write(tmp_path, text), "--ideal", "I"])[1]
        assert rep["spec_hash"] == _canonical_sha256(text), text
        hashes.add(rep["spec_hash"])
    # the benchmark's seeds rely on this: every variant hashes alike
    assert hashes == {want}


def test_exterior_sum_hash_is_that_of_its_joined_spec(tmp_path, capsys):
    a = _write(tmp_path, T_SPEC)
    code, rep, _ = _run_json(capsys, ["exterior-sum", a, a, "--left", "I", "--right", "I"])
    assert code == 0
    assert rep["spec_hash"] == _canonical_sha256(rep["certificates"]["spec"])


FRESH_HASH = """\
import contextlib, io, json, sys
if sys.argv[2] == "no-builtin":  # a CPython built without its own SHA-256
    sys.modules["_sha2"] = sys.modules["_sha256"] = None
from idemq.cli import main

def run(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([command, sys.argv[1], "--deg-max", "2", "--format", "json"])
    return [code, json.loads(out.getvalue())["spec_hash"]]

runs = [run("quotient-homotopy"), run("amitsur-check")]
watched = {"hashlib", "_hashlib", "_blake2", "ssl"}
print(json.dumps([runs, sorted(watched & set(sys.modules))]))
"""


def test_no_command_loads_openssl(tmp_path):
    # hashlib loads OpenSSL's libcrypto (_hashlib) and _blake2: about
    # 3.6 MB of every command's peak RSS, for one ~100-byte hash
    want = _canonical_sha256(T_SPEC)
    (line,) = _fresh(FRESH_HASH, _write(tmp_path, T_SPEC), "builtin")
    assert json.loads(line) == [[[0, want], [0, want]], []]


def test_without_the_builtin_sha256_hashlib_gives_the_same_hash(tmp_path):
    want = _canonical_sha256(T_SPEC)
    (line,) = _fresh(FRESH_HASH, _write(tmp_path, T_SPEC), "no-builtin")
    runs, loaded = json.loads(line)
    assert runs == [[0, want], [0, want]]
    assert "hashlib" in loaded


# ---------- what a command hands the echelon, and the collector ----------

XY_F7_SPEC = """\
field Fp 7
var x divisible
var y divisible
truncate x y
ideal I = roots(x), roots(y)
"""


# y is divisible and not a root variable, so base change settles on the
# level loop; quotient-homotopy and static-check on XY_F7_SPEC descend to
# level 0, where no vector reaches _reduce
XY_F7_ROOTS_X_SPEC = XY_F7_SPEC.replace("roots(x), roots(y)", "roots(x)")


# the truncation s t mixes the variables, so no module here splits by
# variable and every resolution runs the kernel loop
ST_MIXED_SPEC = """\
var s
var t divisible
truncate s t
ideal I = roots(t)
"""


def _is_normalized(field, v) -> bool:
    n = field.normalize(v)
    return n != 0 and n == v and type(n) is type(v)


@pytest.mark.parametrize(
    "text, argv",
    [
        (T_SPEC, ["tor", "{spec}", "--left", "K", "--right", "K", "--deg-max", "1"]),
        (XY_F7_ROOTS_X_SPEC, ["static-check", "{spec}", "--deg-max", "1"]),
        (T_SPEC, ["almost-equiv", "{spec}", "--map", "power:2"]),
        (ST_MIXED_SPEC, ["gluing-check", "{spec}", "--module", "K"]),
        (PLAIN_SPEC, ["tor", "{spec}", "--left", "I", "--right", "R/J", "--deg-max", "1"]),
    ],
    ids=["tor-K-K", "static-xy-f7-roots-x", "almost-equiv", "gluing-check", "tor-I-RJ"],
)
def test_every_vector_reaching_the_echelon_is_normalized(tmp_path, capsys, monkeypatch, text, argv):
    # the echelon does not normalize its input: every producer must. An
    # inserted vector goes through _reduce_head, a reduced one (and each
    # row of the reduced form) through _reduce
    from idemq import sparsela

    seen, bad, inserted = {"_reduce": 0, "_reduce_head": 0}, [], [0]

    def checking(name):
        real = getattr(sparsela, name)

        def checked(vec, rows, inv, field):
            seen[name] += 1
            bad.extend((c, v) for c, v in vec.items() if not _is_normalized(field, v))
            return real(vec, rows, inv, field)

        return checked

    for name in seen:
        monkeypatch.setattr(sparsela, name, checking(name))
    real_insert = sparsela.Echelon.insert

    def insert(self, vec):
        inserted[0] += bool(vec)
        return real_insert(self, vec)

    monkeypatch.setattr(sparsela.Echelon, "insert", insert)
    spec = _write(tmp_path, text)
    code, _, err = _run(capsys, [spec if a == "{spec}" else a for a in argv])
    assert code == 0, err
    assert seen["_reduce"] > 0
    assert seen["_reduce_head"] == inserted[0] > 0  # every inserted vector is checked
    assert bad == []


# ---------- what a command builds ----------


def _record_transitions(monkeypatch):
    """Record each transition a family makes, with how deep inside the
    making of another transition it was made (0: made for a reader), and
    each chain map whose homology a step matrix reads."""
    from idemq import derived

    built, read, depth = [], set(), [0]
    real_init = derived.Family.__init__

    def init(self, make, step, *args, **kwargs):
        def recorded(fam, l):
            depth[0] += 1
            try:
                made = step(fam, l)
            finally:
                depth[0] -= 1
            built.append((made, depth[0]))
            return made

        real_init(self, make, recorded, *args, **kwargs)

    real_matrix = derived.homology_map_matrix

    def reading(f, d, src_h, dst_h):
        read.add(id(f))
        return real_matrix(f, d, src_h, dst_h)

    monkeypatch.setattr(derived.Family, "__init__", init)
    monkeypatch.setattr(derived, "homology_map_matrix", reading)
    return built, read


def test_gluing_check_builds_no_transition(tmp_path, capsys, monkeypatch):
    # every step matrix of the gluing square on the t spec has homology
    # on at most one side, so no transition is read and none is made
    built, read = _record_transitions(monkeypatch)
    code, _, err = _run(capsys, ["gluing-check", _write(tmp_path, T_SPEC), "--module", "K"])
    assert code == 0, err
    assert built == [] and not read


def test_quotient_homotopy_builds_only_the_transitions_it_reads(tmp_path, capsys, monkeypatch):
    # a transition is made only for a step matrix with homology on both
    # sides, together with the transitions beneath it (a cone's legs, a
    # tensor power's factors); made up front for every level, the cones'
    # transitions alone would outnumber the ones read. The tower oracle
    # stands in for quotient_homotopy, which builds no derived power
    from idemq import cli

    monkeypatch.setattr(cli, "quotient_homotopy", quotient_by_tower)
    built, read = _record_transitions(monkeypatch)
    code, out, err = _run(
        capsys, ["quotient-homotopy", _write(tmp_path, T_SPEC), "--deg-max", "5"]
    )
    assert code == 0, err
    assert "n_used: [2, 3, 4, 5, 6, 7]" in out
    top = {id(made) for made, depth in built if depth == 0}
    assert read and top == read
    assert len(built) == 20  # 56 when every diagram makes all its transitions


ZERO_SPEC = T_SPEC + "ideal Z = t\n"


@pytest.mark.parametrize(
    "command,ideal,want",
    [
        ("quotient-homotopy", "I", 0),
        ("quotient-homotopy", "Z", 3),
        ("static-check", "I", 0),
        ("static-check", "Z", 0),
    ],
    ids=["qh-roots", "qh-zero", "static-roots", "static-zero"],
)
def test_quotient_and_static_check_build_no_tower(
    tmp_path, capsys, monkeypatch, command, ideal, want
):
    # both read base change for every ideal without a unit, the zero ideal
    # (t dies in R) included; on the zero ideal quotient-homotopy exits 3
    # for the in-flight cells of R itself at the finest weights
    from idemq import derived

    def no_tower(*args, **kwargs):
        raise AssertionError("a derived power was built")

    monkeypatch.setattr(derived, "Tower", no_tower)
    spec = _write(tmp_path, ZERO_SPEC)
    code, _, err = _run(capsys, [command, spec, "--ideal", ideal])
    assert code == want, err


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
    text = {"exit-0": T_SPEC, "exit-2": "var t divisible\nideal I = bogus(t)\n", "exit-5": LIFTING_SPEC}
    spec = _write(tmp_path, text[case])
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


@pytest.mark.parametrize(
    "argv",
    [
        ["check-idempotent"],
        ["tor", "--left", "I", "--right", "K"],
        ["quotient-homotopy"],
        ["static-check"],
        ["tower"],
        ["almost-zero", "--module", "R"],
        ["almost-equiv", "--map", "power:2"],
        ["gluing-check", "--module", "K"],
        ["amitsur-check"],
    ],
    ids=lambda argv: argv[0],
)
def test_a_command_leaves_no_reference_cycles(tmp_path, capsys, argv):
    # the collector is off while a command runs, so whatever a command
    # leaves in reference cycles (a level family closing over itself, say)
    # stays alive until the next collection: a command must make few
    import gc

    spec = _write(tmp_path, T_SPEC)
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        code, _, err = _run(capsys, [argv[0], spec, *argv[1:]])
        unreachable = gc.collect()
    finally:
        (gc.enable if was else gc.disable)()
    assert code == 0, err
    assert unreachable < 1000
