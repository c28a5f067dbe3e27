"""Command line: problem spec files in, deterministic reports out.

One subcommand per computation. Reports carry the same numbers in every
format; JSON and CSV are byte-identical across runs on the same inputs.
Exit codes: 0 stable result, 2 usage or spec error, 3 undetermined
cells at the level cap, 4 falsified invariant, 5 internal error (a
failed consistency check inside the computation).
An unstable cell is in flight when it was first alive within one window
of the top level, or is alive somewhere but already dead at the top; a
cell alive from the first level is never in flight. Only a higher cap
could settle such a cell, so it does not block the verdict of `tor`,
`tower` or the almost verdicts, and the `tor` and almost certificates
count in-flight cells under `in_flight`. `quotient-homotopy` and
`static-check` do not set such cells apart yet: any unstable cell, in
flight or not, makes them exit 3. `amitsur-check` exits 0 when every
degree agrees with the reference, 4 when a degree that is fully stable
on both sides disagrees, and 3 otherwise.

`quotient-homotopy` and `static-check` take base change for every ideal
without a unit, the zero ideal included: Tor over the untruncated
algebra, with no derived power built. The `n_used` certificate of
`quotient-homotopy` is therefore [], and its `notes` name the route.
When every divisible variable is a root variable of the ideal, that Tor
descends to level 0 and is read there exactly, with no level loop: the
`top_level` of `quotient-homotopy` is 0, the `levels` of `static-check`
are [0], and every cell is stable. Otherwise the level loop settles it.

A plain command line is parsed straight from the command tables
(`_COMMANDS`, `_SHARED`): a known command, then its positionals and its
exact long options, each option given once and followed by a valid value
that does not start with "-". Any other command line goes to the
argparse parser built from the same tables, which gives the same
namespace and alone prints help and errors; a command line that parses
plainly never imports argparse, whose first use costs about 2 ms.
"""

from __future__ import annotations

import gc
import hashlib
import json
import sys
import time
from fractions import Fraction
from types import SimpleNamespace
from typing import Optional

from .almost import (
    exterior_sum,
    gluing_square_check,
    is_almost_equivalence,
    is_almost_zero,
    module_identity_map,
    module_zero_map,
    power_multiplication_map,
    tensor_zero_criterion,
)
from .amitsur import amitsur_crosscheck
from .derived import (
    Bounds,
    ModuleRef,
    default_bounds,
    derived_tensor,
    gluing_bounds,
    ideal_module,
    quotient_homotopy,
    quotient_module,
    residue_module,
    ring_module,
    static_check,
    tower_report,
)
from .ideals import NotIdempotent, check_idempotent
from .specfile import ProblemSpec, emit_spec, parse_spec

_EXIT = {"Stable": 0, "Unstable": 3, "Falsified": 4}


class UsageError(ValueError):
    pass


# ---------- argument plumbing ----------


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        import argparse  # only the full parser converts with _fraction

        raise argparse.ArgumentTypeError(f"not a fraction: {text!r}") from None


def _arg(*names, **kw) -> tuple[tuple, dict]:
    return names, kw


_SPECFILE = _arg("specfile")
_IDEAL = _arg("--ideal", default=None)

# the caps and --format that every command takes, before its own arguments
_SHARED = (
    _arg("--format", choices=["json", "csv", "pretty"], default="pretty"),
    _arg("--deg-max", type=int, default=None),
    _arg("--weight-max", type=_fraction, default=None),
    _arg("--max-level", type=int, default=None),
    _arg("--window", type=int, default=None),
)

# each command's own arguments, in the order its usage lists them
_COMMANDS = {
    "check-idempotent": (_SPECFILE, _IDEAL),
    "tor": (
        _SPECFILE,
        _arg("--left", required=True),
        _arg("--right", required=True),
        _arg("--deg-min", type=int, default=0),
    ),
    "quotient-homotopy": (_SPECFILE, _IDEAL),
    "tower": (_SPECFILE, _IDEAL, _arg("--n-max", type=int, default=4)),
    "static-check": (_SPECFILE, _IDEAL),
    "almost-zero": (_SPECFILE, _IDEAL, _arg("--module", required=True)),
    "almost-equiv": (
        _SPECFILE,
        _IDEAL,
        _arg("--map", required=True, dest="map_spec",
             help="power:<n> | identity:<module> | zero:<module>"),
    ),
    "gluing-check": (
        _SPECFILE,
        _IDEAL,
        _arg("--module", default=None),
        _arg("--quotient-stage", type=int, default=None),
    ),
    "amitsur-check": (
        _SPECFILE, _IDEAL, _arg("--depth", type=int, default=None, dest="amitsur_depth")
    ),
    "exterior-sum": (
        _SPECFILE,
        _arg("specfile_b"),
        _arg("--left", required=True),
        _arg("--right", required=True),
        _arg("--name", default=None),
    ),
}


def _plain_args(argv: list[str]) -> Optional[SimpleNamespace]:
    """The namespace the full parser gives a plain argv (module
    docstring), from the command tables alone; None when argv is not
    plain or a value is invalid. Each value is converted by the callable
    the full parser applies (Fraction where it applies _fraction)."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    options, positionals, values = {}, [], {"command": argv[0]}
    for (name, *_), kw in _SHARED + _COMMANDS[argv[0]]:
        if name.startswith("-"):
            dest = kw.get("dest", name[2:].replace("-", "_"))
            options[name] = dest, kw
            values[dest] = kw.get("default")
        else:
            positionals.append(name)
    given, seen, rest = [], set(), iter(argv[1:])
    for token in rest:
        if not token.startswith("-"):
            given.append(token)
            continue
        value = next(rest, "-")
        if token not in options or token in seen or value.startswith("-"):
            return None
        seen.add(token)
        dest, kw = options[token]
        convert = kw.get("type", str)
        try:
            values[dest] = (Fraction if convert is _fraction else convert)(value)
        except (ValueError, ZeroDivisionError):
            return None
        if "choices" in kw and value not in kw["choices"]:
            return None
    required = {name for name, (_, kw) in options.items() if kw.get("required")}
    if len(given) != len(positionals) or not required <= seen:
        return None
    values.update(zip(positionals, given))
    return SimpleNamespace(**values)


def _build_parser():
    """The full argparse parser, built from _SHARED and _COMMANDS: it
    parses every argv that _plain_args declines, and prints the help and
    the usage errors. Its description is the module docstring up to the
    paragraph on parsing, which is about the code, not the commands."""
    import argparse  # about 2 ms on first use, paid only when needed

    shared = argparse.ArgumentParser(add_help=False)
    for names, kw in _SHARED:
        shared.add_argument(*names, **kw)
    about = __doc__.partition("\n\nA plain command line")[0]
    p = argparse.ArgumentParser(prog="idemq", description=about)
    sub = p.add_subparsers(dest="command", required=True)
    for name, arguments in _COMMANDS.items():
        sp = sub.add_parser(name, parents=[shared])
        for names, kw in arguments:
            sp.add_argument(*names, **kw)
    return p


def _parse_args(argv: Optional[list[str]]):
    """The parsed command line (sys.argv when argv is None): from
    _plain_args when it answers, else from the full parser, which exits
    with its own message and code on help or a usage error."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv)
    return args if args is not None else _build_parser().parse_args(argv)


def _pick_ideal(ps: ProblemSpec, name: Optional[str]):
    if name is not None:
        if name not in ps.ideals:
            raise UsageError(f"no ideal named {name!r} in the spec")
        return ps.ideals[name]
    if len(ps.ideals) == 1:
        return next(iter(ps.ideals.values()))
    if not ps.ideals:
        raise UsageError("spec declares no ideal")
    raise UsageError("spec declares several ideals; pass --ideal")


def _module_ref(expr: str, ps: ProblemSpec) -> ModuleRef:
    e = expr.strip()
    if e == "R":
        return ring_module()
    if e == "K":
        return residue_module()
    if e.startswith("R/"):
        name = e[2:]
        if name not in ps.ideals:
            raise UsageError(f"no ideal named {name!r} in the spec")
        return quotient_module(ps.ideals[name])
    if e in ps.ideals:
        return ideal_module(ps.ideals[e])
    raise UsageError(f"bad module {expr!r}; use R, K, <ideal>, or R/<ideal>")


# least value of each setting, whether given as a flag or a `set` line;
# weight_max is a fraction and must lie strictly above its bound
_MINIMUM = {
    "deg_max": 0, "max_level": 1, "window": 1, "n_max": 1, "weight_max": 0, "amitsur_depth": 1,
}
# settings whose flag is not named after them
_FLAG = {"amitsur_depth": "--depth"}


def _setting(ps: ProblemSpec, args, key: str, fallback=None):
    """The flag's value, else the spec's `set` line, else the fallback.
    A value out of range is a usage error."""
    flag = getattr(args, key)
    value = flag if flag is not None else ps.settings.get(key, fallback)
    if value is None:
        return None
    low, strict = _MINIMUM[key], key == "weight_max"
    if value < low or (strict and value == low):
        if flag is not None:
            where = _FLAG.get(key, "--" + key.replace("_", "-"))
        else:
            where = f"set {key}"
        need = "greater than" if strict else "at least"
        raise UsageError(f"{where} must be {need} {low}, got {value}")
    return value


def _deg_max(ps: ProblemSpec, args, fallback: int) -> int:
    return _setting(ps, args, "deg_max", fallback)


def _apply_overrides(b: Bounds, ps: ProblemSpec, args) -> Bounds:
    wm = _setting(ps, args, "weight_max")
    if wm is not None:
        b = b._replace(weight_max=wm)
    ml = _setting(ps, args, "max_level")
    if ml is not None:
        b = b._replace(max_level=ml)
    w = _setting(ps, args, "window")
    if w is not None:
        b = b._replace(window=w)
    return b


def _bounds(ps: ProblemSpec, args, N: int) -> Bounds:
    return _apply_overrides(default_bounds(N), ps, args)


# ---------- report assembly ----------


def _cells_entry(degree: int, weight: Fraction, dim: int, stable: bool) -> dict:
    return {"degree": degree, "weight": str(weight), "dim": dim, "stable": stable}


def _table_from_stabilized(table) -> dict:
    return {
        "name": table.name,
        "trusted_degree_max": table.deg_max,
        "cells": [_cells_entry(c.degree, c.weight, c.dim, c.stable) for c in table.cells],
    }


def _table_from_cells(name: str, cells: dict, trusted: int) -> dict:
    rows = [
        _cells_entry(d, w, r.value, r.stable)
        for (d, w), r in sorted(cells.items())
    ]
    return {"name": name, "trusted_degree_max": trusted, "cells": rows}


def _verdict_cert(v) -> dict:
    return {
        "verdict": {str(d): v.degrees[d] for d in sorted(v.degrees)},
        "witnesses": {str(d): str(w) for d, w in sorted(v.witnesses.items())},
        "almost_zero": v.almost_zero,
        "in_flight": len(v.in_flight),
    }


# ---------- command handlers ----------


def _run_check_idempotent(ps, args):
    fam = _pick_ideal(ps, args.ideal)
    v = check_idempotent(fam)
    if isinstance(v, NotIdempotent):
        return "Falsified", [], {"idempotent": False, "witness": str(v.witness)}
    return "Stable", [], {"idempotent": True}


def _run_tor(ps, args):
    N = _deg_max(ps, args, 4)
    b = _bounds(ps, args, N)
    if not 0 <= args.deg_min <= N:
        raise UsageError(f"--deg-min must be between 0 and deg_max {N}, got {args.deg_min}")
    left = _module_ref(args.left, ps)
    right = _module_ref(args.right, ps)
    table = derived_tensor(ps.ring, left, right, N, b, deg_min=args.deg_min)
    loose = table.unstable_cells()
    in_flight = sum(c.in_flight for c in loose)
    status = "Stable" if in_flight == len(loose) else "Unstable"
    cert = {"levels": list(table.levels), "in_flight": in_flight}
    return status, [_table_from_stabilized(table)], cert


def _run_quotient_homotopy(ps, args):
    fam = _pick_ideal(ps, args.ideal)
    N = _deg_max(ps, args, 4)
    qh = quotient_homotopy(ps.ring, fam, N, _bounds(ps, args, N))
    cert = {
        "dims": list(qh.dims),
        "n_used": list(qh.n_used),
        "top_level": qh.top_level,
        "notes": qh.notes,
    }
    return ("Stable" if qh.stable else "Unstable"), [_table_from_stabilized(qh.table)], cert


def _run_tower(ps, args):
    fam = _pick_ideal(ps, args.ideal)
    N = _deg_max(ps, args, 4)
    r = tower_report(ps.ring, fam, _setting(ps, args, "n_max"), _bounds(ps, args, N))
    cert = {
        "ok": r.ok,
        "connectivity_failures": [[n, d, str(w)] for n, d, w in r.connectivity_failures],
        "h0_mismatches": [[n, str(w), got, want] for n, w, got, want in r.h0_mismatches],
        "undetermined": [[n, d, str(w)] for n, d, w in r.undetermined],
        "undetermined_is_boundary": r.undetermined_is_boundary,
        "cof_undetermined_is_boundary": r.cof_undetermined_is_boundary,
        "h0_cells_checked": r.h0_cells_checked,
        "levels": list(r.levels),
    }
    if not r.ok:
        return "Falsified", [], cert
    # the connectivity certificate needs a clear frontier; the H_0 strands
    # are judged only on mutually stable cells and may lag forever when the
    # per-weight pieces grow with the level
    if r.undetermined and not r.cof_undetermined_is_boundary:
        return "Unstable", [], cert
    return "Stable", [], cert


def _run_static_check(ps, args):
    fam = _pick_ideal(ps, args.ideal)
    N = _deg_max(ps, args, 2)
    r = static_check(ps.ring, fam, N, _bounds(ps, args, N))
    cert = {
        "static": r.static,
        "witness": [r.witness[0], str(r.witness[1])] if r.witness else None,
        "levels": list(r.levels),
    }
    return ("Stable" if r.stable else "Unstable"), [], cert


def _run_almost_zero(ps, args):
    fam = _pick_ideal(ps, args.ideal)
    mod = _module_ref(args.module, ps)
    N = _deg_max(ps, args, 2)
    b = _bounds(ps, args, N)
    a = is_almost_zero(ps.ring, fam, mod, bound=N, bounds=b)
    t = tensor_zero_criterion(ps.ring, fam, mod, bound=N, bounds=b)
    agree = a.degrees == t.degrees
    cert = {
        "annihilation": _verdict_cert(a),
        "tensor": _verdict_cert(t),
        "agree": agree,
        "almost_zero": a.almost_zero,
    }
    tables = [
        _table_from_cells("annihilation", a.cells, N),
        _table_from_cells("tensor", t.cells, N),
    ]
    if not agree:
        return "Falsified", tables, cert
    if a.almost_zero is None or t.almost_zero is None:
        return "Unstable", tables, cert
    return "Stable", tables, cert


def _run_almost_equiv(ps, args):
    fam = _pick_ideal(ps, args.ideal)
    N = _deg_max(ps, args, 2)
    b = _bounds(ps, args, N)
    kind, _, arg = args.map_spec.partition(":")
    if kind == "power":
        try:
            n = int(arg)
        except ValueError:
            raise UsageError(f"bad power {arg!r}") from None
        f = power_multiplication_map(ps.ring, fam, n, N, b)
    elif kind == "identity":
        f = module_identity_map(ps.ring, _module_ref(arg, ps), N, b)
    elif kind == "zero":
        f = module_zero_map(ps.ring, _module_ref(arg, ps), N, b)
    else:
        raise UsageError("--map takes power:<n>, identity:<module>, or zero:<module>")
    v = is_almost_equivalence(fam, f, bound=N, bounds=b)
    cert = {"map": args.map_spec, "almost_equivalence": v.almost_zero, **_verdict_cert(v)}
    tables = [_table_from_cells("cone", v.cells, N)]
    return ("Unstable" if v.almost_zero is None else "Stable"), tables, cert


def _run_gluing_check(ps, args):
    fam = _pick_ideal(ps, args.ideal)
    if (args.module is None) == (args.quotient_stage is None):
        raise UsageError("pass exactly one of --module / --quotient-stage")
    mod = _module_ref(args.module, ps) if args.module is not None else None
    N = _deg_max(ps, args, 2)
    b = _apply_overrides(gluing_bounds(), ps, args)
    g = gluing_square_check(
        ps.ring, fam, module=mod, quotient_stage=args.quotient_stage,
        bound=N, bounds=b,
    )
    cert = {
        "cartesian": g.cartesian,
        "refused": g.refused,
        "reason": g.reason,
        "witness": [g.witness[0], g.witness[1], str(g.witness[2])] if g.witness else None,
        "stages": list(g.stages),
        "levels": list(g.levels),
    }
    fit = {(d, w): r for (part, d, w), r in g.cells.items() if part == "fit"}
    orth = {(d, w): r for (part, d, w), r in g.cells.items() if part == "orth"}
    tables = [_table_from_cells("fit", fit, N), _table_from_cells("orth", orth, N)]
    if g.cartesian is False:
        return "Falsified", tables, cert
    if g.refused:
        return "Unstable", tables, cert
    return "Stable", tables, cert


def _run_amitsur_check(ps, args):
    fam = _pick_ideal(ps, args.ideal)
    N = _deg_max(ps, args, 2)
    m = _setting(ps, args, "amitsur_depth", 5)
    r = amitsur_crosscheck(ps.ring, fam, m, N, _bounds(ps, args, N))
    cert = {
        "agree": {str(d): r.agree[d] for d in sorted(r.agree)},
        "all_agree": r.all_agree(),
        "m": r.m,
        "undetermined": [[d, str(w)] for d, w in r.undetermined],
    }
    tables = [
        _table_from_stabilized(r.table),
        _table_from_stabilized(r.reference.table),
    ]
    if r.all_agree():
        return "Stable", tables, cert
    # a disagreement between fully stable degrees is definite; anything
    # involving loose cells is the level cap talking
    definite = any(
        not r.agree[d]
        and r.table.degree_stable(d)
        and r.reference.table.degree_stable(d)
        for d in r.agree
    )
    return ("Falsified" if definite else "Unstable"), tables, cert


_HANDLERS = {
    "check-idempotent": _run_check_idempotent,
    "tor": _run_tor,
    "quotient-homotopy": _run_quotient_homotopy,
    "tower": _run_tower,
    "static-check": _run_static_check,
    "almost-zero": _run_almost_zero,
    "almost-equiv": _run_almost_equiv,
    "gluing-check": _run_gluing_check,
    "amitsur-check": _run_amitsur_check,
}


# ---------- output ----------


def _spec_hash(ps: ProblemSpec) -> str:
    return hashlib.sha256(emit_spec(ps).encode()).hexdigest()


def _emit_json(report: dict, out) -> None:
    out.write(json.dumps(report, sort_keys=True, indent=2) + "\n")


def _emit_csv(report: dict, out) -> None:
    import csv  # only CSV output loads it

    w = csv.writer(out, lineterminator="\n")
    w.writerow(["kind", "table", "degree", "weight", "value", "stable"])
    for t in report["tables"]:
        for c in t["cells"]:
            w.writerow(
                ["cell", t["name"], c["degree"], c["weight"], c["dim"], c["stable"]]
            )
    for key in sorted(report["certificates"]):
        w.writerow(
            ["certificate", key, "", "", json.dumps(report["certificates"][key], sort_keys=True), ""]
        )


def _emit_pretty(report: dict, out) -> None:
    out.write(f"idemq {report['command']}\n")
    out.write(f"status: {report['status']}\n")
    out.write(f"spec: {report['spec_hash'][:12]}\n")
    for t in report["tables"]:
        out.write(f"table {t['name']} (trusted degrees <= {t['trusted_degree_max']})\n")
        if not t["cells"]:
            out.write("  (no nonzero cells)\n")
        for c in t["cells"]:
            flag = "" if c["stable"] else "  [unstable]"
            out.write(f"  d={c['degree']} w={c['weight']}: dim {c['dim']}{flag}\n")
    if report["certificates"]:
        out.write("certificates:\n")
        for key in sorted(report["certificates"]):
            val = json.dumps(report["certificates"][key], sort_keys=True)
            out.write(f"  {key}: {val}\n")


def _emit(report: dict, fmt: str, out) -> None:
    if fmt == "json":
        _emit_json(report, out)
    elif fmt == "csv":
        _emit_csv(report, out)
    else:
        _emit_pretty(report, out)


# ---------- entrypoint ----------


def _load_spec(path: str) -> ProblemSpec:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_spec(fh.read())
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e.strerror}") from None


def _run(args, out) -> int:
    if args.command == "exterior-sum":
        pa = _load_spec(args.specfile)
        pb = _load_spec(args.specfile_b)
        fa = _pick_ideal(pa, args.left)
        fb = _pick_ideal(pb, args.right)
        joint, fam = exterior_sum(pa.ring, fa, pb.ring, fb, name=args.name)
        joined = ProblemSpec(
            ring=joint, ideals={fam.name: fam}, settings=dict(pa.settings)
        )
        text = emit_spec(joined)
        report = {
            "command": args.command,
            "spec_hash": _spec_hash(joined),
            "tables": [],
            "certificates": {"spec": text, "ideal": fam.name},
            "status": "Stable",
        }
        if args.format == "pretty":
            out.write(text)
        else:
            _emit(report, args.format, out)
        return 0

    ps = _load_spec(args.specfile)
    status, tables, cert = _HANDLERS[args.command](ps, args)
    report = {
        "command": args.command,
        "spec_hash": _spec_hash(ps),
        "tables": tables,
        "certificates": cert,
        "status": status,
    }
    _emit(report, args.format, out)
    return _EXIT[status]


def main(argv=None) -> int:
    args = _parse_args(argv)
    t0 = time.perf_counter()
    # cyclic GC ran 110 times (12.5 of 115 ms) in qh-t-q5, freeing ~500 objects
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        code = _run(args, sys.stdout)
    except ValueError as e:
        print(f"idemq: error: {e}", file=sys.stderr)
        return 2
    except AssertionError as e:
        print(f"idemq: internal error: {e}", file=sys.stderr)
        return 5
    finally:
        if gc_was_enabled:
            gc.enable()
    print(f"[idemq] {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
