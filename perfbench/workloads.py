"""Workload definitions and the seeded spec generator.

Every workload is one closed-loop client that runs its solves back to
back, each in a fresh child process. A solve is one `idemq` CLI command
on one or two generated spec files.

The seed only reorders declaration lines and inserts `#` comment lines.
`emit_spec` canonicalises both away, so the spec hash and every report
are the same for every seed; run.py checks each report's spec hash
against the recorded one.
"""

from __future__ import annotations

import random
from typing import NamedTuple

# Spec templates, canonical order. `var` lines keep their order and stay
# first; the other lines are interleaved at random, but lines of the same
# directive keep their relative order because `emit_spec` preserves it
# for truncations and ideals.
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
}

_WORDS = ["level", "strand", "weight", "tower", "colimit", "root", "cone", "tor"]


class Solve(NamedTuple):
    """One CLI command. `argv` names specs as `{name}`; `key` selects the
    expected answer in expected.json."""

    key: str
    argv: tuple[str, ...]


class Workload(NamedTuple):
    why: str
    solves: tuple[Solve, ...]
    # untimed solves run once per run as cross-checks
    checks: tuple[Solve, ...] = ()


WORKLOADS = {
    "qh-tensor-t-q5": Workload(
        "quotient-homotopy over Q on the t spec at N=5: the one workload"
        " dominated by building derived powers (tensor_complexes)",
        (Solve("qh-t-q5", ("quotient-homotopy", "{t}", "--deg-max", "5")),),
    ),
    "qh-echelon-xy-f7": Workload(
        "quotient-homotopy over F_7 on the truncated x y spec at N=2:"
        " homology and Echelon.insert dominate, tensor work is ~1%",
        (Solve("qh-xy-f7", ("quotient-homotopy", "{xy-f7}", "--deg-max", "2")),),
        (Solve("qh-xy-q", ("quotient-homotopy", "{xy-q}", "--deg-max", "2")),),
    ),
    "amitsur-t-q3": Workload(
        "amitsur-check over Q on the t spec, N=3 depth 5: thousands of small"
        " strands and Fraction weight keys instead of a few large strands",
        (Solve("amitsur-t-q3", ("amitsur-check", "{t}", "--deg-max", "3", "--depth", "5")),),
    ),
    "verdicts-suite": Workload(
        "every other CLI command once on small specs (almost, Tor, cofibres);"
        " keeps the seed defects visible: exterior-sum NameError, tor I,R/J exit 3",
        (
            Solve("check-idempotent", ("check-idempotent", "{t}")),
            Solve("tor-K-K", ("tor", "{t}", "--left", "K", "--right", "K")),
            Solve(
                "tor-I-RJ",
                ("tor", "{t-plain}", "--left", "I", "--right", "R/J", "--deg-max", "1"),
            ),
            Solve("static-check", ("static-check", "{t}")),
            Solve("tower", ("tower", "{t}", "--n-max", "5")),
            Solve("almost-zero", ("almost-zero", "{t}", "--module", "R")),
            Solve("almost-equiv", ("almost-equiv", "{t}", "--map", "power:2")),
            Solve("gluing-check", ("gluing-check", "{t}", "--module", "K")),
            Solve("exterior-sum", ("exterior-sum", "{t}", "{t}", "--left", "I", "--right", "I")),
        ),
    ),
}


def spec_names(solve: Solve) -> list[str]:
    """Spec templates a solve reads, in argv order."""
    return [a[1:-1] for a in solve.argv if a.startswith("{") and a.endswith("}")]


def generate_spec(name: str, rng: random.Random) -> str:
    """Spec text for template `name`, with declaration order and comment
    lines drawn from `rng`."""
    lines = SPECS[name]
    head = [ln for ln in lines if ln.startswith("var ")]
    rest = [ln for ln in lines if not ln.startswith("var ")]
    rest += ["# " + " ".join(rng.sample(_WORDS, 3)) for _ in range(rng.randint(0, 3))]
    # a random interleaving that keeps each directive's lines in order
    by_kind: dict[str, list[str]] = {}
    for ln in rest:
        by_kind.setdefault(ln.split(" ", 1)[0], []).append(ln)
    kinds = [k for k, group in by_kind.items() for _ in group]
    rng.shuffle(kinds)
    body = [by_kind[k].pop(0) for k in kinds]
    return "\n".join(head + body) + "\n"
