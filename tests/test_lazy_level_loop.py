"""The lazy level loop gives the reports of the full one.

Below the level cap, `derived.settle` hands its attempts a stop test, and
a walk stops at the first judged cell that keeps its attempt from
settling. With the stop test switched off (every walk judges every
cell, as the level loop did before it was lazy) each command here must
print the same report with the same exit code. Only judging is skipped:
the homology read is the same, call for call.
"""

from collections import Counter

import pytest

from idemq import derived
from idemq.cli import main

SPECS = {
    "t": "var t divisible\ntruncate t\nideal I = roots(t)\n",
    "t-plain": "var t divisible\nideal I = roots(t)\nideal J = t\n",
    "xy-f7": (
        "field Fp 7\nvar x divisible\nvar y divisible\ntruncate x y\n"
        "ideal I = roots(x), roots(y)\n"
    ),
}

COMMANDS = {
    "tower-n2": ["tower", "{t}", "--n-max", "2"],
    "tower-n3": ["tower", "{t}", "--n-max", "3"],
    "tower-n5": ["tower", "{t}", "--n-max", "5"],
    "tower-n6": ["tower", "{t}", "--n-max", "6"],
    "tor-I-RJ": ["tor", "{t-plain}", "--left", "I", "--right", "R/J"],
    "tor-I-RJ-d1": ["tor", "{t-plain}", "--left", "I", "--right", "R/J", "--deg-max", "1"],
    "tor-K-K": ["tor", "{t}", "--left", "K", "--right", "K"],
    "almost-zero-R": ["almost-zero", "{t}", "--module", "R"],
    "amitsur-t-d3": ["amitsur-check", "{t}", "--deg-max", "3", "--depth", "5"],
    "amitsur-t-d1": ["amitsur-check", "{t}", "--deg-max", "1"],
    "amitsur-xy-f7": ["amitsur-check", "{xy-f7}", "--deg-max", "1", "--depth", "3"],
}


def _walk_in_full(monkeypatch):
    """Switch the stop test off: every walk judges every cell."""
    walk = derived.LevelDiagram.walk

    def full(self, degrees, wmax, window, track, stop=None):
        return walk(self, degrees, wmax, window, track)

    monkeypatch.setattr(derived.LevelDiagram, "walk", full)


def _run(key, tmp_path, capsys):
    argv = []
    for a in COMMANDS[key]:
        if a.startswith("{"):
            path = tmp_path / f"{a[1:-1]}.spec"
            path.write_text(SPECS[a[1:-1]])
            a = str(path)
        argv.append(a)
    code = main(argv + ["--format", "json"])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("key", list(COMMANDS))
def test_lazy_and_full_level_loops_print_the_same_report(key, tmp_path, capsys, monkeypatch):
    lazy = _run(key, tmp_path, capsys)
    with monkeypatch.context() as mp:
        _walk_in_full(mp)
        full = _run(key, tmp_path, capsys)
    assert lazy == full


def _counted(key, tmp_path, capsys, monkeypatch):
    calls = Counter()
    for name in ("colimit_stabilize", "homology_data"):
        real = getattr(derived, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(derived, name, counted)
    _run(key, tmp_path, capsys)
    return calls


def test_a_lazy_tower_judges_fewer_cells_and_reads_the_same_homology(
    tmp_path, capsys, monkeypatch
):
    # tower --n-max 5 on the t spec settles no top below the cap of 6
    with monkeypatch.context() as mp:
        lazy = _counted("tower-n5", tmp_path, capsys, mp)
    with monkeypatch.context() as mp:
        _walk_in_full(mp)
        full = _counted("tower-n5", tmp_path, capsys, mp)
    assert lazy["homology_data"] == full["homology_data"] == 941
    assert (lazy["colimit_stabilize"], full["colimit_stabilize"]) == (378, 776)
