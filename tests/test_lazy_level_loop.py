"""The lazy level loop gives the reports of the full one.

Below the level cap, `derived.settle` hands its attempts a stop test, and
a walk stops at the first judged cell that keeps its attempt from
settling. An Amitsur attempt also hands its walks the reference's
cells, judged before the rest, and ends at the first that cannot agree.
With the stop test switched off, and the cells judged first with it
(every walk judges every cell, as the level loop did before it was
lazy), each command here must print the same report with the same exit
code. Only judging is skipped: the homology read is the same, call for
call. Likewise a walk builds only the step matrices its judge reads, and
judges every cell as a walk that builds them all.
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
    "t-rb3": "root_base 3\nvar t divisible\ntruncate t^2\nideal I = roots(t)\n",
    "xy-plain-y": "var x divisible\nvar y\ntruncate x y\nideal I = roots(x)\n",
    "xy-roots-x": "var x divisible\nvar y divisible\ntruncate x y\nideal I = roots(x)\n",
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
    # the reference cells judged first: top 2 abandoned, top 3 settles
    "amitsur-t-rb3": ["amitsur-check", "{t-rb3}", "--deg-max", "2"],
    # tops 2-3 abandoned, top 4 settles
    "amitsur-xy-plain-y": ["amitsur-check", "{xy-plain-y}", "--deg-max", "1", "--depth", "3"],
    # the reference is unstable: every lazy attempt abandoned unjudged
    "amitsur-xy-roots-x": ["amitsur-check", "{xy-roots-x}", "--deg-max", "1", "--depth", "3"],
    # limited by the level cap (exit 3)
    "amitsur-t-d8": ["amitsur-check", "{t}", "--deg-max", "3", "--depth", "8"],
}


def _walk_in_full(monkeypatch):
    """Switch the stop test off, and with it the cells judged first:
    every walk judges every cell."""
    walk = derived.LevelDiagram.walk

    def full(self, degrees, wmax, window, track, stop=None, first=None):
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


TRANSITIONS = ("lift_chain_map", "tensor_maps", "cone_map")


def _counted(key, tmp_path, capsys, monkeypatch):
    calls = Counter()
    for name in ("colimit_stabilize", "homology_data") + TRANSITIONS:
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


def test_a_lazy_amitsur_check_judges_the_reference_cells_first(tmp_path, capsys, monkeypatch):
    # on the t spec tops 3-5 fail at (1, 1), which the reference holds
    # stable at 1 but which is born at level 3, so the born-late guard
    # keeps it unstable below the cap of 6; judged first, it ends each
    # of them after one cell and builds no transition
    with monkeypatch.context() as mp:
        lazy = _counted("amitsur-t-d3", tmp_path, capsys, mp)
    with monkeypatch.context() as mp:
        _walk_in_full(mp)
        full = _counted("amitsur-t-d3", tmp_path, capsys, mp)
    assert lazy["homology_data"] == full["homology_data"] == 790
    assert (lazy["colimit_stabilize"], full["colimit_stabilize"]) == (45, 126)
    transitions = [sum(c[name] for name in TRANSITIONS) for c in (lazy, full)]
    assert transitions == [21, 42]


def _spy_on_steps(monkeypatch, build_all: bool):
    """Record each walk's cells and the (levels, window, k) of each step
    matrix it asks for. With build_all, every step matrix of a judged
    cell is built and handed to the judge, as before walks built only
    the last window."""
    walks, asked, now = [], [], {}
    walk, step_matrix, judge = (
        derived.LevelDiagram.walk, derived.LevelDiagram.step_matrix, derived.judge_cell
    )

    def spied_walk(self, degrees, wmax, window, track, stop=None, first=None):
        def tracking(d, ns):
            now.update(diagram=self, cell=(d, ns))
            return track(d, ns)

        now["window"] = window
        walks.append(walk(self, degrees, wmax, window, tracking, stop, first))
        return walks[-1]

    def judging(levels, dims, steps, *rest):
        if build_all:
            steps = [now["diagram"].step_matrix(k, *now["cell"]) for k in range(len(steps))]
        return judge(levels, dims, steps, *rest)

    def spied_step_matrix(self, k, d, ns):
        asked.append((len(self.levels), now["window"], k))
        return step_matrix(self, k, d, ns)

    monkeypatch.setattr(derived.LevelDiagram, "walk", spied_walk)
    monkeypatch.setattr(derived, "judge_cell", judging)
    monkeypatch.setattr(derived.LevelDiagram, "step_matrix", spied_step_matrix)
    return walks, asked


@pytest.mark.parametrize("key", ["tower-n5", "tor-I-RJ-d1", "almost-zero-R"])
def test_a_walk_builds_only_the_steps_its_judge_reads(key, tmp_path, capsys, monkeypatch):
    # colimit_stabilize reads only the last window of steps, and none
    # when there are fewer steps than the window
    with monkeypatch.context() as mp:
        walks, asked = _spy_on_steps(mp, build_all=False)
        report = _run(key, tmp_path, capsys)
    with monkeypatch.context() as mp:
        every_walk, every_step = _spy_on_steps(mp, build_all=True)
        assert _run(key, tmp_path, capsys) == report
    assert walks == every_walk
    assert asked and all(0 <= levels - 1 - window <= k for levels, window, k in asked)
    assert len(asked) < len(every_step)


def test_an_unstable_reference_ends_each_lazy_amitsur_attempt_unjudged(
    tmp_path, capsys, monkeypatch
):
    # the xy-roots-x reference leaves cells unstable at the cap, so no
    # Amitsur attempt below it can agree: tops 2-5 end before judging
    judged, lazy_walks = [], []
    judge, walk = derived.judge_cell, derived.LevelDiagram.walk

    def counting(*args):
        judged.append(args)
        return judge(*args)

    def spied_walk(self, degrees, wmax, window, track, stop=None, first=None):
        judged.clear()
        try:
            return walk(self, degrees, wmax, window, track, stop, first)
        finally:
            if stop is not None and first is not None:
                lazy_walks.append((self.levels[-1], len(judged)))

    monkeypatch.setattr(derived, "judge_cell", counting)
    monkeypatch.setattr(derived.LevelDiagram, "walk", spied_walk)
    code, _ = _run("amitsur-xy-roots-x", tmp_path, capsys)
    assert code == 3
    assert lazy_walks == [(2, 0), (3, 0), (4, 0), (5, 0)]
