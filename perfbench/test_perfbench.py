"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench -q

They spawn small solves and take about 20 s.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

import run
from workloads import SPECS, WORKLOADS, Solve, generate_spec, spec_names

SRC = os.path.join(run.ROOT, "src")
SMALL = ("quotient-homotopy", "{t}", "--deg-max", "1")


def _python(code: str) -> dict:
    """Run `code` in a fresh interpreter that sees the harness and idemq;
    it prints one JSON line."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([run.HERE, SRC]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120,
        cwd=run.ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture
def spec_paths(tmp_path):
    rng = random.Random(0)
    paths = {}
    for name in SPECS:
        paths[name] = str(tmp_path / f"{name}.spec")
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(generate_spec(name, rng))
    return paths


def _small_job(paths, trace=False):
    return run.solve_job(Solve("small", SMALL), paths, trace)


def test_seed_changes_text_but_not_the_canonical_spec():
    out = _python(
        "import json, random\n"
        "from idemq.specfile import emit_spec, parse_spec\n"
        "from workloads import SPECS, generate_spec\n"
        "res = {}\n"
        "for name, lines in SPECS.items():\n"
        "    texts = {generate_spec(name, random.Random(s)) for s in range(8)}\n"
        "    canon = {emit_spec(parse_spec(t)) for t in texts}\n"
        "    res[name] = [len(texts), canon == {emit_spec(parse_spec(chr(10).join(lines)))}]\n"
        "print(json.dumps(res))\n"
    )
    for name, (n_texts, same) in out.items():
        assert n_texts > 1, name
        assert same, name


def test_same_seed_gives_same_inputs():
    for name in SPECS:
        assert generate_spec(name, random.Random(7)) == generate_spec(name, random.Random(7))


def test_benchmark_json_names_every_workload_and_expectation():
    bench = run.load_json("BENCHMARK.json", run.ROOT)
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (name, w.why) for name, w in WORKLOADS.items()
    ]
    expected = run.load_json("expected.json")
    for w in WORKLOADS.values():
        for solve in w.solves + w.checks:
            assert solve.key in expected
            assert all(n in SPECS for n in spec_names(solve))


def test_judge_separates_failures_from_wrong_answers():
    want = {"exit": 0, "tables": {"T": [[0, "0", 1]]}, "spec_hash": "h", "certificates": {}}

    def res(code, cells, error=None):
        report = {"tables": [{"name": "T", "cells": cells}], "spec_hash": "h",
                  "certificates": {}}
        return {"code": code, "error": error, "report": json.dumps(report)}

    good = [{"degree": 0, "weight": "0", "dim": 1, "stable": True}]
    assert run.judge(res(0, good), want)[:2] == (False, False)
    assert run.judge(res(3, good), want)[:2] == (True, False)
    assert run.judge(res(0, []), want)[:2] == (True, True)
    assert run.judge({"code": None, "error": "NameError: x", "report": ""}, want)[:2] == (
        True, False,
    )


def test_pass_totals_scale_solve_times_to_reference_speed():
    p = [
        {"wall_s": 2.0, "cpu_s": 1.5, "speed_wall": 0.5, "speed_cpu": 0.5, "maxrss_mb": 40.0},
        {"wall_s": 1.0, "cpu_s": 1.0, "speed_wall": 1.0, "speed_cpu": 0.8, "maxrss_mb": 60.0},
    ]
    t = run.pass_totals(p)
    assert t["solve_s"] == pytest.approx(2.0)
    assert t["solve_cpu_s"] == pytest.approx(1.55)
    assert t["measured_solve_s"] == pytest.approx(3.0)
    assert t["peak_rss_mb"] == 60.0


def test_each_timed_solve_runs_in_a_fresh_process(spec_paths):
    a = run.spawn(_small_job(spec_paths))
    b = run.spawn(_small_job(spec_paths))
    assert a["pid"] != b["pid"]
    assert a["ring_cache_before"] == b["ring_cache_before"] == 0
    run.check_fresh([[a, b]])
    assert 0 < a["setup_s"] < 30


def test_a_second_solve_in_one_process_is_rejected(spec_paths):
    job = json.dumps(_small_job(spec_paths))
    first, second = _python(
        "import json, child\n"
        f"job = json.loads({job!r})\n"
        "print(json.dumps([child.run_job(job), child.run_job(job)]))\n"
    )
    assert first["ring_cache_before"] == 0
    assert second["ring_cache_before"] > 0
    with pytest.raises(run.HarnessError):
        run.check_fresh([[second]])


def test_tracing_patches_every_binding():
    out = _python(
        "import json, idemq.cli\n"
        "from idemq import almost, complexes, derived\n"
        "from spans import Tracer\n"
        "Tracer().install()\n"
        "print(json.dumps([getattr(f, '__wrapped_layer__', None) for f in (\n"
        "    complexes.homology_data, derived.homology_data, almost.tensor_complexes,\n"
        "    derived.tensor_complexes, complexes.Echelon.insert)]))\n"
    )
    assert out == [
        "complexes.homology_data",
        "complexes.homology_data",
        "complexes.tensor_complexes",
        "complexes.tensor_complexes",
        "sparsela.Echelon.insert",
    ]


def test_traced_report_equals_untraced_and_self_times_nest(spec_paths):
    plain = run.spawn(_small_job(spec_paths))
    traced = run.spawn(_small_job(spec_paths, trace=True))
    assert run.digest(plain) == run.digest(traced)
    layers = traced["layers"]
    assert layers["complexes.homology_data.calls"] > 0
    self_s = sum(v for k, v in layers.items() if k.endswith(".s"))
    assert 0 < self_s <= traced["wall_s"]


def _bench(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], capture_output=True, text=True,
        cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_every_metric_of_its_mode(trace):
    proc = _bench("--workload", "qh-echelon-xy-f7", "--seed", "5", "--seconds", "1",
                  "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    bench = run.load_json("BENCHMARK.json", run.ROOT)
    names = [m["name"] for m in bench["end_to_end" if trace == "0" else "per_layer"]]
    assert list(last["metrics"]) == names
    assert "cross-check qh-xy-q vs qh-xy-f7: agree" in proc.stdout
    assert not [n for n in os.listdir(run.ROOT) if n.startswith(".perfbench-")]


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench("--workload", "qh-echelon-xy-f7", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
