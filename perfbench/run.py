"""End-to-end and per-layer benchmark for idemq.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; `all` runs every workload in turn. The workloads are in workloads.py and
the metrics in BENCHMARK.json. Every solve runs in its own fresh child
process (child.py), one at a time, so no solve sees caches warmed by
another. A sample is one pass over the workload's solves; passes repeat
until the next one would end past `--seconds`.

`--trace 0` times passes with tracing off and prints the end-to-end
metrics: medians over the run's passes of solve wall and CPU seconds
(summed over the pass), set-up seconds (per child: spawn until
`idemq.cli` is imported and the specs are parsed), peak RSS (largest
child of the pass) and the share of solves that succeeded. Solve seconds
are given at a fixed machine speed: each solve's measured seconds times
REFERENCE_S over the time of reference() around it (see there); the
measured seconds are printed beside them.

`--trace 1` alternates untraced and traced passes and prints the
per-layer metrics (spans.py): medians over the traced passes, plus
`trace.overhead_s`, the median over pairs of neighbouring passes of
traced minus untraced measured solve seconds.

Every report is checked against expected.json: exit code, stable cells
of each table, spec hash and named certificate fields. A solve fails if
it raises, exits with another code, or reports a stable table other than
the expected one; only the last counts as a wrong answer (`correct`).
Each report's SHA-256 is printed. The last line of output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`. Any fault of
the harness itself (a child that dies, a missing program) exits 1
without that line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

import spans
from workloads import WORKLOADS, generate_spec, spec_names

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
CHILD_TIMEOUT_S = 150
# set-up is cheap and noisy: top up its samples with set-up-only children
MIN_SETUP_SAMPLES = 9
# float slack when checking that layer self times fit inside the solve
NEST_SLACK_S = 1e-6
# nominal seconds of reference(), about its time on an idle 2-core Xeon
# VM under CPython 3.11; solve times are reported at that machine speed
REFERENCE_S = 0.07


class HarnessError(Exception):
    pass


def load_json(name: str, base: str = HERE):
    with open(os.path.join(base, name), encoding="utf-8") as fh:
        return json.load(fh)


def spawn(job: dict) -> dict:
    """Run one child to completion; its result plus `setup_s`."""
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, json.dumps(job)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        raise HarnessError(f"child timed out after {CHILD_TIMEOUT_S} s: {job.get('argv')}")
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise HarnessError(f"child exited {proc.returncode}: {tail[0]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["setup_s"] = res["ready"] - t_spawn
    return res


def reference() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed computation with the instruction mix
    of exact algebra: Fraction arithmetic, tuple-keyed dicts, int loops.

    On a shared machine the speed at which Python runs drifts by 20-50 %
    within minutes, and solve times drift with it. The time of this
    computation, taken right before and after each solve on the same CPU,
    measures that speed.
    """
    t0, c0 = time.perf_counter(), time.process_time()
    acc = Fraction(0)
    table = {}
    for i in range(1, 16001):
        acc += Fraction(i % 11, i % 7 + 1)
        table[(i % 101, acc.denominator % 37)] = acc
    total = 0
    for i in range(400000):
        total += i * i % 7
    return time.perf_counter() - t0, time.process_time() - c0


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, so that reference()
    and the solves meet the same contention."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def solve_job(solve, paths: dict, trace: bool) -> dict:
    argv = [paths[a[1:-1]] if a.startswith("{") else a for a in solve.argv]
    return {
        "root": ROOT,
        "argv": argv + ["--format", "json"],
        "specs": [paths[n] for n in spec_names(solve)],
        "trace": trace,
    }


def stable_tables(report: dict) -> dict:
    return {
        t["name"]: [[c["degree"], c["weight"], c["dim"]] for c in t["cells"] if c["stable"]]
        for t in report["tables"]
    }


def parse_report(res: dict):
    try:
        return json.loads(res["report"]) if res["report"] else None
    except ValueError:
        return None


def judge(res: dict, want: dict) -> tuple[bool, bool, str]:
    """(failed, wrong answer, note) for one solve against its expectation."""
    if res["error"] is not None:
        return True, False, res["error"]
    notes = []
    if res["code"] != want["exit"]:
        notes.append(f"exit {res['code']}, expected {want['exit']}")
    wrong = False
    report = parse_report(res)
    if res["report"] and report is None:
        wrong = True
        notes.append("report is not JSON")
    if report is not None:
        if want["tables"] is not None and stable_tables(report) != want["tables"]:
            wrong = True
            notes.append("stable table differs")
        if want["spec_hash"] is not None and report["spec_hash"] != want["spec_hash"]:
            wrong = True
            notes.append("spec hash differs")
        for key, value in want["certificates"].items():
            if report["certificates"].get(key) != value:
                wrong = True
                notes.append(f"certificate {key} differs")
    return bool(notes), wrong, "; ".join(notes) or "ok"


def digest(res: dict) -> str:
    return hashlib.sha256(res["report"].encode()).hexdigest()


def run_pass(workload, paths: dict, trace: bool) -> list[dict]:
    """One child per solve, with a reference() before the first and after
    each. A solve's `speed` is REFERENCE_S over the mean of the two
    reference times around it, wall and CPU."""
    refs = [reference()]
    out = []
    for solve in workload.solves:
        res = spawn(solve_job(solve, paths, trace))
        refs.append(reference())
        res["speed_wall"] = 2 * REFERENCE_S / (refs[-2][0] + refs[-1][0])
        res["speed_cpu"] = 2 * REFERENCE_S / (refs[-2][1] + refs[-1][1])
        out.append(res)
    return out


def check_fresh(passes: list[list[dict]]) -> None:
    """Every timed solve ran first in its own process."""
    pids = [r["pid"] for p in passes for r in p]
    if len(set(pids)) != len(pids):
        raise HarnessError("two timed solves shared a process")
    warm = [r["ring_cache_before"] for p in passes for r in p if r["ring_cache_before"]]
    if warm:
        raise HarnessError(f"a timed solve started with {warm[0]} cached rings")


def pass_totals(p: list[dict]) -> dict:
    return {
        "solve_s": sum(r["wall_s"] * r["speed_wall"] for r in p),
        "solve_cpu_s": sum(r["cpu_s"] * r["speed_cpu"] for r in p),
        "peak_rss_mb": max(r["maxrss_mb"] for r in p),
        "measured_solve_s": sum(r["wall_s"] for r in p),
        "measured_solve_cpu_s": sum(r["cpu_s"] for r in p),
    }


def describe(name: str, values: list, unit: str) -> str:
    med = statistics.median(values)
    return (
        f"  {name:<44} median {med:.6g} {unit}  min {min(values):.6g}"
        f"  max {max(values):.6g}  (n={len(values)})"
    )


def measure(workload, paths: dict, seconds: float, trace: bool):
    """Passes until the next would end past `seconds`: untraced passes,
    and traced ones alternating with them when `trace` is set."""
    plain, traced = [], []
    start = time.monotonic()
    longest = 0.0
    while True:
        t0 = time.monotonic()
        order = [False, True] if trace else [False]
        if len(plain) % 2:
            order.reverse()
        for tr in order:
            (traced if tr else plain).append(run_pass(workload, paths, tr))
        longest = max(longest, time.monotonic() - t0)
        if time.monotonic() - start + longest > seconds:
            return plain, traced


def check_reports(workload, expected: dict, plain, traced, checks) -> tuple[int, int, bool]:
    """Print each solve's report digest and verdict; return the solves
    attempted, those that failed, and whether no answer was wrong: no
    stable table differs from the expected one or from its cross-check,
    and every pass, traced or not, gave the same reports."""
    first = plain[0]
    for solve, res in zip(workload.solves + workload.checks, first + checks):
        note = judge(res, expected[solve.key])[2]
        seen = "as recorded" if digest(res) == expected[solve.key]["sha256"] else "changed"
        seen = seen if res["report"] else "no report"
        print(f"  {solve.key:<18} exit {res['code']}  sha256 {digest(res)} ({seen})  {note}")
    attempted = failed = 0
    correct = True
    runs = [(s, r) for p in plain + traced for s, r in zip(workload.solves, p)]
    for solve, res in runs + list(zip(workload.checks, checks)):
        fail, wrong, _ = judge(res, expected[solve.key])
        attempted += 1
        failed += fail
        correct &= not wrong
    for solve, res in zip(workload.checks, checks):
        mirror, report = parse_report(res), parse_report(first[0])
        if mirror is not None and report is not None:
            same = stable_tables(mirror) == stable_tables(report)
            print(f"  cross-check {solve.key} vs {workload.solves[0].key}: "
                  + ("agree" if same else "DISAGREE"))
            correct &= same
    if len({tuple(digest(r) for r in p) for p in plain + traced}) != 1:
        print("  reports differ between passes")
        correct = False
    return attempted, failed, correct


def end_to_end_samples(workload, expected: dict, plain, setup: list) -> dict:
    totals = [pass_totals(p) for p in plain]
    samples = {key: [t[key] for t in totals] for key in totals[0]}
    samples["setup_s"] = setup
    samples["success_rate"] = [
        sum(not judge(r, expected[s.key])[0] for s, r in zip(workload.solves, p))
        / len(workload.solves)
        for p in plain
    ]
    print(describe("measured_solve_s", samples["measured_solve_s"], "s"))
    print(describe("measured_solve_cpu_s", samples["measured_solve_cpu_s"], "s"))
    return samples


def per_layer_samples(plain, traced) -> tuple[dict, bool]:
    """Layer metrics of the traced passes, and whether the layer self
    times fit inside each traced solve."""
    layers = [spans.merge([r["layers"] for r in p]) for p in traced]
    solve_plain = [pass_totals(p)["measured_solve_s"] for p in plain]
    solve_traced = [pass_totals(p)["measured_solve_s"] for p in traced]
    samples = {key: [m[key] for m in layers] for key in layers[0]}
    self_sums = [sum(v for k, v in m.items() if k.endswith(".s")) for m in layers]
    samples["trace.unattributed_s"] = [t - s for t, s in zip(solve_traced, self_sums)]
    nested = min(samples["trace.unattributed_s"]) >= -NEST_SLACK_S
    if not nested:
        print("  layer self times add up to more than the traced solve")
    # passes alternate, so each traced pass has an untraced neighbour
    samples["trace.overhead_s"] = [t - u for t, u in zip(solve_traced, solve_plain)]
    print(describe("solve_s untraced", solve_plain, "s"))
    print(describe("solve_s traced", solve_traced, "s"))
    return samples, nested


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    pin_to_one_cpu()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        run_workload(name, args.seed, args.seconds, bool(args.trace))
    return 0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> None:
    """Measure one workload and print its report; the last line is the
    JSON result."""
    bench = load_json("BENCHMARK.json", ROOT)
    expected = load_json("expected.json")
    workload = WORKLOADS[name]
    rng = random.Random(seed)

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as work:
        paths = {}
        for spec in sorted({n for s in workload.solves + workload.checks for n in spec_names(s)}):
            paths[spec] = os.path.join(work, spec + ".spec")
            with open(paths[spec], "w", encoding="utf-8") as fh:
                fh.write(generate_spec(spec, rng))
        setup_job = {"root": ROOT, "specs": list(paths.values()), "setup_only": True}
        # untimed: compiles bytecode on a fresh checkout and fills the file cache
        spawn(setup_job)
        plain, traced = measure(workload, paths, seconds, trace)
        check_fresh(plain + traced)
        setup = [r["setup_s"] for p in plain for r in p]
        while not trace and len(setup) < MIN_SETUP_SAMPLES:
            setup.append(spawn(setup_job)["setup_s"])
        checks = [spawn(solve_job(s, paths, False)) for s in workload.checks]

    print(f"workload {name}  seed {seed}  trace {int(trace)}")
    attempted, failed, correct = check_reports(workload, expected, plain, traced, checks)
    if trace:
        samples, nested = per_layer_samples(plain, traced)
        correct &= nested
        wanted = bench["per_layer"]
    else:
        samples = end_to_end_samples(workload, expected, plain, setup)
        wanted = bench["end_to_end"]

    metrics = {}
    for m in wanted:
        if m["name"] not in samples:
            raise HarnessError(f"metric {m['name']} was not measured")
        values = samples[m["name"]]
        print(describe(m["name"], values, m["unit"]))
        metrics[m["name"]] = {"value": statistics.median(values), "unit": m["unit"]}
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (HarnessError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: error: {e}", file=sys.stderr)
        sys.exit(1)
