"""One solve in a fresh process.

    python3 perfbench/child.py '<job json>'

The job names the checkout root, the spec files and the CLI argv. The
child imports `idemq.cli` from `<root>/src` and parses every spec (that
is set-up), then runs `idemq.cli.main(argv)` once with its output
captured (that is the solve). It prints one JSON line: the monotonic
clock when set-up ended, the solve's wall and CPU seconds, peak RSS, the
exit code or the exception, the report text and, when traced, the layer
metrics. Only one solve runs per process, so module-level caches such as
`rings._RING_CACHE` start empty; the child reports the cache size seen
just before the solve so the parent can check that.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time


def run_job(job: dict) -> dict:
    src = os.path.join(job["root"], "src")
    sys.path.insert(0, src)
    import idemq.cli
    from idemq import rings, specfile

    if not os.path.abspath(idemq.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise RuntimeError(f"idemq imported from {idemq.cli.__file__}, not from {src}")
    for path in job["specs"]:
        with open(path, encoding="utf-8") as fh:
            specfile.parse_spec(fh.read())
    out = {"pid": os.getpid(), "ready": time.monotonic()}
    if job.get("setup_only"):
        return out

    tracer = None
    if job.get("trace"):
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    out["ring_cache_before"] = len(getattr(rings, "_RING_CACHE", ()))
    stdout, stderr = io.StringIO(), io.StringIO()
    code, error = None, None
    c0 = time.process_time()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = idemq.cli.main(list(job["argv"]))
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
        except Exception as e:  # a program fault is a failed solve, not a harness error
            error = f"{type(e).__name__}: {e}"
    out["wall_s"] = time.perf_counter() - t0
    out["cpu_s"] = time.process_time() - c0
    out["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out.update(code=code, error=error, report=stdout.getvalue())
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
    return out


if __name__ == "__main__":
    print(json.dumps(run_job(json.loads(sys.argv[1]))))
