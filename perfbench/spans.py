"""Layer spans for the traced run.

`Tracer.install` wraps the functions at each layer boundary of `idemq`.
A function imported by name into another module (`derived` and `almost`
do `from .complexes import homology_data, ...`) is bound in several
module namespaces; every binding is replaced, or calls through the
importing module would go unrecorded. Methods are patched on their class.

Each call records a span (layer, start, end, parent) in memory; counts
are taken at the same boundary. `layer_metrics` derives each layer's
self time: its spans' durations minus the time their child spans cover.

A layer function the program no longer has records nothing, and a
counter that cannot read a call's result skips it, so a refactor of the
program leaves the traced run working with zeros for what is gone.
"""

from __future__ import annotations

import functools
import operator
import sys
import time
from collections import Counter

# layer name -> functions that make it up, as (module, qualified name)
LAYERS = {
    "sparsela.Echelon.insert": [("sparsela", "Echelon.insert")],
    "sparsela.kernel_rows": [("sparsela", "kernel_rows")],
    "sparsela.rank_rows": [("sparsela", "rank_rows")],
    "sparsela.matmul": [("sparsela", "matmul")],
    "complexes.homology_data": [("complexes", "homology_data")],
    "complexes.homology_map_matrix": [("complexes", "homology_map_matrix")],
    "complexes.tensor_complexes": [("complexes", "tensor_complexes")],
    "complexes.minimize": [("complexes", "minimize")],
    "complexes.cone": [("complexes", "cone"), ("complexes", "cone_map")],
    "complexes.maps": [
        ("complexes", "lift_chain_map"),
        ("complexes", "tensor_maps"),
        ("complexes", "compose_maps"),
    ],
    "complexes.resolution": [
        ("complexes", "ideal_resolution"),
        ("complexes", "minimal_resolution"),
    ],
    "complexes.strand_matrix": [("complexes", "strand_matrix")],
    "rings.basis_upto": [("rings", "LevelRing.basis_upto")],
    "derived.colimit_stabilize": [("derived", "colimit_stabilize")],
    "derived.LevelDiagram.run": [("derived", "LevelDiagram.run")],
    "almost.is_almost_zero": [("almost", "is_almost_zero")],
    "almost.tensor_zero_criterion": [("almost", "tensor_zero_criterion")],
    "almost.is_almost_equivalence": [("almost", "is_almost_equivalence")],
    "almost.gluing_square_check": [("almost", "gluing_square_check")],
    "specfile.parse_spec": [("specfile", "parse_spec")],
    "ideals.check_idempotent": [("ideals", "check_idempotent")],
    "cli.emit": [("cli", "_emit")],
}


# per layer: the counter it feeds, how to read a value from a call's
# arguments and result, and how to combine values
COUNTERS = {
    "complexes.homology_data": (
        "complexes.homology_data.useful", lambda args, res: int(res.dim > 0), operator.add,
    ),
    "complexes.tensor_complexes": (
        "complexes.tensor_complexes.gens", lambda args, res: res[0].total_rank(), operator.add,
    ),
    "complexes.minimize": (
        "complexes.minimize.dropped",
        lambda args, res: args[0].total_rank() - res.total_rank(),
        operator.add,
    ),
    "complexes.resolution": (
        "complexes.resolution.gens", lambda args, res: res.total_rank(), operator.add,
    ),
    "complexes.strand_matrix": (
        "complexes.strand_matrix.rows", lambda args, res: res.nrows, operator.add,
    ),
    "derived.LevelDiagram.run": (
        "derived.top_level", lambda args, res: args[0].levels[-1], max,
    ),
}


class Tracer:
    def __init__(self):
        # one [layer, start, end, parent index] per call, in call order
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, layer: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        key, read, combine = COUNTERS.get(layer, (None, None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if key is not None:
                try:
                    counts[key] = combine(counts[key], read(args, result))
                except (AttributeError, TypeError, IndexError):
                    pass
            return result

        traced.__wrapped_layer__ = layer
        return traced

    def install(self) -> None:
        """Wrap every layer function in every `idemq` namespace that binds it."""
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("idemq.")]
        for layer, funcs in LAYERS.items():
            for mod_name, qualname in funcs:
                owner = sys.modules.get("idemq." + mod_name)
                *cls_path, attr = qualname.split(".")
                for part in cls_path:
                    owner = getattr(owner, part, None)
                original = getattr(owner, attr, None)
                if original is None:
                    continue
                wrapper = self.wrap(layer, original)
                if cls_path:
                    setattr(owner, attr, wrapper)
                    continue
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, name, wrapper)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer self seconds and call counts, plus the counters."""
        child_time = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[layer + ".s"] = 0.0
            out[layer + ".calls"] = 0
        for (layer, start, end, _), inner in zip(self.spans, child_time):
            out[layer + ".s"] += end - start - inner
            out[layer + ".calls"] += 1
        for key, _, _ in COUNTERS.values():
            out[key] = self.counts[key]
        return out


def merge(metrics: list[dict]) -> dict:
    """The layer metrics of several solves as one: values add up, except
    counters that combine by max; the count of useful homology_data calls
    becomes their share, `useful_ratio`."""
    how = {key: combine for key, _, combine in COUNTERS.values()}
    out: dict = {}
    for m in metrics:
        for key, value in m.items():
            out[key] = how.get(key, operator.add)(out[key], value) if key in out else value
    calls = out["complexes.homology_data.calls"]
    useful = out.pop("complexes.homology_data.useful")
    out["complexes.homology_data.useful_ratio"] = useful / calls if calls else 0.0
    return out
