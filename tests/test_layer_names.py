"""The layer functions that a traced benchmark run wraps, by name. A
traced run records nothing for a name the program no longer has, so a
rename would read as zero in the per-layer metrics instead of failing."""

import importlib

import pytest

# (module of idemq, qualified name)
LAYER_FUNCTIONS = [
    ("sparsela", "Echelon.insert"),
    ("sparsela", "kernel_rows"),
    ("sparsela", "matmul"),
    ("complexes", "homology_data"),
    ("complexes", "homology_map_matrix"),
    ("complexes", "tensor_complexes"),
    ("complexes", "tensor_maps"),
    ("complexes", "cone"),
    ("complexes", "cone_map"),
    ("complexes", "lift_chain_map"),
    ("complexes", "ideal_resolution"),
    ("complexes", "minimal_resolution"),
    ("rings", "LevelRing.basis_upto"),
    ("derived", "colimit_stabilize"),
    ("derived", "LevelDiagram.run"),
]


@pytest.mark.parametrize(
    "module,name", LAYER_FUNCTIONS, ids=[f"{m}.{n}" for m, n in LAYER_FUNCTIONS]
)
def test_layer_function_resolves(module, name):
    obj = importlib.import_module(f"idemq.{module}")
    for part in name.split("."):
        obj = getattr(obj, part)
    assert callable(obj)

