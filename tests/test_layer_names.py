"""The layer functions that a traced benchmark run wraps, by name. A
traced run records nothing for a name the program no longer has, so a
rename would read as zero in the per-layer metrics instead of failing."""

import importlib
from fractions import Fraction

import pytest

from idemq.complexes import Strands, minimal_resolution, strand_matrix
from idemq.fields import QQ
from idemq.rings import RingSpec, VarInfo, make_level_ring

# (module of idemq, qualified name)
LAYER_FUNCTIONS = [
    ("sparsela", "Echelon.insert"),
    ("sparsela", "kernel_rows"),
    ("sparsela", "matmul"),
    ("complexes", "strand_matrix"),
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


def test_strand_matrix_result_counts_its_rows():
    # the traced run counts strand rows as the result's nrows
    spec = RingSpec(
        field=QQ, root_base=2, variables=(VarInfo("x", True),), truncations=((Fraction(3),),)
    )
    ring = make_level_ring(spec, 0)
    res = minimal_resolution(ring, (ring.pack((1,)),), dmax=2, wmax=Fraction(6))
    m = strand_matrix(res, 1, 2, Strands(ring))  # level 0: integer weight 2
    assert m.nrows == 1
