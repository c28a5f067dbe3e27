"""Rank-first homology on level walks.

`LevelDiagram.run` walks degrees from the top down, so the (d+1, w)
strand is cached when (d, w) is computed, and `homology_data` reads
rank(d_{d+1}) from it: a strand with as many cycles as that rank is exact
and builds no boundaries. These tests tie the shortcut to routes that
share none of it: dense ranks, and a fresh builder walked bottom-up,
where no strand has its (d+1, w) neighbour cached.
"""

from fractions import Fraction

import pytest

from idemq import complexes, derived
from idemq.complexes import HomologyData, strand_matrix
from idemq.derived import Tower, TorDiagram, default_bounds, ideal_module, quotient_module
from idemq.fields import QQ
from idemq.ideals import fixed_family, roots_family
from idemq.rings import RingSpec, VarInfo
from oracles import homology_dim, mono, rank

F1 = Fraction(1)


def _spec_t(trunc=True):
    return RingSpec(
        field=QQ,
        root_base=2,
        variables=(VarInfo("t", True),),
        truncations=(((F1,),) if trunc else ()),
    )


def _tot():
    # the Amitsur totalization as amitsur_crosscheck builds it, (m, N) = (4, 2)
    m, N = 4, 2
    spec = _spec_t()
    family = roots_family(spec, "t")
    wmax = default_bounds(N).weight_max
    am = derived._LevelBuilder(spec)
    tot = am.per_level(lambda l: derived._amitsur_level(am.ring(l), family, m, N, wmax))
    step = am.per_level(lambda l: derived._amitsur_step(tot(l), tot(l + 1), am.inc(l), m))
    diagram = am.level_diagram(("tot", m), [1, 2, 3], lambda l: tot(l).tot, step)
    return am, diagram, range(N + 1), wmax


def _cof():
    # tower_report's cofibre of sigma_3, read below degree 3
    spec = _spec_t()
    tw = Tower(spec, roots_family(spec, "t"), 3, Fraction(2))
    return tw, tw.cof_diagram(3, [1, 2, 3]), range(3), Fraction(2)


def _tor():
    # Tor(I, R/J) on the untruncated t spec, as derived_tensor builds it at deg_max 1
    spec = _spec_t(trunc=False)
    I = roots_family(spec, "t")
    J = fixed_family(spec, [mono(spec, t=1)], name="J")
    td = TorDiagram(spec, ideal_module(I), quotient_module(J), 2, Fraction(2))
    return td, td.diagram([1, 2, 3]), range(2), Fraction(2)


DIAGRAMS = {"amitsur-tot": _tot, "cof-sigma": _cof, "tor-I-RJ": _tor}


def _strands(builder) -> dict:
    """The cached homology, keyed by (level, d, w)."""
    return {
        key[1:]: h for key, h in builder.cache.items() if isinstance(h, HomologyData)
    }


@pytest.mark.parametrize("make", DIAGRAMS.values(), ids=DIAGRAMS.keys())
def test_top_down_walk_matches_dense_ranks_and_a_bottom_up_walk(make):
    builder, diagram, degrees, wmax = make()
    raw = diagram.run(degrees, wmax, 2)
    assert raw and list(raw) == sorted(raw)
    strands = _strands(builder)
    assert strands
    for (l, d, w), h in strands.items():
        k = diagram.levels.index(l)
        x, prov = diagram.complexes[k], diagram.providers[k]
        assert h.dim == homology_dim(x, d, w, prov), (l, d, w)
        assert h.rank == (rank(strand_matrix(x, d, w, prov)) if h.basis.pairs else 0)

    # a fresh builder, each degree walked before the one above it
    fresh, walk, _, _ = make()
    for l, d, w in sorted(strands, key=lambda s: (s[1], s[2], s[0])):
        h, g = strands[(l, d, w)], walk.homology(walk.levels.index(l), d, w)
        assert (g.dim, g.reps, g.rep_cols) == (h.dim, h.reps, h.rep_cols), (l, d, w)
    assert walk.run(degrees, wmax, 2) == raw


def test_exact_strands_read_no_boundaries_where_ranks_decide_them(monkeypatch):
    # a boundary read is a strand_columns call into a homology strand's
    # own basis; strand_matrix reads d_d out of it instead
    targets = []
    real = complexes.strand_columns

    def counting(cols, src, dst, ring):
        targets.append(dst)
        return real(cols, src, dst, ring)

    monkeypatch.setattr(complexes, "strand_columns", counting)
    builder, diagram, degrees, wmax = _tot()
    diagram.run(degrees, wmax, 2)
    strands = _strands(builder)
    by_basis = {id(h.basis): key for key, h in strands.items()}
    read = {by_basis[id(t)] for t in targets if id(t) in by_basis}
    assert read
    decided = 0
    for (l, d, w), h in strands.items():
        above = strands.get((l, d + 1, w))
        if h.dim == 0 and above is not None and h.basis.pairs:
            decided += len(h.basis.pairs) > h.rank
            assert (l, d, w) not in read, (l, d, w)
    assert decided  # strands with cycles that ranks alone showed exact
