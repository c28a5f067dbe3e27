"""Rank-first homology on level walks.

`LevelDiagram.run` walks degrees from the top down, so the (d+1, w)
strand is cached when (d, w) is computed, and `homology_data` reads
rank(d_{d+1}) from it: a strand with as many cycles as that rank is exact
and builds no boundaries. A top strand reads that rank from the free
rows of d_{d+1} instead, and reads boundary columns only when it has
homology. These tests tie the shortcut to routes that
share none of it: dense ranks, and a fresh family walked bottom-up,
where no strand has its (d+1, w) neighbour cached.
"""

from fractions import Fraction

import pytest

from idemq import complexes, derived
from idemq.complexes import (
    Strands,
    strand_basis,
    strand_rows,
    strand_weights,
)
from idemq.derived import (
    Tower,
    default_bounds,
    ideal_module,
    quotient_module,
    residue_module,
    resolution_family,
)
from idemq.fields import GF, QQ
from idemq.ideals import IdealFamily, fixed_family, roots_family
from idemq.rings import RingSpec, VarInfo, make_level_ring
from idemq.sparsela import Echelon
from oracles import amitsur_tot_family, cofibre_cone, homology_dim, mono, rank, strand_matrix

F0 = Fraction(0)
F1 = Fraction(1)


def _spec_t(trunc=True):
    return RingSpec(
        field=QQ,
        root_base=2,
        variables=(VarInfo("t", True),),
        truncations=(((F1,),) if trunc else ()),
    )


def _tot():
    # the Amitsur totalization Tot^m, (m, N) = (4, 2)
    m, N = 4, 2
    spec = _spec_t()
    family = roots_family(spec, "t")
    wmax = default_bounds(N).weight_max
    tot = amitsur_tot_family(spec, family, m, N, wmax)
    return tot, tot.diagram([1, 2, 3]), range(N + 1), wmax


def _q():
    # its Morse reduction Q(m + 1), as amitsur_crosscheck reads it
    m, N = 4, 2
    spec = _spec_t()
    wmax = default_bounds(N).weight_max
    q = Tower(spec, roots_family(spec, "t"), N, wmax).Q(m + 1)
    return q, q.diagram([1, 2, 3]), range(N + 1), wmax


def _cof():
    # cone(sigma_3), the cofibre tower_report reads below degree 3
    spec = _spec_t()
    cof = cofibre_cone(Tower(spec, roots_family(spec, "t"), 3, Fraction(2)), 3)
    return cof, cof.diagram([1, 2, 3]), range(3), Fraction(2)


def _tor():
    # Tor(I, R/J) on the untruncated t spec, as derived_tensor builds it at deg_max 1
    spec = _spec_t(trunc=False)
    I = roots_family(spec, "t")
    J = fixed_family(spec, [mono(spec, t=1)], name="J")
    tor = resolution_family(spec, ideal_module(I), 2, Fraction(2), against=quotient_module(J))
    return tor, tor.diagram([1, 2, 3]), range(2), Fraction(2)


DIAGRAMS = {"amitsur-tot": _tot, "amitsur-q": _q, "cof-sigma": _cof, "tor-I-RJ": _tor}


def _cof_r3():
    # the cofibre of sigma_1 over K[t^(1/3^l)]/(t): lattices 1/3, 1/9, 1/27
    spec = RingSpec(field=QQ, root_base=3, variables=(VarInfo("t", True),), truncations=((F1,),))
    cof = cofibre_cone(Tower(spec, roots_family(spec, "t"), 2, Fraction(1)), 1)
    return cof, cof.diagram([1, 2, 3]), range(2), Fraction(1)


def _tor_mixed():
    # Tor(I, K) for I = roots(x), y over K[x^(1/2^l), y]/(x^2, y^2) from
    # level 0, where the denom is 1: a unit of y's weight is denom units
    spec = RingSpec(
        field=QQ,
        root_base=2,
        variables=(VarInfo("x", True), VarInfo("y", False)),
        truncations=((Fraction(2), F0), (F0, Fraction(2))),
    )
    I = IdealFamily(name="I", spec=spec, root_vars=(0,), gens=((F0, F1),))
    tor = resolution_family(spec, ideal_module(I), 3, Fraction(2), against=residue_module())
    return tor, tor.diagram([0, 1, 2]), range(3), Fraction(2)


def _tor_plain():
    # Tor(J, R/K) over K[x, y]/(x^2 y): no divisible variable, so the
    # denom is 1 at every level
    spec = RingSpec(
        field=QQ,
        root_base=2,
        variables=(VarInfo("x", False), VarInfo("y", False)),
        truncations=((Fraction(2), F1),),
    )
    J = fixed_family(spec, [mono(spec, x=1)], name="J")
    K = fixed_family(spec, [mono(spec, y=1)], name="K")
    tor = resolution_family(spec, ideal_module(J), 2, Fraction(3), against=quotient_module(K))
    return tor, tor.diagram([0, 1, 2]), range(2), Fraction(3)


WALKS = {**DIAGRAMS, "cof-sigma-r3": _cof_r3, "tor-mixed": _tor_mixed, "tor-plain": _tor_plain}


@pytest.mark.parametrize("make", DIAGRAMS.values(), ids=DIAGRAMS.keys())
def test_top_down_walk_matches_dense_ranks_and_a_bottom_up_walk(make):
    family, diagram, degrees, wmax = make()
    raw = diagram.run(degrees, wmax, 2)
    assert raw and list(raw) == sorted(raw)
    strands = family.homology_cache  # keyed (level, d, n), n the weight at that level
    assert strands
    for (l, d, n), h in strands.items():
        k = diagram.levels.index(l)
        x, prov = diagram.complexes[k], diagram.providers[k]
        assert h.dim == homology_dim(x, d, Fraction(n, x.ring.denom), prov), (l, d, n)
        assert h.rank == (rank(strand_matrix(x, d, n, prov)) if h.basis.size else 0)

    def weight(key):  # the level-free weight of a cache key
        l, _d, n = key
        return Fraction(n, diagram.complexes[diagram.levels.index(l)].ring.denom)

    # a fresh family, each degree walked before the one above it
    fresh, walk, _, _ = make()
    for l, d, n in sorted(strands, key=lambda s: (s[1], weight(s), s[0])):
        h, g = strands[(l, d, n)], walk.homology(walk.levels.index(l), d, n)
        assert (g.dim, g.reps, g.rep_cols) == (h.dim, h.reps, h.rep_cols), (l, d, n)
    assert walk.run(degrees, wmax, 2) == raw


def test_exact_strands_read_no_boundaries_where_ranks_decide_them(monkeypatch):
    # d_{d+1} is read into a homology strand's own basis: by columns, a
    # strand_columns call with that basis as its target, or by rows, a
    # strand_rows call over that basis's pairs (its free rows). d_d is
    # read by rows over the pairs of the strand below instead, a strand
    # built afresh, so it never shares a cached basis object.
    columns, rows, yielded = [], [], {}
    real_columns, real_rows = complexes.strand_columns, complexes.strand_rows

    def counting_columns(cols, src, dst, ring):
        columns.append(dst)
        return real_columns(cols, src, dst, ring)

    def counting_rows(index, dst, src, ring, skip=()):
        rows.append(dst)
        for row in real_rows(index, dst, src, ring, skip):
            yielded[id(dst)] = yielded.get(id(dst), 0) + 1
            yield row

    monkeypatch.setattr(complexes, "strand_columns", counting_columns)
    monkeypatch.setattr(complexes, "strand_rows", counting_rows)
    family, diagram, degrees, wmax = _tot()
    diagram.run(degrees, wmax, 2)
    strands = family.homology_cache
    by_basis = {id(h.basis): key for key, h in strands.items()}
    read_columns = {by_basis[id(t)] for t in columns if id(t) in by_basis}
    read_rows = {by_basis[id(t)] for t in rows if id(t) in by_basis}
    assert read_columns and read_rows
    decided = 0
    for (l, d, n), h in strands.items():
        if h.dim == 0:
            assert (l, d, n) not in read_columns, (l, d, n)
        above = strands.get((l, d + 1, n))
        if h.dim == 0 and above is not None and h.basis.size:
            decided += h.basis.size > h.rank
            assert (l, d, n) not in read_rows, (l, d, n)
    assert decided  # strands with cycles that ranks alone showed exact
    # only the free rows are read, one per cycle at most
    for key in read_rows:
        h = strands[key]
        assert yielded.get(id(h.basis), 0) <= h.basis.size - h.rank, key
    # the free rows settle some top strands with cycles, and no column
    assert any(
        strands[key].dim == 0 and strands[key].basis.size > strands[key].rank
        for key in read_rows
    )


def test_free_rows_of_the_boundary_have_its_rank_on_top_strands():
    # quotient-homotopy reads degree d from its own cone Q_{d+2}, so every
    # strand is the top of its walk and takes rank(d_{d+1}) from the rows
    # of d_{d+1} at the free columns of d_d; F_7, truncate x y, N = 2
    spec = RingSpec(
        field=GF(7),
        root_base=2,
        variables=(VarInfo("x", True), VarInfo("y", True)),
        truncations=((F1, F1),),
    )
    family = IdealFamily(name="I", spec=spec, root_vars=(0, 1))
    N, levels = 2, [1, 2]
    wmax = default_bounds(N).weight_max
    tw = Tower(spec, family, N, wmax)
    for d in range(N + 1):
        tw.Q(d + 2).diagram(levels).run([d], wmax, 2)
    strands = {
        (q, *key): h for q in range(2, N + 3) for key, h in tw.Q(q).homology_cache.items()
    }
    exact = 0
    for (q, l, d, n), h in strands.items():
        assert (q, l, d + 1, n) not in strands  # a top strand
        if not h.basis.size:
            continue
        x, prov = tw.Q(q).at(l), Strands(make_level_ring(spec, l))
        below = strand_basis(x, d - 1, n, prov)
        diff_ech = Echelon(x.field)
        for row in strand_rows(x.rows_at(d), below, h.basis, x.ring):
            diff_ech.insert(row)
        assert diff_ech.rank == h.rank
        above = strand_basis(x, d + 1, n, prov)
        free = Echelon(x.field)
        for row in strand_rows(x.rows_at(d + 1), h.basis, above, x.ring, skip=diff_ech.rows):
            free.insert(row)
        assert free.rank == rank(strand_matrix(x, d + 1, n, prov)), (q, l, d, n)
        assert h.dim == h.basis.size - h.rank - free.rank
        exact += h.dim == 0 and free.rank > 0
    assert exact


@pytest.mark.parametrize("make", WALKS.values(), ids=WALKS.keys())
def test_integer_walk_merges_every_levels_strand_weights(make):
    # the walk's cells are the sorted union of every level's strand
    # weights as Fractions, its weight at level k is the cell's own or
    # None off that level's lattice, and each homology it reads has the
    # dense dimension at the Fraction weight
    family, diagram, degrees, wmax = make()
    raw = diagram.run(degrees, wmax, 2)
    seen = []

    def record(d, ns):
        seen.append((d, ns))
        return None

    assert diagram.walk(degrees, wmax, 2, record) == {}
    denom = diagram.complexes[-1].ring.denom
    want = [
        (d, w)
        for d in sorted(degrees, reverse=True)
        for w in sorted(
            {
                Fraction(n, x.ring.denom)
                for x, prov in zip(diagram.complexes, diagram.providers)
                for n in strand_weights(x, d, x.ring.num_floor(wmax), prov)
            }
        )
    ]
    assert [(d, Fraction(ns[-1], denom)) for d, ns in seen] == want
    alive = set()
    for d, ns in seen:
        w = Fraction(ns[-1], denom)
        for k, (x, prov, n) in enumerate(zip(diagram.complexes, diagram.providers, ns)):
            assert n == x.ring.num(w), (d, w, k)
            dim = diagram.homology(k, d, n).dim
            assert dim == homology_dim(x, d, w, prov), (d, w, k)
            if dim:
                alive.add((d, w))
    assert alive and set(raw) == alive
    # every cache key names its weight by the level's integer, never None
    assert family.homology_cache and family.step_cache
    caches = (family.homology_cache, family.step_cache)
    assert all(type(key[-1]) is int for cache in caches for key in cache)


def test_a_level_walk_hashes_one_fraction_per_recorded_cell(monkeypatch):
    # inside a level weights are integers: the walk builds a Fraction only
    # for the cells it records, and hashes it once, as the result's key
    _family, diagram, degrees, wmax = _cof()
    calls = []
    real = Fraction.__hash__

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(Fraction, "__hash__", counting)
    raw = diagram.run(degrees, wmax, 2)
    monkeypatch.undo()
    assert raw
    assert len(calls) <= len(raw)
