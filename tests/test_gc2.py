"""Ordinary graph complex flavor: enumeration, signs, small cohomology."""
import hashlib
import json

from itertools import combinations

import pytest

from ribboncoh.canonical import perm_sign
from ribboncoh.diff import FormalSum, apply_linear
from ribboncoh.gc2 import (
    GCGraph,
    _edge_multisets,
    _edge_perm_sign,
    gc_automorphisms,
    gc_canonical,
    gc_cohomology,
    gc_delta,
    gc_enumerate,
    to_gc_class,
)

K4_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
THETA_EDGES = ((0, 1), (0, 1), (0, 1))


def test_graph_validation():
    with pytest.raises(ValueError):
        GCGraph(2, ((0, 0),))  # loop edge
    with pytest.raises(ValueError):
        GCGraph(2, ((0, 2),))  # out of range
    g = GCGraph(4, K4_EDGES)
    assert g.valences() == [3, 3, 3, 3]
    assert g.loop_order == 3
    assert g.is_connected()
    assert not g.has_parallel_edges()
    assert GCGraph(2, THETA_EDGES).has_parallel_edges()


def test_degree_grading():
    k4 = GCGraph(4, K4_EDGES)
    assert k4.degree(0) == 6
    assert k4.degree(1) == 2 * 3 + (1 - 2) * 6  # 0


def test_canonical_invariant_under_relabeling():
    g = GCGraph(4, K4_EDGES)
    relabeled = GCGraph(4, tuple(tuple(sorted((3 - a, 3 - b))) for a, b in K4_EDGES))
    assert gc_canonical(g)[0] == gc_canonical(relabeled)[0]
    canon, perm = gc_canonical(g)
    assert sorted(perm) == list(range(4))
    assert gc_canonical(canon)[0] == canon


def test_automorphisms_k4():
    # K4 is vertex-transitive: all 24 permutations are automorphisms
    assert len(gc_automorphisms(GCGraph(4, K4_EDGES))) == 24


def test_zero_flags():
    k4_cls, _ = to_gc_class(GCGraph(4, K4_EDGES))
    assert not k4_cls.zero_flag
    theta_cls, _ = to_gc_class(GCGraph(2, THETA_EDGES))
    assert theta_cls.zero_flag  # parallel edges
    # the 4-cycle: rotation induces a 4-cycle on edges, an odd permutation
    c4 = GCGraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
    cls, _ = to_gc_class(c4)
    assert cls.zero_flag
    # two triangles sharing an edge: every automorphism is edge-even
    dt = GCGraph(4, ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3)))
    assert not to_gc_class(dt)[0].zero_flag


def test_zero_flag_matches_automorphism_scan():
    # the zero flag read off the canonicalization scan agrees with a
    # separate scan of the automorphisms of the canonical graph
    for n_vertices, n_edges in ((2, 3), (3, 4), (3, 5), (4, 5), (4, 6)):
        for edges in _edge_multisets(n_vertices, n_edges):
            g = GCGraph(n_vertices, edges)
            if not g.is_connected():
                continue
            cls, _ = to_gc_class(g)
            canon = cls.graph
            expected = canon.has_parallel_edges() or any(
                _edge_perm_sign(canon, a) < 0 for a in gc_automorphisms(canon)
            )
            assert cls.zero_flag is expected


def _oracle_delta(x, min_valence):
    """gc_delta by explicit edge orders: each split's order (the fresh
    edge last) is pushed through one optimal permutation and read off its
    positions in the canonical edge tuple; a class with parallel edges or
    an edge-odd automorphism is zero."""
    out = FormalSum()
    g = x.graph
    nv = g.n_vertices
    for v in range(nv):
        incident = [i for i, e in enumerate(g.edges) if v in e]
        for k in range(1, len(incident)):
            for part_b in combinations(incident[1:], k):
                order = [
                    tuple(sorted(nv if (i in part_b and c == v) else c for c in e))
                    for i, e in enumerate(g.edges)
                ] + [(v, nv)]
                ng = GCGraph(nv + 1, tuple(order))
                if min(ng.valences()) < min_valence:
                    continue
                canon, perm = gc_canonical(ng)
                if canon.has_parallel_edges() or any(
                    _edge_perm_sign(canon, a) < 0 for a in gc_automorphisms(canon)
                ):
                    continue
                pos = {e: i for i, e in enumerate(canon.edges)}
                moved = [pos[tuple(sorted((perm[a], perm[b])))] for a, b in order]
                cls, _ = to_gc_class(canon)
                out.add_term(cls, perm_sign(moved))
    return out


def test_edge_order_sign():
    # every term's sign in gc_delta matches transporting its explicit edge
    # order to the canonical graph
    n_terms = 0
    for loop_order, n_edges, min_valence in ((1, 5, 1), (2, 5, 2), (3, 6, 3)):
        for x in gc_enumerate(loop_order, n_edges, min_valence)[0]:
            image = gc_delta(x, min_valence)
            assert image == _oracle_delta(x, min_valence)
            n_terms += len(image)
    assert n_terms > 10


def test_enumerate_frozen():
    # loop order 1 is empty in the trivalent-plus convention
    for e in range(1, 7):
        assert gc_enumerate(1, e) == ([], 0)
    # loop order 2: only the theta graph, zero by its parallel edges
    assert gc_enumerate(2, 3) == ([], 1)
    # loop order 3: one nonzero class (K4) at six edges
    nz, z = gc_enumerate(3, 6)
    assert len(nz) == 1 and z == 1
    assert nz[0].edges == K4_EDGES
    assert gc_enumerate(3, 4) == ([], 1)
    nz5, z5 = gc_enumerate(3, 5)
    assert (len(nz5), z5) == (0, 3)


def test_guard():
    with pytest.raises(ValueError):
        gc_enumerate(5, 8)


def test_delta_squared_zero():
    for e in (5, 6):
        nz, _ = gc_enumerate(3, e)
        for cls in nz:
            assert apply_linear(gc_delta, gc_delta(cls)).is_zero()


def test_cohomology_frozen():
    rows = gc_cohomology(3, 0, (3, 8))
    by_e = {r["edges"]: r for r in rows}
    assert all(r["status"] == "certified" for r in rows)
    assert by_e[6]["dim"] == 1 and by_e[6]["h"] == 1
    for e in (3, 4, 5, 7, 8):
        assert by_e[e]["h"] == 0


def test_cohomology_truncated_without_empty_neighbor():
    # E=5 holds zero classes only but is not provably empty, so the rank
    # into E=6 is unknown and the K4 row cannot report h
    rows = gc_cohomology(3, 0, (6, 8))
    first = rows[0]
    assert first["edges"] == 6 and first["dim"] == 1
    assert first["status"] == "truncated" and first["h"] is None
    assert first["cells"] == {3: 1} and first["zero_classes"] == 1


def test_odd_cohomology_digest():
    # SHA-256 of the d = 1 table, frozen from the payload-transport sign code
    rows = gc_cohomology(3, 1, (3, 9))
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest == "cff1ce13cace3fc7e3fe0632631675b6cce9a3e0c02001eae43e16f63bf2d0af"
