"""Ordinary graph complex flavor: enumeration, signs, small cohomology."""
import hashlib
import json
import runpy
import sys

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, permutations
from pathlib import Path

import pytest

from ribboncoh import gc2
from ribboncoh.cache import Cache
from ribboncoh.canonical import _order_sign
from ribboncoh.complexes import build, cohomology
from ribboncoh.diff import apply_linear, summed
from ribboncoh.gc2 import (
    GCClass,
    GCSpec,
    _cell,
    _gc_canonical_data,
    _gc_sign,
    _rounds,
    _splits,
    _valences,
)
from ribboncoh.linalg import AssemblyError, assemble
from test_canonical import perm_sign

K4_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
THETA_EDGES = ((0, 1), (0, 1), (0, 1))
# floor-2 generators at loop order 3, E=8, on 6 vertices, whose images
# under the differential have nonempty images themselves
D2_GENERATORS = (
    ((0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (3, 4), (3, 5), (4, 5)),
    ((0, 1), (0, 2), (0, 4), (1, 2), (2, 3), (2, 5), (3, 4), (4, 5)),
)


@dataclass(frozen=True)
class GCGraph:
    """Loopless multigraph on vertices 0..n_vertices-1; edges is a sorted
    tuple of sorted vertex pairs (parallel edges repeat).  The oracles'
    graph type: the package itself keeps bare edge tuples."""

    n_vertices: int
    edges: tuple

    def __post_init__(self):
        for a, b in self.edges:
            if a == b:
                raise ValueError("loop edges are not allowed")
            if not (0 <= a < b < self.n_vertices):
                raise ValueError("edge endpoints out of range or unsorted")
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))

    def valences(self):
        return _valences(self.n_vertices, self.edges)


def to_gc_class(g):
    """Canonicalize in one pass of its own; compare the graph's sorted edge
    tuple, its reference order, against the canonical reference order.
    The sign is +1 and meaningless for zero classes."""
    best, perms = _gc_canonical_data(g.n_vertices, g.edges)
    sign = _gc_sign(g.edges, perms)
    return GCClass(g.n_vertices, best, sign == 0), sign or 1


def gc_canonical(g):
    """Canonical representative plus one optimal permutation old->new."""
    best, perms = _gc_canonical_data(g.n_vertices, g.edges)
    return GCGraph(g.n_vertices, best), perms[0]


def gc_cell(loop_order, n_edges, min_valence=3):
    """The (nonzero classes, zero count) cell at the given loop order and
    edge count, read off the split rounds (floor 1 included)."""
    if n_edges < loop_order:
        return [], 0
    for e, layer in _rounds(loop_order, min_valence):
        if e == n_edges:
            return _cell(n_edges - loop_order + 1, layer)


def _edge_multisets(n_vertices, n_edges):
    pairs = [(a, b) for a in range(n_vertices) for b in range(a + 1, n_vertices)]
    return combinations_with_replacement(pairs, n_edges)


def _is_connected(g):
    seen, stack = {0}, [0]
    while stack:
        v = stack.pop()
        for e in g.edges:
            if v in e:
                w = e[0] + e[1] - v
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return len(seen) == g.n_vertices


def _scan_enumerate(loop_order, n_edges, min_valence):
    """gc_cell by a scan of every edge multiset on V = E - L + 1
    vertices (an oracle for the split closure): (sorted nonzero canonical
    edge tuples, zero count)."""
    seen = {}
    n_vertices = n_edges - loop_order + 1
    for edges in _edge_multisets(n_vertices, n_edges):
        g = GCGraph(n_vertices, edges)
        if min(g.valences()) >= min_valence and _is_connected(g):
            cls, _ = to_gc_class(g)
            seen[cls.edges] = cls.zero_flag
    return sorted(e for e, zero in seen.items() if not zero), sum(seen.values())


def _relabeled(edges, perm):
    return tuple(sorted(tuple(sorted((perm[a], perm[b]))) for a, b in edges))


def gc_automorphisms(g):
    """Every automorphism, by a scan of all vertex permutations (an oracle
    for the canonical scan; V! permutations, so small graphs only)."""
    return [
        perm
        for perm in permutations(range(g.n_vertices))
        if _relabeled(g.edges, perm) == g.edges
    ]


def _has_parallel_edges(g):
    return len(set(g.edges)) != len(g.edges)


def _edge_perm_sign(g, perm):
    """Sign of the edge permutation induced by a vertex automorphism;
    requires distinct edges (no parallels)."""
    pos = {e: i for i, e in enumerate(g.edges)}
    images = [pos[tuple(sorted((perm[a], perm[b])))] for a, b in g.edges]
    return perm_sign(images)


def test_graph_validation():
    with pytest.raises(ValueError):
        GCGraph(2, ((0, 0),))  # loop edge
    with pytest.raises(ValueError):
        GCGraph(2, ((0, 2),))  # out of range
    g = GCGraph(4, K4_EDGES)
    assert g.valences() == [3, 3, 3, 3]
    assert GCGraph(2, THETA_EDGES).edges == THETA_EDGES  # parallel edges repeat


def test_degree_grading():
    # K4: loop order 3, E = 6, V = 4; |G| = 2d(V-1) + (1-2d)E
    assert GCSpec(3, 0, 6, 6).degree(6) == 6
    assert GCSpec(3, 1, 6, 6).degree(6) == 2 * 3 + (1 - 2) * 6  # 0


def test_canonical_invariant_under_relabeling():
    g = GCGraph(4, K4_EDGES)
    relabeled = GCGraph(4, tuple(tuple(sorted((3 - a, 3 - b))) for a, b in K4_EDGES))
    assert gc_canonical(g)[0] == gc_canonical(relabeled)[0]
    canon, perm = gc_canonical(g)
    assert sorted(perm) == list(range(4))
    assert gc_canonical(canon)[0] == canon


def test_canonical_invariant_under_relabeling_with_mixed_valences():
    # two triangles sharing an edge have valences 2, 3, 3, 2; every
    # relabeling must give the same class and the same sign
    two_triangles = GCGraph(4, ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3)))
    cls, sign = to_gc_class(two_triangles)
    assert not cls.zero_flag
    for perm in permutations(range(4)):
        images = [tuple(sorted((perm[a], perm[b]))) for a, b in two_triangles.edges]
        other, other_sign = to_gc_class(GCGraph(4, tuple(images)))
        assert other == cls
        # the relabeled reference order against the image of the original one
        assert other_sign == sign * _order_sign(images)


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
            if not _is_connected(g):
                continue
            cls, _ = to_gc_class(g)
            canon = GCGraph(cls.n_vertices, cls.edges)
            expected = _has_parallel_edges(canon) or any(
                _edge_perm_sign(canon, a) < 0 for a in gc_automorphisms(canon)
            )
            assert cls.zero_flag is expected


def _oracle_delta(x, min_valence):
    """The differential by explicit edge orders: each split's order (the
    fresh edge last) is pushed through one optimal permutation and read off
    its positions in the canonical edge tuple; a class with parallel edges
    or an edge-odd automorphism is zero."""
    out = {}
    g = GCGraph(x.n_vertices, x.edges)
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
                if _has_parallel_edges(canon) or any(
                    _edge_perm_sign(canon, a) < 0 for a in gc_automorphisms(canon)
                ):
                    continue
                pos = {e: i for i, e in enumerate(canon.edges)}
                moved = [pos[tuple(sorted((perm[a], perm[b])))] for a, b in order]
                cls, _ = to_gc_class(canon)
                out[cls] = out.get(cls, 0) + perm_sign(moved)
    return {cls: c for cls, c in out.items() if c}


def test_edge_order_sign():
    # every block the chain sums off the split rounds equals the one that
    # transporting each split's explicit edge order to the canonical graph
    # gives; the floor-2 block from E=5 at loop order 2 has an entry
    n_blocks = 0
    for spec in (GCSpec(2, 0, 2, 8, 2), GCSpec(3, 0, 3, 8, 2), GCSpec(3, 1, 3, 8, 3),
                 GCSpec(4, 0, 4, 8, 3)):
        sl = build(spec)
        oracle = lambda x: _oracle_delta(x, spec.min_valence)
        for e, m in sl.matrices.items():
            assert m == assemble(sl.bases[e], sl.bases[e + 1], oracle), (spec, e)
            n_blocks += bool(m.nnz)
    assert n_blocks == 1


def _canonical_passes(monkeypatch, spec):
    """build(spec), and the calls of gc2._gc_canonical_data it makes."""
    calls = [0]
    real = gc2._gc_canonical_data

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(gc2, "_gc_canonical_data", counted)
    return build(spec), calls[0]


def test_chain_canonicalizes_each_round_once(monkeypatch):
    # one walk of the rounds, each distinct sorted edge tuple canonicalized
    # once, and every zero flag read off the round (655 when every cell
    # regrew its rounds from the rose and the block was assembled, 325 when
    # each loopless class took one more pass for its zero flag)
    assert _canonical_passes(monkeypatch, GCSpec(2, 0, 2, 8, 2))[1] == 287


@pytest.mark.acceptance
def test_chain_canonical_passes_at_floor_two(monkeypatch):
    # as above, at loop order 3, E 3..9 (6,242 when every cell regrew its
    # rounds, 3,814 with a zero-flag pass per loopless class); the block
    # from E=8, 13 entries, matches the explicit edge-order oracle
    sl, calls = _canonical_passes(monkeypatch, GCSpec(3, 0, 3, 9, 2))
    assert calls == 3577
    assert sl.matrices[8] == assemble(sl.bases[8], sl.bases[9], lambda x: _oracle_delta(x, 2))


def test_enumerate_frozen():
    # loop order 1 is empty in the trivalent-plus convention
    for e in range(1, 7):
        assert gc_cell(1, e) == ([], 0)
    # loop order 2: only the theta graph, zero by its parallel edges
    assert gc_cell(2, 3) == ([], 1)
    # loop order 3: one nonzero class (K4) at six edges
    nz, z = gc_cell(3, 6)
    assert len(nz) == 1 and z == 1
    assert nz[0].edges == K4_EDGES
    assert gc_cell(3, 4) == ([], 1)
    nz5, z5 = gc_cell(3, 5)
    assert (len(nz5), z5) == (0, 1)
    # loop order 2, floor 2: two triangles sharing an edge is the one
    # nonzero class; a triangle and a bigon sharing a vertex, two bigons
    # joined by an edge, and a bigon joined by a path of three edges are
    # zero by their parallel edges
    nz, z = gc_cell(2, 5, 2)
    assert len(nz) == 1 and z == 3
    assert nz[0].edges == ((0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def test_closure_matches_multiset_scan():
    # the split rounds from the rose find the classes and zero counts of
    # the multiset scan in every cell with L <= 4 and E <= 6, floors 1 to 3
    n_cells = 0
    for loop_order in range(1, 5):
        for n_edges in range(loop_order, 7):
            for min_valence in (1, 2, 3):
                nonzero, zero = gc_cell(loop_order, n_edges, min_valence)
                assert (sorted(c.edges for c in nonzero), zero) == _scan_enumerate(
                    loop_order, n_edges, min_valence
                )
                n_cells += 1
    assert n_cells == 54


def test_floor_two_layer_at_loop_order_three():
    # E=8 on 6 vertices; its rounds hold 1, 5, 15, 41, 87 and 176 classes,
    # loops included
    nonzero, zero = gc_cell(3, 8, 2)
    assert (len(nonzero), zero) == (4, 61)


def test_guard():
    # the guard is checked where the spec is validated, before any build
    with pytest.raises(ValueError, match="^loop order guard is 4, got 5$"):
        GCSpec(5, 0, 5, 8)


def _split_image(x, min_valence):
    """The chain's sign rule applied to one class: its splits whose moved
    part is not empty, each the ``_gc_sign`` of its edge order."""
    terms = []
    for order, empty in _splits(x.n_vertices, x.edges, min_valence):
        if not empty:
            best, perms = _gc_canonical_data(x.n_vertices + 1, tuple(sorted(order)))
            terms.append((GCClass(x.n_vertices + 1, best, False), _gc_sign(order, perms)))
    return summed(terms)


def test_split_sign_is_one_sort():
    # the sign of an edge order, read in one sort, is the sign of sorting
    # it times the sign of its sorted tuple, over every split of the
    # floor-2 classes at loop order 3, E=8, zero classes included
    n_splits = 0
    for e, layer in _rounds(3, 2):
        if e == 8:
            break
    for key in layer:
        for order, _ in _splits(6, key, 2):
            edges = tuple(sorted(order))
            _, perms = _gc_canonical_data(7, edges)
            assert _gc_sign(order, perms) == _order_sign(order) * _gc_sign(edges, perms)
            n_splits += 1
    assert n_splits > 1000


def test_lost_class_is_an_assembly_error(monkeypatch):
    # a cell that loses a class some block maps into raises the typed error
    # on placement: the floor-2 block from E=5 at loop order 2 has rank 1,
    # and its target cell, E=6 on 5 vertices, is read without its classes
    real = gc2._cell

    def lossy(n_vertices, layer):
        nonzero, zero = real(n_vertices, layer)
        return ([], zero) if n_vertices == 5 else (nonzero, zero)

    monkeypatch.setattr(gc2, "_cell", lossy)
    with pytest.raises(AssemblyError, match="^image class "):
        build(GCSpec(2, 0, 2, 8, 2))


def test_delta_squared_zero():
    # the chain's sign rule squares to zero on generators whose images have
    # nonempty images themselves (no gc2 table in reach of the fast tier
    # has two composable nonzero blocks); on the generators themselves it
    # agrees with the explicit edge-order oracle
    def d(cls):
        return _split_image(cls, 2)

    for edges in D2_GENERATORS:
        x, _ = to_gc_class(GCGraph(6, edges))
        assert not x.zero_flag
        image = d(x)
        assert image == _oracle_delta(x, 2)
        assert any(d(y) for y in image)
        assert apply_linear(d, image) == {}


def test_cohomology_frozen():
    rows = cohomology(build(GCSpec(3, 0, 3, 8)))
    by_e = {r["edges"]: r for r in rows}
    assert all(r["status"] == "certified" for r in rows)
    assert by_e[6]["dim"] == 1 and by_e[6]["h"] == 1
    for e in (3, 4, 5, 7, 8):
        assert by_e[e]["h"] == 0


def test_cohomology_certified_with_zero_class_neighbor():
    # E=5 holds zero classes only, so the rank into E=6 is 0 and the K4 row
    # is certified
    rows = cohomology(build(GCSpec(3, 0, 6, 8)))
    first = rows[0]
    assert first["edges"] == 6 and first["dim"] == 1
    assert first["status"] == "certified" and first["h"] == 1
    assert first["cells"] == {3: 1} and first["zero_classes"] == 1


def test_cache_is_refused_before_any_enumeration(tmp_path, monkeypatch):
    # cache entries are keyed by ribbon spec fields; a gc2 build with a
    # cache says so instead of failing inside the key, and enumerates nothing
    def no_enumeration(self, n, below):
        raise AssertionError("walked the cells of loop order %d" % n)

    monkeypatch.setattr(GCSpec, "chain", no_enumeration)
    with pytest.raises(TypeError, match="ribbon complexes only, not GCSpec"):
        build(GCSpec(3, 0, 3, 6), cache=Cache(str(tmp_path)))
    assert list(tmp_path.iterdir()) == []


def test_odd_cohomology_digest():
    # SHA-256 of the d = 1 table, frozen from the payload-transport sign code
    rows = cohomology(build(GCSpec(3, 1, 3, 9)))
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest == "bf4d8fb67c916ba88f7b85dffcaca917fd5e2c75e36c50ddf10f28194330396f"


def _matrices_digest(sl):
    """SHA-256 of a slice's matrices as triplet text, by source edge count."""
    text = "".join(
        "# d from E=%d\n%s" % (e, m.to_triplet_text()) for e, m in sorted(sl.matrices.items())
    )
    return hashlib.sha256(text.encode()).hexdigest()


def test_matrices_digest():
    # SHA-256 of the matrices' triplet text, frozen before gc2's chain gave
    # its blocks itself; at loop order 3 every block is empty, so this pins
    # their shapes
    digest = _matrices_digest(build(GCSpec(3, 0, 3, 8)))
    assert digest == "cab49946e2d87116b72cfeef1e1a7e19aa23960bc42a0ce1b79a70770b654ad6"


def test_signed_entry_at_loop_order_two():
    # frozen from the multiset-scan code: the floor-2 block from E=5 (two
    # triangles sharing an edge) has one entry, 2
    assert build(GCSpec(2, 0, 2, 6, 2)).matrices[5].entries == ((0, 0, 2),)


@pytest.mark.acceptance
def test_signed_matrices_digest_at_floor_two():
    # SHA-256 of the matrices' triplet text at loop order 3, floor 2, E 3..9,
    # frozen from the multiset-scan code; the block from E=8 is 18x4 with 13
    # entries in {-4, -2, -1, 1, 2, 6}
    sl = build(GCSpec(3, 0, 3, 9, 2))
    assert len(sl.matrices[8].entries) == 13
    assert _matrices_digest(sl) == "bcba74c147af6e1a10819c41636c34f14a02c0d07fd2f54c6c94e54a166907e2"


@pytest.mark.acceptance
def test_d_squared_meets_two_nonzero_blocks_at_floor_two():
    # at loop order 3, floor 2, E 3..10 the blocks from E=8 (18x4, 13
    # entries) and E=9 (34x18, 50 entries) compose, so build's own
    # D_{E+1} D_E = 0 check tests the sign rule; h = 1 only at E=6, the
    # wheel with three spokes (K4)
    sl = build(GCSpec(3, 0, 3, 10, 2))
    assert [(e, m.rows, m.cols, m.nnz) for e, m in sorted(sl.matrices.items()) if m.nnz] == [
        (8, 18, 4, 13), (9, 34, 18, 50),
    ]
    rows = [(r["edges"], r["dim"], r["zero_classes"], r["rank_in"], r["rank_out"], r["h"], r["status"])
            for r in cohomology(sl)]
    assert rows == [
        (3, 0, 0, 0, 0, 0, "certified"),
        (4, 0, 1, 0, 0, 0, "certified"),
        (5, 0, 3, 0, 0, 0, "certified"),
        (6, 1, 11, 0, 0, 1, "certified"),
        (7, 0, 27, 0, 0, 0, "certified"),
        (8, 4, 61, 0, 4, 0, "certified"),
        (9, 18, 111, 4, 14, 0, "certified"),
        (10, 34, 211, 14, None, None, "truncated"),
    ]
    assert sl.bases[6][0].edges == K4_EDGES


def test_tables_need_a_valence_floor_of_two():
    # the split never makes a univalent vertex, so at floor 1 d o d != 0;
    # the first table raised DifferentialIdentityError at E 5->7
    for args in ((1, 0, 2, 7, 1), (2, 0, 3, 8, 1)):
        with pytest.raises(ValueError, match="min_valence >= 2"):
            cohomology(build(GCSpec(*args)))


def _gc2_tables(monkeypatch, *argv):
    script = Path(__file__).resolve().parents[1] / "scripts" / "gc2_tables.py"
    main = runpy.run_path(str(script))["main"]
    monkeypatch.setattr(sys, "argv", ["gc2_tables.py", *argv])
    return main()


def test_gc2_tables_script_rejects_floor_one(monkeypatch, capsys):
    assert _gc2_tables(monkeypatch, "--loop-order", "1", "--e-range", "2..7",
                       "--min-valence", "1") == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "min_valence >= 2" in out.err


def test_gc2_tables_script_parses_the_edge_range(monkeypatch, capsys):
    # one edge count is a range of one row; a malformed range exits 2
    assert _gc2_tables(monkeypatch, "--e-range", "6") == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2 and out[1].split()[1] == "6"
    assert _gc2_tables(monkeypatch, "--e-range", "3..x") == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("invalid spec: ")


@pytest.mark.parametrize("argv, spec", [
    (("--e-range", "8..6"), (3, 0, 8, 6)),
    (("--e-range", "0..2", "--loop-order", "2"), (2, 0, 0, 2)),
    (("--loop-order", "-1"), (-1, 0, 3, 8)),
])
def test_gc2_tables_script_rejects_bad_ranges(monkeypatch, capsys, argv, spec):
    with pytest.raises(ValueError, match="loop_order >= 1 and 1 <= e_min <= e_max"):
        GCSpec(*spec)
    assert _gc2_tables(monkeypatch, *argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("invalid spec: need loop_order >= 1")
