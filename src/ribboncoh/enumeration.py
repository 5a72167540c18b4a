"""Exhaustive generation of connected ribbon graph isomorphism classes.

Two independent code paths, neither of which keeps state between calls:

* the fast enumerator builds each (genus, boundaries, edges, valence floor)
  cell as a closure under the package's own moves: the one-vertex maps of
  the genus and boundary count grow from the loop one chord at a time, and
  rounds of vertex splits then add one vertex and one edge each.  Every
  candidate is canonicalized once and deduplicated by its canonical form;
  the same pass gives its automorphisms and its zero flag;
* the brute-force oracle scans every vertex permutation on labeled
  half-edges against the fixed edge pairing and deduplicates by canonical
  form.  It is guarded to small sizes and must agree with the fast path.

Closed-form counts (rooted maps and orbifold Euler characteristics) check
the fast path past the oracle's reach in ``tests/test_enumeration.py``.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .canonical import (
    EVEN,
    OrientedClass,
    _canonical_data,
    _zero_flag,
)
from .canonical import is_minimal_form  # noqa: F401  (perfbench/tracer.py reads this name)
from .diff import _add_chord, _cuts, _split_graph
from .ribbon import RibbonGraph, boundaries, orbits, vertices


@dataclass(frozen=True)
class EnumSpec:
    genus: int
    boundaries: int
    edges: int
    min_valence: int = 1
    parity: int = EVEN

    @property
    def n_vertices(self) -> int:
        return self.edges + 2 - 2 * self.genus - self.boundaries

    def is_consistent(self) -> tuple[bool, str]:
        if self.genus < 0 or self.boundaries < 1 or self.edges < 1:
            return False, "need genus >= 0, boundaries >= 1, edges >= 1"
        v = self.n_vertices
        if v < 1:
            return False, "no vertex count fits: V = E + 2 - 2g - n < 1"
        if self.min_valence * v > 2 * self.edges:
            return False, "valence bound exceeds half-edge supply"
        return True, ""


def _canonical_layer(raw_pairs) -> dict:
    """Canonical pair -> optimal relabelings, one entry per isomorphism
    class among the raw (sigma0, sigma1) pairs.  The relabelings come from
    the one ``_canonical_data`` call that first met the class, so their
    number is |Aut| and they give the zero flag."""
    layer = {}
    for s0, s1 in raw_pairs:
        key, maps = _canonical_data(s0, s1)
        if key not in layer:
            layer[key] = maps
    return layer


def _chord_moves(layer, genus: int, n_boundaries: int):
    """Every one-vertex map with one more chord (``diff._add_chord``) that
    can still reach genus ``genus`` with ``n_boundaries`` boundaries.  A
    chord inside one boundary (a loop in a corner, or two corners of one
    walk) adds a boundary; a chord across two boundaries merges them and
    adds a handle.  So along the moves neither the genus nor genus +
    boundaries ever falls, and a map past either target bound is dropped."""
    for s0, s1 in layer:
        g = RibbonGraph(s0, s1)
        walks = boundaries(g)
        walk = {h: i for i, b in enumerate(walks) for h in b}
        n = len(walks)
        g_here = (g.n_edges + 1 - n) // 2
        for c1 in range(len(s0)):
            for c2 in range(c1, len(s0)):
                if c1 == c2 or walk[c1] == walk[c2]:
                    g_new, n_new = g_here, n + 1
                else:
                    g_new, n_new = g_here + 1, n - 1
                if g_new <= genus and n_new <= n_boundaries + genus - g_new:
                    out = _add_chord(g, c1, c2)
                    yield out.sigma0, out.sigma1


def _vertex_splits(layer, min_arc: int):
    """Every split of a vertex into two arcs of at least min_arc darts
    each (``diff._cuts``), joined by a new edge (``diff._split_graph``)."""
    for s0, s1 in layer:
        g = RibbonGraph(s0, s1)
        for cyc in vertices(g):
            for arc_a, arc_b in _cuts(cyc, min_arc):
                out = _split_graph(g, arc_a, arc_b)
                yield out.sigma0, out.sigma1


def _cell_maps(genus: int, n_boundaries: int, n_edges: int, min_valence: int) -> dict:
    """Canonical pair -> optimal relabelings for every isomorphism class of
    a consistent cell, zero classes included.

    One-vertex maps of (genus, n_boundaries) have 2g + n - 1 edges and grow
    from the loop one chord at a time.  V - 1 rounds of vertex splits then
    reach the cell; every map with V >= 2 contracts along a non-loop edge
    to a map of the same genus and boundaries, so the rounds miss nothing.
    The one exception is the single edge (genus 0, one boundary), which
    contracts to no vertex at all and seeds its cell directly.  A split
    gives both new vertices valence >= min_valence and a contraction keeps
    the valence floor, so after the first split every class is within the
    floor; a one-vertex cell is consistent only when 2E >= min_valence.
    Only the previous and the current round are held.
    """
    n_vertices = n_edges + 2 - 2 * genus - n_boundaries
    if (genus, n_boundaries) == (0, 1):
        layer = _canonical_layer([((0, 1), (1, 0))])
        rounds = n_vertices - 2
    else:
        layer = _canonical_layer([((1, 0), (1, 0))])
        for _ in range(2 * genus + n_boundaries - 2):
            layer = _canonical_layer(_chord_moves(layer, genus, n_boundaries))
        rounds = n_vertices - 1
    min_arc = max(min_valence - 1, 0)
    for _ in range(rounds):
        layer = _canonical_layer(_vertex_splits(layer, min_arc))
    return layer


def _split_by_zero(cell: dict, parity: int):
    """Nonzero classes sorted by content hash, and the zero-class count, of
    a canonical pair -> optimal relabelings mapping."""
    nonzero = []
    zero = 0
    for (t0, t1), maps in cell.items():
        if _zero_flag(RibbonGraph(t0, t1), parity, maps):
            zero += 1
        else:
            nonzero.append(OrientedClass(t0, t1, parity, False))
    nonzero.sort(key=lambda c: c.content_hash())
    return nonzero, zero


def enumerate_classes(spec: EnumSpec) -> tuple[list[OrientedClass], int]:
    """One nonzero class per isomorphism type matching the spec, plus the
    count of classes killed by a sign-reversing automorphism."""
    ok, _note = spec.is_consistent()
    if not ok:
        return [], 0
    cell = _cell_maps(spec.genus, spec.boundaries, spec.edges, spec.min_valence)
    return _split_by_zero(cell, spec.parity)


def enumerate_cell(spec: EnumSpec) -> tuple[list[OrientedClass], int]:
    """Same as enumerate_classes, with no caller in the package.  It is a
    separate function, not an alias, because perfbench/tracer.py wraps both
    names and an alias would be wrapped twice."""
    return enumerate_classes(spec)


BRUTE_FORCE_DART_LIMIT = 10


def enumerate_bruteforce(spec: EnumSpec) -> tuple[list[OrientedClass], int]:
    """Full scan over all vertex permutations with the fixed edge pairing
    (0 1)(2 3)...; independent oracle for the fast enumerator."""
    n = 2 * spec.edges
    if n > BRUTE_FORCE_DART_LIMIT:
        raise ValueError(
            "brute-force scan limited to %d half-edges, got %d"
            % (BRUTE_FORCE_DART_LIMIT, n)
        )
    ok, _note = spec.is_consistent()
    if not ok:
        return [], 0
    return _split_by_zero(_canonical_layer(_permutation_scan(spec)), spec.parity)


def _permutation_scan(spec: EnumSpec):
    """Every connected (sigma0, sigma1) of the spec's vertex, valence and
    boundary counts, sigma0 running over all permutations of the darts and
    sigma1 fixed to the pairing (0 1)(2 3)..."""
    n = 2 * spec.edges
    s1 = tuple(h + 1 if h % 2 == 0 else h - 1 for h in range(n))
    for s0 in permutations(range(n)):
        cycles = orbits(s0)
        if len(cycles) != spec.n_vertices:
            continue
        if min(len(c) for c in cycles) < spec.min_valence:
            continue
        # connectivity via dart reachability
        stack = [0]
        reach = {0}
        while stack:
            h = stack.pop()
            for x in (s0[h], s1[h]):
                if x not in reach:
                    reach.add(x)
                    stack.append(x)
        if len(reach) != n:
            continue
        if len(boundaries(RibbonGraph(s0, s1))) != spec.boundaries:
            continue
        yield s0, s1


def polygon_graph(n_edges: int) -> RibbonGraph:
    """The n-gon: vertices 0..n-1 all 2-valent, edge i joining vertex i to
    vertex i+1 (mod n); n=1 degenerates to the loop."""
    if n_edges < 1:
        raise ValueError("polygon needs at least one edge")
    n = 2 * n_edges
    s0 = list(range(n))
    s1 = list(range(n))
    for i in range(n_edges):
        a, b = 2 * i, 2 * i + 1  # darts at vertex i
        s0[a], s0[b] = b, a
        partner = 2 * ((i + 1) % n_edges)
        s1[b] = partner
        s1[partner] = b
    return RibbonGraph(tuple(s0), tuple(s1))


def path_graph(n_edges: int) -> RibbonGraph:
    """The path with n_edges edges: univalent ends, 2-valent interior."""
    if n_edges < 1:
        raise ValueError("path needs at least one edge")
    n = 2 * n_edges
    s0 = list(range(n))
    s1 = list(range(n))
    for j in range(n_edges):
        s1[2 * j], s1[2 * j + 1] = 2 * j + 1, 2 * j  # edge j: darts 2j, 2j+1
    for v in range(1, n_edges):
        a, b = 2 * v - 1, 2 * v  # interior vertex v
        s0[a], s0[b] = b, a
    return RibbonGraph(tuple(s0), tuple(s1))


def le2_classes(spec: EnumSpec) -> tuple[list[OrientedClass], int]:
    """Classes of the all-low-valence sector (every vertex valence <= 2).

    Connected graphs with all valences at most two are exactly the paths
    (genus 0, one boundary) and the polygons (genus 0, two boundaries), so
    the sector is constructed directly; the generic enumerator serves as
    an oracle for this at small sizes.
    """
    ok, _ = spec.is_consistent()
    if not ok:
        return [], 0
    if spec.genus != 0:
        return [], 0
    if spec.boundaries == 1 and spec.n_vertices == spec.edges + 1:
        graphs = [path_graph(spec.edges)]
    elif spec.boundaries == 2 and spec.n_vertices == spec.edges:
        graphs = [polygon_graph(spec.edges)]
    else:
        return [], 0
    cell = _canonical_layer((g.sigma0, g.sigma1) for g in graphs)
    return _split_by_zero(cell, spec.parity)
