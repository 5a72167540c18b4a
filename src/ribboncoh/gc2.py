"""A minimal ordinary-graph-complex engine (the GC^2 flavor).

Generators are connected loopless multigraphs; the orientation regime is
an edge order, so a graph with a pair of parallel edges is zero (swapping
them is a sign-reversing automorphism), and otherwise a class is zero iff
some vertex automorphism induces an odd permutation of the edge set.

The vertex split, ``_splits``, is the one move that makes graphs: a
vertex's half-edges are distributed over it and a new vertex joined to it
by a fresh edge, which is appended last in the edge order.  One walk of
split rounds per loop order (``_rounds``) grows every cell from the rose
(one vertex with L loops); its splits whose moved part is not empty are
the differential's terms, and each class's layer entry gives its zero
flag.  ``GCSpec.chain`` is the shared chain loop ``complexes._chain`` over
those rounds, as the ribbon chains are, each term's sign that of its edge
order (``_gc_sign``).  Degree of a generator: |G| = 2d(V-1) + (1-2d)E.

Tables need a valence floor of at least 2: both new vertices of a
differential term have valence at least 2, so at floor 1 the operator
lacks every term that makes a univalent vertex.  ``GCSpec`` refuses floor
1; only ``_rounds`` takes it, for the enumeration tests.

What checks the sign rule: ``complexes.build``'s D_{E+1}·D_E = 0 check,
where two nonzero blocks compose.  Up to E=9 no table has two: at floor
2, loop order 2 has nonzero blocks from E=5 and E=8 only, loop order 3
from E=8 only.  Loop order 3 at floor 2, E 3..10, adds the block from
E=9 (34x18) to the one from E=8 (18x4); the acceptance tier builds that
slice, and a ``_splits`` that swaps two edges of an odd moved part makes
that build raise.  The tests' own copy of the differential (``_split_image`` in
tests/test_gc2.py) also checks ``_gc_sign`` on two E=8 generators.
"""
from __future__ import annotations

from collections import namedtuple
from itertools import permutations, product

from .canonical import _order_sign, sha1
from .complexes import _chain


GC_LOOP_ORDER_GUARD = 4


def _valences(n_vertices: int, edges) -> list[int]:
    """Valence of each vertex; a loop counts twice at its vertex."""
    val = [0] * n_vertices
    for a, b in edges:
        val[a] += 1
        val[b] += 1
    return val


def _relabeled_edges(edges, perm) -> tuple:
    return tuple(sorted(tuple(sorted((perm[a], perm[b]))) for a, b in edges))


def _degree_compatible_perms(n_vertices: int, edges):
    """Vertex permutations old->new that send the vertices of each valence
    onto one fixed block of positions, the blocks in increasing valence
    (the search space for canonicalization).  The blocks depend on the
    valence multiset alone, so every relabeling of a graph is searched over
    the same targets."""
    val = _valences(n_vertices, edges)
    groups: dict[int, list[int]] = {}
    for v, d in enumerate(val):
        groups.setdefault(d, []).append(v)
    pools = [groups[k] for k in sorted(groups)]
    blocks = []
    start = 0
    for pool in pools:
        blocks.append(range(start, start + len(pool)))
        start += len(pool)
    for parts in product(*(permutations(b) for b in blocks)):
        perm = [0] * n_vertices
        for pool, images in zip(pools, parts):
            for src, dst in zip(pool, images):
                perm[src] = dst
        yield tuple(perm)


def _gc_canonical_data(n_vertices: int, edges) -> tuple[tuple, list[tuple]]:
    """(lexicographically minimal relabeled edge tuple over valence-
    sorting vertex permutations, every permutation old->new achieving
    it in scan order), from one scan; loops are allowed."""
    best = None
    perms = []
    for perm in _degree_compatible_perms(n_vertices, edges):
        cand = _relabeled_edges(edges, perm)
        if best is None or cand < best:
            best = cand
            perms = [perm]
        elif cand == best:
            perms.append(perm)
    return best, perms


class GCClass(namedtuple("GCClass", "n_vertices edges zero_flag")):
    """Canonical multigraph class in the edge-order orientation regime."""

    __slots__ = ()

    @property
    def key(self) -> tuple:
        """The canonical edge tuple, which keys the class's rows and columns."""
        return self.edges

    def content_hash(self) -> str:
        payload = "gc2|%d|%s|%d" % (self.n_vertices, self.edges, self.zero_flag)
        return sha1(payload.encode()).hexdigest()


def _gc_sign(order, perms: list[tuple]) -> int:
    """Sign of the edge order order against the canonical edge tuple, read
    off the optimal permutations perms of order's sorted tuple: the sign of
    sorting order relabeled (``canonical._order_sign``).  0 for a zero
    class: parallel edges, or two permutations that disagree (their
    quotient is an edge-odd automorphism)."""
    if len(set(order)) != len(order):
        return 0
    signs = {_order_sign([tuple(sorted((p[a], p[b]))) for a, b in order]) for p in perms}
    return signs.pop() if len(signs) == 1 else 0


def _splits(n_vertices: int, edges, min_valence: int):
    """Every split of every vertex v, loops allowed: v's half-edges go into
    two parts, the part holding v's first half-edge stays at v and the
    other moves to a new vertex, joined to v by a new edge listed last.
    Yields (edge order, whether the moved part is empty) for the splits
    that keep every valence >= min_valence.  An empty moved part makes a
    univalent vertex, so it passes only at floor 1."""
    nv = n_vertices
    for v in range(n_vertices):
        halves = [(i, s) for i, e in enumerate(edges) for s in (0, 1) if e[s] == v]
        rest = halves[1:]
        for mask in range(1 << len(rest)):
            moved = {h for k, h in enumerate(rest) if not mask >> k & 1}
            order = [
                tuple(sorted(nv if (i, s) in moved else c for s, c in enumerate(e)))
                for i, e in enumerate(edges)
            ] + [(v, nv)]
            if min(_valences(nv + 1, order)) >= min_valence:
                yield order, not moved


def _rounds(loop_order: int, min_valence: int, visit=None):
    """The split rounds of one loop order, as a generator that never ends
    (shaped like ``enumeration._cell_maps``): it yields (E, layer) for E =
    loop_order, loop_order + 1, ..., layer mapping the canonical edge tuple
    of every connected graph with E - loop_order + 1 vertices and valences
    >= min_valence, loops and zero classes included, to (the first sorted
    edge tuple that met it, that tuple's optimal permutations).  The first
    round is the rose; each later one is the ``_splits`` of the one before,
    every distinct sorted edge tuple canonicalized once.  Contracting a
    non-loop edge keeps the loop order and the valence floor (a + b - 2 >=
    f when a, b >= f >= 2; at floor 1 a pendant edge is an empty moved
    part), and turns the edge's parallel partners into loops, so every
    graph contracts down to the rose and the rounds miss nothing.

    visit, when given, is called as visit(source, order, key, perms) on
    every split whose moved part is not empty: the canonical tuple it
    splits, its edge order, and its canonical tuple and the optimal
    permutations of its sorted tuple.  Only the keys of a round are held
    while the next one is split."""
    rose = ((0, 0),) * loop_order
    e, layer = loop_order, {rose: (rose, [(0,)])}
    while True:
        yield e, layer
        n_vertices = e - loop_order + 1
        sources, layer = tuple(layer), {}
        canon: dict = {}  # sorted edge tuple -> (canonical tuple, perms)
        for src in sources:
            for order, empty in _splits(n_vertices, src, min_valence):
                edges = tuple(sorted(order))
                if edges not in canon:
                    best, perms = canon[edges] = _gc_canonical_data(n_vertices + 1, edges)
                    layer.setdefault(best, (edges, perms))
                if visit is not None and not empty:
                    visit(src, order, *canon[edges])
        e += 1


def _cell(n_vertices: int, layer) -> tuple[list[GCClass], int]:
    """A round's loopless classes: the nonzero ones by content hash, and
    the zero-class count, each zero flag read off its layer entry."""
    classes = [GCClass(n_vertices, key, not _gc_sign(*entry))
               for key, entry in layer.items() if all(a != b for a, b in key)]
    nonzero = sorted((c for c in classes if not c.zero_flag), key=GCClass.content_hash)
    return nonzero, len(classes) - len(nonzero)


class GCSpec(namedtuple("GCSpec", "loop_order d e_min e_max min_valence")):
    """Fixed-loop-order slice of the complex, cells indexed by edge count
    (the one cell per edge count is keyed by the loop order)."""

    __slots__ = ()

    def __new__(cls, loop_order, d, e_min, e_max, min_valence=3):
        if min_valence < 2:
            raise ValueError("gc2 tables need min_valence >= 2, got %d" % min_valence)
        if loop_order < 1 or e_min < 1 or e_max < e_min:
            raise ValueError("need loop_order >= 1 and 1 <= e_min <= e_max")
        if loop_order > GC_LOOP_ORDER_GUARD:
            raise ValueError(
                "loop order guard is %d, got %d" % (GC_LOOP_ORDER_GUARD, loop_order)
            )
        return tuple.__new__(cls, (loop_order, d, e_min, e_max, min_valence))

    def degree(self, e: int) -> int:
        return 2 * self.d * (e - self.loop_order) + (1 - 2 * self.d) * e

    def cells(self, e: int) -> list[int]:
        return [self.loop_order]

    def possible(self, n: int, e: int) -> bool:
        """Some vertex count fits and the valence floor is within the
        half-edge supply."""
        n_vertices = e - n + 1
        return n_vertices >= 1 and self.min_valence * n_vertices <= 2 * e

    def chain(self):
        """(n, e, (nonzero, zero), blocks) for e from e_min - 1 to e_max, n
        the loop order, as ``complexes.ComplexSpec.chain``:
        ``complexes._chain`` over ``_rounds``, each split's coefficient its
        ``_gc_sign``; blocks maps n to the row-keyed split block."""
        n = self.loop_order
        for e, cell, _rows, split in _chain(self, n, lambda visit: _rounds(n, self.min_valence, visit),
                                            lambda e, layer: _cell(e - n + 1, layer), _gc_sign):
            yield n, e, cell, {n: split}
