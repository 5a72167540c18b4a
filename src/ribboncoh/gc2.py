"""A minimal ordinary-graph-complex engine (the GC^2 flavor).

Generators are connected loopless multigraphs; the orientation regime is
an edge order, so a graph with a pair of parallel edges is zero (swapping
them is a sign-reversing automorphism), and otherwise a class is zero iff
some vertex automorphism induces an odd permutation of the edge set.

The vertex split, ``_splits``, is the one move that makes graphs: a
vertex's half-edges are distributed over it and a new vertex joined to it
by a fresh edge, which is appended last in the edge order.  The
differential ``gc_delta`` sums the splits whose moved part is not empty,
and ``gc_enumerate`` grows each cell from the rose (one vertex with L
loops) by rounds of splits.  Degree of a generator: |G| = 2d(V-1) + (1-2d)E.

Tables need a valence floor of at least 2: both new vertices of a split
in ``gc_delta`` have valence at least 2, so at floor 1 the operator lacks
every term that makes a univalent vertex.  gc_enumerate and gc_delta
still take floor 1, for the sign tests.

``GCSpec`` gives ``complexes.build`` the counting bound and the chain of
cells, each enumerated on its own with the block of ``gc_delta`` into it,
so gc2 tables go through the same ``build`` and ``cohomology`` as the
ribbon complexes.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product

from .canonical import _order_sign
from .complexes import build, cohomology
from .diff import FormalSum
from .linalg import assemble


GC_LOOP_ORDER_GUARD = 4


def _valences(n_vertices: int, edges) -> list[int]:
    """Valence of each vertex; a loop counts twice at its vertex."""
    val = [0] * n_vertices
    for a, b in edges:
        val[a] += 1
        val[b] += 1
    return val


@dataclass(frozen=True)
class GCGraph:
    """Loopless multigraph on vertices 0..n_vertices-1; edges is a sorted
    tuple of sorted vertex pairs (parallel edges repeat)."""

    n_vertices: int
    edges: tuple

    def __post_init__(self):
        for a, b in self.edges:
            if a == b:
                raise ValueError("loop edges are not allowed")
            if not (0 <= a < b < self.n_vertices):
                raise ValueError("edge endpoints out of range or unsorted")
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))

    def valences(self) -> list[int]:
        return _valences(self.n_vertices, self.edges)


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


@dataclass(frozen=True)
class GCClass:
    """Canonical multigraph class in the edge-order orientation regime."""

    n_vertices: int
    edges: tuple
    zero_flag: bool

    def content_hash(self) -> str:
        import hashlib

        payload = "gc2|%d|%s|%d" % (self.n_vertices, self.edges, self.zero_flag)
        return hashlib.sha1(payload.encode()).hexdigest()


def _gc_sign(edges: tuple, best: tuple, perms: list[tuple]) -> int:
    """Sign of the sorted edge tuple edges against the canonical edge
    tuple best, read off the optimal permutations perms by the sort-sign
    rule of ``canonical``; 0 for a zero class: parallel edges, or two
    permutations that disagree (their quotient is an edge-odd
    automorphism)."""
    if len(set(best)) != len(best):
        return 0
    signs = {
        _order_sign([tuple(sorted((p[a], p[b]))) for a, b in edges]) for p in perms
    }
    return signs.pop() if len(signs) == 1 else 0


def to_gc_class(g: GCGraph) -> tuple[GCClass, int]:
    """Canonicalize; compare the graph's sorted edge tuple, its reference
    order, against the canonical reference order.  The sign is +1 and
    meaningless for zero classes."""
    best, perms = _gc_canonical_data(g.n_vertices, g.edges)
    sign = _gc_sign(g.edges, best, perms)
    return GCClass(g.n_vertices, best, sign == 0), sign or 1


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


def gc_enumerate(loop_order: int, n_edges: int, min_valence: int = 3):
    """Nonzero classes plus zero-class count at the given loop order and
    edge count: connected loopless multigraphs, valences >= min_valence,
    one representative per isomorphism class.

    The layer grows from the rose (one vertex with loop_order loops) by
    n_vertices - 1 rounds of ``_splits``, each round's graphs deduplicated
    by sorted, then by canonical edge tuple; graphs with loops are kept
    between rounds and dropped at the end.  Contracting a non-loop edge
    keeps the loop order and the valence floor (a + b - 2 >= f when
    a, b >= f >= 2; at floor 1 a pendant edge is an empty moved part), and
    turns the edge's parallel partners into loops, so every layer graph
    contracts down to the rose."""
    if loop_order > GC_LOOP_ORDER_GUARD:
        raise ValueError(
            "loop order guard is %d, got %d" % (GC_LOOP_ORDER_GUARD, loop_order)
        )
    n_vertices = n_edges - loop_order + 1
    if n_vertices < 1 or min_valence * n_vertices > 2 * n_edges:
        return [], 0
    layer = {((0, 0),) * loop_order} if loop_order >= 0 else set()
    for n in range(1, n_vertices):
        graphs = {tuple(sorted(o)) for g in layer for o, _ in _splits(n, g, min_valence)}
        layer = {_gc_canonical_data(n + 1, edges)[0] for edges in graphs}
    classes = [
        to_gc_class(GCGraph(n_vertices, edges))[0]
        for edges in layer
        if all(a != b for a, b in edges)
    ]
    nonzero = [c for c in classes if not c.zero_flag]
    nonzero.sort(key=lambda c: c.content_hash())
    return nonzero, len(classes) - len(nonzero)


def gc_delta(x: GCClass, min_valence: int = 3) -> FormalSum:
    """Vertex splitting: the ``_splits`` of x whose moved part is not
    empty, the fresh edge appended last in the edge order.  The term's
    sign is the parity of sorting that order into the graph's reference
    (its sorted edge tuple) times the reference's sign against the
    canonical one.  Projected to the min_valence sector (terms with a
    smaller valence are dropped)."""
    out = FormalSum()
    for order, empty in _splits(x.n_vertices, x.edges, min_valence):
        if not empty:
            cls, sign = to_gc_class(GCGraph(x.n_vertices + 1, order))
            out.add_term(cls, _order_sign(order) * sign)
    return out


@dataclass(frozen=True)
class GCSpec:
    """Fixed-loop-order slice of the complex, cells indexed by edge count
    (the one cell per edge count is keyed by the loop order)."""

    loop_order: int
    d: int
    e_min: int
    e_max: int
    min_valence: int = 3

    def __post_init__(self):
        if self.min_valence < 2:
            raise ValueError("gc2 tables need min_valence >= 2, got %d" % self.min_valence)
        if self.loop_order < 1 or self.e_min < 1 or self.e_max < self.e_min:
            raise ValueError("need loop_order >= 1 and 1 <= e_min <= e_max")

    def degree(self, e: int) -> int:
        return 2 * self.d * (e - self.loop_order) + (1 - 2 * self.d) * e

    def cells(self, e: int) -> list[int]:
        return [self.loop_order]

    def possible(self, n: int, e: int) -> bool:
        """Some vertex count fits and the valence floor is within the
        half-edge supply."""
        n_vertices = e - n + 1
        return n_vertices >= 1 and self.min_valence * n_vertices <= 2 * e

    def chain(self, n: int, below: dict):
        """(e, (nonzero, zero), blocks) for e from e_min - 1 to e_max, as
        ``complexes.ComplexSpec.chain``, below unread: each cell is
        enumerated on its own, its block assembled from ``gc_delta``."""
        prev, op = [], lambda x: gc_delta(x, self.min_valence)
        for e in range(self.e_min - 1, self.e_max + 1):
            cell = gc_enumerate(n, e, self.min_valence) if self.possible(n, e) else ([], 0)
            yield e, cell, {n: assemble(prev, cell[0], op).entries} if e > self.e_min else {}
            prev = cell[0]


def gc_cohomology(loop_order: int, d: int, e_range: tuple, min_valence: int = 3):
    """Per-degree cohomology of the fixed-loop-order slice; the grading is
    |G| = 2d(V-1)+(1-2d)E, and edges within e_range index the cells.

    Returns the row dicts of complexes.cohomology ordered by edge count."""
    e_min, e_max = e_range
    return cohomology(build(GCSpec(loop_order, d, e_min, e_max, min_valence)))
