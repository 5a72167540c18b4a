"""A minimal ordinary-graph-complex engine (the GC^2 flavor).

Generators are connected loopless multigraphs; the orientation regime is
an edge order, so a graph with a pair of parallel edges is zero (swapping
them is a sign-reversing automorphism), and otherwise a class is zero iff
some vertex automorphism induces an odd permutation of the edge set.

The differential splits a vertex: incident edges are distributed over two
new vertices joined by a fresh edge, which is appended last in the edge
order.  Degree of a generator: |G| = 2d(V-1) + (1-2d)E.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, permutations, product

from .canonical import _order_sign, perm_sign
from .complexes import ComplexSlice, assemble_differentials, cohomology
from .diff import FormalSum


GC_LOOP_ORDER_GUARD = 4


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

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def loop_order(self) -> int:
        return self.n_edges - self.n_vertices + 1

    def valences(self) -> list[int]:
        val = [0] * self.n_vertices
        for a, b in self.edges:
            val[a] += 1
            val[b] += 1
        return val

    def has_parallel_edges(self) -> bool:
        return len(set(self.edges)) != len(self.edges)

    def is_connected(self) -> bool:
        if self.n_vertices == 0:
            return False
        adj = [[] for _ in range(self.n_vertices)]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n_vertices

    def degree(self, d: int) -> int:
        return 2 * d * (self.n_vertices - 1) + (1 - 2 * d) * self.n_edges


def _relabeled_edges(g: GCGraph, perm) -> tuple:
    return tuple(sorted(tuple(sorted((perm[a], perm[b]))) for a, b in g.edges))


def _degree_compatible_perms(g: GCGraph):
    """Vertex permutations preserving the valence sequence (the search
    space for canonicalization and automorphisms)."""
    val = g.valences()
    groups: dict[int, list[int]] = {}
    for v, d in enumerate(val):
        groups.setdefault(d, []).append(v)
    keys = sorted(groups)
    pools = [groups[k] for k in keys]
    for parts in product(*(permutations(p) for p in pools)):
        perm = [0] * g.n_vertices
        for pool, images in zip(pools, parts):
            for src, dst in zip(pool, images):
                perm[src] = dst
        yield tuple(perm)


def _gc_canonical_data(g: GCGraph) -> tuple[tuple, list[tuple]]:
    """(lexicographically minimal relabeled edge tuple over valence-
    preserving vertex permutations, every permutation old->new achieving
    it in scan order), from one scan."""
    best = None
    perms = []
    for perm in _degree_compatible_perms(g):
        cand = _relabeled_edges(g, perm)
        if best is None or cand < best:
            best = cand
            perms = [perm]
        elif cand == best:
            perms.append(perm)
    return best, perms


def gc_canonical(g: GCGraph) -> tuple[GCGraph, tuple]:
    """Canonical representative plus one optimal permutation old->new."""
    best, perms = _gc_canonical_data(g)
    return GCGraph(g.n_vertices, best), perms[0]


def gc_automorphisms(g: GCGraph) -> list[tuple]:
    edges = g.edges
    return [
        perm
        for perm in _degree_compatible_perms(g)
        if _relabeled_edges(g, perm) == edges
    ]


def _edge_perm_sign(g: GCGraph, perm) -> int:
    """Sign of the edge permutation induced by a vertex automorphism;
    requires distinct edges (no parallels)."""
    pos = {e: i for i, e in enumerate(g.edges)}
    images = [pos[tuple(sorted((perm[a], perm[b])))] for a, b in g.edges]
    return perm_sign(images)


@dataclass(frozen=True)
class GCClass:
    """Canonical multigraph class in the edge-order orientation regime."""

    n_vertices: int
    edges: tuple
    zero_flag: bool

    @property
    def graph(self) -> GCGraph:
        return GCGraph(self.n_vertices, self.edges)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def content_hash(self) -> str:
        import hashlib

        payload = "gc2|%d|%s|%d" % (self.n_vertices, self.edges, self.zero_flag)
        return hashlib.sha1(payload.encode()).hexdigest()

    def to_json(self) -> dict:
        return {
            "flavor": "gc2",
            "vertices": self.n_vertices,
            "edges": [list(e) for e in self.edges],
            "zero": self.zero_flag,
            "hash": self.content_hash(),
        }


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
    best, perms = _gc_canonical_data(g)
    sign = _gc_sign(g.edges, best, perms)
    return GCClass(g.n_vertices, best, sign == 0), sign or 1


def _edge_multisets(n_vertices: int, n_edges: int):
    pairs = [(a, b) for a in range(n_vertices) for b in range(a + 1, n_vertices)]
    return combinations_with_replacement(pairs, n_edges)


def _layer_provably_empty(loop_order: int, n_edges: int, min_valence: int) -> bool:
    """No vertex count fits, or the valence floor exceeds the half-edge
    supply."""
    n_vertices = n_edges - loop_order + 1
    return n_vertices < 1 or min_valence * n_vertices > 2 * n_edges


def gc_enumerate(loop_order: int, n_edges: int, min_valence: int = 3):
    """Nonzero classes plus zero-class count at the given loop order and
    edge count: connected loopless multigraphs, valences >= min_valence,
    one representative per isomorphism class."""
    if loop_order > GC_LOOP_ORDER_GUARD:
        raise ValueError(
            "loop order guard is %d, got %d" % (GC_LOOP_ORDER_GUARD, loop_order)
        )
    if _layer_provably_empty(loop_order, n_edges, min_valence):
        return [], 0
    n_vertices = n_edges - loop_order + 1
    seen: dict = {}
    for edges in _edge_multisets(n_vertices, n_edges):
        g = GCGraph(n_vertices, edges)
        if min(g.valences(), default=0) < min_valence:
            continue
        if not g.is_connected():
            continue
        best, perms = _gc_canonical_data(g)
        if best not in seen:
            seen[best] = _gc_sign(g.edges, best, perms) == 0
    nonzero = [GCClass(n_vertices, edges, False) for edges, flag in seen.items() if not flag]
    zero = len(seen) - len(nonzero)
    nonzero.sort(key=lambda c: c.content_hash())
    return nonzero, zero


def gc_delta(x: GCClass, min_valence: int = 3) -> FormalSum:
    """Vertex splitting: distribute the incident edges of a vertex over
    two new vertices joined by a fresh edge (both parts nonempty), with
    the fresh edge appended last in the edge order.  The term's sign is
    the parity of sorting that order into the graph's reference (its
    sorted edge tuple) times the reference's sign against the canonical
    one.  Projected to the min_valence sector (terms with a smaller
    valence are dropped)."""
    out = FormalSum()
    g = x.graph
    for v in range(g.n_vertices):
        incident = [i for i, e in enumerate(g.edges) if v in e]
        m = len(incident)
        if m < 2:
            continue
        anchor = incident[0]
        rest = incident[1:]
        for mask in range(1 << len(rest)):
            part_a = {anchor} | {rest[i] for i in range(len(rest)) if mask >> i & 1}
            if len(part_a) == m:
                continue
            # vertex v becomes v (part A) and a fresh vertex nv (part B)
            nv = g.n_vertices
            new_edges = []
            for i, (a, b) in enumerate(g.edges):
                if v in (a, b) and i not in part_a:
                    a, b = (nv if a == v else a), (nv if b == v else b)
                new_edges.append(tuple(sorted((a, b))))
            new_edges.append((v, nv))
            ng = GCGraph(nv + 1, tuple(new_edges))
            if min(ng.valences()) < min_valence:
                continue
            cls, sign = to_gc_class(ng)
            out.add_term(cls, _order_sign(new_edges) * sign)
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

    def degree(self, e: int) -> int:
        return 2 * self.d * (e - self.loop_order) + (1 - 2 * self.d) * e

    def cells(self, e: int) -> list[int]:
        return [self.loop_order]


def gc_build(spec: GCSpec) -> ComplexSlice:
    """Enumerate bases, assemble the vertex-splitting matrices and verify
    that consecutive matrices compose to zero."""
    sl = ComplexSlice(spec)
    for e in range(spec.e_min, spec.e_max + 1):
        nonzero, zero = gc_enumerate(spec.loop_order, e, spec.min_valence)
        sl.bases[e] = nonzero
        sl.cell_dims[(spec.loop_order, e)] = len(nonzero)
        sl.zero_counts[(spec.loop_order, e)] = zero
    for e in (spec.e_min - 1, spec.e_max + 1):
        sl.empty_edge[e] = _layer_provably_empty(spec.loop_order, e, spec.min_valence)
    assemble_differentials(sl, lambda c: gc_delta(c, spec.min_valence))
    return sl


def gc_cohomology(loop_order: int, d: int, e_range: tuple, min_valence: int = 3):
    """Per-degree cohomology of the fixed-loop-order slice; the grading is
    |G| = 2d(V-1)+(1-2d)E, and edges within e_range index the cells.

    Returns the row dicts of complexes.cohomology ordered by edge count."""
    e_min, e_max = e_range
    return cohomology(gc_build(GCSpec(loop_order, d, e_min, e_max, min_valence)))
