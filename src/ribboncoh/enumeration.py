"""Exhaustive generation of connected ribbon graph isomorphism classes.

Two independent code paths, neither of which keeps state between calls:

* the fast enumerator builds permutation pairs directly in traversal
  normal form (labels appear in discovery order from root 0), with cycle
  and valence pruning, and keeps exactly the representatives that equal
  their canonical form;
* the brute-force oracle scans every vertex permutation on labeled
  half-edges against the fixed edge pairing and deduplicates by canonical
  form.  It is guarded to small sizes and must agree with the fast path.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .canonical import EVEN, OrientedClass, canonical_form, class_of, is_minimal_form
from .ribbon import RibbonGraph, boundaries, orbits


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


def _generate_normal_forms(n_darts: int, min_valence: int, n_vertices: int, visit) -> None:
    """Stream to ``visit`` every connected map on n_darts half-edges with
    exactly n_vertices vertices, every valence >= min_valence, labeled in
    traversal normal form from root 0.  Backtracking over the two
    permutation arrays; nothing is retained."""
    s0 = [-1] * n_darts
    s1 = [-1] * n_darts
    pre0 = [False] * n_darts          # dart already has a sigma0 preimage
    chain_start = list(range(n_darts))  # valid for the end dart of each chain
    chain_end = list(range(n_darts))    # valid for the start dart
    chain_size = [1] * n_darts          # valid for the start dart

    def rec(i: int, next_new: int, closed: int):
        if i == next_new:
            if next_new == n_darts and closed == n_vertices:
                visit((tuple(s0), tuple(s1)))
            return
        h = i
        if s0[h] < 0:
            start_h = chain_start[h]
            # extend with a fresh dart
            if next_new < n_darts:
                j = next_new
                s0[h] = j
                pre0[j] = True
                chain_start[j] = start_h
                chain_end[start_h] = j
                chain_size[start_h] += 1
                _s1_step(i, next_new + 1, closed)
                s0[h] = -1
                pre0[j] = False
                chain_start[j] = j
                chain_end[start_h] = h
                chain_size[start_h] -= 1
            # close the own chain into a vertex cycle
            if chain_size[start_h] >= min_valence and closed < n_vertices:
                j = start_h
                s0[h] = j
                pre0[j] = True
                _s1_step(i, next_new, closed + 1)
                s0[h] = -1
                pre0[j] = False
            # merge with another open chain
            for j in range(next_new):
                if pre0[j] or j == start_h or chain_start[j] != j:
                    continue
                e_j = chain_end[j]
                s0[h] = j
                pre0[j] = True
                old_size = chain_size[start_h]
                chain_start[e_j] = start_h
                chain_end[start_h] = e_j
                chain_size[start_h] = old_size + chain_size[j]
                _s1_step(i, next_new, closed)
                s0[h] = -1
                pre0[j] = False
                chain_start[e_j] = j
                chain_end[start_h] = h
                chain_size[start_h] = old_size
        else:
            _s1_step(i, next_new, closed)

    def _s1_step(i: int, next_new: int, closed: int):
        h = i
        if s1[h] >= 0:
            rec(i + 1, next_new, closed)
            return
        if next_new < n_darts:
            j = next_new
            s1[h] = j
            s1[j] = h
            rec(i + 1, next_new + 1, closed)
            s1[h] = -1
            s1[j] = -1
        for j in range(h + 1, next_new):
            if s1[j] >= 0:
                continue
            s1[h] = j
            s1[j] = h
            rec(i + 1, next_new, closed)
            s1[h] = -1
            s1[j] = -1

    rec(0, 1, 0)


def maps_by_boundary(
    n_edges: int, min_valence: int, n_vertices: int, keep_ns=None
) -> dict[int, list[RibbonGraph]]:
    """Connected isomorphism-class representatives (canonical labels) with
    the given edge and vertex counts and valence floor, grouped by
    boundary count; empty groups are absent.  Candidates stream through
    the minimality filter; keep_ns (iterable of n values or None) limits
    which groups are kept."""
    keep = None if keep_ns is None else frozenset(keep_ns)
    bins: dict[int, list[RibbonGraph]] = {}

    def visit(pair):
        s0, s1 = pair
        if not is_minimal_form(s0, s1):
            return
        g = RibbonGraph(s0, s1)
        nb = len(boundaries(g))
        if keep is None or nb in keep:
            bins.setdefault(nb, []).append(g)

    _generate_normal_forms(2 * n_edges, min_valence, n_vertices, visit)
    return bins


def _split_by_zero(graphs, spec: EnumSpec):
    nonzero = []
    zero = 0
    for g in graphs:
        cls = class_of(g, spec.parity)
        if cls.zero_flag:
            zero += 1
        else:
            nonzero.append(cls)
    nonzero.sort(key=lambda c: c.content_hash())
    return nonzero, zero


def enumerate_classes(spec: EnumSpec) -> tuple[list[OrientedClass], int]:
    """One nonzero class per isomorphism type matching the spec, plus the
    count of classes killed by a sign-reversing automorphism.  Only the
    requested boundary bin is kept, so memory stays proportional to the
    one cell."""
    ok, _note = spec.is_consistent()
    if not ok:
        return [], 0
    bins = maps_by_boundary(
        spec.edges, spec.min_valence, spec.n_vertices, keep_ns=(spec.boundaries,)
    )
    return _split_by_zero(bins.get(spec.boundaries, []), spec)


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
    s1 = tuple(h + 1 if h % 2 == 0 else h - 1 for h in range(n))
    seen: dict = {}
    for s0 in permutations(range(n)):
        cycles = orbits(s0)
        if len(cycles) != spec.n_vertices:
            continue
        if min(len(c) for c in cycles) < spec.min_valence:
            continue
        g = RibbonGraph(s0, s1)
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
        if len(boundaries(g)) != spec.boundaries:
            continue
        canon, _ = canonical_form(g)
        seen[(canon.sigma0, canon.sigma1)] = canon
    return _split_by_zero(seen.values(), spec)


def basis_table(
    genus: int, e_max: int, min_valence: int, parity: int = EVEN
) -> dict[tuple[int, int], int]:
    """Nonzero-class counts over the (boundaries, edges) grid at fixed
    genus; n is bounded by E + 1 - 2g."""
    table = {}
    for e in range(1, e_max + 1):
        for n in range(1, e + 2 - 2 * genus):
            spec = EnumSpec(genus, n, e, min_valence, parity)
            if not spec.is_consistent()[0]:
                continue
            nonzero, _ = enumerate_classes(spec)
            table[(n, e)] = len(nonzero)
    return table


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
    graphs = [canonical_form(g)[0] for g in graphs]
    return _split_by_zero(graphs, spec)
