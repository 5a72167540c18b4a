"""Exhaustive generation of connected ribbon graph isomorphism classes.

Two independent code paths, neither of which keeps state between calls:

* the fast enumerator walks one chain of closure rounds per (genus,
  boundaries, valence floor) under the package's own moves
  (``_cell_maps``).  One walk per genus (``_first_rounds``) grows the
  first rounds, the one-vertex maps of each boundary count in turn, from
  the loop one chord at a time, each chord adding a boundary or trading
  two boundaries for a handle; it hands out the canonical data of the
  chords between two corners with each round, per class of the round
  before and holding the new round's own key objects, since they are the
  corner terms into it.  Rounds of vertex splits then add one vertex and one
  edge each, so a chain yields every edge count in turn, each round a
  whole cell.  Every candidate is canonicalized once and deduplicated by
  its canonical form; the same pass gives its automorphisms and its zero
  flag.  The low-valence sector walks the same rounds with each arc of a
  cut capped at one dart, growing paths and polygons (``LE2_CELLS``).
  ``cells`` walks every chain of a genus once, up to an edge bound, and
  yields each cell's round in no parity; a reader splits only the cells
  it keeps, in the parities it wants (``enumerate_classes`` one).
  ``complexes.build`` walks each chain once and reads the
  vertex-splitting differential off the split terms of its rounds;
* the brute-force oracle scans every vertex permutation on labeled
  half-edges against the fixed edge pairing and deduplicates by canonical
  form.  It is guarded to small sizes and must agree with the fast path.

Closed-form counts (rooted maps and orbifold Euler characteristics) check
the fast path past the oracle's reach in ``tests/test_enumeration.py``.
"""
from __future__ import annotations

from collections import namedtuple
from itertools import combinations, combinations_with_replacement, islice, permutations

from .canonical import EVEN, OrientedClass, _canonical_data, _zero_flag, graph_of
from .canonical import is_minimal_form  # noqa: F401  (perfbench/tracer.py reads this name)
from .diff import _add_chord, delta_terms
from .ribbon import RibbonGraph, boundaries, orbits


class EnumSpec(namedtuple("EnumSpec", "genus boundaries edges min_valence parity", defaults=(1, EVEN))):
    __slots__ = ()

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
    """Canonical key -> optimal relabelings, each ``bytes``, one entry per
    isomorphism class among the raw (sigma0, sigma1) pairs.  The
    relabelings come from the one ``_canonical_data`` call that first met
    the class, so their number is |Aut| and they give the zero flag."""
    layer = {}
    for raw in raw_pairs:
        key, maps = _canonical_data(*raw)
        if key not in layer:
            layer[key] = [bytes(lab) for lab in maps]
    return layer


def _chord_round(layer, join: bool = False) -> tuple[dict, dict]:
    """(round, chords): round is the canonical layer of the one-vertex maps
    with one more chord (``diff._add_chord``) than those of layer.  With
    join, every chord between two corners on different boundaries: they
    merge, and the genus grows by one.  Otherwise every chord inside one
    boundary, a loop in each corner included: it splits the boundary, and
    the genus stays; chords then maps each class of layer to the canonical
    data of its chords between two distinct corners, which are
    ``diff.bridge_terms``'s terms on it, in that order: one (key, maps) per
    chord, key the round's own key object and maps the chord's own
    relabelings, as ``bytes``.  So no chord's raw pair or fresh key
    outlives its pass."""
    out, chords, own = {}, {}, {}  # own: each key of the round -> itself
    for src in layer:
        g = graph_of(src)
        walks = boundaries(g)
        if join:
            walk = {h: i for i, b in enumerate(walks) for h in b}
            pairs = [(a, b) for a, b in combinations(range(g.n_half_edges), 2) if walk[a] != walk[b]]
        else:
            pairs = [pq for b in walks for pq in combinations_with_replacement(sorted(b), 2)]
        terms = []
        for c1, c2 in pairs:
            new = _add_chord(g, c1, c2)
            key, maps = _canonical_data(new.sigma0, new.sigma1)
            key = own.setdefault(key, key)
            maps = [bytes(lab) for lab in maps]
            if key not in out:
                out[key] = maps
            if c1 != c2 and not join:
                terms.append((key, maps))
        if terms:
            chords[src] = terms
    return out, chords


def _first_rounds(genus: int):
    """(n, E, round, chords) for n = 1, 2, ...: round is the first round of
    the (genus, n) chain, the single edge for (0, 1), else the one-vertex
    maps, with E = 2g + n - 1 edges (1 for the single edge), and chords is
    ``_chord_round``'s for the round grown from the one of n - 1, keyed by
    that round's classes (empty where the round does not grow from that
    one).  The rounds grow from the loop, the one-vertex map of (0, 2), one
    chord at a time: (g, 2) -> (g + 1, 1) by a chord joining the two
    boundaries, up to the genus, and (g, n) -> (g, n + 1) by a chord inside
    one.  Each one-vertex map of (g, n) with n >= 2 loses a boundary when an
    edge between two boundaries is deleted, and one of (g, 1) with g >= 1
    becomes a map of (g - 1, 2) when any edge is, so the path misses
    nothing."""
    if genus == 0:
        yield 1, 1, _canonical_layer([((0, 1), (1, 0))]), {}
    g, n, layer, chords = 0, 2, _canonical_layer([((1, 0), (1, 0))]), {}
    while True:
        if g == genus:
            yield n, 2 * g + n - 1, layer, chords
        join = g < genus and n == 2
        layer, chords = _chord_round(layer, join)
        g, n = (g + 1, 1) if join else (g, n + 1)


def _cell_maps(e: int, layer: dict, min_valence: int, visit=None, odd: bool = False, max_arc: int | None = None):
    """The closure rounds of one (genus, n_boundaries) chain at valence
    floor min_valence, from its first round layer at e edges (as
    ``_first_rounds`` yields it), as a generator that never ends: it
    yields (E, round) for E = e, e + 1, ..., where round maps canonical
    key -> optimal relabelings, as ``bytes``, for every isomorphism class
    of the (genus, n_boundaries, E) cell, zero classes included, whenever
    that cell is consistent.

    Each round after the first splits every class of the one before into
    two vertices joined by a new edge, both arcs of at least min_valence -
    1 darts (``diff.delta_terms``); every map with V >= 2 contracts along a
    non-loop edge to a map of the same genus and boundaries, so the rounds
    miss nothing.  A split gives both new vertices valence >= min_valence
    and a contraction keeps the valence floor, so after the first split
    every class is within the floor; a one-vertex cell is consistent only
    when 2E >= min_valence.

    max_arc = 1 caps both arcs at one dart: the (0, 1) and (0, 2) chains
    then grow the paths and the polygons (``LE2_CELLS``), and any other
    chain's first round, one vertex of valence >= 4, splits into nothing.

    visit, when given, is called as visit(source, word, key, maps) on
    every split term that is one of ``delta``'s terms (both arcs
    non-empty): the canonical key it was split from, the term's
    orientation word (from ``diff.delta_terms``, with odd items only when
    odd is true), and the term's canonical key and relabelings, the lists
    of its own pass.  Only the
    keys of a round are held while the next one is split, so a consumer
    that reads a round's relabelings reads them before it asks for the
    next round."""
    min_arc = max(min_valence - 1, 0)
    while True:
        yield e, layer
        sources, layer = tuple(layer), {}
        x = 2 * e  # the new dart, a vertex of its own after an empty-arc cut
        for src in sources:
            for term, word in delta_terms(graph_of(src), min_arc, odd, max_arc):
                key, maps = _canonical_data(term.sigma0, term.sigma1)
                if key not in layer:
                    layer[key] = [bytes(lab) for lab in maps]
                if visit is not None and term.sigma0[x] != x:
                    visit(src, word, key, maps)
        e += 1


def _split_by_zero(cell: dict, parity: int):
    """Nonzero classes sorted by content hash, and the zero-class count, of
    a canonical key -> optimal relabelings mapping.  A class with one
    optimal relabeling has no automorphism but the identity, so it is not
    zero."""
    nonzero = []
    zero = 0
    for key, maps in cell.items():
        if len(maps) > 1 and _zero_flag(graph_of(key), parity, maps):
            zero += 1
        else:
            nonzero.append(OrientedClass(key, parity, False))
    nonzero.sort(key=lambda c: c.content_hash())
    return nonzero, zero


LE2_CELLS = ((0, 1), (0, 2))  # (genus, boundaries) of the paths and of the polygons


def cells(genus: int, min_valence: int, e_max: int, max_arc: int | None = None, boundaries: int | None = None):
    """(n, E, round) for every consistent cell of the genus at the valence
    floor with E <= e_max, by increasing n, then E, round as ``_cell_maps``
    yields it: a reader splits each cell it keeps (``_split_by_zero``), in
    every parity it wants, before it asks for the next.  One walk of
    ``_first_rounds`` hands each n chain its first round, and each chain's
    rounds are walked once, up to e_max and no further.  With boundaries,
    only that n; with max_arc = 1, only the n of ``LE2_CELLS``.  No first
    round past the last n read is grown."""
    wanted = [
        n for n in range(1, e_max + 2 - 2 * genus)  # V >= 1 at E = e_max
        if boundaries in (None, n) and (max_arc != 1 or (genus, n) in LE2_CELLS)
    ]
    if genus < 0 or not wanted:
        return
    for n, e0, first, _ in _first_rounds(genus):
        if n in wanted:
            for e, layer in islice(_cell_maps(e0, first, min_valence, max_arc=max_arc), e_max + 1 - e0):
                if EnumSpec(genus, n, e, min_valence).is_consistent()[0]:
                    yield n, e, layer
        if n == wanted[-1]:
            return


def _cell(spec: EnumSpec, max_arc: int | None = None) -> tuple[list[OrientedClass], int]:
    """The spec's cell, the only one of its ``cells`` walk that is split."""
    walk = cells(spec.genus, spec.min_valence, spec.edges, max_arc, spec.boundaries)
    return next((_split_by_zero(layer, spec.parity) for _, e, layer in walk if e == spec.edges), ([], 0))


def enumerate_classes(spec: EnumSpec) -> tuple[list[OrientedClass], int]:
    """One nonzero class per isomorphism type matching the spec, plus the
    count of classes killed by a sign-reversing automorphism."""
    return _cell(spec)


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


def le2_classes(spec: EnumSpec) -> tuple[list[OrientedClass], int]:
    """Classes of the all-low-valence sector (every vertex valence <= 2):
    ``enumerate_classes`` with each arc of a cut capped at one dart, and
    so empty outside ``LE2_CELLS``."""
    return _cell(spec, 1)
