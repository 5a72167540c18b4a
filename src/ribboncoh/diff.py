"""The two cochain differentials on oriented ribbon graph classes.

``delta`` splits a vertex into two (preserving the cyclic order) and joins
them by a new edge; it raises the edge and vertex counts by one and keeps
boundaries and genus.  ``bridge`` attaches a new edge between two distinct
corners of the same boundary, splitting that boundary in two; it raises
the edge and boundary counts by one and keeps the genus.

Sign conventions (the literature leaves them to a choice; the identity
suite's D^2 = 0 pins ours): each raw term is a pair (graph, word),
its orientation written as a word (``canonical``) built from the
parent's reference word by one rule.  The new edge {2E, 2E+1} goes last,
directed from 2E.  For odd parity the move cuts one item, a vertex for a
split and a boundary for a corner join: the cut item keeps its place
with the piece through 2E, and the piece through 2E+1 goes to the end of
the word; every other item is the parent's, grown by the new darts that
enter it.  So a split's new vertex lands after every boundary, which
gives the split its factor (-1)^B against the vertices-then-boundaries
reference: B is constant under delta, leaving delta^2 = 0 untouched,
while the cross terms with the corner-connecting operator acquire the
sign that makes the two differentials anticommute.  An even word lists
only the edges, and ``canonical.word_sign`` reads every coefficient.

A builder lists the parent's cycles once and grows each term's items
from them.  A split's boundary walks are the parent's: cutting a vertex
into (arc_a, 2E) and (arc_b, 2E+1) puts 2E into the walk right after
sigma1(arc_a[0]) and 2E+1 right after sigma1(arc_b[0]), and leaves every
other walk as it is.  Each walk keeps its least dart, the dart it starts
at, and its place, so the list is the term's own ``boundaries`` in order.

Each move has one raw-term builder (``delta_terms``, ``bridge_terms``),
from which ``complexes`` sums the blocks of every table, and one image
path: the raw term graphs do not depend on parity, so ``delta_images``
and ``bridge_images`` give a class's image in every parity asked for from
one canonical pass per raw term, and ``delta`` and ``bridge`` ask for the
class's own parity.  ``d_images`` gives the image of their sum D, both
builders' terms off one listing of the class's cycles.  An image is a
plain dict, class -> nonzero int, with one class per target: the raw
terms are added up by canonical key first.  The images are oracles
only: the check suites apply them (``apply_linear``), and compare a built
matrix with them.  Every call returns a fresh image; the module keeps no
state between calls.  A caller that applies them to the same class more
than once memoizes the images itself (``checks.identity_suite``, one
entry per canonical key holding D's image in every parity in scope, and
one class object per class and parity).

``delta``, ``bridge``, ``project_ge3``, ``apply_linear`` and
``linalg.assemble`` have no caller on the build path.  They stay because
the benchmark's tracer (``perfbench/tracer.py``) wraps each by name and
fails when one is missing; the check suites and the tests use them as
oracles.
"""
from __future__ import annotations

from itertools import chain, combinations

from .canonical import ODD, OrientedClass, _canonical_data, word_sign
from .ribbon import (
    RibbonGraph,
    boundaries,
    edges,
    min_valence,
    vertices,
)


def _add_chord(g: RibbonGraph, c1: int, c2: int) -> RibbonGraph:
    """Insert the new edge {2E, 2E+1}: 2E after corner c1, then 2E+1 after
    corner c2, with no checks.  With c1 == c2 the edge is a loop inside
    that corner."""
    n = g.n_half_edges
    x, y = n, n + 1
    s0 = list(g.sigma0) + [0, 0]
    s0[x] = s0[c1]
    s0[c1] = x
    s0[y] = s0[c2]
    s0[c2] = y
    s1 = list(g.sigma1) + [y, x]
    return RibbonGraph(tuple(s0), tuple(s1))


def _split_graph(g: RibbonGraph, arc_a: tuple, arc_b: tuple) -> RibbonGraph:
    """Replace the vertex formed by arc_a+arc_b with two vertices
    (arc_a, x) and (arc_b, y) joined by the new edge {x, y}."""
    n = g.n_half_edges
    x, y = n, n + 1
    s0 = list(g.sigma0) + [0, 0]
    for arc, z in ((arc_a, x), (arc_b, y)):
        if not arc:
            s0[z] = z
            continue
        for k in range(len(arc) - 1):
            s0[arc[k]] = arc[k + 1]
        s0[arc[-1]] = z
        s0[z] = arc[0]
    s1 = list(g.sigma1) + [y, x]
    return RibbonGraph(tuple(s0), tuple(s1))


def _cuts(cyc: tuple, min_arc: int = 1, max_arc: int | None = None):
    """Every way of cutting a vertex cycle into two cyclically-contiguous
    arcs (arc_a, arc_b) of min_arc to max_arc (default: any) darts each.
    arc_a = cyc[i:j] never wraps; with min_arc = 0 an empty arc_a (j == i)
    takes every rotation of the other arc."""
    m = len(cyc)
    cap = m if max_arc is None else max_arc
    lo, hi = max(min_arc, m - cap), min(m - min_arc, cap) + 1  # j - i in range(lo, hi)
    for i in range(m):
        for j in range(i + lo, min(m, i + hi)):
            yield cyc[i:j], cyc[j:] + cyc[:i]


def delta_terms(g: RibbonGraph, min_arc: int = 1, odd: bool = False, max_arc: int | None = None):
    """Raw vertex-splitting terms of g's class: (graph, word) pairs, one per
    way of cutting a vertex cycle into two arcs of at least min_arc and at
    most max_arc darts (``_cuts``).  The word lists odd items only when odd
    is true and both arcs are non-empty, which every term of ``delta`` has;
    its boundary walks are the parent's, grown by the new darts (see the
    module docstring).  min_arc = 2 leaves out exactly the terms with a
    bivalent vertex when g has none: the ge3 sector's valence floor, applied
    at the cut; max_arc = 1 is the le2 sector's ceiling of two in the same
    way."""
    return _split_terms(g, edges(g), vertices(g), boundaries(g) if odd else None, min_arc, max_arc)


def _split_terms(g: RibbonGraph, es: list, verts: list, bounds, min_arc: int, max_arc):
    """``delta_terms`` off g's listed cycles: es its edges, verts its
    vertices, and bounds its boundaries, or None for words with no odd
    items."""
    x, y = g.n_half_edges, g.n_half_edges + 1
    s1 = g.sigma1
    es = es + [(x, y)]
    items = [(0, v) for v in verts]
    if bounds is not None:
        at = {h: len(verts) + i for i, b in enumerate(bounds) for h in b}
        items += [(1, b) for b in bounds]
    for vi, cyc in enumerate(verts):
        for arc_a, arc_b in _cuts(cyc, min_arc, max_arc):
            out = _split_graph(g, arc_a, arc_b)
            if bounds is None or not (arc_a and arc_b):
                yield out, ((), es)
                continue
            word = items.copy()
            word[vi] = (0, arc_a + (x,))
            for arc, z in ((arc_a, x), (arc_b, y)):
                p = s1[arc[0]]
                k = at[p]
                b = word[k][1]
                i = b.index(p) + 1
                word[k] = (1, b[:i] + (z,) + b[i:])
            word.append((0, arc_b + (y,)))
            yield out, (word, es)


def bridge_terms(g: RibbonGraph, odd: bool = False):
    """Raw corner-joining terms of g's class, as ``delta_terms``: one per
    unordered pair of distinct corners on a common boundary.  The chord
    splits that boundary's walk b at the corners p < q: with their walk
    positions sorted to i < j, one piece is b[i:j] and the other the rest,
    and the piece through 2E+1 starts at p."""
    return _chord_terms(g, edges(g), vertices(g) if odd else None, boundaries(g))


def _chord_terms(g: RibbonGraph, es: list, verts, bounds: list):
    """``bridge_terms`` off g's listed cycles: es its edges, verts its
    vertices, or None for words with no odd items, and bounds its
    boundaries."""
    x, y = g.n_half_edges, g.n_half_edges + 1
    es = es + [(x, y)]
    if verts is not None:
        at = {h: i for i, v in enumerate(verts) for h in v}
        items = [(0, v) for v in verts] + [(1, b) for b in bounds]
    for bi, b in enumerate(bounds):
        pos = {h: i for i, h in enumerate(b)}
        for p, q in combinations(sorted(b), 2):
            out = _add_chord(g, p, q)  # distinct corners of one boundary
            if verts is None:
                yield out, ((), es)
                continue
            i, j = sorted((pos[p], pos[q]))
            inner, outer = b[i:j], b[j:] + b[:i]
            piece_x, piece_y = (outer, inner) if pos[p] == i else (inner, outer)
            word = items.copy()
            for c, z in ((p, x), (q, y)):
                word[at[c]] = (0, word[at[c]][1] + (z,))
            word[len(verts) + bi] = (1, piece_x + (x,))
            word.append((1, piece_y + (y,)))
            yield out, (word, es)


def summed(terms) -> dict:
    """(class, coefficient) pairs summed into an image: class -> nonzero
    int."""
    out: dict = {}
    for cls, c in terms:
        out[cls] = out.get(cls, 0) + c
    return {cls: c for cls, c in out.items() if c}


def _images(raw_terms, parities) -> dict[int, dict]:
    """Canonicalize each raw (graph, word) term once and add it in every
    parity of parities with its ``word_sign``, by canonical key; each
    nonzero target becomes one class.  raw_terms carry odd items when ODD
    is in parities."""
    out = {parity: {} for parity in parities}
    for g, word in raw_terms:
        key, maps = _canonical_data(g.sigma0, g.sigma1)
        for parity in parities:
            coeff = word_sign(word, parity, maps)
            if coeff:
                acc = out[parity]
                acc[key] = acc.get(key, 0) + coeff
    return {
        parity: {OrientedClass(key, parity, False): c for key, c in acc.items() if c}
        for parity, acc in out.items()
    }


def delta_images(g: RibbonGraph, parities, min_arc: int = 1) -> dict[int, dict]:
    """Vertex-splitting differential of g's class in each parity of
    parities (a dict keyed by parity), summed over the cuts of
    ``delta_terms(g, min_arc)``.  On a ge3 class, min_arc = 2 gives its
    image in the ge3 sector term by term; since ge3 is a subcomplex, that
    equals the full image."""
    return _images(delta_terms(g, min_arc, ODD in parities), parities)


def bridge_images(g: RibbonGraph, parities) -> dict[int, dict]:
    """Corner-connecting differential of g's class in each parity of
    parities, as ``delta_images``."""
    return _images(bridge_terms(g, ODD in parities), parities)


def d_images(g: RibbonGraph, parities) -> dict[int, dict]:
    """The mw differential D = delta + the corner operator of g's class in
    each parity of parities, as ``delta_images``: ``delta_terms`` and then
    ``bridge_terms`` off one listing of g's edges, vertices and boundaries,
    added up in one ``_images`` pass.  The two images never share a class,
    since a corner join adds a boundary and a split keeps them all."""
    odd = ODD in parities
    es, verts, bounds = edges(g), vertices(g), boundaries(g)
    terms = chain(
        _split_terms(g, es, verts, bounds if odd else None, 1, None),
        _chord_terms(g, es, verts if odd else None, bounds),
    )
    return _images(terms, parities)


def delta(x: OrientedClass, min_arc: int = 1) -> dict:
    """``delta_images`` of a nonzero class in its own parity."""
    return delta_images(x.graph, (x.parity,), min_arc)[x.parity]


def bridge(x: OrientedClass) -> dict:
    """``bridge_images`` of a nonzero class in its own parity."""
    return bridge_images(x.graph, (x.parity,))[x.parity]


def project_ge3(s: dict) -> dict:
    """Drop every term containing a vertex of valence at most two: the
    reference that ``delta(x, min_arc=2)`` is tested against."""
    return {cls: c for cls, c in s.items() if min_valence(cls.graph) >= 3}


def apply_linear(op, s: dict) -> dict:
    """The linear extension of op, class -> image, applied to the image s."""
    return summed((o, c * oc) for cls, c in s.items() for o, oc in op(cls).items())
