"""The two cochain differentials on oriented ribbon graph classes.

``delta`` splits a vertex into two (preserving the cyclic order) and joins
them by a new edge; it raises the edge and vertex counts by one and keeps
boundaries and genus.  ``bridge`` attaches a new edge between two distinct
corners of the same boundary, splitting that boundary in two; it raises
the edge and boundary counts by one and keeps the genus.

Sign conventions (the literature leaves them to a choice; the d^2 = 0 and
anticommutation suites pin ours): an orientation is plus or minus the
graph's own reference (``canonical``), so each raw term is a pair
(graph, sign).  The term's orientation is the class's reference with the
new edge {2E, 2E+1} appended last to the edge order for even parity.  For
odd parity the new edge is directed from 2E, and only the one list the
move cuts changes: the vertex list for a split (the cut vertex keeps
arc_a in place and arc_b is appended) or the boundary list for a corner
join (the cut boundary keeps the piece through 2E in place and the piece
through 2E+1 is appended).  The new half-edges carry the largest labels,
so every other item keeps its least label and its place; the sign is +1
for even parity and, for odd parity, the parity of re-sorting the one
changed list by least label.  A vertex split carries one more sign in
odd parity, the Koszul factor (-1)^B: the orientation word lists vertices
before boundaries, so the appended vertex crosses the whole boundary
block.  ``split_terms`` folds it into the odd sign.

``term_coefficient`` is the one place a raw term's sign is read.

Each move has one raw-term builder (``delta_terms``, ``bridge_terms``)
and one image path: the raw term graphs do not depend on parity, so
``delta_images`` and ``bridge_images`` give a class's image in every
parity asked for from one canonical pass per raw term, and ``delta`` and
``bridge`` ask for the class's own parity.  ``bridge`` gives the corner
block of every mw table; ``delta`` serves the le2 tables and the check
suites, and is the oracle of the other tables' vertex-split blocks.
Those are read off the enumerator's split rounds, whose terms come from
``split_terms`` too and whose coefficients ``complexes`` takes from
``term_coefficient``.  Every call returns a fresh image; the module keeps
no state between calls.  A caller that applies them to the same class
more than once memoizes the images itself (``checks.identity_suite``,
one entry per canonical pair serving every parity in scope).
"""
from __future__ import annotations

from itertools import combinations

from .canonical import ODD, OrientedClass, _canonical_data, _order_sign, _sign
from .ribbon import (
    RibbonGraph,
    boundaries,
    min_valence,
    vertices,
)


class FormalSum:
    """Finite integer linear combination of nonzero oriented classes."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        self._terms: dict[OrientedClass, int] = {}
        if terms:
            for cls, coeff in terms.items() if isinstance(terms, dict) else terms:
                self.add_term(cls, coeff)

    def add_term(self, cls: OrientedClass, coeff: int) -> None:
        if not isinstance(coeff, int):
            raise TypeError("coefficients are int, got %s" % type(coeff).__name__)
        if cls.zero_flag or coeff == 0:
            return
        new = self._terms.get(cls, 0) + coeff
        if new == 0:
            self._terms.pop(cls, None)
        else:
            self._terms[cls] = new

    def terms(self):
        return self._terms.items()

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __add__(self, other: "FormalSum") -> "FormalSum":
        out = FormalSum(dict(self._terms))
        for cls, c in other._terms.items():
            out.add_term(cls, c)
        return out

    def __rmul__(self, scalar: int) -> "FormalSum":
        if not isinstance(scalar, int):
            raise TypeError("scalars are int, got %s" % type(scalar).__name__)
        out = FormalSum()
        for cls, c in self._terms.items():
            out.add_term(cls, scalar * c)
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, FormalSum) and self._terms == other._terms

    def __repr__(self) -> str:
        if not self._terms:
            return "FormalSum(0)"
        bits = [
            "%s*%s" % (c, cls.content_hash()[:8])
            for cls, c in sorted(self._terms.items(), key=lambda t: t[0].content_hash())
        ]
        return "FormalSum(" + " + ".join(bits) + ")"


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


def _cuts(cyc: tuple, min_arc: int = 1):
    """Every way of cutting a vertex cycle into two cyclically-contiguous
    arcs (arc_a, arc_b) of at least min_arc darts each.  arc_a = cyc[i:j]
    never wraps; with min_arc = 0 an empty arc_a (j == i) takes every
    rotation of the other arc."""
    m = len(cyc)
    for i in range(m):
        for j in range(i + min_arc, min(m, m - min_arc + i + 1)):
            yield cyc[i:j], cyc[j:] + cyc[:i]


def delta_terms(g: RibbonGraph, min_arc: int = 1, odd: bool = False):
    """Raw vertex-splitting terms of g's class: (graph, sign) pairs, one per
    way of cutting a vertex cycle into two arcs of at least min_arc darts
    (``_cuts``).  The sign is the odd-parity one when odd is true and +1
    (the even-parity one) otherwise.  min_arc = 2 leaves out exactly the
    terms with a bivalent vertex when g has none: the ge3 sector's valence
    floor, applied at the cut."""
    n = g.n_half_edges
    verts = vertices(g)
    parent_keys = [v[0] for v in verts]
    for vi, cyc in enumerate(verts):
        for arc_a, arc_b in _cuts(cyc, min_arc):
            out = _split_graph(g, arc_a, arc_b)
            if not odd:
                yield out, 1
                continue
            keys = parent_keys.copy()
            keys[vi] = min(arc_a, default=n)
            keys.append(min(arc_b, default=n + 1))
            yield out, _order_sign(keys)


def bridge_terms(g: RibbonGraph, odd: bool = False):
    """Raw corner-joining terms of g's class, signed as in ``delta_terms``:
    one per unordered pair of distinct corners on a common boundary.  The
    chord splits that boundary's walk b at the corners p < q: with their
    walk positions sorted to i < j, one piece is b[i:j] and the other the
    rest, and the piece through 2E+1 starts at p."""
    bounds = boundaries(g)
    for bi, b in enumerate(bounds):
        pos = {h: i for i, h in enumerate(b)}
        for p, q in combinations(sorted(b), 2):
            out = _add_chord(g, p, q)  # distinct corners of one boundary
            if not odd:
                yield out, 1
                continue
            i, j = sorted((pos[p], pos[q]))
            inner, outer = min(b[i:j]), min(b[:i] + b[j:])
            keys = [c[0] for c in bounds]
            keys[bi], y_key = (outer, inner) if pos[p] == i else (inner, outer)
            keys.append(y_key)
            yield out, _order_sign(keys)


def split_terms(g: RibbonGraph, min_arc: int = 1, odd: bool = False):
    """``delta_terms(g, min_arc, odd)`` with the Koszul factor (-1)^B of
    odd parity folded into each odd sign.  B is constant under delta,
    leaving delta^2 = 0 untouched, while the cross terms with the
    corner-connecting operator acquire the sign that makes the two
    differentials anticommute."""
    terms = delta_terms(g, min_arc, odd)
    if odd and len(boundaries(g)) % 2:
        return ((term, -sign) for term, sign in terms)
    return terms


def term_coefficient(term: RibbonGraph, parity: int, maps, odd_sign: int) -> int:
    """Coefficient of a raw term on the canonical reference of its class
    in parity: ``_sign`` of the term graph's reference against it, read
    off the class's optimal relabelings maps, times the term's odd sign
    for odd parity; 0 when the class is zero."""
    sign = _sign(term, parity, maps)
    return sign * odd_sign if parity == ODD else sign


def _images(raw_terms, parities) -> dict[int, FormalSum]:
    """Canonicalize each raw (graph, odd sign) term once and add it in
    every parity of parities with its ``term_coefficient``.  raw_terms
    carry the odd-parity sign when ODD is in parities."""
    out = {parity: FormalSum() for parity in parities}
    for g, odd_sign in raw_terms:
        (t0, t1), maps = _canonical_data(g.sigma0, g.sigma1)
        for parity in parities:
            cls = OrientedClass(t0, t1, parity, False)
            out[parity].add_term(cls, term_coefficient(g, parity, maps, odd_sign))
    return out


def delta_images(g: RibbonGraph, parities, min_arc: int = 1) -> dict[int, FormalSum]:
    """Vertex-splitting differential of g's class in each parity of
    parities (a dict keyed by parity), summed over the cuts of
    ``split_terms(g, min_arc)``.  On a ge3 class, min_arc = 2 gives its
    image in the ge3 sector term by term; since ge3 is a subcomplex, that
    equals the full image."""
    return _images(split_terms(g, min_arc, ODD in parities), parities)


def bridge_images(g: RibbonGraph, parities) -> dict[int, FormalSum]:
    """Corner-connecting differential of g's class in each parity of
    parities, as ``delta_images``."""
    return _images(bridge_terms(g, ODD in parities), parities)


def delta(x: OrientedClass, min_arc: int = 1) -> FormalSum:
    """``delta_images`` of a nonzero class in its own parity."""
    return delta_images(x.graph, (x.parity,), min_arc)[x.parity]


def bridge(x: OrientedClass) -> FormalSum:
    """``bridge_images`` of a nonzero class in its own parity."""
    return bridge_images(x.graph, (x.parity,))[x.parity]


def project_ge3(s: FormalSum) -> FormalSum:
    """Drop every term containing a vertex of valence at most two: the
    reference that ``delta(x, min_arc=2)`` is tested against."""
    out = FormalSum()
    for cls, c in s.terms():
        if min_valence(cls.graph) >= 3:
            out.add_term(cls, c)
    return out


def apply_linear(op, s: FormalSum) -> FormalSum:
    out = FormalSum()
    for cls, c in s.terms():
        for ocls, oc in op(cls).terms():
            out.add_term(ocls, c * oc)
    return out
