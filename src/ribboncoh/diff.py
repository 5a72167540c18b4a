"""The two cochain differentials on oriented ribbon graph classes.

``delta`` splits a vertex into two (preserving the cyclic order) and joins
them by a new edge; it raises the edge and vertex counts by one and keeps
boundaries and genus.  ``bridge`` attaches a new edge between two distinct
corners of the same boundary, splitting that boundary in two; it raises
the edge and boundary counts by one and keeps the genus.

Sign conventions (the literature leaves them to a choice; the d^2 = 0 and
anticommutation suites pin ours): the new edge is appended last in the
edge order for even parity; for odd parity the new vertex/boundary is
appended last and the new edge is directed from the half-edge at the
smaller corner label.

Both operators return a fresh image on every call; the module keeps no
state between calls.  A caller that applies them to the same class more
than once memoizes them itself (``checks.identity_suite``).
"""
from __future__ import annotations

from itertools import combinations

from .canonical import (
    EVEN,
    ODD,
    Orientation,
    OrientedClass,
    to_oriented_class,
)
from .ribbon import (
    RibbonGraph,
    boundaries,
    check_valid,
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

    def coeff(self, cls: OrientedClass) -> int:
        return self._terms.get(cls, 0)

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

    def __sub__(self, other: "FormalSum") -> "FormalSum":
        return self + (-1) * other

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


def attach_edge(g: RibbonGraph, c1: int, c2: int) -> RibbonGraph:
    """Attach a new edge joining the corners at half-edges c1 and c2.

    Both corners must be distinct and lie on the same boundary.  The new
    half-edges are 2E and 2E+1, inserted after c1 and c2 respectively in
    their vertex cycles.
    """
    check_valid(g)
    if c1 == c2:
        raise ValueError("corners must be distinct")
    walk = {h: i for i, b in enumerate(boundaries(g)) for h in b}
    if walk[c1] != walk[c2]:
        raise ValueError("corners lie on different boundaries")
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


def _match_boundary_order(old_order, new_g: RibbonGraph, old_dart_count: int):
    """Transport a boundary order to a graph whose boundaries restrict to
    the old ones on the old half-edges."""
    new_bs = [frozenset(b) for b in boundaries(new_g)]
    by_old = {}
    for nb in new_bs:
        restricted = frozenset(h for h in nb if h < old_dart_count)
        by_old[restricted] = nb
    return [by_old[ob] for ob in old_order]


def delta_terms(x: OrientedClass, allow_empty_arcs: bool = False):
    """Raw vertex-splitting terms: (graph, orientation) pairs, one per way
    of cutting a vertex cycle into two cyclically-contiguous arcs."""
    g = x.graph
    n = g.n_half_edges
    parity = x.parity
    ref = x.reference()
    verts = vertices(g)
    for vi, cyc in enumerate(verts):
        m = len(cyc)
        cuts = list(combinations(range(m), 2))
        if allow_empty_arcs:
            cuts.extend((i, i) for i in range(m))
        for i, j in cuts:
            arc_a = cyc[i:j]
            arc_b = cyc[j:] + cyc[:i]
            out = _split_graph(g, arc_a, arc_b)
            x_h, y_h = n, n + 1
            if parity == EVEN:
                orient = Orientation(EVEN, edge_order=ref.edge_order + ((x_h, y_h),))
            else:
                vorder = list(ref.vertex_order)
                vorder[vi] = frozenset(arc_a) | {x_h}
                vorder.append(frozenset(arc_b) | {y_h})
                border = _match_boundary_order(ref.boundary_order, out, n)
                orient = Orientation(
                    ODD,
                    vertex_order=tuple(vorder),
                    boundary_order=tuple(border),
                    edge_dirs=ref.edge_dirs + ((x_h, y_h),),
                )
            yield out, orient


def bridge_terms(x: OrientedClass):
    """Raw corner-joining terms: one per unordered pair of distinct
    corners on a common boundary."""
    g = x.graph
    n = g.n_half_edges
    parity = x.parity
    ref = x.reference()
    for b in boundaries(g):
        if len(b) < 2:
            continue
        bset = frozenset(b)
        for p, q in combinations(sorted(b), 2):
            out = attach_edge(g, p, q)
            x_h, y_h = n, n + 1
            if parity == EVEN:
                orient = Orientation(EVEN, edge_order=ref.edge_order + ((x_h, y_h),))
            else:
                vorder = []
                for ov in ref.vertex_order:
                    nv = set(ov)
                    if p in ov:
                        nv.add(x_h)
                    if q in ov:
                        nv.add(y_h)
                    vorder.append(frozenset(nv))
                new_bs = [frozenset(bb) for bb in boundaries(out)]
                frag_x = next(bb for bb in new_bs if x_h in bb)
                frag_y = next(bb for bb in new_bs if y_h in bb)
                if frag_x == frag_y:
                    raise AssertionError("corner join failed to split the boundary")
                border = []
                for ob in ref.boundary_order:
                    if ob == bset:
                        border.append(frag_x)
                    else:
                        match = next(
                            bb for bb in new_bs if frozenset(h for h in bb if h < n) == ob
                        )
                        border.append(match)
                border.append(frag_y)
                orient = Orientation(
                    ODD,
                    vertex_order=tuple(vorder),
                    boundary_order=tuple(border),
                    edge_dirs=ref.edge_dirs + ((x_h, y_h),),
                )
            yield out, orient


def _image(raw_terms, koszul: int = 1) -> FormalSum:
    """Canonicalize each raw (graph, orientation) term and add it with its
    sign times koszul."""
    out = FormalSum()
    for g, orient in raw_terms:
        cls, sign = to_oriented_class(g, orient)
        out.add_term(cls, koszul * sign)
    return out


def delta(x: OrientedClass) -> FormalSum:
    """Vertex-splitting differential applied to a nonzero class.

    Odd parity carries a Koszul factor (-1)^B: the orientation word lists
    vertices before boundaries, so the appended vertex crosses the whole
    boundary block.  B is constant under delta, leaving delta^2 = 0
    untouched, while the cross terms with the corner-connecting operator
    acquire the sign that makes the two differentials anticommute.
    """
    odd_b = x.parity == ODD and len(boundaries(x.graph)) % 2 == 1
    return _image(delta_terms(x), -1 if odd_b else 1)


def bridge(x: OrientedClass) -> FormalSum:
    """Corner-connecting differential applied to a nonzero class."""
    return _image(bridge_terms(x))


def project_ge3(s: FormalSum) -> FormalSum:
    """Drop every term containing a vertex of valence at most two."""
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
