"""Half-edge ribbon graphs (rotation systems) and derived combinatorial data.

A ribbon graph is a pair of permutations on a dense half-edge set
``0..2E-1``: ``sigma0`` records the cyclic order of half-edges around each
vertex, ``sigma1`` is the fixed-point-free involution pairing the two
half-edges of every edge.  Vertices, edges, boundary walks, genus and
connectivity are all derived from these two arrays.  A corner (the sector
between h and sigma0(h)) is identified with the half-edge h it follows, so
the corners of a boundary are the half-edges of its walk.

Graphs are validated (``check_valid``) only where they enter the program:
a graph file read by the CLI (``cli._load_graph``) and a cached basis
(``cache.Cache.load_basis``).  The builders (``diff``, ``enumeration``)
take only valid graphs and make only valid ones, so they and the
canonical pass trust every graph made inside the program; the structural
check suite validates the builders' raw terms.
"""
from __future__ import annotations

from collections import namedtuple


class InvalidGraph(ValueError):
    """Raised when permutation data violates a ribbon graph invariant."""


class DisconnectedGraph(ValueError):
    """Raised when an operation requires a connected graph."""


class RibbonGraph(namedtuple("RibbonGraph", "sigma0 sigma1")):
    """Immutable rotation system: permutations stored as image tuples."""

    __slots__ = ()

    def __new__(cls, sigma0, sigma1):
        return tuple.__new__(cls, (tuple(sigma0), tuple(sigma1)))

    @property
    def n_half_edges(self) -> int:
        return len(self.sigma0)

    @property
    def n_edges(self) -> int:
        return len(self.sigma0) // 2

    def to_json(self) -> dict:
        return {
            "h": self.n_half_edges,
            "sigma0": list(self.sigma0),
            "sigma1": list(self.sigma1),
        }

    @classmethod
    def from_json(cls, data: dict) -> "RibbonGraph":
        g = cls(tuple(data["sigma0"]), tuple(data["sigma1"]))
        if data.get("h", g.n_half_edges) != g.n_half_edges:
            raise InvalidGraph("half-edge count disagrees with permutation length")
        return g


def _is_permutation(images: tuple) -> bool:
    n = len(images)
    seen = [False] * n
    for x in images:
        if type(x) is not int or x < 0 or x >= n or seen[x]:
            return False
        seen[x] = True
    return True


def validate(g: RibbonGraph) -> str | None:
    """Check all invariants; return None if valid, else the first violation."""
    n = g.n_half_edges
    if n == 0:
        return "empty half-edge set"
    if len(g.sigma1) != n:
        return "sigma0 and sigma1 have different lengths"
    if n % 2 != 0:
        return "odd number of half-edges"
    if not _is_permutation(g.sigma0):
        return "sigma0 is not a permutation"
    if not _is_permutation(g.sigma1):
        return "sigma1 is not a permutation"
    for h in range(n):
        if g.sigma1[h] == h:
            return "sigma1 has a fixed point"
        if g.sigma1[g.sigma1[h]] != h:
            return "sigma1 is not an involution"
    return None


def check_valid(g: RibbonGraph) -> None:
    report = validate(g)
    if report is not None:
        raise InvalidGraph(report)


def orbits(images: tuple) -> list[tuple]:
    """Cycles of a permutation, each starting at its minimal element,
    listed in order of minimal element."""
    n = len(images)
    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start]:
            continue
        cyc = []
        h = start
        while not seen[h]:
            seen[h] = True
            cyc.append(h)
            h = images[h]
        out.append(tuple(cyc))
    return out


def sigma2(g: RibbonGraph) -> tuple:
    """Boundary-walk permutation sigma0^{-1} o sigma1."""
    n = g.n_half_edges
    inv0 = [0] * n
    for h in range(n):
        inv0[g.sigma0[h]] = h
    return tuple(inv0[g.sigma1[h]] for h in range(n))


def vertices(g: RibbonGraph) -> list[tuple]:
    return orbits(g.sigma0)


def edges(g: RibbonGraph) -> list[tuple]:
    return orbits(g.sigma1)


def boundaries(g: RibbonGraph) -> list[tuple]:
    return orbits(sigma2(g))


def valences(g: RibbonGraph) -> list[int]:
    return [len(v) for v in vertices(g)]


def min_valence(g: RibbonGraph) -> int:
    return min(valences(g))


def is_connected(g: RibbonGraph) -> bool:
    n = g.n_half_edges
    seen = [False] * n
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        h = stack.pop()
        for x in (g.sigma0[h], g.sigma1[h]):
            if not seen[x]:
                seen[x] = True
                count += 1
                stack.append(x)
    return count == n


def genus(g: RibbonGraph, counts: tuple | None = None) -> int:
    """g = 1 + (E - V - B)/2 for a connected graph.  A caller that has just
    counted g's vertices and boundaries, and knows g is connected, passes
    them as counts = (V, B), and g is not walked again."""
    if counts is None:
        if not is_connected(g):
            raise DisconnectedGraph("genus requires a connected graph")
        counts = len(vertices(g)), len(boundaries(g))
    v, b = counts
    twice = g.n_edges - v - b + 2
    if twice % 2 != 0 or twice < 0:
        raise InvalidGraph("structural inconsistency: bad genus formula value")
    return twice // 2


def to_dot(g: RibbonGraph) -> str:
    """DOT rendering: vertices as nodes, edges as links, boundary count note."""
    verts = vertices(g)
    at_vertex = {}
    for i, cyc in enumerate(verts):
        for h in cyc:
            at_vertex[h] = i
    lines = ["graph ribbon {"]
    lines.append('  label="B=%d";' % len(boundaries(g)))
    for i, cyc in enumerate(verts):
        lines.append('  v%d [label="v%d:%s"];' % (i, i, ",".join(map(str, cyc))))
    for (a, b) in edges(g):
        lines.append('  v%d -- v%d [label="%d-%d"];' % (at_vertex[a], at_vertex[b], a, b))
    lines.append("}")
    return "\n".join(lines) + "\n"
