"""Canonical labeling, automorphisms and orientation signs for ribbon graphs.

Canonical form: for every root half-edge we relabel by a deterministic
traversal (scan discovered half-edges in label order, discovering first the
sigma0-image then the sigma1-partner) and keep the lexicographically
smallest relabeled pair of permutation arrays.  The traversal is rigid, so
the roots realising the minimum give exactly the automorphism group.

Each graph is canonicalized in one pass and nothing is memoized.  The
pass walks from each root once (``_traverse``): it labels the half-edges
in discovery order and compares the key against the running best as it
writes it (the rooted-code comparison of plantri, Brinkmann-McKay 2007),
stopping at the first larger entry.  The key is built only for a new
best.  The zero flag reads its automorphisms off that same pass.  The
graph is trusted to be valid (``ribbon`` says where graphs are checked);
a disconnected one raises ``DisconnectedGraph`` from the walk.

Orientations depend on the parity of the degree-shift integer d: an
edge order for d even; a vertex order, boundary order, and a direction
per edge for d odd.  A graph has exactly two: its reference orientation,
which orders every kind of item by least half-edge label and directs
each edge from its smaller label, and the opposite one.  So an
orientation is a sign against the graph's own reference, and no
orientation is stored: the builders in ``diff`` hand each raw term over
as (graph, sign).

Sign rule: relabel the reference orientation by a relabeling lab; its
sign against the reference of the relabeled graph is the parity of
sorting its items by least label (edges for even parity; vertices and
boundaries for odd parity, times -1 per edge (a, b) with
lab[a] > lab[b]).  Zero rule: a class is zero when some automorphism
reverses its orientation, that is, exactly when two optimal relabelings
of the one canonicalization pass give different signs, since their
quotient is an automorphism of the canonical graph.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .ribbon import (
    RibbonGraph,
    DisconnectedGraph,
    boundaries,
    edges,
    vertices,
)

EVEN, ODD = 0, 1


def _traverse(s0: tuple, s1: tuple, root: int, best):
    """Walk from root once: label the half-edges in discovery order and
    compare the walk's key against best = (k0, k1), the running best key,
    entry by entry as it is written.  Returns (c, lab): c is -1 / 0 / +1
    as the key is smaller than / equal to / larger than best, and lab the
    labels old -> new.  The walk returns (1, None) at the first larger t0
    entry; after the first smaller one it labels the rest without
    comparing.  With best None it only labels, and c is -1."""
    n = len(s0)
    lab = [-1] * n
    lab[root] = 0
    order = [root]
    cnt = 1
    tied = best is not None  # t0 equals k0 so far
    c = 0 if tied else -1  # t1 against k1, read only while t0 ties
    k0, k1 = best or (None, None)
    i = 0
    while i < cnt:
        h = order[i]
        x = s0[h]
        v = lab[x]
        if v < 0:
            v = cnt
            lab[x] = cnt
            cnt += 1
            order.append(x)
        if tied and v != k0[i]:
            if v > k0[i]:
                return 1, None
            tied = False
            c = -1
        x = s1[h]
        v = lab[x]
        if v < 0:
            v = cnt
            lab[x] = cnt
            cnt += 1
            order.append(x)
        if tied and c == 0 and v != k1[i]:
            c = -1 if v < k1[i] else 1
        i += 1
    if cnt < n:
        raise DisconnectedGraph("canonical form requires a connected graph")
    return c, lab


def is_minimal_form(s0: tuple, s1: tuple) -> bool:
    """True iff (s0, s1), assumed in traversal normal form from root 0,
    is its own canonical form: no other root's walk gives a smaller key."""
    return all(_traverse(s0, s1, r, (s0, s1))[0] >= 0 for r in range(1, len(s0)))


def _canonical_data(s0: tuple, s1: tuple):
    """(canonical (t0,t1), list of relabelings old->canonical achieving it),
    from one walk per root; the key is built only for a new best."""
    n = len(s0)
    best = maps = None
    for root in range(n):
        c, lab = _traverse(s0, s1, root, best)
        if c == 0:
            maps.append(lab)
        elif c < 0:
            t0 = [0] * n
            t1 = [0] * n
            for h in range(n):
                t0[lab[h]] = lab[s0[h]]
                t1[lab[h]] = lab[s1[h]]
            best = (tuple(t0), tuple(t1))
            maps = [lab]
    return best, maps


def perm_sign(perm: list[int]) -> int:
    """Sign of a permutation given as an image list."""
    n = len(perm)
    seen = [False] * n
    sign = 1
    for i in range(n):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _order_sign(keys) -> int:
    """Parity of the permutation that sorts distinct keys."""
    return perm_sign(sorted(range(len(keys)), key=keys.__getitem__))


def _sign(g: RibbonGraph, parity: int, maps) -> int:
    """Sign of g's reference orientation against the canonical reference,
    read off the optimal relabelings maps of one canonicalization pass.

    Relabeled by lab, the reference's sign against the reference of the
    relabeled graph is the parity of sorting its items by least label,
    times -1 per edge directed from the larger label for odd parity.  The
    result is 0 when two relabelings disagree, since their quotient is an
    automorphism reversing the orientation."""
    es = edges(g)
    if parity == EVEN:
        signs = {_order_sign([min(lab[a], lab[b]) for a, b in es]) for lab in maps}
        return signs.pop() if len(signs) == 1 else 0
    vs = vertices(g)
    bs = boundaries(g)
    signs = set()
    for lab in maps:
        sign = _order_sign([min(lab[h] for h in v) for v in vs])
        sign *= _order_sign([min(lab[h] for h in b) for b in bs])
        for a, b in es:
            if lab[a] > lab[b]:
                sign = -sign
        signs.add(sign)
    return signs.pop() if len(signs) == 1 else 0


@dataclass(frozen=True)
class OrientedClass:
    """Canonical isomorphism-class representative with its reference
    orientation implied; zero_flag marks sign-reversing symmetry."""

    sigma0: tuple
    sigma1: tuple
    parity: int
    zero_flag: bool

    @property
    def graph(self) -> RibbonGraph:
        return RibbonGraph(self.sigma0, self.sigma1)

    def content_hash(self) -> str:
        payload = "%s|%s|%d|%d" % (self.sigma0, self.sigma1, self.parity, self.zero_flag)
        return hashlib.sha1(payload.encode()).hexdigest()

    def to_json(self) -> dict:
        return {
            "h": len(self.sigma0),
            "sigma0": list(self.sigma0),
            "sigma1": list(self.sigma1),
            "parity": self.parity,
            "zero": self.zero_flag,
            "hash": self.content_hash(),
        }


def _zero_flag(canon: RibbonGraph, parity: int, maps: list) -> bool:
    """True when some automorphism of the canonical graph canon reverses
    its reference orientation.  maps are the optimal relabelings of one
    canonicalization pass, so Aut(canon) = {lab o maps[0]^-1 : lab in maps}."""
    inv = [0] * len(maps[0])
    for h, x in enumerate(maps[0]):
        inv[x] = h
    return _sign(canon, parity, [[lab[h] for h in inv] for lab in maps]) == 0


def to_oriented_class(g: RibbonGraph, parity: int) -> tuple[OrientedClass, int]:
    """Canonicalize and read the sign of g's reference orientation against
    the canonical reference off the optimal relabelings (``_sign``).

    Returns the class and the sign; the sign is meaningless (and returned
    as +1) when the class is zero.
    """
    return to_oriented_classes(g, (parity,))[0]


def to_oriented_classes(g: RibbonGraph, parities) -> list[tuple[OrientedClass, int]]:
    """``to_oriented_class`` for every parity in parities, in that order,
    from one canonicalization pass: the canonical form and the optimal
    relabelings do not depend on parity, only the sign read off them does.
    g is not validated: it comes from a builder or was checked on entry."""
    (t0, t1), maps = _canonical_data(g.sigma0, g.sigma1)
    out = []
    for parity in parities:
        sign = _sign(g, parity, maps)
        out.append((OrientedClass(t0, t1, parity, sign == 0), sign or 1))
    return out


def class_of(g: RibbonGraph, parity: int) -> OrientedClass:
    """Class of g equipped with its own reference orientation."""
    cls, _ = to_oriented_class(g, parity)
    return cls
