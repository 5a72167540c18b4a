"""Canonical labeling, automorphisms and orientation signs for ribbon graphs.

Canonical form: for every root half-edge we relabel by a deterministic
traversal (scan discovered half-edges in label order, discovering first the
sigma0-image then the sigma1-partner) and keep the lexicographically
smallest relabeled pair of permutation arrays.  The traversal is rigid, so
the roots realising the minimum give exactly the automorphism group.  The
canonical key is one ``bytes`` object, t0 then t1 with one byte a dart
(so at most 256 darts; a larger graph raises InvalidGraph): it is all
that a class (``OrientedClass``), a round or a row index holds of a
graph, and ``graph_of`` reads the graph back.  The pass itself compares
and returns its relabelings as lists, which index faster than ``bytes``;
a round stores them as ``bytes``.

Each graph is canonicalized in one pass and nothing is memoized.  The
pass first reads each root's head, the first two entries of its walk's
t0, off the root's neighbourhood in O(1), keeping the roots with the
least head in one loop (``_least_head_roots``: a cheap invariant before
the full code, as in plantri, Brinkmann-McKay 2007), and walks only
those, in root order; the others could never tie the best.  A walk
(``_traverse``) is two plain loops: the first labels the half-edges in
discovery order and compares each key entry with the running best as it
writes it (plantri's rooted-code comparison), returning at the first
larger t0 entry and breaking at the first smaller one; the second labels
the rest without comparing.  The key is built only for a new best, off
the walk's discovery order.  The zero flag reads its automorphisms off
that same pass.  The graph is
trusted to be valid (``ribbon`` says where graphs are checked); a
disconnected one raises ``DisconnectedGraph`` from the walk.

Orientations depend on the parity of the degree-shift integer d: an
edge order for d even; a vertex order, boundary order, and a direction
per edge for d odd.  An orientation is written as a *word* (items,
edges): the items in order, each a kind (0 for a vertex cycle, 1 for a
boundary walk) with its darts, then the directed edges in order.  An
even word lists no items.  A graph's reference word lists every vertex,
then every boundary, each kind by least half-edge label, and every edge
by least label, directed from it (``reference_word``).  No orientation
is stored: the builders in ``diff`` hand each raw term over as (graph,
word).

Sign rule (``word_sign``, the one reader of ribbon signs): relabel a
word by an optimal relabeling lab of its graph; its sign against the
reference word of the canonical graph is the parity of sorting its edges
by least label for even parity, and for odd parity the parity of sorting
its items by (kind, least label), times -1 per edge (a, b) with lab[a] >
lab[b].  The parity of a sort is that of the keys' inversion count
(``_order_sign``).  Zero rule: a class is zero when some automorphism
reverses its orientation, that is, exactly when two optimal relabelings
of the one canonicalization pass give different signs, since their
quotient is an automorphism of the canonical graph.
"""
from __future__ import annotations

from bisect import bisect
from collections import namedtuple

# Every digest of the package (content hashes, cache names and headers)
# comes from these two.  They are the interpreter's built-in SHA code:
# importing hashlib loads OpenSSL's libcrypto, about 3.5 MB of resident
# memory in every run, for the same digests of the same bytes.
try:
    from _sha1 import sha1
    try:
        from _sha2 import sha256  # Python 3.12 and later
    except ImportError:
        from _sha256 import sha256
except ImportError:  # an interpreter built without them
    from hashlib import sha1, sha256

from .ribbon import (
    RibbonGraph,
    DisconnectedGraph,
    InvalidGraph,
    boundaries,
    edges,
    vertices,
)

EVEN, ODD = 0, 1


def _traverse(s0: tuple, s1: tuple, root: int, best):
    """Walk from root once: label the half-edges in discovery order and
    compare the walk's key against best, the running best key, t0 then t1
    in one sequence of 2n entries.  Returns (c, lab, order): c is -1 / 0 /
    +1 as the key is smaller than / equal to / larger than best, lab the
    labels old -> new and order the half-edges in label order.  The first
    loop compares each t0 entry as it is written and returns (1, None,
    None) at the first larger one; at the first smaller one it breaks, and
    the second loop labels the rest without comparing.  With best None only
    the second loop runs, and c is -1."""
    n = len(s0)
    lab = [-1] * n
    lab[root] = 0
    order = [root]
    if best is not None:
        c = 0  # t1 against best's second half, read only while t0 ties
        for i, h in enumerate(order):
            x = s0[h]
            v = lab[x]
            if v < 0:
                v = lab[x] = len(order)
                order.append(x)
            if v != best[i]:
                if v > best[i]:
                    return 1, None, None
                break
            x = s1[h]
            v = lab[x]
            if v < 0:
                v = lab[x] = len(order)
                order.append(x)
            if c == 0 and v != best[n + i]:
                c = -1 if v < best[n + i] else 1
        else:
            if len(order) < n:
                raise DisconnectedGraph("canonical form requires a connected graph")
            return c, lab, order
    # this loop rescans from the root: the half-edges the first loop
    # finished have both images labeled, so the discovery order is that of
    # one walk
    for h in order:
        x = s0[h]
        if lab[x] < 0:
            lab[x] = len(order)
            order.append(x)
        x = s1[h]
        if lab[x] < 0:
            lab[x] = len(order)
            order.append(x)
    if len(order) < n:
        raise DisconnectedGraph("canonical form requires a connected graph")
    return -1, lab, order


def is_minimal_form(s0: tuple, s1: tuple) -> bool:
    """True iff (s0, s1), assumed in traversal normal form from root 0,
    is its own canonical form: no other root's walk gives a smaller key."""
    key = s0 + s1
    return all(_traverse(s0, s1, r, key)[0] >= 0 for r in range(1, len(s0)))


def _least_head_roots(s0: tuple, s1: tuple) -> list:
    """The roots whose head is least, in root order.  A root's head is the
    first two t0 entries (a, b) of its walk, coded 4a + b, read in O(1)
    from its neighbourhood.  A univalent root r has head (0, 1) if s1(r)
    is univalent too, else (0, 2).  Any other root has (1, 0) if its
    vertex is bivalent, (1, 2) if s1(r) is s0(r) or s0^2(r), and (1, 3)
    otherwise."""
    least, roots = 8, []
    for r in range(len(s0)):
        x = s0[r]
        if x == r:
            y = s1[r]
            head = 1 if s0[y] == y else 2
        elif s0[x] == r:
            head = 4
        else:
            y = s1[r]
            head = 6 if y == x or y == s0[x] else 7
        if head < least:
            least, roots = head, [r]
        elif head == least:
            roots.append(r)
    return roots


def _canonical_data(s0: tuple, s1: tuple):
    """(canonical key, list of relabelings old->canonical achieving it),
    from one walk per root with the least head (``_least_head_roots``), in
    root order.  A root with a larger head can never tie the best, so the
    key and the relabelings are those of a walk from every root.  The best
    is a list, t0 then t1, built only for a new best, off the walk's own
    order; the key is ``bytes`` of it, made once at the end, so a graph of
    more than 256 darts raises InvalidGraph.  The relabelings stay lists:
    ``word_sign`` reads them at once, and a list indexes faster than
    ``bytes``."""
    best = maps = None
    for root in _least_head_roots(s0, s1):
        c, lab, order = _traverse(s0, s1, root, best)
        if c == 0:
            maps.append(lab)
        elif c < 0:
            best = [lab[s0[h]] for h in order]
            best += [lab[s1[h]] for h in order]
            maps = [lab]
    try:
        return bytes(best), maps
    except ValueError:
        raise InvalidGraph("a canonical key holds one byte a dart, so at most 256 darts, not %d" % len(s0)) from None


def graph_of(key: bytes) -> RibbonGraph:
    """The graph of a canonical key: sigma0 then sigma1, one byte a dart."""
    n = len(key) // 2
    return RibbonGraph(key[:n], key[n:])


def _order_sign(keys) -> int:
    """Parity of the permutation that sorts distinct keys: -1 when the
    keys hold an odd number of inversions, counted by inserting each key
    into the sorted list of the keys before it."""
    before = []
    inversions = 0
    for k in keys:
        i = bisect(before, k)
        inversions += len(before) - i
        before.insert(i, k)
    return -1 if inversions & 1 else 1


def reference_word(g: RibbonGraph, parity: int):
    """g's reference word in parity: edges only for even parity."""
    es = edges(g)
    if parity == EVEN:
        return (), es
    return [(0, v) for v in vertices(g)] + [(1, b) for b in boundaries(g)], es


def word_sign(word, parity: int, maps) -> int:
    """Sign of the orientation word against the canonical reference, read
    off the optimal relabelings maps of its graph's canonicalization pass.
    The result is 0 at the first relabeling that disagrees with the first,
    since their quotient is an automorphism reversing the orientation."""
    items, es = word
    first = 0
    for lab in maps:
        if parity == EVEN:
            sign = _order_sign([lab[a] if lab[a] < lab[b] else lab[b] for a, b in es])
        else:
            n = len(lab)
            sign = _order_sign([kind * n + min(map(lab.__getitem__, darts)) for kind, darts in items])
            for a, b in es:
                if lab[a] > lab[b]:
                    sign = -sign
        if not first:
            first = sign
        elif sign != first:
            return 0
    return first


class OrientedClass(namedtuple("OrientedClass", "key parity zero_flag")):
    """Canonical isomorphism-class representative with its reference
    orientation implied; zero_flag marks sign-reversing symmetry.  key is
    the canonical key, one ``bytes`` object, sigma0 then sigma1 with one
    byte a dart: it keys the class's rows and columns, and it is all the
    class holds of its graph.  sigma0 and sigma1 read it back as tuples."""

    __slots__ = ()

    @property
    def sigma0(self) -> tuple:
        return tuple(self.key[: len(self.key) // 2])

    @property
    def sigma1(self) -> tuple:
        return tuple(self.key[len(self.key) // 2 :])

    @property
    def graph(self) -> RibbonGraph:
        return graph_of(self.key)

    def content_hash(self) -> str:
        payload = "%s|%s|%d|%d" % (self.sigma0, self.sigma1, self.parity, self.zero_flag)
        return sha1(payload.encode()).hexdigest()

    def to_json(self) -> dict:
        return {
            "h": len(self.key) // 2,
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
    auts = [[lab[h] for h in inv] for lab in maps]
    return word_sign(reference_word(canon, parity), parity, auts) == 0


def to_oriented_class(g: RibbonGraph, parity: int) -> tuple[OrientedClass, int]:
    """Canonicalize and read the sign of g's reference word against the
    canonical reference off the optimal relabelings (``word_sign``).

    Returns the class and the sign; the sign is meaningless (and returned
    as +1) when the class is zero.  g is not validated: it comes from a
    builder or was checked on entry.
    """
    key, maps = _canonical_data(g.sigma0, g.sigma1)
    sign = word_sign(reference_word(g, parity), parity, maps)
    return OrientedClass(key, parity, sign == 0), sign or 1


def class_of(g: RibbonGraph, parity: int) -> OrientedClass:
    """Class of g equipped with its own reference orientation."""
    cls, _ = to_oriented_class(g, parity)
    return cls
