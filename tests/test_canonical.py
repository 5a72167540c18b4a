"""Canonical labeling, automorphisms, orientation signs, zero flags."""
from collections import deque, namedtuple
from itertools import chain, combinations, islice, permutations, takewhile
import random

import pytest
from hypothesis import given, settings, strategies as st

from ribboncoh.canonical import (
    EVEN,
    ODD,
    _canonical_data,
    _least_head_roots,
    _order_sign,
    _zero_flag,
    class_of,
    graph_of,
    is_minimal_form,
    reference_word,
    to_oriented_class,
    word_sign,
)
from ribboncoh.checks import CheckBounds, iter_generators
from ribboncoh.diff import _add_chord, _cuts, bridge_terms, delta_terms
from ribboncoh.enumeration import EnumSpec, _cell_maps, _first_rounds
from ribboncoh.ribbon import InvalidGraph, RibbonGraph, boundaries, edges, is_connected, vertices


def perm_sign(perm: list[int]) -> int:
    """Sign of a permutation given as an image list, from its cycle type:
    the reference that ``_order_sign`` is checked against."""
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


# brute-checked automorphism group orders (free action on rooted darts)
AUT_ORDERS = {
    "LOOP": 2,
    "BANANA": 4,
    "DOUBLELOOP": 4,
    "THETA0": 6,
    "THETA1": 6,
    "DUMBBELL": 2,
    "TRIANGLE": 6,
}

# zero-by-symmetry status per parity
ZERO_FLAGS = {
    "LOOP": (False, False),
    "BANANA": (True, True),
    "DOUBLELOOP": (True, True),
    "THETA0": (True, True),
    "THETA1": (False, False),
    "DUMBBELL": (True, True),
    "TRIANGLE": (True, True),
}


def is_automorphism(g, a):
    n = g.n_half_edges
    return sorted(a) == list(range(n)) and all(
        a[g.sigma0[h]] == g.sigma0[a[h]] and a[g.sigma1[h]] == g.sigma1[a[h]]
        for h in range(n)
    )


def brute_automorphisms(g):
    return [p for p in permutations(range(g.n_half_edges)) if is_automorphism(g, p)]


def canonical(g):
    """g's canonical graph and its optimal relabelings old->canonical."""
    best, maps = _canonical_data(g.sigma0, g.sigma1)
    return graph_of(best), maps


def automorphisms(g):
    """Aut(g) read off the optimal relabelings: lab^-1 o maps[0] for each
    optimal lab."""
    _, maps = canonical(g)
    auts = []
    for lab in maps:
        inv = [0] * len(lab)
        for h, x in enumerate(lab):
            inv[x] = h
        auts.append(tuple(inv[x] for x in maps[0]))
    return auts


def test_automorphism_orders_vs_bruteforce(named_graphs):
    for name, g in named_graphs.items():
        auts = automorphisms(g)
        assert len(auts) == AUT_ORDERS[name]
        assert sorted(auts) == sorted(brute_automorphisms(g))


def test_aut_order_divides_dart_count(named_graphs):
    # the automorphism group acts freely on half-edges of a connected graph
    for g in named_graphs.values():
        assert g.n_half_edges % len(automorphisms(g)) == 0


def test_zero_flags(named_graphs):
    for name, g in named_graphs.items():
        even_zero, odd_zero = ZERO_FLAGS[name]
        assert class_of(g, EVEN).zero_flag is even_zero
        assert class_of(g, ODD).zero_flag is odd_zero


def test_canonical_idempotent(named_graphs):
    for g in named_graphs.values():
        canon, maps = canonical(g)
        assert all(sorted(lab) == list(range(g.n_half_edges)) for lab in maps)
        again, _ = canonical(canon)
        assert again == canon
        assert is_minimal_form(canon.sigma0, canon.sigma1)


def test_canonical_invariant_under_relabeling(named_graphs):
    for g in named_graphs.values():
        n = g.n_half_edges
        canon, _ = canonical(g)
        relab = tuple(reversed(range(n)))
        s0 = [0] * n
        s1 = [0] * n
        for h in range(n):
            s0[relab[h]] = relab[g.sigma0[h]]
            s1[relab[h]] = relab[g.sigma1[h]]
        assert canonical(RibbonGraph(tuple(s0), tuple(s1)))[0] == canon


def _relabeled(g, perm):
    n = g.n_half_edges
    s0 = [0] * n
    s1 = [0] * n
    for h in range(n):
        s0[perm[h]] = perm[g.sigma0[h]]
        s1[perm[h]] = perm[g.sigma1[h]]
    return RibbonGraph(tuple(s0), tuple(s1))


def _small_classes():
    """Every class with E <= 3 and valence floors 1..3, zero classes
    included."""
    rounds = {
        (e, mv, genus, n): layer
        for mv in (1, 2, 3)
        for genus in (0, 1)
        for n, e0, first, _ in islice(_first_rounds(genus), 4 - 2 * genus)  # 2g + n - 1 <= 3
        for e, layer in takewhile(lambda r: r[0] <= 3, _cell_maps(e0, first, mv))
    }
    return [
        graph_of(key)
        for (e, mv, genus, n), layer in sorted(rounds.items())
        if EnumSpec(genus, n, e, mv).is_consistent()[0]
        for key in layer
    ]


def _relabelings(n, rng):
    return [list(range(n)), list(reversed(range(n)))] + [
        rng.sample(range(n), n) for _ in range(3)
    ]


def _full_relabel(g, root):
    """(key, labels) of the discovery-order walk from root, written out in
    full: a queue of half-edges, each discovering its sigma0-image, then
    its sigma1-partner.  The key lists both permutations in label order."""
    lab = {root: 0}
    queue = deque([root])
    while queue:
        h = queue.popleft()
        for x in (g.sigma0[h], g.sigma1[h]):
            if x not in lab:
                lab[x] = len(lab)
                queue.append(x)
    by_label = sorted(lab, key=lab.get)
    key = (
        tuple(lab[g.sigma0[h]] for h in by_label),
        tuple(lab[g.sigma1[h]] for h in by_label),
    )
    return key, [lab[h] for h in range(g.n_half_edges)]


def test_early_abort_scan_matches_full_scan():
    # every class with E <= 3, valence floors 1..3, zero classes included,
    # under several relabelings: the early-abort pass finds the same minimum
    # and the same optimal maps as a full relabeling from every root
    rng = random.Random(7)
    graphs = _small_classes()
    assert len(graphs) > 50
    for g in graphs:
        n = g.n_half_edges
        for perm in _relabelings(n, rng):
            h = _relabeled(g, perm)
            best, maps = _canonical_data(h.sigma0, h.sigma1)
            full = [_full_relabel(h, r) for r in range(n)]
            key = min(k for k, _ in full)
            assert best == bytes(key[0] + key[1])  # t0 then t1, one byte a dart
            assert maps == [lab for k, lab in full if k == key]


def test_minimal_form_rejects_non_canonical_normal_forms():
    # the walk from every root of every relabeled small class gives a
    # traversal normal form from root 0; is_minimal_form holds exactly for
    # the canonical one, so it must also say False, not only True
    rng = random.Random(11)
    rejected = 0
    for g in _small_classes():
        canon = min(_full_relabel(g, r)[0] for r in range(g.n_half_edges))
        for perm in _relabelings(g.n_half_edges, rng):
            h = _relabeled(g, perm)
            for root in range(h.n_half_edges):
                form, _ = _full_relabel(h, root)
                assert is_minimal_form(*form) == (form == canon)
                rejected += form != canon
    assert rejected > 100


def _full_sector_maps(e_max):
    """Every map of the full sector with E <= e_max, zero classes
    included: loops, univalent and bivalent vertices all occur."""
    return [
        graph_of(key)
        for genus in range(e_max // 2 + 1)
        for n, e0, first, _ in islice(_first_rounds(genus), e_max + 1 - 2 * genus)
        for e, layer in takewhile(lambda r: r[0] <= e_max, _cell_maps(e0, first, 1))
        if EnumSpec(genus, n, e, 1).is_consistent()[0]
        for key in layer
    ]


def test_heads_match_full_walks():
    # every root of every full-sector map with E <= 4: the roots kept are
    # those whose full walk's first two t0 entries (a, b), the head, are
    # least, in root order.  The roots reach every head, and head (1, 2)
    # both ways: s1(r) = s0(r) (a loop in one corner) and s1(r) = s0^2(r)
    seen = set()
    for g in _full_sector_maps(4):
        s0, s1 = g.sigma0, g.sigma1
        heads = []
        for r in range(g.n_half_edges):
            (t0, _), _ = _full_relabel(g, r)
            heads.append((t0[0], t0[1]))
            seen.add((t0[0], t0[1], s1[r] == s0[r], s1[r] == s0[s0[r]]))
        assert _least_head_roots(s0, s1) == [r for r, h in enumerate(heads) if h == min(heads)]
    assert {(a, b) for a, b, _, _ in seen} == {(0, 1), (0, 2), (1, 0), (1, 2), (1, 3)}
    assert (1, 2, True, False) in seen and (1, 2, False, True) in seen


def _parity_sign(perm):
    inversions = sum(
        perm[i] > perm[j] for i in range(len(perm)) for j in range(i + 1, len(perm))
    )
    return -1 if inversions % 2 else 1


# An explicit orientation payload, for the oracles below: an edge order
# for even parity; a vertex order, boundary order and edge directions for
# odd parity.
Payload = namedtuple("Payload", "parity edge_order vertex_order boundary_order edge_dirs")


def _reference(g, parity):
    """g's reference orientation as a payload: every kind of item ordered
    by least half-edge label, each edge directed from its smaller label."""
    if parity == EVEN:
        return Payload(EVEN, tuple(edges(g)), None, None, None)
    return Payload(
        ODD,
        None,
        tuple(frozenset(v) for v in vertices(g)),
        tuple(frozenset(b) for b in boundaries(g)),
        tuple(edges(g)),
    )


def _oracle_transport(or_, lab):
    """Push an orientation through a half-edge relabeling, item by item."""
    if or_.parity == EVEN:
        return or_._replace(
            edge_order=tuple(tuple(sorted((lab[a], lab[b]))) for a, b in or_.edge_order)
        )
    return or_._replace(
        vertex_order=tuple(frozenset(lab[h] for h in v) for v in or_.vertex_order),
        boundary_order=tuple(frozenset(lab[h] for h in b) for b in or_.boundary_order),
        edge_dirs=tuple((lab[a], lab[b]) for a, b in or_.edge_dirs),
    )


def _oracle_sign(or_, ref):
    """Sign of or_ against ref on one labeled graph, from the positions of
    its items in ref and the edges it directs against ref."""

    def order(items, ref_items):
        pos = {item: i for i, item in enumerate(ref_items)}
        assert len(pos) == len(items) == len(ref_items)
        return _parity_sign([pos[item] for item in items])

    if or_.parity == EVEN:
        return order(or_.edge_order, ref.edge_order)
    assert len(or_.edge_dirs) == len(ref.edge_dirs)
    flips = sum(d not in ref.edge_dirs for d in or_.edge_dirs)
    return (
        order(or_.vertex_order, ref.vertex_order)
        * order(or_.boundary_order, ref.boundary_order)
        * (-1) ** flips
    )


def test_sign_and_zero_flag_match_transport_oracle():
    # every class with E <= 3, valence floors 1..3, under several
    # relabelings: the sign and zero flag read off the optimal relabelings
    # agree with transporting the reference orientation to the canonical
    # graph and reading item positions in its reference, with the zero
    # flag taken over brute-force automorphisms
    rng = random.Random(7)
    for g in _small_classes():
        canon, _ = canonical(g)
        auts = brute_automorphisms(canon)
        for perm in _relabelings(g.n_half_edges, rng):
            h = _relabeled(g, perm)
            _, maps = _canonical_data(h.sigma0, h.sigma1)
            for parity in (EVEN, ODD):
                canon_ref = _reference(canon, parity)
                zero = any(
                    _oracle_sign(_oracle_transport(canon_ref, a), canon_ref) < 0 for a in auts
                )
                assert _zero_flag(canon, parity, maps) is zero
                cls, sign = to_oriented_class(h, parity)
                assert cls.graph == canon
                assert cls.zero_flag is zero
                want = _oracle_sign(_oracle_transport(_reference(h, parity), maps[0]), canon_ref)
                assert sign == (1 if zero else want)


def _delta_payloads(x, min_arc, outs):
    """Each vertex-splitting term's orientation as a payload, for the term
    graphs outs of ``delta_terms``: the class's reference with the new
    edge {x, y} appended; for odd parity the cut vertex keeps arc_a (with
    x) in place, arc_b (with y) is appended, and the boundaries are the
    term's own."""
    g = x.graph
    ref = _reference(g, x.parity)
    new = (g.n_half_edges, g.n_half_edges + 1)
    cuts = [(vi, a, b) for vi, cyc in enumerate(vertices(g)) for a, b in _cuts(cyc, min_arc)]
    assert len(cuts) == len(outs)
    for (vi, arc_a, arc_b), out in zip(cuts, outs):
        if x.parity == EVEN:
            yield ref._replace(edge_order=ref.edge_order + (new,))
            continue
        vorder = list(ref.vertex_order)
        vorder[vi] = frozenset(arc_a) | {new[0]}
        vorder.append(frozenset(arc_b) | {new[1]})
        yield ref._replace(
            vertex_order=tuple(vorder),
            boundary_order=tuple(frozenset(b) for b in boundaries(out)),
            edge_dirs=ref.edge_dirs + (new,),
        )


def _bridge_payloads(x):
    """Each corner-joining term's orientation as a payload, in the order
    of ``bridge_terms``: the class's reference with the new edge {x, y}
    appended; for odd parity x and y join the vertices of their corners,
    the cut boundary is replaced by the term's boundary through x, and the
    one through y is appended."""
    g = x.graph
    ref = _reference(g, x.parity)
    nx, ny = g.n_half_edges, g.n_half_edges + 1
    for b in boundaries(g):
        for p, q in combinations(sorted(b), 2):
            out = _add_chord(g, p, q)
            if x.parity == EVEN:
                yield out, ref._replace(edge_order=ref.edge_order + ((nx, ny),))
                continue
            vorder = tuple(
                v | {h for h, c in ((nx, p), (ny, q)) if c in v} for v in ref.vertex_order
            )
            new_bs = [frozenset(c) for c in boundaries(out)]
            frag_x = next(c for c in new_bs if nx in c)
            frag_y = next(c for c in new_bs if ny in c)
            assert frag_x != frag_y
            border = [frag_x if c == frozenset(b) else c for c in ref.boundary_order]
            yield out, ref._replace(
                vertex_order=vorder,
                boundary_order=tuple(border) + (frag_y,),
                edge_dirs=ref.edge_dirs + ((nx, ny),),
            )


def _check_raw_term(out, word, payload, parity, koszul=1):
    # the word's sign against the canonical reference is the payload
    # transported to the canonical graph, times koszul; 0 on a zero class
    cls, _ = to_oriented_class(out, parity)
    _, maps = _canonical_data(out.sigma0, out.sigma1)
    if cls.zero_flag:
        assert word_sign(word, parity, maps) == 0
        return
    canon_ref = _reference(cls.graph, parity)
    want = _oracle_sign(_oracle_transport(payload, maps[0]), canon_ref)
    assert word_sign(word, parity, maps) == koszul * want


def test_raw_term_signs_match_payload_oracle():
    # every full and ge3 generator with E <= 4, g <= 2, both parities:
    # each raw term of delta and bridge carries, as one word, the explicit
    # orientation payload the term is defined by; an odd split also carries
    # the Koszul factor (-1)^B, since its word lists the new vertex after
    # every boundary
    bounds = CheckBounds(g_max=2, e_max_full=4, e_max_ge3=4, e_max_le2=4)
    n_terms = 0
    for spec, x in iter_generators(bounds):
        min_arc = 2 if spec.min_valence == 3 else 1
        koszul = (-1) ** len(boundaries(x.graph)) if x.parity == ODD else 1
        terms = list(delta_terms(x.graph, min_arc, x.parity == ODD))
        payloads = list(_delta_payloads(x, min_arc, [out for out, _ in terms]))
        for (out, word), payload in zip(terms, payloads):
            _check_raw_term(out, word, payload, x.parity, koszul)
        terms = list(bridge_terms(x.graph, x.parity == ODD))
        payloads = list(_bridge_payloads(x))
        assert len(terms) == len(payloads)
        for (out, word), (want_out, payload) in zip(terms, payloads):
            assert out == want_out
            _check_raw_term(out, word, payload, x.parity)
        n_terms += len(payloads) + len(terms)
    assert n_terms > 1000


def _set_word_sign(word, parity, maps):
    """The set-based reading of a word's sign: every optimal relabeling's
    sign, by counting inversions, and 0 unless they all agree."""
    items, es = word
    signs = set()
    for lab in maps:
        if parity == EVEN:
            sign = _parity_sign([min(lab[a], lab[b]) for a, b in es])
        else:
            n = len(lab)
            sign = _parity_sign([kind * n + min(lab[h] for h in darts) for kind, darts in items])
            sign *= (-1) ** sum(lab[a] > lab[b] for a, b in es)
        signs.add(sign)
    return signs.pop() if len(signs) == 1 else 0


def test_word_sign_matches_set_oracle():
    # the raw words of delta_terms and bridge_terms of every full-sector
    # generator with E <= 4, g <= 2, each read in both parities: word_sign,
    # which returns at the first relabeling that disagrees, agrees with the
    # set of all signs.  Zero classes whose first two relabelings agree and
    # a later one disagrees reach that return past the second map
    bounds = CheckBounds(g_max=2, e_max_full=4, e_max_ge3=0, e_max_le2=0)
    graphs = dict.fromkeys(x.graph for _, x in iter_generators(bounds))
    late = 0
    for g in graphs:
        for out, word in chain(delta_terms(g, 1, True), bridge_terms(g, True)):
            _, maps = _canonical_data(out.sigma0, out.sigma1)
            for parity in (EVEN, ODD):
                want = _set_word_sign(word, parity, maps)
                assert word_sign(word, parity, maps) == want
                late += want == 0 and _set_word_sign(word, parity, maps[:2]) != 0
    assert late > 0


def test_perm_sign():
    assert perm_sign([0, 1, 2]) == 1
    assert perm_sign([1, 0, 2]) == -1
    assert perm_sign([1, 2, 0]) == 1


def test_order_sign_counts_inversions():
    # the inversion count's parity against the sign of the sorting
    # permutation, on distinct int keys and on distinct tuple keys (gc2's)
    rng = random.Random(20261020)
    for _ in range(500):
        n = rng.randint(0, 12)
        keys = rng.sample(range(-50, 50), n)
        if rng.random() < 0.5:
            keys = [(k // 10, k % 10) for k in keys]
        assert _order_sign(keys) == perm_sign(sorted(range(n), key=keys.__getitem__))


def test_orientation_sign_values(named_graphs):
    for g in named_graphs.values():
        for parity in (EVEN, ODD):
            ref = _reference(g, parity)
            for a in automorphisms(g):
                want = _oracle_sign(_oracle_transport(ref, a), ref)
                assert word_sign(reference_word(g, parity), parity, [a]) == want


def test_orientation_sign_is_multiplicative(theta0, dumbbell):
    for g in (theta0, dumbbell):
        for parity in (EVEN, ODD):
            word = reference_word(g, parity)
            auts = automorphisms(g)
            for a in auts:
                for b in auts:
                    ab = tuple(a[b[h]] for h in range(g.n_half_edges))
                    assert word_sign(word, parity, [ab]) == word_sign(
                        word, parity, [a]
                    ) * word_sign(word, parity, [b])


def test_zero_class_sign_is_one(theta0):
    cls, sign = to_oriented_class(theta0, EVEN)
    assert cls.zero_flag
    assert sign == 1


def test_content_hash_distinguishes(named_graphs):
    hashes = {class_of(g, EVEN).content_hash() for g in named_graphs.values()}
    assert len(hashes) == len(named_graphs)


@st.composite
def connected_graphs(draw):
    n_edges = draw(st.integers(min_value=1, max_value=4))
    n = 2 * n_edges
    s0 = tuple(draw(st.permutations(range(n))))
    s1 = tuple(h + 1 if h % 2 == 0 else h - 1 for h in range(n))
    g = RibbonGraph(s0, s1)
    if not is_connected(g):
        g = RibbonGraph(tuple(range(1, n)) + (0,), s1)
    return g


@settings(max_examples=60, deadline=None)
@given(connected_graphs(), st.integers(min_value=0, max_value=7))
def test_canonical_conjugation_invariance(g, shift):
    n = g.n_half_edges
    relab = tuple((h + shift) % n for h in range(n))
    s0 = [0] * n
    s1 = [0] * n
    for h in range(n):
        s0[relab[h]] = relab[g.sigma0[h]]
        s1[relab[h]] = relab[g.sigma1[h]]
    assert canonical(RibbonGraph(tuple(s0), tuple(s1)))[0] == canonical(g)[0]


@settings(max_examples=60, deadline=None)
@given(connected_graphs())
def test_minimal_form_matches_canonical(g):
    canon, _ = canonical(g)
    assert is_minimal_form(canon.sigma0, canon.sigma1)


def _one_vertex_map(n_edges):
    """One vertex with n_edges loops, each joining two neighbouring darts."""
    n = 2 * n_edges
    return RibbonGraph([(h + 1) % n for h in range(n)], [h ^ 1 for h in range(n)])


def test_a_key_holds_at_most_256_darts():
    # a key is one byte a dart, sigma0 then sigma1
    key, maps = _canonical_data(*_one_vertex_map(128))
    assert type(key) is bytes and len(key) == 512 and len(maps) == 128
    assert graph_of(key) == canonical(_one_vertex_map(128))[0]
    with pytest.raises(InvalidGraph, match="at most 256 darts"):
        _canonical_data(*_one_vertex_map(129))
    with pytest.raises(InvalidGraph):
        class_of(_one_vertex_map(129), ODD)
