"""Canonical labeling, automorphisms, orientation signs, zero flags."""
from dataclasses import replace
from itertools import permutations
import random

import pytest
from hypothesis import given, settings, strategies as st

from ribboncoh.canonical import (
    EVEN,
    ODD,
    Orientation,
    _bfs_relabel,
    _canonical_data,
    _zero_flag,
    automorphisms,
    canonical_form,
    class_of,
    is_automorphism,
    is_minimal_form,
    orientation_sign,
    perm_sign,
    reference_orientation,
    to_oriented_class,
)
from ribboncoh.enumeration import EnumSpec, _cell_maps
from ribboncoh.ribbon import RibbonGraph, is_connected

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


def brute_automorphisms(g):
    return [p for p in permutations(range(g.n_half_edges)) if is_automorphism(g, p)]


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
        canon, lab = canonical_form(g)
        assert sorted(lab) == list(range(g.n_half_edges))
        again, _ = canonical_form(canon)
        assert again == canon
        assert is_minimal_form(canon.sigma0, canon.sigma1)


def test_canonical_invariant_under_relabeling(named_graphs):
    for g in named_graphs.values():
        n = g.n_half_edges
        canon, _ = canonical_form(g)
        relab = tuple(reversed(range(n)))
        s0 = [0] * n
        s1 = [0] * n
        for h in range(n):
            s0[relab[h]] = relab[g.sigma0[h]]
            s1[relab[h]] = relab[g.sigma1[h]]
        assert canonical_form(RibbonGraph(tuple(s0), tuple(s1)))[0] == canon


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
    return [
        RibbonGraph(*pair)
        for e in range(1, 4)
        for mv in (1, 2, 3)
        for genus in range(0, e // 2 + 1)
        for n in range(1, e + 2 - 2 * genus)
        if EnumSpec(genus, n, e, mv).is_consistent()[0]
        for pair in _cell_maps(genus, n, e, mv)
    ]


def _relabelings(n, rng):
    return [list(range(n)), list(reversed(range(n)))] + [
        rng.sample(range(n), n) for _ in range(3)
    ]


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
            full = [_bfs_relabel(h.sigma0, h.sigma1, r) for r in range(n)]
            key = min(k for k, _ in full)
            assert best == key
            assert maps == [lab for k, lab in full if k == key]


def _parity_sign(perm):
    inversions = sum(
        perm[i] > perm[j] for i in range(len(perm)) for j in range(i + 1, len(perm))
    )
    return -1 if inversions % 2 else 1


def _oracle_transport(or_, lab):
    """Push an orientation through a half-edge relabeling, item by item."""
    if or_.parity == EVEN:
        return Orientation(
            EVEN, edge_order=tuple(tuple(sorted((lab[a], lab[b]))) for a, b in or_.edge_order)
        )
    return Orientation(
        ODD,
        vertex_order=tuple(frozenset(lab[h] for h in v) for v in or_.vertex_order),
        boundary_order=tuple(frozenset(lab[h] for h in b) for b in or_.boundary_order),
        edge_dirs=tuple((lab[a], lab[b]) for a, b in or_.edge_dirs),
    )


def _oracle_sign(or_, ref):
    """Sign of or_ against ref on one labeled graph, from the positions of
    its items in ref and the edges it directs against ref."""

    def order(items, ref_items):
        pos = {item: i for i, item in enumerate(ref_items)}
        return _parity_sign([pos[item] for item in items])

    if or_.parity == EVEN:
        return order(or_.edge_order, ref.edge_order)
    flips = sum(d not in ref.edge_dirs for d in or_.edge_dirs)
    return (
        order(or_.vertex_order, ref.vertex_order)
        * order(or_.boundary_order, ref.boundary_order)
        * (-1) ** flips
    )


def _shuffled(or_, rng):
    """The same items as or_ in a random order, edges in random directions."""

    def shuffle(items):
        return tuple(rng.sample(items, len(items)))

    def turn(pairs):
        return tuple(p[::-1] if rng.random() < 0.5 else p for p in pairs)

    if or_.parity == EVEN:
        return Orientation(EVEN, edge_order=turn(shuffle(or_.edge_order)))
    return Orientation(
        ODD,
        vertex_order=shuffle(or_.vertex_order),
        boundary_order=shuffle(or_.boundary_order),
        edge_dirs=turn(or_.edge_dirs),
    )


def test_sign_and_zero_flag_match_transport_oracle():
    # every class with E <= 3, valence floors 1..3, under several
    # relabelings and orientations: the sign and zero flag read off the
    # optimal relabelings agree with transporting the orientation to the
    # canonical graph and reading item positions in its reference, with
    # the zero flag taken over brute-force automorphisms
    rng = random.Random(7)
    for g in _small_classes():
        canon, _ = canonical_form(g)
        auts = brute_automorphisms(canon)
        for perm in _relabelings(g.n_half_edges, rng):
            h = _relabeled(g, perm)
            _, maps = _canonical_data(h.sigma0, h.sigma1)
            for parity in (EVEN, ODD):
                canon_ref = reference_orientation(canon, parity)
                zero = any(
                    _oracle_sign(_oracle_transport(canon_ref, a), canon_ref) < 0 for a in auts
                )
                assert _zero_flag(canon_ref, maps) is zero
                ref = reference_orientation(h, parity)
                orients = [ref, _shuffled(ref, rng)]
                if parity == ODD or h.n_edges > 1:
                    orients.append(ref.opposite())
                for o in orients:
                    cls, sign = to_oriented_class(h, o)
                    assert cls.graph == canon
                    assert cls.zero_flag is zero
                    want = _oracle_sign(_oracle_transport(o, maps[0]), canon_ref)
                    assert sign == (1 if zero else want)


def test_orientation_must_fit_the_graph(theta1, theta0):
    # an orientation with the wrong number of items of some kind is rejected
    even = reference_orientation(theta1, EVEN)
    odd = reference_orientation(theta1, ODD)
    for bad in (
        Orientation(EVEN, edge_order=even.edge_order[:-1]),
        replace(odd, vertex_order=odd.vertex_order[:-1]),
        replace(odd, edge_dirs=odd.edge_dirs[:-1]),
        reference_orientation(theta0, ODD),  # three boundaries, theta1 has one
    ):
        with pytest.raises(ValueError):
            to_oriented_class(theta1, bad)


def test_perm_sign():
    assert perm_sign([0, 1, 2]) == 1
    assert perm_sign([1, 0, 2]) == -1
    assert perm_sign([1, 2, 0]) == 1


def test_orientation_sign_values(named_graphs):
    for g in named_graphs.values():
        for parity in (EVEN, ODD):
            ref = reference_orientation(g, parity)
            for a in automorphisms(g):
                assert orientation_sign(g, a, ref) in (-1, 1)


def test_orientation_sign_is_multiplicative(theta0, dumbbell):
    for g in (theta0, dumbbell):
        for parity in (EVEN, ODD):
            ref = reference_orientation(g, parity)
            auts = automorphisms(g)
            for a in auts:
                for b in auts:
                    ab = tuple(a[b[h]] for h in range(g.n_half_edges))
                    assert orientation_sign(g, ab, ref) == orientation_sign(
                        g, a, ref
                    ) * orientation_sign(g, b, ref)


def test_orientation_sign_rejects_non_automorphism(theta1):
    with pytest.raises(ValueError):
        orientation_sign(theta1, (1, 2, 0, 3, 4, 5), reference_orientation(theta1, EVEN))


def test_opposite_orientation_flips_sign(theta1):
    for parity in (EVEN, ODD):
        ref = reference_orientation(theta1, parity)
        cls, sign = to_oriented_class(theta1, ref)
        assert not cls.zero_flag
        cls2, sign2 = to_oriented_class(theta1, ref.opposite())
        assert cls2 == cls
        assert sign2 == -sign


def test_opposite_needs_two_edges_even(loop):
    with pytest.raises(ValueError):
        reference_orientation(loop, EVEN).opposite()
    # odd parity flips an edge direction instead, fine with one edge
    opp = reference_orientation(loop, ODD).opposite()
    assert opp.edge_dirs[0] == (1, 0)


def test_malformed_orientation_payload_raises():
    with pytest.raises(ValueError):
        Orientation(EVEN, edge_order=((0, 1),), vertex_order=(frozenset({0}),))
    with pytest.raises(ValueError):
        Orientation(ODD, vertex_order=(frozenset({0, 1}),), edge_dirs=((0, 1),))


def test_zero_class_sign_is_one(theta0):
    cls, sign = to_oriented_class(theta0, reference_orientation(theta0, EVEN))
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
    assert canonical_form(RibbonGraph(tuple(s0), tuple(s1)))[0] == canonical_form(g)[0]


@settings(max_examples=60, deadline=None)
@given(connected_graphs())
def test_minimal_form_matches_canonical(g):
    canon, _ = canonical_form(g)
    assert is_minimal_form(canon.sigma0, canon.sigma1)
