"""Canonical labeling, automorphisms, orientation signs, zero flags."""
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


def test_early_abort_scan_matches_full_scan():
    # every class with E <= 3, valence floors 1..3, zero classes included,
    # under several relabelings: the early-abort pass finds the same minimum
    # and the same optimal maps as a full relabeling from every root, and
    # its zero flag agrees with a brute-force automorphism scan
    rng = random.Random(7)
    graphs = [
        RibbonGraph(*pair)
        for e in range(1, 4)
        for mv in (1, 2, 3)
        for genus in range(0, e // 2 + 1)
        for n in range(1, e + 2 - 2 * genus)
        if EnumSpec(genus, n, e, mv).is_consistent()[0]
        for pair in _cell_maps(genus, n, e, mv)
    ]
    assert len(graphs) > 50
    for g in graphs:
        n = g.n_half_edges
        perms = [list(range(n)), list(reversed(range(n)))]
        perms += [rng.sample(range(n), n) for _ in range(3)]
        for perm in perms:
            h = _relabeled(g, perm)
            best, maps = _canonical_data(h.sigma0, h.sigma1)
            full = [_bfs_relabel(h.sigma0, h.sigma1, r) for r in range(n)]
            key = min(k for k, _ in full)
            assert best == key
            assert maps == [lab for k, lab in full if k == key]
            canon = RibbonGraph(*best)
            auts = brute_automorphisms(canon)
            for parity in (EVEN, ODD):
                ref = reference_orientation(canon, parity)
                brute = any(orientation_sign(canon, a, ref) < 0 for a in auts)
                assert class_of(h, parity).zero_flag is brute


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
