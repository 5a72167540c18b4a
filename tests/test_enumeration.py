"""Enumeration: frozen census values, oracle agreement, closed-form
counts, low-valence sector."""
from fractions import Fraction
from itertools import islice
from math import factorial
import tracemalloc

import pytest

from ribboncoh import diff, enumeration
from ribboncoh.canonical import EVEN, ODD, class_of, graph_of
from ribboncoh.enumeration import (
    LE2_CELLS,
    EnumSpec,
    _canonical_layer,
    _cell_maps,
    _first_rounds,
    _split_by_zero,
    cells,
    enumerate_bruteforce,
    enumerate_cell,
    enumerate_classes,
    le2_classes,
)
from ribboncoh.ribbon import (
    RibbonGraph,
    boundaries,
    genus,
    min_valence,
    validate,
    valences,
    vertices,
)

# nonzero-class counts (n, E) -> count, brute-force cross-checked at E <= 4
CENSUS_G0_MV1_EVEN = {
    (1, 1): 1, (2, 1): 1,
    (1, 2): 0, (2, 2): 1, (3, 2): 0,
    (1, 3): 1, (2, 3): 3, (3, 3): 3, (4, 3): 1,
    (1, 4): 2, (2, 4): 12, (3, 4): 23, (4, 4): 12, (5, 4): 2,
}
CENSUS_G0_MV3_EVEN = {(3, 2): 0, (3, 3): 0, (4, 3): 1, (4, 4): 4, (5, 4): 2}
CENSUS_G1_MV3_EVEN = {(1, 2): 0, (1, 3): 1, (2, 3): 2, (2, 4): 5, (3, 4): 7}


def basis_table(genus, e_max, min_valence, parity=EVEN):
    """Nonzero-class counts over the (boundaries, edges) grid at fixed
    genus, from one ``cells`` walk, each cell split in the parity."""
    return {(n, e): len(_split_by_zero(layer, parity)[0]) for n, e, layer in cells(genus, min_valence, e_max)}


def _first_round(genus, n_boundaries):
    """(E, round): the first round of the (genus, n_boundaries) chain, as
    ``_first_rounds`` grows it."""
    return next((e, layer) for n, e, layer, _ in _first_rounds(genus) if n == n_boundaries)


def test_spec_consistency():
    ok, _ = EnumSpec(0, 1, 1).is_consistent()
    assert ok
    assert not EnumSpec(1, 1, 1).is_consistent()[0]       # V = 0
    assert not EnumSpec(1, 1, 4, 3).is_consistent()[0]    # valence bound
    assert not EnumSpec(-1, 1, 1).is_consistent()[0]
    assert EnumSpec(1, 1, 4, 3).n_vertices == 3


def test_frozen_census_tables():
    assert basis_table(0, 4, 1) == CENSUS_G0_MV1_EVEN
    assert basis_table(0, 4, 3) == CENSUS_G0_MV3_EVEN
    assert basis_table(1, 4, 3) == CENSUS_G1_MV3_EVEN


def test_frozen_zero_class_counts():
    # (g,n,E,mv) -> (nonzero, zero); the zero classes carry a
    # sign-reversing automorphism and are excluded from bases
    expect = {
        (0, 3, 3, 3): (0, 2),   # THETA0 and DUMBBELL, both zero
        (1, 1, 2, 3): (0, 1),   # DOUBLELOOP, zero
        (1, 1, 3, 3): (1, 0),   # THETA1
        (0, 1, 4, 1): (2, 1),
    }
    for (g, n, e, mv), (nz, z) in expect.items():
        got_nz, got_z = enumerate_classes(EnumSpec(g, n, e, mv, EVEN))
        assert (len(got_nz), got_z) == (nz, z)


def test_inconsistent_spec_is_empty():
    assert enumerate_classes(EnumSpec(1, 1, 1, 1, EVEN)) == ([], 0)
    assert enumerate_bruteforce(EnumSpec(1, 1, 1, 1, EVEN)) == ([], 0)
    assert le2_classes(EnumSpec(1, 1, 1, 1, EVEN)) == ([], 0)


def test_class_properties():
    for spec in (EnumSpec(1, 1, 3, 3, EVEN), EnumSpec(0, 2, 3, 1, ODD)):
        nonzero, _ = enumerate_classes(spec)
        for cls in nonzero:
            g = cls.graph
            assert validate(g) is None
            assert genus(g) == spec.genus
            assert len(boundaries(g)) == spec.boundaries
            assert g.n_edges == spec.edges
            assert len(vertices(g)) == spec.n_vertices
            assert min_valence(g) >= spec.min_valence
            assert not cls.zero_flag


def test_oracle_agreement_small():
    for e in range(1, 4):
        for g in range(0, e // 2 + 1):
            for n in range(1, e + 2 - 2 * g):
                for mv in (1, 2, 3):
                    spec = EnumSpec(g, n, e, mv, EVEN)
                    fast = enumerate_classes(spec)
                    slow = enumerate_bruteforce(spec)
                    assert [c.content_hash() for c in fast[0]] == [
                        c.content_hash() for c in slow[0]
                    ], spec
                    assert fast[1] == slow[1], spec


def test_bruteforce_guard():
    with pytest.raises(ValueError):
        enumerate_bruteforce(EnumSpec(0, 1, 6, 1, EVEN))


def test_enumerate_cell_matches_full_run():
    for spec in (EnumSpec(0, 2, 4, 1, EVEN), EnumSpec(1, 2, 4, 3, ODD)):
        assert enumerate_cell(spec)[0] == enumerate_classes(spec)[0]
        assert enumerate_cell(spec)[1] == enumerate_classes(spec)[1]


def test_single_cell_read_splits_only_its_cell(monkeypatch):
    # the (1, 2) chain at floor 1 passes its E = 3 and 4 cells on the way to
    # E = 5; splitting them too makes 3 splits and 23 zero flags
    counts = {"_split_by_zero": 0, "_zero_flag": 0}

    def counted(name):
        real = getattr(enumeration, name)

        def wrapper(*args):
            counts[name] += 1
            return real(*args)
        return wrapper

    for name in counts:
        monkeypatch.setattr(enumeration, name, counted(name))
    enumerate_classes(EnumSpec(1, 2, 5, 1))
    assert counts == {"_split_by_zero": 1, "_zero_flag": 16}


def test_cells_match_the_single_cell_readers():
    # every cell of one walk, split in either parity, equals the cell that
    # enumerate_classes (or, under the le2 cap, le2_classes) reads alone, and
    # every consistent spec that the walk skips is empty: g <= 2, floors
    # 1..3, both parities, E <= 5, and the le2 cap to E = 8
    read = 0
    sweeps = [(mv, 5, None, enumerate_classes) for mv in (1, 2, 3)] + [(1, 8, 1, le2_classes)]
    for g in range(3):
        for mv, e_max, max_arc, single in sweeps:
            walk = {
                (n, e, parity): _split_by_zero(layer, parity)
                for n, e, layer in cells(g, mv, e_max, max_arc)
                for parity in (EVEN, ODD)
            }
            for parity in (EVEN, ODD):
                for e in range(1, e_max + 1):
                    for n in range(1, e + 2 - 2 * g):
                        spec = EnumSpec(g, n, e, mv, parity)
                        if (n, e, parity) in walk:
                            assert walk[n, e, parity] == single(spec), spec
                            read += 1
                        elif spec.is_consistent()[0]:
                            assert single(spec) == ([], 0), spec
                            assert max_arc == 1 and (g, n) not in LE2_CELLS, spec
    assert read == 192


def _rooted_map_counts(g_max: int, e_max: int) -> dict:
    """Q_g(E), rooted maps of genus g with E edges, from the Carrell-Chapuy
    recurrence (JCTA 2015):

        (E+1)/6 Q_g(E) = (4E-2)/3 Q_g(E-1)
                       + (2E-3)(2E-2)(2E-1)/12 Q_{g-1}(E-2)
                       + 1/2 sum_{k+l=E, k,l>=1} sum_{i+j=g}
                             (2k-1)(2l-1) Q_i(k-1) Q_j(l-1)
    """
    q = {(0, 0): Fraction(1)}

    def at(g, e):
        return q.get((g, e), Fraction(0))

    for e in range(1, e_max + 1):
        for g in range(0, g_max + 1):
            rhs = Fraction(4 * e - 2, 3) * at(g, e - 1)
            rhs += Fraction((2 * e - 3) * (2 * e - 2) * (2 * e - 1), 12) * at(g - 1, e - 2)
            rhs += Fraction(1, 2) * sum(
                (2 * k - 1) * (2 * (e - k) - 1) * at(i, k - 1) * at(g - i, e - k - 1)
                for k in range(1, e)
                for i in range(0, g + 1)
            )
            q[g, e] = rhs * 6 / (e + 1)
    return q


def _round(genus: int, n: int, e: int, mv: int) -> dict:
    """The round at e edges of the (genus, n) chain at floor mv: canonical
    key -> optimal relabelings for every class of the cell."""
    for edges, layer in _cell_maps(*_first_round(genus, n), mv):
        if edges >= e:
            assert edges == e, (genus, n, e)
            return layer


def _chord_moves(layer, genus: int, n_boundaries: int):
    """Oracle: every one-vertex map with one more chord (``diff._add_chord``)
    that can still reach genus ``genus`` with ``n_boundaries`` boundaries.
    A chord inside one boundary (a loop in a corner, or two corners of one
    walk) adds a boundary; a chord across two boundaries merges them and
    adds a handle.  So along the moves neither the genus nor genus +
    boundaries ever falls, and a map past either target bound is
    dropped."""
    for key in layer:
        g = graph_of(key)
        walks = boundaries(g)
        walk = {h: i for i, b in enumerate(walks) for h in b}
        n = len(walks)
        g_here = (g.n_edges + 1 - n) // 2
        for c1 in range(g.n_half_edges):
            for c2 in range(c1, g.n_half_edges):
                if c1 == c2 or walk[c1] == walk[c2]:
                    g_new, n_new = g_here, n + 1
                else:
                    g_new, n_new = g_here + 1, n - 1
                if g_new <= genus and n_new <= n_boundaries + genus - g_new:
                    out = diff._add_chord(g, c1, c2)
                    yield out.sigma0, out.sigma1


def test_first_rounds_match_the_chord_closure():
    # the boundary-count path gives the same one-vertex cells as every
    # reachable chord from the loop, 2g + n - 2 rounds of them: the same
    # classes, automorphism counts and zero flags, for g <= 2 and E <= 7
    sizes = []
    for genus in range(3):
        for n in range(1, 9 - 2 * genus):
            if (genus, n) == (0, 1):
                continue
            oracle = _canonical_layer([((1, 0), (1, 0))])
            for _ in range(2 * genus + n - 2):
                oracle = _canonical_layer(_chord_moves(oracle, genus, n))
            e, layer = _first_round(genus, n)
            assert e == 2 * genus + n - 1
            assert layer.keys() == oracle.keys(), (genus, n)
            assert all(len(layer[k]) == len(maps) for k, maps in oracle.items())
            for parity in (EVEN, ODD):
                assert _split_by_zero(layer, parity) == _split_by_zero(oracle, parity)
            sizes.append(len(layer))
    assert len(sizes) == 17 and max(sizes) == 4758


def _stored_data(s0, s1):
    """The canonical data of (s0, s1) as a round stores it: its key and its
    relabelings as ``bytes``."""
    key, maps = enumeration._canonical_data(s0, s1)
    return key, [bytes(lab) for lab in maps]


def test_first_round_chords_are_the_corner_terms_of_the_round_before():
    # each first round after the loop grows from the one before by chords,
    # and those between two distinct corners are exactly bridge_terms's on
    # every class of that round, zero classes included, recorded per class
    # in bridge_terms's order, each with the canonical data of its own pass
    checked = 0
    for genus in range(3):
        before = None
        for n, e, layer, chords in _first_rounds(genus):
            if n >= 2 and (genus, n) != (0, 2):
                assert e == 2 * genus + n - 1
                assert set(chords) <= set(before)
                for src in before:
                    raws = [(t.sigma0, t.sigma1) for t, _ in diff.bridge_terms(graph_of(src))]
                    recorded = chords.get(src, [])
                    assert len(raws) == len(set(raws)) == len(recorded)
                    assert all(data == _stored_data(*raw) for raw, data in zip(raws, recorded))
                    checked += len(raws)
            if n == 7 - 2 * genus:
                break
            before = layer
    assert checked == 2461  # every first round with E <= 6


def test_first_round_chords_hold_their_rounds_own_keys():
    # a recorded chord keeps the key object of the round it grew, not the
    # fresh key of its own pass, so no chord adds a canonical pair
    checked = 0
    for genus in range(3):
        for n, e, layer, chords in islice(_first_rounds(genus), 7 - 2 * genus):
            own = {key: key for key in layer}
            for terms in chords.values():
                assert all(key is own[key] for key, _ in terms)
                checked += len(terms)
    assert checked == 2461


def test_a_round_holds_one_key_and_bytes_relabelings_per_class():
    # the (g 1, n 5, E 7) ge3 round, once its walk is closed: each class is
    # one bytes key with its relabelings as bytes (a pair of int tuples
    # with list relabelings held 637 B a class)
    tracemalloc.start()
    try:
        walk = cells(1, 3, 7, boundaries=5)
        layer = next(layer for _, e, layer in walk if e == 7)
        walk.close()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(layer) == 3732
    assert all(type(key) is bytes and all(type(lab) is bytes for lab in maps) for key, maps in layer.items())
    assert held < 300 * len(layer), held / len(layer)


def test_empty_arc_cut_lists_no_odd_items(monkeypatch):
    # the full-sector closure walk also cuts empty arcs, whose terms are not
    # delta's: in an odd walk their words list no odd items, and the word
    # of every term the visitor reads does
    words, visited = [], []

    def recorded(g, *args):
        for term, word in diff.delta_terms(g, *args):
            words.append((term, word))
            yield term, word

    monkeypatch.setattr(enumeration, "delta_terms", recorded)
    rounds = _cell_maps(*_first_round(0, 1), 1, lambda src, word, key, maps: visited.append(word), True)
    while next(rounds)[0] < 4:  # splits the rounds E = 1, 2, 3
        pass
    new_dart = [term.n_half_edges - 2 for term, _ in words]  # 2E, alone after an empty-arc cut
    empty = [word for (term, word), x in zip(words, new_dart) if term.sigma0[x] == x]
    assert empty and not any(items for items, _ in empty)
    assert len(visited) == len(words) - len(empty)
    assert all(items for items, _ in visited)


def test_rooted_map_recurrence_values():
    q = _rooted_map_counts(3, 6)
    assert [q[0, e] for e in range(1, 7)] == [2, 9, 54, 378, 2916, 24057]
    assert [q[1, e] for e in range(2, 7)] == [1, 20, 307, 4280, 56914]
    assert [q[2, e] for e in range(4, 7)] == [21, 966, 27954]
    assert q[3, 6] == 1485


def test_rooted_maps_match_carrell_chapuy():
    # each isomorphism class with E edges carries 2E / |Aut| rootings, zero
    # classes included; |Aut| is the number of optimal canonical relabelings
    q = _rooted_map_counts(2, 6)
    for g in range(0, 3):
        for e in range(max(1, 2 * g), 7):
            rooted = Fraction(0)
            for n in range(1, e + 2 - 2 * g):
                for maps in _round(g, n, e, 1).values():
                    rooted += Fraction(2 * e, len(maps))
            assert rooted == q[g, e], (g, e)


def _one_vertex_map_counts(g_max: int, e_max: int) -> dict:
    """eps_g(E), rooted one-vertex maps of genus g with E edges, from the
    Harer-Zagier recurrence (Invent. Math. 1986):

        (E+1) eps_g(E) = 2(2E-1) eps_g(E-1) + (E-1)(2E-1)(2E-3) eps_{g-1}(E-2)
    """
    eps = {(0, 0): Fraction(1)}
    for e in range(1, e_max + 1):
        for g in range(0, g_max + 1):
            rhs = 2 * (2 * e - 1) * eps.get((g, e - 1), 0)
            rhs += (e - 1) * (2 * e - 1) * (2 * e - 3) * eps.get((g - 1, e - 2), 0)
            eps[g, e] = rhs / (e + 1)
    return eps


def test_one_vertex_maps_match_harer_zagier():
    # the one-vertex classes of genus g with E edges are the cell with
    # n = E + 1 - 2g boundaries; each carries 2E / |Aut| rootings, zero
    # classes included
    eps = _one_vertex_map_counts(3, 6)
    assert [eps[1, e] for e in range(2, 7)] == [1, 10, 70, 420, 2310]
    assert (eps[2, 5], eps[3, 6]) == (483, 1485)
    cells = 0
    for e in range(1, 7):
        for g in range(0, e // 2 + 1):
            rooted = Fraction(0)
            for maps in _round(g, e + 1 - 2 * g, e, 1).values():
                rooted += Fraction(2 * e, len(maps))
            assert rooted == eps[g, e], (g, e)
            cells += 1
    assert cells == 15


def _orbifold_euler(g: int, n: int) -> Fraction:
    """chi(M_{g,n}) (Harer-Zagier 1986): chi(M_{0,3}) = 1,
    chi(M_{g,1}) = zeta(1 - 2g), chi(M_{g,n+1}) = (2 - 2g - n) chi(M_{g,n})."""
    zeta_1_minus_2g = {1: Fraction(-1, 12), 2: Fraction(1, 120)}
    chi, k = (Fraction(1), 3) if g == 0 else (zeta_1_minus_2g[g], 1)
    while k < n:
        chi *= 2 - 2 * g - k
        k += 1
    return chi


def test_ge3_cells_match_harer_zagier():
    # sum over the trivalent-plus classes of a (g, n) cell, zero classes
    # included, of (-1)^V / |Aut| is chi^orb(M_{g,n}) / n!
    for g, n in ((0, 3), (0, 4), (0, 5), (1, 1), (1, 2), (1, 3), (2, 1)):
        total = Fraction(0)
        for e in range(2 * g + n - 1, 6 * g - 6 + 3 * n + 1):
            spec = EnumSpec(g, n, e, 3)
            assert spec.is_consistent()[0], spec
            for maps in _round(g, n, e, 3).values():
                total += Fraction((-1) ** spec.n_vertices, len(maps))
        assert total == _orbifold_euler(g, n) / factorial(n), (g, n)


def polygon_graph(n_edges: int) -> RibbonGraph:
    """The n-gon: vertices 0..n-1 all 2-valent, edge i joining vertex i to
    vertex i+1 (mod n); n=1 degenerates to the loop."""
    if n_edges < 1:
        raise ValueError("polygon needs at least one edge")
    n = 2 * n_edges
    s0 = list(range(n))
    s1 = list(range(n))
    for i in range(n_edges):
        a, b = 2 * i, 2 * i + 1  # darts at vertex i
        s0[a], s0[b] = b, a
        partner = 2 * ((i + 1) % n_edges)
        s1[b] = partner
        s1[partner] = b
    return RibbonGraph(tuple(s0), tuple(s1))


def path_graph(n_edges: int) -> RibbonGraph:
    """The path with n_edges edges: univalent ends, 2-valent interior."""
    if n_edges < 1:
        raise ValueError("path needs at least one edge")
    n = 2 * n_edges
    s0 = list(range(n))
    s1 = list(range(n))
    for j in range(n_edges):
        s1[2 * j], s1[2 * j + 1] = 2 * j + 1, 2 * j  # edge j: darts 2j, 2j+1
    for v in range(1, n_edges):
        a, b = 2 * v - 1, 2 * v  # interior vertex v
        s0[a], s0[b] = b, a
    return RibbonGraph(tuple(s0), tuple(s1))


def _classes_of(graphs, parity):
    """Nonzero classes sorted by content hash, and the zero-class count,
    of pairwise non-isomorphic graphs, each read through ``class_of``."""
    classes = [class_of(g, parity) for g in graphs]
    nonzero = sorted((c for c in classes if not c.zero_flag), key=lambda c: c.content_hash())
    return nonzero, len(classes) - len(nonzero)


def test_path_and_polygon_shapes():
    for k in range(1, 7):
        p = path_graph(k)
        assert validate(p) is None
        assert (len(vertices(p)), len(boundaries(p)), genus(p)) == (k + 1, 1, 0)
        assert max(valences(p)) <= 2
        c = polygon_graph(k)
        assert validate(c) is None
        assert (len(vertices(c)), len(boundaries(c)), genus(c)) == (k, 2, 0)
        assert max(valences(c)) <= 2
    with pytest.raises(ValueError):
        path_graph(0)
    with pytest.raises(ValueError):
        polygon_graph(0)


def test_le2_against_generic_enumerator():
    # every low-valence cell, zero classes counted, against two oracles: the
    # path or polygon with E edges, and, up to E = 6, the full sector's
    # closure rounds filtered to valence at most two
    shapes = {(0, 1): path_graph, (0, 2): polygon_graph}
    for g in (0, 1):
        for n in (1, 2, 3):
            e0, first = _first_round(g, n)
            low = {
                e: [graph_of(key) for key in layer if max(valences(graph_of(key))) <= 2]
                for e, layer in islice(_cell_maps(e0, first, 1), 7 - e0)  # E = e0..6
            }
            for e in range(1, 11):
                shape = [shapes[g, n](e)] if (g, n) in shapes else []
                for parity in (EVEN, ODD):
                    direct = le2_classes(EnumSpec(g, n, e, 1, parity))
                    assert direct == _classes_of(shape, parity), (g, n, e, parity)
                    if e <= 6:
                        assert direct == _classes_of(low.get(e, []), parity), (g, n, e, parity)


def test_le2_survivor_pattern():
    # paths survive at E = 0, 1 mod 4; polygons at E = 1 mod 4
    for e in range(1, 11):
        n1, _ = le2_classes(EnumSpec(0, 1, e, 1, EVEN))
        n2, _ = le2_classes(EnumSpec(0, 2, e, 1, EVEN))
        assert len(n1) == (1 if e % 4 in (0, 1) else 0)
        assert len(n2) == (1 if e % 4 == 1 else 0)


def test_le2_empty_off_sector():
    # at E = 2 the rounds of (1, 1) and (0, 3) are one four-valent vertex
    for g, n, e in ((1, 1, 2), (1, 1, 3), (0, 3, 2), (0, 3, 3)):
        assert le2_classes(EnumSpec(g, n, e, 1, EVEN)) == ([], 0)
