"""Enumeration: frozen census values, oracle agreement, closed-form
counts, low-valence sector."""
from fractions import Fraction
from math import factorial

import pytest

from ribboncoh.canonical import EVEN, ODD
from ribboncoh.enumeration import (
    EnumSpec,
    _cell_maps,
    basis_table,
    enumerate_bruteforce,
    enumerate_cell,
    enumerate_classes,
    le2_classes,
    path_graph,
    polygon_graph,
)
from ribboncoh.ribbon import (
    boundaries,
    genus,
    max_valence,
    min_valence,
    validate,
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
                for maps in _cell_maps(g, n, e, 1).values():
                    rooted += Fraction(2 * e, len(maps))
            assert rooted == q[g, e], (g, e)


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
            for maps in _cell_maps(g, n, e, 3).values():
                total += Fraction((-1) ** spec.n_vertices, len(maps))
        assert total == _orbifold_euler(g, n) / factorial(n), (g, n)


def test_path_and_polygon_shapes():
    for k in range(1, 7):
        p = path_graph(k)
        assert validate(p) is None
        assert (len(vertices(p)), len(boundaries(p)), genus(p)) == (k + 1, 1, 0)
        assert max_valence(p) <= 2
        c = polygon_graph(k)
        assert validate(c) is None
        assert (len(vertices(c)), len(boundaries(c)), genus(c)) == (k, 2, 0)
        assert max_valence(c) <= 2
    with pytest.raises(ValueError):
        path_graph(0)
    with pytest.raises(ValueError):
        polygon_graph(0)


def test_le2_against_generic_enumerator():
    # filter the full enumeration down to max valence <= 2 and compare
    for e in range(1, 5):
        for n in (1, 2, 3):
            spec = EnumSpec(0, n, e, 1, EVEN)
            direct = le2_classes(spec)
            nonzero, _ = enumerate_classes(spec)
            filtered = [c for c in nonzero if max_valence(c.graph) <= 2]
            assert [c.content_hash() for c in direct[0]] == [
                c.content_hash() for c in filtered
            ]


def test_le2_survivor_pattern():
    # paths survive at E = 0, 1 mod 4; polygons at E = 1 mod 4
    for e in range(1, 11):
        n1, _ = le2_classes(EnumSpec(0, 1, e, 1, EVEN))
        n2, _ = le2_classes(EnumSpec(0, 2, e, 1, EVEN))
        assert len(n1) == (1 if e % 4 in (0, 1) else 0)
        assert len(n2) == (1 if e % 4 == 1 else 0)


def test_le2_empty_off_sector():
    assert le2_classes(EnumSpec(1, 1, 3, 1, EVEN)) == ([], 0)
    assert le2_classes(EnumSpec(0, 3, 3, 1, EVEN)) == ([], 0)
