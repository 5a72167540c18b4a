"""Enumeration: frozen census values, oracle agreement, low-valence sector."""
import pytest

from ribboncoh.canonical import EVEN, ODD
from ribboncoh.enumeration import (
    EnumSpec,
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
