"""Half-edge structure: validation, derived data, frozen sample invariants."""
import pytest
from hypothesis import given, strategies as st

from ribboncoh.ribbon import (
    InvalidGraph,
    DisconnectedGraph,
    RibbonGraph,
    boundaries,
    check_valid,
    edges,
    genus,
    is_connected,
    max_valence,
    min_valence,
    orbits,
    sigma2,
    to_dot,
    validate,
    vertices,
)

# (E, V, B, g) per named sample, brute-checked against the Euler formula
SAMPLE_SHAPES = {
    "LOOP": (1, 1, 2, 0),
    "BANANA": (2, 2, 2, 0),
    "DOUBLELOOP": (2, 1, 1, 1),
    "THETA0": (3, 2, 3, 0),
    "THETA1": (3, 2, 1, 1),
    "DUMBBELL": (3, 2, 3, 0),
    "TRIANGLE": (3, 3, 2, 0),
}


def test_sample_shapes(named_graphs):
    for name, g in named_graphs.items():
        e, v, b, gg = SAMPLE_SHAPES[name]
        assert g.n_edges == e
        assert len(vertices(g)) == v
        assert len(boundaries(g)) == b
        assert genus(g) == gg
        assert is_connected(g)


def test_validate_rejects_bad_data():
    assert validate(RibbonGraph((), ())) == "empty half-edge set"
    assert "odd" in validate(RibbonGraph((0, 1, 2), (1, 0, 2)))
    assert "lengths" in validate(RibbonGraph((1, 0), (1,)))
    assert "sigma0" in validate(RibbonGraph((0, 0), (1, 0)))
    assert "fixed point" in validate(RibbonGraph((1, 0), (0, 1)))
    # involution violated needs >= 4 darts with a 3-cycle inside sigma1
    bad = RibbonGraph((1, 0, 3, 2), (1, 2, 0, 3))
    assert validate(bad) is not None
    with pytest.raises(InvalidGraph):
        check_valid(bad)


def test_orbits_and_sigma2(loop):
    assert orbits((1, 2, 0, 4, 3)) == [(0, 1, 2), (3, 4)]
    # the loop: sigma0 = sigma1 = (0 1), so sigma2 is the identity
    assert sigma2(loop) == (0, 1)
    assert boundaries(loop) == [(0,), (1,)]


def test_loop_boundaries(loop):
    assert len(boundaries(loop)) == 2


def test_valence_helpers(dumbbell, triangle):
    assert min_valence(dumbbell) == 3
    assert max_valence(dumbbell) == 3
    assert min_valence(triangle) == 2


def test_corners_partition(theta1):
    # a corner is the half-edge it follows; the boundary walks partition them
    all_corners = sorted(h for b in boundaries(theta1) for h in b)
    assert all_corners == list(range(theta1.n_half_edges))


def test_genus_requires_connected():
    two_loops = RibbonGraph((0, 1, 2, 3), (1, 0, 3, 2))
    assert not is_connected(two_loops)
    with pytest.raises(DisconnectedGraph):
        genus(two_loops)


def test_json_round_trip(named_graphs):
    for g in named_graphs.values():
        assert RibbonGraph.from_json(g.to_json()) == g
    with pytest.raises(InvalidGraph):
        RibbonGraph.from_json({"h": 4, "sigma0": [1, 0], "sigma1": [1, 0]})


def test_to_dot(theta1):
    text = to_dot(theta1)
    assert text.startswith("graph ribbon {")
    assert "B=1" in text


@st.composite
def connected_graphs(draw):
    n_edges = draw(st.integers(min_value=1, max_value=4))
    n = 2 * n_edges
    s0 = tuple(draw(st.permutations(range(n))))
    s1 = tuple(h + 1 if h % 2 == 0 else h - 1 for h in range(n))
    g = RibbonGraph(s0, s1)
    if not is_connected(g):
        # rebuild as a single-vertex graph, always connected
        g = RibbonGraph(tuple(range(1, n)) + (0,), s1)
    return g


@given(connected_graphs())
def test_euler_formula_holds(g):
    assert validate(g) is None
    assert genus(g) >= 0
    assert sorted(h for e in edges(g) for h in e) == list(range(g.n_half_edges))
