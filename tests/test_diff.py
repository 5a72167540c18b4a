"""Differentials: structural shapes, sign identities, formal sums."""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ribboncoh.canonical import EVEN, ODD, class_of
from ribboncoh.diff import (
    _cuts,
    FormalSum,
    apply_linear,
    attach_edge,
    bridge,
    bridge_terms,
    delta,
    delta_terms,
    project_ge3,
)
from ribboncoh.enumeration import EnumSpec, enumerate_classes
from ribboncoh.ribbon import (
    boundaries,
    genus,
    is_connected,
    min_valence,
    validate,
    vertices,
)


def small_generators(parity):
    out = []
    for e in range(1, 4):
        for g in range(0, e // 2 + 1):
            for n in range(1, e + 2 - 2 * g):
                nonzero, _ = enumerate_classes(EnumSpec(g, n, e, 1, parity))
                out.extend(nonzero)
    return out


@pytest.fixture(scope="module", params=(EVEN, ODD), ids=("even", "odd"))
def generators(request):
    return small_generators(request.param)


def test_attach_edge_validation(theta1, dumbbell):
    with pytest.raises(ValueError):
        attach_edge(theta1, 0, 0)
    # DUMBBELL has three boundaries; corners 0 and 1 sit on different ones
    b_of = {h: i for i, b in enumerate(boundaries(dumbbell)) for h in b}
    c1 = 0
    c2 = next(h for h in range(dumbbell.n_half_edges) if b_of[h] != b_of[0])
    with pytest.raises(ValueError):
        attach_edge(dumbbell, c1, c2)


def test_attach_edge_shape(theta1):
    b = boundaries(theta1)[0]
    out = attach_edge(theta1, b[0], b[1])
    assert validate(out) is None
    assert out.n_edges == theta1.n_edges + 1
    assert len(boundaries(out)) == 2
    assert genus(out) == genus(theta1)


def test_delta_terms_shape(generators):
    for cls in generators:
        g = cls.graph
        for out, _ in delta_terms(g):
            assert validate(out) is None and is_connected(out)
            assert out.n_edges == g.n_edges + 1
            assert len(vertices(out)) == len(vertices(g)) + 1
            assert len(boundaries(out)) == len(boundaries(g))
            assert genus(out) == genus(g)


def test_bridge_terms_shape(generators):
    for cls in generators:
        g = cls.graph
        for out, _ in bridge_terms(g):
            assert validate(out) is None and is_connected(out)
            assert out.n_edges == g.n_edges + 1
            assert len(vertices(out)) == len(vertices(g))
            assert len(boundaries(out)) == len(boundaries(g)) + 1
            assert genus(out) == genus(g)


def test_identities(generators):
    for cls in generators:
        assert apply_linear(delta, delta(cls)).is_zero()
        assert apply_linear(bridge, bridge(cls)).is_zero()
        anti = apply_linear(delta, bridge(cls)) + apply_linear(bridge, delta(cls))
        assert anti.is_zero()


def test_identities_odd_parity_regression():
    # the odd-parity vertex-splitting terms carry a (-1)^B factor; without
    # it the two differentials commute instead of anticommuting.  This
    # generator (g=0, n=1, E=3) has odd B and nonzero cross terms.
    from ribboncoh.ribbon import RibbonGraph

    g = RibbonGraph((0, 2, 3, 1, 4, 5), (1, 0, 4, 5, 2, 3))
    assert len(boundaries(g)) % 2 == 1
    cls = class_of(g, ODD)
    bd = apply_linear(bridge, delta(cls))
    db = apply_linear(delta, bridge(cls))
    assert not bd.is_zero()
    assert (bd + db).is_zero()


def test_delta_on_loop():
    # splitting the 2-valent loop vertex with nonempty arcs gives the
    # banana graph, which is zero by symmetry: delta(loop) = 0
    from ribboncoh.samples import LOOP

    cls = class_of(LOOP, EVEN)
    assert delta(cls).is_zero()
    assert len(list(delta_terms(LOOP))) == 1
    # with empty arcs allowed (the enumerator's valence floor 1) the
    # 2-cycle has two more cuts, one per rotation
    (cyc,) = vertices(LOOP)
    assert list(_cuts(cyc, 0)) == [((), cyc), ((cyc[0],), (cyc[1],)), ((), (cyc[1], cyc[0]))]


def test_project_ge3(generators):
    for cls in generators:
        s = delta(cls)
        p = project_ge3(s)
        for ocls, coeff in p.terms():
            assert min_valence(ocls.graph) >= 3
            assert coeff == s.coeff(ocls)


def test_ge3_floor_at_the_cut_matches_projection():
    # every ge3 generator with g <= 2, E <= 5, both parities: cutting only
    # arcs of at least two darts gives, term by term, what projecting the
    # full image onto ge3 gives; and the bivalent terms cancel, so ge3 is a
    # subcomplex and the full image equals both
    count = 0
    for parity in (EVEN, ODD):
        for e in range(1, 6):
            for g in range(0, 3):
                for n in range(1, e + 2 - 2 * g):
                    nonzero, _ = enumerate_classes(EnumSpec(g, n, e, 3, parity))
                    for cls in nonzero:
                        cut = delta(cls, min_arc=2)
                        full = delta(cls)
                        assert cut == project_ge3(full)
                        assert cut == full
                        count += 1
    assert count == 498


def test_mw_ge3_projection_squares_to_zero():
    # projected combined differential on trivalent-plus generators
    op = lambda c: project_ge3(delta(c) + bridge(c))
    for parity in (EVEN, ODD):
        for spec in (EnumSpec(1, 1, 3, 3, parity), EnumSpec(0, 4, 3, 3, parity)):
            nonzero, _ = enumerate_classes(spec)
            for cls in nonzero:
                assert apply_linear(op, op(cls)).is_zero()


def test_formal_sum_basic(theta1, theta0):
    cls = class_of(theta1, EVEN)
    s = FormalSum()
    s.add_term(cls, 1)
    s.add_term(cls, 1)
    assert s.coeff(cls) == 2
    s.add_term(cls, -2)
    assert s.is_zero()
    s.add_term(class_of(theta0, EVEN), 5)
    assert s.is_zero()  # zero classes are dropped


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(-6, 6)), max_size=8))
def test_formal_sum_algebra(pairs):
    alphabet, _ = enumerate_classes(EnumSpec(0, 2, 3, 1, EVEN))
    assert len(alphabet) >= 3
    s = FormalSum((alphabet[i % len(alphabet)], c) for i, c in pairs)
    t = FormalSum((alphabet[(i + 1) % len(alphabet)], c) for i, c in pairs)
    assert (s + t) - t == s
    assert (2 * s) - s == s
    assert (0 * s).is_zero()
    assert (s - s).is_zero()


def test_formal_sum_rejects_fraction(theta1):
    cls = class_of(theta1, EVEN)
    with pytest.raises(TypeError):
        FormalSum().add_term(cls, Fraction(1, 2))
    with pytest.raises(TypeError):
        Fraction(1, 2) * delta(cls)


def test_apply_linear_is_linear(theta1):
    cls = class_of(theta1, EVEN)
    s = delta(cls)
    doubled = apply_linear(bridge, 2 * s)
    assert doubled == 2 * apply_linear(bridge, s)
