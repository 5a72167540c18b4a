"""Differentials: structural shapes, sign identities, images."""
import pytest

from ribboncoh import ribbon
from ribboncoh.canonical import EVEN, ODD, class_of, to_oriented_class
from ribboncoh.checks import CheckBounds, iter_generators
from ribboncoh.diff import (
    _add_chord,
    _cuts,
    apply_linear,
    bridge,
    bridge_images,
    bridge_terms,
    delta,
    delta_images,
    delta_terms,
    project_ge3,
    summed,
)
from ribboncoh.enumeration import EnumSpec, enumerate_classes
from ribboncoh.ribbon import (
    RibbonGraph,
    boundaries,
    genus,
    is_connected,
    min_valence,
    sigma2,
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


def test_images_walk_each_parent_a_fixed_number_of_times(monkeypatch):
    # the builders list a parent's cycles once and build each term's word
    # from them: the images walk a fixed number of orbits per parent,
    # whatever its term count, but for at most one per odd split term
    graphs = [cls.graph for parity in (EVEN, ODD) for cls in small_generators(parity)]
    calls = [0]
    real = ribbon.orbits

    def counted(images):
        calls[0] += 1
        return real(images)

    def walks(images, g, parities):
        calls[0] = 0
        images(g, parities)
        return calls[0]

    monkeypatch.setattr(ribbon, "orbits", counted)
    fixed = {(delta_images, EVEN): set(), (bridge_images, EVEN): set(), (bridge_images, ODD): set()}
    term_counts = set()
    for g in graphs:
        for images, parity in fixed:
            fixed[images, parity].add(walks(images, g, (parity,)))
        n_splits = len(list(delta_terms(g)))
        term_counts.add((n_splits, len(list(bridge_terms(g)))))
        assert walks(delta_images, g, (ODD,)) <= walks(delta_images, g, (EVEN,)) + n_splits
    assert len(term_counts) > 5
    assert all(len(counts) == 1 for counts in fixed.values())


def test_attach_edge_shape(theta1):
    b = boundaries(theta1)[0]
    out = _add_chord(theta1, b[0], b[1])
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
        assert apply_linear(delta, delta(cls)) == {}
        assert apply_linear(bridge, bridge(cls)) == {}
        db, bd = apply_linear(delta, bridge(cls)), apply_linear(bridge, delta(cls))
        assert summed([*db.items(), *bd.items()]) == {}


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
    assert bd
    assert summed([*bd.items(), *db.items()]) == {}


def test_delta_on_loop():
    # splitting the 2-valent loop vertex with nonempty arcs gives the
    # banana graph, which is zero by symmetry: delta(loop) = 0
    from ribboncoh.samples import LOOP

    cls = class_of(LOOP, EVEN)
    assert delta(cls) == {}
    assert len(list(delta_terms(LOOP))) == 1
    # with empty arcs allowed (the enumerator's valence floor 1) the
    # 2-cycle has two more cuts, one per rotation
    (cyc,) = vertices(LOOP)
    assert list(_cuts(cyc, 0)) == [((), cyc), ((cyc[0],), (cyc[1],)), ((), (cyc[1], cyc[0]))]


def test_project_ge3(generators):
    for cls in generators:
        s = delta(cls)
        p = project_ge3(s)
        for ocls, coeff in p.items():
            assert min_valence(ocls.graph) >= 3
            assert coeff == s[ocls]


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
    op = lambda c: project_ge3(summed([*delta(c).items(), *bridge(c).items()]))
    for parity in (EVEN, ODD):
        for spec in (EnumSpec(1, 1, 3, 3, parity), EnumSpec(0, 4, 3, 3, parity)):
            nonzero, _ = enumerate_classes(spec)
            for cls in nonzero:
                assert apply_linear(op, op(cls)) == {}


def test_apply_linear_is_linear():
    n_images = 0
    for cls in small_generators(EVEN):
        s = delta(cls)
        doubled = apply_linear(bridge, {c: 2 * v for c, v in s.items()})
        assert doubled == {c: 2 * v for c, v in apply_linear(bridge, s).items()}
        n_images += bool(doubled)
    assert n_images > 5


def _dual(g):
    """The dual ribbon graph (sigma2, sigma1): g's boundary walks are its
    vertices and g's vertices its boundary walks."""
    return RibbonGraph(sigma2(g), g.sigma1)


def test_corner_move_is_the_duals_vertex_split_in_even_parity():
    # a chord between two corners of one boundary of g is a cut of the
    # dual's vertex for that boundary into two nonempty arcs: in even
    # parity the corner image of g is the split image of its dual pushed
    # back through the dual, term for term, on every generator of check's
    # default scope (the odd half needs a sign per parent)
    gens = dict.fromkeys(x for _, x in iter_generators(CheckBounds(parities=(EVEN,))))
    assert len(gens) == 330
    nonzero = 0
    for x in gens:
        g, dual = x.graph, _dual(x.graph)
        assert len(list(bridge_terms(g))) == len(list(delta_terms(dual, 1)))
        pushed = summed(
            (cls, c * sign)
            for split, c in delta_images(dual, (EVEN,), 1)[EVEN].items()
            for cls, sign in [to_oriented_class(_dual(split.graph), EVEN)]
        )
        assert bridge_images(g, (EVEN,))[EVEN] == pushed
        nonzero += bool(pushed)
    assert nonzero == 318
