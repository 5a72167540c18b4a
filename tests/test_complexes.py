"""Complex assembly, cohomology tables, expected genus-1 dimensions."""
import pytest

from ribboncoh.cache import Cache
from ribboncoh.canonical import EVEN, ODD
from ribboncoh.diff import FormalSum, bridge, delta, project_ge3
from ribboncoh.linalg import DifferentialIdentityError
from ribboncoh.ribbon import boundaries
from ribboncoh.complexes import (
    ComplexSpec,
    assemble_differentials,
    build,
    calc1_expectation,
    calc1_offsets,
    cohomology,
    euler,
    modular_dims,
    render_table,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        ComplexSpec("kp", 0)  # missing boundary count
    with pytest.raises(ValueError):
        ComplexSpec("mw", 0, sector="le2")
    with pytest.raises(ValueError):
        ComplexSpec("xx", 0, boundaries=1)
    with pytest.raises(ValueError):
        ComplexSpec("kp", 0, boundaries=1, e_min=3, e_max=2)


def test_spec_properties():
    sp = ComplexSpec("mw", 1, d=3, sector="ge3", e_min=2, e_max=5)
    assert sp.parity == ODD
    assert sp.min_valence == 3
    assert sp.degree(4) == -6 + 4
    assert sp.cells(5) == [1, 2, 3, 4]
    kp = ComplexSpec("kp", 0, boundaries=2, e_max=6)
    assert kp.parity == EVEN
    assert kp.cells(4) == [2]
    assert "kp|g0" in kp.content_key()


def test_kp_11_table():
    # trivalent-plus (1,1) complex: single class at E = 3, h = 1 there
    sp = ComplexSpec("kp", 1, 0, "ge3", 2, 4, boundaries=1)
    sl = build(sp)
    rows = cohomology(sl)
    by_e = {r["edges"]: r for r in rows}
    assert by_e[2]["dim"] == 0 and by_e[2]["zero_classes"] == 1
    assert by_e[3] == {
        "degree": 3,
        "edges": 3,
        "dim": 1,
        "cells": {1: 1},
        "zero_classes": 0,
        "rank_in": 0,
        "rank_out": 0,
        "h": 1,
        "status": "certified",
    }
    assert by_e[4]["h"] == 0 and by_e[4]["status"] == "certified"
    assert euler(sl) == {"total": -1, "per_boundary": {1: -1}}


def test_le2_polygon_table():
    sp = ComplexSpec("kp", 0, 0, "le2", 1, 6, boundaries=2)
    rows = cohomology(build(sp))
    by_e = {r["edges"]: r for r in rows}
    for e in range(1, 6):
        assert by_e[e]["status"] == "certified"
        assert by_e[e]["h"] == (1 if e % 4 == 1 else 0)
    assert by_e[6]["status"] == "truncated"


def test_mw_small_build():
    sp = ComplexSpec("mw", 0, 0, "ge3", 1, 5)
    rows = cohomology(build(sp))
    by_e = {r["edges"]: r for r in rows}
    for e in range(1, 5):
        assert by_e[e]["status"] == "certified"
        assert by_e[e]["h"] == 0
    assert by_e[5]["dim"] == 34


def test_mw_operator_uses_the_corner_move():
    # the mw differential is delta + bridge: a vertex split keeps the
    # boundary count, so only the corner move puts a nonzero entry between
    # a class with n boundaries and one with n + 1
    for d in (0, 1):
        sl = build(ComplexSpec("mw", 0, d, "ge3", 1, 5))
        n_b = {cls: len(boundaries(cls.graph)) for b in sl.bases.values() for cls in b}
        assert any(
            n_b[sl.bases[e + 1][r]] == n_b[sl.bases[e][c]] + 1
            for e, m in sl.matrices.items()
            for r, c, _ in m.entries
        )


def test_assemble_differentials_detects_broken_operator():
    # drop one term of the corner operator: consecutive matrices no longer
    # compose to zero
    def broken(cls):
        full = bridge(cls)
        terms = sorted(full.terms(), key=lambda t: t[0].content_hash())
        return project_ge3(delta(cls) + FormalSum(terms[1:]))

    sl = build(ComplexSpec("mw", 0, 0, "ge3", 1, 5))
    with pytest.raises(DifferentialIdentityError):
        assemble_differentials(sl, broken)


def test_cache_round_trip(tmp_path):
    cache = Cache(str(tmp_path))
    sp = ComplexSpec("kp", 1, 0, "ge3", 2, 4, boundaries=1)
    rows_fresh = cohomology(build(sp, cache=cache))
    assert any(p.name.startswith("basis-") for p in tmp_path.iterdir())
    assert any(p.name.startswith("matrix-") for p in tmp_path.iterdir())
    rows_cached = cohomology(build(sp, cache=cache))
    assert rows_cached == rows_fresh


def test_modular_dims_frozen():
    assert modular_dims(4) == (0, 1)
    assert modular_dims(12) == (1, 1)
    assert modular_dims(16) == (1, 1)
    assert modular_dims(24) == (2, 1)
    assert modular_dims(26) == (1, 1)
    assert modular_dims(11) == (0, 0)
    assert modular_dims(2) == (0, 0)


def test_calc1_expectation_frozen():
    # d = 0: one class in degree 2; degree 2n-1 gets 2 dim S_{n+1} + Eis
    assert calc1_expectation(0, (1, 12)) == {
        1: 0, 2: 1, 3: 0, 4: 0, 5: 1, 6: 0, 7: 0, 8: 0,
        9: 1, 10: 0, 11: 0, 12: 0,
    }
    # weight 12 cusp form enters at n = 11, degree 21: 2*1 + 1 = 3
    assert calc1_expectation(0, (21, 21)) == {21: 3}
    assert calc1_expectation(1, (4, 4)) == {4: 1}


def test_calc1_offsets():
    rows = [
        {"degree": 3, "h": 1, "status": "certified"},
        {"degree": 4, "h": 0, "status": "certified"},
        {"degree": 6, "h": 1, "status": "certified"},
        {"degree": 7, "h": None, "status": "truncated"},
    ]
    assert calc1_offsets(rows, 0) == [1]
    assert calc1_offsets([], 0) == list(range(-8, 9))


def test_render_table():
    rows = cohomology(build(ComplexSpec("kp", 1, 0, "ge3", 2, 4, boundaries=1)))
    text = render_table(rows)
    assert "degree" in text and "certified" in text
    assert len(text.splitlines()) == 4
