"""Complex assembly, cohomology tables, expected genus-1 dimensions."""
from itertools import islice
import runpy
import sys
import tracemalloc
from pathlib import Path

import pytest

from ribboncoh import canonical, cli, complexes, diff, enumeration, linalg
from ribboncoh.cache import Cache
from ribboncoh.canonical import EVEN, ODD, word_sign
from ribboncoh.diff import bridge, delta, summed
from ribboncoh.enumeration import _first_rounds
from ribboncoh.gc2 import GCSpec
from ribboncoh.linalg import DifferentialIdentityError, SparseIntMatrix, assemble
from ribboncoh.ribbon import boundaries
from ribboncoh.complexes import (
    ComplexSpec,
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
    for n in (1, 7):  # mw sums over every boundary count
        with pytest.raises(ValueError, match="mw complexes .* take none"):
            ComplexSpec("mw", 0, sector="ge3", boundaries=n)


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


@pytest.mark.parametrize(
    "spec",
    [
        ComplexSpec("kp", 1, 0, "le2", 1, 4, boundaries=1),
        ComplexSpec("kp", 0, 0, "le2", 1, 4, boundaries=3),
        ComplexSpec("kp", 4, 0, "le2", 1, 6, boundaries=1),
        ComplexSpec("kp", 3, 0, "full", 1, 4, boundaries=2),
    ],
    ids=ComplexSpec.content_key,
)
def test_chain_that_counting_rules_out_grows_no_round(spec, monkeypatch):
    # le2 off its cells (whose chains start at one vertex of valence >= 4)
    # and an E range below the first round: every cell is empty, and no
    # one-vertex round up to the genus is grown for them
    def no_chords(*args):
        raise AssertionError("grew a first round")

    monkeypatch.setattr(enumeration, "_chord_round", no_chords)
    assert all(cell == ([], 0) for cell in build(spec).cells.values())


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


@pytest.mark.acceptance
def test_walk_holds_no_tuple_per_entry():
    # the mw-g1 benchmark table's walk: its blocks go into the matrices'
    # arrays one row at a time and are cleared once read (9.2 MB when it
    # kept a (row, col, coeff) tuple per entry)
    tracemalloc.start()
    try:
        cells, matrices = complexes._walk(ComplexSpec("mw", 1, 0, "ge3", 2, 7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(m.nnz for m in matrices.values()) > 20_000
    assert peak < 5.5 * 2**20, peak


@pytest.mark.acceptance
def test_warm_walk_from_the_cache_peaks_below_the_cold_walk(tmp_path):
    # the mw-g1 benchmark table built cold into a cache, then again from
    # it: a warm build reads each basis class and each matrix entry as it
    # is decoded, so it holds little more than what it returns (loading
    # every entry whole, it peaked at 8.0 MB against 6.8 MB cold)
    spec, cache = ComplexSpec("mw", 1, 0, "ge3", 2, 7), Cache(str(tmp_path))
    peaks = []
    for _ in range(2):
        tracemalloc.start()
        try:
            sl = build(spec, cache)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert [len(sl.bases[e]) for e in (6, 7)] == [946, 7407]
    cold, warm = peaks
    assert warm < cold, peaks


def test_unplaced_target_shows_its_pair():
    # a ribbon key is one bytes object, but the error still shows the
    # class as its (sigma0, sigma1) pair, and a gc2 key as its edge tuple
    with pytest.raises(linalg.AssemblyError) as err:
        complexes._place({bytes((1, 0, 1, 0)): {0: 1}}, {})
    assert str(err.value) == "image class ((1, 0), (1, 0)) not in codomain basis"
    with pytest.raises(linalg.AssemblyError) as err:
        complexes._place({((0, 1), (0, 1)): {0: 1}}, {})
    assert str(err.value) == "image class ((0, 1), (0, 1)) not in codomain basis"


def test_build_detects_broken_operator(monkeypatch):
    # drop one raw term of the corner move per source class, where complexes
    # reads it (the vertex split comes from the chain): consecutive matrices
    # no longer compose to zero
    def broken(g, odd=False):
        return list(diff.bridge_terms(g, odd))[1:]

    monkeypatch.setattr(complexes, "bridge_terms", broken)
    with pytest.raises(DifferentialIdentityError):
        build(ComplexSpec("mw", 0, 0, "ge3", 1, 5))


@pytest.mark.parametrize(
    "spec",
    [
        ComplexSpec("kp", 1, 1, "ge3", 2, 5, boundaries=2),
        ComplexSpec("kp", 0, 0, "full", 2, 5, boundaries=3),
        ComplexSpec("mw", 0, 0, "ge3", 1, 5),
        ComplexSpec("mw", 1, 1, "full", 2, 4),
        ComplexSpec("kp", 0, 1, "le2", 1, 8, boundaries=1),
        ComplexSpec("kp", 0, 0, "le2", 1, 8, boundaries=1),
        pytest.param(GCSpec(2, 0, 2, 8, 2), id="gc2|L2|d0|floor2|E2..8"),
    ],
    ids=ComplexSpec.content_key,
)
def test_ribbon_build_calls_neither_assemble_nor_formal_sums(spec):
    # every ribbon block is summed from raw terms in complexes, and every
    # gc2 block off its split rounds; assemble serves the oracles only
    banned = {linalg.assemble.__code__}
    met = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in banned:
            met.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        sl = build(spec)
    finally:
        sys.setprofile(None)
    assert met == []
    assert any(m.nnz for m in sl.matrices.values())


def test_lower_layer_with_zero_classes_only_is_empty():
    # kp (1,1) ge3 at E=2 holds one zero class and no nonzero class, so a
    # table starting at E=3 certifies its first row
    rows = cohomology(build(ComplexSpec("kp", 1, 0, "ge3", 3, 4, boundaries=1)))
    assert rows[0]["edges"] == 3 and rows[0]["status"] == "certified"
    assert rows[0]["rank_in"] == 0 and rows[0]["h"] == 1


def test_lower_layer_with_nonzero_classes_truncates_the_first_row():
    # mw g1 ge3 at E=3 holds nonzero classes, so the rank into E=4 is not
    # known from E 4..5 alone: the first row is truncated, not certified
    # with h = 2 (the E 2..5 table has h = 0 at E=4)
    rows = cohomology(build(ComplexSpec("mw", 1, 0, "ge3", 4, 5)))
    assert rows[0]["edges"] == 4 and rows[0]["status"] == "truncated"
    assert rows[0]["rank_in"] is None and rows[0]["h"] is None


def test_cache_round_trip(tmp_path):
    cache = Cache(str(tmp_path))
    sp = ComplexSpec("kp", 1, 0, "ge3", 2, 4, boundaries=1)
    rows_fresh = cohomology(build(sp, cache=cache))
    assert any(p.name.startswith("basis-") for p in tmp_path.iterdir())
    assert any(p.name.startswith("matrix-") for p in tmp_path.iterdir())
    rows_cached = cohomology(build(sp, cache=cache))
    assert rows_cached == rows_fresh


def test_cached_block_of_the_wrong_shape_is_reassembled(tmp_path):
    # blocks are shared by every E range, so the shape check against the
    # bases is what stops a wrong block from entering a table
    cache = Cache(str(tmp_path))
    sp = ComplexSpec("mw", 0, 0, "ge3", 1, 5)
    wrong = SparseIntMatrix(1, 1, ((0, 0, 1),))
    for e in range(1, 5):
        cache.store_matrix(sp, e, wrong)
    fresh = build(sp)
    assert cohomology(build(sp, cache=cache)) == cohomology(fresh)
    for e in range(1, 5):  # stored again, with the right shape
        assert cache.load_matrix(sp, e) == fresh.matrices[e], e


ORACLE_SPECS = [
    ComplexSpec(kind, g, d, sector, e_min, e_max, boundaries=n)
    for d in (0, 1)
    for kind, g, n, sector, e_min, e_max in (
        ("kp", 0, 2, "full", 1, 5),
        ("kp", 0, 1, "full", 4, 6),
        ("kp", 0, 3, "full", 3, 5),
        ("kp", 1, 1, "full", 1, 4),
        ("kp", 0, 4, "ge3", 3, 6),
        ("kp", 1, 2, "ge3", 2, 5),
        ("kp", 0, 1, "le2", 1, 8),
        ("mw", 0, None, "full", 1, 5),
        ("mw", 1, None, "full", 3, 5),
        ("mw", 0, None, "ge3", 2, 6),
        ("mw", 1, None, "ge3", 2, 5),
    )
]


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=ComplexSpec.content_key)
def test_chain_blocks_match_the_delta_oracle(spec):
    # every block read off the chain's split rounds equals the matrix that
    # delta (plus bridge for mw) assembles on the same bases; in the full
    # and le2 sectors the chain cuts empty arcs, which delta leaves out
    def op(cls):
        image = delta(cls, max(spec.min_valence - 1, 1))
        return summed([*image.items(), *bridge(cls).items()]) if spec.kind == "mw" else image

    sl = build(spec)
    assert sorted(sl.matrices) == list(range(spec.e_min, spec.e_max))
    for e, m in sl.matrices.items():
        assert m == assemble(sl.bases[e], sl.bases[e + 1], op), e
    assert any(m.nnz for m in sl.matrices.values())


@pytest.mark.parametrize(
    "spec",
    [
        ComplexSpec("mw", 0, 0, "ge3", 1, 7),
        ComplexSpec("mw", 1, 0, "ge3", 2, 7),
        ComplexSpec("kp", 1, 0, "ge3", 2, 7, boundaries=1),
    ],
    ids=ComplexSpec.content_key,
)
def test_tables_take_no_exact_rank(spec, monkeypatch):
    # every rank of the fixed mw and kp tables is proved by one modular
    # elimination at the first lift prime: no exact rank and no retry, and
    # a rank that no proof reaches stops the table
    def no_rank(m):
        raise AssertionError("exact rank on the build path")

    real = linalg._proved_rank

    def no_retry(m, p):
        assert p != linalg.RETRY_PRIME, "a retried proof on the build path"
        return real(m, p)

    monkeypatch.setattr(linalg, "rank", no_rank)
    monkeypatch.setattr(linalg, "_proved_rank", no_retry)
    sl = build(spec)
    cohomology(sl)
    monkeypatch.setattr(linalg, "_proved_rank", lambda m, p: None)
    with pytest.raises(linalg.RankProofError):
        cohomology(sl)


def test_mw_chains_hand_on_their_first_rounds(monkeypatch):
    # each mw chain starts from its one-vertex cell, in increasing boundary
    # count: the cell that the boundary-count path grows alone
    firsts = []
    real = complexes._cell_maps

    def recorded(e, first, *args):
        firsts.append((e, first))
        return real(e, first, *args)

    monkeypatch.setattr(complexes, "_cell_maps", recorded)
    expected = []
    for d in (0, 1):
        for spec, top in ((ComplexSpec("mw", 1, d, "ge3", 2, 6), 5), (ComplexSpec("mw", 0, d, "full", 1, 5), 6)):
            build(spec)
            expected += [(spec.genus, n, e0, layer) for n, e0, layer, _ in islice(_first_rounds(spec.genus), top)]
    assert len(firsts) == len(expected) == 2 * (5 + 6)
    for (e, first), (genus, n, e0, layer) in zip(firsts, expected):
        assert e == e0 and first.keys() == layer.keys(), (genus, n)


@pytest.mark.parametrize(
    "spec, passes, chord_rounds",
    [
        (ComplexSpec("mw", 1, 0, "ge3", 2, 6), 5793, 5),
        (ComplexSpec("mw", 0, 1, "full", 1, 5), 2046, 4),
        (ComplexSpec("kp", 1, 0, "ge3", 2, 6, boundaries=3), 1140, 3),
    ],
    ids=["mw-g1-ge3", "mw-g0-full-odd", "kp-g1-n3"],
)
def test_builds_grow_each_first_round_once(spec, passes, chord_rounds, monkeypatch):
    # pinned: a regrown first round, or a corner term into a first round
    # canonicalized twice, raises a count
    counts = {"passes": 0, "chord_rounds": 0}

    def counted(name, real):
        def wrapper(*args):
            counts[name] += 1
            return real(*args)
        return wrapper

    data = counted("passes", canonical._canonical_data)
    for module in (enumeration, complexes, diff):
        monkeypatch.setattr(module, "_canonical_data", data)
    monkeypatch.setattr(enumeration, "_chord_round", counted("chord_rounds", enumeration._chord_round))
    build(spec)
    assert counts == {"passes": passes, "chord_rounds": chord_rounds}


def test_corner_terms_out_of_chord_order_get_their_own_pass(monkeypatch):
    # a first round's chords are recorded per source in bridge_terms's
    # order, and a term is given a recorded entry only when that entry's
    # relabeling takes the term onto its key: with each source's terms
    # reversed, the entries no longer line up, every term that misses its
    # entry gets its own pass, and the matrices are those of the real order
    spec = ComplexSpec("mw", 0, 1, "full", 1, 5)
    passes, data = [0], canonical._canonical_data

    def counted(*args):
        passes[0] += 1
        return data(*args)

    monkeypatch.setattr(complexes, "_canonical_data", counted)
    real = build(spec).matrices
    in_order, passes[0] = passes[0], 0
    monkeypatch.setattr(complexes, "bridge_terms", lambda g, odd=False: reversed(list(diff.bridge_terms(g, odd))))
    assert build(spec).matrices == real
    assert (in_order, passes[0]) == (649, 657)


def _cache_files(path, kind):
    return sorted(p for p in path.iterdir() if p.name.startswith(kind + "-"))


def test_build_whose_entries_all_hit_runs_no_chain(tmp_path, monkeypatch):
    spec = ComplexSpec("mw", 1, 1, "ge3", 3, 5)
    cache = Cache(str(tmp_path))
    cold = build(spec, cache=cache)

    def no_rounds(*args):
        raise AssertionError("walked a chain on a warm cache")

    monkeypatch.setattr(complexes, "_cell_maps", no_rounds)
    warm = build(spec, cache=cache)
    assert warm.bases == cold.bases and warm.matrices == cold.matrices
    assert cohomology(warm) == cohomology(cold)


def test_sub_range_of_a_cached_range_runs_no_chain(tmp_path, monkeypatch):
    # an entry serves every E range inside the range that wrote it
    cache = Cache(str(tmp_path))
    build(ComplexSpec("mw", 0, 0, "ge3", 1, 6), cache=cache)
    sub = ComplexSpec("mw", 0, 0, "ge3", 2, 5)
    fresh = build(sub)

    def no_rounds(*args):
        raise AssertionError("walked a chain for a cached sub-range")

    monkeypatch.setattr(complexes, "_cell_maps", no_rounds)
    warm = build(sub, cache=cache)
    assert warm.bases == fresh.bases and warm.matrices == fresh.matrices


def test_even_table_lists_no_odd_items(monkeypatch):
    # the words of the chain's split terms and of the corner terms list odd
    # items only for an odd table
    def even_sign(word, parity, maps):
        assert not word[0], "odd items listed"
        return word_sign(word, parity, maps)

    monkeypatch.setattr(complexes, "word_sign", even_sign)
    sl = build(ComplexSpec("mw", 1, 0, "ge3", 2, 5))
    assert any(m.nnz for m in sl.matrices.values())


def test_one_missing_basis_entry_rebuilds_every_entry(tmp_path, capsys):
    # export stores bases and blocks but no table, so each cohomology run
    # below goes through build; with any one basis entry gone, the chains
    # run again and the table equals a run without a cache
    d = str(tmp_path)
    spec = ["-g", "0", "--kind", "mw", "--sector", "ge3", "-E", "2..5"]
    assert cli.main(["cohomology", *spec, "--emit", "json", "--no-cache"]) == 0
    expected = capsys.readouterr().out
    assert cli.main(["export", "--what", "matrix", *spec, "--cache-dir", d]) == 0
    capsys.readouterr()
    entries = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    bases = _cache_files(tmp_path, "basis")
    assert len(bases) > 1
    for path in bases:
        path.unlink()
        assert cli.main(["cohomology", *spec, "--emit", "json", "--cache-dir", d]) == 0
        assert capsys.readouterr().out == expected
        assert path.read_bytes() == entries[path.name]  # stored again
        for table in _cache_files(tmp_path, "table"):
            table.unlink()


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
    # d moves every degree by -2d, as ComplexSpec.degree does at genus 1
    assert calc1_expectation(1, (0, 7)) == {0: 1, 1: 0, 2: 0, 3: 1, 4: 0, 5: 0, 6: 0, 7: 1}
    for d in (-3, -1, 2):
        shifted = calc1_expectation(d, (1 - 2 * d, 21 - 2 * d))
        assert shifted == {k - 2 * d: v for k, v in calc1_expectation(0, (1, 21)).items()}


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


def test_cohomology_tables_script_rejects_bad_bounds(monkeypatch, capsys):
    script = Path(__file__).resolve().parents[1] / "scripts" / "cohomology_tables.py"
    main = runpy.run_path(str(script))["main"]
    for argv in (["--e-max", "0"], ["--e-max-g1", "1"]):
        monkeypatch.setattr(sys, "argv", ["cohomology_tables.py", *argv])
        assert main() == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("invalid spec: need genus >= 0 and 1 <= e_min <= e_max")


def test_cohomology_tables_script_rejects_a_file_as_cache_dir(monkeypatch, capsys, tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "cohomology_tables.py"
    main = runpy.run_path(str(script))["main"]
    a_file = tmp_path / "file"
    a_file.write_text("")
    monkeypatch.setattr(sys, "argv", ["cohomology_tables.py", "--cache-dir", str(a_file)])
    assert main() == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "cannot use cache directory %s: File exists\n" % a_file
