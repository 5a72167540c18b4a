"""Verification suites: clean passes at small bounds, fault injection."""
from collections import Counter
import hashlib
import json
import weakref

import pytest

from ribboncoh import canonical, checks, complexes, diff, enumeration, linalg
from ribboncoh.canonical import EVEN, ODD
from ribboncoh.checks import (
    RANK_SUITE_TRIALS,
    CheckBounds,
    identity_suite,
    iter_generators,
    oracle_suite,
    rank_suite,
    run_check,
    structural_suite,
)
from ribboncoh.diff import bridge_images, delta_images
from ribboncoh.enumeration import LE2_CELLS, EnumSpec, enumerate_classes, le2_classes
from ribboncoh.ribbon import RibbonGraph, boundaries, genus

SMALL_EDGES = dict(g_max=1, e_max_full=3, e_max_ge3=3, e_max_le2=5, e_max_oracle=3)
SMALL = CheckBounds(**SMALL_EDGES)


def test_bounds_serialization():
    assert SMALL.to_json()["e_max_full"] == 3
    assert tuple(SMALL.to_json()["parities"]) == (EVEN, ODD)


@pytest.mark.parametrize("parities", [(2,), (), (EVEN, EVEN), [EVEN, ODD]])
def test_bounds_reject_bad_parities(parities):
    # parity 2 would read words without odd items as odd ones and fail
    # the identity suite falsely, () would pass it with no generator,
    # and a repeated parity would check every generator twice
    with pytest.raises(ValueError, match="parities"):
        CheckBounds(**SMALL_EDGES, parities=parities)


def test_bounds_accept_each_parity_scope():
    for parities in ((EVEN,), (ODD,), (EVEN, ODD), (ODD, EVEN)):
        assert CheckBounds(**SMALL_EDGES, parities=parities).parities == parities


def test_generators_in_scope():
    gens = list(iter_generators(SMALL))
    assert gens
    for spec, cls in gens:
        assert spec.edges <= 5
        assert not cls.zero_flag


def _per_spec_generators(bounds):
    """Oracle: (spec, class) from one single-cell read per spec, every spec
    inside the bounds listed by hand, sector by sector."""
    specs = []
    for parity in bounds.parities:
        for e in range(1, bounds.e_max_full + 1):
            for g in range(0, min(bounds.g_max, e // 2) + 1):
                for n in range(1, e + 2 - 2 * g):
                    specs.append((EnumSpec(g, n, e, 1, parity), enumerate_classes))
        for e in range(1, bounds.e_max_ge3 + 1):
            for g in range(0, min(bounds.g_max, e // 2) + 1):
                for n in range(1, e + 2 - 2 * g):
                    specs.append((EnumSpec(g, n, e, 3, parity), enumerate_classes))
        for e in range(bounds.e_max_full + 1, bounds.e_max_le2 + 1):
            for g, n in LE2_CELLS:
                specs.append((EnumSpec(g, n, e, 1, parity), le2_classes))
    return [(spec, cls) for spec, read in specs for cls in read(spec)[0]]


@pytest.mark.parametrize(
    "bounds, generators",
    [(SMALL, 44), (CheckBounds(e_max_ge3=4, e_max_oracle=3), 262)],
    ids=["small", "check-workload"],
)
def test_generators_match_per_spec_reads(bounds, generators):
    # the walk yields the same (spec, class) multiset as one read per spec,
    # in another order
    def hashed(gens):
        return Counter((spec, cls.content_hash()) for spec, cls in gens)

    walked = hashed(iter_generators(bounds))
    assert walked == hashed(_per_spec_generators(bounds))
    assert sum(walked.values()) == generators


@pytest.mark.parametrize(
    "suite, walks, chord_rounds",
    [
        (lambda: list(iter_generators(SMALL)), 5, 8),
        (lambda: oracle_suite(SMALL), 6, 12),
        (lambda: run_check(CheckBounds(e_max_ge3=4, e_max_oracle=3)), 13, 34),
    ],
    ids=["generators", "oracle", "check-workload"],
)
def test_sweeps_walk_each_chain_once(suite, walks, chord_rounds, monkeypatch):
    # pinned: one first-round walk per (sector, genus) of the generators,
    # serving every parity and both generator suites, and per (floor,
    # genus) of the oracle; walking once per parity or per suite, or
    # regrowing a chain per cell, raises both counts
    counts = {"walks": 0, "chord_rounds": 0}

    def counted(name, real):
        def wrapper(*args):
            counts[name] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(enumeration, "_first_rounds", counted("walks", enumeration._first_rounds))
    monkeypatch.setattr(enumeration, "_chord_round", counted("chord_rounds", enumeration._chord_round))
    suite()
    assert counts == {"walks": walks, "chord_rounds": chord_rounds}


def test_identity_suite_passes():
    report = identity_suite(SMALL, list(iter_generators(SMALL)))
    assert report["passed"]
    assert report["generators"] > 0
    assert report["violations"] == []


def test_structural_suite_passes():
    assert structural_suite(SMALL, list(iter_generators(SMALL)))["passed"]


def test_oracle_suite_passes():
    assert oracle_suite(SMALL)["passed"]


def test_rank_suite_passes():
    assert rank_suite()["passed"]


def _dropping_one_term(real, offset):
    """real, the images function of D = delta + the corner operator, with
    the term of least content hash among those of the one operator dropped
    from every image in every parity: the split's terms keep the parent's
    boundary count (offset 0), the corner join's add one (offset 1)."""

    def broken(g, parities):
        b0 = len(boundaries(g))
        out = {}
        for parity, full in real(g, parities).items():
            part = [c for c in full if len(boundaries(c.graph)) - b0 == offset]
            drop = min(part, key=lambda c: c.content_hash(), default=None)
            out[parity] = {c: v for c, v in full.items() if c != drop}
        return out

    return broken


@pytest.mark.parametrize(
    "offset, violations, suites",
    [
        (1, 46, {"anticommutator", "bridge_squared"}),
        (0, 42, {"anticommutator", "delta_squared"}),
    ],
    ids=["corner", "split"],
)
def test_fault_injection_is_detected(monkeypatch, offset, violations, suites):
    # corrupt the corner or the split operator by dropping one term in every
    # parity; the identity suite must fail and name a generator.  The counts
    # and parts are pinned, so a split of D^2(x) that moves a violation from
    # one part to another fails here
    monkeypatch.setattr(checks, "d_images", _dropping_one_term(checks.d_images, offset))
    report = identity_suite(SMALL, list(iter_generators(SMALL)))
    assert not report["passed"]
    assert len(report["violations"]) == violations
    assert {v["suite"] for v in report["violations"]} == suites
    v = report["violations"][0]
    assert "generator" in v and "spec" in v


def test_identity_suite_fails_at_every_offset(monkeypatch):
    # plant one class with one boundary in every D^2(x): its boundary count
    # minus x's is 0 on one-boundary generators (delta squared) and negative
    # on the others, outside the offsets 0 and 2 of the two squares, where
    # it is the anticommutator's; no nonzero D^2(x) passes
    gens = list(iter_generators(SMALL))
    counts = [len(boundaries(x.graph)) for _, x in gens]
    assert min(counts) == 1 and max(counts) >= 4
    planted = gens[counts.index(1)][1]
    real = checks.apply_linear
    monkeypatch.setattr(checks, "apply_linear", lambda op, s: {**real(op, s), planted: 1})
    report = identity_suite(SMALL, gens)
    assert [v["suite"] for v in report["violations"]] == [
        "delta_squared" if b == 1 else "anticommutator" for b in counts
    ]
    assert [v["generator"] for v in report["violations"]] == [x.content_hash() for _, x in gens]


def test_images_do_not_depend_on_parity_scope():
    # a class's image in one parity is the same whether the canonical pass
    # serves that parity alone or both at once
    for _, x in iter_generators(SMALL):
        for images in (delta_images, bridge_images):
            both = images(x.graph, (EVEN, ODD))
            for p in (EVEN, ODD):
                assert both[p] == images(x.graph, (p,))[p]


def test_images_have_nonzero_int_coefficients():
    # coefficients are plain ints, and cancelled terms leave the image
    n_terms = 0
    for _, x in iter_generators(SMALL):
        for images in (delta_images, bridge_images):
            for image in images(x.graph, (EVEN, ODD)).values():
                assert all(type(c) is int and c != 0 for c in image.values())
                n_terms += len(image)
    assert n_terms > 100


def test_memoized_images_hold_one_object_per_class(monkeypatch):
    # the identity suite memoizes one operator per genus, D = delta + the
    # corner operator, and equal classes in any of its images are one object
    ops, real = [], checks._memoized

    def recorded(images_of, parities):
        ops.append(real(images_of, parities))
        return ops[-1]

    monkeypatch.setattr(checks, "_memoized", recorded)
    gens = list(iter_generators(SMALL))
    identity_suite(SMALL, gens)
    assert len(ops) == SMALL.g_max + 1
    seen, offsets = {}, set()
    for spec, x in gens:
        op = ops[spec.genus]
        offsets |= {len(boundaries(c.graph)) - len(boundaries(x.graph)) for c in op(x)}
        for image in (op(x), *(op(c) for c in op(x))):
            assert all(seen.setdefault(c, c) is c for c in image)
    assert len(seen) > 100 and offsets == {0, 1}


def test_identity_memo_lives_for_one_genus(monkeypatch):
    # D keeps the genus, so the suite frees each genus's memo before it
    # fills the next one: at every image it computes, only one memo is alive
    refs, real, images = [], checks._memoized, checks.d_images

    def recorded(images_of, parities):
        op = real(images_of, parities)
        refs.append(weakref.ref(op))
        return op

    def d_images(g, parities):
        assert [r() is not None for r in refs] == [False] * (len(refs) - 1) + [True]
        genera.add((len(refs) - 1, genus(g)))
        return images(g, parities)

    genera = set()
    monkeypatch.setattr(checks, "_memoized", recorded)
    monkeypatch.setattr(checks, "d_images", d_images)
    assert identity_suite(SMALL, list(iter_generators(SMALL)))["passed"]
    assert genera == {(0, 0), (1, 1)}


def _no_odd_items(builder):
    """builder, failing on any word it yields that lists odd items."""

    def checked(*args):
        for term, word in builder(*args):
            assert not word[0], "odd items listed"
            yield term, word

    return checked


def test_structural_suite_lists_no_odd_items(monkeypatch):
    # the structural suite reads only the term graphs, so its builders never
    # list the odd items of a word, not even for odd generators
    monkeypatch.setattr(checks, "delta_terms", _no_odd_items(diff.delta_terms))
    monkeypatch.setattr(checks, "bridge_terms", _no_odd_items(diff.bridge_terms))
    for parities in ((EVEN,), (ODD,)):
        bounds = CheckBounds(**SMALL_EDGES, parities=parities)
        assert structural_suite(bounds, list(iter_generators(bounds)))["passed"]


def _identity_suite_counting(monkeypatch, parities):
    """identity_suite(SMALL) in the given parities, with the number of
    canonicalization passes it made and the parities it read signs in
    (the image path reads both in ``diff``).  Without ODD in parities, a
    word that lists odd items fails it."""
    calls, sign_parities = [0], set()
    real_data, real_sign = diff._canonical_data, diff.word_sign

    def counted_data(s0, s1):
        calls[0] += 1
        return real_data(s0, s1)

    def recorded_sign(word, parity, maps):
        sign_parities.add(parity)
        assert ODD in parities or not word[0], "odd items listed"
        return real_sign(word, parity, maps)

    bounds = CheckBounds(**SMALL_EDGES, parities=parities)
    gens = list(iter_generators(bounds))
    monkeypatch.setattr(diff, "_canonical_data", counted_data)
    monkeypatch.setattr(diff, "word_sign", recorded_sign)
    report = identity_suite(bounds, gens)
    monkeypatch.undo()
    assert report["passed"] and report["generators"] > 0
    return calls[0], sign_parities


def test_one_canonical_pass_serves_both_parities(monkeypatch):
    both, both_signs = _identity_suite_counting(monkeypatch, (EVEN, ODD))
    even, even_signs = _identity_suite_counting(monkeypatch, (EVEN,))
    odd, odd_signs = _identity_suite_counting(monkeypatch, (ODD,))
    assert both_signs == {EVEN, ODD}
    assert even_signs == {EVEN} and odd_signs == {ODD}
    assert even > 0 and odd > 0
    assert both <= 0.55 * (even + odd)
    assert both == 2240


def _counting_walks(monkeypatch):
    """Rebind canonical._traverse to record each walk's root; returns
    the list the roots go to and the real walk."""
    real = canonical._traverse
    roots = []

    def counted(s0, s1, root, best):
        roots.append(root)
        return real(s0, s1, root, best)

    monkeypatch.setattr(canonical, "_traverse", counted)
    return roots, real


def test_walks_per_pass_are_the_least_head_roots(monkeypatch):
    # the canonical pass walks once from each root whose head (the first
    # two t0 entries of its own walk) is least, in root order, and from no
    # other root
    walked, real = _counting_walks(monkeypatch)
    gens = list(iter_generators(SMALL))
    assert gens
    walks = darts = 0
    for _, cls in gens:
        s0, s1 = cls.sigma0, cls.sigma1
        heads = []
        for r in range(len(s0)):
            _, lab, order = real(s0, s1, r, None)
            heads.append((lab[s0[order[0]]], lab[s0[order[1]]]))
        walked.clear()
        canonical._canonical_data(s0, s1)
        assert walked == [r for r, head in enumerate(heads) if head == min(heads)]
        walks += len(walked)
        darts += len(s0)
    assert walks < darts


def test_small_mw_build_walk_count(monkeypatch):
    # pinned: the walks of one cold mw build (13,340 from every root; 3,949
    # when every mw chain grew its one-vertex cell from the loop again)
    walked, _ = _counting_walks(monkeypatch)
    complexes.build(complexes.ComplexSpec("mw", 0, 0, "ge3", 1, 6))
    assert len(walked) == 3491


def test_structural_fault_injection_is_detected(monkeypatch):
    # builders that emit a term whose sigma1 has a fixed point, and a valid
    # term of the wrong shape (the parent graph itself): the structural
    # suite must fail on both, name the generator and say what is wrong
    def broken_terms(g, *args):
        n = g.n_half_edges
        fixed = RibbonGraph(g.sigma0 + (n, n + 1), g.sigma1 + (n, n + 1))
        yield fixed, 1
        yield g, 1

    monkeypatch.setattr(checks, "delta_terms", broken_terms)
    monkeypatch.setattr(checks, "bridge_terms", broken_terms)
    report = structural_suite(SMALL, list(iter_generators(SMALL)))
    assert not report["passed"]
    violations = report["violations"]
    assert len(violations) == 4 * report["generators"]
    details = {v["detail"].split("=")[0] for v in violations}
    assert details == {"invalid term graph", "expected (E,V,B,g)"}
    assert {v["suite"] for v in violations} == {"delta_terms", "bridge_terms"}
    hashes = {cls.content_hash() for _, cls in iter_generators(SMALL)}
    assert {v["generator"] for v in violations} == hashes


def test_oracle_zero_count_mismatch_names_spec(monkeypatch):
    # a brute-force scan that miscounts zero classes must be reported with
    # the same spec payload as every other violation
    real = checks.enumerate_bruteforce

    def miscounting(spec):
        nonzero, zero = real(spec)
        return nonzero, zero + 1

    monkeypatch.setattr(checks, "enumerate_bruteforce", miscounting)
    report = oracle_suite(CheckBounds(e_max_oracle=1))
    assert not report["passed"]
    v = report["violations"][0]
    assert v["detail"].startswith("zero-class counts differ")
    assert v["spec"] == {
        "genus": 0, "boundaries": 1, "edges": 1, "min_valence": 1, "parity": EVEN,
    }


def test_run_check_aggregates():
    report = run_check(SMALL)
    assert report["passed"]
    generators = len(list(iter_generators(SMALL)))
    assert report["identities"]["generators"] == report["structural"]["generators"] == generators == 44
    assert set(report) == {
        "identities",
        "structural",
        "enumeration_oracle",
        "rank_oracle",
        "passed",
    }


def test_rank_suite_compares_the_built_matrix_with_the_oracle(monkeypatch):
    # a corner block with every sign flipped keeps d^2 = 0 and every
    # cohomology table; only the comparison with delta + bridge sees it
    real = complexes._terms_block

    def negated(*args):
        return {i: {j: -v for j, v in per.items()} for i, per in real(*args).items()}

    monkeypatch.setattr(complexes, "_terms_block", negated)
    report = rank_suite()
    assert report["matrices"] == RANK_SUITE_TRIALS + 1 and not report["passed"]
    assert report["violations"] == [
        {"suite": "rank_oracle", "detail": "built matrix differs from delta + bridge"}
    ]


def test_rank_suite_reports_a_rank_without_proof(monkeypatch):
    # a rank that no lift prime proves is a violation in the report, which
    # ``check`` still prints, not an exception
    monkeypatch.setattr(linalg, "_proved_rank", lambda m, p: None)
    report = rank_suite()
    assert report["matrices"] == RANK_SUITE_TRIALS + 1 and not report["passed"]
    assert report["violations"] == [{"suite": "rank_oracle", "detail": "no proof"}] * report["matrices"]


def test_rank_suite_fails_a_proof_that_trusts_the_pivot_count(monkeypatch):
    # the suite's last trial, [[1000003]], has rank 0 at the first lift
    # prime and 1 over Q: a "proof" that returns the pivot count mod the
    # lift prime, with no M K = 0 check, passes every other matrix
    monkeypatch.setattr(linalg, "_proved_rank", lambda m, p: len(linalg._pivots_modp(m, p)))
    report = rank_suite()
    assert report["matrices"] == RANK_SUITE_TRIALS + 1 and not report["passed"]
    assert report["violations"] == [{"suite": "rank_oracle", "detail": "certified rank differs"}]


RANK_DETAILS = {
    "T": "transpose rank differs",
    "P": "mod-1000003 rank differs",
    "Q": "mod-2000003 rank differs",
    "C": "certified rank differs",
}


@pytest.mark.parametrize("name, fault, details", [
    # one low mod 2,000,003 on every nonzero matrix: 31 of the 41
    ("rank_modp", lambda real: lambda m, p: real(m, p) - (p == 2000003 and m.nnz > 0), "Q" * 31),
    # one high on the 13 wide matrices: each of them and each tall one
    # differs from its transpose, and a wide one from its modular and
    # proved ranks
    ("rank", lambda real: lambda m: real(m) + (m.rows < m.cols),
     "TTTTPQCTTTTPQCTTTTTTPQCTTTPQCTTTPQCTPQCTTPQCTTPQCTTTPQCTTPQCTPQCTTTPQCTPQCTT"),
], ids=("rank_modp", "rank"))
def test_rank_suite_names_each_oracle_that_disagrees(monkeypatch, name, fault, details):
    # the suite's violations come in matrix order, one per failed check
    monkeypatch.setattr(checks, name, fault(getattr(checks, name)))
    report = rank_suite()
    assert report["matrices"] == RANK_SUITE_TRIALS + 1 and not report["passed"]
    assert report["violations"] == [{"suite": "rank_oracle", "detail": RANK_DETAILS[c]} for c in details]


# SHA-256 of the JSON report at default bounds per parity scope, as
# `check --format json --parity both|even|odd` prints it
DEFAULT_BOUNDS_DIGESTS = {
    (EVEN, ODD): "7d82dc1ef9906e1a29d64068df67698208a56a74e20fa52140b4944784d13b2e",
    (EVEN,): "0d2d2c395c66cd164da17320dbac84ea52eaa805d649ceadc6c149555225817f",
    (ODD,): "9d67319614898e88f2b3a9d0a8d939fc0cc61f7aa866db3ade12f2daa3f36e3a",
}


@pytest.mark.acceptance
@pytest.mark.parametrize("parities", list(DEFAULT_BOUNDS_DIGESTS), ids=("both", "even", "odd"))
def test_check_payload_at_default_bounds(parities, request):
    # both parities is the default, whose report the acceptance criteria share
    both = parities == CheckBounds().parities
    report = request.getfixturevalue("default_check_report") if both else run_check(CheckBounds(parities=parities))
    payload = json.dumps(report, sort_keys=True) + "\n"
    assert hashlib.sha256(payload.encode()).hexdigest() == DEFAULT_BOUNDS_DIGESTS[parities]
