"""Verification suites: clean passes at small bounds, fault injection."""
from dataclasses import replace

import pytest

from ribboncoh import canonical, checks, diff
from ribboncoh.canonical import EVEN, ODD
from ribboncoh.checks import (
    CheckBounds,
    identity_suite,
    iter_generators,
    oracle_suite,
    rank_suite,
    run_check,
    structural_suite,
)
from ribboncoh.diff import FormalSum, bridge_images, delta_images
from ribboncoh.ribbon import RibbonGraph

SMALL = CheckBounds(g_max=1, e_max_full=3, e_max_ge3=3, e_max_le2=5, e_max_oracle=3)


def test_bounds_serialization():
    assert SMALL.to_json()["e_max_full"] == 3
    assert tuple(SMALL.to_json()["parities"]) == (EVEN, ODD)


@pytest.mark.parametrize("parities", [(2,), (), (EVEN, EVEN), [EVEN, ODD]])
def test_bounds_reject_bad_parities(parities):
    # parity 2 would take the odd raw signs without the Koszul factor and
    # fail the identity suite falsely, () would pass it with no generator,
    # and a repeated parity would check every generator twice
    with pytest.raises(ValueError, match="parities"):
        replace(SMALL, parities=parities)


def test_bounds_accept_each_parity_scope():
    for parities in ((EVEN,), (ODD,), (EVEN, ODD), (ODD, EVEN)):
        assert replace(SMALL, parities=parities).parities == parities


def test_generators_in_scope():
    gens = list(iter_generators(SMALL))
    assert gens
    for spec, cls in gens:
        assert spec.edges <= 5
        assert not cls.zero_flag


def test_identity_suite_passes():
    report = identity_suite(SMALL)
    assert report["passed"]
    assert report["generators"] > 0
    assert report["violations"] == []


def test_structural_suite_passes():
    assert structural_suite(SMALL)["passed"]


def test_oracle_suite_passes():
    assert oracle_suite(SMALL)["passed"]


def test_rank_suite_passes():
    assert rank_suite(trials=10)["passed"]


def test_fault_injection_is_detected(monkeypatch):
    # corrupt the corner operator by dropping one term in every parity; the
    # identity suite must fail and name a generator
    real = checks.bridge_images

    def broken_bridge_images(g, parities):
        out = {}
        for parity, full in real(g, parities).items():
            terms = sorted(full.terms(), key=lambda t: t[0].content_hash())
            out[parity] = FormalSum(terms[1:]) if terms else full
        return out

    monkeypatch.setattr(checks, "bridge_images", broken_bridge_images)
    report = identity_suite(SMALL)
    assert not report["passed"]
    v = report["violations"][0]
    assert v["suite"] in ("bridge_squared", "anticommutator")
    assert "generator" in v and "spec" in v


def test_images_do_not_depend_on_parity_scope():
    # a class's image in one parity is the same whether the canonical pass
    # serves that parity alone or both at once
    for _, x in iter_generators(SMALL):
        for images in (delta_images, bridge_images):
            both = images(x.graph, (EVEN, ODD))
            for p in (EVEN, ODD):
                assert both[p] == images(x.graph, (p,))[p]


def test_structural_suite_computes_no_raw_sign(monkeypatch):
    # the structural suite reads only the term graphs, so it never needs
    # the odd-parity raw signs, not even for odd generators
    def no_raw_sign(keys):
        raise AssertionError("raw sign computed")

    monkeypatch.setattr(diff, "_order_sign", no_raw_sign)
    for parities in ((EVEN,), (ODD,)):
        assert structural_suite(replace(SMALL, parities=parities))["passed"]


def _identity_suite_counting(monkeypatch, parities):
    """identity_suite(SMALL) in the given parities, with the number of
    canonicalization passes it made and the parities it read signs in."""
    calls, sign_parities = [0], set()
    real_data, real_sign = canonical._canonical_data, canonical._sign

    def counted_data(s0, s1):
        calls[0] += 1
        return real_data(s0, s1)

    def recorded_sign(g, parity, maps):
        sign_parities.add(parity)
        return real_sign(g, parity, maps)

    def no_odd_raw_sign(keys):
        raise AssertionError("odd raw sign computed")

    monkeypatch.setattr(canonical, "_canonical_data", counted_data)
    monkeypatch.setattr(canonical, "_sign", recorded_sign)
    if ODD not in parities:
        monkeypatch.setattr(diff, "_order_sign", no_odd_raw_sign)
    report = identity_suite(replace(SMALL, parities=parities))
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


def test_one_traversal_per_root(monkeypatch):
    # the canonical pass walks from each of the 2E roots exactly once: a
    # root that ties or beats the running best is not walked again
    real = canonical._traverse
    calls = [0]

    def counted(s0, s1, root, best):
        calls[0] += 1
        return real(s0, s1, root, best)

    monkeypatch.setattr(canonical, "_traverse", counted)
    gens = list(iter_generators(SMALL))
    assert gens
    for _, cls in gens:
        calls[0] = 0
        canonical._canonical_data(cls.sigma0, cls.sigma1)
        assert calls[0] == len(cls.sigma0)


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
    report = structural_suite(SMALL)
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
    assert set(report) == {
        "identities",
        "structural",
        "enumeration_oracle",
        "rank_oracle",
        "passed",
    }
