"""Verification suites: clean passes at small bounds, fault injection."""
from ribboncoh import checks
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
from ribboncoh.diff import FormalSum, bridge

SMALL = CheckBounds(g_max=1, e_max_full=3, e_max_ge3=3, e_max_le2=5, e_max_oracle=3)


def test_bounds_serialization():
    assert SMALL.to_json()["e_max_full"] == 3
    assert tuple(SMALL.to_json()["parities"]) == (EVEN, ODD)


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


def test_fault_injection_is_detected():
    # corrupt the corner operator by dropping one term; the identity suite
    # must fail and name a generator
    def broken_bridge(cls):
        full = bridge(cls)
        terms = sorted(full.terms(), key=lambda t: t[0].content_hash())
        return FormalSum(terms[1:]) if terms else full

    report = identity_suite(SMALL, delta_op=None, bridge_op=broken_bridge)
    assert not report["passed"]
    v = report["violations"][0]
    assert v["suite"] in ("bridge_squared", "anticommutator")
    assert "generator" in v and "spec" in v


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
