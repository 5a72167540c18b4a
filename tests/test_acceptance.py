"""Acceptance gate: the ten headline criteria, one pass/fail line each.

Each test computes its result, prints a single `[criterion N] ... PASS/FAIL`
line directly to the terminal (bypassing capture), and then asserts.  The
heavy cohomology tables are shared through module-scoped fixtures; the
full module takes about a minute, most of it in the identity suite
(criterion 1) and the brute-force oracle (criterion 3).
"""
import json
import os
import subprocess
import sys

import pytest

import ribboncoh
from ribboncoh.canonical import EVEN
from ribboncoh.checks import (
    CheckBounds,
    identity_suite,
    iter_generators,
    oracle_suite,
    run_check,
    structural_suite,
)
from ribboncoh.complexes import (
    ComplexSpec,
    build,
    calc1_offsets,
    cohomology,
    euler,
)
from ribboncoh.enumeration import EnumSpec, enumerate_bruteforce, enumerate_classes
from ribboncoh.gc2 import GCSpec

FULL_BOUNDS = CheckBounds()  # full E<=4, trivalent-plus E<=5, low-valence E<=8

pytestmark = pytest.mark.acceptance


def announce(capsys, num, name, ok, detail=""):
    with capsys.disabled():
        line = "[criterion %2d] %-28s %s" % (num, name, "PASS" if ok else "FAIL")
        if detail:
            line += "  (%s)" % detail
        print(line)


@pytest.fixture(scope="module")
def full_generators():
    # criteria 1 and 2 check one list, as run_check does
    return list(iter_generators(FULL_BOUNDS))


@pytest.fixture(scope="module")
def le2_tables():
    out = {}
    for n in (1, 2):
        sp = ComplexSpec("kp", 0, 0, "le2", 1, 10, boundaries=n)
        out[n] = cohomology(build(sp))
    return out


@pytest.fixture(scope="module")
def kp11():
    sp = ComplexSpec("kp", 1, 0, "ge3", 2, 4, boundaries=1)
    sl = build(sp)
    return sl, cohomology(sl)


@pytest.fixture(scope="module")
def mw_g0():
    # d -> rows: even to E = 8, odd to E = 7, so each is certified one below
    return {d: cohomology(build(ComplexSpec("mw", 0, d, "ge3", 1, 8 - d))) for d in (0, 1)}


@pytest.fixture(scope="module")
def mw_g1():
    return {d: cohomology(build(ComplexSpec("mw", 1, d, "ge3", 2, 7))) for d in (0, 1)}


@pytest.fixture(scope="module")
def gc_rows():
    return cohomology(build(GCSpec(3, 0, 3, 8)))


def test_criterion_1_identities(capsys, full_generators):
    report = identity_suite(FULL_BOUNDS, full_generators)
    ok = report["passed"]
    announce(
        capsys, 1, "differential identities", ok,
        "%d generators, both parities" % report["generators"],
    )
    assert report["violations"] == []
    assert ok


def test_criterion_2_structural(capsys, full_generators):
    report = structural_suite(FULL_BOUNDS, full_generators)
    ok = report["passed"]
    announce(capsys, 2, "term shape invariants", ok, "%d generators" % report["generators"])
    assert report["violations"] == []
    assert ok


def test_criterion_3_enumeration_oracle(capsys):
    report = oracle_suite(FULL_BOUNDS)
    ok = report["passed"]
    # sampled ten-half-edge specs on top of the exhaustive small scan
    mismatches = []
    for spec in (EnumSpec(2, 1, 5, 3), EnumSpec(0, 4, 5, 3)):
        fast = enumerate_classes(spec)
        slow = enumerate_bruteforce(spec)
        if [c.content_hash() for c in fast[0]] != [c.content_hash() for c in slow[0]]:
            mismatches.append(spec)
        if fast[1] != slow[1]:
            mismatches.append(spec)
    ok = ok and not mismatches
    announce(
        capsys, 3, "enumeration oracle", ok,
        "%d specs exhaustive, 2 sampled at 10 half-edges" % report["specs"],
    )
    assert report["violations"] == []
    assert mismatches == []


def test_criterion_4_loop_classes(capsys, le2_tables):
    polygon = {r["degree"]: r for r in le2_tables[2]}
    path = {r["degree"]: r for r in le2_tables[1]}
    ok = True
    for k in range(1, 10):
        ok = ok and polygon[k]["status"] == "certified"
        ok = ok and polygon[k]["h"] == (1 if k in (1, 5, 9) else 0)
        ok = ok and path[k]["status"] == "certified"
        ok = ok and path[k]["h"] == (1 if k == 1 else 0)
    announce(capsys, 4, "loop classes at 1, 5, 9", ok, "certified degrees 1..9")
    for k in range(1, 10):
        assert polygon[k]["h"] == (1 if k in (1, 5, 9) else 0), k
        assert polygon[k]["status"] == "certified", k
        assert path[k]["h"] == (1 if k == 1 else 0), k


def test_criterion_5_mw_genus0_acyclic(capsys, mw_g0):
    tops = {0: 7, 1: 6}  # the last certified E of each parity
    by_e = {d: {r["edges"]: r for r in rows} for d, rows in mw_g0.items()}
    ok = all(
        by_e[d][e]["status"] == "certified" and by_e[d][e]["h"] == 0
        for d, top in tops.items()
        for e in range(1, top + 1)
    )
    announce(capsys, 5, "genus-0 combined acyclicity", ok, "h = 0 certified, E 1..7 (d = 0), 1..6 (d = 1)")
    for d, top in tops.items():
        for e in range(1, top + 1):
            assert by_e[d][e]["status"] == "certified", (d, e)
            assert by_e[d][e]["h"] == 0, (d, e)


def test_criterion_6_kp_11(capsys, kp11):
    sl, rows = kp11
    by_e = {r["edges"]: r for r in rows}
    ok = (
        by_e[2]["h"] == 0
        and by_e[2]["status"] == "certified"
        and by_e[3]["h"] == 1
        and by_e[3]["status"] == "certified"
    )
    # cross-check every basis layer against the brute-force scan
    brute_ok = True
    for e in range(2, 5):
        slow, slow_zero = enumerate_bruteforce(EnumSpec(1, 1, e, 3, EVEN))
        layer = sl.bases[e]
        brute_ok = brute_ok and [c.content_hash() for c in layer] == [
            c.content_hash() for c in slow
        ]
    ok = ok and brute_ok
    announce(capsys, 6, "(1,1) class at three edges", ok, "h(E=3) = 1 certified")
    assert brute_ok
    assert by_e[2]["h"] == 0 and by_e[2]["status"] == "certified"
    assert by_e[3]["h"] == 1 and by_e[3]["status"] == "certified"


def test_criterion_7_genus1_expected_dims(capsys, mw_g1):
    # a table of d has the rows of the table of d's parity, each degree
    # read off ComplexSpec.degree at d: one offset must align every d
    offsets = {}
    for d in range(-3, 4):
        spec = ComplexSpec("mw", 1, d, "ge3", 2, 7)
        offsets[d] = calc1_offsets([dict(r, degree=spec.degree(r["edges"])) for r in mw_g1[d % 2]], d)
    h_by_e = {
        d: {r["edges"]: r["h"] for r in rows if r["status"] == "certified"}
        for d, rows in mw_g1.items()
    }
    ok = all(o == [1] for o in offsets.values()) and h_by_e[0] == h_by_e[1]
    detail = "offsets %s for d = -3..3 over certified E %s" % (offsets[0], sorted(h_by_e[0]))
    announce(capsys, 7, "genus-1 expected dimensions", ok, detail)
    # a single constant offset aligns every certified degree, for every d
    assert offsets == {d: [1] for d in range(-3, 4)}
    # frozen certified values behind the match, the same in both parities
    assert h_by_e[0] == h_by_e[1] == {2: 0, 3: 1, 4: 0, 5: 0, 6: 1}


def test_criterion_8_rank_certification(capsys, le2_tables, kp11, mw_g0, mw_g1):
    # every rank used in suites 4-7 must have passed the two-prime check:
    # no row with computed cohomology may be merely provisional
    tables = [le2_tables[1], le2_tables[2], kp11[1], *mw_g0.values(), *mw_g1.values()]
    provisional = [
        (r["edges"], r["status"])
        for rows in tables
        for r in rows
        if r["h"] is not None and r["status"] != "certified"
    ]
    ok = not provisional
    announce(capsys, 8, "two-prime rank certificates", ok, "suites 4-7, primes > 1e6")
    assert provisional == []


def test_criterion_9_gc2(capsys, gc_rows):
    by_e = {r["edges"]: r for r in gc_rows}
    ok = all(r["status"] == "certified" for r in gc_rows)
    ok = ok and by_e[6]["h"] == 1 and all(by_e[e]["h"] == 0 for e in (3, 4, 5, 7, 8))
    empty_low = all(cell == ([], 0) for cell in build(GCSpec(1, 0, 1, 6)).cells.values())
    loop_order_two = build(GCSpec(2, 0, 1, 6)).cells
    theta_only = {ne: c for ne, c in loop_order_two.items() if c != ([], 0)} == {(2, 3): ([], 1)}
    ok = ok and empty_low and theta_only
    announce(capsys, 9, "ordinary graph complex", ok, "single class at loop order 3")
    assert empty_low and theta_only
    assert by_e[6]["h"] == 1
    for e in (3, 4, 5, 7, 8):
        assert by_e[e]["h"] == 0, e
    assert all(r["status"] == "certified" for r in gc_rows)


DETERMINISM_BOUNDS = CheckBounds(
    g_max=1, e_max_full=3, e_max_ge3=4, e_max_le2=6, e_max_oracle=3
)
DETERMINISM_SPECS = {
    "le2_n2": ComplexSpec("kp", 0, 0, "le2", 1, 6, boundaries=2),
    "kp_11": ComplexSpec("kp", 1, 0, "ge3", 2, 4, boundaries=1),
    "mw_g0": ComplexSpec("mw", 0, 0, "ge3", 1, 6),
    "mw_g1": ComplexSpec("mw", 1, 0, "ge3", 2, 5),
}


def _suite_payload() -> bytes:
    payload = {"check": run_check(DETERMINISM_BOUNDS)}
    for name, spec in DETERMINISM_SPECS.items():
        sl = build(spec)
        payload[name] = {"rows": cohomology(sl), "euler": euler(sl)}
    payload["gc"] = cohomology(build(GCSpec(3, 0, 3, 7)))
    return json.dumps(payload, sort_keys=True).encode()


def test_criterion_10_determinism(capsys):
    # the first payload comes from a fresh interpreter with another hash
    # seed, the second from this process; the package keeps no state
    # between calls, so the hash seed is the only thing that differs
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    path = [os.path.dirname(os.path.dirname(ribboncoh.__file__)), os.path.dirname(__file__)]
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(path))
    code = "import sys, test_acceptance; sys.stdout.buffer.write(test_acceptance._suite_payload())"
    child = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, timeout=600
    )
    assert child.returncode == 0, child.stderr.decode()
    other = child.stdout
    here = _suite_payload()
    ok = other == here
    announce(capsys, 10, "determinism across hash seeds", ok, "%d-byte payloads" % len(here))
    assert other == here
