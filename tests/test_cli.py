"""Command-line interface: exit codes, output formats."""
import hashlib
import json
import os
import subprocess
import sys

import pytest

import ribboncoh
from ribboncoh import checks, cli
from ribboncoh.checks import CheckBounds
from ribboncoh.cli import main, _parse_erange
from ribboncoh.complexes import ComplexSpec
from ribboncoh.linalg import AssemblyError, DifferentialIdentityError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_erange():
    assert _parse_erange("2..5") == (2, 5)
    assert _parse_erange("4") == (4, 4)


def test_enumerate_text(capsys):
    code, out, _ = run(capsys, "enumerate", "-g", "0", "-n", "3", "-E", "3", "--min-valence", "3")
    assert code == 0
    assert "2 classes (2 zero by symmetry" in out


def test_enumerate_json(capsys):
    code, out, _ = run(
        capsys, "enumerate", "-g", "1", "-n", "1", "-E", "3", "--sector", "ge3", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["classes"]) == 1
    assert payload["zero_classes"] == 0


def test_enumerate_inconsistent_spec(capsys):
    code, out, _ = run(capsys, "enumerate", "-g", "1", "-n", "1", "-E", "1")
    assert code == 2
    assert "empty" in out


def test_enumerate_invalid_spec(capsys):
    code, _, err = run(capsys, "enumerate", "-g", "-1", "-n", "1", "-E", "1")
    assert code == 2


def test_check_small(capsys):
    code, out, _ = run(
        capsys, "check", "--g-max", "1", "--e-max", "2", "--e-max-ge3", "3",
        "--e-max-le2", "4", "--e-max-oracle", "2",
    )
    assert code == 0
    assert "overall: pass" in out


def test_check_json(capsys):
    code, out, _ = run(
        capsys, "check", "--g-max", "0", "--e-max", "2", "--e-max-ge3", "2",
        "--e-max-le2", "3", "--e-max-oracle", "2", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["passed"]


def test_closed_stdout_exits_1_without_a_traceback():
    # as `ribboncoh enumerate ... | head -c 100` once the reader has gone:
    # the child's stdout is a pipe whose read end is already closed
    src = os.path.dirname(os.path.dirname(ribboncoh.__file__))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = subprocess.run(
            [sys.executable, "-m", "ribboncoh.cli", "enumerate", "-g", "1", "-n", "1", "-E", "5", "--format", "json"],
            stdout=write_end, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src), timeout=60,
        )
    finally:
        os.close(write_end)
    assert child.returncode == 1
    assert b"Traceback" not in child.stderr and b"BrokenPipeError" not in child.stderr


def test_check_rejects_oracle_bound_before_any_work(capsys, monkeypatch):
    def no_work(bounds):
        raise AssertionError("run_check must not start")

    monkeypatch.setattr(cli, "run_check", no_work)
    code, out, err = run(capsys, "check", "--e-max-oracle", "6")
    assert code == 2
    assert out == ""
    assert err.startswith("invalid bounds: e_max_oracle is at most 5")


@pytest.mark.parametrize("flag, field", [
    ("--g-max", "g_max"),
    ("--e-max", "e_max_full"),
    ("--e-max-ge3", "e_max_ge3"),
    ("--e-max-le2", "e_max_le2"),
    ("--e-max-oracle", "e_max_oracle"),
])
def test_check_rejects_negative_bounds(capsys, monkeypatch, flag, field):
    def no_work(bounds):
        raise AssertionError("run_check must not start")

    with pytest.raises(ValueError, match="%s must be non-negative" % field):
        CheckBounds(**{field: -1})
    monkeypatch.setattr(cli, "run_check", no_work)
    code, out, err = run(capsys, "check", flag, "-1")
    assert code == 2
    assert out == ""
    assert err == "invalid bounds: %s must be non-negative\n" % field


def test_cohomology_table(capsys):
    code, out, _ = run(
        capsys, "cohomology", "--kind", "kp", "-g", "1", "-n", "1",
        "--sector", "ge3", "-E", "2..4", "--no-cache",
    )
    assert code == 0
    assert "certified" in out
    assert "euler" in out


def test_cohomology_json_cached(capsys, tmp_path):
    args = (
        "cohomology", "--kind", "kp", "-g", "1", "-n", "1", "--sector", "ge3",
        "-E", "2..4", "--emit", "json", "--cache-dir", str(tmp_path),
    )
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)  # second run served from cache
    assert code1 == code2 == 0
    assert out1 == out2
    rows = json.loads(out1)["rows"]
    assert {r["edges"]: r["h"] for r in rows} == {2: 0, 3: 1, 4: 0}


@pytest.mark.parametrize("first_calc1", [False, True], ids=["cold-plain", "cold-calc1"])
def test_cohomology_calc1_with_warm_cache(capsys, tmp_path, first_calc1):
    # a table cached without offsets must not serve a --calc1 request, and
    # one cached with them must not show them to a request without
    args = (
        "cohomology", "--kind", "kp", "-g", "1", "-n", "1", "--sector", "ge3",
        "-E", "2..4", "--cache-dir", str(tmp_path),
    )
    for calc1 in (first_calc1, not first_calc1):
        code, out, _ = run(capsys, *args, *(("--calc1",) if calc1 else ()))
        assert code == 0
        assert ("calc1 offsets" in out) is calc1


@pytest.mark.parametrize("emit", ["json", "text"])
def test_cohomology_with_ten_cells_warm_equals_cold(capsys, tmp_path, monkeypatch, emit):
    # a cached table comes back with string keys "1".."10", and "10" sorts
    # before "2"; the stand-ins below give the table of mw genus 0 at E=9
    # its shape (cells and boundary counts 1..10) without the 9 s build
    counts = range(1, 11)
    row = {
        "degree": 9, "edges": 9, "dim": 55, "cells": {n: n for n in counts},
        "zero_classes": 0, "rank_in": 0, "rank_out": 0, "h": 55, "status": "certified",
    }
    monkeypatch.setattr(cli, "build", lambda spec, cache: None)
    monkeypatch.setattr(cli, "cohomology", lambda sl: [row])
    monkeypatch.setattr(cli, "euler", lambda sl: {"total": -55, "per_boundary": {n: -n for n in counts}})
    args = (
        "cohomology", "--kind", "mw", "-g", "0", "--sector", "ge3", "-E", "9..9",
        "--emit", emit, "--cache-dir", str(tmp_path),
    )
    code1, cold, _ = run(capsys, *args)
    code2, warm, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert warm == cold
    # cold bytes as ever: json.dumps(sort_keys=True) sorts int keys as ints
    per_boundary = ", ".join('"%d": %d' % (n, -n) for n in counts)
    if emit == "json":
        assert '"cells": {%s}' % ", ".join('"%d": %d' % (n, n) for n in counts) in cold
        assert '"per_boundary": {%s}' % per_boundary in cold
    else:
        assert 'euler: {"per_boundary": {%s}, "total": -55}\n' % per_boundary in cold


def test_export_has_no_valence_or_parity_option(capsys):
    # --sector and -d decide the valence floor and the orientation regime
    for option in (("--min-valence", "3"), ("--parity", "odd")):
        with pytest.raises(SystemExit):
            main(["export", "--what", "basis", "-g", "1", "-n", "1", "-E", "2..3", *option])
    capsys.readouterr()


def test_cohomology_invalid(capsys):
    code, _, err = run(capsys, "cohomology", "--kind", "kp", "-g", "0", "-E", "1..3", "--no-cache")
    assert code == 2
    assert "invalid spec" in err


@pytest.mark.parametrize("n", ["0", "-2"])
def test_cohomology_rejects_kp_without_boundaries(capsys, n):
    with pytest.raises(ValueError, match="boundary count of at least 1"):
        ComplexSpec("kp", 1, 0, "ge3", 2, 4, boundaries=int(n))
    code, out, err = run(
        capsys, "cohomology", "--kind", "kp", "-g", "1", "-n", n, "--sector", "ge3",
        "-E", "2..4", "--no-cache",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("invalid spec: ")


@pytest.mark.parametrize("command", ["cohomology", "export"])
def test_mw_takes_no_boundary_count(capsys, tmp_path, command):
    what = ("--what", "matrix") if command == "export" else ()
    code, out, err = run(
        capsys, command, *what, "--kind", "mw", "-g", "0", "-n", "7", "--sector", "ge3",
        "-E", "1..5", "--cache-dir", str(tmp_path / "cache"),
    )
    assert code == 2
    assert out == ""
    assert err == "invalid spec: mw complexes sum over every boundary count and take none\n"
    assert not (tmp_path / "cache").exists()


def _unusable_paths(tmp_path):
    a_file = tmp_path / "file"
    a_file.write_text("")
    return {"a file": a_file, "under a file": a_file / "sub"}


@pytest.mark.parametrize("where", ["a file", "under a file"])
@pytest.mark.parametrize("command", ["cohomology", "export"])
def test_unusable_cache_dir_exits_2_before_building(capsys, tmp_path, monkeypatch, command, where):
    built = []
    monkeypatch.setattr(cli, "build", lambda spec, cache: built.append(spec))
    cache_dir = _unusable_paths(tmp_path)[where]
    what = ("--what", "matrix") if command == "export" else ()
    code, out, err = run(
        capsys, command, *what, "--kind", "kp", "-g", "1", "-n", "1", "--sector", "ge3",
        "-E", "2..4", "--cache-dir", str(cache_dir),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("cannot use cache directory %s: " % cache_dir)
    assert "Traceback" not in err
    assert built == []


@pytest.mark.parametrize("where", ["missing directory", "under a file"])
def test_export_to_an_unusable_path_exits_2_before_building(capsys, tmp_path, monkeypatch, where):
    built = []
    monkeypatch.setattr(cli, "build", lambda spec, cache: built.append(spec))
    parent = tmp_path / "absent" if where == "missing directory" else _unusable_paths(tmp_path)["a file"]
    target = parent / "x"
    code, out, err = run(
        capsys, "export", "--what", "matrix", "--kind", "kp", "-g", "1", "-n", "1",
        "--sector", "ge3", "-E", "2..4", "--no-cache", "-o", str(target),
    )
    assert code == 2
    assert out == ""
    assert err == "cannot write %s: no such directory\n" % target
    assert built == []


@pytest.mark.parametrize("where", ["missing directory", "a directory"])
def test_export_graph_to_an_unusable_path_exits_2(capsys, tmp_path, where):
    target = tmp_path / "absent" / "g.json" if where == "missing directory" else tmp_path
    code, out, err = run(capsys, "export", "--what", "graph", "--graph", "LOOP", "-o", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("cannot write %s: " % target)


def test_cached_blocks_serve_every_range_and_d_of_a_parity(capsys, tmp_path):
    # one block per E=e, whatever the E range or the d of the same parity
    # (keyed by the whole spec, these three runs wrote 17 matrix entries)
    table = ("cohomology", "--kind", "mw", "-g", "0", "--sector", "ge3", "--emit", "json")
    for rest in (("-E", "1..6"), ("-E", "1..7"), ("-E", "1..7", "-d", "2")):
        code, warm, _ = run(capsys, *table, *rest, "--cache-dir", str(tmp_path))
        assert code == 0
        code, cold, _ = run(capsys, *table, *rest, "--no-cache")
        assert code == 0
        assert warm == cold, rest
    names = [p.name for p in tmp_path.iterdir()]
    assert sum(name.startswith("matrix-") for name in names) == 6
    assert sum(name.startswith("basis-") for name in names) == 16
    assert sum(name.startswith("table-") for name in names) == 3


def test_export_graph_dot(capsys):
    code, out, _ = run(capsys, "export", "--what", "graph", "--graph", "THETA1", "--format", "dot")
    assert code == 0
    assert out.startswith("graph ribbon {")


def test_export_graph_json_file(capsys, tmp_path):
    target = tmp_path / "g.json"
    code, _, _ = run(
        capsys, "export", "--what", "graph", "--graph", "LOOP", "-o", str(target)
    )
    assert code == 0
    data = json.loads(target.read_text())
    assert data["sigma0"] == [1, 0]


def test_export_graph_missing_arg(capsys):
    code, _, err = run(capsys, "export", "--what", "graph")
    assert code == 2


@pytest.mark.parametrize("what", ["basis", "matrix"])
def test_export_without_edge_range(capsys, what):
    code, out, err = run(capsys, "export", "--what", what, "--kind", "kp", "-g", "1", "-n", "1")
    assert code == 2
    assert out == ""
    assert "-E is required" in err


def test_export_graph_missing_file(capsys, tmp_path):
    code, _, err = run(
        capsys, "export", "--what", "graph", "--graph", str(tmp_path / "absent.json")
    )
    assert code == 2
    assert "cannot load graph" in err


@pytest.mark.parametrize("fmt", ["json", "dot"])
@pytest.mark.parametrize(
    "payload",
    [
        {"sigma0": [0, 1], "sigma1": [0, 1]},
        {"sigma1": [1, 0]},
        [0, 1],
        "{",
        {"sigma0": [True, False], "sigma1": [1, 0]},
        {"sigma0": [0, 1], "sigma1": [True, False]},
    ],
    ids=["fixed-point", "no-sigma0", "not-an-object", "not-json", "bool-sigma0", "bool-sigma1"],
)
def test_export_graph_invalid_file(capsys, tmp_path, payload, fmt):
    # JSON true and false are not half-edge labels, though Python's bool
    # is an int
    target = tmp_path / "bad.json"
    target.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    code, out, err = run(capsys, "export", "--what", "graph", "--graph", str(target), "--format", fmt)
    assert code == 2
    assert out == ""
    assert "cannot load graph" in err


EXPORT_ARGS = (
    "--graph", "THETA1", "--kind", "kp", "-g", "1", "-n", "1", "--sector", "ge3",
    "-E", "2..4", "--no-cache",
)


@pytest.mark.parametrize("what, fmt", [
    ("graph", "triplet"),
    ("basis", "dot"),
    ("basis", "triplet"),
    ("matrix", "json"),
    ("matrix", "dot"),
])
def test_export_rejects_a_format_that_does_not_apply(capsys, monkeypatch, what, fmt):
    def no_work(spec, cache=None):
        raise AssertionError("build must not start")

    monkeypatch.setattr(cli, "build", no_work)
    code, out, err = run(capsys, "export", "--what", what, *EXPORT_ARGS, "--format", fmt)
    assert code == 2
    assert out == ""
    assert err.startswith("--format %s does not apply to --what %s" % (fmt, what))


@pytest.mark.parametrize("what, fmt", [("graph", "json"), ("basis", "json"), ("matrix", "triplet")])
def test_export_format_defaults_per_what(capsys, what, fmt):
    code, out, err = run(capsys, "export", "--what", what, *EXPORT_ARGS)
    assert (code, err) == (0, "") and out
    assert run(capsys, "export", "--what", what, *EXPORT_ARGS, "--format", fmt) == (0, out, "")


def test_export_identity_failure(capsys, monkeypatch):
    from ribboncoh.linalg import DifferentialIdentityError

    def failing_build(spec, cache=None):
        raise DifferentialIdentityError("injected")

    monkeypatch.setattr(cli, "build", failing_build)
    code, _, err = run(
        capsys, "export", "--what", "matrix", "--kind", "kp", "-g", "1", "-n", "1",
        "--sector", "ge3", "-E", "2..4", "--no-cache",
    )
    assert code == 1
    assert "identity failure" in err


def test_cohomology_assembly_failure(capsys, monkeypatch):
    # a corner term that lands outside the codomain basis: each source's
    # vertex splits, which stay at its boundary count
    from ribboncoh import complexes, diff

    def stray_terms(g, odd=False):
        yield from diff.bridge_terms(g, odd)
        yield from diff.delta_terms(g, 2, odd)

    monkeypatch.setattr(complexes, "bridge_terms", stray_terms)
    code, out, err = run(
        capsys, "cohomology", "--kind", "mw", "-g", "0", "--sector", "ge3", "-E", "1..5", "--no-cache",
    )
    assert (code, out) == (1, "")
    assert err.startswith("assembly failure: image class ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_cohomology_proof_failure(capsys, monkeypatch):
    from ribboncoh import linalg

    monkeypatch.setattr(linalg, "_proved_rank", lambda m, p: None)
    code, out, err = run(
        capsys, "cohomology", "--kind", "mw", "-g", "0", "--sector", "ge3", "-E", "1..5", "--no-cache",
    )
    assert (code, out) == (1, "")
    assert err.startswith("proof failure: no proof of the rank") and err.count("\n") == 1
    assert "Traceback" not in err


def test_export_basis_and_matrix(capsys):
    code, out, _ = run(
        capsys, "export", "--what", "basis", "--kind", "kp", "-g", "1", "-n", "1",
        "--sector", "ge3", "-E", "2..4", "--no-cache",
    )
    assert code == 0
    assert out.startswith("# ribboncoh basis export")
    code, out, _ = run(
        capsys, "export", "--what", "matrix", "--kind", "kp", "-g", "1", "-n", "1",
        "--sector", "ge3", "-E", "2..4", "--format", "triplet", "--no-cache",
    )
    assert code == 0
    assert "# d from E=2" in out


# SHA-256 of `export --what matrix --format triplet -d 1` (odd parity), frozen
# from the payload-transport orientation code; every sign of these matrices
# is pinned, not only their ranks
ODD_MATRIX_DIGESTS = {
    ("kp", "-g", "1", "-n", "2", "--sector", "ge3", "-E", "2..6"):
        "5e4916413a0b1b1b0420d237b1b9885ebba9c954b792b571e9ba3bf7ac14856c",
    ("kp", "-g", "0", "-n", "3", "--sector", "full", "-E", "2..5"):
        "27f262b19a1b20e09b9a9293cc83e1ea82d23e28e88d766f40ca15423b38e2fa",
    ("kp", "-g", "0", "-n", "2", "--sector", "le2", "-E", "1..6"):
        "52ea1d54f413a23736a775c6218896ac1254b98a769f7ffb30645bd6e3d1a121",
    ("mw", "-g", "0", "--sector", "full", "-E", "1..4"):
        "a59092dfb864b73d872d930b65c66428c9b8057225f38767bf5f37e2c8589921",
    ("mw", "-g", "1", "--sector", "full", "-E", "2..4"):
        "9a918c3e7d82f24a215adb1bf2f5428eb85daf47bb54e3ef3a9fe5a7276a8065",
    ("mw", "-g", "1", "--sector", "ge3", "-E", "2..6"):
        "1d6bc6476434e9da058c3869db57a711a4d47197a6d6664c50d6367c98eb341a",
}


@pytest.mark.parametrize("spec", sorted(ODD_MATRIX_DIGESTS), ids=" ".join)
def test_odd_matrix_export_digests(capsys, spec):
    kind, *rest = spec
    code, out, _ = run(
        capsys, "export", "--what", "matrix", "--format", "triplet", "-d", "1",
        "--no-cache", "--kind", kind, *rest,
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ODD_MATRIX_DIGESTS[spec]


def test_even_matrix_export_digest(capsys):
    code, out, _ = run(
        capsys, "export", "--what", "matrix", "--format", "triplet", "-d", "0",
        "--no-cache", "--kind", "kp", "-g", "1", "-n", "2", "--sector", "ge3", "-E", "2..6",
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "0be061e92986179cb4b55f5ea7bde0d3ca831c35c1f5f4860ef9d16229a25e2d"
    )


# SHA-256 of two more matrix exports, frozen before the corner and le2 blocks
# were read off the chain: an even mw matrix, whose corner block a sign
# flip of that whole block changes, and the odd le2 paths
MORE_MATRIX_DIGESTS = {
    ("mw", "-g", "0", "--sector", "ge3", "-E", "1..6", "-d", "0"):
        "fd5c66ccaf72c2101e1f047a347f405abf015b1be5573a5d4956426a903837aa",
    ("kp", "-g", "0", "-n", "1", "--sector", "le2", "-E", "1..8", "-d", "1"):
        "f235d2f8ac3682bbdb3b3439395219f4e38d5e3908ce8429d284b45e5731c9cc",
}


@pytest.mark.parametrize("spec", sorted(MORE_MATRIX_DIGESTS), ids=" ".join)
def test_more_matrix_export_digests(capsys, spec):
    kind, *rest = spec
    code, out, _ = run(
        capsys, "export", "--what", "matrix", "--format", "triplet", "--no-cache",
        "--kind", kind, *rest,
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == MORE_MATRIX_DIGESTS[spec]


# SHA-256 of the printed content hashes: `enumerate --format json` over a grid
# of cells (its classes in content-hash order, each with its "hash" field) and
# two basis exports, frozen before the hash functions left hashlib
ENUMERATE_GRID = [
    ("-g", str(g), "-n", str(n), "-E", str(e), "--sector", sector, "--parity", parity)
    for g in (0, 1) for n in (1, 2, 3) for e in range(1, 6)
    for sector in ("full", "ge3", "le2") for parity in ("even", "odd")
]
ENUMERATE_GRID_DIGEST = "7653fef90ef471c2b2b17c05ab79bdc82baa20baf4ca12c7a6cb3b10835dbef3"
BASIS_HASH_DIGESTS = {
    "0": "09b3e09d5d7ffe375c6f63d34c95be17d52a675baca27bd5c8c469073e4350d9",
    "1": "351010ad8ffabb8053e566c8ddaeb5c7e14fa73939654c1c927d05d61fc58771",
}


def test_enumerate_grid_hash_digest(capsys):
    chunks = []
    for argv in ENUMERATE_GRID:
        main(["enumerate", "--format", "json", *argv])
        chunks.append(capsys.readouterr().out)
    assert len(chunks) == 180
    assert hashlib.sha256("".join(chunks).encode()).hexdigest() == ENUMERATE_GRID_DIGEST


@pytest.mark.parametrize("d", sorted(BASIS_HASH_DIGESTS))
def test_basis_export_hash_digest(capsys, d):
    code, out, _ = run(
        capsys, "export", "--what", "basis", "--kind", "mw", "-g", "1", "--sector", "ge3",
        "-E", "2..5", "-d", d, "--no-cache",
    )
    assert code == 0
    assert '"hash": ' in out
    assert hashlib.sha256(out.encode()).hexdigest() == BASIS_HASH_DIGESTS[d]


def test_check_payload_at_the_benchmark_bounds(capsys):
    # the benchmark's `check` workload, against the digest it gates on
    # (perfbench/run.py's argv, perfbench/digests.json's entry)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "perfbench", "digests.json")) as f:
        expected = json.load(f)["check"]
    code, out, _ = run(capsys, "check", "--format", "json", "--e-max-ge3", "4", "--e-max-oracle", "3")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == expected


@pytest.mark.parametrize("error", [DifferentialIdentityError, AssemblyError])
def test_check_prints_its_report_when_the_rank_suite_build_fails(capsys, monkeypatch, error):
    def failing_build(spec, cache=None):
        raise error("differential squared is nonzero between E=3 and E=5")

    monkeypatch.setattr(checks, "build", failing_build)
    code, out, err = run(
        capsys, "check", "--g-max", "0", "--e-max", "2", "--e-max-ge3", "2",
        "--e-max-le2", "3", "--e-max-oracle", "2", "--format", "json",
    )
    assert code == 1 and err == ""
    report = json.loads(out)
    assert not report["passed"] and report["identities"]["passed"]
    assert report["rank_oracle"]["matrices"] == checks.RANK_SUITE_TRIALS
    assert report["rank_oracle"]["violations"] == [{
        "suite": "rank_oracle",
        "detail": "%s: differential squared is nonzero between E=3 and E=5" % error.__name__,
    }]
