"""Command-line interface: exit codes, output formats."""
import hashlib
import json

import pytest

from ribboncoh.cli import main, _parse_erange


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
    [{"sigma0": [0, 1], "sigma1": [0, 1]}, {"sigma1": [1, 0]}, [0, 1], "{"],
    ids=["fixed-point", "no-sigma0", "not-an-object", "not-json"],
)
def test_export_graph_invalid_file(capsys, tmp_path, payload, fmt):
    target = tmp_path / "bad.json"
    target.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    code, out, err = run(capsys, "export", "--what", "graph", "--graph", str(target), "--format", fmt)
    assert code == 2
    assert out == ""
    assert "cannot load graph" in err


def test_export_identity_failure(capsys, monkeypatch):
    import ribboncoh.cli as cli
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
