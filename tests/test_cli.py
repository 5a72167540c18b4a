"""Command-line interface: exit codes, output formats."""
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
