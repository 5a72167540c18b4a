"""Hashing: every digest of the package equals hashlib's on the same bytes,
on the built-in SHA path and on the hashlib fallback, and no run of the
package loads OpenSSL's hashlib backend."""
import hashlib
import json
import os
import subprocess
import sys
import tempfile

import pytest

import ribboncoh
from ribboncoh import cache
from ribboncoh.complexes import ComplexSpec
from ribboncoh.enumeration import EnumSpec, enumerate_classes
from ribboncoh.gc2 import GCClass
from ribboncoh.linalg import SparseIntMatrix

SRC = os.path.dirname(os.path.dirname(ribboncoh.__file__))
TESTS = os.path.dirname(os.path.abspath(__file__))
SPEC = ComplexSpec("kp", 1, 0, "ge3", 2, 4, boundaries=2)


def _digests_match_hashlib():
    """Compare each digest the package makes with hashlib's on sample
    inputs: ribbon and gc2 content hashes, spec_hash, the source digest
    and the header of a cache entry, written and read back."""
    ribbon = [c for parity in (0, 1) for c in enumerate_classes(EnumSpec(1, 1, 4, 1, parity))[0]]
    assert len(ribbon) == 14
    for c in ribbon:
        payload = "%s|%s|%d|%d" % (c.sigma0, c.sigma1, c.parity, c.zero_flag)
        assert c.content_hash() == hashlib.sha1(payload.encode()).hexdigest()
    for c in (GCClass(2, ((0, 1), (0, 1), (0, 1)), False), GCClass(1, ((0, 0),), True)):
        payload = "gc2|%d|%s|%d" % (c.n_vertices, c.edges, c.zero_flag)
        assert c.content_hash() == hashlib.sha1(payload.encode()).hexdigest()
    spec = {"kind": "basis", "genus": 1, "edges": 5, "sector": "ge3"}
    text = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    assert cache.spec_hash(spec) == hashlib.sha1(text.encode()).hexdigest()
    files = hashlib.sha256()
    for name in sorted(f for f in os.listdir(os.path.dirname(cache.__file__)) if f.endswith(".py")):
        with open(os.path.join(os.path.dirname(cache.__file__), name), "rb") as f:
            files.update(("%s %s\n" % (name, hashlib.sha256(f.read()).hexdigest())).encode())
    assert cache._source_digest() == files.hexdigest()
    m = SparseIntMatrix(2, 3, ((0, 1, -1),))
    with tempfile.TemporaryDirectory() as root:
        entries = cache.Cache(root)
        entries.store_matrix(SPEC, 2, m)
        assert entries.load_matrix(SPEC, 2) == m
        (name,) = os.listdir(root)
        with open(os.path.join(root, name)) as f:
            head, body = f.read().split("\n")
    assert body == json.dumps([2, 3, [[0, 1, -1]]], separators=(",", ":"))
    assert head == "# ribboncoh matrix sha256=%s" % hashlib.sha256(body.encode()).hexdigest()


def test_builtin_digests_match_hashlib():
    _digests_match_hashlib()


def _run_fresh(code, *args):
    """The JSON value on the last stdout line of code run in a fresh
    interpreter that imports the package from this checkout."""
    child = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, TESTS])),
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.splitlines()[-1])


def test_hashlib_fallback_digests_match_hashlib():
    # with _sha1 unimportable, canonical takes both functions from hashlib
    code = (
        "import sys; sys.modules['_sha1'] = None\n"
        "import hashlib, json, test_hashing\n"
        "from ribboncoh import canonical\n"
        "test_hashing._digests_match_hashlib()\n"
        "print(json.dumps([canonical.sha1 is hashlib.sha1, canonical.sha256 is hashlib.sha256]))\n"
    )
    assert _run_fresh(code) == [True, True]


RUNS = """
import contextlib, io, json, sys
from ribboncoh import cli
from ribboncoh.complexes import build, cohomology
from ribboncoh.gc2 import GCSpec
table = ["cohomology", "--kind", "mw", "-g", "0", "--sector", "ge3", "-E", "1..4", "--cache-dir", sys.argv[1]]
runs = [
    table,
    table,
    ["check", "--g-max", "0", "--e-max", "2", "--e-max-ge3", "2", "--e-max-le2", "3",
     "--e-max-oracle", "2", "--format", "json"],
    ["enumerate", "-g", "1", "-n", "1", "-E", "5", "--format", "json"],
    ["export", "--what", "basis", "--kind", "mw", "-g", "1", "--sector", "ge3", "-E", "2..4", "--no-cache"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in runs]
rows = cohomology(build(GCSpec(2, 0, 2, 6, 2)))
print(json.dumps([codes, len(rows), "_hashlib" in sys.modules]))
"""


def test_no_run_loads_hashlib(tmp_path):
    if _run_fresh("import json, sys; print(json.dumps('_hashlib' in sys.modules))"):
        pytest.skip("this interpreter loads _hashlib at startup")
    codes, n_rows, loaded = _run_fresh(RUNS, str(tmp_path))
    assert codes == [0] * 5 and n_rows == 5
    assert any(p.name.startswith("table-") for p in tmp_path.iterdir())  # stored cold, read warm
    assert not loaded
