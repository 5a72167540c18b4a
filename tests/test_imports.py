"""What a run loads: every module imported counts toward a run's peak RSS,
so a table run loads neither the check suites nor modules that only they
use, and no run loads ``dataclasses`` (with ``inspect``, about 1 MB)."""
import json
import os
import subprocess
import sys

import ribboncoh

SRC = os.path.dirname(os.path.dirname(ribboncoh.__file__))

RUNS = """
import contextlib, io, json, sys
from ribboncoh import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, sorted(sys.modules)]))
"""


def _loaded(*runs):
    """(exit codes, modules loaded) of the CLI runs, made in turn in one
    fresh interpreter that imports the package from this checkout."""
    child = subprocess.run(
        [sys.executable, "-c", RUNS, json.dumps(runs)], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert child.returncode == 0, child.stderr
    codes, modules = json.loads(child.stdout.splitlines()[-1])
    return codes, set(modules)


def test_runs_load_only_what_they_use(tmp_path):
    # a module that a bare interpreter loads by itself is no run's cost
    bare = set(subprocess.run(
        [sys.executable, "-c", "import sys; print(*sys.modules)"], capture_output=True, text=True, timeout=60,
    ).stdout.split())
    assert "sys" in bare
    table = ["cohomology", "--kind", "mw", "-g", "0", "--sector", "ge3", "-E", "1..4", "--cache-dir", str(tmp_path)]
    codes, loaded = _loaded(table, table)  # cold, then read from the cache
    assert codes == [0, 0]
    assert any(p.name.startswith("table-") for p in tmp_path.iterdir())
    unused = {"dataclasses", "inspect", "fractions", "decimal", "ribboncoh.checks"}
    assert loaded & unused - bare == set()
    check = ["check", "--g-max", "0", "--e-max", "2", "--e-max-ge3", "2", "--e-max-le2", "3",
             "--e-max-oracle", "2", "--format", "json"]
    codes, loaded = _loaded(check)
    assert codes == [0] and "ribboncoh.checks" in loaded
    assert loaded & {"dataclasses", "inspect"} - bare == set()
