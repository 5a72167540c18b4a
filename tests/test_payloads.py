"""The payload contract as one manifest: the SHA-256 of the stdout of every
CLI invocation in ``INVOCATIONS``, run in-process with no cache, as
tests/payload_digests.json records it.  A change that rewrites the
manifest changes a payload; it names the bug it fixes.

Rewrite the manifest from the current code with

    PYTHONPATH=src python tests/test_payloads.py --rewrite
"""
import contextlib
import hashlib
import io
import json
from pathlib import Path
import sys

from ribboncoh import cli

MANIFEST = Path(__file__).with_name("payload_digests.json")

TABLES = (  # cohomology --emit json
    "--kind mw -g 0 --sector ge3 -E 1..7",
    "--kind mw -g 1 --sector ge3 -E 2..6",
    "--kind mw -g 0 --sector full -E 1..5",
    "--kind mw -g 1 --sector full -E 2..5",
    "--kind mw -g 2 --sector ge3 -E 4..6",
    "--kind kp -g 1 -n 2 --sector ge3 -E 2..5",
    "--kind kp -g 0 -n 2 --sector le2 -E 1..10",
)
MATRICES = (  # export --what matrix
    "--kind mw -g 1 --sector ge3 -E 2..6",
    "--kind mw -g 1 --sector ge3 -E 2..7",
    "--kind mw -g 0 --sector full -E 1..5",
)
INVOCATIONS = tuple(
    "%s %s -d %d --no-cache" % (command, spec, d)
    for command, specs in (("cohomology --emit json", TABLES), ("export --what matrix", MATRICES))
    for spec in specs
    for d in (0, 1)
)


def digest(invocation: str) -> str:
    """SHA-256 of what ``ribboncoh <invocation>`` writes to stdout; it must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(invocation.split())
    assert code == 0, invocation
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_every_payload_matches_the_manifest():
    manifest = json.loads(MANIFEST.read_text())
    assert sorted(manifest) == sorted(INVOCATIONS)
    changed = [inv for inv in INVOCATIONS if digest(inv) != manifest[inv]]
    assert changed == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--rewrite"]:
        sys.exit("usage: python tests/test_payloads.py --rewrite")
    MANIFEST.write_text(json.dumps({inv: digest(inv) for inv in INVOCATIONS}, indent=1, sort_keys=True) + "\n")
