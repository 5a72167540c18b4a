"""On-disk result cache: one JSON document per entry.

An entry's file name hashes its kind, its key and a digest of the
package's source files, computed once per Cache; a basis, a matrix and a
table are deterministic functions of their spec and the code, so an entry
written by other code is never found.  The first line holds the kind and
the SHA-256 of the rest, the document: a basis {"parity", "zero_classes",
"classes"} with its nonzero classes as [sigma0, sigma1] in basis order, a
matrix [rows, cols, entries], a table its payload.  An entry whose header
does not match, or whose document does not rebuild into valid graphs or a
valid matrix, is a miss and gets recomputed.  Writes are atomic (temp file
then rename).
"""
from __future__ import annotations

import glob
import hashlib
import json
import os
import tempfile

from .canonical import EVEN, ODD, OrientedClass
from .linalg import SparseIntMatrix
from .ribbon import RibbonGraph, check_valid

ENV_CACHE_DIR = "RIBBONCOH_CACHE_DIR"
DEFAULT_CACHE_DIR = ".cache/ribboncoh"


def _source_digest() -> str:
    """SHA-256 over the names and SHA-256s of the package's .py files."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(os.path.dirname(__file__), "*.py"))):
        with open(path, "rb") as f:
            file_digest = hashlib.sha256(f.read()).hexdigest()
        h.update(("%s %s\n" % (os.path.basename(path), file_digest)).encode())
    return h.hexdigest()


def default_cache_dir() -> str:
    return os.environ.get(ENV_CACHE_DIR, DEFAULT_CACHE_DIR)


def spec_hash(payload: dict) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(text.encode()).hexdigest()


class Cache:
    """A directory of immutable computation results."""

    def __init__(self, root: str | None):
        self.root = root
        self._source = _source_digest() if root is not None else None

    @property
    def enabled(self) -> bool:
        return self.root is not None

    def _path(self, kind: str, key: dict) -> str:
        h = spec_hash({"kind": kind, "source": self._source, **key})
        return os.path.join(self.root, "%s-%s.json" % (kind, h))

    def _store(self, kind: str, key: dict, doc) -> None:
        if not self.enabled:
            return
        body = json.dumps(doc, separators=(",", ":"))
        os.makedirs(self.root, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as f:
                f.write(_header(kind, body) + "\n" + body)
            os.replace(tmp, self._path(kind, key))
        finally:
            if os.path.exists(tmp):  # only when the write failed
                os.unlink(tmp)

    def _load(self, kind: str, key: dict):
        """The document of an entry whose header names its kind and the
        SHA-256 of its body; None on any mismatch."""
        if not self.enabled:
            return None
        try:
            with open(self._path(kind, key)) as f:
                head, _, body = f.read().partition("\n")
            return json.loads(body) if head == _header(kind, body) else None
        except (OSError, ValueError):  # undecodable bytes or JSON
            return None

    def store_basis(self, key: dict, classes, zero_count: int) -> None:
        """classes are nonzero and share one parity."""
        parity = classes[0].parity if classes else EVEN
        pairs = [[cls.sigma0, cls.sigma1] for cls in classes]
        self._store("basis", key, {"parity": parity, "zero_classes": zero_count, "classes": pairs})

    def load_basis(self, key: dict):
        """(classes, zero_count) or None on a miss."""
        doc = self._load("basis", key)
        try:
            parity, zero_count = doc["parity"], doc["zero_classes"]
            if parity not in (EVEN, ODD) or not isinstance(zero_count, int):
                return None
            classes = []
            for s0, s1 in doc["classes"]:
                g = RibbonGraph(s0, s1)
                check_valid(g)
                classes.append(OrientedClass(g.sigma0, g.sigma1, parity, False))
        except (KeyError, ValueError, TypeError):
            return None
        return classes, zero_count

    def store_matrix(self, key: dict, m: SparseIntMatrix) -> None:
        self._store("matrix", key, [m.rows, m.cols, m.entries])

    def load_matrix(self, key: dict):
        try:
            rows, cols, entries = self._load("matrix", key)
            return SparseIntMatrix(rows, cols, entries)
        except (ValueError, TypeError):
            return None

    def store_table(self, key: dict, payload: dict) -> None:
        self._store("table", key, payload)

    def load_table(self, key: dict):
        payload = self._load("table", key)
        return payload if isinstance(payload, dict) else None


def _header(kind: str, body: str) -> str:
    return "# ribboncoh %s sha256=%s" % (kind, hashlib.sha256(body.encode()).hexdigest())


NO_CACHE = Cache(None)
