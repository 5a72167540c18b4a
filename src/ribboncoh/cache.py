"""On-disk result cache: JSON-lines bases, triplet matrices, JSON tables.

Every artifact is keyed by a content hash of its generating spec plus the
format version.  Its first line names the kind, the format version and the
SHA-256 of the rest of the file; an entry whose header does not match, or
whose body does not parse, is a miss and gets recomputed, never reused.
Writes are atomic (temp file then rename) so concurrent readers only ever
see complete payloads.
"""
from __future__ import annotations

import hashlib
import json
import os
import tempfile

from .canonical import OrientedClass
from .linalg import SparseIntMatrix

FORMAT_VERSION = 2
ENV_CACHE_DIR = "RIBBONCOH_CACHE_DIR"
DEFAULT_CACHE_DIR = ".cache/ribboncoh"


def default_cache_dir() -> str:
    return os.environ.get(ENV_CACHE_DIR, DEFAULT_CACHE_DIR)


def spec_hash(payload: dict) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(text.encode()).hexdigest()


class Cache:
    """A directory of immutable computation results."""

    def __init__(self, root: str | None):
        self.root = root

    @property
    def enabled(self) -> bool:
        return self.root is not None

    def _path(self, kind: str, key: dict, suffix: str) -> str:
        h = spec_hash({"kind": kind, "version": FORMAT_VERSION, **key})
        return os.path.join(self.root, "%s-%s.%s" % (kind, h, suffix))

    def _write_atomic(self, path: str, text: str) -> None:
        os.makedirs(self.root, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as f:
                f.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def _store(self, kind: str, key: dict, suffix: str, body: str) -> None:
        if self.enabled:
            text = _header(kind, body) + "\n" + body
            self._write_atomic(self._path(kind, key, suffix), text)

    def _load(self, kind: str, key: dict, suffix: str):
        """The body of an entry whose header names its kind, the format
        version and the SHA-256 of the body; None on any mismatch."""
        if not self.enabled:
            return None
        try:
            with open(self._path(kind, key, suffix)) as f:
                text = f.read()
        except (OSError, UnicodeDecodeError):
            return None
        head, _, body = text.partition("\n")
        return body if head == _header(kind, body) else None

    # bases -----------------------------------------------------------

    def store_basis(self, key: dict, classes, zero_count: int) -> None:
        lines = ["zero_classes=%d" % zero_count]
        lines.extend(json.dumps(cls.to_json(), sort_keys=True) for cls in classes)
        self._store("basis", key, "jsonl", "\n".join(lines) + "\n")

    def load_basis(self, key: dict):
        """(classes, zero_count) or None on a miss."""
        body = self._load("basis", key, "jsonl")
        if body is None:
            return None
        try:
            first, *rest = body.splitlines()
            zero_count = int(first.removeprefix("zero_classes="))
            classes = []
            for ln in rest:
                rec = json.loads(ln)
                cls = OrientedClass(
                    tuple(rec["sigma0"]),
                    tuple(rec["sigma1"]),
                    int(rec["parity"]),
                    bool(rec["zero"]),
                )
                if cls.content_hash() != rec["hash"]:
                    return None
                classes.append(cls)
        except (KeyError, ValueError, IndexError, TypeError):
            return None
        return classes, zero_count

    # matrices --------------------------------------------------------

    def store_matrix(self, key: dict, m: SparseIntMatrix) -> None:
        self._store("matrix", key, "txt", m.to_triplet_text())

    def load_matrix(self, key: dict):
        body = self._load("matrix", key, "txt")
        if body is None:
            return None
        try:
            return SparseIntMatrix.from_triplet_text(body)
        except (ValueError, IndexError):
            return None

    # tables ----------------------------------------------------------

    def store_table(self, key: dict, payload) -> None:
        self._store("table", key, "json", json.dumps(payload, sort_keys=True, indent=1))

    def load_table(self, key: dict):
        body = self._load("table", key, "json")
        if body is None:
            return None
        try:
            return json.loads(body)
        except ValueError:
            return None


def _header(kind: str, body: str) -> str:
    digest = hashlib.sha256(body.encode()).hexdigest()
    return "# ribboncoh %s v%d sha256=%s" % (kind, FORMAT_VERSION, digest)


NO_CACHE = Cache(None)
