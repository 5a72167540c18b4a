"""On-disk result cache: one JSON document per entry.

An entry's file name hashes its kind, the fields it depends on
(``entry_key``) and a digest of the package's source files, computed once
per Cache; a basis, a matrix and a table are deterministic functions of
those fields and the code, so an entry written by other code is never
found.  The fields are:

* a basis, one cell's classes: genus, boundary count n, edge count e,
  sector and parity;
* a matrix, the block of the differential from E=e: kind, genus, parity,
  sector, the boundary count of a kp complex, and e; so one block serves
  every E range and every d of its parity;
* a table: the spec's content key (its whole E range and d) and whether
  it carries the calc1 offsets.

The first line holds the kind and the SHA-256 of the rest, the document:
a basis {"parity", "zero_classes", "classes"} with its nonzero classes as
[sigma0, sigma1] in basis order, a matrix [rows, cols, entries], a table
its payload.  An entry whose header does not match, or whose document
does not rebuild into valid graphs or a valid matrix, is a miss and gets
recomputed.  Writes are atomic (temp file then rename).

An entry is written in pieces of at most PIECE list items, each hashed as
it goes, and its header line, of one width for its kind, is rewritten at
the end with the digest: the file holds the same bytes as the header line
and the whole compact JSON text would, and no copy of that text is held.
A basis's [sigma0, sigma1] pairs and a matrix's (row, col, value) entries
are made from the classes and the matrix's arrays as they are written,
PIECE at a time, so no list of them is held either.
"""
from __future__ import annotations

import glob
import json
import os
import tempfile
from collections.abc import Iterator
from itertools import islice

from .canonical import EVEN, ODD, OrientedClass, sha1, sha256
from .linalg import SparseIntMatrix
from .ribbon import RibbonGraph, check_valid

ENV_CACHE_DIR = "RIBBONCOH_CACHE_DIR"
DEFAULT_CACHE_DIR = ".cache/ribboncoh"


def _source_digest() -> str:
    """SHA-256 over the names and SHA-256s of the package's .py files."""
    h = sha256()
    for path in sorted(glob.glob(os.path.join(os.path.dirname(__file__), "*.py"))):
        with open(path, "rb") as f:
            file_digest = sha256(f.read()).hexdigest()
        h.update(("%s %s\n" % (os.path.basename(path), file_digest)).encode())
    return h.hexdigest()


def default_cache_dir() -> str:
    return os.environ.get(ENV_CACHE_DIR, DEFAULT_CACHE_DIR)


def spec_hash(payload: dict) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return sha1(text.encode()).hexdigest()


def entry_key(kind: str, spec, at) -> dict:
    """The fields an entry depends on besides the source digest.  spec is
    a complexes.ComplexSpec; at is (n, e) for a basis, e for a matrix and
    calc1 for a table."""
    if kind == "basis":
        n, e = at
        return {"genus": spec.genus, "boundaries": n, "edges": e,
                "sector": spec.sector, "parity": spec.parity}
    if kind == "matrix":
        return {"kind": spec.kind, "genus": spec.genus, "parity": spec.parity,
                "sector": spec.sector, "boundaries": spec.boundaries, "from_edges": at}
    return {"table": spec.content_key(), "calc1": at}


class Cache:
    """A directory of immutable computation results, made if need be (OSError
    when it cannot be); Cache(None) is disabled."""

    def __init__(self, root: str | None):
        self.root = root
        self._source = None
        if root is not None:
            os.makedirs(root, exist_ok=True)
            self._source = _source_digest()

    @property
    def enabled(self) -> bool:
        return self.root is not None

    def _path(self, kind: str, spec, at) -> str:
        h = spec_hash({"kind": kind, "source": self._source, **entry_key(kind, spec, at)})
        return os.path.join(self.root, "%s-%s.json" % (kind, h))

    def _store(self, kind: str, spec, at, doc) -> None:
        """Write ``_header(kind, body) + "\n" + body``, body the compact
        JSON of doc, in ``_pieces``: the header line, of one width for its
        kind, goes first with a placeholder digest and is rewritten once
        every piece has been written and hashed, so no copy of the whole
        body is ever held."""
        if not self.enabled:
            return
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                f.write((HEADER % (kind, "0" * 64) + "\n").encode())
                h = sha256()
                for piece in _pieces(doc):
                    data = piece.encode()
                    h.update(data)
                    f.write(data)
                f.seek(0)
                f.write((HEADER % (kind, h.hexdigest())).encode())
            os.replace(tmp, self._path(kind, spec, at))
        finally:
            if os.path.exists(tmp):  # only when the write failed
                os.unlink(tmp)

    def _load(self, kind: str, spec, at):
        """The document of an entry whose header names its kind and the
        SHA-256 of its body; None on any mismatch."""
        if not self.enabled:
            return None
        try:
            with open(self._path(kind, spec, at)) as f:
                head, _, body = f.read().partition("\n")
            return json.loads(body) if head == _header(kind, body) else None
        except (OSError, ValueError):  # undecodable bytes or JSON
            return None

    def store_basis(self, spec, n: int, e: int, classes, zero_count: int) -> None:
        """classes are the nonzero classes of the (n, e) cell of spec."""
        if self.enabled:
            pairs = ([cls.sigma0, cls.sigma1] for cls in classes)  # made as they are written
            doc = {"parity": spec.parity, "zero_classes": zero_count, "classes": pairs}
            self._store("basis", spec, (n, e), doc)

    def load_basis(self, spec, n: int, e: int):
        """(classes, zero_count) of the (n, e) cell, or None on a miss."""
        doc = self._load("basis", spec, (n, e))
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

    def store_matrix(self, spec, e: int, m: SparseIntMatrix) -> None:
        self._store("matrix", spec, e, [m.rows, m.cols, m.triples()])

    def load_matrix(self, spec, e: int):
        try:
            rows, cols, entries = self._load("matrix", spec, e)
            return SparseIntMatrix(rows, cols, entries)
        except (ValueError, TypeError):
            return None

    def store_table(self, spec, calc1: bool, payload: dict) -> None:
        self._store("table", spec, calc1, payload)

    def load_table(self, spec, calc1: bool):
        payload = self._load("table", spec, calc1)
        return payload if isinstance(payload, dict) else None


HEADER = "# ribboncoh %s sha256=%s"  # kind, the SHA-256 of the body: 64 hex digits


def _header(kind: str, body: str) -> str:
    return HEADER % (kind, sha256(body.encode()).hexdigest())


PIECE = 32  # the most items of a long list that one piece holds


def _dumps(doc) -> str:
    return json.dumps(doc, separators=(",", ":"))


def _pieces(doc):
    """``_dumps(doc)`` in pieces, which join to it exactly: a list longer
    than PIECE, or an iterator, which stands for the list of what it
    gives, goes PIECE items at a time, and a dict or a shorter list goes
    as the text before its last value, that value's own pieces and its
    closing bracket; anything else is one piece.  So a basis's classes and
    a matrix's entries never stand in one string, nor, given as
    iterators, in one list."""
    if isinstance(doc, Iterator) or isinstance(doc, (list, tuple)) and len(doc) > PIECE:
        items = iter(doc)
        yield "["
        for k, chunk in enumerate(iter(lambda: list(islice(items, PIECE)), [])):
            yield ("," if k else "") + _dumps(chunk)[1:-1]
        yield "]"
    elif isinstance(doc, (list, tuple)) and doc:
        yield _dumps(doc[:-1])[:-1] + ("," if len(doc) > 1 else "")
        yield from _pieces(doc[-1])
        yield "]"
    elif isinstance(doc, dict) and doc:
        *head, (key, last) = doc.items()
        yield _dumps(dict(head))[:-1] + ("," if head else "") + _dumps({key: None})[1:-5]
        yield from _pieces(last)
        yield "}"
    else:
        yield _dumps(doc)


NO_CACHE = Cache(None)
