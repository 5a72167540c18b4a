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

A load reads an entry CHUNK bytes at a time, hashing each chunk as it is
read, and decodes the body one JSON value at a time (``_Scanner``) in the
layout that the writer gives it: a matrix's entries, in row order, go
straight into its arrays, and a basis's pairs into its classes' keys, so
no load holds the entry's text or a list per entry.  The header is
checked once the body has been read to its end; a mismatch, or any other
layout, is a miss, and what was read is dropped.
"""
from __future__ import annotations

import glob
import json
import os
import tempfile
from collections.abc import Iterator
from itertools import islice

from .canonical import EVEN, ODD, OrientedClass, sha1, sha256
from .linalg import SparseIntMatrix, empty_csr
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
        """Write the HEADER line of kind and the body's SHA-256, then body,
        the compact JSON of doc, in ``_pieces``: the header line, of one
        width for its kind, goes first with a placeholder digest and is
        rewritten once every piece has been written and hashed, so no copy
        of the whole body is ever held."""
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

    def _scan(self, kind: str, spec, at) -> "_Scanner":
        """A scanner over the body of the entry (``_chunks``)."""
        return _Scanner(_chunks(self._path(kind, spec, at), kind))

    def store_basis(self, spec, n: int, e: int, classes, zero_count: int) -> None:
        """classes are the nonzero classes of the (n, e) cell of spec."""
        if self.enabled:
            pairs = ([cls.sigma0, cls.sigma1] for cls in classes)  # made as they are written
            doc = {"parity": spec.parity, "zero_classes": zero_count, "classes": pairs}
            self._store("basis", spec, (n, e), doc)

    def load_basis(self, spec, n: int, e: int):
        """(classes, zero_count) of the (n, e) cell, or None on a miss.
        Each class is checked as a graph and keyed as it is read."""
        if not self.enabled:
            return None
        try:
            body = self._scan("basis", spec, (n, e))
            body.expect('{"parity":')
            parity = body.value()
            body.expect(',"zero_classes":')
            zero_count = body.value()
            if parity not in (EVEN, ODD) or not isinstance(zero_count, int):
                return None
            body.expect(',"classes":[')
            classes = []
            for s0, s1 in body.items():
                g = RibbonGraph(s0, s1)
                check_valid(g)
                classes.append(OrientedClass(bytes(g.sigma0 + g.sigma1), parity, False))
            body.expect("}")
            body.end()
        except (OSError, ValueError, TypeError):
            return None
        return classes, zero_count

    def store_matrix(self, spec, e: int, m: SparseIntMatrix) -> None:
        self._store("matrix", spec, e, [m.rows, m.cols, m.triples()])

    def load_matrix(self, spec, e: int):
        """The block from E=e, or None on a miss.  Its (row, col, value)
        entries, in row order, are read one at a time into the arrays that
        ``SparseIntMatrix.from_csr`` checks and keeps."""
        if not self.enabled:
            return None
        try:
            body = self._scan("matrix", spec, e)
            body.expect("[")
            rows = body.value()
            body.expect(",")
            cols = body.value()
            body.expect(",[")
            indptr, indices, values = csr = empty_csr()
            for r, c, v in body.items():
                if type(r) is not int or not len(indptr) - 1 <= r < rows:
                    raise ValueError("entries out of row order")
                while len(indptr) <= r:  # rows up to r start here
                    indptr.append(len(values))
                indices.append(c)
                values.append(v)
            body.expect("]")
            body.end()
            indptr.extend([len(values)] * (rows + 1 - len(indptr)))
            return SparseIntMatrix.from_csr(rows, cols, *csr)
        except (OSError, ValueError, TypeError, OverflowError):
            return None

    def store_table(self, spec, calc1: bool, payload: dict) -> None:
        self._store("table", spec, calc1, payload)

    def load_table(self, spec, calc1: bool):
        if not self.enabled:
            return None
        try:
            body = self._scan("table", spec, calc1)
            payload = body.value()
            body.end()
        except (OSError, ValueError):
            return None
        return payload if isinstance(payload, dict) else None


HEADER = "# ribboncoh %s sha256=%s"  # kind, the SHA-256 of the body: 64 hex digits
CHUNK = 1 << 16  # the most bytes of an entry that a load reads at once


def _chunks(path: str, kind: str):
    """The body of the entry at path as text, CHUNK bytes at a time, each
    hashed as it is read; OSError if it cannot be read.  At the end,
    ValueError unless the header line is HEADER of kind and the body.  The
    writer's JSON is ASCII, so no character spans two chunks."""
    with open(path, "rb") as f:
        head = f.readline()
        h = sha256()
        for data in iter(lambda: f.read(CHUNK), b""):
            h.update(data)
            yield data.decode("ascii")
    if head != (HEADER % (kind, h.hexdigest()) + "\n").encode():
        raise ValueError("the header does not match the body")


_DECODER = json.JSONDecoder()


class _Scanner:
    """A JSON body read off its text chunks one value or one literal at a
    time, holding only the text not yet read of the chunks read so far.
    Any mismatch raises ValueError."""

    def __init__(self, chunks):
        self.chunks, self.text, self.at = chunks, "", 0

    def _more(self) -> bool:
        """Append the next chunk to the text not yet read; False at the end."""
        chunk = next(self.chunks, None)
        if chunk is None:
            return False
        self.text = self.text[self.at:] + chunk
        self.at = 0
        return True

    def _peek(self) -> str:
        """The next character, "" at the end."""
        while self.at == len(self.text):
            if not self._more():
                return ""
        return self.text[self.at]

    def expect(self, literal: str) -> None:
        """Read past literal, which must come next."""
        while len(self.text) - self.at < len(literal) and self._more():
            pass
        if not self.text.startswith(literal, self.at):
            raise ValueError("expected %r" % literal)
        self.at += len(literal)

    def value(self):
        """The JSON value that starts here.  One that does not parse, or
        that reaches the end of the text, is read again with the next
        chunk, since it may run on into it."""
        while True:
            try:
                value, end = _DECODER.raw_decode(self.text, self.at)
            except ValueError:
                end = None
            if end is not None and end < len(self.text) or not self._more():
                if end is None:
                    raise ValueError("malformed value")
                self.at = end
                return value

    def items(self):
        """The items of the list whose "[" was just read, one at a time,
        then its "]"."""
        if self._peek() == "]":
            self.at += 1
            return
        while True:
            yield self.value()
            sep = self._peek()
            self.at += 1
            if sep == "]":
                return
            if sep != ",":
                raise ValueError("malformed list")

    def end(self) -> None:
        """Check that the body ends here, and so its header (``_chunks``)."""
        if self._peek():
            raise ValueError("text after the document")


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
