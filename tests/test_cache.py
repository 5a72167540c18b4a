"""On-disk cache: round trips, what each kind of entry is keyed by,
source-digest keys, corruption handling, disabled mode, and the bytes and
memory of a write in pieces."""
import hashlib
import json
import os
import random
import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from ribboncoh import cache as cache_module
from ribboncoh.cache import NO_CACHE, PIECE, Cache, default_cache_dir, spec_hash
from ribboncoh.complexes import ComplexSpec
from ribboncoh.enumeration import EnumSpec, enumerate_classes
from ribboncoh.linalg import SparseIntMatrix

SPEC = ComplexSpec("kp", 1, 0, "ge3", 2, 4, boundaries=2)


def _classes():
    classes, zero = enumerate_classes(EnumSpec(1, 2, 3, 3))  # SPEC's (2, 3) cell
    assert len(classes) >= 2
    return classes, zero


def _entry(tmp_path, kind):
    (path,) = [p for p in tmp_path.iterdir() if p.name.startswith(kind + "-")]
    return path


def _rewrite(path, kind, doc, body=None):
    """Replace an entry's document, with a header that matches it, so that
    only the document's own checks can reject it."""
    body = json.dumps(doc) if body is None else body
    digest = hashlib.sha256(body.encode()).hexdigest()
    path.write_text("# ribboncoh %s sha256=%s\n%s" % (kind, digest, body))


def test_spec_hash_is_stable_and_order_insensitive():
    assert spec_hash({"a": 1, "b": 2}) == spec_hash({"b": 2, "a": 1})
    assert spec_hash({"a": 1}) != spec_hash({"a": 2})


def test_default_cache_dir_env(monkeypatch):
    monkeypatch.setenv("RIBBONCOH_CACHE_DIR", "/tmp/somewhere")
    assert default_cache_dir() == "/tmp/somewhere"
    monkeypatch.delenv("RIBBONCOH_CACHE_DIR")
    assert default_cache_dir() == ".cache/ribboncoh"


def test_disabled_cache_is_noop(monkeypatch):
    assert not NO_CACHE.enabled

    def no_key(*args):
        raise AssertionError("a disabled cache computed a key")

    monkeypatch.setattr(cache_module, "entry_key", no_key)
    NO_CACHE.store_basis(SPEC, 2, 3, *_classes())
    NO_CACHE.store_matrix(SPEC, 2, SparseIntMatrix(1, 1, ()))
    NO_CACHE.store_table(SPEC, False, {"x": 2})
    assert NO_CACHE.load_basis(SPEC, 2, 3) is None
    assert NO_CACHE.load_matrix(SPEC, 2) is None
    assert NO_CACHE.load_table(SPEC, False) is None


def _entries(tmp_path):
    return sorted(p.name for p in tmp_path.iterdir())


@pytest.mark.parametrize(
    "other",
    [
        ComplexSpec("kp", 1, 2, "ge3", 3, 6, boundaries=2),  # another E range, d of the same parity
        ComplexSpec("mw", 1, 0, "ge3", 2, 4),  # another kind: its (2, 3) cell is the same
    ],
    ids=["range-and-d", "kind"],
)
def test_basis_entry_is_keyed_by_its_cell(tmp_path, other):
    cache = Cache(str(tmp_path))
    cache.store_basis(SPEC, 2, 3, *_classes())
    assert cache.load_basis(other, 2, 3) == _classes()
    for spec, n, e in (
        (SPEC, 1, 3), (SPEC, 2, 4),
        (ComplexSpec("kp", 0, 0, "ge3", 2, 4, boundaries=2), 2, 3),
        (ComplexSpec("kp", 1, 0, "full", 2, 4, boundaries=2), 2, 3),
        (ComplexSpec("kp", 1, 1, "ge3", 2, 4, boundaries=2), 2, 3),
    ):
        assert cache.load_basis(spec, n, e) is None, (spec, n, e)


def test_matrix_entry_serves_every_range_and_d_of_its_parity(tmp_path):
    cache = Cache(str(tmp_path))
    m = SparseIntMatrix(3, 2, ((0, 1, -4), (2, 0, 9)))
    cache.store_matrix(SPEC, 3, m)
    for spec in (
        ComplexSpec("kp", 1, 2, "ge3", 3, 4, boundaries=2),
        ComplexSpec("kp", 1, -4, "ge3", 1, 9, boundaries=2),
    ):
        assert cache.load_matrix(spec, 3) == m
    for spec, e in (
        (SPEC, 2),
        (ComplexSpec("kp", 1, 1, "ge3", 2, 4, boundaries=2), 3),
        (ComplexSpec("kp", 1, 0, "ge3", 2, 4, boundaries=1), 3),
        (ComplexSpec("kp", 1, 0, "full", 2, 4, boundaries=2), 3),
        (ComplexSpec("kp", 2, 0, "ge3", 2, 4, boundaries=2), 3),
        (ComplexSpec("mw", 1, 0, "ge3", 2, 4), 3),
    ):
        assert cache.load_matrix(spec, e) is None, (spec, e)
    assert len(_entries(tmp_path)) == 1


def test_table_entry_is_keyed_by_the_whole_spec_and_calc1(tmp_path):
    cache = Cache(str(tmp_path))
    cache.store_table(SPEC, False, {"rows": []})
    assert cache.load_table(ComplexSpec("kp", 1, 0, "ge3", 2, 4, boundaries=2), False) == {"rows": []}
    assert cache.load_table(SPEC, True) is None
    for spec in (
        ComplexSpec("kp", 1, 2, "ge3", 2, 4, boundaries=2),
        ComplexSpec("kp", 1, 0, "ge3", 2, 5, boundaries=2),
    ):
        assert cache.load_table(spec, False) is None, spec


def test_basis_round_trip(tmp_path):
    cache = Cache(str(tmp_path))
    classes, zero = _classes()
    assert cache.load_basis(SPEC, 2, 3) is None
    cache.store_basis(SPEC, 2, 3, classes, zero)
    got_classes, got_zero = cache.load_basis(SPEC, 2, 3)
    assert got_classes == classes
    assert got_zero == zero


def test_empty_basis_round_trip(tmp_path):
    cache = Cache(str(tmp_path))
    cache.store_basis(SPEC, 2, 1, [], 3)
    assert cache.load_basis(SPEC, 2, 1) == ([], 3)


def test_matrix_round_trip(tmp_path):
    cache = Cache(str(tmp_path))
    m = SparseIntMatrix(3, 2, ((0, 1, -4), (2, 0, 9)))
    assert cache.load_matrix(SPEC, 2) is None
    cache.store_matrix(SPEC, 2, m)
    assert cache.load_matrix(SPEC, 2) == m
    _entry(tmp_path, "matrix").write_text("# something else\n[1, 1, []]")
    assert cache.load_matrix(SPEC, 2) is None


def test_table_round_trip(tmp_path):
    cache = Cache(str(tmp_path))
    payload = {"rows": [{"h": 1}], "note": "x"}
    cache.store_table(SPEC, False, payload)
    assert cache.load_table(SPEC, False) == payload
    _entry(tmp_path, "table").write_text("not json")
    assert cache.load_table(SPEC, False) is None


def test_entry_under_another_source_digest_is_a_miss(tmp_path, monkeypatch):
    classes, zero = _classes()
    m = SparseIntMatrix(3, 2, ((0, 1, -4), (2, 0, 9)))
    monkeypatch.setattr(cache_module, "_source_digest", lambda: "0" * 64)
    cache = Cache(str(tmp_path))
    cache.store_basis(SPEC, 2, 3, classes, zero)
    cache.store_matrix(SPEC, 2, m)
    cache.store_table(SPEC, False, {"rows": []})
    assert cache.load_basis(SPEC, 2, 3) == (classes, zero)
    assert cache.load_matrix(SPEC, 2) == m
    assert cache.load_table(SPEC, False) == {"rows": []}
    monkeypatch.setattr(cache_module, "_source_digest", lambda: "1" * 64)
    other = Cache(str(tmp_path))
    assert other.load_basis(SPEC, 2, 3) is None
    assert other.load_matrix(SPEC, 2) is None
    assert other.load_table(SPEC, False) is None


def test_no_stray_temp_files(tmp_path):
    cache = Cache(str(tmp_path))
    cache.store_table(SPEC, False, {"data": 1})
    assert not [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]


def test_basis_corruption_is_a_miss(tmp_path):
    cache = Cache(str(tmp_path))
    classes, zero = _classes()
    cache.store_basis(SPEC, 2, 3, classes, zero)
    path = _entry(tmp_path, "basis")
    text = path.read_text()
    path.write_text(text.replace('"parity":0', '"parity":1'))  # breaks the hash
    assert cache.load_basis(SPEC, 2, 3) is None
    path.write_text("# ribboncoh basis v999 zero_classes=0\n")
    assert cache.load_basis(SPEC, 2, 3) is None


def test_basis_with_wrong_types_is_a_miss(tmp_path):
    cache = Cache(str(tmp_path))
    cache.store_basis(SPEC, 2, 3, [], 0)
    path = _entry(tmp_path, "basis")
    for doc in (
        {"parity": 0, "zero_classes": 0, "classes": [[5, [1, 0]]]},
        {"parity": 0, "zero_classes": 0, "classes": [[[0, 1], [1, 0], [0]]]},
        {"parity": 0, "zero_classes": 0, "classes": [[[0, 0], [1, 0]]]},  # sigma0 not a permutation
        {"parity": 0, "zero_classes": 0, "classes": [[[0, 1], [0, 1]]]},  # sigma1 has fixed points
        {"parity": 2, "zero_classes": 0, "classes": []},
        {"parity": 0, "zero_classes": "0", "classes": []},
        {"parity": 0, "classes": []},
        [[[0, 1], [1, 0]]],
        None,
    ):
        _rewrite(path, "basis", doc)
        assert cache.load_basis(SPEC, 2, 3) is None, doc


def test_basis_with_a_class_deleted_is_a_miss(tmp_path):
    cache = Cache(str(tmp_path))
    classes, zero = _classes()
    cache.store_basis(SPEC, 2, 3, classes, zero)
    path = _entry(tmp_path, "basis")
    head, body = path.read_text().split("\n", 1)
    doc = json.loads(body)
    doc["classes"].pop()
    path.write_text(head + "\n" + json.dumps(doc, separators=(",", ":")))
    assert cache.load_basis(SPEC, 2, 3) is None


def test_matrix_edited_in_place_is_a_miss(tmp_path):
    cache = Cache(str(tmp_path))
    cache.store_matrix(SPEC, 2, SparseIntMatrix(3, 2, ((0, 1, -4), (2, 0, 9))))
    path = _entry(tmp_path, "matrix")
    path.write_text(path.read_text().replace("[0,1,-4]", "[0,1,-5]"))
    assert cache.load_matrix(SPEC, 2) is None


def test_matrix_with_wrong_types_is_a_miss(tmp_path):
    cache = Cache(str(tmp_path))
    cache.store_matrix(SPEC, 2, SparseIntMatrix(1, 1, ((0, 0, 1),)))
    path = _entry(tmp_path, "matrix")
    for doc in (
        [3, 2, [[0, 1, "x"]]],
        [3, 2, [[0, 1]]],
        [3, 2, [[3, 0, 1]]],  # row out of range
        [3, 2, [[0, 0, 1], [0, 0, 2]]],  # duplicate entry
        ["3", 2, []],
        [-1, 2, []],
        [3, 2],
        {"rows": 3},
        None,
    ):
        _rewrite(path, "matrix", doc)
        assert cache.load_matrix(SPEC, 2) is None, doc


def test_undecodable_entry_is_a_miss(tmp_path):
    cache = Cache(str(tmp_path))
    cache.store_matrix(SPEC, 2, SparseIntMatrix(1, 1, ((0, 0, 1),)))
    _entry(tmp_path, "matrix").write_bytes(b"\xff\xfe\x00")
    assert cache.load_matrix(SPEC, 2) is None


def test_table_without_payload_is_a_miss(tmp_path):
    cache = Cache(str(tmp_path))
    cache.store_table(SPEC, False, {"rows": []})
    path = _entry(tmp_path, "table")
    _rewrite(path, "table", None, body="")  # a header and nothing after it
    assert cache.load_table(SPEC, False) is None
    for doc in ([], None, 1):
        _rewrite(path, "table", doc)
        assert cache.load_table(SPEC, False) is None


def _whole_entry(kind, doc) -> bytes:
    """An entry as one string, the header line and the compact JSON body:
    the bytes that ``_store`` writes in pieces."""
    body = json.dumps(doc, separators=(",", ":"))
    return ("# ribboncoh %s sha256=%s\n%s" % (kind, hashlib.sha256(body.encode()).hexdigest(), body)).encode()


def _stored(kind, doc) -> bytes:
    at = {"basis": (2, 3), "matrix": 2, "table": False}[kind]
    with tempfile.TemporaryDirectory() as root:
        Cache(root)._store(kind, SPEC, at, doc)
        (name,) = os.listdir(root)
        with open(os.path.join(root, name), "rb") as f:
            return f.read()


def _pairs(n, seed=0):
    """n [sigma0, sigma1] pairs of random permutations of 14 half-edges,
    the size of a class at E=7."""
    rng = random.Random(seed)
    return [[rng.sample(range(14), 14), rng.sample(range(14), 14)] for _ in range(n)]


def test_entries_are_written_in_pieces_with_the_same_bytes(tmp_path):
    cache = Cache(str(tmp_path))
    classes, zero = _classes()
    cache.store_basis(SPEC, 2, 3, classes, zero)
    doc = {"parity": 0, "zero_classes": zero, "classes": [[c.sigma0, c.sigma1] for c in classes]}
    assert _entry(tmp_path, "basis").read_bytes() == _whole_entry("basis", doc)
    m = SparseIntMatrix(600, 300, tuple((r, r % 300, r - 299) for r in range(600) if r != 299))
    cache.store_matrix(SPEC, 2, m)
    assert _entry(tmp_path, "matrix").read_bytes() == _whole_entry("matrix", [m.rows, m.cols, m.entries])
    payload = {"rows": [{"E": e, "h": e % 2, "certified": True} for e in range(2, 8)], "calc1": None}
    cache.store_table(SPEC, False, payload)
    assert _entry(tmp_path, "table").read_bytes() == _whole_entry("table", payload)


@pytest.mark.parametrize("doc", [
    [], {}, [[]], {"classes": []}, [3, 0, []],
    list(range(PIECE - 1)), list(range(PIECE)), list(range(PIECE + 1)),
    list(range(255)), list(range(256)), list(range(257)), list(range(1000)),
    {"parity": 1, "zero_classes": 4, "classes": _pairs(513)},
    [7407, 946, [[r, r % 946, -1] for r in range(1000)]],
    {"a": {"b": [list(range(300)), {"c": [[1.5, None, "\u00e9"]] * 257}], "d": {}}, "e": [True]},
], ids=["empty-list", "empty-dict", "list-of-empty", "empty-classes", "empty-matrix",
        "PIECE-1", "PIECE", "PIECE+1", "255", "256", "257", "1000", "basis-513", "matrix-1000", "nested-dict"])
def test_store_writes_the_whole_entry_form(doc):
    assert _stored("table", doc) == _whole_entry("table", doc)


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4)
    | st.lists(st.integers(), min_size=30, max_size=300),  # long lists, cut into pieces
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=60, deadline=None)
@given(_json)
def test_store_writes_the_whole_entry_form_of_any_document(doc):
    assert _stored("basis", doc) == _whole_entry("basis", doc)


def test_storing_a_basis_holds_no_copy_of_its_body(tmp_path):
    # the document is built before tracing starts, so what is traced is
    # the write alone: one string per body held three copies of it, and
    # json's encoder holds one string object per number while it runs
    cache = Cache(str(tmp_path))
    doc = {"parity": 0, "zero_classes": 0, "classes": _pairs(5000)}
    body = len(json.dumps(doc, separators=(",", ":")))
    tracemalloc.start()
    try:
        cache._store("basis", SPEC, (4, 7), doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert body > 300_000
    assert peak < body / 4, (peak, body)
