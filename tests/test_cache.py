"""On-disk cache: round trips, source-digest keys, corruption handling,
disabled mode."""
import hashlib
import json

from ribboncoh import cache as cache_module
from ribboncoh.cache import NO_CACHE, Cache, default_cache_dir, spec_hash
from ribboncoh.canonical import EVEN
from ribboncoh.enumeration import EnumSpec, enumerate_classes
from ribboncoh.linalg import SparseIntMatrix


def _classes():
    classes, zero = enumerate_classes(EnumSpec(1, 2, 3, 3, EVEN))
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


def test_disabled_cache_is_noop(tmp_path):
    assert not NO_CACHE.enabled
    NO_CACHE.store_table({"k": 1}, {"x": 2})
    assert NO_CACHE.load_table({"k": 1}) is None


def test_basis_round_trip(tmp_path):
    cache = Cache(str(tmp_path))
    classes, zero = _classes()
    key = {"probe": "basis"}
    assert cache.load_basis(key) is None
    cache.store_basis(key, classes, zero)
    got_classes, got_zero = cache.load_basis(key)
    assert got_classes == classes
    assert got_zero == zero


def test_empty_basis_round_trip(tmp_path):
    cache = Cache(str(tmp_path))
    cache.store_basis({"probe": "empty"}, [], 3)
    assert cache.load_basis({"probe": "empty"}) == ([], 3)


def test_matrix_round_trip(tmp_path):
    cache = Cache(str(tmp_path))
    m = SparseIntMatrix(3, 2, ((0, 1, -4), (2, 0, 9)))
    key = {"probe": "matrix"}
    assert cache.load_matrix(key) is None
    cache.store_matrix(key, m)
    assert cache.load_matrix(key) == m
    _entry(tmp_path, "matrix").write_text("# something else\n[1, 1, []]")
    assert cache.load_matrix(key) is None


def test_table_round_trip(tmp_path):
    cache = Cache(str(tmp_path))
    payload = {"rows": [{"h": 1}], "note": "x"}
    key = {"probe": "table"}
    cache.store_table(key, payload)
    assert cache.load_table(key) == payload
    _entry(tmp_path, "table").write_text("not json")
    assert cache.load_table(key) is None


def test_entry_under_another_source_digest_is_a_miss(tmp_path, monkeypatch):
    classes, zero = _classes()
    m = SparseIntMatrix(3, 2, ((0, 1, -4), (2, 0, 9)))
    monkeypatch.setattr(cache_module, "_source_digest", lambda: "0" * 64)
    cache = Cache(str(tmp_path))
    cache.store_basis({"probe": "b"}, classes, zero)
    cache.store_matrix({"probe": "m"}, m)
    cache.store_table({"probe": "t"}, {"rows": []})
    assert cache.load_basis({"probe": "b"}) == (classes, zero)
    assert cache.load_matrix({"probe": "m"}) == m
    assert cache.load_table({"probe": "t"}) == {"rows": []}
    monkeypatch.setattr(cache_module, "_source_digest", lambda: "1" * 64)
    other = Cache(str(tmp_path))
    assert other.load_basis({"probe": "b"}) is None
    assert other.load_matrix({"probe": "m"}) is None
    assert other.load_table({"probe": "t"}) is None


def test_no_stray_temp_files(tmp_path):
    cache = Cache(str(tmp_path))
    cache.store_table({"k": "v"}, {"data": 1})
    assert not [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]


def test_basis_corruption_is_a_miss(tmp_path):
    cache = Cache(str(tmp_path))
    classes, zero = _classes()
    key = {"probe": "corrupt"}
    cache.store_basis(key, classes, zero)
    path = _entry(tmp_path, "basis")
    text = path.read_text()
    path.write_text(text.replace('"parity":0', '"parity":1'))  # breaks the hash
    assert cache.load_basis(key) is None
    path.write_text("# ribboncoh basis v999 zero_classes=0\n")
    assert cache.load_basis(key) is None


def test_basis_with_wrong_types_is_a_miss(tmp_path):
    cache = Cache(str(tmp_path))
    key = {"probe": "types"}
    cache.store_basis(key, [], 0)
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
        assert cache.load_basis(key) is None, doc


def test_basis_with_a_class_deleted_is_a_miss(tmp_path):
    cache = Cache(str(tmp_path))
    classes, zero = _classes()
    key = {"probe": "truncated"}
    cache.store_basis(key, classes, zero)
    path = _entry(tmp_path, "basis")
    head, body = path.read_text().split("\n", 1)
    doc = json.loads(body)
    doc["classes"].pop()
    path.write_text(head + "\n" + json.dumps(doc, separators=(",", ":")))
    assert cache.load_basis(key) is None


def test_matrix_edited_in_place_is_a_miss(tmp_path):
    cache = Cache(str(tmp_path))
    key = {"probe": "edited"}
    cache.store_matrix(key, SparseIntMatrix(3, 2, ((0, 1, -4), (2, 0, 9))))
    path = _entry(tmp_path, "matrix")
    path.write_text(path.read_text().replace("[0,1,-4]", "[0,1,-5]"))
    assert cache.load_matrix(key) is None


def test_matrix_with_wrong_types_is_a_miss(tmp_path):
    cache = Cache(str(tmp_path))
    key = {"probe": "types"}
    cache.store_matrix(key, SparseIntMatrix(1, 1, ((0, 0, 1),)))
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
        assert cache.load_matrix(key) is None, doc


def test_undecodable_entry_is_a_miss(tmp_path):
    cache = Cache(str(tmp_path))
    key = {"probe": "bytes"}
    cache.store_matrix(key, SparseIntMatrix(1, 1, ((0, 0, 1),)))
    _entry(tmp_path, "matrix").write_bytes(b"\xff\xfe\x00")
    assert cache.load_matrix(key) is None


def test_table_without_payload_is_a_miss(tmp_path):
    cache = Cache(str(tmp_path))
    key = {"probe": "no payload"}
    cache.store_table(key, {"rows": []})
    path = _entry(tmp_path, "table")
    _rewrite(path, "table", None, body="")  # a header and nothing after it
    assert cache.load_table(key) is None
    for doc in ([], None, 1):
        _rewrite(path, "table", doc)
        assert cache.load_table(key) is None
