"""On-disk cache: round trips, corruption handling, disabled mode."""
import json

from ribboncoh.cache import FORMAT_VERSION, NO_CACHE, Cache, default_cache_dir, spec_hash
from ribboncoh.canonical import EVEN
from ribboncoh.enumeration import EnumSpec, enumerate_classes
from ribboncoh.linalg import SparseIntMatrix


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
    classes, zero = enumerate_classes(EnumSpec(1, 2, 3, 3, EVEN))
    key = {"probe": "basis"}
    assert cache.load_basis(key) is None
    cache.store_basis(key, classes, zero)
    got_classes, got_zero = cache.load_basis(key)
    assert got_classes == classes
    assert got_zero == zero


def test_basis_corruption_is_a_miss(tmp_path):
    cache = Cache(str(tmp_path))
    classes, zero = enumerate_classes(EnumSpec(1, 2, 3, 3, EVEN))
    key = {"probe": "corrupt"}
    cache.store_basis(key, classes, zero)
    (path,) = [p for p in tmp_path.iterdir() if p.name.startswith("basis-")]
    text = path.read_text()
    path.write_text(text.replace('"parity": 0', '"parity": 1'))  # breaks the hash
    assert cache.load_basis(key) is None
    path.write_text("# ribboncoh basis v999 zero_classes=0\n")
    assert cache.load_basis(key) is None


def test_matrix_round_trip(tmp_path):
    cache = Cache(str(tmp_path))
    m = SparseIntMatrix(3, 2, ((0, 1, -4), (2, 0, 9)))
    key = {"probe": "matrix"}
    assert cache.load_matrix(key) is None
    cache.store_matrix(key, m)
    assert cache.load_matrix(key) == m
    (path,) = [p for p in tmp_path.iterdir() if p.name.startswith("matrix-")]
    path.write_text("# something else\n1 1 0\n")
    assert cache.load_matrix(key) is None


def test_table_round_trip(tmp_path):
    cache = Cache(str(tmp_path))
    payload = {"rows": [{"h": 1}], "note": "x"}
    key = {"probe": "table"}
    cache.store_table(key, payload)
    assert cache.load_table(key) == payload
    (path,) = [p for p in tmp_path.iterdir() if p.name.startswith("table-")]
    path.write_text("not json")
    assert cache.load_table(key) is None


def test_no_stray_temp_files(tmp_path):
    cache = Cache(str(tmp_path))
    cache.store_table({"k": "v"}, {"data": 1})
    assert not [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]


def test_basis_with_wrong_types_is_a_miss(tmp_path):
    class Malformed:
        def to_json(self):
            return {"sigma0": 5, "sigma1": [1, 0], "parity": 0, "zero": False, "hash": "x"}

    cache = Cache(str(tmp_path))
    key = {"probe": "types"}
    cache.store_basis(key, [Malformed()], 0)
    assert cache.load_basis(key) is None


def test_basis_with_a_line_deleted_is_a_miss(tmp_path):
    cache = Cache(str(tmp_path))
    classes, zero = enumerate_classes(EnumSpec(1, 2, 3, 3, EVEN))
    assert len(classes) >= 2
    key = {"probe": "truncated"}
    cache.store_basis(key, classes, zero)
    (path,) = [p for p in tmp_path.iterdir() if p.name.startswith("basis-")]
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    assert cache.load_basis(key) is None


def test_matrix_edited_in_place_is_a_miss(tmp_path):
    cache = Cache(str(tmp_path))
    key = {"probe": "edited"}
    cache.store_matrix(key, SparseIntMatrix(3, 2, ((0, 1, -4), (2, 0, 9))))
    (path,) = [p for p in tmp_path.iterdir() if p.name.startswith("matrix-")]
    path.write_text(path.read_text().replace("0 1 -4", "0 1 -5"))
    assert cache.load_matrix(key) is None


def test_undecodable_entry_is_a_miss(tmp_path):
    cache = Cache(str(tmp_path))
    key = {"probe": "bytes"}
    cache.store_matrix(key, SparseIntMatrix(1, 1, ((0, 0, 1),)))
    (path,) = [p for p in tmp_path.iterdir() if p.name.startswith("matrix-")]
    path.write_bytes(b"\xff\xfe\x00")
    assert cache.load_matrix(key) is None


def test_table_without_payload_is_a_miss(tmp_path):
    cache = Cache(str(tmp_path))
    key = {"probe": "no payload"}
    cache.store_table(key, {"rows": []})
    (path,) = [p for p in tmp_path.iterdir() if p.name.startswith("table-")]
    path.write_text(json.dumps({"version": FORMAT_VERSION}))
    assert cache.load_table(key) is None

