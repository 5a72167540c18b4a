"""Exact linear algebra: rank oracles, modular certification, assembly."""
from array import array
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from ribboncoh.cache import Cache
from ribboncoh.canonical import EVEN
from ribboncoh.complexes import ComplexSpec, build
from ribboncoh.diff import delta
from ribboncoh.enumeration import EnumSpec, enumerate_classes
from ribboncoh.linalg import (
    CERTIFICATION_PRIMES,
    RETRY_PRIME,
    AssemblyError,
    RankProofError,
    SparseIntMatrix,
    _pivots_modp,
    _proved_rank,
    assemble,
    certified_rank,
    is_probable_prime,
    rank,
    rank_modp,
)


def test_matrix_validation():
    with pytest.raises(ValueError):
        SparseIntMatrix(2, 2, ((0, 0, 1), (0, 0, 2)))  # duplicate
    with pytest.raises(ValueError):
        SparseIntMatrix(2, 2, ((2, 0, 1),))  # out of range
    for rows in (-1, "2", 2.0):
        with pytest.raises(ValueError):
            SparseIntMatrix(rows, 2)  # dimensions are non-negative ints
    for entry in ((0, 0, "5"), (1, 1, 1.5), (0.5, 0, 1), (0, 1.0, 1), (0, 0, None)):
        with pytest.raises(ValueError, match="integers"):
            SparseIntMatrix(2, 2, (entry,))  # indices and entries are ints
    m = SparseIntMatrix(2, 2, ((0, 0, 0), (1, 1, 3)))
    assert m.nnz == 1  # explicit zeros dropped


def test_matrix_from_arrays_is_checked():
    # from_csr keeps its sequences as they are, once one pass has found
    # each row's columns strictly increasing and in range and every value
    # a nonzero int
    m = SparseIntMatrix.from_csr(2, 3, array("I", [0, 2, 3]), array("I", [0, 2, 1]), [1, -2, 5])
    assert m == SparseIntMatrix(2, 3, ((1, 1, 5), (0, 2, -2), (0, 0, 1)))
    assert m.entries == ((0, 0, 1), (0, 2, -2), (1, 1, 5))
    for indptr, indices, values in (
        ([0, 2, 3], [2, 0, 1], [1, 1, 1]),  # columns out of order
        ([0, 2, 3], [0, 0, 1], [1, 1, 1]),  # a repeated column
        ([0, 2, 3], [0, 3, 1], [1, 1, 1]),  # out of range
        ([0, 2, 3], [0, 2, 1], [1, 0, 1]),  # an explicit zero
        ([0, 2, 3], [0, 2, 1], [1, 1.0, 1]),  # not an int
        ([0, 2], [0, 2], [1, 1]),  # too few row pointers
        ([0, 2, 1], [0, 2, 1], [1, 1, 1]),  # pointers that fall
        ([0, 2, 3], [0, 2, 1], [1, 1]),  # fewer values than columns
    ):
        with pytest.raises(ValueError):
            SparseIntMatrix.from_csr(2, 3, array("I", indptr), array("I", indices), values)


def test_matrix_holds_no_tuple_per_entry():
    # 4 bytes of column index and an 8-byte value slot an entry, small
    # values shared; a tuple per entry alone is 64 bytes
    n = 30_000
    tracemalloc.start()
    try:
        m = SparseIntMatrix(3000, 1000, tuple((r // 10, (r * 7) % 1000, r % 5 - 2 or 3) for r in range(n)))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert m.nnz == n
    assert held < 32 * n, held


def test_a_huge_entry_survives_products_transposes_and_the_cache(tmp_path):
    # values stay Python ints, of any size
    big = 2**70
    m = SparseIntMatrix(2, 3, ((0, 1, big), (1, 0, -3), (1, 2, 1)))
    assert m.transpose().entries == ((0, 1, -3), (1, 0, big), (2, 1, 1))
    assert m.transpose().transpose() == m
    assert m.matmul(m.transpose()).entries == ((0, 0, big * big), (1, 1, 10))
    cache = Cache(str(tmp_path))
    spec = ComplexSpec("mw", 1, 0, "ge3", 2, 7)
    cache.store_matrix(spec, 2, m)
    assert cache.load_matrix(spec, 2) == m


def test_matmul_and_transpose():
    a = SparseIntMatrix(2, 3, ((0, 0, 1), (0, 2, 2), (1, 1, -1)))
    b = SparseIntMatrix(3, 2, ((0, 0, 3), (1, 0, 1), (2, 1, 4)))
    ab = a.matmul(b)
    assert ab == SparseIntMatrix(2, 2, ((0, 0, 3), (0, 1, 8), (1, 0, -1)))
    assert a.transpose().transpose() == a
    with pytest.raises(ValueError):
        b.matmul(a.transpose())


def _dense(m):
    a = [[0] * m.cols for _ in range(m.rows)]
    for r, c, v in m.entries:
        a[r][c] = v
    return a


def test_matmul_matches_the_dense_product():
    # random sparse products, row by row against the textbook product; a
    # few rows of a cancel against a row dependency of b, some rows are
    # empty, and some shapes have no rows or no columns
    rng = random.Random(7)
    cancelled = 0
    for trial in range(300):
        n, k, m = rng.randint(0, 7), rng.randint(0, 7), rng.randint(0, 7)
        a_ent = {(rng.randrange(n), rng.randrange(k)): rng.randint(-3, 3) for _ in range(rng.randint(0, n * k))}
        b_ent = {(rng.randrange(k), rng.randrange(m)): rng.randint(-3, 3) for _ in range(rng.randint(0, k * m))}
        if k >= 2 and n >= 1 and trial % 3 == 0:
            # b's row 1 is twice its row 0, and a's last row is (2, -1, 0, ...)
            b_ent = {key: v for key, v in b_ent.items() if key[0] != 1}
            b_ent.update({(1, c): 2 * v for (r, c), v in list(b_ent.items()) if r == 0})
            a_ent = {key: v for key, v in a_ent.items() if key[0] != n - 1}
            a_ent.update({(n - 1, 0): 2, (n - 1, 1): -1})
        a = SparseIntMatrix(n, k, tuple((r, c, v) for (r, c), v in a_ent.items()))
        b = SparseIntMatrix(k, m, tuple((r, c, v) for (r, c), v in b_ent.items()))
        da, db = _dense(a), _dense(b)
        want = [[sum(da[i][t] * db[t][j] for t in range(k)) for j in range(m)] for i in range(n)]
        ab = a.matmul(b)
        assert (ab.rows, ab.cols) == (n, m) and _dense(ab) == want
        assert list(ab.entries) == sorted(ab.entries)
        assert all(v != 0 for _, _, v in ab.entries)
        assert len({(r, c) for r, c, _ in ab.entries}) == ab.nnz
        cancelled += sum(any(da[i]) and not any(want[i]) for i in range(n))
    assert cancelled > 20


def test_rank_frozen_examples():
    assert rank(SparseIntMatrix(3, 3, ())) == 0
    ident = SparseIntMatrix(3, 3, tuple((i, i, 1) for i in range(3)))
    assert rank(ident) == 3
    # rank-1 outer product
    outer = SparseIntMatrix(3, 3, tuple((i, j, (i + 1) * (j + 1)) for i in range(3) for j in range(3)))
    assert rank(outer) == 1


def _agrees_with_oracles(m):
    r = rank(m)
    assert [rank_modp(m, p) for p in CERTIFICATION_PRIMES] == [r, r]
    return r


def _random_matrix(rng, rows, cols, bound, density=0.5):
    ent = tuple(
        (r, c, rng.randint(-bound, bound))
        for r in range(rows)
        for c in range(cols)
        if rng.random() < density
    )
    return SparseIntMatrix(rows, cols, ent)


def test_rank_of_rank_deficient_products():
    # A (rows x k) times B (k x cols) with k below both outer dimensions
    # has rank at most k, so the elimination must cancel rows exactly
    rng = random.Random(20261018)
    for _ in range(30):
        rows, cols = rng.randint(4, 16), rng.randint(4, 16)
        k = rng.randint(1, min(rows, cols) - 1)
        a = _random_matrix(rng, rows, k, 9, density=0.7)
        b = _random_matrix(rng, k, cols, 9, density=0.7)
        assert _agrees_with_oracles(a.matmul(b)) <= k


def test_rank_with_large_entries():
    rng = random.Random(1012)
    for _ in range(15):
        rows, cols = rng.randint(1, 12), rng.randint(1, 12)
        _agrees_with_oracles(_random_matrix(rng, rows, cols, 10**12))
    for _ in range(15):
        rows, cols = rng.randint(4, 12), rng.randint(4, 12)
        k = rng.randint(1, min(rows, cols) - 1)
        a = _random_matrix(rng, rows, k, 10**6, density=0.8)
        b = _random_matrix(rng, k, cols, 10**6, density=0.8)
        assert _agrees_with_oracles(a.matmul(b)) <= k


def _dense_modp_rank(m, p):
    """Textbook dense elimination mod p, the oracle of rank_modp."""
    a = [[0] * m.cols for _ in range(m.rows)]
    for r, c, v in m.entries:
        a[r][c] = v % p
    rnk = 0
    for c in range(m.cols):
        piv = next((r for r in range(rnk, m.rows) if a[r][c]), None)
        if piv is None:
            continue
        a[rnk], a[piv] = a[piv], a[rnk]
        inv = pow(a[rnk][c], p - 2, p)
        for r in range(m.rows):
            if r != rnk and a[r][c]:
                f = a[r][c] * inv % p
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[rnk])]
        rnk += 1
    return rnk


def _sparse_matrix(rng, rows, cols, per_row):
    # entries in -2..2, a few per row, so that pivots fill rows in and
    # updates cancel entries
    ent = {}
    for r in range(rows):
        for c in rng.sample(range(cols), min(cols, rng.randint(0, per_row))):
            ent[(r, c)] = rng.choice((-2, -1, 1, 2))
    return SparseIntMatrix(rows, cols, tuple((r, c, v) for (r, c), v in ent.items()))


def _sparse_test_matrices():
    rng = random.Random(4040)
    mats = []
    for _ in range(12):
        rows, cols = rng.randint(20, 40), rng.randint(20, 40)
        mats.append(_sparse_matrix(rng, rows, cols, 6))
    for _ in range(12):
        rows, cols = rng.randint(20, 40), rng.randint(20, 40)
        k = rng.randint(5, min(rows, cols) - 5)
        a = _sparse_matrix(rng, rows, k, 3)
        b = _sparse_matrix(rng, k, cols, 3)
        mats.append(a.matmul(b))
    return mats


def test_sparse_rank_matches_dense_oracle():
    ranks = []
    for m in _sparse_test_matrices():
        r = rank(m)
        ranks.append((r, m.rows, m.cols))
    # the set covers full-rank and rank-deficient matrices alike
    assert any(r == min(rows, cols) for r, rows, cols in ranks)
    assert any(r < min(rows, cols) for r, rows, cols in ranks)


def test_sparse_rank_modp_matches_dense_modp_oracle():
    mats = _sparse_test_matrices()
    for p in (2, 3, 1000003):
        ranks = [rank_modp(m, p) for m in mats]
        assert ranks == [_dense_modp_rank(m, p) for m in mats]
    # small primes see a rank drop that the large one does not
    assert [rank_modp(m, 2) for m in mats] != [rank_modp(m, 1000003) for m in mats]


def test_rank_of_assembled_mw_genus0_matrix():
    sl = build(ComplexSpec("mw", 0, sector="ge3", e_min=5, e_max=6))
    m = sl.matrices[5]
    assert (m.rows, m.cols) == (141, 34)
    assert _agrees_with_oracles(m) == 29
    assert _agrees_with_oracles(m.transpose()) == 29


def test_certification_primes_are_large_primes():
    assert len(CERTIFICATION_PRIMES) == 2
    for p in CERTIFICATION_PRIMES:
        assert p > 10**6
        assert is_probable_prime(p)
    # the retry's lift prime is too large to vet by trial division: a
    # Mersenne prime, which a Fermat witness does not refute
    assert RETRY_PRIME == 2**61 - 1 and pow(3, RETRY_PRIME - 1, RETRY_PRIME) == 1


def test_is_probable_prime():
    assert is_probable_prime(2) and is_probable_prime(1000003)
    assert not is_probable_prime(1) and not is_probable_prime(1000001)


def test_rank_drop_at_a_prime_proves_at_the_retry_or_raises():
    # [[p]] has rational rank 1 but rank 0 mod p.  At the lift prime its
    # kernel vector fails M K = 0, and the retry proves rank 1; at the
    # minor prime its pivot minor vanishes on both tries, so no rank returns
    p, q = CERTIFICATION_PRIMES
    for prime in (p, q):
        m = SparseIntMatrix(1, 1, ((0, 0, prime),))
        assert rank(m) == 1
        assert rank_modp(m, prime) == 0
        assert _proved_rank(m, p) is None
    assert certified_rank(SparseIntMatrix(1, 1, ((0, 0, p),))) == 1
    with pytest.raises(RankProofError):
        certified_rank(SparseIntMatrix(1, 1, ((0, 0, q),)))


def test_proof_retries_a_lift_beyond_its_bound():
    # the kernel vector (-1000, 1) has an entry past isqrt(p / 2) = 707 at
    # the first lift prime, and within the bound at the retry
    m = SparseIntMatrix(1, 2, ((0, 0, 1), (0, 1, 1000)))
    assert _proved_rank(m, CERTIFICATION_PRIMES[0]) is None
    assert _proved_rank(m, RETRY_PRIME) == 1
    assert certified_rank(m) == 1


def test_proof_raises_on_a_singular_pivot_minor():
    # the kernel lifts to (-2, 1) and M K = 0, but the pivot minor [q]
    # vanishes mod q on both tries: no rank is returned unproved
    q = CERTIFICATION_PRIMES[1]
    m = SparseIntMatrix(1, 2, ((0, 0, q), (0, 1, 2 * q)))
    assert _proved_rank(m, CERTIFICATION_PRIMES[0]) is None
    with pytest.raises(RankProofError):
        certified_rank(m)


def test_proved_rank_is_the_exact_rank():
    # on the sparse test matrices, full rank and rank-deficient alike, the
    # proof gives the exact rank or nothing (a kernel entry past the lift
    # bound: 2 of these 24), and the retry proves those two
    mats = _sparse_test_matrices()
    exact = [rank(m) for m in mats]
    proved = [_proved_rank(m, CERTIFICATION_PRIMES[0]) for m in mats]
    assert all(r is None or r == e for r, e in zip(proved, exact))
    assert sum(r is not None for r in proved) == 22
    assert any(r is not None and r < min(m.rows, m.cols) for r, m in zip(proved, mats))
    assert [certified_rank(m) for m in mats] == exact


def test_rank_modp_rejects_composite():
    with pytest.raises(ValueError):
        rank_modp(SparseIntMatrix(1, 1, ((0, 0, 1),)), 1000001)


def test_certified_rank_on_differential():
    dom, _ = enumerate_classes(EnumSpec(1, 1, 3, 3, EVEN))
    codom, _ = enumerate_classes(EnumSpec(1, 1, 4, 3, EVEN))
    m = assemble(dom, codom, delta)
    assert certified_rank(m) == rank(m)


def test_assemble_detects_missing_codomain():
    dom, _ = enumerate_classes(EnumSpec(0, 2, 3, 1, EVEN))
    assert any(delta(cls) for cls in dom)
    with pytest.raises(AssemblyError):
        assemble(dom, [], delta)


@st.composite
def matrices(draw):
    rows = draw(st.integers(0, 8))
    cols = draw(st.integers(0, 8))
    ent = draw(
        st.dictionaries(
            st.tuples(st.integers(0, max(rows - 1, 0)), st.integers(0, max(cols - 1, 0))),
            st.integers(-30, 30),
            max_size=20,
        )
        if rows and cols
        else st.just({})
    )
    return SparseIntMatrix(rows, cols, tuple((r, c, v) for (r, c), v in ent.items()))


@settings(max_examples=80, deadline=None)
@given(matrices())
def test_rank_matches_dense_oracle(m):
    r = rank(m)
    assert r == rank(m.transpose())
    assert all(rank_modp(m, p) <= r for p in CERTIFICATION_PRIMES)
    assert certified_rank(m) == r


def _echelon_ok(m, p):
    """True when _pivots_modp's pivots keep their contract: rows of m, in
    pivot order, each scaled to 1 at its column and holding no other
    pivot's column, as many as the rank mod p; and the vector read off
    them for each free column f, 1 at f and minus row c's entry at f at
    each pivot column c, satisfies M x = 0 mod p."""
    pivots = _pivots_modp(m, p)
    cols = {pc for _, pc, _ in pivots}
    for i, pc, row in pivots:
        if not (0 <= i < m.rows and row.get(pc) == 1 and cols & row.keys() == {pc}):
            return False
    for f in set(range(m.cols)) - cols:
        x = {f: 1, **{pc: -row[f] for _, pc, row in pivots if f in row}}
        if any(sum(v * x.get(c, 0) for c, v in m.row_items(r)) % p for r in range(m.rows)):
            return False
    return len({i for i, _, _ in pivots}) == len(pivots) == len(cols) == rank_modp(m, p)


def test_pivots_are_an_echelon_form():
    p = CERTIFICATION_PRIMES[0]
    mats = _sparse_test_matrices()
    assert all(_echelon_ok(m, p) and _echelon_ok(m.transpose(), p) for m in mats)
    assert all(_echelon_ok(m, 3) for m in mats)  # a small prime, whose updates cancel more
    block = build(ComplexSpec("mw", 0, sector="ge3", e_min=5, e_max=6)).matrices[5]
    assert _echelon_ok(block, p) and _echelon_ok(block.transpose(), p)


def _tall_low_rank(rows, cols, rank_, seed):
    """A rows x cols matrix of rank at most rank_: each row is one or two
    of rank_ sparse base rows, times small multipliers."""
    rng = random.Random(seed)
    base = [{c: rng.choice((-2, -1, 1, 2)) for c in rng.sample(range(cols), 3)} for _ in range(rank_)]
    ent = []
    for r in range(rows):
        row: dict = {}
        for b in rng.sample(base, rng.randint(1, 2)):
            a = rng.choice((-1, 1, 3))
            for c, v in b.items():
                row[c] = row.get(c, 0) + a * v
        ent.extend((r, c, v) for c, v in row.items() if v)
    return SparseIntMatrix(rows, cols, ent)


def test_elimination_holds_its_pivot_rows_not_every_row():
    # a row dict alone costs more than 24 bytes (an empty one is 64), so
    # an elimination that held every row would pass the bound many times
    m = _tall_low_rank(4000, 40, 12, 7)
    p = CERTIFICATION_PRIMES[0]
    tracemalloc.start()
    try:
        pivots = _pivots_modp(m, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < len(pivots) == rank_modp(m, p) <= 12
    assert peak < 24 * m.rows, peak


@st.composite
def shaped_matrices(draw):
    """A tall, a wide or a cancelling matrix, the last a product A B
    through a narrow middle, whose entries cancel as they are eliminated."""
    shape = draw(st.sampled_from(("tall", "wide", "cancelling")))
    entry = st.integers(-3, 3)
    if shape == "cancelling":
        rows, mid, cols = draw(st.integers(1, 12)), draw(st.integers(1, 4)), draw(st.integers(1, 12))
        a = draw(st.lists(st.lists(entry, min_size=mid, max_size=mid), min_size=rows, max_size=rows))
        b = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=mid, max_size=mid))
        dense = [[sum(x * y for x, y in zip(r, col)) for col in zip(*b)] for r in a]
    else:
        long, short = draw(st.integers(8, 24)), draw(st.integers(1, 5))
        rows, cols = (long, short) if shape == "tall" else (short, long)
        dense = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    return SparseIntMatrix(rows, cols, tuple(
        (r, c, v) for r, row in enumerate(dense) for c, v in enumerate(row) if v
    ))


@settings(max_examples=120, deadline=None)
@given(shaped_matrices())
def test_certified_rank_matches_the_dense_fraction_rank(m):
    assert certified_rank(m) == rank(m)
    assert _echelon_ok(m, CERTIFICATION_PRIMES[0])
