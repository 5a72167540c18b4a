"""Exact linear algebra: rank oracles, modular certification, assembly."""
import random

import pytest
from hypothesis import given, settings, strategies as st

from ribboncoh.canonical import EVEN
from ribboncoh.checks import _dense_fraction_rank
from ribboncoh.complexes import ComplexSpec, build
from ribboncoh.diff import delta
from ribboncoh.enumeration import EnumSpec, enumerate_classes
from ribboncoh.linalg import (
    CERTIFICATION_PRIMES,
    AssemblyError,
    SparseIntMatrix,
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
    m = SparseIntMatrix(2, 2, ((0, 0, 0), (1, 1, 3)))
    assert m.nnz == 1  # explicit zeros dropped


def test_triplet_round_trip():
    m = SparseIntMatrix(3, 4, ((0, 1, -5), (2, 3, 7)))
    assert SparseIntMatrix.from_triplet_text(m.to_triplet_text()) == m
    with pytest.raises(ValueError):
        SparseIntMatrix.from_triplet_text("2 2 3\n0 0 1\n")


def test_matmul_and_transpose():
    a = SparseIntMatrix(2, 3, ((0, 0, 1), (0, 2, 2), (1, 1, -1)))
    b = SparseIntMatrix(3, 2, ((0, 0, 3), (1, 0, 1), (2, 1, 4)))
    ab = a.matmul(b)
    assert ab == SparseIntMatrix(2, 2, ((0, 0, 3), (0, 1, 8), (1, 0, -1)))
    assert a.transpose().transpose() == a
    with pytest.raises(ValueError):
        b.matmul(a.transpose())


def test_rank_frozen_examples():
    assert rank(SparseIntMatrix(3, 3, ())) == 0
    ident = SparseIntMatrix(3, 3, tuple((i, i, 1) for i in range(3)))
    assert rank(ident) == 3
    # rank-1 outer product
    outer = SparseIntMatrix(3, 3, tuple((i, j, (i + 1) * (j + 1)) for i in range(3) for j in range(3)))
    assert rank(outer) == 1


def _agrees_with_oracles(m):
    r = rank(m)
    assert r == _dense_fraction_rank(m)
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


def test_is_probable_prime():
    assert is_probable_prime(2) and is_probable_prime(1000003)
    assert not is_probable_prime(1) and not is_probable_prime(1000001)


def test_rank_modp_divergence():
    # the matrix [[p]] has rational rank 1 but rank 0 mod p
    p = CERTIFICATION_PRIMES[0]
    m = SparseIntMatrix(1, 1, ((0, 0, p),))
    assert rank(m) == 1
    assert rank_modp(m, p) == 0
    assert rank_modp(m, CERTIFICATION_PRIMES[1]) == 1
    r, cert = certified_rank(m)
    assert r == 1 and not cert


def test_rank_modp_rejects_composite():
    with pytest.raises(ValueError):
        rank_modp(SparseIntMatrix(1, 1, ((0, 0, 1),)), 1000001)


def test_certified_rank_on_differential():
    dom, _ = enumerate_classes(EnumSpec(1, 1, 3, 3, EVEN))
    codom, _ = enumerate_classes(EnumSpec(1, 1, 4, 3, EVEN))
    m = assemble(dom, codom, delta)
    r, cert = certified_rank(m)
    assert cert
    assert r == _dense_fraction_rank(m)


def test_assemble_detects_missing_codomain():
    dom, _ = enumerate_classes(EnumSpec(0, 2, 3, 1, EVEN))
    assert any(not delta(cls).is_zero() for cls in dom)
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
    assert r == _dense_fraction_rank(m)
    assert r == rank(m.transpose())
    assert all(rank_modp(m, p) <= r for p in CERTIFICATION_PRIMES)


@settings(max_examples=40, deadline=None)
@given(matrices())
def test_triplet_round_trip_property(m):
    assert SparseIntMatrix.from_triplet_text(m.to_triplet_text()) == m
