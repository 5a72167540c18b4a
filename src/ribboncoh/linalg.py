"""Exact sparse linear algebra over arbitrary-precision integers.

Both ranks eliminate the same way: the shortest remaining row is the
pivot row and its smallest column the pivot column, and only rows holding
that column change.  ``rank`` works over the integers, clearing the column
by the cross multiples that the gcd of the two entries leaves and dividing
each new row by the gcd of its entries; ``rank_modp`` works modulo a prime
and serves as the independent certification oracle.  No floating point
anywhere.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from .diff import FormalSum


class AssemblyError(ValueError):
    """An operator image left the span of the codomain basis."""


@dataclass(frozen=True)
class SparseIntMatrix:
    rows: int
    cols: int
    entries: tuple = field(default_factory=tuple)  # sorted (row, col, value)

    def __post_init__(self):
        ent = []
        seen = set()
        for r, c, v in self.entries:
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise ValueError("entry index out of range")
            if (r, c) in seen:
                raise ValueError("duplicate entry")
            seen.add((r, c))
            if v != 0:
                ent.append((r, c, int(v)))
        object.__setattr__(self, "entries", tuple(sorted(ent)))

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def row_dicts(self) -> list[dict]:
        rows = [dict() for _ in range(self.rows)]
        for r, c, v in self.entries:
            rows[r][c] = v
        return rows

    def transpose(self) -> "SparseIntMatrix":
        return SparseIntMatrix(
            self.cols, self.rows, tuple((c, r, v) for r, c, v in self.entries)
        )

    def matmul(self, other: "SparseIntMatrix") -> "SparseIntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        other_rows = other.row_dicts()
        acc: dict = {}
        # accumulate self[r,k] * other[k,c]
        for r, k, v in self.entries:
            for c, w in other_rows[k].items():
                acc[(r, c)] = acc.get((r, c), 0) + v * w
        ent = tuple((r, c, v) for (r, c), v in acc.items() if v != 0)
        return SparseIntMatrix(self.rows, other.cols, ent)

    def is_zero(self) -> bool:
        return not self.entries

    def to_triplet_text(self) -> str:
        lines = ["%d %d %d" % (self.rows, self.cols, self.nnz)]
        lines.extend("%d %d %d" % e for e in self.entries)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_triplet_text(cls, text: str) -> "SparseIntMatrix":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        rows, cols, nnz = map(int, lines[0].split())
        ent = tuple(tuple(map(int, ln.split())) for ln in lines[1 : nnz + 1])
        if len(ent) != nnz:
            raise ValueError("triplet header count disagrees with data")
        return cls(rows, cols, ent)


def assemble(domain_basis, codomain_basis, operator) -> SparseIntMatrix:
    """Matrix of a linear operator: column j expands operator(domain[j])
    in the codomain basis.  Output classes missing from the codomain are a
    hard error (the basis is under-enumerated)."""
    index = {cls: i for i, cls in enumerate(codomain_basis)}
    entries = []
    for j, cls in enumerate(domain_basis):
        image: FormalSum = operator(cls)
        for ocls, coeff in image.terms():
            row = index.get(ocls)
            if row is None:
                raise AssemblyError(
                    "image class %s not in codomain basis" % ocls.content_hash()
                )
            entries.append((row, j, coeff))
    return SparseIntMatrix(len(codomain_basis), len(domain_basis), tuple(entries))


def rank(m: SparseIntMatrix) -> int:
    """Exact rank over the rationals, fraction-free elimination."""
    rows = [r for r in m.row_dicts() if r]
    rnk = 0
    while rows:
        pivot_row = rows.pop(min(range(len(rows)), key=lambda i: len(rows[i])))
        pc = min(pivot_row)
        pv = pivot_row[pc]
        rnk += 1
        new_rows = []
        for r in rows:
            w = r.get(pc)
            if w is None:
                new_rows.append(r)
                continue
            g = gcd(pv, w)
            a, b = pv // g, w // g
            out = {}
            for c in set(r) | set(pivot_row):
                if c == pc:
                    continue
                nv = a * r.get(c, 0) - b * pivot_row.get(c, 0)
                if nv:
                    out[c] = nv
            if out:
                content = gcd(*out.values())
                new_rows.append({c: v // content for c, v in out.items()})
        rows = new_rows
    return rnk


def is_probable_prime(p: int) -> bool:
    if p < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if p % q == 0:
            return p == q
    d = p - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def rank_modp(m: SparseIntMatrix, p: int) -> int:
    """Rank of the reduction mod p; a lower bound for the rational rank."""
    if not is_probable_prime(p):
        raise ValueError("%d is not prime" % p)
    rows = []
    for r in m.row_dicts():
        rr = {c: v % p for c, v in r.items() if v % p}
        if rr:
            rows.append(rr)
    rnk = 0
    while rows:
        pivot_row = min(rows, key=len)
        rows.remove(pivot_row)
        pc = min(pivot_row)
        pv_inv = pow(pivot_row[pc], p - 2, p)
        pivot = {c: v * pv_inv % p for c, v in pivot_row.items()}
        rnk += 1
        new_rows = []
        for r in rows:
            w = r.get(pc)
            if w is None:
                new_rows.append(r)
                continue
            out = {}
            for c in set(r) | set(pivot):
                if c == pc:
                    continue
                nv = (r.get(c, 0) - pivot.get(c, 0) * w) % p
                if nv:
                    out[c] = nv
            if out:
                new_rows.append(out)
        rows = new_rows
    return rnk


CERTIFICATION_PRIMES = (1000003, 2000003)


def certified_rank(m: SparseIntMatrix, primes=CERTIFICATION_PRIMES) -> tuple[int, bool]:
    """(rational rank, certificate) with certification by agreement with
    modular ranks at independent large primes."""
    r = rank(m)
    return r, all(rank_modp(m, p) == r for p in primes)


class DifferentialIdentityError(ValueError):
    """Consecutive differentials failed to compose to zero."""
