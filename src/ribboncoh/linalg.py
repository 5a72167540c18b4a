"""Exact sparse linear algebra over arbitrary-precision integers.

Both ranks eliminate by the same rule.  The pivot row is a shortest
remaining row; its pivot column is the one of its columns listed with the
fewest rows, the smallest index among equals (Markowitz's heuristic: few
rows to update, little fill-in).  Each column keeps a list of the rows that
hold it, and a pivot visits only the rows on its column's list.  A row
that gains a column through fill-in is appended to that column's list; a
row that loses one by cancellation stays listed and is skipped when met.
Rows are queued by length, so the shortest row is found without a scan; a
row queued at a length it has since left is skipped the same way.

``rank`` works over the integers, clearing the column by the cross
multiples that the gcd of the two entries leaves and dividing each new row
by the gcd of its entries; ``rank_modp`` works modulo a prime.  The two
keep separate loops on purpose: ``rank_modp`` is the certification oracle
of ``rank``, and a fault in one shared loop would pass both.  No floating
point anywhere.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, isqrt


class AssemblyError(ValueError):
    """An operator image left the span of the codomain basis."""


@dataclass(frozen=True)
class SparseIntMatrix:
    rows: int
    cols: int
    entries: tuple = field(default_factory=tuple)  # sorted (row, col, value)

    def __post_init__(self):
        if not all(isinstance(n, int) and n >= 0 for n in (self.rows, self.cols)):
            raise ValueError("matrix dimensions must be non-negative integers")
        ent = []
        seen = set()
        for r, c, v in self.entries:
            if not (isinstance(r, int) and isinstance(c, int) and isinstance(v, int)):
                raise ValueError("matrix indices and entries must be integers")
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise ValueError("entry index out of range")
            if (r, c) in seen:
                raise ValueError("duplicate entry")
            seen.add((r, c))
            if v != 0:
                ent.append((r, c, v))
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


def assemble(domain_basis, codomain_basis, operator) -> SparseIntMatrix:
    """Matrix of a linear operator: column j expands operator(domain[j]),
    a dict class -> int, in the codomain basis.  Output classes missing from the codomain are a
    hard error (the basis is under-enumerated)."""
    index = {cls: i for i, cls in enumerate(codomain_basis)}
    entries = []
    for j, cls in enumerate(domain_basis):
        for ocls, coeff in operator(cls).items():
            row = index.get(ocls)
            if row is None:
                raise AssemblyError(
                    "image class %s not in codomain basis" % ocls.content_hash()
                )
            entries.append((row, j, coeff))
    return SparseIntMatrix(len(codomain_basis), len(domain_basis), tuple(entries))


def rank(m: SparseIntMatrix) -> int:
    """Exact rank over the rationals, fraction-free elimination."""
    rows = m.row_dicts()
    holders = [[] for _ in range(m.cols)]  # column -> rows listed as holding it
    by_len = [[] for _ in range(m.cols + 1)]  # length -> rows queued at it
    for i, r in enumerate(rows):
        for c in r:
            holders[c].append(i)
        by_len[len(r)].append(i)
    rnk = 0
    short = 1
    while short <= m.cols:
        if not by_len[short]:
            short += 1
            continue
        i = by_len[short].pop()
        pivot_row = rows[i]
        if len(pivot_row) != short:  # queued at a length it has since left
            continue
        rows[i] = {}
        rnk += 1
        pc = min(pivot_row, key=lambda c: (len(holders[c]), c))
        pv = pivot_row[pc]
        for j in holders[pc]:
            r = rows[j]
            w = r.get(pc)
            if w is None:  # a row that has lost the column, or the pivot row
                continue
            g = gcd(pv, w)
            a, b = pv // g, w // g
            if a != 1:
                for c in r:
                    r[c] *= a
            for c, v in pivot_row.items():
                if c not in r:
                    r[c] = -b * v
                    holders[c].append(j)
                else:
                    nv = r[c] - b * v
                    if nv:
                        r[c] = nv
                    else:
                        del r[c]
            if r:
                content = gcd(*r.values())
                if content != 1:
                    for c in r:
                        r[c] //= content
                by_len[len(r)].append(j)
                short = min(short, len(r))
        holders[pc] = []
    return rnk


def is_probable_prime(p: int) -> bool:
    """Primality by trial division up to sqrt(p): exact, and quick for the
    moduli it vets, the certification primes (below 2^21)."""
    return p >= 2 and all(p % q for q in range(2, isqrt(p) + 1))


def rank_modp(m: SparseIntMatrix, p: int) -> int:
    """Rank of the reduction mod p; a lower bound for the rational rank."""
    if not is_probable_prime(p):
        raise ValueError("%d is not prime" % p)
    rows = [{c: v % p for c, v in r.items() if v % p} for r in m.row_dicts()]
    holders = [[] for _ in range(m.cols)]  # column -> rows listed as holding it
    by_len = [[] for _ in range(m.cols + 1)]  # length -> rows queued at it
    for i, r in enumerate(rows):
        for c in r:
            holders[c].append(i)
        by_len[len(r)].append(i)
    rnk = 0
    short = 1
    while short <= m.cols:
        if not by_len[short]:
            short += 1
            continue
        i = by_len[short].pop()
        pivot_row = rows[i]
        if len(pivot_row) != short:  # queued at a length it has since left
            continue
        rows[i] = {}
        rnk += 1
        pc = min(pivot_row, key=lambda c: (len(holders[c]), c))
        pv_inv = pow(pivot_row[pc], p - 2, p)
        pivot = {c: v * pv_inv % p for c, v in pivot_row.items()}
        for j in holders[pc]:
            r = rows[j]
            w = r.get(pc)
            if w is None:  # a row that has lost the column, or the pivot row
                continue
            for c, v in pivot.items():
                if c not in r:
                    r[c] = -v * w % p
                    holders[c].append(j)
                else:
                    nv = (r[c] - v * w) % p
                    if nv:
                        r[c] = nv
                    else:
                        del r[c]
            if r:
                by_len[len(r)].append(j)
                short = min(short, len(r))
        holders[pc] = []
    return rnk


CERTIFICATION_PRIMES = (1000003, 2000003)


def certified_rank(m: SparseIntMatrix) -> tuple[int, bool]:
    """(rational rank, certificate) with certification by agreement with
    modular ranks at independent large primes."""
    r = rank(m)
    return r, all(rank_modp(m, p) == r for p in CERTIFICATION_PRIMES)


class DifferentialIdentityError(ValueError):
    """Consecutive differentials failed to compose to zero."""
