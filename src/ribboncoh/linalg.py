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
keep separate loops on purpose: ``rank_modp`` is the oracle of ``rank``,
and a fault in one shared loop would pass both.

``certified_rank`` proves a rank from one elimination modulo a lift prime
(``_pivots_modp``), by another rule: rows are reduced one at a time, in
order of their length, by the pivots found before them, so it holds its
echelon rows and one working row, not every row.  Its kernel vectors,
lifted to the rationals by rational reconstruction (Wang 1981; Dixon,
Numer. Math. 1982) and checked to satisfy M K = 0 over the integers,
bound the rank from above.  The pivot count, a rank mod p, never exceeds
the rational rank; the pivot minor, of full rank under ``rank_modp`` at
the minor prime, guards that lower bound against a fault of
``_pivots_modp``, with ``rank_modp``, which shares no code and no
elimination with it, as the judge.  No floating point anywhere.
"""
from __future__ import annotations

from bisect import insort
from collections import namedtuple
from itertools import groupby
from math import gcd, isqrt
from operator import itemgetter


class AssemblyError(ValueError):
    """An operator image left the span of the codomain basis."""


class SparseIntMatrix(namedtuple("SparseIntMatrix", "rows cols entries")):
    """entries: sorted (row, col, value) triples, no zero value and no
    repeated (row, col)."""

    __slots__ = ()

    def __new__(cls, rows, cols, entries=()):
        if not all(isinstance(n, int) and n >= 0 for n in (rows, cols)):
            raise ValueError("matrix dimensions must be non-negative integers")
        for r, c, v in entries:
            if not (isinstance(r, int) and isinstance(c, int) and isinstance(v, int)):
                raise ValueError("matrix indices and entries must be integers")
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError("entry index out of range")
        ent = sorted(entries)
        for a, b in zip(ent, ent[1:]):  # sorted, so a repeated (row, col) is adjacent
            if a[0] == b[0] and a[1] == b[1]:
                raise ValueError("duplicate entry")
        return tuple.__new__(cls, (rows, cols, tuple((r, c, v) for r, c, v in ent if v)))

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
        ent = []
        # self's entries come sorted by row: sum one row of the product at a
        # time, so only that row's partial products are held
        for r, terms in groupby(self.entries, itemgetter(0)):
            acc: dict = {}
            for _, k, v in terms:
                for c, w in other_rows[k].items():
                    acc[c] = acc.get(c, 0) + v * w
            ent.extend((r, c, v) for c, v in sorted(acc.items()) if v)
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
    """Exact rank over the rationals, fraction-free elimination: the rank
    suite's oracle, here while the benchmark tracer wraps it (ROADMAP item 1)."""
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


CERTIFICATION_PRIMES = (1000003, 2000003)  # the first lift prime, the minor prime
RETRY_PRIME = 2**61 - 1  # the second lift prime: a Mersenne prime, too large to trial-divide


def _pivots_modp(m: SparseIntMatrix, p: int) -> list:
    """An echelon form of m mod p, one row at a time: each pivot as
    (original row, column, the row reduced and scaled to 1 at the column),
    in pivot order.  Rows are taken by their length in m, the smaller
    index among equals, and each is read from the entries when its turn
    comes.  It is reduced by the pivots found so far in pivot order (a
    later pivot's column that an update brings in is queued too), and a
    row that survives becomes the next pivot, at the column of its own
    that the fewest rows of m hold, the smallest among equals.  So no
    pivot row holds an earlier pivot's column, and only the pivot rows and
    the working row are held, never every row.  A loop of its own, with
    no rule shared with ``rank_modp``, which checks what it finds."""
    start = memoryview(bytearray(4 * (m.rows + 1))).cast("I")  # row -> its first entry
    held = [0] * m.cols  # column -> rows of m that hold it
    for r, c, _ in m.entries:
        start[r + 1] += 1
        held[c] += 1
    place = [0] * (m.cols + 2)  # row length -> its rows' first place in the order
    for r in range(m.rows):
        place[start[r + 1] + 1] += 1
        start[r + 1] += start[r]
    for n in range(1, m.cols + 1):
        place[n] += place[n - 1]
    order = memoryview(bytearray(4 * m.rows)).cast("I")  # 4 bytes a row, no int object
    for r in range(m.rows):
        n = start[r + 1] - start[r]
        order[place[n]] = r
        place[n] += 1
    pivots = []
    at_col = {}  # pivot column -> its pivot's index
    for i in order[place[0]:]:  # place[0] is past the rows of no entry, which are no pivots
        row = {c: v % p for _, c, v in m.entries[start[i]:start[i + 1]] if v % p}
        queue = sorted(at_col[c] for c in row if c in at_col)
        while queue:
            _, pc, pivot = pivots[queue.pop(0)]
            w = row.get(pc)
            if w is None:  # cancelled by an earlier pivot, or queued twice
                continue
            for c, v in pivot.items():
                if c in row:
                    nv = (row[c] - v * w) % p
                    if nv:
                        row[c] = nv
                    else:
                        del row[c]
                else:
                    row[c] = -v * w % p
                    k = at_col.get(c)
                    if k is not None:  # a later pivot's column, brought in
                        insort(queue, k)
        if row:
            pc = min(row, key=lambda c: (held[c], c))
            pv_inv = pow(row[pc], p - 2, p)
            at_col[pc] = len(pivots)
            pivots.append((i, pc, {c: v * pv_inv % p for c, v in row.items()}))
    return pivots


def _kernel_modp(pivots: list, p: int) -> dict:
    """Pivot column -> {free column f: entry mod p} of the kernel vector
    that is 1 at f and 0 at every other free column, by back-substitution
    through the echelon rows of ``_pivots_modp`` in reverse pivot order."""
    kernel: dict = {}
    for _, pc, row in reversed(pivots):
        x: dict = {}
        for c, v in row.items():
            if c == pc:
                continue
            later = kernel.get(c)  # a later pivot's column, else a free one
            if later is None:
                x[c] = (x.get(c, 0) - v) % p
                continue
            for f, w in later.items():
                x[f] = (x.get(f, 0) - v * w) % p
        kernel[pc] = {f: w for f, w in x.items() if w}
    return kernel


def _lift(a: int, p: int, bound: int):
    """(n, d) with n = a d mod p, |n| <= bound and 0 < d <= bound, n and d
    coprime, or None: rational reconstruction by the extended Euclidean
    algorithm (Wang 1981), unique when 2 bound^2 < p."""
    r0, r1, t0, t1 = p, a, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _proved_rank(m: SparseIntMatrix, p: int):
    """The rational rank of m, proved, or None.  One elimination mod the
    lift prime p gives r pivots and a kernel vector mod p per free column.
    Each entry lifts to a rational by ``_lift``; cleared of denominators,
    the vectors are integral, independent (each is zero at every free
    column but its own) and must satisfy M K = 0 over Z, which proves
    rank <= r.  The r x r minor at the pivot rows and columns must have
    full rank mod the minor prime, which proves rank >= r.  Neither bound
    rests on p being prime.  None when a lift fails, M K != 0 or the minor
    is singular."""
    bound = isqrt(p // 2)
    pivots = _pivots_modp(m, p)
    kernel = _kernel_modp(pivots, p)
    at_row = {i: k for k, (i, _, _) in enumerate(pivots)}
    at_col = {c: k for k, (_, c, _) in enumerate(pivots)}
    del pivots  # the echelon rows
    vectors = {f: {f: 1} for f in range(m.cols) if f not in at_col}  # free column -> vector mod p
    for c, x in kernel.items():
        for f, w in x.items():
            vectors[f][c] = w
    del kernel
    by_col: dict = {}  # column c -> (k, K[c, k]) for the nonzero entries of K's row c
    for k, vec in enumerate(vectors.values()):
        lifted = [(c, _lift(w, p, bound)) for c, w in vec.items()]
        if any(frac is None for _, frac in lifted):
            return None
        scale = 1
        for _, (_, d) in lifted:
            scale = scale * d // gcd(scale, d)
        for c, (n, d) in lifted:  # the vector cleared of denominators
            by_col.setdefault(c, []).append((k, n * (scale // d)))
    del vectors
    image: dict = {}  # row r of M K, vector -> entry
    row = 0
    for r, c, v in m.entries:  # sorted by row
        if r != row:
            if any(image.values()):
                return None
            image, row = {}, r
        for k, x in by_col.get(c, ()):
            image[k] = image.get(k, 0) + v * x
    if any(image.values()):
        return None
    minor = tuple(
        (at_row[r], at_col[c], v) for r, c, v in m.entries if r in at_row and c in at_col
    )
    r = len(at_row)
    return r if rank_modp(SparseIntMatrix(r, r, minor), CERTIFICATION_PRIMES[1]) == r else None


class RankProofError(ArithmeticError):
    """A rank that no lift prime proves."""


def certified_rank(m: SparseIntMatrix) -> int:
    """The rational rank of m, proved by ``_proved_rank`` at the first lift
    prime or else, retried with the larger lift bound, at RETRY_PRIME.
    RankProofError when both fail: no rank is returned unproved."""
    for p in (CERTIFICATION_PRIMES[0], RETRY_PRIME):
        r = _proved_rank(m, p)
        if r is not None:
            return r
    raise RankProofError("no proof of the rank of a %d x %d matrix" % (m.rows, m.cols))


class DifferentialIdentityError(ValueError):
    """Consecutive differentials failed to compose to zero."""
