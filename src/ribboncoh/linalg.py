"""Exact linear algebra over arbitrary-precision integers: sparse
matrices, their ranks and the proof of a rank.

A ``SparseIntMatrix`` keeps its entries in compressed sparse row form:
row pointers and column indices in ``array`` storage, 4 bytes each, and
the values in a list of Python ints, so precision is arbitrary and a
small value is a shared object.  No tuple per entry is held: a build
fills the arrays row by row (``append_row``) and hands them to
``SparseIntMatrix.from_csr``, and every reader below, ``rank`` aside,
reads them a row at a time.

Three eliminations, no two of which share code, so that a fault in one
cannot pass the check that another makes of it:
- ``rank``, over the rationals: textbook dense elimination over
  Fraction.  No table calls it; it is the rank suite's oracle.
- ``rank_modp``, modulo a prime: sparse Markowitz elimination.  The pivot
  row is a shortest remaining row, its pivot column the one of its
  columns that the fewest rows hold, the smallest among equals.  Each
  column lists the rows that hold it, and a pivot visits only those.  A
  row that gains a column by fill-in joins that column's list; one that
  has lost the column, or is queued at a length it has left, is skipped.
- ``_pivots_modp``, modulo a lift prime: Gauss-Jordan elimination, one
  row at a time in order of length.  A row is reduced by the pivots whose
  columns it holds, and a new pivot clears its column from the pivot
  rows before it, so only the reduced echelon rows and one working row
  are held.

``certified_rank`` proves a rank from ``_pivots_modp``.  Its kernel
vectors, read off the reduced rows, lifted to the rationals by rational
reconstruction (Wang 1981; Dixon, Numer. Math. 1982) and checked to
satisfy M K = 0 over the integers, bound the rank from above.  The pivot
count, a rank mod p, never exceeds the rational rank; the pivot minor, of
full rank under ``rank_modp`` at the minor prime, guards that lower bound
against a fault of ``_pivots_modp``.  No floating point anywhere.
"""
from __future__ import annotations

from array import array
from collections import namedtuple
from math import gcd, isqrt


class AssemblyError(ValueError):
    """An operator image left the span of the codomain basis."""


INDEX = "I"  # the typecode of a matrix's index arrays: 4 bytes an index, no int object


class SparseIntMatrix(namedtuple("SparseIntMatrix", "rows cols indptr indices values")):
    """A rows x cols integer matrix in compressed sparse row form: row r
    holds the columns indices[indptr[r]:indptr[r + 1]], strictly
    increasing, with the nonzero values at the same places.  indptr and
    indices are arrays of typecode INDEX, so an index is 4 bytes and a
    matrix takes no entry at an index of 2**32 or more (OverflowError);
    values is a list of ints of any size, small ones shared, so a value
    is one 8-byte slot.  No tuple per entry is held.

    SparseIntMatrix(rows, cols, entries) takes (row, col, value) triples
    in any order; ``from_csr`` takes the three sequences as they are."""

    __slots__ = ()

    def __new__(cls, rows, cols, entries=()):
        _check_shape(rows, cols)
        ent = []
        for e in entries:
            r, c, v = e
            if not (isinstance(r, int) and isinstance(c, int) and isinstance(v, int)):
                raise ValueError("matrix indices and entries must be integers")
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError("entry index out of range")
            ent.append(e)
        ent.sort()
        indptr, indices, values = empty_csr()
        last = None
        for r, c, v in ent:
            if (r, c) == last:  # sorted, so a repeated (row, col) is adjacent
                raise ValueError("duplicate entry")
            last = r, c
            if v:
                while len(indptr) <= r:  # rows up to r start here
                    indptr.append(len(values))
                indices.append(c)
                values.append(v)
        indptr.extend([len(values)] * (rows + 1 - len(indptr)))
        return tuple.__new__(cls, (rows, cols, indptr, indices, values))

    @classmethod
    def from_csr(cls, rows, cols, indptr, indices, values) -> "SparseIntMatrix":
        """The matrix of the three sequences, kept as they are, not sorted
        or copied, once one pass has checked them: rows + 1 row pointers
        from 0 to the entry count, each row's columns strictly increasing
        and below cols, and every value a nonzero int."""
        _check_shape(rows, cols)
        if len(indptr) != rows + 1 or indptr[0] != 0 or not indptr[rows] == len(indices) == len(values):
            raise ValueError("row pointers do not match the entries")
        for r in range(rows):
            a, b = indptr[r], indptr[r + 1]
            if a > b:
                raise ValueError("row pointers do not match the entries")
            last = -1
            for k in range(a, b):
                if indices[k] <= last:
                    raise ValueError("columns of a row are not strictly increasing")
                last = indices[k]
            if last >= cols:
                raise ValueError("entry index out of range")
        for v in values:
            if not isinstance(v, int):
                raise ValueError("matrix indices and entries must be integers")
            if not v:
                raise ValueError("zero entry")
        return tuple.__new__(cls, (rows, cols, indptr, indices, values))

    @property
    def nnz(self) -> int:
        return len(self.values)

    def row_items(self, r: int):
        """(col, value) for each entry of row r, in column order."""
        a, b = self.indptr[r], self.indptr[r + 1]
        return zip(self.indices[a:b], self.values[a:b])

    def triples(self):
        """(row, col, value) for each entry, in (row, col) order, each
        made as it is read."""
        for r in range(self.rows):
            for c, v in self.row_items(r):
                yield r, c, v

    @property
    def entries(self) -> tuple:
        """Every (row, col, value) triple, in (row, col) order: a tuple
        made on each read, which the matrix does not hold."""
        return tuple(self.triples())

    def row_dicts(self) -> list[dict]:
        return [dict(self.row_items(r)) for r in range(self.rows)]

    def transpose(self) -> "SparseIntMatrix":
        """The transpose, by a counting sort of the entries on their
        columns: the rows are read in order, so each column of the
        transpose comes out sorted."""
        indptr = array(INDEX, [0]) * (self.cols + 1)
        for c in self.indices:
            indptr[c + 1] += 1
        for c in range(self.cols):
            indptr[c + 1] += indptr[c]
        fill = array(INDEX, indptr)  # column -> its next free place
        indices, values = array(INDEX, [0]) * self.nnz, [0] * self.nnz
        for r, c, v in self.triples():
            k = fill[c]
            indices[k], values[k] = r, v
            fill[c] = k + 1
        return SparseIntMatrix.from_csr(self.cols, self.rows, indptr, indices, values)

    def matmul(self, other: "SparseIntMatrix") -> "SparseIntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        other_rows = other.row_dicts()
        csr = empty_csr()
        # sum one row of the product at a time, so only that row's partial
        # products are held
        for r in range(self.rows):
            acc: dict = {}
            for k, v in self.row_items(r):
                for c, w in other_rows[k].items():
                    acc[c] = acc.get(c, 0) + v * w
            append_row(csr, sorted(acc.items()))
        return SparseIntMatrix.from_csr(self.rows, other.cols, *csr)

    def is_zero(self) -> bool:
        return not self.values

    def to_triplet_text(self) -> str:
        lines = ["%d %d %d" % (self.rows, self.cols, self.nnz)]
        lines.extend("%d %d %d" % e for e in self.triples())
        return "\n".join(lines) + "\n"


def empty_csr() -> tuple:
    """(indptr, indices, values) of a matrix with no row yet: ``append_row``
    fills it and ``SparseIntMatrix.from_csr`` takes it."""
    return array(INDEX, [0]), array(INDEX), []


def append_row(csr, items) -> None:
    """Append to csr, from ``empty_csr``, the row of (column, value)
    items, given in column order; zero values are left out."""
    indptr, indices, values = csr
    for c, v in items:
        if v:
            indices.append(c)
            values.append(v)
    indptr.append(len(values))


def _check_shape(rows, cols) -> None:
    if not all(isinstance(n, int) and n >= 0 for n in (rows, cols)):
        raise ValueError("matrix dimensions must be non-negative integers")


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
    """Exact rank over the rationals by textbook dense elimination over
    Fraction: the rank suite's oracle, here while the benchmark tracer
    wraps it (ROADMAP item 1)."""
    from fractions import Fraction  # only this oracle needs it

    a = [[Fraction(0)] * m.cols for _ in range(m.rows)]
    for r, c, v in m.entries:  # beside a dense table, a tuple per entry is nothing
        a[r][c] = Fraction(v)
    rnk = 0
    for c in range(m.cols):
        piv = next((r for r in range(rnk, m.rows) if a[r][c] != 0), None)
        if piv is None:
            continue
        a[rnk], a[piv] = a[piv], a[rnk]
        pv = a[rnk][c]
        for r in range(m.rows):
            if r != rnk and a[r][c] != 0:
                f = a[r][c] / pv
                for cc in range(c, m.cols):
                    a[r][cc] -= f * a[rnk][cc]
        rnk += 1
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
    """The reduced echelon form of m mod p, one row at a time: each pivot
    as (original row, column, the row reduced and scaled to 1 at the
    column), in pivot order, no pivot row holding another pivot's column.
    Rows are taken by their length in m, the smaller index among equals,
    and each is read from m's arrays when its turn comes.  Since the pivot
    rows are reduced, one pass over the pivots whose columns a row holds
    reduces it.  A row that survives becomes the next pivot, at the column
    of its own that the fewest rows of m hold, the smallest among equals,
    and clears that column from the earlier pivot rows that hold it.  Only
    the pivot rows and the working row are held, never every row.  A loop
    of its own, with no rule shared with ``rank_modp``, which checks what
    it finds."""
    held = [0] * m.cols  # column -> rows of m that hold it
    for c in m.indices:
        held[c] += 1
    length = lambda r: m.indptr[r + 1] - m.indptr[r]
    place = [0] * (m.cols + 2)  # row length -> its rows' first place in the order
    for r in range(m.rows):
        place[length(r) + 1] += 1
    for n in range(1, m.cols + 1):
        place[n] += place[n - 1]
    order = array(INDEX, [0]) * m.rows  # 4 bytes a row, no int object
    for r in range(m.rows):
        n = length(r)
        order[place[n]] = r
        place[n] += 1
    pivots = []
    at_col = {}  # pivot column -> its reduced row
    holders = [[] for _ in range(m.cols)]  # free column -> pivot rows listed as holding it
    for i in order[place[0]:]:  # place[0] is past the rows of no entry, which are no pivots
        row = {c: v % p for c, v in m.row_items(i) if v % p}
        for pc in [c for c in row if c in at_col]:
            w = row[pc]
            for c, v in at_col[pc].items():
                row[c] = (row.get(c, 0) - v * w) % p
        row = {c: v for c, v in row.items() if v}
        if not row:
            continue
        pc = min(row, key=lambda c: (held[c], c))
        pv_inv = pow(row[pc], p - 2, p)
        pivot = at_col[pc] = {c: v * pv_inv % p for c, v in row.items()}
        for earlier in holders[pc]:
            w = earlier.get(pc)
            if w is None:  # cancelled since it was listed, or listed twice
                continue
            for c, v in pivot.items():
                if c in earlier:
                    nv = (earlier[c] - v * w) % p
                    if nv:
                        earlier[c] = nv
                    else:
                        del earlier[c]
                else:
                    earlier[c] = -v * w % p
                    holders[c].append(earlier)
        for c in pivot:
            holders[c].append(pivot)
        holders[pc] = None  # no row but the new pivot's holds pc from here on
        pivots.append((i, pc, pivot))
    return pivots


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
    lift prime p gives r pivots, and the kernel vector mod p of each free
    column f is read off the reduced rows: 1 at f, minus row c's entry at
    f at each pivot column c, 0 elsewhere.  Each entry lifts to a rational
    by ``_lift``; cleared of denominators, the vectors are integral,
    independent (each is zero at every free column but its own) and must
    satisfy M K = 0 over Z, which proves rank <= r.  The r x r minor at
    the pivot rows and columns must have full rank mod the minor prime,
    which proves rank >= r.  Neither bound rests on p being prime.  None
    when a lift fails, M K != 0 or the minor is singular."""
    bound = isqrt(p // 2)
    pivots = _pivots_modp(m, p)
    pivot_rows = [i for i, _, _ in pivots]
    at_col = {c: k for k, (_, c, _) in enumerate(pivots)}
    vectors = {f: {f: 1} for f in range(m.cols) if f not in at_col}  # free column -> vector mod p
    while pivots:  # each echelon row is dropped once read
        _, c, row = pivots.pop()
        for f, w in row.items():
            if f != c:
                vectors[f][c] = -w % p
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
    for r in range(m.rows):
        image: dict = {}  # row r of M K, vector -> entry
        for c, v in m.row_items(r):
            for k, x in by_col.get(c, ()):
                image[k] = image.get(k, 0) + v * x
        if any(image.values()):
            return None
    minor = empty_csr()
    for i in pivot_rows:  # in pivot order
        append_row(minor, sorted((at_col[c], v) for c, v in m.row_items(i) if c in at_col))
    r = len(pivot_rows)
    return r if rank_modp(SparseIntMatrix.from_csr(r, r, *minor), CERTIFICATION_PRIMES[1]) == r else None


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
