"""Graded complex assembly and certified cohomology tables.

Two ribbon complex kinds share the machinery:

* ``kp``: fixed (genus, boundary count), differential is vertex
  splitting; sectors: full, ge3 (the subcomplex of graphs with every
  valence at least 3, whose operator cuts only arcs of at least two
  darts), le2 (the low-valence subcomplex, spanned by paths and
  polygons, whose operator cuts only arcs of at most one dart);
* ``mw``: fixed genus, all boundary counts aggregated, differential is
  vertex splitting plus corner connecting (delta raises E keeping n,
  the corner move raises E and n together); sectors full and ge3.

The ordinary graph complex of ``gc2`` goes through the same ``build`` and
``cohomology``.  A spec of either flavor gives ``possible(n, e)``
(whether counting alone leaves the cell room for a graph) and
``chain()``: every cell, in increasing boundary count, or loop order, n,
with every block of the differential into it.  One chain loop,
``_chain``, serves every flavor: it walks one generator of rounds per n
(``enumeration._cell_maps`` for kp and mw, with each arc of a cut capped
at one dart in le2, ``gc2._rounds`` for gc2), reads each
cell off its round, and sums the vertex split's block into it from the
split terms that the walk visits, with one accumulator (``_add``) and one
placement (``_place``).  So each split term is canonicalized once, and
the layer below the range, which the walk passes through, costs nothing
more.  A ribbon term's coefficient is the sign of its word
(``canonical.word_sign``), a gc2 term's that of its edge order
(``gc2._gc_sign``).  mw's corner move is the one block made outside the
walk: ``_terms_block`` over ``bridge_terms`` of the cell below, which
``ComplexSpec.chain`` keeps from the chain before, each term summed into
the target cell's row as it is read, so no canonical key of a corner
term outlives it.  Every block is row-keyed, row -> {column:
coefficient}, and ``_walk`` merges a cell's blocks one row at a time into
the matrices' arrays, so no build holds a tuple per matrix entry.  The
first rounds of the ribbon chains, their one-vertex cells, come from one
walk of
``enumeration._first_rounds``, which grows each from the one before it by
chords: those between two corners are the corner terms into it, recorded
per class of the round before with the new round's own keys, so the
corner block into a first round reuses their canonical data, and nothing
is canonicalized twice.  No build calls ``linalg.assemble``:
``diff.delta`` and ``diff.bridge``, assembled, are the oracles that built
blocks are checked against.

Cells are graded by edge count; the cohomological degree of a generator
is k = -2 g d + E, with only parity(d) entering sign conventions.

A degree is *certified* when both neighboring layers are complete, either
inside the edge range or empty, so that both ranks are known, each proved
by ``linalg.certified_rank``; otherwise it is reported truncated.  The layer
above the range is empty when counting rules out each of its cells; the
layer below it is enumerated, and is empty when it holds no nonzero class.
"""
from __future__ import annotations

from collections import namedtuple

from .cache import NO_CACHE, Cache
from .canonical import EVEN, ODD, _canonical_data, graph_of, word_sign
from .diff import bridge_terms
from .enumeration import LE2_CELLS, EnumSpec, _cell_maps, _first_rounds, _split_by_zero
from .linalg import (
    AssemblyError,
    DifferentialIdentityError,
    SparseIntMatrix,
    append_row,
    certified_rank,
    empty_csr,
)

KINDS = ("kp", "mw")
SECTORS = ("full", "ge3", "le2")


class ComplexSpec(namedtuple("ComplexSpec", "kind genus d sector e_min e_max boundaries")):
    """boundaries is for kp only, where it is required."""

    __slots__ = ()

    def __new__(cls, kind, genus, d=0, sector="full", e_min=1, e_max=4, boundaries=None):
        if kind not in KINDS:
            raise ValueError("kind must be one of %s" % (KINDS,))
        if sector not in SECTORS:
            raise ValueError("sector must be one of %s" % (SECTORS,))
        if kind == "kp" and (boundaries is None or boundaries < 1):
            raise ValueError("kp complexes need a boundary count of at least 1")
        if kind == "mw" and boundaries is not None:
            raise ValueError("mw complexes sum over every boundary count and take none")
        if kind == "mw" and sector == "le2":
            raise ValueError("the le2 sector is only defined for kp complexes")
        if genus < 0 or e_min < 1 or e_max < e_min:
            raise ValueError("need genus >= 0 and 1 <= e_min <= e_max")
        return tuple.__new__(cls, (kind, genus, d, sector, e_min, e_max, boundaries))

    @property
    def parity(self) -> int:
        return ODD if self.d % 2 else EVEN

    @property
    def min_valence(self) -> int:
        return 3 if self.sector == "ge3" else 1

    @property
    def max_arc(self) -> int | None:
        """The cap on each arc of a split: one dart in le2, else none."""
        return 1 if self.sector == "le2" else None

    def degree(self, e: int) -> int:
        return -2 * self.genus * self.d + e

    def cells(self, e: int) -> list[int]:
        """Boundary counts contributing at edge count e."""
        if self.kind == "kp":
            return [self.boundaries]
        return list(range(1, e + 2 - 2 * self.genus))

    def content_key(self) -> str:
        return "%s|g%d|d%d|%s|n%s|E%d..%d" % (
            self.kind,
            self.genus,
            self.d,
            self.sector,
            self.boundaries,
            self.e_min,
            self.e_max,
        )

    def possible(self, n: int, e: int) -> bool:
        """Whether counting alone leaves the (n, e) cell room for a graph."""
        if not EnumSpec(self.genus, n, e, self.min_valence).is_consistent()[0]:
            return False
        return self.sector != "le2" or (self.genus, n) in LE2_CELLS

    def chain(self):
        """(n, e, (nonzero, zero), blocks) for every cell with e_min - 1 <=
        e <= e_max and n in cells(e), in increasing boundary count n: per
        n, ``_chain`` over ``enumeration._cell_maps`` from the n chain's
        first round, which one walk of ``enumeration._first_rounds`` gives
        (no round where counting rules out every cell), each arc capped at
        ``max_arc`` darts, each term's coefficient its ``word_sign``.
        blocks maps n to the vertex split's block from the (n, e - 1) cell,
        and for mw n - 1 to the corner block from the (n - 1, e - 1) cell
        that the chain before left, both row-keyed, row -> {column:
        coefficient}, columns local to the source cell: the
        corner block is ``_terms_block`` on that cell's classes and this
        cell's rows, which reads the canonical data of its terms into a
        first round off the walk's chords."""
        parity, odd = self.parity, self.parity == ODD
        cell_of = lambda e, layer: _split_by_zero(layer, parity)
        sign = lambda word, maps: word_sign(word, parity, maps)
        seeds, m, chords = _first_rounds(self.genus), 0, None
        below: dict = {}  # e -> nonzero classes of the chain before's cell at e
        for n in self.cells(self.e_max):  # every boundary count, in increasing order
            e0, first = self.e_max + 1, {}  # a round above the range: every cell empty
            if any(self.possible(n, e) for e in range(self.e_min - 1, self.e_max + 1)):
                while m < n:  # kp skips the first rounds below its boundary count
                    m, e0, first, chords = next(seeds)
            rounds = lambda visit: _cell_maps(e0, first, self.min_valence, visit, odd, self.max_arc)
            here = {}
            for e, cell, rows, split in _chain(self, n, rounds, cell_of, sign):
                if n not in self.cells(e):
                    continue
                blocks = {}
                source = below.get(e - 1)
                if self.kind == "mw" and e > self.e_min and source is not None:
                    blocks[n - 1] = _terms_block(source, parity, rows, chords if e == e0 else None)
                blocks[n] = split
                here[e] = cell[0]
                if chords:  # read by the corner block into the first round only (peak memory)
                    chords.clear()
                yield n, e, cell, blocks
            below = here


def _chain(spec, n: int, rounds, cell_of, sign):
    """(e, (nonzero, zero), rows, split) for e from e_min - 1 to e_max,
    from one walk of rounds(visit): the (n, e) cell's nonzero classes and
    zero-class count, rows mapping each nonzero class's ``key`` to its row,
    and the vertex split's block into it from the (n, e - 1) cell, row ->
    {column: coefficient} (``_place``), empty for e <= e_min.
    rounds(visit) is a generator shaped like ``enumeration._cell_maps``:
    it yields (E, layer) for E up from its first round and, while it grows
    a layer, calls visit(source, term, key, data) on the split terms of
    the one before.
    cell_of(e, layer) reads a cell off its round, sign(term, data) a
    term's coefficient.  A cell below the first round, or one that
    counting rules out, is empty."""
    cols, block = {}, {}  # the source cell's columns; target key -> {column: coefficient}

    def visit(src, term, key, data):
        j = cols.get(src)
        if j is not None:
            _add(block, j, key, sign(term, data))

    walk = rounds(visit)
    at, layer = next(walk)
    for e in range(spec.e_min - 1, spec.e_max + 1):
        while at < e:  # rounds below the range are grown, not read
            at, layer = next(walk)
        cell = cell_of(e, layer) if at == e and spec.possible(n, e) else ([], 0)
        if at == e:  # the generator holds only the keys while it splits
            layer = None
        rows = {c.key: i for i, c in enumerate(cell[0])}
        yield e, cell, rows, _place(block, rows)
        cols, block = rows if e >= spec.e_min else {}, {}


def _add(block: dict, j: int, key, coeff: int) -> None:
    """Add coeff at (key, column j) of block, key -> {column:
    coefficient}, key a target key or a row."""
    if coeff:
        per = block.setdefault(key, {})
        per[j] = per.get(j, 0) + coeff


def _terms_block(classes, parity: int, rows: dict, known=None) -> dict:
    """The corner block of the raw terms that ``bridge_terms`` gives on
    classes, row -> {column: coefficient}: column j is classes[j], rows
    maps a target key to its row, and each term's coefficient is the
    ``word_sign`` of its word.  Each term is summed into its row as it is
    read, so no term's canonical key outlives it.  A term's canonical
    data is the next of known's entries for its class
    (``enumeration._chord_round``'s chords) when that entry's first
    relabeling takes the term onto the entry's key, else its own
    ``_canonical_data`` pass.  A target outside rows is a hard error (the
    cell is under-enumerated)."""
    odd, block = parity == ODD, {}
    for j, cls in enumerate(classes):
        recorded = iter(known.get(cls.key, ()) if known else ())
        for g, word in bridge_terms(cls.graph, odd):
            data = next(recorded, None)
            if data is None or not _relabels(g, *data):
                data = _canonical_data(g.sigma0, g.sigma1)
            coeff = word_sign(word, parity, data[1])
            if coeff:
                i = rows.get(data[0])
                if i is None:
                    raise _unplaced(data[0])
                _add(block, j, i, coeff)
    return block


def _relabels(g, key, maps) -> bool:
    """Whether the relabeling maps[0] takes g onto the canonical key, t0
    then t1.  A relabeling is a bijection, so then g is the graph whose
    pass gave (key, maps)."""
    lab, n = maps[0], len(g.sigma0)
    return [key[x] for x in lab] == [lab[h] for h in g.sigma0] and [key[n + x] for x in lab] == [lab[h] for h in g.sigma1]


def _place(block: dict, rows: dict) -> dict:
    """block, target key -> {column: coefficient}, keyed by row instead,
    rows mapping a target key to its row; each column dict is kept.  A
    target outside rows is a hard error (the cell is under-enumerated)."""
    try:
        return {rows[key]: per for key, per in block.items()}
    except KeyError as miss:
        raise _unplaced(miss.args[0]) from None


def _unplaced(key) -> AssemblyError:
    """The error for a target key outside the codomain's rows, a ribbon
    key shown as its (sigma0, sigma1) pair."""
    if isinstance(key, bytes):
        key = tuple(graph_of(key))
    return AssemblyError("image class %s not in codomain basis" % (key,))


class ComplexSlice(namedtuple("ComplexSlice", "spec cells matrices bases")):
    """What ``build`` gives:

    * spec: the ComplexSpec, or a gc2.GCSpec (build() reads e_min, e_max,
      cells, possible and chain(), the shared _chain e_min, e_max and
      possible; cohomology() reads degree too);
    * cells: (n, e) -> (nonzero classes, zero count), e_min - 1 <= e <= e_max;
    * matrices: e -> matrix basis[e] -> basis[e+1];
    * bases: e -> [OrientedClass], e_min <= e <= e_max."""

    __slots__ = ()


def build(spec, cache: Cache = NO_CACHE) -> ComplexSlice:
    """Enumerate bases, assemble differential matrices, verify that
    consecutive matrices compose to zero.  spec is a ComplexSpec or a
    gc2.GCSpec; a Cache serves and stores bases and matrices.  Given one,
    a gc2.GCSpec raises TypeError before any enumeration, since cache
    entries are keyed by ComplexSpec fields.

    When every basis and matrix entry of spec loads from the cache, no
    chain runs; any miss walks every chain (``_walk``) and stores every
    entry.  The layer below e_min is a round that each chain passes
    through anyway, so it costs nothing more; its cells are kept out of
    the bases."""
    if cache.enabled and not isinstance(spec, ComplexSpec):
        raise TypeError("a cache holds ribbon complexes only, not %s" % type(spec).__name__)
    found = _load(spec, cache)
    cells, matrices = _walk(spec) if found is None else found
    if found is None:
        for (n, e), cell in cells.items():
            if spec.possible(n, e):
                cache.store_basis(spec, n, e, *cell)
        for e, m in matrices.items():
            cache.store_matrix(spec, e, m)
    for e in range(spec.e_min, spec.e_max - 1):
        if not matrices[e + 1].matmul(matrices[e]).is_zero():
            raise DifferentialIdentityError(
                "differential squared is nonzero between E=%d and E=%d" % (e, e + 2)
            )
    bases = {e: _layer(spec, cells, e) for e in range(spec.e_min, spec.e_max + 1)}
    return ComplexSlice(spec, cells, matrices, bases)


def _layer(spec, cells, e: int) -> list:
    """The basis at edge count e: its cells' nonzero classes in cell order."""
    return [cls for n in spec.cells(e) for cls in cells[(n, e)][0]]


def _load(spec, cache: Cache):
    """(cells, matrices) as ``_walk`` gives them, from the cache, or None
    at the first miss.  A block whose shape does not match its bases is a
    miss: blocks are shared by every E range."""
    cells = {}
    for e in range(spec.e_min - 1, spec.e_max + 1):
        for n in spec.cells(e):
            hit = cache.load_basis(spec, n, e) if spec.possible(n, e) else ([], 0)
            if hit is None:
                return None
            cells[(n, e)] = hit
    matrices = {}
    for e in range(spec.e_min, spec.e_max):
        m = cache.load_matrix(spec, e)
        shape = (len(_layer(spec, cells, e + 1)), len(_layer(spec, cells, e)))
        if m is None or (m.rows, m.cols) != shape:
            return None
        matrices[e] = m
    return cells, matrices


def _walk(spec):
    """(cells, matrices): (n, e) -> (nonzero classes, zero count) for every
    cell from e_min - 1 to e_max, and e -> the differential's block from
    E=e, from one walk of ``spec.chain()``.  The cells of a layer come in
    row order, so a cell's blocks are merged one row at a time, at their
    source cells' column offsets, straight into its matrix's arrays
    (``linalg.append_row``).  A block's rows are popped as they are read
    and each block is cleared, so none outlives its merge, whichever chain
    frame still names it."""
    cells, offset = {}, {}  # offset: (n, e) -> the cell's first row in bases[e]
    placed: dict = {}  # e -> classes of bases[e] in the cells walked so far
    csr = {e: empty_csr() for e in range(spec.e_min, spec.e_max)}
    for n, e, cell, blocks in spec.chain():
        cells[(n, e)] = cell
        start = offset[(n, e)] = placed.get(e, 0)
        placed[e] = start + len(cell[0])
        if e - 1 in csr:  # the cell's rows are rows of the block from E=e - 1
            # a source cell outside spec.cells(e - 1) has an empty block
            parts = [(offset[(m, e - 1)], block) for m, block in blocks.items() if block]
            for r in range(len(cell[0])):
                row = ((at + c, v) for at, block in parts for c, v in block.pop(r, {}).items())
                append_row(csr[e - 1], sorted(row))
        for block in blocks.values():
            block.clear()
    matrices = {
        e: SparseIntMatrix.from_csr(placed.get(e + 1, 0), placed.get(e, 0), *csr[e])
        for e in range(spec.e_min, spec.e_max)
    }
    return cells, matrices


def cohomology(sl: ComplexSlice) -> list[dict]:
    """Per-edge-count cohomology rows with certification statuses.  The
    layer below e_min is empty when it holds no nonzero class, and the one
    above e_max when counting rules out each of its cells."""
    spec, cells = sl.spec, sl.cells
    above = spec.e_max + 1
    empty_below = not _layer(spec, cells, spec.e_min - 1)
    empty_above = not any(spec.possible(n, above) for n in spec.cells(above))
    ranks = {}  # e -> proved rank of the map out of the layer at e, or None
    for e in range(spec.e_min - 1, spec.e_max + 1):
        m = sl.matrices.get(e)
        if m is not None:
            ranks[e] = certified_rank(m)
        elif empty_below if e < spec.e_min else empty_above:
            ranks[e] = 0  # zero map out of or into a provably empty layer
        else:
            ranks[e] = None
    rows = []
    for e in range(spec.e_min, spec.e_max + 1):
        dim = len(sl.bases[e])
        r_in, r_out = ranks[e - 1], ranks[e]
        known = r_in is not None and r_out is not None
        rows.append(
            {
                "degree": spec.degree(e),
                "edges": e,
                "dim": dim,
                "cells": {n: len(cells[(n, e)][0]) for n in spec.cells(e)},
                "zero_classes": sum(cells[(n, e)][1] for n in spec.cells(e)),
                "rank_in": r_in,
                "rank_out": r_out,
                "h": dim - r_in - r_out if known else None,
                "status": "certified" if known else "truncated",
            }
        )
    return rows


def euler(sl: ComplexSlice) -> dict:
    """Alternating sums of cell dimensions over the edge range, per
    boundary count and total, with the sign convention (-1)^E."""
    per_n: dict = {}
    total = 0
    for (n, e), (nonzero, _) in sl.cells.items():
        if e >= sl.spec.e_min:
            s = (-1) ** e * len(nonzero)
            per_n[n] = per_n.get(n, 0) + s
            total += s
    return {"total": total, "per_boundary": dict(sorted(per_n.items()))}


def modular_dims(k: int) -> tuple[int, int]:
    """(dim of weight-k level-1 cusp forms, dim of Eisenstein part)."""
    if k < 4 or k % 2:
        return 0, 0
    m_k = k // 12 + (0 if k % 12 == 2 else 1)
    return m_k - 1, 1


def calc1_expectation(d: int, window: tuple[int, int]) -> dict[int, int]:
    """Expected genus-1 cohomology dimensions per degree: one class in
    degree 2-2d, and 2*dim S_{n+1} + dim Eis_{n+1} in degree 2(n-d)-1 for
    every n >= 3, restricted to the window: d moves each degree by -2d, as
    in ``ComplexSpec.degree`` at genus 1."""
    lo, hi = window
    table = {k: 0 for k in range(lo, hi + 1)}
    if lo <= 2 - 2 * d <= hi:
        table[2 - 2 * d] += 1
    n = 3
    while 2 * (n - d) - 1 <= hi:
        deg = 2 * (n - d) - 1
        if deg >= lo:
            s, eis = modular_dims(n + 1)
            table[deg] += 2 * s + eis
        n += 1
    return table


OFFSET_SEARCH = range(-8, 9)


def calc1_offsets(rows: list[dict], d: int) -> list[int]:
    """Global degree offsets o making the certified computed table agree
    with calc1_expectation at every certified degree (computed h at degree
    k must equal the expected dimension at degree k - o), o within
    OFFSET_SEARCH."""
    certified = {r["degree"]: r["h"] for r in rows if r["status"] == "certified"}
    if not certified:
        return list(OFFSET_SEARCH)
    matches = []
    for o in OFFSET_SEARCH:
        window = (min(certified) - o, max(certified) - o)
        expect = calc1_expectation(d, window)
        if all(expect.get(k - o, 0) == h for k, h in certified.items()):
            matches.append(o)
    return matches


def render_table(rows: list[dict]) -> str:
    """Aligned-text rendering of a cohomology table."""
    header = "%6s %5s %6s %7s %8s %9s %5s  %s" % (
        "degree", "E", "dim", "zero", "rank_in", "rank_out", "h", "status"
    )
    lines = [header]
    for r in rows:
        lines.append(
            "%6d %5d %6d %7d %8s %9s %5s  %s"
            % (
                r["degree"],
                r["edges"],
                r["dim"],
                r["zero_classes"],
                "?" if r["rank_in"] is None else r["rank_in"],
                "?" if r["rank_out"] is None else r["rank_out"],
                "?" if r["h"] is None else r["h"],
                r["status"],
            )
        )
    return "\n".join(lines) + "\n"
