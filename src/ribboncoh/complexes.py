"""Graded complex assembly and certified cohomology tables.

Two ribbon complex kinds share the machinery:

* ``kp``: fixed (genus, boundary count), differential is vertex
  splitting; sectors: full, ge3 (the subcomplex of graphs with every
  valence at least 3, whose operator cuts only arcs of at least two
  darts), le2 (the low-valence subcomplex, spanned by paths and
  polygons);
* ``mw``: fixed genus, all boundary counts aggregated, differential is
  vertex splitting plus corner connecting (delta raises E keeping n,
  the corner move raises E and n together); sectors full and ge3.

The ordinary graph complex of ``gc2`` fills the same ComplexSlice and
goes through the same ``assemble_differentials`` and ``cohomology``.

Cells are graded by edge count; the cohomological degree of a generator
is k = -2 g d + E, with only parity(d) entering sign conventions.

A degree is *certified* when both neighboring cells are complete, either
inside the edge range or provably empty, and the two ranks pass the
modular cross-check; otherwise it is reported truncated or provisional.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .canonical import EVEN, ODD
from .diff import bridge, delta
from .enumeration import EnumSpec, enumerate_classes, le2_classes
from .linalg import DifferentialIdentityError, assemble, certified_rank

KINDS = ("kp", "mw")
SECTORS = ("full", "ge3", "le2")


@dataclass(frozen=True)
class ComplexSpec:
    kind: str
    genus: int
    d: int = 0
    sector: str = "full"
    e_min: int = 1
    e_max: int = 4
    boundaries: int | None = None  # required for kp, ignored for mw

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError("kind must be one of %s" % (KINDS,))
        if self.sector not in SECTORS:
            raise ValueError("sector must be one of %s" % (SECTORS,))
        if self.kind == "kp" and self.boundaries is None:
            raise ValueError("kp complexes need a boundary count")
        if self.kind == "mw" and self.sector == "le2":
            raise ValueError("the le2 sector is only defined for kp complexes")
        if self.genus < 0 or self.e_min < 1 or self.e_max < self.e_min:
            raise ValueError("need genus >= 0 and 1 <= e_min <= e_max")

    @property
    def parity(self) -> int:
        return ODD if self.d % 2 else EVEN

    @property
    def min_valence(self) -> int:
        return 3 if self.sector == "ge3" else 1

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


def _cell_spec(spec: ComplexSpec, n: int, e: int) -> EnumSpec:
    return EnumSpec(spec.genus, n, e, spec.min_valence, spec.parity)


def _cell_classes(spec: ComplexSpec, n: int, e: int):
    cell = _cell_spec(spec, n, e)
    if spec.sector == "le2":
        return le2_classes(cell)
    return enumerate_classes(cell)


def _cell_provably_empty(spec: ComplexSpec, n: int, e: int) -> bool:
    cell = _cell_spec(spec, n, e)
    if not cell.is_consistent()[0]:
        return True
    if spec.sector == "le2":
        # all-low-valence connected graphs are paths (g=0, n=1) and
        # polygons (g=0, n=2); everything else is empty
        return (spec.genus, n) not in ((0, 1), (0, 2))
    return False


def _layer_provably_empty(spec: ComplexSpec, e: int) -> bool:
    if e < 1:
        return True
    return all(_cell_provably_empty(spec, n, e) for n in spec.cells(e))


def _operator(spec: ComplexSpec):
    # Both arcs of a cut carry the sector's valence floor less the new
    # edge's dart, and at least one dart.  A corner move lowers no valence.
    min_arc = max(spec.min_valence - 1, 1)
    if spec.kind == "kp":
        return lambda cls: delta(cls, min_arc)
    return lambda cls: delta(cls, min_arc) + bridge(cls)


@dataclass
class ComplexSlice:
    spec: ComplexSpec  # or gc2.GCSpec; cohomology() reads e_min, e_max, degree, cells
    bases: dict = field(default_factory=dict)       # e -> [OrientedClass]
    cell_dims: dict = field(default_factory=dict)   # (n, e) -> nonzero count
    zero_counts: dict = field(default_factory=dict) # (n, e) -> zero-class count
    matrices: dict = field(default_factory=dict)    # e -> matrix basis[e] -> basis[e+1]
    empty_edge: dict = field(default_factory=dict)  # e outside range -> provably empty?

    def dim(self, e: int) -> int:
        return len(self.bases.get(e, ()))


def _basis_key(spec: ComplexSpec, n: int, e: int) -> dict:
    return {
        "genus": spec.genus,
        "boundaries": n,
        "edges": e,
        "min_valence": spec.min_valence,
        "parity": spec.parity,
        "sector": spec.sector,
    }


def _matrix_key(spec: ComplexSpec, e: int) -> dict:
    return {"complex": spec.content_key(), "from_edges": e}


def build(spec: ComplexSpec, cache=None) -> ComplexSlice:
    """Enumerate bases, assemble differential matrices, verify that
    consecutive matrices compose to zero.  An optional Cache serves and
    stores bases and matrices."""
    sl = ComplexSlice(spec)
    for e in range(spec.e_min, spec.e_max + 1):
        layer = []
        for n in spec.cells(e):
            key = _basis_key(spec, n, e)
            hit = cache.load_basis(key) if cache is not None else None
            if hit is None:
                nonzero, zero = _cell_classes(spec, n, e)
                if cache is not None:
                    cache.store_basis(key, nonzero, zero)
            else:
                nonzero, zero = hit
            sl.cell_dims[(n, e)] = len(nonzero)
            sl.zero_counts[(n, e)] = zero
            layer.extend(nonzero)
        sl.bases[e] = layer
    for e in (spec.e_min - 1, spec.e_max + 1):
        sl.empty_edge[e] = _layer_provably_empty(spec, e)
    assemble_differentials(sl, _operator(spec), cache)
    return sl


def assemble_differentials(sl: ComplexSlice, op, cache=None) -> None:
    """Fill sl.matrices with the matrices of op between consecutive edge
    layers of sl.bases and verify that consecutive matrices compose to
    zero.  An optional Cache serves and stores the matrices; it needs a
    spec with a content_key."""
    spec = sl.spec
    for e in range(spec.e_min, spec.e_max):
        m = None
        if cache is not None:
            key = _matrix_key(spec, e)
            m = cache.load_matrix(key)
        if m is None or m.rows != len(sl.bases[e + 1]) or m.cols != len(sl.bases[e]):
            m = assemble(sl.bases[e], sl.bases[e + 1], op)
            if cache is not None:
                cache.store_matrix(key, m)
        sl.matrices[e] = m
    for e in range(spec.e_min, spec.e_max - 1):
        if not sl.matrices[e + 1].matmul(sl.matrices[e]).is_zero():
            raise DifferentialIdentityError(
                "differential squared is nonzero between E=%d and E=%d" % (e, e + 2)
            )


def cohomology(sl: ComplexSlice) -> list[dict]:
    """Per-edge-count cohomology rows with certification statuses."""
    spec = sl.spec
    rank_cache: dict = {}

    def ranks(e):
        if e in rank_cache:
            return rank_cache[e]
        m = sl.matrices.get(e)
        if m is not None:
            res = certified_rank(m)
        elif sl.empty_edge.get(e + 1) or sl.empty_edge.get(e):
            res = (0, True)  # zero map out of or into a provably empty layer
        else:
            res = (None, False)
        rank_cache[e] = res
        return res

    rows = []
    for e in range(spec.e_min, spec.e_max + 1):
        dim = sl.dim(e)
        r_in, in_cert = ranks(e - 1)
        r_out, out_cert = ranks(e)
        known = r_in is not None and r_out is not None
        h = dim - r_in - r_out if known else None
        if not known:
            status = "truncated"
        elif in_cert and out_cert:
            status = "certified"
        else:
            status = "provisional"
        rows.append(
            {
                "degree": spec.degree(e),
                "edges": e,
                "dim": dim,
                "cells": {n: sl.cell_dims[(n, e)] for n in spec.cells(e)},
                "zero_classes": sum(sl.zero_counts[(n, e)] for n in spec.cells(e)),
                "rank_in": r_in,
                "rank_out": r_out,
                "h": h,
                "status": status,
            }
        )
    return rows


def euler(sl: ComplexSlice) -> dict:
    """Alternating sums of cell dimensions, per boundary count and total,
    with the sign convention (-1)^E."""
    per_n: dict = {}
    total = 0
    for (n, e), d in sl.cell_dims.items():
        s = (-1) ** e * d
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
    degree 2+2d, and 2*dim S_{n+1} + dim Eis_{n+1} in degree 2(n+d)-1 for
    every n >= 3, restricted to the window."""
    lo, hi = window
    table = {k: 0 for k in range(lo, hi + 1)}
    if lo <= 2 + 2 * d <= hi:
        table[2 + 2 * d] += 1
    n = 3
    while 2 * (n + d) - 1 <= hi:
        deg = 2 * (n + d) - 1
        if deg >= lo:
            s, eis = modular_dims(n + 1)
            table[deg] += 2 * s + eis
        n += 1
    return table


def calc1_offsets(rows: list[dict], d: int, search=range(-8, 9)) -> list[int]:
    """Global degree offsets o making the certified computed table agree
    with calc1_expectation at every certified degree (computed h at degree
    k must equal the expected dimension at degree k - o)."""
    certified = {r["degree"]: r["h"] for r in rows if r["status"] == "certified"}
    if not certified:
        return list(search)
    matches = []
    for o in search:
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
