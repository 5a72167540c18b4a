"""Self-verification suites: D^2 = 0, structural term invariants,
enumeration oracle agreement, and rank oracle agreement.

Every suite returns a JSON-able report naming the first violating
generator, so a failure is actionable and a fault injected by the test
harness is pinpointed.  The identity and structural suites check one list
of generators, which ``run_check`` walks once (``iter_generators``).  The
suites run serially: the work is pure Python, so under the interpreter
lock a thread pool only added overhead.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
import random

from .canonical import EVEN, ODD
from .complexes import ComplexSpec, build
from .diff import (
    apply_linear,
    bridge,
    bridge_images,
    bridge_terms,
    delta,
    delta_images,
    delta_terms,
    summed,
)
from .enumeration import BRUTE_FORCE_DART_LIMIT, EnumSpec, _split_by_zero, cells, enumerate_bruteforce
from .linalg import (
    CERTIFICATION_PRIMES,
    AssemblyError,
    DifferentialIdentityError,
    RankProofError,
    SparseIntMatrix,
    assemble,
    certified_rank,
    rank,
    rank_modp,
)
from .ribbon import boundaries, genus, is_connected, validate, vertices


@dataclass(frozen=True)
class CheckBounds:
    """Scope of the verification sweep.  Separate edge bounds per valence
    sector keep the runtime at desk scale: the class counts grow roughly
    an order of magnitude per extra edge."""

    g_max: int = 2
    e_max_full: int = 4
    e_max_ge3: int = 5
    e_max_le2: int = 8
    e_max_oracle: int = 4
    parities: tuple = (EVEN, ODD)

    def __post_init__(self):
        for name in ("g_max", "e_max_full", "e_max_ge3", "e_max_le2", "e_max_oracle"):
            if getattr(self, name) < 0:
                raise ValueError("%s must be non-negative" % name)
        if 2 * self.e_max_oracle > BRUTE_FORCE_DART_LIMIT:
            raise ValueError(
                "e_max_oracle is at most %d: the brute-force scan is limited to %d half-edges"
                % (BRUTE_FORCE_DART_LIMIT // 2, BRUTE_FORCE_DART_LIMIT)
            )
        p = self.parities
        if not isinstance(p, tuple) or not p or len(set(p)) < len(p) or not set(p) <= {EVEN, ODD}:
            raise ValueError(
                "parities must be a non-empty tuple of distinct values from (%d, %d), got %r"
                % (EVEN, ODD, p)
            )

    def to_json(self) -> dict:
        return asdict(self)


def iter_generators(bounds: CheckBounds):
    """(EnumSpec, class) for every nonzero generator inside the bounds, by
    (sector, genus, n, E, parity): one ``cells`` walk per (sector, genus)."""
    sectors = (  # (valence floor, max_arc, E range) of full, ge3 and le2
        (1, None, 1, bounds.e_max_full),
        (3, None, 1, bounds.e_max_ge3),
        (1, 1, bounds.e_max_full + 1, bounds.e_max_le2),
    )
    for floor, max_arc, e_min, e_max in sectors:
        for g in range(bounds.g_max + 1):
            for n, e, layer in cells(g, floor, e_max, max_arc):
                for parity in bounds.parities if e >= e_min else ():
                    spec = EnumSpec(g, n, e, floor, parity)
                    yield from ((spec, cls) for cls in _split_by_zero(layer, parity)[0])


def _violation(suite: str, spec: EnumSpec, cls, detail: str) -> dict:
    return {"suite": suite, "spec": asdict(spec), "generator": cls.content_hash(), "detail": detail}


def _report(suite: str, violations: list, **counts) -> dict:
    """A suite's report: its name, counts, violations and verdict."""
    return {"suite": suite, **counts, "violations": violations, "passed": not violations}


def _memoized(images_of, parities):
    """images_of(graph, parities) as an operator on classes, memoized for
    as long as the returned function lives: the first class of a canonical
    pair met in any parity fills its images in every parity in scope, and
    each class of a stored image is held once, as one object per class and
    parity, however many images it is in."""
    memo, classes = {}, {}

    def image(cls):
        key = (cls.sigma0, cls.sigma1)
        if key not in memo:
            memo[key] = {
                parity: {classes.setdefault(c, c): v for c, v in terms.items()}
                for parity, terms in images_of(cls.graph, parities).items()
            }
        return memo[key][cls.parity]

    return image


def identity_suite(bounds: CheckBounds, gens: list) -> dict:
    """D^2 = 0 on every (spec, class) x of gens (``iter_generators``), for
    D = delta + the corner operator, memoized by canonical pair for this one
    call; one canonical pass per raw term serves every parity in scope.  A
    nonzero D^2(x) is split by each term's boundary count minus x's, which
    relies on the grading that the structural suite checks (delta keeps
    it, the corner operator adds one): offset 0 is delta^2, 2 the corner
    operator squared, and any other offset the anticommutator."""

    def d_images(g, parities):
        d, b = delta_images(g, parities), bridge_images(g, parities)
        return {parity: summed([*d[parity].items(), *b[parity].items()]) for parity in parities}

    op = _memoized(d_images, bounds.parities)
    details = {
        "delta_squared": "delta(delta(x)) != 0",
        "bridge_squared": "corner op squared != 0",
        "anticommutator": "delta and corner op do not anticommute",
    }

    def check(spec, cls):
        b0 = len(boundaries(cls.graph))
        offsets = {len(boundaries(c.graph)) - b0 for c in apply_linear(op, op(cls))}
        parts = {{0: "delta_squared", 2: "bridge_squared"}.get(k, "anticommutator") for k in offsets}
        return [_violation(name, spec, cls, detail) for name, detail in details.items() if name in parts]

    violations = [v for spec, cls in gens for v in check(spec, cls)]
    return _report("identities", violations, bounds=bounds.to_json(), generators=len(gens))


def structural_suite(bounds: CheckBounds, gens: list) -> dict:
    """Raw-term invariants on every (spec, class) of gens, the generators
    of bounds: vertex splitting adds one edge and one vertex keeping
    boundaries and genus; corner connecting adds one edge and one boundary
    keeping vertices and genus; every term is a valid connected graph."""

    def shape_of(g):
        # g is connected: a generator is, and a term is checked first
        v, b = len(vertices(g)), len(boundaries(g))
        return (g.n_edges, v, b, genus(g, (v, b)))

    def check(spec, cls):
        e0, v0, b0, g0 = shape_of(cls.graph)
        term_sets = (
            ("delta_terms", delta_terms(cls.graph), (e0 + 1, v0 + 1, b0, g0)),
            ("bridge_terms", bridge_terms(cls.graph), (e0 + 1, v0, b0 + 1, g0)),
        )
        out = []
        for name, terms, expected in term_sets:
            for out_g, _ in terms:
                if validate(out_g) is not None or not is_connected(out_g):
                    out.append(_violation(name, spec, cls, "invalid term graph"))
                    continue
                shape = shape_of(out_g)
                if shape != expected:
                    detail = "expected (E,V,B,g)=%s got %s" % (expected, shape)
                    out.append(_violation(name, spec, cls, detail))
        return out

    violations = [v for spec, cls in gens for v in check(spec, cls)]
    return _report("structural", violations, bounds=bounds.to_json(), generators=len(gens))


def oracle_suite(bounds: CheckBounds) -> dict:
    """Fast enumerator versus brute-force permutation scan, every spec
    with E <= e_max_oracle, all valence floors: the fast side is one
    ``cells`` walk per (floor, genus), and a spec it skips is empty."""
    specs = []
    for e in range(1, bounds.e_max_oracle + 1):
        for g in range(0, e // 2 + 1):
            for n in range(1, e + 2 - 2 * g):
                for mv in (1, 2, 3):
                    specs.append(EnumSpec(g, n, e, mv, EVEN))
    fast = {
        EnumSpec(g, n, e, mv, EVEN): _split_by_zero(layer, EVEN)
        for mv in (1, 2, 3)
        for g in range(bounds.e_max_oracle // 2 + 1)
        for n, e, layer in cells(g, mv, bounds.e_max_oracle)
    }

    def check(spec):
        fast_nz, fast_zero = fast.get(spec, ([], 0))
        slow_nz, slow_zero = enumerate_bruteforce(spec)
        if [c.content_hash() for c in fast_nz] != [c.content_hash() for c in slow_nz]:
            detail = "class sets differ: %d fast vs %d brute" % (len(fast_nz), len(slow_nz))
        elif fast_zero != slow_zero:
            detail = "zero-class counts differ: %d vs %d" % (fast_zero, slow_zero)
        else:
            return []
        return [{"suite": "enumeration_oracle", "spec": asdict(spec), "detail": detail}]

    violations = [v for spec in specs for v in check(spec)]
    return _report("enumeration_oracle", violations, bounds=bounds.to_json(), specs=len(specs))


def _dense_fraction_rank(m: SparseIntMatrix) -> int:
    """Independent textbook elimination over Fraction."""
    a = [[Fraction(0)] * m.cols for _ in range(m.rows)]
    for r, c, v in m.entries:
        a[r][c] = Fraction(v)
    rnk = 0
    pr = 0
    for c in range(m.cols):
        piv = next((r for r in range(pr, m.rows) if a[r][c] != 0), None)
        if piv is None:
            continue
        a[pr], a[piv] = a[piv], a[pr]
        pv = a[pr][c]
        for r in range(m.rows):
            if r != pr and a[r][c] != 0:
                f = a[r][c] / pv
                for cc in range(c, m.cols):
                    a[r][cc] -= f * a[pr][cc]
        pr += 1
        rnk += 1
    return rnk


RANK_SUITE_SEED = 20240901
RANK_SUITE_TRIALS = 40


def rank_suite() -> dict:
    """Sparse fraction-free rank versus dense rational elimination and
    two-prime modular ranks, and the proved rank (``certified_rank``, with
    no proof a violation) versus all three, on RANK_SUITE_TRIALS seeded random matrices,
    plus one differential matrix that ``complexes.build`` gives, which must
    also equal the matrix that the oracles ``delta`` and ``bridge``
    assemble on its bases.  That build or the oracle's assembly raising is
    a violation too; a failed build adds no matrix."""
    rng = random.Random(RANK_SUITE_SEED)
    mats = []
    for _ in range(RANK_SUITE_TRIALS):
        rows = rng.randint(0, 14)
        cols = rng.randint(0, 14)
        ent = {}
        for _ in range(rng.randint(0, max(rows * cols // 2, 0))):
            ent[(rng.randrange(rows), rng.randrange(cols))] = rng.randint(-20, 20)
        mats.append(SparseIntMatrix(rows, cols, tuple((r, c, v) for (r, c), v in ent.items())))
    # mw (g, d) = (1, 1) ge3 E 4 -> 5, 119x12, odd, with split and corner
    # entries: d^2 = 0 holds with either block's sign flipped, the oracle not;
    # a build that fails is a violation, so the report still prints
    built = []
    try:
        sl = build(ComplexSpec("mw", 1, 1, "ge3", 3, 5))
        mats.append(sl.matrices[4])
        both = lambda c: summed([*delta(c, 2).items(), *bridge(c).items()])
        if sl.matrices[4] != assemble(sl.bases[4], sl.bases[5], both):
            built.append({"suite": "rank_oracle", "detail": "built matrix differs from delta + bridge"})
    except (AssemblyError, DifferentialIdentityError) as exc:
        built.append({"suite": "rank_oracle", "detail": "%s: %s" % (type(exc).__name__, exc)})

    def check(m):
        r = rank(m)
        out = []
        if r != _dense_fraction_rank(m):
            out.append({"suite": "rank_oracle", "detail": "dense oracle disagrees"})
        if r != rank(m.transpose()):
            out.append({"suite": "rank_oracle", "detail": "transpose rank differs"})
        for p in CERTIFICATION_PRIMES:
            if rank_modp(m, p) != r:
                out.append({"suite": "rank_oracle", "detail": "mod-%d rank differs" % p})
        try:
            if certified_rank(m) != r:
                out.append({"suite": "rank_oracle", "detail": "certified rank differs"})
        except RankProofError:
            out.append({"suite": "rank_oracle", "detail": "no proof"})
        return out

    violations = [v for m in mats for v in check(m)] + built
    return _report("rank_oracle", violations, matrices=len(mats))


def run_check(bounds: CheckBounds) -> dict:
    """All four suites, the identity and structural ones on one generator walk."""
    gens = list(iter_generators(bounds))
    report = {
        "identities": identity_suite(bounds, gens),
        "structural": structural_suite(bounds, gens),
        "enumeration_oracle": oracle_suite(bounds),
        "rank_oracle": rank_suite(),
    }
    report["passed"] = all(r["passed"] for r in report.values() if isinstance(r, dict))
    return report
