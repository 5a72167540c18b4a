"""Self-verification suites: D^2 = 0, structural term invariants,
enumeration oracle agreement, and rank oracle agreement (the proved and
modular ranks against ``linalg.rank``, the one exact rational rank).

Every suite returns a JSON-able report naming the first violating
generator, so a failure is actionable and a fault injected by the test
harness is pinpointed.  The identity and structural suites check one list
of generators, which ``run_check`` walks once (``iter_generators``).  The
suites run serially: the work is pure Python, so under the interpreter
lock a thread pool only added overhead.
"""
from __future__ import annotations

from collections import namedtuple
import random

from .canonical import EVEN, ODD
from .complexes import ComplexSpec, build
from .diff import apply_linear, bridge, bridge_terms, d_images, delta, delta_terms, summed
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


class CheckBounds(namedtuple("CheckBounds", "g_max e_max_full e_max_ge3 e_max_le2 e_max_oracle parities")):
    """Scope of the verification sweep.  Separate edge bounds per valence
    sector keep the runtime at desk scale: the class counts grow roughly
    an order of magnitude per extra edge."""

    __slots__ = ()

    def __new__(cls, g_max=2, e_max_full=4, e_max_ge3=5, e_max_le2=8, e_max_oracle=4, parities=(EVEN, ODD)):
        bounds = (g_max, e_max_full, e_max_ge3, e_max_le2, e_max_oracle)
        for name, value in zip(cls._fields, bounds):
            if value < 0:
                raise ValueError("%s must be non-negative" % name)
        if 2 * e_max_oracle > BRUTE_FORCE_DART_LIMIT:
            raise ValueError(
                "e_max_oracle is at most %d: the brute-force scan is limited to %d half-edges"
                % (BRUTE_FORCE_DART_LIMIT // 2, BRUTE_FORCE_DART_LIMIT)
            )
        p = parities
        if not isinstance(p, tuple) or not p or len(set(p)) < len(p) or not set(p) <= {EVEN, ODD}:
            raise ValueError(
                "parities must be a non-empty tuple of distinct values from (%d, %d), got %r"
                % (EVEN, ODD, p)
            )
        return tuple.__new__(cls, (*bounds, parities))

    def to_json(self) -> dict:
        return self._asdict()


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
    return {"suite": suite, "spec": spec._asdict(), "generator": cls.content_hash(), "detail": detail}


def _report(suite: str, violations: list, **counts) -> dict:
    """A suite's report: its name, counts, violations and verdict."""
    return {"suite": suite, **counts, "violations": violations, "passed": not violations}


def _memoized(images_of, parities):
    """images_of(graph, parities) as an operator on classes, memoized for
    as long as the returned function lives: the first class of a canonical
    key met in any parity fills its images in every parity in scope, and
    each class of a stored image is held once, as one object per class and
    parity, however many images it is in."""
    memo, classes = {}, {}

    def image(cls):
        key = cls.key
        if key not in memo:
            memo[key] = {
                parity: {classes.setdefault(c, c): v for c, v in terms.items()}
                for parity, terms in images_of(cls.graph, parities).items()
            }
        return memo[key][cls.parity]

    return image


def identity_suite(bounds: CheckBounds, gens: list) -> dict:
    """D^2 = 0 on every (spec, class) x of gens (``iter_generators``), for
    D = delta + the corner operator (``diff.d_images``, read through this
    module's globals at call time), memoized by canonical key for one
    genus at a time: D keeps the genus, so no image is read again once its
    genus is done.  One listing of a class's cycles serves both moves'
    terms, and one canonical pass per raw term serves every parity in
    scope.  The violations come in generator order.  A nonzero D^2(x) is
    split by each term's boundary count minus x's, which relies on the
    grading that the structural suite checks (delta keeps it, the corner
    operator adds one): offset 0 is delta^2, 2 the corner operator squared,
    and any other offset the anticommutator."""
    details = {
        "delta_squared": "delta(delta(x)) != 0",
        "bridge_squared": "corner op squared != 0",
        "anticommutator": "delta and corner op do not anticommute",
    }

    def check(op, spec, cls):
        b0 = len(boundaries(cls.graph))
        offsets = {len(boundaries(c.graph)) - b0 for c in apply_linear(op, op(cls))}
        parts = {{0: "delta_squared", 2: "bridge_squared"}.get(k, "anticommutator") for k in offsets}
        return [_violation(name, spec, cls, detail) for name, detail in details.items() if name in parts]

    found = []  # (generator index, violation)
    for g in sorted({spec.genus for spec, _ in gens}):
        op = _memoized(d_images, bounds.parities)  # freed when the genus is done
        found += [(i, v) for i, (spec, cls) in enumerate(gens) if spec.genus == g for v in check(op, spec, cls)]
    violations = [v for _, v in sorted(found, key=lambda iv: iv[0])]
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
        return [{"suite": "enumeration_oracle", "spec": spec._asdict(), "detail": detail}]

    violations = [v for spec in specs for v in check(spec)]
    return _report("enumeration_oracle", violations, bounds=bounds.to_json(), specs=len(specs))


RANK_SUITE_SEED = 20240901
RANK_SUITE_TRIALS = 40


def rank_suite() -> dict:
    """The rational rank (``linalg.rank``, dense Fraction elimination)
    versus the rank of the transpose and the ranks at both certification
    primes, and the proved rank (``certified_rank``, with no proof a
    violation) versus the rational rank, on RANK_SUITE_TRIALS matrices,
    plus one differential matrix that ``complexes.build`` gives, which must
    also equal the matrix that the oracles ``delta`` and ``bridge``
    assemble on its bases.  That build or the oracle's assembly raising is
    a violation too; a failed build adds no matrix.  Every trial but the
    last is a seeded random matrix, whose rank at each certification prime
    must equal its rank over Q.  The last is [[1000003]]: rank 0 mod
    1,000,003 and 1 mod 2,000,003, so its rank, 1, is proved only at the
    retry, and a proof that skips its M K = 0 check gives 0."""
    rng = random.Random(RANK_SUITE_SEED)
    mats = []  # (matrix, its ranks at CERTIFICATION_PRIMES, or None where each is its rank over Q)
    for _ in range(RANK_SUITE_TRIALS - 1):
        rows = rng.randint(0, 14)
        cols = rng.randint(0, 14)
        ent = {}
        for _ in range(rng.randint(0, max(rows * cols // 2, 0))):
            ent[(rng.randrange(rows), rng.randrange(cols))] = rng.randint(-20, 20)
        mats.append((SparseIntMatrix(rows, cols, tuple((r, c, v) for (r, c), v in ent.items())), None))
    mats.append((SparseIntMatrix(1, 1, ((0, 0, CERTIFICATION_PRIMES[0]),)), (0, 1)))
    # mw (g, d) = (1, 1) ge3 E 4 -> 5, 119x12, odd, with split and corner
    # entries: d^2 = 0 holds with either block's sign flipped, the oracle not;
    # a build that fails is a violation, so the report still prints
    built = []
    try:
        sl = build(ComplexSpec("mw", 1, 1, "ge3", 3, 5))
        mats.append((sl.matrices[4], None))
        both = lambda c: summed([*delta(c, 2).items(), *bridge(c).items()])
        if sl.matrices[4] != assemble(sl.bases[4], sl.bases[5], both):
            built.append({"suite": "rank_oracle", "detail": "built matrix differs from delta + bridge"})
    except (AssemblyError, DifferentialIdentityError) as exc:
        built.append({"suite": "rank_oracle", "detail": "%s: %s" % (type(exc).__name__, exc)})

    def check(m, modp):
        r = rank(m)
        out = []
        if r != rank(m.transpose()):
            out.append({"suite": "rank_oracle", "detail": "transpose rank differs"})
        for p, expected in zip(CERTIFICATION_PRIMES, modp or (r, r)):
            if rank_modp(m, p) != expected:
                out.append({"suite": "rank_oracle", "detail": "mod-%d rank differs" % p})
        try:
            if certified_rank(m) != r:
                out.append({"suite": "rank_oracle", "detail": "certified rank differs"})
        except RankProofError:
            out.append({"suite": "rank_oracle", "detail": "no proof"})
        return out

    violations = [v for m, modp in mats for v in check(m, modp)] + built
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
