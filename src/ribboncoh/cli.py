"""Command-line interface.

Subcommands: enumerate (list classes of a cell), check (identity and
oracle suites), cohomology (build a complex and print its table), export
(graphs, bases, matrices in the documented formats).

Exit codes: 0 success, 1 identity/internal failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .cache import NO_CACHE, Cache, default_cache_dir
from .canonical import EVEN, ODD
from .checks import CheckBounds, run_check
from .complexes import (
    ComplexSpec,
    build,
    calc1_offsets,
    cohomology,
    euler,
    render_table,
)
from .enumeration import EnumSpec, enumerate_classes, le2_classes
from .linalg import DifferentialIdentityError
from .ribbon import RibbonGraph, check_valid, to_dot
from .samples import NAMED

PARITIES = {"even": EVEN, "odd": ODD}


def _parse_erange(text: str) -> tuple[int, int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return int(lo), int(hi)
    v = int(text)
    return v, v


def _add_cache_flags(p):
    p.add_argument("--cache-dir", default=None, help="cache directory (default %s or $RIBBONCOH_CACHE_DIR)" % default_cache_dir())
    p.add_argument("--no-cache", action="store_true", help="disable the on-disk cache")


class UsageError(Exception):
    """Input the command cannot use; main prints it and exits 2."""


def _cache_from(args) -> Cache:
    if args.no_cache:
        return NO_CACHE
    root = args.cache_dir or default_cache_dir()
    try:
        return Cache(root)
    except OSError as exc:
        raise UsageError("cannot use cache directory %s: %s" % (root, exc.strerror))


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ribboncoh")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list isomorphism classes of one (g, n, E) cell")
    p.add_argument("-g", "--genus", type=int, required=True)
    p.add_argument("-n", "--boundaries", type=int, required=True)
    p.add_argument("-E", "--edges", type=int, required=True)
    p.add_argument("--min-valence", type=int, default=1, choices=(1, 2, 3))
    p.add_argument("--parity", choices=sorted(PARITIES), default="even")
    p.add_argument("--sector", choices=("full", "ge3", "le2"), default=None,
                   help="overrides --min-valence (ge3) or restricts to low valence (le2)")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("check", help="run the identity, structural, and oracle suites")
    p.add_argument("--g-max", type=int, default=2)
    p.add_argument("--e-max", type=int, default=4, help="edge bound for full-valence generators")
    p.add_argument("--e-max-ge3", type=int, default=5)
    p.add_argument("--e-max-le2", type=int, default=8)
    p.add_argument("--e-max-oracle", type=int, default=4)
    p.add_argument("--parity", choices=("even", "odd", "both"), default="both")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("cohomology", help="build a complex and print its cohomology table")
    p.add_argument("--kind", choices=("kp", "mw"), required=True)
    p.add_argument("-g", "--genus", type=int, required=True)
    p.add_argument("-n", "--boundaries", type=int, default=None, help="kp only, where it is required")
    p.add_argument("-d", type=int, default=0, help="degree-shift integer; only its parity affects signs")
    p.add_argument("--sector", choices=("full", "ge3", "le2"), default="full")
    p.add_argument("-E", "--edge-range", required=True, help="edge range a..b")
    p.add_argument("--emit", choices=("text", "json"), default="text")
    p.add_argument("--calc1", action="store_true", help="report genus-1 expected dims and matching offsets")
    _add_cache_flags(p)

    p = sub.add_parser("export", help="export graphs, bases, or matrices")
    p.add_argument("--what", choices=("graph", "basis", "matrix"), required=True)
    p.add_argument("--graph", default=None, help="named sample (%s) or path to a canonical JSON file" % ", ".join(sorted(NAMED)))
    p.add_argument("--kind", choices=("kp", "mw"), default="kp")
    p.add_argument("-g", "--genus", type=int, default=0)
    p.add_argument("-n", "--boundaries", type=int, default=None, help="kp only, where it is required")
    p.add_argument("-E", "--edge-range", default=None, help="edge range a..b (basis/matrix)")
    p.add_argument("-d", type=int, default=0)
    p.add_argument("--sector", choices=("full", "ge3", "le2"), default="full")
    p.add_argument("--format", choices=("json", "dot", "triplet"), default=None,
                   help="graph: json (default) or dot; basis: json; matrix: triplet")
    p.add_argument("-o", "--output", default=None, help="output path (default stdout)")
    _add_cache_flags(p)
    return ap


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as f:
            f.write(text)
    except OSError as exc:
        raise UsageError("cannot write %s: %s" % (path, exc.strerror))


def cmd_enumerate(args) -> int:
    spec = EnumSpec(
        args.genus,
        args.boundaries,
        args.edges,
        3 if args.sector == "ge3" else args.min_valence,
        PARITIES[args.parity],
    )
    ok, note = spec.is_consistent()
    if not ok:
        print("empty: %s" % note)
        return 2
    if args.sector == "le2":
        nonzero, zero = le2_classes(spec)
    else:
        nonzero, zero = enumerate_classes(spec)
    if args.format == "json":
        print(json.dumps({
            "spec": spec.__dict__,
            "classes": [c.to_json() for c in nonzero],
            "zero_classes": zero,
        }, sort_keys=True, default=str))
    else:
        for c in nonzero:
            print("%s  sigma0=%s sigma1=%s" % (c.content_hash()[:12], list(c.sigma0), list(c.sigma1)))
        print(
            "%d classes (%d zero by symmetry, excluded from bases)"
            % (len(nonzero) + zero, zero)
        )
    return 0


def cmd_check(args) -> int:
    parities = {"even": (EVEN,), "odd": (ODD,), "both": (EVEN, ODD)}[args.parity]
    try:
        bounds = CheckBounds(
            g_max=args.g_max,
            e_max_full=args.e_max,
            e_max_ge3=args.e_max_ge3,
            e_max_le2=args.e_max_le2,
            e_max_oracle=args.e_max_oracle,
            parities=parities,
        )
    except ValueError as exc:
        raise UsageError("invalid bounds: %s" % exc)
    report = run_check(bounds)
    if args.format == "json":
        print(json.dumps(report, sort_keys=True))
    else:
        for name, sub in report.items():
            if not isinstance(sub, dict):
                continue
            print("%-20s %s" % (name, "pass" if sub["passed"] else "FAIL"))
            for v in sub["violations"][:5]:
                print("  first violation: %s" % json.dumps(v, sort_keys=True, default=str))
        print("overall: %s" % ("pass" if report["passed"] else "FAIL"))
    return 0 if report["passed"] else 1


def _complex_spec(args) -> ComplexSpec:
    try:
        e_min, e_max = _parse_erange(args.edge_range)
        return ComplexSpec(
            kind=args.kind,
            genus=args.genus,
            d=args.d,
            sector=args.sector,
            e_min=e_min,
            e_max=e_max,
            boundaries=args.boundaries,
        )
    except ValueError as exc:
        raise UsageError("invalid spec: %s" % exc)


def cmd_cohomology(args) -> int:
    spec = _complex_spec(args)
    cache = _cache_from(args)
    offsets = args.calc1 or (spec.kind == "mw" and spec.genus == 1)
    payload = cache.load_table(spec, offsets)
    if payload is None:
        sl = build(spec, cache=cache)
        rows = cohomology(sl)
        payload = {"spec": spec.content_key(), "rows": rows, "euler": euler(sl)}
        if offsets:
            payload["calc1_offsets"] = calc1_offsets(rows, spec.d)
        # JSON keys are strings and "10" sorts before "2": fix the order once,
        # int keys sorted as ints, and print in it, cold or cached
        payload = json.loads(json.dumps(payload, sort_keys=True))
        cache.store_table(spec, offsets, payload)
    if args.emit == "json":
        print(json.dumps(payload))
    else:
        print(render_table(payload["rows"]))
        print("euler: %s" % json.dumps(payload["euler"]))
        if "calc1_offsets" in payload:
            print("calc1 offsets: %s" % payload["calc1_offsets"])
    return 0


def _load_graph(name_or_path: str) -> RibbonGraph:
    if name_or_path in NAMED:
        return NAMED[name_or_path]
    try:
        with open(name_or_path) as f:
            g = RibbonGraph.from_json(json.load(f))
        check_valid(g)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise UsageError("cannot load graph %s: %s" % (name_or_path, exc))
    return g


# the formats each --what can be written in, its default first
EXPORT_FORMATS = {"graph": ("json", "dot"), "basis": ("json",), "matrix": ("triplet",)}


def cmd_export(args) -> int:
    formats = EXPORT_FORMATS[args.what]
    fmt = args.format or formats[0]
    if fmt not in formats:
        raise UsageError(
            "--format %s does not apply to --what %s (use %s)"
            % (fmt, args.what, " or ".join(formats))
        )
    if args.output is not None and not os.path.isdir(os.path.dirname(os.path.abspath(args.output))):
        raise UsageError("cannot write %s: no such directory" % args.output)
    if args.what == "graph":
        if args.graph is None:
            raise UsageError("--graph is required for --what graph")
        g = _load_graph(args.graph)
        if fmt == "dot":
            _emit(to_dot(g), args.output)
        else:
            _emit(json.dumps(g.to_json(), sort_keys=True) + "\n", args.output)
        return 0
    if args.edge_range is None:
        raise UsageError("-E is required for --what %s" % args.what)
    spec = _complex_spec(args)
    sl = build(spec, cache=_cache_from(args))
    if args.what == "basis":
        lines = ["# ribboncoh basis export %s" % spec.content_key()]
        for e in range(spec.e_min, spec.e_max + 1):
            for cls in sl.bases[e]:
                lines.append(json.dumps(cls.to_json(), sort_keys=True))
        _emit("\n".join(lines) + "\n", args.output)
        return 0
    # matrices: one triplet block per edge level
    chunks = []
    for e in sorted(sl.matrices):
        chunks.append("# d from E=%d\n%s" % (e, sl.matrices[e].to_triplet_text()))
    _emit("".join(chunks), args.output)
    return 0


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    handler = {
        "enumerate": cmd_enumerate,
        "check": cmd_check,
        "cohomology": cmd_cohomology,
        "export": cmd_export,
    }[args.command]
    try:
        return handler(args)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 2
    except DifferentialIdentityError as exc:
        print("identity failure: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
