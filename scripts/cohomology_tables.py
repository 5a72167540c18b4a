#!/usr/bin/env python3
"""Reproduce the headline cohomology tables.

Runs, in order of increasing cost:
  * the low-valence (paths and polygons) tables at genus 0,
  * the trivalent-plus (1,1) table,
  * the genus-0 combined-differential table (acyclic in every certified degree),
  * the genus-1 combined-differential table with the expected-dimension offsets.

With the default bounds the run takes a few seconds, most of it in the
two combined-differential tables, whose bases grow six- to eightfold per
extra edge.  Results are cached under --cache-dir when given.  Each
table's wall time is printed to stderr; stdout depends only on the bounds.
"""
import argparse
import sys
import time

from ribboncoh.cache import Cache
from ribboncoh.complexes import (
    ComplexSpec,
    build,
    calc1_offsets,
    cohomology,
    euler,
    render_table,
)


def run(title, spec, cache, show_offsets=False):
    t0 = time.time()
    sl = build(spec, cache=cache)
    rows = cohomology(sl)
    # the wall time goes to stderr, so that stdout is reproducible
    print("%s: %.1fs" % (title, time.time() - t0), file=sys.stderr)
    print("== %s  [%s]" % (title, spec.content_key()))
    print(render_table(rows))
    print("euler: %s" % euler(sl))
    if show_offsets:
        print("expected-dimension offsets: %s" % calc1_offsets(rows, spec.d))
    print()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--e-max", type=int, default=8, help="edge bound for the genus-0 table")
    ap.add_argument("--e-max-g1", type=int, default=7, help="edge bound for the genus-1 table")
    ap.add_argument("--cache-dir", default=None)
    args = ap.parse_args()
    try:
        cache = Cache(args.cache_dir)
    except OSError as exc:
        print("cannot use cache directory %s: %s" % (args.cache_dir, exc.strerror), file=sys.stderr)
        return 2

    try:
        tables = [
            ("paths", ComplexSpec("kp", 0, 0, "le2", 1, 10, boundaries=1), False),
            ("polygons (loop classes)", ComplexSpec("kp", 0, 0, "le2", 1, 10, boundaries=2), False),
            ("(1,1) trivalent-plus", ComplexSpec("kp", 1, 0, "ge3", 2, 4, boundaries=1), False),
            ("genus 0, combined differential",
             ComplexSpec("mw", 0, 0, "ge3", 1, args.e_max), False),
            ("genus 1, combined differential",
             ComplexSpec("mw", 1, 0, "ge3", 2, args.e_max_g1), True),
        ]
    except ValueError as exc:
        print("invalid spec: %s" % exc, file=sys.stderr)
        return 2
    for title, spec, show_offsets in tables:
        run(title, spec, cache, show_offsets)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
