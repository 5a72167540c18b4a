#!/usr/bin/env python3
"""Small ordinary-graph-complex tables at fixed loop order.

Example:
    python scripts/gc2_tables.py --loop-order 3 --e-range 3..8
"""
import argparse
import sys

from ribboncoh.cli import _parse_erange
from ribboncoh.complexes import build, cohomology, render_table
from ribboncoh.gc2 import GCSpec


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--loop-order", type=int, default=3)
    ap.add_argument("--e-range", default="3..8")
    ap.add_argument("-d", type=int, default=0)
    ap.add_argument("--min-valence", type=int, default=3)
    args = ap.parse_args()

    try:
        e_min, e_max = _parse_erange(args.e_range)
        rows = cohomology(build(GCSpec(args.loop_order, args.d, e_min, e_max, args.min_valence)))
    except ValueError as exc:
        print("invalid spec: %s" % exc, file=sys.stderr)
        return 2
    print(render_table(rows), end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
