#!/usr/bin/env python3
"""Small ordinary-graph-complex tables at fixed loop order.

Example:
    python scripts/gc2_tables.py --loop-order 3 --e-range 3..8
"""
import argparse

from ribboncoh.complexes import render_table
from ribboncoh.gc2 import gc_cohomology


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--loop-order", type=int, default=3)
    ap.add_argument("--e-range", default="3..8")
    ap.add_argument("-d", type=int, default=0)
    ap.add_argument("--min-valence", type=int, default=3)
    args = ap.parse_args()
    lo, hi = (int(x) for x in args.e_range.split(".."))

    print(render_table(gc_cohomology(args.loop_order, args.d, (lo, hi), args.min_valence)), end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
