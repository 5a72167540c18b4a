#!/usr/bin/env python3
"""Print the class census over the (boundaries, edges) grid at fixed genus.

Example:
    python scripts/census.py -g 0 --e-max 5 --min-valence 3
"""
import argparse

from ribboncoh.canonical import EVEN, ODD
from ribboncoh.enumeration import cells


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("-g", "--genus", type=int, default=0)
    ap.add_argument("--e-max", type=int, default=5)
    ap.add_argument("--min-valence", type=int, default=3, choices=(1, 2, 3))
    ap.add_argument("--parity", choices=("even", "odd"), default="even")
    args = ap.parse_args()
    parity = EVEN if args.parity == "even" else ODD

    grid = {}  # E -> [(n, nonzero, zero)], from one walk of the genus's chains
    for n, e, nonzero, zero in cells(args.genus, args.min_valence, parity, args.e_max):
        grid.setdefault(e, []).append((n, len(nonzero), zero))

    print("genus %d, min valence %d, %s parity" % (args.genus, args.min_valence, args.parity))
    print("%4s %4s %10s %10s" % ("E", "n", "nonzero", "zero"))
    for e in range(1, args.e_max + 1):
        total_nz = total_z = 0
        for n, nonzero, zero in grid.get(e, []):
            total_nz += nonzero
            total_z += zero
            print("%4d %4d %10d %10d" % (e, n, nonzero, zero))
        print("%4d %4s %10d %10d  (layer total)" % (e, "*", total_nz, total_z))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
