#!/usr/bin/env python3
"""Grid scans of the explicit bound expressions that `pgrouplab bounds` does
not cover: the piecewise regularity bound at three (d, n) pairs per prime, and
the dimension-gap inequality map with each inequality in its own column.

The orbit-ratio bound along a prime grid is a CLI command:
    pgrouplab bounds --kind limit1 --p 2,3,5,...,97 --d 17 --n 3 --out FILE
"""
import argparse
import csv
import pathlib

from pgrouplab import bounds as bd

PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--outdir", default="bounds_out")
    args = parser.parse_args()
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    with open(outdir / "limit2_grid.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["p", "d", "n", "profile", "lhs", "rhs", "holds", "warnings"])
        for p in PRIMES[:8]:
            for d, n in [(10, 2), (5, 3), (3, 4)]:
                rep = bd.limit2_bounds(p, d, n)
                b = "" if rep.vacuous_b else f"{rep.bound_b.value:.12g}"
                writer.writerow(
                    [p, d, n, "", f"{rep.bound_a.value:.12g}", b,
                     not rep.vacuous_b, "vacuous_b" if rep.vacuous_b else ""]
                )

    with open(outdir / "dimension_inequalities.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["d", "n", "first", "second", "third"])
        for d in range(5, 26):
            for n in range(3, 8):
                first, second, third = bd.dn_inequalities(d, n)
                writer.writerow([d, n, first, second, third])

    print(f"wrote grids under {outdir}/")


if __name__ == "__main__":
    main()
