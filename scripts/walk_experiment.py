#!/usr/bin/env python3
"""Convergence checks for the twisted chain that no CLI command makes: the
cutoff schedule against the measured TV distance, and the Mersenne-parameter
cosine products.  The TV / chi-square / upper-bound series itself comes from
`pgrouplab walk --exact --out FILE`.

Example:
    python scripts/walk_experiment.py --p 31 --d 2 --a 2
"""
import argparse

from pgrouplab import walk as wk


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--p", type=int, default=31)
    parser.add_argument("--d", type=int, default=2)
    parser.add_argument("--a", type=int, default=2, help="scalar multiplier (A = aI)")
    parser.add_argument("--q", type=float, default=1.0)
    args = parser.parse_args()

    mat = tuple(
        tuple(args.a if i == j else 0 for j in range(args.d)) for i in range(args.d)
    )
    spec = wk.WalkSpec(p=args.p, d=args.d, a_matrix=mat, q_weight=args.q)

    for c in (1.0, 2.0):
        sch = wk.ubcor_schedule(args.p, args.d, c)
        tv = wk.tv_distance(wk.evolve_exact(spec, sch.n))
        print(
            f"schedule c={c}: n={sch.n}, measured TV^2={tv*tv:.3e}, "
            f"target {sch.tv_sq_target:.3e}"
        )

    for t in (2, 3, 5, 7):
        rep = wk.cosine_product_checks(t, args.d)
        print(
            f"t={t}: |Pi_1|^d in window={rep.two_sided_ok} "
            f"pi-dominance={rep.pi_dominance_ok} symmetry_dev={rep.symmetry_dev:.2e}"
        )


if __name__ == "__main__":
    main()
