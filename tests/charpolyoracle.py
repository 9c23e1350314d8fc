"""Characteristic polynomials by the Leibniz expansion, an oracle for the tests.

det(tI - g) = sum over permutations s of sign(s) * prod_i (t [s(i) = i] - g[i][s(i)]),
with polynomials as low-to-high coefficient lists mod p.  The permutations are
built row by row, so terms that share a prefix share its product, and a term
with a zero off-diagonal entry is dropped.  `cayley_hamilton_holds` checks
chi(g) = 0 in numpy.  Nothing here comes from pgrouplab.
"""
import numpy as np


def charpoly_leibniz(g, p: int) -> tuple:
    """det(tI - g) mod p, low-to-high coefficients, monic of degree len(g)."""
    n = len(g)
    total = [0] * (n + 1)

    def expand(row: int, used: int, sign: int, prod: list):
        if row == n:
            for k, c in enumerate(prod):
                total[k] += sign * c
            return
        for col in range(n):
            if used >> col & 1:
                continue
            # s(row) = col makes one inversion with each earlier row mapped above col
            s = -sign if bin(used >> col).count("1") & 1 else sign
            c = -g[row][col] % p
            if col == row:  # the factor t - g[row][row]
                nxt = [(a + c * b) % p for a, b in zip([0] + prod, prod + [0])]
            elif c:
                nxt = [c * b % p for b in prod]
            else:
                continue
            expand(row + 1, used | 1 << col, s, nxt)

    expand(0, 0, 1, [1])
    return tuple(c % p for c in total)


def cayley_hamilton_holds(g, chi, p: int) -> bool:
    """chi(g) = 0 mod p, by Horner's rule on int64 matrices."""
    a = np.array(g, dtype=np.int64).reshape(len(g), len(g))
    acc = np.zeros_like(a)
    for c in reversed(chi):
        acc = (acc @ a + c * np.eye(len(g), dtype=np.int64)) % p
    return not acc.any()
