"""Small prime-power fields F_q with table arithmetic, and RREF over them.

An oracle substrate for the tests: subspace counts over F_q are checked by
explicit elimination here, never through the q-binomial product formula.
"""
from typing import Iterable, Sequence

from pgrouplab.fplin import (
    fixed_subspace_count, is_invertible, matrix_index_perm, poly_divmod, poly_mul, subspace_masks,
)

# fixed irreducible moduli per (p, degree); coefficients low-to-high
_FIELD_MODULI = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (3, 2): (1, 0, 1),
    (3, 3): (1, 2, 0, 1),
    (5, 2): (2, 0, 1),
    (7, 2): (1, 0, 1),
}


class SmallField:
    """F_q as F_p[t]/(f) with precomputed add/mul/inv tables.

    Elements are integers 0..q-1 encoding base-p coefficient vectors.
    """

    def __init__(self, q: int):
        p, k = _prime_power(q)
        self.q, self.p, self.deg = q, p, k
        if k == 1:
            self.add = [[(a + b) % p for b in range(p)] for a in range(p)]
            self.mul = [[(a * b) % p for b in range(p)] for a in range(p)]
        else:
            f = _FIELD_MODULI[(p, k)]
            polys = [self._decode(e) for e in range(q)]
            self.add = [
                [self._encode([(x + y) % p for x, y in zip(polys[a], polys[b])]) for b in range(q)]
                for a in range(q)
            ]
            self.mul = [
                [
                    self._encode(poly_divmod(poly_mul(polys[a], polys[b], p), f, p)[1])
                    for b in range(q)
                ]
                for a in range(q)
            ]
        self.neg = [0] * q
        self.inv = [0] * q
        for a in range(q):
            for b in range(q):
                if self.add[a][b] == 0:
                    self.neg[a] = b
                if a and self.mul[a][b] == 1:
                    self.inv[a] = b

    def _decode(self, e: int) -> list:
        return [(e // self.p**i) % self.p for i in range(self.deg)]

    def _encode(self, coeffs: Sequence[int]) -> int:
        return sum((c % self.p) * self.p**i for i, c in enumerate(coeffs))


def _prime_power(q: int) -> tuple:
    for p in (2, 3, 5, 7, 11, 13):
        if q % p == 0:
            k = 0
            while q % p == 0:
                q //= p
                k += 1
            if q != 1:
                raise ValueError("q must be a prime power")
            return p, k
    raise ValueError("q must be a prime power with p <= 13")


def mat_vec(a: Sequence[Sequence[int]], v: Sequence[int], p: int) -> tuple:
    """The product a*v over F_p, written out entry by entry."""
    return tuple(sum(x * y for x, y in zip(row, v)) % p for row in a)


def invariant_subspace_count(g: tuple, p: int) -> int:
    """Brute-force count of g-invariant subspaces of the natural module F_p^m.

    It tests every subspace's vector mask against g's permutation of the
    vectors, the mask path of `fplin.cauchy_frobenius`; it reads no
    decomposition of the module.
    """
    if not is_invertible(g, p):
        raise ValueError("matrix is singular")
    return fixed_subspace_count(matrix_index_perm(g, p), subspace_masks(len(g), p))


def rref_field(rows: Iterable[Sequence[int]], field: SmallField) -> tuple:
    """RREF over a SmallField; same canonical-form contract as rref()."""
    mat = [list(r) for r in rows]
    if not mat:
        return ()
    ncols = len(mat[0])
    add, mul, neg, inv = field.add, field.mul, field.neg, field.inv
    pivot_row = 0
    for col in range(ncols):
        sel = next((r for r in range(pivot_row, len(mat)) if mat[r][col]), None)
        if sel is None:
            continue
        mat[pivot_row], mat[sel] = mat[sel], mat[pivot_row]
        c = inv[mat[pivot_row][col]]
        mat[pivot_row] = [mul[c][x] for x in mat[pivot_row]]
        for r in range(len(mat)):
            if r != pivot_row and mat[r][col]:
                c = mat[r][col]
                mat[r] = [
                    add[x][neg[mul[c][y]]] for x, y in zip(mat[r], mat[pivot_row])
                ]
        pivot_row += 1
        if pivot_row == len(mat):
            break
    return tuple(tuple(r) for r in mat[:pivot_row] if any(r))
