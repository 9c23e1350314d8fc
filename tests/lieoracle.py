"""Polynomial-product references for the subspace operations of `pgrouplab.freelie`.

An oracle for the tests: it shares no code with the index arithmetic it
checks.  A subspace is given by its RREF rows, its degrees, d and p.  Each
row becomes an `NcPoly` over the words of those degrees, listed here with
`itertools.product`; brackets [f, x_j] are the products f x_j - x_j f, and
random spans are `NcPoly` sums of the bracketed Lyndon basis scaled by the
library's `random.Random(seed).randrange(p)` draws, in the same order.  The
images are reduced with `smallfield.rref_field`, so the results are RREF
rows comparable with `LieSubspace.rows`.
"""
import itertools
import random

from pgrouplab.freelie import NcPoly, lambda_basis

from smallfield import SmallField, rref_field


def words(d, degrees):
    """The coordinate words of the given degrees, ordered by (degree, lex)."""
    return [w for n in degrees for w in itertools.product(range(1, d + 1), repeat=n)]


def com_j(f, j):
    """[f, x_j] = f x_j - x_j f."""
    x = NcPoly.generator(j, f.p, f.d)
    return f * x - x * f


def basis_polys(rows, degrees, d, p):
    """The polynomial of each coordinate row."""
    ws = words(d, degrees)
    return [NcPoly({ws[i]: c for i, c in enumerate(row) if c}, p, d) for row in rows]


def span_rows(polys, degrees, d, p):
    """RREF rows of the span of the polynomials, in the coordinates of the degrees."""
    index = {w: i for i, w in enumerate(words(d, degrees))}
    vecs = []
    for f in polys:
        v = [0] * len(index)
        for w, c in f.coeffs.items():
            v[index[w]] = c
        vecs.append(v)
    return rref_field(vecs, SmallField(p))


def com_rows(rows, degrees, d, p):
    """RREF rows of the span of [f, x_j] over the rows f and j = 1..d."""
    images = [com_j(f, j) for f in basis_polys(rows, degrees, d, p) for j in range(1, d + 1)]
    return span_rows(images, tuple(n + 1 for n in degrees), d, p)


def random_span_rows(degrees, d, p, dim, seed):
    """RREF rows of dim seeded combinations of the bracketed Lyndon basis."""
    basis = [b for n in degrees for b in lambda_basis(d, n, p)]
    rng = random.Random(seed)
    polys = []
    for _ in range(dim):
        f = NcPoly.zero(p, d)
        for b in basis:
            f = f + b.scale(rng.randrange(p))
        polys.append(f)
    return span_rows(polys, degrees, d, p)
