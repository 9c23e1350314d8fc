"""Dense linear algebra over F_p on tuples of tuples.

Everything here is exact modular arithmetic on small matrices.  For orbit counting
a matrix acts as a permutation of the p^m vectors (the big-endian index shared with
`walk`) and a subspace as the mask of its vectors; RREF stays canonical form and oracle.
`rref` is the canonical form of a row space; `mat_rank` only counts pivots by forward
elimination and builds no reduced form.  GL(d,p) acts on the multiplicator of the
p-covering group of C_p^d by one formula for every p, `wedge_matrix`.
"""
from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import guards
from .qcombin import _is_prime, galois_number


# ---------------------------------------------------------------------------
# matrices


@functools.lru_cache(maxsize=None)
def mat_identity(n: int) -> tuple:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: tuple, b: tuple, p: int) -> tuple:
    bt = tuple(zip(*b))
    return tuple(tuple(sum(map(operator.mul, ra, cb)) % p for cb in bt) for ra in a)


def state_table(p: int, d: int) -> np.ndarray:
    """Row i is the state with big-endian index i, in the order of `itertools.product`.

    The shape is (p**d, d), so d = 0 gives one empty row.  The table is C-contiguous:
    numpy adds a contiguous row of 8 or more entries pairwise but a strided one left
    to right, so row sums over a transposed table would round differently.
    """
    table = np.empty((p,) * d + (d,), dtype=np.int64)
    for axis in range(d):
        table[..., axis] = np.arange(p).reshape((p,) + (1,) * (d - 1 - axis))
    return table.reshape(p**d, d)


def _index_weights(p: int, d: int) -> np.ndarray:
    return np.array([p ** (d - 1 - i) for i in range(d)], dtype=np.int64)


def matrix_index_perm(m, p: int, d: int) -> np.ndarray:
    """Permutation i -> index of M * state(i); a stack of matrices gives one row each."""
    img = np.array(m, dtype=np.int64) @ state_table(p, d).T
    img %= p  # in place: for a stack of matrices this is the largest array
    return _index_weights(p, d) @ img


def rref(rows: Iterable[Sequence[int]], p: int) -> tuple:
    """Reduced row echelon form; returns the nonzero rows as a canonical tuple."""
    mat = [list(r) for r in rows]
    if not mat:
        return ()
    ncols = len(mat[0])
    pivot_row = 0
    for col in range(ncols):
        sel = None
        for r in range(pivot_row, len(mat)):
            if mat[r][col] % p:
                sel = r
                break
        if sel is None:
            continue
        mat[pivot_row], mat[sel] = mat[sel], mat[pivot_row]
        inv = pow(mat[pivot_row][col], -1, p)
        mat[pivot_row] = [(x * inv) % p for x in mat[pivot_row]]
        for r in range(len(mat)):
            if r != pivot_row and mat[r][col] % p:
                c = mat[r][col] % p
                mat[r] = [(x - c * y) % p for x, y in zip(mat[r], mat[pivot_row])]
        pivot_row += 1
        if pivot_row == len(mat):
            break
    return tuple(tuple(r) for r in mat[:pivot_row] if any(r))


def mat_rank(a: Iterable[Sequence[int]], p: int) -> int:
    """Rank by forward elimination: pivots are counted, and no reduced form is built.

    Each row in turn is the pivot row at its first nonzero column, and that column
    is cleared from the rows still to come by u*row - c*pivot with u the pivot's
    (unit) entry, so no inverse is needed; rows that vanish are dropped.
    """
    rows = [r for r in ([x % p for x in row] for row in a) if any(r)]
    rank = 0
    while rows:
        pivot = rows.pop()
        rank += 1
        col = next(j for j, x in enumerate(pivot) if x)
        u = pivot[col]
        rest = []
        for r in rows:
            c = r[col]
            if c:
                r = [(u * x - c * y) % p for x, y in zip(r, pivot)]
                if not any(r):
                    continue
            rest.append(r)
        rows = rest
    return rank


def characteristic_polynomial(a: tuple, p: int) -> tuple:
    """det(tI - a) mod p, monic and low-to-high, with no matrix product.

    Hessenberg reduction by similarity: for each column k - 1 a pivot is swapped
    into row k, row k times u is taken from every row i > k, and column i times u
    is added to column k.  The leading principal minors p_k of the Hessenberg
    matrix H then satisfy p_{k+1} = (t - h_kk) p_k - sum_{i<k} h_ik h_{i+1,i}...h_{k,k-1} p_i
    (H. Cohen, A Course in Computational Algebraic Number Theory, GTM 138, Alg. 2.2.9).
    """
    n = len(a)
    h = [[x % p for x in row] for row in a]
    for k in range(1, n - 1):
        piv = next((i for i in range(k, n) if h[i][k - 1]), None)
        if piv is None:
            continue
        if piv != k:
            h[k], h[piv] = h[piv], h[k]
            for row in h:
                row[k], row[piv] = row[piv], row[k]
        inv = pow(h[k][k - 1], -1, p)
        hk = h[k]
        mults = []
        for i in range(k + 1, n):
            u = h[i][k - 1] * inv % p
            if u:
                h[i] = [(x - u * y) % p for x, y in zip(h[i], hk)]
                mults.append((i, u))
        if mults:
            for row in h:
                row[k] = (row[k] + sum(u * row[i] for i, u in mults)) % p
    minors = [[1]]
    for k in range(n):
        nxt = [0] + minors[k]  # t p_k
        c = h[k][k]
        for j, x in enumerate(minors[k]):
            nxt[j] -= c * x
        sub = 1
        for i in range(k - 1, -1, -1):
            sub = sub * h[i + 1][i] % p
            if not sub:
                break
            c = sub * h[i][k]
            for j, x in enumerate(minors[i]):
                nxt[j] -= c * x
        minors.append([x % p for x in nxt])
    return tuple(minors[n])


def mat_inverse(a: tuple, p: int) -> tuple:
    n = len(a)
    aug = [list(a[i]) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    red = rref(aug, p)
    if len(red) < n or any(red[i][i] != 1 for i in range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(row[n:]) for row in red)


def is_invertible(a: tuple, p: int) -> bool:
    return mat_rank(a, p) == len(a)


def reduce_against(v: Sequence[int], rows: tuple, p: int) -> tuple:
    """Reduce a vector against RREF rows; zero result means membership."""
    w = list(x % p for x in v)
    for row in rows:
        piv = next(i for i, x in enumerate(row) if x)
        if w[piv]:
            c = w[piv]
            w = [(x - c * y) % p for x, y in zip(w, row)]
    return tuple(w)


# ---------------------------------------------------------------------------
# subspaces


@dataclass(frozen=True)
class FpSubspace:
    """Subspace of F_p^m as its reduced-row-echelon basis (canonical)."""

    rows: tuple
    ambient_dim: int
    p: int

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, v: Sequence[int]) -> bool:
        return not any(reduce_against(v, self.rows, self.p))


def enumerate_rref_rows(m: int, p: int, k: int) -> Iterator[tuple]:
    """All RREF bases of k-dimensional subspaces of F_p^m, each exactly once."""
    for pivots in itertools.combinations(range(m), k):
        free = [
            (i, j)
            for i in range(k)
            for j in range(pivots[i] + 1, m)
            if j not in pivots
        ]
        for vals in itertools.product(range(p), repeat=len(free)):
            rows = [[0] * m for _ in range(k)]
            for i in range(k):
                rows[i][pivots[i]] = 1
            for (i, j), v in zip(free, vals):
                rows[i][j] = v
            yield tuple(tuple(r) for r in rows)


def enumerate_subspaces(m: int, p: int) -> Iterator[FpSubspace]:
    """Every subspace of F_p^m exactly once, in canonical (dim, RREF) order."""
    guards.check("subspace_count", galois_number(m, p))
    for k in range(m + 1):
        for rows in enumerate_rref_rows(m, p, k):
            yield FpSubspace(rows, m, p)


def gl_order(d: int, p: int) -> int:
    order = 1
    for i in range(d):
        order *= p**d - p**i
    return order


def gl_enumerate(d: int, p: int) -> list:
    """All invertible d x d matrices over F_p, built row by row."""
    order = gl_order(d, p)
    guards.check("gl_order", order)  # first, since trial division is slow for a huge p
    if d < 1 or not _is_prime(p):
        raise ValueError(f"GL({d},{p}) needs d >= 1 and a prime p")
    vectors = list(itertools.product(range(p), repeat=d))
    out: list = []

    def extend(rows: list):
        if len(rows) == d:
            out.append(tuple(rows))
            return
        span = rref(rows, p) if rows else ()
        for v in vectors:
            if rows and not any(reduce_against(v, span, p)):
                continue
            if not rows and not any(v):
                continue
            extend(rows + [v])

    extend([])
    if len(out) != order:
        raise ArithmeticError(f"enumerated {len(out)} matrices, |GL({d},{p})| = {order}")
    return out


@functools.lru_cache(maxsize=None)
def subspace_masks(m: int, p: int) -> np.ndarray:
    """Row i marks the vectors of the i-th subspace of `enumerate_subspaces(m, p)`; read-only."""
    coeffs, weights = [state_table(p, k) for k in range(m + 1)], _index_weights(p, m)
    vectors = ((coeffs[s.dim] @ np.array(s.rows, dtype=np.int64).reshape(s.dim, m)) % p @ weights
               for s in enumerate_subspaces(m, p))  # every combination of the RREF rows
    masks = np.array([np.bincount(v, minlength=p**m) > 0 for v in vectors])
    masks.flags.writeable = False  # one array is shared by every caller
    return masks


def fixed_subspace_count(perm: np.ndarray, masks: np.ndarray) -> int:
    """Number of subspaces (mask rows) that the permutation maps onto themselves."""
    return int((masks[:, perm] == masks).all(axis=1).sum())


# ---------------------------------------------------------------------------
# group actions


@dataclass(frozen=True)
class LinearAction:
    """A finite matrix group acting on F_p^dim; element list is the whole group.

    `name` labels the action in the `orbits` CSV.
    `perms[i]` permutes the vector index as element i does.  Dimino's closure
    checks exhaustively that the elements form a group.
    """

    elements: tuple
    p: int
    dim: int
    name: str = "action"
    perms: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d, p = self.dim, self.p
        for g in self.elements:
            ok = isinstance(g, tuple) and len(g) == d and all(isinstance(r, tuple) and len(r) == d for r in g)
            if not (ok and all(isinstance(x, int) and 0 <= x < p for r in g for x in r)):
                raise ValueError(f"action element {g!r} is not a {d}x{d} tuple of tuples with entries in 0..{p - 1}")
        if mat_identity(d) not in self.elements:
            raise ValueError("action must contain the identity")
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("duplicate elements in action")
        guards.check("permutation_table", max(len(self.elements), d) * p**d)
        perms = np.empty((len(self.elements), p**d), dtype=np.int32)
        step = 1 + 2**20 // (d * p**d)  # elements per call, so that its int64 work stays at a few MB
        for k in range(0, len(self.elements), step):
            perms[k:k + step] = matrix_index_perm(self.elements[k:k + step], p, d)
        if np.count_nonzero(perms == 0) != len(perms):  # a singular element sends some v != 0 to 0
            raise ValueError(f"an action element is singular mod {p}")
        object.__setattr__(self, "perms", perms)
        cols = perms[:, _index_weights(p, d)]  # images of the basis vectors determine the matrix
        index = {col.tobytes(): i for i, col in enumerate(cols)}
        span, gens = [self.elements.index(mat_identity(d))], []
        seen = set(span)
        for s in range(len(perms)):
            if s in seen:
                continue
            gens.append(s)
            old = len(span)  # the span so far is closed under the older generators
            for i, x in enumerate(span):  # also visits what is appended
                for h in gens[-1:] if i < old else gens:
                    y = index.get(perms[x][cols[h]].tobytes())
                    if y is None:
                        raise ValueError("element set not closed under product")
                    if y not in seen:
                        seen.add(y)
                        span.append(y)

    def __len__(self):
        return len(self.elements)


def natural_action(d: int, p: int) -> LinearAction:
    return LinearAction(tuple(gl_enumerate(d, p)), p, d, name=f"GL({d},{p}) natural")


def wedge_pairs(d: int) -> list:
    return [(i, j) for i in range(d) for j in range(i + 1, d)]


def wedge_matrix(g: tuple, p: int) -> tuple:
    """g on the multiplicator M = V + wedge(V,V) of the p-covering group R of C_p^d.

    Columns are the images of x_i^p, then of [x_j, x_i] for i < j, under the lift
    x_i -> prod_k x_k^g[k][i].  M is central in R, so (xy)^p = x^p y^p [y,x]^C(p,2)
    and x_i^p also picks up C(p,2) g[k][i] g[l][i] on the pair (k, l), 0 for odd p.
    """
    pairs = wedge_pairs(len(g))
    c = p * (p - 1) // 2
    top = [[x % p for x in row] + [0] * len(pairs) for row in g]
    low = [[c * g[k][i] * g[l][i] % p for i in range(len(g))]
           + [(g[k][i] * g[l][j] - g[l][i] * g[k][j]) % p for i, j in pairs] for k, l in pairs]
    return tuple(map(tuple, top + low))


def wedge_module(d: int, p: int) -> LinearAction:
    """GL(d,p) acting on the multiplicator M of the p-covering group of C_p^d."""
    elems = tuple(wedge_matrix(g, p) for g in gl_enumerate(d, p))
    return LinearAction(elems, p, d + len(wedge_pairs(d)), name=f"GL({d},{p}) wedge")


def cauchy_frobenius(action: LinearAction) -> tuple:
    """Orbit count as the average number of fixed subspaces; exactness checked."""
    masks = subspace_masks(action.dim, action.p)
    fixed = [fixed_subspace_count(perm, masks) for perm in action.perms]
    orbit_count, rem = divmod(sum(fixed), len(action))
    if rem:
        raise ArithmeticError("fixed-point total not divisible by group order")
    return orbit_count, fixed


@dataclass(frozen=True)
class OrbitCensus:
    orbit_count: int
    regular_count: int
    orbits: tuple  # (size, stabilizer_order) per orbit, deterministic order


def regular_orbits(action: LinearAction) -> OrbitCensus:
    """Orbits of all subspaces, in order of their least member, with stabilizer orders."""
    visited: set = set()
    orbits = []
    for mask in subspace_masks(action.dim, action.p):
        if mask.tobytes() in visited:
            continue
        images = mask[action.perms]  # the element list is the whole group
        stab = int((images == mask).all(axis=1).sum())
        members = {img.tobytes() for img in images}
        if not visited.isdisjoint(members):
            raise ArithmeticError("orbit reaches a subspace of an earlier orbit")
        visited |= members
        if len(members) * stab != len(action):
            raise ArithmeticError("orbit-stabilizer identity violated")
        orbits.append((len(members), stab))
    return OrbitCensus(len(orbits), sum(stab == 1 for _, stab in orbits), tuple(orbits))


# ---------------------------------------------------------------------------
# polynomials over F_p (shared by the canonical-form machinery)


def poly_trim(c: Sequence[int]) -> tuple:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> tuple:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return poly_trim(out)


def poly_divmod(a: Sequence[int], b: Sequence[int], p: int) -> tuple:
    a = list(x % p for x in a)
    b = poly_trim([x % p for x in b])
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv = pow(b[-1], -1, p)
    quot = [0] * max(0, len(a) - len(b) + 1)
    while len(poly_trim(a)) >= len(b):
        a = list(poly_trim(a))
        shift = len(a) - len(b)
        c = (a[-1] * inv) % p
        quot[shift] = c
        for i, x in enumerate(b):
            a[shift + i] = (a[shift + i] - c * x) % p
    return poly_trim(quot), poly_trim(a)


def poly_pow(a: Sequence[int], e: int, p: int) -> tuple:
    out: tuple = (1,)
    for _ in range(e):
        out = poly_mul(out, a, p)
    return out


@functools.lru_cache(maxsize=None)
def monic_irreducibles(p: int, max_deg: int) -> list:
    """Monic irreducible polynomials of degree 1..max_deg, by sieve."""
    irr: list = []
    for deg in range(1, max_deg + 1):
        for tail in itertools.product(range(p), repeat=deg):
            f = poly_trim(tuple(tail) + (1,))
            if len(f) != deg + 1:
                continue
            if any(
                len(g) - 1 <= deg // 2 and not poly_divmod(f, g, p)[1]
                for g in irr
            ):
                continue
            irr.append(f)
    return irr


def companion_matrix(f: Sequence[int], p: int) -> tuple:
    """Companion matrix of a monic polynomial, column convention."""
    f = poly_trim(f)
    k = len(f) - 1
    if k < 1 or f[-1] != 1:
        raise ValueError("companion matrix needs a monic polynomial of degree >= 1")
    out = [[0] * k for _ in range(k)]
    for j in range(k - 1):
        out[j + 1][j] = 1
    for i in range(k):
        out[i][k - 1] = (-f[i]) % p
    return tuple(tuple(r) for r in out)


def block_diag(mats: Sequence[tuple], p: int) -> tuple:
    n = sum(len(m) for m in mats)
    out = [[0] * n for _ in range(n)]
    off = 0
    for m in mats:
        for i, row in enumerate(m):
            for j, x in enumerate(row):
                out[off + i][off + j] = x % p
        off += len(m)
    return tuple(tuple(r) for r in out)


def _partitions_of(n: int) -> Iterator[tuple]:
    if n == 0:
        yield ()
        return

    def rec(remaining: int, largest: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    yield from rec(n, n)


def gl_class_reps(d: int, p: int) -> list:
    """One representative per conjugacy class of GL(d,p), via canonical forms.

    A class corresponds to an assignment of a partition to each monic
    irreducible other than t, with total weighted size d; the representative
    is the block-diagonal of companion matrices of f^part.
    """
    irs = [f for f in monic_irreducibles(p, d) if f[0] != 0]
    reps: list = []

    def rec(idx: int, remaining: int, chosen: list):
        if remaining == 0:
            blocks = []
            for f, parts in chosen:
                for m in parts:
                    blocks.append(companion_matrix(poly_pow(f, m, p), p))
            reps.append(block_diag(blocks, p) if blocks else mat_identity(0))
            return
        if idx == len(irs):
            return
        f = irs[idx]
        deg = len(f) - 1
        rec(idx + 1, remaining, chosen)
        for total in range(1, remaining // deg + 1):
            for parts in _partitions_of(total):
                rec(idx + 1, remaining - total * deg, chosen + [(f, parts)])

    rec(0, d, [])
    return reps

