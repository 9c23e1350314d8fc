"""Exact big-integer and rational references for `pgrouplab.bounds` and `pgrouplab.walk`.

An oracle for the tests: it shares no code with the modules it checks.  The
nested profile sums are kept as exact numbers (a + b sqrt(p)) p^(shift/2)
instead of merged float64 exponent counts, and the walk is evolved in
`Fraction`s by pushing each state's mass forward through A x, with the
matrix-vector product written out here.  The diagonalizable-chain bound is
recomputed from scratch for each step count, in the same float operations as
the library's running products, so the two must agree exactly.

The float walk references (`rolled_steps`, `product_form_steps`, `tv_distance`,
`chi2_rhs`) do the floating-point operations of `walk` in the same order, but
list the states with `itertools.product`, move mass forward by A instead of
pulling it back by A^-1, take neighbours with `np.roll`, compute the cosine of
every state directly and allocate fresh arrays: they must agree bit for bit.
`direct_transform` is the naive complex transform of any distribution, the
route that `walk.fourier_steps` is compared with to a tolerance.
"""
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Optional

import numpy as np

from pgrouplab.freelie import dn_dim


@dataclass
class SqrtNum:
    """Exact positive number a + b*sqrt(p) times p^(half_shift/2)."""

    p: int
    half_shift: int
    a: int
    b: int

    @classmethod
    def one(cls, p: int) -> "SqrtNum":
        return cls(p, 0, 1, 0)

    def shifted(self, half_units: int) -> "SqrtNum":
        return SqrtNum(self.p, self.half_shift + half_units, self.a, self.b)

    def __add__(self, other: "SqrtNum") -> "SqrtNum":
        if self.p != other.p:
            raise ValueError(f"cannot add numbers over sqrt({self.p}) and sqrt({other.p})")
        lo, hi = (self, other) if self.half_shift <= other.half_shift else (other, self)
        delta = hi.half_shift - lo.half_shift
        p = self.p
        if delta % 2 == 0:
            scale = p ** (delta // 2)
            return SqrtNum(p, lo.half_shift, lo.a + hi.a * scale, lo.b + hi.b * scale)
        scale = p ** ((delta - 1) // 2)
        # (a + b sqrt p) * sqrt p = b p + a sqrt p
        return SqrtNum(p, lo.half_shift, lo.a + hi.b * p * scale, lo.b + hi.a * scale)

    def log_p(self) -> float:
        la = _log_bigint(self.a) if self.a else -math.inf
        lb = (_log_bigint(self.b) + 0.5 * math.log(self.p)) if self.b else -math.inf
        if la == -math.inf and lb == -math.inf:
            return -math.inf
        m = max(la, lb)
        total = m + math.log(math.exp(la - m) + math.exp(lb - m))
        return self.half_shift / 2.0 + total / math.log(self.p)


def _log_bigint(x: int) -> float:
    if x <= 0:
        raise ValueError("log of nonpositive integer")
    if x < 2**52:
        return math.log(x)
    k = x.bit_length() - 52
    return math.log(x >> k) + k * math.log(2)


def gaussprods_tables_bigint(p: int, d: int, n: int) -> Dict[int, List[SqrtNum]]:
    """Big-integer values of the tables of `bounds.gaussprods_tables` (slow)."""
    dims = {j: dn_dim(d, j) for j in range(1, n + 1)}
    inner_lo = {j: 0 for j in range(2, n + 1)}
    inner_lo[n - 1] = 1
    inner_lo[n] = 2
    tables: Dict[int, List[SqrtNum]] = {n: [SqrtNum.one(p)] * (dims[n] + 1)}
    for j in range(n - 1, 0, -1):
        nxt = tables[j + 1]
        vec = []
        for u_j in range(dims[j] + 1):
            acc: Optional[SqrtNum] = None
            for u in range(inner_lo[j + 1], dims[j + 1] + 1):
                half = (dims[j + 1] - u) * (2 * u - u_j)
                term = nxt[u].shifted(half)
                acc = term if acc is None else acc + term
            vec.append(acc if acc is not None else SqrtNum(p, 0, 0, 0))
        tables[j] = vec
    return tables


def evolve_exact_rational(spec, n: int) -> List[Fraction]:
    """P_n of the walk X_{k+1} = A X_k + g_k as exact rationals, for at most 3^6 states.

    spec is a `walk.WalkSpec`; states are listed big-endian, as the library
    indexes them.  Each step sends the mass at x to y = A x, keeps 1 - q of
    it there and moves q / (2d) of it to each y +- e_i.
    """
    if spec.n_states > 3**6:
        raise ValueError("rational mode limited to 3^6 states")
    p, d, a = spec.p, spec.d, spec.a_matrix
    q = Fraction(spec.q_weight)
    states = list(itertools.product(range(p), repeat=d))
    index = {s: i for i, s in enumerate(states)}
    dist = [Fraction(0)] * len(states)
    dist[0] = Fraction(1)
    for _ in range(n):
        out = [Fraction(0)] * len(states)
        for x, mass in zip(states, dist):
            if not mass:
                continue
            y = tuple(sum(row[j] * x[j] for j in range(d)) % p for row in a)
            out[index[y]] += (1 - q) * mass
            for axis, sign in itertools.product(range(d), (1, -1)):
                z = list(y)
                z[axis] = (z[axis] + sign) % p
                out[index[tuple(z)]] += q / (2 * d) * mass
        dist = out
    return dist


def _image_perm(a, p: int, d: int) -> np.ndarray:
    """Index of A x for each state x, states listed big-endian."""
    states = list(itertools.product(range(p), repeat=d))
    index = {s: i for i, s in enumerate(states)}
    return np.array([index[tuple(sum(row[j] * x[j] for j in range(d)) % p for row in a)]
                     for x in states])


def rolled_steps(spec, n: int) -> Iterator[np.ndarray]:
    """P_0, ..., P_n: the mass at x moves to A x, then a stencil of `np.roll` copies."""
    p, d, q = spec.p, spec.d, spec.q_weight
    perm_a = _image_perm(spec.a_matrix, p, d)
    dist = np.zeros(p**d)
    dist[0] = 1.0
    yield dist
    for _ in range(n):
        moved = np.empty(p**d)
        moved[perm_a] = dist
        r = moved.reshape((p,) * d)
        out = (1.0 - q) * moved
        for axis in range(d):
            out = out + (q / (2 * d)) * (np.roll(r, 1, axis=axis) + np.roll(r, -1, axis=axis)).reshape(-1)
        dist = out
        yield dist


def product_form_steps(spec, n: int) -> Iterator[np.ndarray]:
    """The transform of P_0, ..., P_n: the one-step transform at each state's cosines,
    composed with A^T (transposed) once more per step."""
    p, d, q = spec.p, spec.d, spec.q_weight
    states = np.array(list(itertools.product(range(p), repeat=d)), dtype=np.int64)
    cur = 1.0 - q + (q / d) * np.cos(2 * np.pi * states / p).sum(axis=1)
    perm_at = _image_perm(tuple(zip(*spec.a_matrix)), p, d)
    f = np.ones(p**d)
    yield f
    for _ in range(n):
        f = f * cur
        cur = cur[perm_at]
        yield f


def direct_transform(dist: np.ndarray, p: int, d: int) -> np.ndarray:
    """Complex transform of an arbitrary distribution, one axis at a time (the naive route)."""
    w1 = np.exp(2j * np.pi * np.outer(np.arange(p), np.arange(p)) / p)
    arr = dist.reshape((p,) * d).astype(complex)
    for axis in range(d):
        arr = np.tensordot(w1, arr, axes=(1, axis))
        arr = np.moveaxis(arr, 0, axis)
    return arr.reshape(-1)


def tv_distance(dist: np.ndarray) -> float:
    return 0.5 * float(np.abs(dist - 1.0 / dist.size).sum())


def chi2_rhs(fourier: np.ndarray) -> float:
    return float((np.abs(fourier[1:]) ** 2).sum())


def d_n_expression(p: int, b: int, q_weight: float, n: int) -> float:
    """Sum over nonzero frequencies of the squared n-step product for the
    scalar chain with multiplier b, each product rebuilt from its first factor."""
    if b % p == 0:
        raise ValueError("b must be a unit mod p")
    total = 0.0
    for y in range(1, p):
        prod = 1.0
        c = y
        for _ in range(n):
            prod *= (1.0 - q_weight + q_weight * math.cos(2 * math.pi * c / p)) ** 2
            c = (c * b) % p
        total += prod
    return total


def ubthm_bound(p: int, d: int, eigenvalues, q_weight: float, n: int) -> float:
    """exp(sum_i D_n(a_i, q/8d)) - 1, from scratch."""
    s = sum(d_n_expression(p, a, q_weight / (8 * d), n) for a in eigenvalues)
    return math.expm1(s) if s < 700 else math.inf
