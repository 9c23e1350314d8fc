"""Submodule counting over discrete valuation rings and F_p[t]-module structure.

The closed submodule-count formula is indexed by conjugates: the module has
type alpha' while the product formula runs over the parts of alpha.  The abelian-group oracle speaks in group types lambda, so the
two sides are compared through lambda = conjugate(alpha).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, Sequence, Tuple

from .fplin import (
    is_invertible,
    mat_identity,
    mat_mul,
    mat_rank,
    monic_irreducibles,
    poly_divmod,
    poly_mul,
    poly_trim,
    rref,
)
from .qcombin import BoundReal, Partition, c_series, d_series, galois_number, gauss_binom
from .groups.cayley import abelian_type_of_orders
from .groups.families import abelian_of_type

ORACLE_ORDER_GUARD = 4096
DECOMPOSE_DIM_GUARD = 8


def submodule_count(alpha, beta, q: int) -> int:
    """Number of submodules of type beta' in a module of type alpha' over a DVR
    with residue field of order q.  Zero when beta is not contained in alpha."""
    alpha = alpha if isinstance(alpha, Partition) else Partition(alpha)
    beta = beta if isinstance(beta, Partition) else Partition(beta)
    if not alpha.contains(beta):
        return 0
    out = 1
    s = len(beta)
    for i in range(1, s + 1):
        b_i, b_next = beta.part(i), beta.part(i + 1)
        a_i = alpha.part(i)
        out *= gauss_binom(a_i - b_next, b_i - b_next, q) * q ** (b_next * (a_i - b_i))
    return out


def subpartitions(alpha) -> Iterator[Partition]:
    """All partitions contained componentwise in alpha."""
    alpha = alpha if isinstance(alpha, Partition) else Partition(alpha)

    def rec(i: int, prev: int) -> Iterator[Tuple[int, ...]]:
        if i == len(alpha):
            yield ()
            return
        for x in range(min(prev, alpha.part(i + 1)), -1, -1):
            for rest in rec(i + 1, x):
                yield (x,) + rest

    for parts in rec(0, alpha.part(1) if len(alpha) else 0):
        yield Partition(parts)


def total_submodules(alpha, q: int) -> int:
    """Sum of submodule counts over all contained types."""
    alpha = alpha if isinstance(alpha, Partition) else Partition(alpha)
    return sum(submodule_count(alpha, beta, q) for beta in subpartitions(alpha))


# ---------------------------------------------------------------------------
# brute-force oracle on abelian groups


_census_cache: Dict[Tuple[int, Tuple[int, ...]], Dict[Tuple[int, ...], int]] = {}


def abelian_subgroup_type_census(p: int, lam) -> Dict[Tuple[int, ...], int]:
    """Subgroup counts by abelian type, from exhaustive subgroup enumeration."""
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    key = (p, lam.parts)
    if key in _census_cache:
        return _census_cache[key]
    order = p**lam.size
    if order > ORACLE_ORDER_GUARD:
        raise ValueError(f"group order {order} exceeds oracle guard {ORACLE_ORDER_GUARD}")
    g = abelian_of_type(p, lam.parts, guard=ORACLE_ORDER_GUARD)
    orders = g.element_orders()
    census: Dict[Tuple[int, ...], int] = {}
    for sub in g.all_subgroups(guard=order):
        t = abelian_type_of_orders(orders[sub], p)
        census[t] = census.get(t, 0) + 1
    _census_cache[key] = census
    return census


def abelian_subgroup_oracle(p: int, lam, mu) -> int:
    """Brute-force count of subgroups of type mu in the abelian p-group of type lam."""
    mu = mu if isinstance(mu, Partition) else Partition(mu)
    return abelian_subgroup_type_census(p, lam).get(mu.parts, 0)


# ---------------------------------------------------------------------------
# module decomposition


@dataclass(frozen=True)
class PrimaryDecomposition:
    """Primary components (irreducible poly, exponent partition) of F_p^m under g."""

    components: tuple  # ((poly coeffs low-to-high, Partition), ...)
    p: int
    dim: int

    def signature(self) -> tuple:
        return tuple(sorted((f, mu.parts) for f, mu in self.components))


def _vector_annihilator(g: tuple, v: tuple, p: int) -> tuple:
    """Monic minimal polynomial of g on the cyclic subspace generated by v."""
    m = len(g)
    cur = v
    krylov = [v]
    while True:
        if mat_rank(krylov, p) < len(krylov):
            break
        cur = tuple(sum(g[i][j] * cur[j] for j in range(m)) % p for i in range(m))
        krylov.append(cur)
    # last vector is a combination of the previous ones; solve for coefficients
    k = len(krylov) - 1
    aug = [[krylov[j][i] for j in range(k)] + [krylov[k][i]] for i in range(m)]
    red = rref(aug, p)
    coeffs = [0] * k
    for row in red:
        piv = next(i for i, x in enumerate(row) if x)
        if piv == k:
            raise ArithmeticError("inconsistent Krylov solve")
        coeffs[piv] = row[k]
    # g^k v = sum coeffs_j g^j v  ->  minimal poly t^k - sum coeffs_j t^j
    poly = [(-c) % p for c in coeffs] + [1]
    return poly_trim(poly)


def _poly_gcd(a, b, p: int) -> tuple:
    a, b = poly_trim(a), poly_trim(b)
    while b:
        a, b = b, poly_divmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], -1, p)
        a = tuple((x * inv) % p for x in a)
    return a


def _poly_lcm(a, b, p: int) -> tuple:
    if not a:
        return tuple(b)
    if not b:
        return tuple(a)
    g = _poly_gcd(a, b, p)
    q, r = poly_divmod(poly_mul(a, b, p), g, p)
    if r:
        raise ArithmeticError("gcd does not divide the product")
    inv = pow(q[-1], -1, p)
    return tuple((x * inv) % p for x in q)


def minimal_polynomial(g: tuple, p: int) -> tuple:
    """Monic minimal polynomial of g, by lcm of cyclic-vector annihilators."""
    m = len(g)
    out: tuple = ()
    for i in range(m):
        v = tuple(1 if j == i else 0 for j in range(m))
        out = _poly_lcm(out, _vector_annihilator(g, v, p), p)
        if len(out) - 1 == m:
            break
    return out


def _poly_of_matrix(f: Sequence[int], g: tuple, p: int) -> tuple:
    m = len(g)
    out = tuple(tuple(0 for _ in range(m)) for _ in range(m))
    for c in reversed(poly_trim(f) or (0,)):
        out = mat_mul(out, g, p)
        out = tuple(
            tuple((out[i][j] + (c if i == j else 0)) % p for j in range(m))
            for i in range(m)
        )
    return out


def decompose(g: tuple, p: int) -> PrimaryDecomposition:
    """Primary decomposition of F_p^m as an F_p[t]-module with t acting as g.

    Exponent partitions come from the kernel filtration of each irreducible
    factor: the dimension jumps, divided by deg f, are the conjugate partition.
    """
    m = len(g)
    if m > DECOMPOSE_DIM_GUARD:
        raise ValueError(f"dimension {m} exceeds guard {DECOMPOSE_DIM_GUARD}")
    if not is_invertible(g, p):
        raise ValueError("matrix is singular")
    minpoly = minimal_polynomial(g, p)
    factors = []
    rest = minpoly
    for f in monic_irreducibles(p, len(minpoly) - 1):
        if len(rest) == 1:
            break
        q, r = poly_divmod(rest, f, p)
        if not r:
            factors.append(f)
            while not r:
                rest = q
                q, r = poly_divmod(rest, f, p)
    if len(rest) != 1:
        raise ArithmeticError("minimal polynomial did not factor completely")
    comps = []
    for f in factors:
        deg = len(f) - 1
        prev = 0
        jumps = []
        power = mat_identity(m)
        fmat = _poly_of_matrix(f, g, p)
        while True:
            power = mat_mul(power, fmat, p)
            ker = m - mat_rank(power, p)
            if ker == prev:
                break
            step, rem = divmod(ker - prev, deg)
            if rem:
                raise ArithmeticError("kernel jump not divisible by factor degree")
            jumps.append(step)
            prev = ker
        comps.append((tuple(f), Partition(jumps).conjugate()))
    dec = PrimaryDecomposition(tuple(sorted(comps)), p, m)
    total = sum(deg_mu(f, mu) for f, mu in dec.components)
    if total != m:
        raise ArithmeticError("component dimensions do not add up")
    return dec


def deg_mu(f: Sequence[int], mu: Partition) -> int:
    return (len(f) - 1) * mu.size


def is_scalar(g: tuple, p: int) -> bool:
    m = len(g)
    c = g[0][0] % p
    return all(g[i][j] % p == (c if i == j else 0) for i in range(m) for j in range(m))


def structural_submodule_count(g: tuple, p: int) -> int:
    """Total submodule count via the primary decomposition and the closed formula."""
    dec = decompose(g, p)
    out = 1
    for f, mu in dec.components:
        q = p ** (len(f) - 1)
        out *= total_submodules(mu.conjugate(), q)
    return out


# ---------------------------------------------------------------------------
# bounds


def epsilon_logp(p: int) -> BoundReal:
    """log_p of C(p) D(p), as a certified enclosure."""
    cd = c_series(p) * d_series(p)
    return cd.log().scale(1.0 / math.log(p))


@dataclass(frozen=True)
class SmReport:
    s_m: int
    log_p_bound: BoundReal
    scalar_case: bool


def sm_value_and_bound(g: tuple, p: int) -> SmReport:
    """Exact submodule count plus the applicable log_p upper bound.

    Scalar action: every subspace is a submodule, so the count is the Galois
    number and the "bound" is its exact logarithm.  Otherwise the quadratic
    bound with the 2-epsilon correction applies.
    """
    m = len(g)
    if m < 2:
        raise ValueError("bound requires dimension at least 2")
    if is_scalar(g, p):
        s_m = galois_number(m, p)
        return SmReport(s_m, BoundReal(math.log(s_m, p), 1e-9), True)
    s_m = structural_submodule_count(g, p)
    eps = epsilon_logp(p)
    bound = BoundReal((m * m - 2 * m + 2) / 4.0, 1e-15) + eps.scale(2)
    return SmReport(s_m, bound, False)


def stronger_bound(m: int, p: int) -> BoundReal:
    """log_p bound for modules extending a wedge square by the natural module."""
    v = int((math.isqrt(8 * m + 1) - 1) // 2)
    if v < 2 or v * (v + 1) // 2 != m:
        raise ValueError(f"m={m} is not v(v+1)/2 for some v >= 2")
    eps = epsilon_logp(p)
    if m <= 45:
        c = eps + BoundReal(float(2 * m - 4), 0.0)
    else:
        c = eps.scale(5) + BoundReal(4.0, 0.0)
    return BoundReal((m - 4) ** 2 / 4.0, 1e-15) + c
