"""Submodule counting over discrete valuation rings and F_p[t]-module structure.

The closed submodule-count formula is indexed by conjugates: the module has
type alpha' while the product formula runs over the parts of alpha.  The abelian-group oracle speaks in group types lambda, so the
two sides are compared through lambda = conjugate(alpha).

`decompose` computes the powers I, g, ..., g^m once.  By Cayley-Hamilton the
minimal polynomial is the lowest-degree linear relation among them, read off
one echelon form of the flattened powers; a zero constant term means g is
singular.  Its factors f with their multiplicities e are found once per
minimal polynomial, by trial division up to half the remaining degree (the
cofactor left over is irreducible).  Each f is evaluated as f(g) = sum f_i g^i
from the same powers, and the kernel filtration of f(g) stops at f(g)^e.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Dict, Iterator, Sequence, Tuple

from .fplin import (mat_identity, mat_mul, mat_rank, monic_irreducibles, poly_divmod, poly_mul, poly_pow,
                    poly_trim, rref)
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


def _powers(g: tuple, p: int) -> list:
    """I, g, ..., g^m for an m x m matrix g."""
    out = [mat_identity(len(g))]
    for _ in range(len(g)):
        out.append(mat_mul(out[-1], g, p))
    return out


def _minimal_polynomial_of_powers(powers: list, p: int) -> tuple:
    """The lowest-degree monic relation among I, g, ..., g^m, from one echelon form.

    Row j is g^j flattened, tagged with t^j in tag columns ordered t^m down to
    t^0.  Reduced rows whose pivot lies in a tag column have a zero matrix part
    and form a basis of the relations; the last has the lowest leading degree.
    """
    m = len(powers) - 1
    rows = [sum(pw, ()) + tuple(int(k == m - j) for k in range(m + 1)) for j, pw in enumerate(powers)]
    last = rref(rows, p)[-1]
    if any(last[: m * m]):
        raise ArithmeticError("no linear relation among I, g, ..., g^m")
    return poly_trim(last[m * m:][::-1])


def minimal_polynomial(g: tuple, p: int) -> tuple:
    """Monic minimal polynomial of g, low-to-high coefficients."""
    return _minimal_polynomial_of_powers(_powers(g, p), p)


@functools.lru_cache(maxsize=None)
def _factor(minpoly: tuple, p: int) -> tuple:
    """Monic irreducible factors with multiplicities, ((f, e), ...), of minpoly.

    Trial division by the monic irreducibles in order of degree stops once the
    degree exceeds half that of the remaining cofactor, which is then 1 or
    irreducible.  The product of the f^e is checked against minpoly.
    """
    factors = []
    rest = minpoly
    for f in monic_irreducibles(p, (len(minpoly) - 1) // 2):
        if 2 * (len(f) - 1) > len(rest) - 1:
            break
        e = 0
        q, r = poly_divmod(rest, f, p)
        while not r:
            rest, e = q, e + 1
            q, r = poly_divmod(rest, f, p)
        if e:
            factors.append((f, e))
    if len(rest) > 1:
        factors.append((rest, 1))
    product: tuple = (1,)
    for f, e in factors:
        product = poly_mul(product, poly_pow(f, e, p), p)
    if product != minpoly:
        raise ArithmeticError("factors do not multiply back to the minimal polynomial")
    return tuple(factors)


def decompose(g: tuple, p: int) -> PrimaryDecomposition:
    """Primary decomposition of F_p^m as an F_p[t]-module with t acting as g.

    Exponent partitions come from the kernel filtration of each irreducible
    factor f of multiplicity e: the dimension jumps of ker f(g)^k, k = 1..e,
    divided by deg f, are the conjugate partition.
    """
    m = len(g)
    if m > DECOMPOSE_DIM_GUARD:
        raise ValueError(f"dimension {m} exceeds guard {DECOMPOSE_DIM_GUARD}")
    powers = _powers(g, p)
    minpoly = _minimal_polynomial_of_powers(powers, p)
    if minpoly[0] == 0:
        raise ValueError("matrix is singular")
    comps = []
    for f, e in _factor(minpoly, p):
        deg = len(f) - 1
        fmat = tuple(tuple(sum(map(operator.mul, f, entries)) % p for entries in zip(*rows))
                     for rows in zip(*powers[:deg + 1]))  # f(g), as deg f <= deg minpoly <= m
        power = fmat
        prev = 0
        jumps = []
        for k in range(e):
            if k:
                power = mat_mul(power, fmat, p)
            ker = m - mat_rank(power, p)
            step, rem = divmod(ker - prev, deg)
            if step <= 0 or rem:
                raise ArithmeticError("kernel jump is not a positive multiple of the factor degree")
            jumps.append(step)
            prev = ker
        comps.append((f, Partition(jumps).conjugate()))
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
    out = 1
    for f, mu in decompose(g, p).components:
        out *= _component_count(mu, p ** (len(f) - 1))
    return out


@functools.lru_cache(maxsize=None)
def _component_count(mu: Partition, q: int) -> int:
    """Submodules of one primary component with exponent partition mu."""
    return total_submodules(mu.conjugate(), q)


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
