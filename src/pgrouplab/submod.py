"""Submodule counting over discrete valuation rings and F_p[t]-module structure.

The closed submodule-count formula is indexed by conjugates: the module has
type alpha' while the product formula runs over the parts of alpha.  The abelian-group oracle speaks in group types lambda, so the
two sides are compared through lambda = conjugate(alpha).

`decompose` starts from the characteristic polynomial chi of g, found by
Hessenberg reduction and the recurrence of its leading principal minors
(H. Cohen, A Course in Computational Algebraic Number Theory, GTM 138,
Alg. 2.2.9): O(m^3) scalar operations and no matrix product.  A zero constant
term means g is singular.  The factors f of chi with their multiplicities a
are found once per characteristic polynomial, by trial division up to half the
remaining degree (the cofactor left over is irreducible).  Each f is evaluated
as f(g) = sum f_i g^i from I, g, ..., g^(max deg f), so a linear factor needs
no product, and the kernel filtration of f(g) stops when the kernel reaches
the f-primary dimension a deg f.  Ranks come from forward elimination
(`fplin.mat_rank`).  The minimal polynomial is read off the decomposition.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Dict, Iterator, Tuple

from . import guards
from .fplin import (characteristic_polynomial, mat_identity, mat_mul, mat_rank, monic_irreducibles, poly_divmod,
                    poly_mul, poly_pow)
from .qcombin import BoundReal, Partition, c_series, d_series, galois_number, gauss_binom
from .groups.cayley import abelian_type_of_orders
from .groups.families import abelian_of_type


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
    g = abelian_of_type(p, lam.parts)
    orders = g.element_orders()
    census: Dict[Tuple[int, ...], int] = {}
    for sub in g.all_subgroups():
        t = abelian_type_of_orders(orders[sub], p)
        census[t] = census.get(t, 0) + 1
    _census_cache[key] = census
    return census


# ---------------------------------------------------------------------------
# module decomposition


@dataclass(frozen=True)
class PrimaryDecomposition:
    """Primary components (irreducible poly, exponent partition) of F_p^m under g."""

    components: tuple  # ((poly coeffs low-to-high, Partition), ...)
    p: int
    dim: int


@functools.lru_cache(maxsize=None)
def _factor(poly: tuple, p: int) -> tuple:
    """Monic irreducible factors with multiplicities, ((f, a), ...), of a monic poly.

    Trial division by the monic irreducibles in order of degree stops once the
    degree exceeds half that of the remaining cofactor, which is then 1 or
    irreducible.  The product of the f^a is checked against poly.
    """
    factors = []
    rest = poly
    for f in monic_irreducibles(p, (len(poly) - 1) // 2):
        if 2 * (len(f) - 1) > len(rest) - 1:
            break
        a = 0
        q, r = poly_divmod(rest, f, p)
        while not r:
            rest, a = q, a + 1
            q, r = poly_divmod(rest, f, p)
        if a:
            factors.append((f, a))
    if len(rest) > 1:
        factors.append((rest, 1))
    product: tuple = (1,)
    for f, a in factors:
        product = poly_mul(product, poly_pow(f, a, p), p)
    if product != poly:
        raise ArithmeticError("factors do not multiply back to the characteristic polynomial")
    return tuple(factors)


def _primary_components(g: tuple, chi: tuple, p: int) -> tuple:
    """((f, exponent partition), ...) of g, sorted, from its characteristic polynomial chi.

    For each irreducible factor f of multiplicity a in chi, the f-primary
    component has dimension a deg f.  The dimension jumps of ker f(g)^k,
    k = 1, 2, ..., divided by deg f, are the conjugate of its exponent
    partition, and the filtration stops when the kernel reaches a deg f.  Every
    factor costs at least one rank, so a wrong chi ends in ArithmeticError.
    """
    m = len(g)
    factors = _factor(chi, p)
    powers = [mat_identity(m), g]  # I, g, ..., g^(max deg f)
    for _ in range(2, max((len(f) - 1 for f, _ in factors), default=1) + 1):
        powers.append(mat_mul(powers[-1], g, p))
    comps = []
    for f, a in factors:
        deg = len(f) - 1
        fmat = tuple(tuple(sum(map(operator.mul, f, entries)) % p for entries in zip(*rows))
                     for rows in zip(*powers[:deg + 1]))  # f(g) = sum f_i g^i
        power, prev, jumps = fmat, 0, []
        for k in range(a):  # each jump is at least deg f, so a steps reach a deg f
            if k:
                power = mat_mul(power, fmat, p)
            ker = m - mat_rank(power, p)
            step, rem = divmod(ker - prev, deg)
            if step <= 0 or rem:
                raise ArithmeticError("kernel jump is not a positive multiple of the factor degree")
            jumps.append(step)
            prev = ker
            if ker >= a * deg:
                break
        if prev != a * deg:
            raise ArithmeticError("kernel of f(g)^k does not end at dimension a deg f")
        comps.append((f, _exponent_partition(tuple(jumps))))
    return tuple(sorted(comps))


@functools.lru_cache(maxsize=None)
def _exponent_partition(jumps: tuple) -> Partition:
    """The partition whose conjugate is the (weakly decreasing) kernel jumps."""
    return Partition(jumps).conjugate()


def decompose(g: tuple, p: int) -> PrimaryDecomposition:
    """Primary decomposition of F_p^m as an F_p[t]-module with t acting as an invertible g."""
    m = len(g)
    guards.check("decompose_dim", m)
    chi = characteristic_polynomial(g, p)
    if chi[0] == 0:
        raise ValueError("matrix is singular")
    return PrimaryDecomposition(_primary_components(g, chi, p), p, m)


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
