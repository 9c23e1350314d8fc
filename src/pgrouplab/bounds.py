"""Machine-checkable evaluation of the explicit inequality expressions.

Bound right-hand sides mix certified series values with p raised to rational
exponents; comparisons happen either on BoundReal enclosures or, for the
astronomically large nested sums, in log_p space with exact big-integer
storage of the sums themselves.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .freelie import dn_dim
from .qcombin import BoundReal, c_series, d_series, exact, gauss_binom, pow_real


# ---------------------------------------------------------------------------
# profile bound for normal subgroups


def normalthm_bound(g: Sequence[int], u: Sequence[int], v: Optional[Sequence[int]],
                    w: Optional[Sequence[int]], p: int):
    """Upper bound on the number of normal subgroups with series profile u.

    Exact value: the product of q-binomials and p-powers with the given
    lower-bound profiles v (derived-subgroup dims) and w (power-commutator
    dims); v = w = 0 is always a legitimate choice.  Returns an int when all
    exponents are nonnegative, otherwise an exact Fraction.
    """
    n = len(g)
    v = list(v) if v is not None else [0] * n
    w = list(w) if w is not None else [0] * n
    if not (len(u) == len(v) == len(w) == n):
        raise ValueError("profile lengths must agree")
    if any(not 0 <= u[i] <= g[i] for i in range(n)):
        raise ValueError("u must satisfy 0 <= u_i <= g_i")
    out = Fraction(gauss_binom(g[0], u[0], p))
    for i in range(2, n + 1):
        coef = gauss_binom(g[i - 1] - w[i - 1], u[i - 1] - w[i - 1], p)
        expo = (g[i - 1] - u[i - 1]) * (sum(u[: i - 1]) - sum(v[: i - 1]))
        out *= Fraction(coef) * Fraction(p) ** expo
    return int(out) if out.denominator == 1 else out


def fnormal_bound(p: int, d: int, n: int, u: Sequence[int], reading: str = "standard") -> BoundReal:
    """Bound on profile counts in the relatively free group, u = (u_2 .. u_n).

    reading="standard" uses exponent (u_i - u_{i-1}/2)(d_i - u_i); the
    "alternate" reading replaces the leading u_i by d_i.  Both appear in the
    literature, so both are exposed for comparison.
    """
    if d < 3 or n < 3:
        raise ValueError("requires d >= 3 and n >= 3")
    if len(u) != n - 1:
        raise ValueError("u must list u_2 .. u_n")
    dims = {i: dn_dim(d, i) for i in range(1, n + 1)}
    uu = {1: 0}
    for i in range(2, n + 1):
        uu[i] = u[i - 2]
    out = d_series(p).powi(n - 1)
    for i in range(2, n + 1):
        if reading == "standard":
            expo = (Fraction(uu[i]) - Fraction(uu[i - 1], 2)) * (dims[i] - uu[i])
        elif reading == "alternate":
            expo = (Fraction(dims[i]) - Fraction(uu[i - 1], 2)) * (dims[i] - uu[i])
        else:
            raise ValueError("reading must be 'standard' or 'alternate'")
        out = out * pow_real(p, expo)
    return out


# ---------------------------------------------------------------------------
# the nested profile sums and their bound


def _merge_terms(exps: "np.ndarray", counts: "np.ndarray") -> Tuple["np.ndarray", "np.ndarray"]:
    """Sorted distinct exponents and their summed counts, by a float64 bincount.

    The bincount is exact only below 2^53, so a merged count that reaches
    2^53 raises ArithmeticError.
    """
    if exps.size == 0:
        return exps.astype(np.int64), counts.astype(np.int64)
    lo = int(exps.min())
    merged = np.bincount(exps - lo, weights=counts.astype(np.float64))
    # every partial sum of a bin is at most its total, so a total below
    # 2^53 was summed exactly, and one at or above it shows as such
    if merged.max() >= 2.0**53:
        raise ArithmeticError("PowSum count reached 2^53, beyond exact float64 merging")
    nz = np.flatnonzero(merged)
    return (nz + lo).astype(np.int64), merged[nz].astype(np.int64)


@dataclass(frozen=True)
class PowSum:
    """Exact finite sum of c_k * p^(k/2), stored as parallel (k, c) arrays.

    Coefficients are term-multiplicity counts, merged by `_merge_terms`.
    """

    p: int
    exps: "np.ndarray"  # half-unit exponents, int64, strictly increasing
    counts: "np.ndarray"  # positive int64

    @classmethod
    def from_terms(cls, p: int, exps: "np.ndarray", counts: "np.ndarray") -> "PowSum":
        """Merge terms c * p^(k/2) given in any order, with repeated exponents."""
        return cls(p, *_merge_terms(exps, counts))

    def log_p(self) -> float:
        if self.exps.size == 0:
            return -math.inf
        kmax = int(self.exps[-1])
        rel = (self.exps - kmax) / 2.0 * math.log(self.p)
        total = float(np.sum(self.counts * np.exp(rel)))
        return kmax / 2.0 + math.log(total) / math.log(self.p)


@dataclass(frozen=True)
class AiReport:
    p: int
    d: int
    n: int
    i: int
    u_i: int
    lhs_log_p: float
    rhs_log_p: float
    holds: bool
    hypothesis_ok: bool
    exact: PowSum


def _hypothesis_ok(d: int, n: int) -> bool:
    return (n >= 3 and d >= 6) or (n >= 10 and d >= 5)


@functools.lru_cache(maxsize=None)
def _gaussprods_levels(d: int, n: int) -> Dict[int, Tuple["np.ndarray", "np.ndarray", "np.ndarray"]]:
    """The terms of every A_j(u_j), j = 1..n, as read-only (exps, counts, starts).

    Exponents are in half-units of log_p and counts are term multiplicities,
    so nothing here depends on p.  Level j lists the merged terms of A_j(0),
    A_j(1), ... one after another: A_j(u_j) is exps[starts[u_j]:starts[u_j + 1]].
    Since A_j(u_j) = sum_u p^((d_{j+1} - u)(2u - u_j)/2) A_{j+1}(u), the
    exponents of A_j(u_j) are base - u_j * gap, where base and gap are computed
    once per level from the terms of level j + 1 and their u.
    """
    dims = {j: dn_dim(d, j) for j in range(1, n + 1)}
    exps = np.zeros(dims[n] + 1, dtype=np.int64)
    counts = np.ones(dims[n] + 1, dtype=np.int64)
    starts = np.arange(dims[n] + 2)
    levels = {n: (exps, counts, starts)}
    for j in range(n - 1, 0, -1):
        first = starts[{n - 1: 2, n - 2: 1}.get(j, 0)]  # the sum over u starts there
        u = np.repeat(np.arange(dims[j + 1] + 1), np.diff(starts))[first:]
        gap = dims[j + 1] - u
        base = exps[first:] + 2 * u * gap
        merged = [_merge_terms(base - u_j * gap, counts[first:]) for u_j in range(dims[j] + 1)]
        exps = np.concatenate([e for e, _ in merged])
        counts = np.concatenate([c for _, c in merged])
        starts = np.cumsum([0] + [e.size for e, _ in merged])
        levels[j] = (exps, counts, starts)
    for arrays in levels.values():
        for a in arrays:
            a.flags.writeable = False  # one set of arrays is shared by every caller
    return levels


def gaussprods_tables(p: int, d: int, n: int) -> Dict[int, List[PowSum]]:
    """Exact vectors A_j(u_j) for j = 1..n-1, u_j = 0..d_j, by backward recursion.

    Each A_j(u_j) is an exact multiset of exponents in half-units of log_p;
    the arrays are built once per (d, n) and shared by every p.
    """
    return {
        j: [PowSum(p, exps[a:b], counts[a:b]) for a, b in zip(starts[:-1].tolist(), starts[1:].tolist())]
        for j, (exps, counts, starts) in _gaussprods_levels(d, n).items()
    }


def gaussprods_ai(
    p: int,
    d: int,
    n: int,
    i: int,
    u_i: int,
    tables: Optional[Dict[int, List[PowSum]]] = None,
) -> AiReport:
    """Exact nested sum A_i(u_i) next to its stated upper bound, in log_p space.

    For i <= n-2 the bound is the stated one; for i = n-1 the single-sum bound
    C(p) p^((d_n - u_{n-1}/2)^2 / 4) from the inductive base applies instead.
    """
    if not 1 <= i <= n - 1:
        raise ValueError("i must be in 1..n-1")
    dims = {j: dn_dim(d, j) for j in range(1, n + 1)}
    if not 0 <= u_i <= dims[i]:
        raise ValueError("u_i out of range")
    if tables is None:
        tables = gaussprods_tables(p, d, n)
    val = tables[i][u_i]
    lhs = val.log_p()
    cp = c_series(p)
    if i <= n - 2:
        c15 = c_series(p ** Fraction(15, 16))
        rhs = (
            math.log(c15.hi) / math.log(p)
            + (n - i - 1) * math.log(cp.hi) / math.log(p)
            + float(
                Fraction(-15, 16)
                + Fraction(dims[n] ** 2, 4)
                + dims[n - 1]
                - Fraction(dims[n], 4)
            )
            - u_i * (dims[i + 1] - 1) / 2.0
        )
    else:
        rhs = math.log(cp.hi) / math.log(p) + (dims[n] - u_i / 2.0) ** 2 / 4.0
    holds = lhs <= rhs + 1e-9
    return AiReport(
        p=p, d=d, n=n, i=i, u_i=u_i,
        lhs_log_p=lhs, rhs_log_p=rhs, holds=holds,
        hypothesis_ok=_hypothesis_ok(d, n), exact=val,
    )


# ---------------------------------------------------------------------------
# the two orbit-ratio limit bounds


@dataclass(frozen=True)
class LimitReport:
    value: BoundReal
    hypothesis_ok: bool
    warnings: tuple = ()


def limit1_bound(p: int, d: int, n: int) -> LimitReport:
    """Upper bound on the orbit-count ratio controlled by normal-subgroup counts."""
    warns = []
    hyp = _hypothesis_ok(d, n)
    if not hyp:
        warns.append("outside stated hypotheses")
    dims = {j: dn_dim(d, j) for j in (n - 1, n)}
    expo = (
        Fraction(dims[n - 1])
        - Fraction(dims[n], 4)
        + Fraction(d * d)
        - Fraction(11, 16)
    )
    c15 = c_series(p ** Fraction(15, 16))
    term = c15 * c_series(p).powi(n - 2) * d_series(p).powi(n - 2) * pow_real(p, expo)
    return LimitReport(exact(1) + term, hyp, tuple(warns))


def limit2_constants(p: int, d: int, n: int) -> Tuple[BoundReal, Fraction]:
    """Piecewise constants (c1, c2) of the orbit-regularity bound."""
    if n == 2:
        if d < 10:
            raise ValueError("n = 2 requires d >= 10")
        c1 = c_series(p).powi(5) * d_series(p).powi(4) * pow_real(p, Fraction(17, 4))
        c2 = Fraction(-d)
    elif n >= 3:
        if d < 3:
            raise ValueError("n >= 3 requires d >= 3")
        c1 = c_series(p).powi(2) * d_series(p) * pow_real(p, Fraction(3, 4))
        c2 = Fraction(d * d) - Fraction(dn_dim(d, n), 2)
    else:
        raise ValueError("n must be at least 2")
    return c1, c2


@dataclass(frozen=True)
class Limit2Report:
    bound_a: BoundReal
    bound_b: Optional[BoundReal]
    vacuous_b: bool


def limit2_bounds(p: int, d: int, n: int) -> Limit2Report:
    """1 + c1 p^c2 and its two-sided companion; the latter is vacuous when
    c1 p^c2 >= 1."""
    c1, c2 = limit2_constants(p, d, n)
    t = c1 * pow_real(p, c2)
    bound_a = exact(1) + t
    if t.hi >= 1:
        return Limit2Report(bound_a=bound_a, bound_b=None, vacuous_b=True)
    denom = 1.0 - t.value
    value = bound_a.value / denom
    err = (bound_a.abs_error + bound_a.hi * t.abs_error / denom) / denom + abs(value) * 1e-12
    return Limit2Report(bound_a=bound_a, bound_b=BoundReal(value, err), vacuous_b=False)


# ---------------------------------------------------------------------------
# dimension-sequence inequalities


def dn_inequalities(d: int, n: int) -> Tuple[bool, bool, bool]:
    """Exact rational checks of the three dimension-gap inequalities."""
    if n < 3:
        raise ValueError("n must be at least 3")
    dn = Fraction(dn_dim(d, n))
    dn1 = Fraction(dn_dim(d, n - 1))
    dn2 = Fraction(dn_dim(d, n - 2))
    first = dn - 4 * dn1 - 2 * dn2 >= Fraction(-15, 2)
    second = dn - 2 * dn1 - Fraction(2, n - 2) * dn2 >= -1
    third = dn - 4 * dn1 - 4 * d * d + Fraction(11, 16) > 0
    return first, second, third


def dn_upper(d: int, n: int) -> bool:
    """Exact check of d_n <= (10/7) d^n / n."""
    if d < 5:
        raise ValueError("requires d >= 5")
    return Fraction(dn_dim(d, n)) <= Fraction(10 * d**n, 7 * n)

