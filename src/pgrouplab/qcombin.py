"""Exact q-combinatorics and certified-float estimate helpers.

Everything exact is plain Python int / Fraction.  Quantities that are only
computable as truncated series (the theta-like sum C(x) and the inverse
Euler product D(x)) carry a rigorous absolute-error bound in a BoundReal.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from . import guards

# Per-operation relative rounding budget.  Deliberately generous compared to
# actual double precision so enclosures stay sound without interval libraries.
REL_ERR = 1e-12


@dataclass(frozen=True)
class BoundReal:
    """A double with a certified absolute error bound."""

    value: float
    abs_error: float = 0.0

    @property
    def lo(self) -> float:
        return self.value - self.abs_error

    @property
    def hi(self) -> float:
        return self.value + self.abs_error

    def scale(self, c) -> "BoundReal":
        """Multiply by an exact scalar (int or Fraction)."""
        cf = float(c)
        v = self.value * cf
        return BoundReal(v, abs(cf) * self.abs_error + abs(v) * REL_ERR)

    def __mul__(self, other: "BoundReal") -> "BoundReal":
        v = self.value * other.value
        err = (
            abs(self.value) * other.abs_error
            + abs(other.value) * self.abs_error
            + self.abs_error * other.abs_error
            + abs(v) * REL_ERR
        )
        return BoundReal(v, err)

    def __add__(self, other: "BoundReal") -> "BoundReal":
        v = self.value + other.value
        return BoundReal(v, self.abs_error + other.abs_error + abs(v) * REL_ERR)

    def __sub__(self, other: "BoundReal") -> "BoundReal":
        v = self.value - other.value
        return BoundReal(v, self.abs_error + other.abs_error + abs(v) * REL_ERR)

    def powi(self, k: int) -> "BoundReal":
        """Integer power, k >= 0."""
        if k < 0:
            raise ValueError(f"powi needs an exponent k >= 0, not {k}")
        out = BoundReal(1.0, 0.0)
        for _ in range(k):
            out = out * self
        return out

    def log(self) -> "BoundReal":
        """Natural log; requires a positive enclosure."""
        if self.lo <= 0:
            raise ValueError("log of enclosure touching zero")
        v = math.log(self.value)
        # |log(v+e) - log(v)| <= e / (v - e)
        return BoundReal(v, self.abs_error / self.lo + abs(v) * REL_ERR)


def exact(x) -> BoundReal:
    return BoundReal(float(x), abs(float(x)) * (0.0 if isinstance(x, int) else REL_ERR))


def bound_le(lhs, rhs) -> bool:
    """Check "lhs <= rhs" given enclosures; False only on certain violation.

    Exact ints/Fractions are treated as zero-width enclosures.  Using the
    permissive direction keeps verification of true-with-slack inequalities
    from failing on rounding noise; a False is a genuine counterexample.
    """
    llo = lhs.lo if isinstance(lhs, BoundReal) else lhs
    rhi = rhs.hi if isinstance(rhs, BoundReal) else rhs
    return llo <= rhi


def pow_real(base, exponent) -> BoundReal:
    """base**exponent with base > 0 exact and exponent exact (int/Fraction/float)."""
    b = float(base)
    if b <= 0:
        raise ValueError("pow_real needs a positive base")
    if isinstance(exponent, int) or (
        isinstance(exponent, Fraction) and exponent.denominator == 1
    ):
        e = int(exponent)
        if isinstance(base, int) and abs(e) < 4096:
            if e >= 0:
                return BoundReal(float(base**e) if base**e < 2**1000 else math.inf, 0.0)
            val = Fraction(1, base ** (-e))
            return BoundReal(float(val), abs(float(val)) * REL_ERR)
    x = float(exponent)
    # conversion error of the exponent itself (Fraction -> float)
    if isinstance(exponent, Fraction):
        xerr = abs(float(exponent - Fraction(x))) if x not in (math.inf, -math.inf) else 0.0
    else:
        xerr = 0.0
    arg = x * math.log(b)
    if arg > 700:
        return BoundReal(math.inf, math.inf)
    v = math.exp(arg)
    err = abs(v) * (REL_ERR + abs(math.log(b)) * xerr)
    return BoundReal(v, err + 5e-324)


# ---------------------------------------------------------------------------
# partitions


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing nonnegative parts, trailing zeros trimmed."""

    parts: tuple

    def __init__(self, parts: Iterable[int] = ()):
        ps = [int(x) for x in parts]
        if any(x < 0 for x in ps):
            raise ValueError("negative part")
        if any(ps[i] < ps[i + 1] for i in range(len(ps) - 1)):
            raise ValueError("parts must be weakly decreasing")
        while ps and ps[-1] == 0:
            ps.pop()
        object.__setattr__(self, "parts", tuple(ps))

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __iter__(self):
        return iter(self.parts)

    @property
    def size(self) -> int:
        return sum(self.parts)

    def part(self, i: int) -> int:
        """1-indexed part, 0 beyond the end."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition(())
        return Partition(
            tuple(sum(1 for p in self.parts if p >= i) for i in range(1, self.parts[0] + 1))
        )

    def contains(self, other: "Partition") -> bool:
        return all(other.part(i) <= self.part(i) for i in range(1, len(other) + 1))

    def multiplicity(self, i: int) -> int:
        return sum(1 for p in self.parts if p == i)


# ---------------------------------------------------------------------------
# exact counts


def _is_prime(n: int) -> bool:
    """Trial division, refused past the `prime_candidate` guard before it starts."""
    guards.check("prime_candidate", n)
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


def gauss_binom(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of an n-dimensional space over F_q.

    Exact product/quotient; every intermediate division is asserted exact.
    """
    if q < 2:
        raise ValueError("q must be at least 2")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 0 or k > n:
        return 0
    k = min(k, n - k)
    out = 1
    for i in range(1, k + 1):
        out *= q ** (n - k + i) - 1
        div, rem = divmod(out, q**i - 1)
        if rem:
            raise ArithmeticError("q-binomial partial product not divisible")
        out = div
    return out


def galois_number(n: int, q: int) -> int:
    """Total number of subspaces of an n-dimensional space over F_q."""
    if q < 2:
        raise ValueError("q must be at least 2")
    return sum(gauss_binom(n, k, q) for k in range(n + 1))


def s_n(n: int, q: int) -> int:
    """The sum of q^{k(n-k)} over k = 0..n."""
    if q < 2:
        raise ValueError("q must be at least 2")
    if n < 0:
        raise ValueError("n must be nonnegative")
    return sum(q ** (k * (n - k)) for k in range(n + 1))


# ---------------------------------------------------------------------------
# certified series


def c_series(x: float, target_abs_error: float = 1e-12) -> BoundReal:
    """Two-sided theta sum over x^(-r^2), with a certified geometric tail bound."""
    if x <= 1:
        raise ValueError("series diverges for x <= 1")
    if target_abs_error <= 0:
        raise ValueError("target_abs_error must be positive")
    total = 1.0
    r = 0
    while True:
        r += 1
        term = x ** (-(r * r))
        total += 2.0 * term
        nxt = x ** (-((r + 1) * (r + 1)))
        ratio = x ** (-(2 * r + 3))
        if nxt < target_abs_error / 4 and ratio < 0.5:
            tail = 2.0 * nxt / (1.0 - ratio)
            if tail <= target_abs_error:
                break
        if r > 10**7:
            raise ValueError("series truncation failed to converge")
    fp = (r + 2) * abs(total) * REL_ERR
    return BoundReal(total + tail / 2.0, tail / 2.0 + fp)


def d_series(x: float, target_abs_error: float = 1e-12) -> BoundReal:
    """Inverse Euler product over (1 - x^-j), with a certified product-tail bound."""
    if x <= 1:
        raise ValueError("product diverges for x <= 1")
    if target_abs_error <= 0:
        raise ValueError("target_abs_error must be positive")
    prod = 1.0
    j = 0
    while True:
        j += 1
        prod /= 1.0 - x ** (-j)
        nxt = x ** (-(j + 1))
        # remaining multiplier T satisfies 1 <= T <= exp(tau)
        tau = nxt / ((1.0 - 1.0 / x) * (1.0 - nxt))
        tail = prod * math.expm1(tau)
        if nxt < target_abs_error / 4 and tail <= target_abs_error:
            break
        if j > 10**7:
            raise ValueError("product truncation failed to converge")
    fp = (j + 2) * abs(prod) * REL_ERR
    return BoundReal(prod + tail / 2.0, tail / 2.0 + fp)


# ---------------------------------------------------------------------------
# estimate checks


@dataclass(frozen=True)
class QestsReport:
    n: int
    q: int
    coef_bound_ok: bool
    galois_lower_ok: bool
    galois_upper_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.coef_bound_ok and self.galois_lower_ok and self.galois_upper_ok


def check_qests(n: int, q: int) -> QestsReport:
    """Verify the coefficient bound and the two-sided Galois-number bounds.

    Left sides are exact; right sides are BoundReal enclosures.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    dq = d_series(q)
    cq = c_series(q)
    coef_ok = all(
        bound_le(gauss_binom(n, k, q), dq.scale(q ** (k * (n - k))))
        for k in range(n + 1)
    )
    gn = galois_number(n, q)
    lower = dq * pow_real(q, Fraction(n * n - 1, 4)) * (
        exact(2) - pow_real(q, Fraction(1 - n, 2)).scale(Fraction(9, 2))
    )
    upper = cq * dq * pow_real(q, Fraction(n * n, 4))
    return QestsReport(
        n=n,
        q=q,
        coef_bound_ok=coef_ok,
        galois_lower_ok=bound_le(lower, gn),
        galois_upper_ok=bound_le(gn, upper),
    )


@dataclass(frozen=True)
class PolyboundReport:
    holds: bool
    y: float
    lhs: float
    rhs: BoundReal


def polybound_check(a: float, b: float, c: float, t: int, u: int, q: float) -> PolyboundReport:
    """Check sum_{r=t}^{u} q^f(r) <= C(q^a) * q^f(y) for f = -a x^2 + b x + c.

    y is the maximizer of f on [t, u] (clamped vertex of the parabola).
    """
    if a <= 0:
        raise ValueError("a must be positive")
    if t > u:
        raise ValueError("t must be <= u")
    if q <= 1:
        raise ValueError("q must exceed 1")

    def f(x: float) -> float:
        return -a * x * x + b * x + c

    lhs = 0.0
    for r in range(t, u + 1):
        lhs += q ** f(r)
    y = min(max(b / (2 * a), float(t)), float(u))
    rhs = c_series(q**a) * pow_real(q, f(y))
    lhs_enc = BoundReal(lhs, abs(lhs) * (u - t + 2) * REL_ERR)
    return PolyboundReport(holds=bound_le(lhs_enc, rhs), y=y, lhs=lhs, rhs=rhs)


@dataclass(frozen=True)
class QuadboundReport:
    sum_sq_ok: bool
    eps_case_applies: bool
    eps_sum_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.sum_sq_ok and (not self.eps_case_applies or self.eps_sum_ok)


def quadbound_check(alphas: Sequence[int], eps: float = 0.0) -> QuadboundReport:
    """Check the two sum-of-squares inequalities for a positive composition."""
    if not alphas:
        raise ValueError("alphas must be nonempty")
    if any(a < 1 for a in alphas):
        raise ValueError("alphas must be positive integers")
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    n = sum(alphas)
    r = len(alphas)
    ss = sum(a * a for a in alphas)
    first = ss <= (n - r + 1) ** 2 + (r - 1)
    e = Fraction(eps)  # exact float -> rational
    applies = n >= e + 1 and r >= 2
    second = ss + e * r <= (n - 1) ** 2 + 1 + 2 * e if applies else True
    return QuadboundReport(sum_sq_ok=first, eps_case_applies=applies, eps_sum_ok=second)
