"""The automorphism-twisted Markov chain on C_p^d and its Fourier analysis.

States are indexed big-endian (coordinate 0 most significant), so reshaping a
distribution to shape (p,)*d puts coordinate i on axis i.  All distributions
are dense float64 arrays; nothing is ever silently renormalized.
"""
from __future__ import annotations

import collections
import math
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from . import guards
from .fplin import _index_weights, is_invertible, mat_inverse, matrix_index_perm, state_table
from .qcombin import _is_prime

MERSENNE_T = (2, 3, 5, 7, 13, 17, 19)


def _check_steps(n: int):
    if n < 0:
        raise ValueError(f"step count {n} is negative")
    guards.check("walk_steps", n)


@dataclass(frozen=True)
class WalkSpec:
    """Chain X_{k+1} = A X_k + g_k with lazy +-unit-vector steps of weight q."""

    p: int
    d: int
    a_matrix: tuple
    q_weight: float = 1.0

    def __post_init__(self):
        if not _is_prime(self.p) or self.p == 2:
            raise ValueError("p must be an odd prime")
        guards.check("walk_states", self.p**self.d)
        a = tuple(tuple(int(x) % self.p for x in row) for row in self.a_matrix)
        if len(a) != self.d or any(len(r) != self.d for r in a):
            raise ValueError("a_matrix must be d x d")
        if not is_invertible(a, self.p):
            raise ValueError("a_matrix must be invertible mod p")
        if not 0 <= self.q_weight <= 1:
            raise ValueError("q_weight must lie in [0, 1]")
        object.__setattr__(self, "a_matrix", a)

    @property
    def n_states(self) -> int:
        return self.p**self.d


def scalar_spec(p: int, a: int, q: float = 1.0) -> WalkSpec:
    return WalkSpec(p=p, d=1, a_matrix=((a,),), q_weight=q)


def point_mass(spec: WalkSpec) -> np.ndarray:
    out = np.zeros(spec.n_states)
    out[0] = 1.0
    return out


def evolve_steps(spec: WalkSpec, n: int) -> Iterator[np.ndarray]:
    """Yields P_0, P_1, ..., P_n by exact convolution; each P_k is a new array.

    Per step, P_k is permuted by A^-1 into a buffer.  For each axis, with stride
    st = p^(d-1-axis) in the flat index, one contiguous add x[i - st] + x[i + st]
    fills every row but the first st and the last st; it is the neighbour sum
    wherever the axis coordinate is 1..p-2.  Two wrap-around adds then overwrite
    the rows with coordinate 0 and p-1, each with the same two operands as the
    true neighbour sum.  The sum is scaled by q / 2d and added to (1 - q) times
    the permuted P_k.
    """
    _check_steps(n)
    p, d, q = spec.p, spec.d, spec.q_weight
    perm_ainv = matrix_index_perm(mat_inverse(spec.a_matrix, p), p, d)
    dist = point_mass(spec)
    yield dist
    twisted = np.empty(spec.n_states)
    nbrs = np.empty(spec.n_states)
    for _ in range(n):
        np.take(dist, perm_ainv, out=twisted, mode="clip")  # a permutation: clip never acts
        out = (1.0 - q) * twisted
        for axis in range(d):
            st = p ** (d - 1 - axis)
            np.add(twisted[:-2 * st], twisted[2 * st:], out=nbrs[st:-st])  # p >= 3
            r, s = twisted.reshape(-1, p, st), nbrs.reshape(-1, p, st)
            np.add(r[:, -1], r[:, 1], out=s[:, 0])
            np.add(r[:, -2], r[:, 0], out=s[:, -1])
            nbrs *= q / (2 * d)
            out += nbrs
        dist = out
        yield dist


def evolve_exact(spec: WalkSpec, n: int) -> np.ndarray:
    for k, dist in enumerate(evolve_steps(spec, n)):
        pass
    return dist


def step_transform(spec: WalkSpec) -> np.ndarray:
    """Fourier transform of the one-step distribution, real-valued."""
    cos_table = np.cos(2 * np.pi * np.arange(spec.p) / spec.p)  # one cosine per residue
    cosines = cos_table[state_table(spec.p, spec.d)].sum(axis=1)
    return 1.0 - spec.q_weight + (spec.q_weight / spec.d) * cosines


def fourier_steps(spec: WalkSpec, n: int) -> Iterator[np.ndarray]:
    """Yields the transform of P_k for k = 0..n via the twisted product form; it is real."""
    _check_steps(n)
    at = tuple(zip(*spec.a_matrix))  # transpose
    perm_at = matrix_index_perm(at, spec.p, spec.d)
    cur, nxt = step_transform(spec), np.empty(spec.n_states)
    f = np.ones(spec.n_states)
    yield f
    for _ in range(n):
        f = f * cur  # a new array each step, so a yielded one is never overwritten
        np.take(cur, perm_at, out=nxt, mode="clip")  # a permutation: clip never acts
        cur, nxt = nxt, cur
        yield f


def tv_distance(dist: np.ndarray) -> float:
    """Total variation distance of a real distribution to the uniform one."""
    dev = dist - 1.0 / dist.size
    return 0.5 * float(np.abs(dev, out=dev).sum())


def chi2_rhs(fourier: np.ndarray) -> float:
    """Sum of |transform|^2 over nontrivial characters (the chi-square bound)."""
    mod = np.abs(fourier[1:])
    return float(np.square(mod, out=mod).sum())


def dist_diagnostics(dist: np.ndarray) -> Tuple[float, float]:
    """(most negative entry, |sum - 1|); callers decide whether to complain."""
    return float(dist.min()), abs(float(dist.sum()) - 1.0)


# ---------------------------------------------------------------------------
# the scalar comparison quantity and the diagonalizable-chain bound


def d_n_series(p: int, b: int, q_weight: float, n: int) -> Iterator[float]:
    """D_0, ..., D_n for the scalar chain with multiplier b: the sum over nonzero
    frequencies y of the squared k-step product, each product advanced by one
    factor per step."""
    _check_steps(n)
    if b % p == 0:
        raise ValueError("b must be a unit mod p")
    factor = [(1.0 - q_weight + q_weight * math.cos(2 * math.pi * c / p)) ** 2 for c in range(p)]
    prods = [1.0] * (p - 1)
    freqs = list(range(1, p))
    for k in range(n + 1):
        total = 0.0
        for prod in prods:
            total += prod
        yield total
        if k < n:
            prods = [prod * factor[c] for prod, c in zip(prods, freqs)]
            freqs = [(c * b) % p for c in freqs]


def ubthm_series(p: int, d: int, eigenvalues: Sequence[int], q_weight: float, n: int) -> Iterator[float]:
    """exp(sum_i D_k(a_i, q/8d)) - 1 for k = 0, ..., n: the diagonalizable-chain
    bound on 4 TV^2 after k steps, with one D series per distinct eigenvalue."""
    if len(eigenvalues) != d:
        raise ValueError("need d eigenvalues")
    series = {a: d_n_series(p, a, q_weight / (8 * d), n) for a in eigenvalues}
    for _ in range(n + 1):
        dn = {a: next(it) for a, it in series.items()}
        s = sum(dn[a] for a in eigenvalues)
        yield math.expm1(s) if s < 700 else math.inf


def ubthm_bound(p: int, d: int, eigenvalues: Sequence[int], q_weight: float, n: int) -> float:
    """The bound after n steps, the last value of `ubthm_series`."""
    return collections.deque(ubthm_series(p, d, eigenvalues, q_weight, n), maxlen=1)[0]


@dataclass(frozen=True)
class Schedule:
    t: int
    r: float
    n: int
    tv_sq_target: float


def ubcor_schedule(p: int, d: int, c: float) -> Schedule:
    """Step schedule n = 4dt(ln t + ln d + c) guaranteeing TV^2 <= 2 e^-c."""
    if c <= 0:
        raise ValueError("c must be positive")
    t = math.ceil(math.log2(p))
    r = 4 * d * (math.log(t) + math.log(d) + c)
    n = math.ceil(r * t)
    return Schedule(t=t, r=r, n=n, tv_sq_target=2 * math.exp(-c))


# ---------------------------------------------------------------------------
# Mersenne-parameter products


def _check_mersenne(t: int) -> int:
    if t not in MERSENNE_T:
        raise ValueError(f"2^{t}-1 is not one of the supported primes")
    p = 2**t - 1
    if not _is_prime(p):
        raise ArithmeticError(f"2^{t}-1 is listed as prime but is not")
    return p


def _g_factor(d: int, xs: Sequence[float]) -> float:
    return (d - len(xs)) / d + sum(math.cos(2 * math.pi * x) for x in xs) / d


def pi_gamma(t: int, d: int, j: int) -> Tuple[float, float]:
    """The two t-fold cosine products at frequency-orbit offset j."""
    p = _check_mersenne(t)
    pi_j = 1.0
    gamma_j = 1.0
    for a in range(t):
        pi_j *= _g_factor(d, [(2**a * (2**j - 1) % p) / p])
        gamma_j *= _g_factor(d, [(2**a % p) / p, (2 ** (a + j) % p) / p])
    return pi_j, gamma_j


@dataclass(frozen=True)
class MeanStats:
    t: int
    d: int
    r: int
    n: int
    closed: Dict[str, complex]
    enumerated: Dict[str, complex]


def meanlem_stats(t: int, d: int, r: int) -> MeanStats:
    """Closed-form moment values next to exact-enumeration values.

    The test function is f(y) = sum_i sum_j omega^(2^j y_i) for omega a
    primitive p-th root of unity; the chain doubles each step (A = 2I, q = 1)
    and runs n = r t steps.
    """
    p = _check_mersenne(t)
    n = r * t
    pis, gammas = zip(*(pi_gamma(t, d, j) for j in range(t)))
    closed = {
        "E_U(f)": 0.0,
        "E_U(ff*)": float(d * t),
        "Var_U(f)": float(d * t),
        "E_P(f)": d * t * pis[1] ** r,
        "E_P(ff*)": d * t * sum(x**r for x in pis)
        + t * (d * d - d) * sum(x**r for x in gammas),
    }
    closed["Var_P(f)"] = closed["E_P(ff*)"] - (d * t * pis[1] ** r) ** 2

    spec = WalkSpec(p=p, d=d, a_matrix=tuple(
        tuple(2 if i == j else 0 for j in range(d)) for i in range(d)
    ), q_weight=1.0)
    dist = evolve_exact(spec, n)
    omega = np.exp(2j * np.pi / p)
    h = np.array([sum(omega ** ((2**j * c) % p) for j in range(t)) for c in range(p)])
    states = state_table(p, d)
    fvals = h[states].sum(axis=1)
    ef_u = complex(fvals.mean())
    eff_u = complex((np.abs(fvals) ** 2).mean())
    ef_p = complex((dist * fvals).sum())
    eff_p = complex((dist * np.abs(fvals) ** 2).sum())
    enumerated = {
        "E_U(f)": ef_u,
        "E_U(ff*)": eff_u,
        "Var_U(f)": eff_u - abs(ef_u) ** 2,
        "E_P(f)": ef_p,
        "E_P(ff*)": eff_p,
        "Var_P(f)": eff_p - abs(ef_p) ** 2,
    }
    return MeanStats(t=t, d=d, r=r, n=n, closed=closed, enumerated=enumerated)


@dataclass(frozen=True)
class CosineProductReport:
    t: int
    d: int
    pi: tuple
    gamma: tuple
    two_sided_ok: bool  # e^{-3 pi^2} <= |Pi_1|^d <= e^{-pi^2/4}
    pi_dominance_ok: bool  # |Pi_j| <= |Pi_1| for 1 <= j <= t-1
    gamma_dominance_ok: bool  # |Gamma_j| <= |Pi_1| likewise
    gamma_weight_zero: bool  # d = 1: every Gamma term carries coefficient d^2-d = 0
    symmetry_dev: float  # max |Pi_j - Pi_{t-j}|, |Gamma_j - Gamma_{t-j}|
    ratio_js: tuple  # j with t^(1/3) <= j <= t/2
    ratio_min: Optional[float]  # min |Pi_j / Pi_1^2| over that range


def cosine_product_checks(t: int, d: int) -> CosineProductReport:
    """Numerical outcomes of the cosine-product inequalities at one (t, d).

    Several of these are proved asymptotically and genuinely fail at tiny
    parameters; this returns what actually holds rather than asserting.
    """
    _check_mersenne(t)
    pis, gammas = zip(*(pi_gamma(t, d, j) for j in range(t)))
    p1 = abs(pis[1])
    lo, hi = math.exp(-3 * math.pi**2), math.exp(-(math.pi**2) / 4)
    two_sided = lo <= p1**d <= hi
    tol = 1e-12
    pi_dom = all(abs(pis[j]) <= p1 + tol for j in range(1, t))
    gamma_dom = all(abs(gammas[j]) <= p1 + tol for j in range(1, t))
    sym = 0.0
    for j in range(1, t):
        sym = max(sym, abs(pis[j] - pis[t - j]), abs(gammas[j] - gammas[t - j]))
    js = tuple(j for j in range(1, t) if t ** (1 / 3) <= j <= t / 2)
    ratio_min = min((abs(pis[j]) / p1**2 for j in js), default=None)
    return CosineProductReport(
        t=t, d=d, pi=pis, gamma=gammas,
        two_sided_ok=two_sided, pi_dominance_ok=pi_dom,
        gamma_dominance_ok=gamma_dom, gamma_weight_zero=(d == 1),
        symmetry_dev=sym, ratio_js=js, ratio_min=ratio_min,
    )


# ---------------------------------------------------------------------------
# simulation


def monte_carlo(spec: WalkSpec, n: int, trials: int, seed: int) -> np.ndarray:
    """Empirical distribution of X_n from independent simulated paths.

    Philox is counter-based, so a fixed seed reproduces the exact output
    regardless of platform or how the work might be split.
    """
    _check_steps(n)
    if trials < 1:
        raise ValueError("trials must be positive")
    rng = np.random.Generator(np.random.Philox(seed))
    p, d, q = spec.p, spec.d, spec.q_weight
    a = np.array(spec.a_matrix, dtype=np.int64)
    states = np.zeros((trials, d), dtype=np.int64)
    for _ in range(n):
        states = (states @ a.T) % p
        move = rng.random(trials) < q
        which = rng.integers(0, d, trials)
        sign = rng.integers(0, 2, trials) * 2 - 1
        rows = np.flatnonzero(move)
        states[rows, which[rows]] = (states[rows, which[rows]] + sign[rows]) % p
    idx = states @ _index_weights(p, d)
    counts = np.bincount(idx, minlength=spec.n_states)
    return counts / float(trials)
