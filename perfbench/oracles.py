"""Reference computations for the benchmark's output checks.

Nothing here imports pgrouplab: every value is computed again from a closed
formula, from the literature, or by a brute-force method written apart from
the program's own.  Check failures are returned as strings, never raised
through `assert`, so the checks survive `python -O`.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


# ---------------------------------------------------------------------------
# partitions and q-counting


def conjugate(parts) -> tuple:
    parts = [x for x in parts if x]
    return tuple(sum(1 for x in parts if x >= i) for i in range(1, (max(parts) if parts else 0) + 1))


def partitions(n: int, largest: int = None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def subpartitions(alpha) -> list:
    """Every partition contained in alpha part by part."""
    out = []

    def rec(i: int, cap: int, acc: tuple):
        if i == len(alpha):
            out.append(tuple(x for x in acc if x))
            return
        for x in range(min(cap, alpha[i]), -1, -1):
            rec(i + 1, x, acc + (x,))

    rec(0, alpha[0] if alpha else 0, ())
    return out


def gaussian_binomial(n: int, k: int, q: int) -> int:
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def gl_order(n: int, p: int) -> int:
    return math.prod(p**n - p**i for i in range(n))


# ---------------------------------------------------------------------------
# automorphism orders


def hillar_rhea_aut_order(p: int, lam) -> int:
    """|Aut| of the abelian p-group of type lam (Hillar & Rhea, Amer. Math. Monthly 2007)."""
    e = sorted(lam)
    k = len(e)
    d = [max(l for l in range(1, k + 1) if e[l - 1] == e[j]) for j in range(k)]
    c = [min(l for l in range(1, k + 1) if e[l - 1] == e[j]) for j in range(k)]
    out = 1
    for j in range(k):
        out *= p ** d[j] - p**j
        out *= p ** (e[j] * (k - d[j]))
        out *= p ** ((e[j] - 1) * (k - c[j] + 1))
    return out


def extraspecial_odd_aut_order(p: int, exponent: str) -> int:
    """p^2 |GL(2,p)| for exponent p, p^3 (p-1) for exponent p^2."""
    return p * p * gl_order(2, p) if exponent == "p" else p**3 * (p - 1)


def extraspecial_2_aut_order(n: int, sign: int) -> int:
    """|Aut(2^(1+2n)_sign)| = 2^(2n) |O^sign(2n, 2)|."""
    orth = 2 * 2 ** (n * (n - 1)) * (2**n - sign) * math.prod(4**i - 1 for i in range(1, n))
    return 2 ** (2 * n) * orth


# Literature values for the non-abelian groups of order 16 (e.g. Burnside's
# table, reproduced in Wild, "The groups of order sixteen made easy", 2005).
AUT_ORDER_16 = {"D16": 32, "Q16": 32, "SD16": 16, "M4(2)": 16, "D8xC2": 64,
                "Q8xC2": 192, "D8oC4": 48, "(C2xC2):C4": 32, "C4:C4": 32}

# |Aut(G)| of every bundled catalog group, keyed by (p, k) and the catalog name.
CATALOG_AUT_ORDERS = {
    (2, 3): {"C8": hillar_rhea_aut_order(2, (3,)), "C4xC2": hillar_rhea_aut_order(2, (2, 1)),
             "C2^3": hillar_rhea_aut_order(2, (1, 1, 1)),
             "D8": extraspecial_2_aut_order(1, +1), "Q8": extraspecial_2_aut_order(1, -1)},
    (2, 4): {"C16": hillar_rhea_aut_order(2, (4,)), "C4xC4": hillar_rhea_aut_order(2, (2, 2)),
             "C2^2xC4": hillar_rhea_aut_order(2, (2, 1, 1)),
             "C2^4": hillar_rhea_aut_order(2, (1, 1, 1, 1)),
             "C2xC8": hillar_rhea_aut_order(2, (3, 1)), **AUT_ORDER_16},
    **{(p, 3): {f"C{p**3}": hillar_rhea_aut_order(p, (3,)),
                f"C{p**2}xC{p}": hillar_rhea_aut_order(p, (2, 1)),
                f"C{p}^3": hillar_rhea_aut_order(p, (1, 1, 1)),
                f"E({p}^3,exp {p})": extraspecial_odd_aut_order(p, "p"),
                f"E({p}^3,exp {p}^2)": extraspecial_odd_aut_order(p, "p2")} for p in (3, 5)},
}

# Groups of order p^k whose Aut(G) is a p-group, out of all of them.
CENSUS_TABLE = {(2, 3): (3, 5), (3, 3): (0, 5), (5, 3): (0, 5), (2, 4): (9, 14)}


def is_power_of(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


# ---------------------------------------------------------------------------
# subgroups


def birkhoff_subgroup_count(p: int, lam, mu) -> int:
    """Subgroups of type mu in the abelian p-group of type lam (Birkhoff 1935; Delsarte 1948)."""
    lc, mc = conjugate(lam), conjugate(mu)
    if len(mc) > len(lc) or any(mc[i] > lc[i] for i in range(len(mc))):
        return 0
    lc = list(lc) + [0]
    mc = list(mc) + [0] * (len(lc) + 1 - len(mc))
    out = 1
    for i in range(len(lc) - 1):
        out *= p ** (mc[i + 1] * (lc[i] - mc[i]))
        out *= gaussian_binomial(lc[i] - mc[i + 1], mc[i] - mc[i + 1], p)
    return out


def divisor_count(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if n % k == 0)


def divisor_sum(n: int) -> int:
    return sum(k for k in range(1, n + 1) if n % k == 0)


def dihedral_subgroup_total(order: int) -> int:
    """tau(n) + sigma(n) subgroups in the dihedral group of order 2n."""
    n = order // 2
    return divisor_count(n) + divisor_sum(n)


def quaternion_subgroup_total(order: int) -> int:
    """tau(2n) + sigma(n) subgroups in the generalized quaternion group of order 4n."""
    n = order // 4
    return divisor_count(2 * n) + divisor_sum(n)


def sylow_congruence_failures(p: int, counts_by_order: dict, group_order: int) -> list:
    """Frobenius: a p-group has 1 (mod p) subgroups of every order p^k dividing |G|."""
    bad = []
    k = 0
    while p**k <= group_order:
        c = counts_by_order.get(p**k, 0)
        if c % p != 1 % p or c == 0:
            bad.append(f"{c} subgroups of order {p**k}, not 1 mod {p}")
        k += 1
    return bad


def closure_failures(table: np.ndarray, subgroups) -> int:
    """Number of listed subsets that are not closed under the product."""
    n = table.shape[0]
    bad = 0
    for sub in subgroups:
        s = np.asarray(sub)
        mask = np.zeros(n, dtype=bool)
        mask[s] = True
        if not mask[table[np.ix_(s, s)]].all():
            bad += 1
    return bad


def _close(table, gens, identity: int) -> frozenset:
    elems = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = int(table[x][g])
                if y not in elems:
                    elems.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(elems)


def _identity(table) -> int:
    n = len(table)
    return next(e for e in range(n) if all(int(table[e][x]) == x for x in range(n)))


def all_subgroups_bruteforce(table) -> list:
    """Every subgroup, as frozensets, by joining cyclic subgroups until nothing new appears."""
    ident = _identity(table)
    n = len(table)
    cyclic = {_close(table, [x], ident) for x in range(n)}
    found = set(cyclic)
    frontier = list(cyclic)
    while frontier:
        nxt = []
        for h in frontier:
            for c in cyclic:
                if c <= h:
                    continue
                j = _close(table, list(h | c), ident)
                if j not in found:
                    found.add(j)
                    nxt.append(j)
        frontier = nxt
    return list(found)


def normal_subgroup_count(table) -> int:
    n = len(table)
    ident = _identity(table)
    inv = [next(y for y in range(n) if int(table[x][y]) == ident) for x in range(n)]
    count = 0
    for h in all_subgroups_bruteforce(table):
        if all(int(table[int(table[g][x])][inv[g]]) in h for g in range(n) for x in h):
            count += 1
    return count


def lower_p_series(table, p: int) -> list:
    """G_1 > G_2 > ... > 1 with G_{i+1} = [G_i, G] G_i^p, as frozensets."""
    n = len(table)
    ident = _identity(table)
    inv = [next(y for y in range(n) if int(table[x][y]) == ident) for x in range(n)]
    cur = frozenset(range(n))
    series = [cur]
    while len(cur) > 1:
        gens = set()
        for x in cur:
            y = x
            for _ in range(p - 1):
                y = int(table[y][x])
            gens.add(y)
            for g in range(n):
                gens.add(int(table[int(table[inv[x]][inv[g]])][int(table[x][g])]))
        cur = _close(table, sorted(gens), ident)
        series.append(cur)
    return series


# ---------------------------------------------------------------------------
# F_p linear algebra by brute force over all vectors


def vectors(m: int, p: int) -> np.ndarray:
    """All of F_p^m, row i holding the base-p digits of i (first coordinate most significant)."""
    return np.array(list(itertools.product(range(p), repeat=m)), dtype=np.int64)


def subspace_masks(m: int, p: int) -> np.ndarray:
    """Every subspace of F_p^m as a boolean membership row over `vectors(m, p)`."""
    vecs = vectors(m, p)
    weights = p ** np.arange(m - 1, -1, -1)
    zero = np.zeros(p**m, dtype=bool)
    zero[0] = True
    found = {zero.tobytes(): zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for mask in frontier:
            members = vecs[mask]
            for v in range(p**m):
                if mask[v]:
                    continue
                span = (members[:, None, :] + np.arange(p)[None, :, None] * vecs[v]) % p
                new = np.zeros(p**m, dtype=bool)
                new[(span @ weights).ravel()] = True
                key = new.tobytes()
                if key not in found:
                    found[key] = new
                    nxt.append(new)
        frontier = nxt
    return np.array(list(found.values()))


def vector_perms(mats, p: int) -> np.ndarray:
    """Row k is the permutation of `vectors(m, p)` induced by mats[k]."""
    mats = np.asarray(mats, dtype=np.int64)
    m = mats.shape[-1]
    vecs = vectors(m, p)
    weights = p ** np.arange(m - 1, -1, -1)
    images = np.einsum("kij,vj->kvi", mats, vecs) % p
    return images @ weights


def invariant_subspace_counts(mats, p: int) -> np.ndarray:
    """Number of subspaces each matrix maps into itself, by checking every subspace."""
    perms = vector_perms(mats, p)
    masks = subspace_masks(np.asarray(mats).shape[-1], p)
    counts = np.zeros(len(perms), dtype=np.int64)
    for mask in masks:
        members = np.flatnonzero(mask)
        counts += mask[perms[:, members]].all(axis=1)
    return counts


def orbit_sizes(mats, p: int) -> list:
    """Sizes of the orbits of the group `mats` on all subspaces, by union-find."""
    perms = vector_perms(mats, p)
    masks = subspace_masks(np.asarray(mats).shape[-1], p)
    index = {mask.tobytes(): i for i, mask in enumerate(masks)}
    parent = list(range(len(masks)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, mask in enumerate(masks):
        members = np.flatnonzero(mask)
        for perm in perms:
            img = np.zeros_like(mask)
            img[perm[members]] = True
            a, b = find(i), find(index[img.tobytes()])
            if a != b:
                parent[max(a, b)] = min(a, b)
    sizes: dict = {}
    for i in range(len(masks)):
        sizes[find(i)] = sizes.get(find(i), 0) + 1
    return sorted(sizes.values())


def det_mod(a, p: int) -> int:
    m = [list(r) for r in a]
    n, det = len(m), 1
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] % p), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det = det * m[c][c] % p
        inv = pow(m[c][c], -1, p)
        for r in range(c + 1, n):
            f = m[r][c] * inv % p
            m[r] = [(x - f * y) % p for x, y in zip(m[r], m[c])]
    return det % p


def inverse_mod(a, p: int) -> tuple:
    """Inverse by Gauss-Jordan on [a | I]."""
    n = len(a)
    m = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(a)]
    for c in range(n):
        piv = next(r for r in range(c, n) if m[r][c] % p)
        m[c], m[piv] = m[piv], m[c]
        inv = pow(m[c][c], -1, p)
        m[c] = [x * inv % p for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [(x - f * y) % p for x, y in zip(m[r], m[c])]
    return tuple(tuple(r[n:]) for r in m)


def random_invertible(rng, n: int, p: int) -> tuple:
    while True:
        a = tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(n))
        if det_mod(a, p):
            return a


# ---------------------------------------------------------------------------
# free Lie algebra and the dimension inequalities


def mobius(n: int) -> int:
    out, x, f = 1, n, 2
    while f * f <= x:
        if x % f == 0:
            x //= f
            if x % f == 0:
                return 0
            out = -out
        f += 1
    return -out if x > 1 else out


def necklace_count(d: int, n: int) -> int:
    """Lyndon words of length n over d letters: (1/n) sum_{j | n} mu(n/j) d^j."""
    return sum(mobius(n // j) * d**j for j in range(1, n + 1) if n % j == 0) // n


def is_lyndon(w) -> bool:
    return len(w) > 0 and all(w < w[i:] + w[:i] for i in range(1, len(w)))


def dn_inequalities(d: int, n: int) -> tuple:
    dims = [sum(necklace_count(d, i) for i in range(1, k + 1)) for k in (n, n - 1, n - 2)]
    dn, dn1, dn2 = (Fraction(x) for x in dims)
    return (
        dn - 4 * dn1 - 2 * dn2 >= Fraction(-15, 2),
        dn - 2 * dn1 - Fraction(2, n - 2) * dn2 >= -1,
        dn - 4 * dn1 - 4 * d * d + Fraction(11, 16) > 0,
    )


# ---------------------------------------------------------------------------
# the twisted walk, through numpy.fft


def walk_transforms(p: int, d: int, a: int, q: float, n: int):
    """Yield (k, transform of P_k) for the chain X_{k+1} = a X_k + step, k = 0..n.

    The transform of P_k is prod_{j<k} phi(a^j xi) with
    phi(xi) = 1 - q + (q/d) sum_i cos(2 pi xi_i / p).
    """
    cos = np.cos(2 * np.pi * np.arange(p) / p)
    axes = np.arange(p)
    f = np.ones((p,) * d)
    yield 0, f
    mult = 1
    for k in range(1, n + 1):
        phi = np.full((p,) * d, 1.0 - q)
        for i in range(d):
            shape = [1] * d
            shape[i] = p
            phi = phi + (q / d) * cos[(mult * axes) % p].reshape(shape)
        f = f * phi
        mult = mult * a % p
        yield k, f


def walk_tv(transform: np.ndarray) -> float:
    dist = np.fft.ifftn(transform).real
    return 0.5 * float(np.abs(dist - 1.0 / dist.size).sum())


def walk_chi2(transform: np.ndarray) -> float:
    return float((transform**2).sum() - transform.flat[0] ** 2)
