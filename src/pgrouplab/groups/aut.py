"""Brute-force automorphism machinery and closed-form Aut orders.

The search walks generator-image tuples, extending a partial map over the
subgroup generated so far and pruning on order mismatch, dependence modulo
the Frattini subgroup, and homomorphism violations.  Candidate images at one
level are processed as a numpy batch, which keeps the per-candidate cost to
a few vectorized table lookups.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Sequence

import numpy as np

from ..qcombin import Partition
from .cayley import CayleyGroup, quotient_group

SEARCH_GUARD = 10**8


def minimal_generating_tuple(g: CayleyGroup, p: Optional[int] = None) -> List[int]:
    """Generators lifted from a basis of G/Frattini (p-groups) or greedy closure.

    Both take each element, in turn, whose image in h lies outside the span
    of the images taken so far: h is the Frattini quotient of a p-group, with
    elements in index order, and otherwise G itself, by descending order.
    """
    if p is not None and g.is_p_group(p) and g.order > 1:
        h, proj = quotient_group(g, g.frattini(p))
        scan = range(g.order)
    else:
        h, proj = g, np.arange(g.order)
        scan = np.argsort(-g.element_orders(), kind="stable").tolist()
    proj = proj.tolist()
    whole = (1 << h.order) - 1
    gens: List[int] = []
    span = h._span([])
    for x in scan:
        if not span >> proj[x] & 1:
            gens.append(x)
            span = h._span([proj[y] for y in gens])
            if span == whole:
                break
    if g._span(gens) != (1 << g.order) - 1:
        raise ArithmeticError("greedy generators do not generate G")
    return gens


def _bfs_schedule(g: CayleyGroup, gens: Sequence[int], known: np.ndarray):
    """Derivations (element, parent, gen_pos) for <gens> \\ known, plus members."""
    mask = np.zeros(g.order, dtype=bool)
    mask[known] = True
    work = list(int(x) for x in known)
    schedule = []
    i = 0
    while i < len(work):
        x = work[i]
        i += 1
        for pos, gen in enumerate(gens):
            y = int(g.table[x, gen])
            if not mask[y]:
                mask[y] = True
                schedule.append((y, x, pos))
                work.append(y)
    return np.flatnonzero(mask).astype(np.int32), schedule


def _search(
    g: CayleyGroup,
    target: CayleyGroup,
    p: Optional[int],
    count_only: bool = False,
    find_one: bool = False,
    guard: int = SEARCH_GUARD,
):
    """Isomorphisms g -> target as permutation arrays (or their count)."""
    if g.order != target.order:
        return 0 if count_only else []
    gens = minimal_generating_tuple(g, p)
    d = len(gens)
    if g.order > 1 and g.order**d > guard:
        raise ValueError(f"search space {g.order}^{d} exceeds guard {guard}")
    if d == 0:
        perm = np.array([target.identity], dtype=np.int32)
        return 1 if count_only else [perm]

    orders_g = g.element_orders()
    orders_t = target.element_orders()
    use_frattini = (
        p is not None and g.is_p_group(p) and target.is_p_group(p)
    )
    if use_frattini:
        phi_t = target.frattini(p)
        qt, proj_t = quotient_group(target, phi_t)
        if round(math.log(target.order // phi_t.size, p) if phi_t.size < target.order else 0) != d:
            return 0 if count_only else []
        # the Frattini quotient is elementary abelian, so a span extension is
        # one product set, not an iterated closure; a one-generator search
        # never extends a span
        qt_cyc = [qt.closure([x]) for x in range(qt.order)] if d > 1 else []
    else:
        qt, proj_t = None, None

    members: List[np.ndarray] = []
    schedules = []
    check_x: List[np.ndarray] = []  # domain points x of the per-level hom checks
    check_j: List[np.ndarray] = []  # generator position paired with each x
    check_xg: List[np.ndarray] = []  # precomputed x * g_j
    known = np.array([g.identity], dtype=np.int32)
    gens_arr = np.array(gens, dtype=np.int32)
    for k in range(d):
        mem, sched = _bfs_schedule(g, gens[: k + 1], known)
        members.append(mem)
        schedules.append(sched)
        # parent levels already verified (x in H_k, j <= k); the new pairs are
        # (x in H_{k+1}, j = k) and (x newly added, j < k)
        new = np.array([e for e, _, _ in sched], dtype=np.int32)
        xs = [mem]
        js = [np.full(mem.size, k, dtype=np.int32)]
        if k and new.size:
            xs.append(np.repeat(new, k))
            js.append(np.tile(np.arange(k, dtype=np.int32), new.size))
        x_arr = np.concatenate(xs)
        j_arr = np.concatenate(js)
        check_x.append(x_arr)
        check_j.append(j_arr)
        check_xg.append(g.table[x_arr, gens_arr[j_arr]])
        known = mem
    if members[-1].size != g.order:
        raise ArithmeticError("generator chain does not reach the whole group")

    table_t = target.table
    results: List[np.ndarray] = []
    state = {"count": 0, "stop": False}

    img0 = np.full(g.order, -1, dtype=np.int32)
    img0[g.identity] = target.identity
    if use_frattini:
        span0 = np.zeros(qt.order, dtype=bool)
        span0[qt.identity] = True
    else:
        span0 = None

    def recurse(k: int, img: np.ndarray, span_mask):
        if state["stop"]:
            return
        cand_mask = orders_t == orders_g[gens[k]]
        if use_frattini:
            cand_mask &= ~span_mask[proj_t]
        cands = np.flatnonzero(cand_mask).astype(np.int32)
        if cands.size == 0:
            return
        c = cands.size
        imgs = np.repeat(img[None, :], c, axis=0)
        imgs[:, gens[k]] = cands
        tcols = imgs[:, gens_arr[: k + 1]]  # (c, k+1)
        for elt, parent, pos in schedules[k]:
            imgs[:, elt] = table_t[imgs[:, parent], tcols[:, pos]]
        lhs = imgs[:, check_xg[k]]
        rhs = table_t[imgs[:, check_x[k]], tcols[:, check_j[k]]]
        ok = (lhs == rhs).all(axis=1)
        srt = np.sort(imgs[:, members[k]], axis=1)
        ok &= (srt[:, 1:] != srt[:, :-1]).all(axis=1)
        good = np.flatnonzero(ok)
        if k + 1 == d:
            if count_only:
                state["count"] += int(good.size)
            else:
                for idx in good:
                    results.append(imgs[idx].copy())
            if find_one and good.size:
                state["stop"] = True
            return
        for idx in good:
            if use_frattini:
                new_span = span_mask.copy()
                prod = qt.table[
                    np.ix_(np.flatnonzero(span_mask), qt_cyc[int(proj_t[cands[idx]])])
                ]
                new_span[prod.ravel()] = True
            else:
                new_span = None
            recurse(k + 1, imgs[idx], new_span)
            if state["stop"]:
                return

    recurse(0, img0, span0)
    return state["count"] if count_only else results


def aut_group(g: CayleyGroup, p: Optional[int] = None) -> List[np.ndarray]:
    """All automorphisms as permutation arrays, each verified on construction."""
    auts = _search(g, g, p)
    for phi in auts:
        if not np.array_equal(np.sort(phi), np.arange(g.order)):
            raise ArithmeticError("automorphism search returned a non-bijection")
        if not np.array_equal(phi[g.table], g.table[phi[:, None], phi[None, :]]):
            raise ArithmeticError("automorphism search returned a non-homomorphism")
    return auts


def aut_order(g: CayleyGroup, p: Optional[int] = None) -> int:
    return _search(g, g, p, count_only=True)


def aut_is_p_group(g: CayleyGroup, p: int) -> bool:
    n = aut_order(g, p)
    while n % p == 0:
        n //= p
    return n == 1


def are_isomorphic(a: CayleyGroup, b: CayleyGroup, p: Optional[int] = None) -> bool:
    if a.order != b.order:
        return False
    if sorted(a.element_orders()) != sorted(b.element_orders()):
        return False
    if a.center().size != b.center().size:
        return False
    if a.is_abelian() != b.is_abelian():
        return False
    return bool(_search(a, b, p, find_one=True))


def frattini_action_kernel_order(g: CayleyGroup, p: int, auts: Sequence[np.ndarray]) -> int:
    """Order of the subgroup of Aut(G) acting trivially on G/Frattini."""
    phi = g.frattini(p)
    _, proj = quotient_group(g, phi)
    return sum(1 for a in auts if np.array_equal(proj[a], proj))


# ---------------------------------------------------------------------------
# closed-form automorphism orders


def macdonald_aut_order(lam, p: int) -> int:
    """Aut order of the abelian p-group of type lam, as an exact integer."""
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    conj = lam.conjugate()
    n_lam = sum(c * (c - 1) // 2 for c in conj.parts)
    val = Fraction(p) ** (lam.size + 2 * n_lam)
    t = Fraction(1, p)
    for i in set(lam.parts):
        m = lam.multiplicity(i)
        for j in range(1, m + 1):
            val *= 1 - t**j
    if val.denominator != 1:
        raise ArithmeticError("aut order came out non-integral")
    return int(val)


def winter_aut_order(p: int, n: int, variant: str) -> int:
    """Aut order of an extraspecial group of order p^(2n+1) from the survey formulas."""
    inner = p ** (2 * n)
    if p == 2:
        if variant == "plus":  # central product of n dihedrals
            hi = 2 ** (n * (n - 1) + 1) * (2**n - 1)
        elif variant == "minus":  # one quaternion factor
            hi = 2 ** (n * (n - 1) + 1) * (2**n + 1)
        else:
            raise ValueError("p=2 variants are 'plus' or 'minus'")
        for i in range(1, n):
            hi *= 2 ** (2 * i) - 1
        return inner * hi  # theta has order p-1 = 1
    if variant == "exponent_p":
        hi = p ** (n * n)
        for i in range(1, n + 1):
            hi *= p ** (2 * i) - 1
    elif variant == "exponent_p2":
        hi = p ** (n * n)
        for i in range(1, n):
            hi *= p ** (2 * i) - 1
    else:
        raise ValueError("odd-p variants are 'exponent_p' or 'exponent_p2'")
    return inner * hi * (p - 1)


def sylow_symmetric_aut_order(p: int, m: int) -> int:
    """Aut order formula for the Sylow p-subgroup of the symmetric group on p^m points.

    Evaluated verbatim; the m = 1 value disagrees with Aut(C_p) and callers
    are expected to compare against brute force rather than assert.
    """
    if p <= 2:
        raise ValueError("formula requires an odd prime")
    if m < 1:
        raise ValueError("m must be positive")
    n_m = sum(p**j for j in range(2, m)) + (m * m - m + 2) * p // 2 - 1
    return (p - 1) ** m * p**n_m
