"""Automorphism counts, isomorphism tests and closed-form Aut orders.

An isomorphism G -> T is fixed by the images of a generating tuple
g_1, ..., g_d of G, lifted from a basis of G/Frattini for a p-group.  The
search set-up is built once per pair (G, T): the tuple, a breadth-first
derivation of each element of H_{k+1} = <g_1, ..., g_{k+1}> from H_k, the
homomorphism checks each level adds, and the Frattini subgroup of T.  One
level step extends a partial map on H_k by every candidate image of g_{k+1}
as a numpy batch and keeps the maps that are injective homomorphisms on
H_{k+1}.  Candidates are pruned on element order and, for p-groups, on
dependence modulo the Frattini subgroup: an image must lie outside the span
of the images before it and Phi(T), a bitmask of `CayleyGroup._span` that
starts from Phi(T).

|Aut(G)| is not found by listing automorphisms.  With S_k the stabiliser of
g_1, ..., g_k in Aut(G), it is the product over k of the orbit lengths
|g_{k+1}^{S_k}| (orbit-stabiliser along the chain S_0 >= ... >= S_d = 1).
The orbit at level k is the set of candidates x for which (g_1, ..., g_k, x)
extends to an automorphism, and the last level's orbit is just its
candidates.  The levels are counted from the last one up.  An earlier
candidate is decided by one depth-first search for an extension; each
automorphism found fixes g_1, ..., g_k and so is a Schreier generator of
every level counted after it.  The images of known orbit points under the
generators found so far are in the orbit, and the images of failed
candidates fail, with no further search (G. Butler, Fundamental Algorithms
for Permutation Groups, LNCS 559, 1991).  A guard caps the search nodes,
one per candidate image tried, and `aut_group` lists at most 10^5
automorphisms.
"""
from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence

import numpy as np

from .. import guards
from ..qcombin import Partition
from .cayley import CayleyGroup, is_p_power


def minimal_generating_tuple(g: CayleyGroup, p: Optional[int] = None) -> List[int]:
    """Generators lifted from a basis of G/Frattini (p-groups) or greedy closure."""
    return _generating_tuple(g, _frattini_mask(g, p))


def _frattini_mask(g: CayleyGroup, p: Optional[int]) -> Optional[int]:
    """Bitmask of the Frattini subgroup for a nontrivial p-group; None otherwise."""
    if p is None or not g.is_p_group(p) or g.order == 1:
        return None
    return g._mask(g.frattini(p))


def _generating_tuple(g: CayleyGroup, phi: Optional[int]) -> List[int]:
    """Take each element, in turn, outside the span of phi and the elements
    taken so far: in index order when phi is the Frattini mask, and otherwise
    (no phi) by descending element order.
    """
    if phi is None:
        scan = np.argsort(-g.element_orders(), kind="stable").tolist()
    else:
        scan = range(g.order)
    whole = (1 << g.order) - 1
    gens: List[int] = []
    span = g._span([], phi)
    for x in scan:
        if not span >> x & 1:
            gens.append(x)
            span = g._span(gens, phi)
            if span == whole:
                break
    if g._span(gens) != whole:
        raise ArithmeticError("greedy generators do not generate G")
    return gens


def _bfs_schedule(g: CayleyGroup, gens: Sequence[int], known: np.ndarray):
    """Derivations (element, parent, gen_pos) for <gens> \\ known, plus members."""
    mask = g._mask(known)
    work = known.tolist()
    schedule = []
    i = 0
    while i < len(work):
        x = work[i]
        i += 1
        for pos, gen in enumerate(gens):
            y = int(g.table[x, gen])
            if not mask >> y & 1:
                mask |= 1 << y
                schedule.append((y, x, pos))
                work.append(y)
    return g._elements(mask), schedule


class _Search:
    """Isomorphisms g -> target by generator images, set up once per pair.

    The pair must have equal orders.  `feasible` is False when a Frattini
    rank already rules every isomorphism out.
    """

    def __init__(self, g: CayleyGroup, target: CayleyGroup, p: Optional[int]):
        self.n = g.order
        self.target = target
        self.table_t = target.table
        self.nodes = 0
        phi = _frattini_mask(g, p)
        self.gens = gens = _generating_tuple(g, phi)
        self.d = d = len(gens)
        orders_g = g.element_orders()
        orders_t = target.element_orders()
        self.order_ok = [orders_t == orders_g[x] for x in gens]
        self.feasible = True
        self.span0 = None  # Phi(T) as a bitmask; None when g is not a nontrivial p-group
        if phi is not None:  # g, and so target, is a nontrivial p-group
            self.span0 = phi if target is g else _frattini_mask(target, p)
            self.feasible = target.order == p**d * self.span0.bit_count()

        self.members: List[np.ndarray] = []  # H_{k+1}
        self.schedules = []  # derivations (element, parent, gen_pos) of H_{k+1} \ H_k
        self.check_x: List[np.ndarray] = []  # domain points x of the per-level hom checks
        self.check_j: List[np.ndarray] = []  # generator position paired with each x
        self.check_xg: List[np.ndarray] = []  # precomputed x * g_j
        known = np.array([g.identity], dtype=np.int32)
        self.gens_arr = np.array(gens, dtype=np.int32)
        for k in range(d):
            mem, sched = _bfs_schedule(g, gens[: k + 1], known)
            self.members.append(mem)
            self.schedules.append(sched)
            # parent levels already verified (x in H_k, j < k); the new pairs are
            # (x in H_{k+1}, j = k) and (x newly added, j < k)
            new = np.array([e for e, _, _ in sched], dtype=np.int32)
            xs = [mem]
            js = [np.full(mem.size, k, dtype=np.int32)]
            if k and new.size:
                xs.append(np.repeat(new, k))
                js.append(np.tile(np.arange(k, dtype=np.int32), new.size))
            x_arr = np.concatenate(xs)
            j_arr = np.concatenate(js)
            self.check_x.append(x_arr)
            self.check_j.append(j_arr)
            self.check_xg.append(g.table[x_arr, self.gens_arr[j_arr]])
            known = mem
        if known.size != g.order:
            raise ArithmeticError("generator chain does not reach the whole group")
        self.img0 = np.full(g.order, -1, dtype=np.int32)
        self.img0[g.identity] = target.identity

    def fixed_prefix(self, k: int):
        """The map fixing H_k pointwise and its Frattini span (k = 0: the search root).

        Only an automorphism search (target is g) has a fixed prefix for k > 0.
        """
        img = self.img0.copy()
        if k:
            img[self.members[k - 1]] = self.members[k - 1]
        span = self.span0
        for x in self.gens[:k]:
            span = self.extend(span, x)
        return img, span

    def extend(self, span, x: int):
        """The Frattini span once x is the image of the next generator.

        The span contains Phi(T), and so the derived subgroup: it is normal.
        """
        return None if span is None else self.target._span([x], span)

    def step(self, k: int, img: np.ndarray, span):
        """Images x of g_{k+1} that extend img (a map on H_k) to an injective
        homomorphism on H_{k+1}, and those extended maps, one row each."""
        cand = self.order_ok[k]
        if span is not None:
            cand = cand & ~self.target._members(span)
        xs = np.flatnonzero(cand).astype(np.int32)
        self.nodes += xs.size
        guards.check("search_nodes", self.nodes)
        table_t = self.table_t
        imgs = np.repeat(img[None, :], xs.size, axis=0)
        imgs[:, self.gens[k]] = xs
        tcols = imgs[:, self.gens_arr[: k + 1]]  # (c, k+1)
        for elt, parent, pos in self.schedules[k]:
            imgs[:, elt] = table_t[imgs[:, parent], tcols[:, pos]]
        lhs = imgs[:, self.check_xg[k]]
        rhs = table_t[imgs[:, self.check_x[k]], tcols[:, self.check_j[k]]]
        ok = (lhs == rhs).all(axis=1)
        srt = np.sort(imgs[:, self.members[k]], axis=1)
        ok &= (srt[:, 1:] != srt[:, :-1]).all(axis=1)
        return xs[ok], imgs[ok]

    def extensions(self, k: int, img: np.ndarray, span):
        """Every isomorphism that extends img (a map on H_k), lazily, in search order."""
        if k == self.d:
            yield img
            return
        xs, imgs = self.step(k, img, span)
        for x, row in zip(xs.tolist(), imgs):
            yield from self.extensions(k + 1, row, self.extend(span, x) if k + 1 < self.d else None)


def _orbit(points: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """Close a boolean point set under the permutations in the rows of perms."""
    while True:
        grown = points.copy()
        grown[perms[:, points]] = True
        if np.array_equal(grown, points):
            return points
        points = grown


def _chain_order(s: _Search) -> int:
    """|Aut(G)| as the product of the orbit lengths |g_{k+1}^{S_k}|, last level first."""
    n = s.n
    order = 1
    schreier = np.empty((0, n), dtype=np.int32)  # automorphisms found; each fixes H_k
    for k in reversed(range(s.d)):
        img, span = s.fixed_prefix(k)
        xs, imgs = s.step(k, img, span)
        if k + 1 == s.d:
            order *= xs.size  # every candidate left is an automorphism
            schreier = imgs
            continue
        valid = np.zeros(n, dtype=bool)
        valid[s.gens[k]] = True
        valid = _orbit(valid, schreier)
        failed = np.zeros(n, dtype=bool)
        for x, row in zip(xs.tolist(), imgs):
            if valid[x] or failed[x]:
                continue
            phi = next(s.extensions(k + 1, row, s.extend(span, x)), None)
            if phi is None:
                failed[x] = True
            else:
                schreier = np.vstack([schreier, phi])
                valid[x] = True
                valid = _orbit(valid, schreier)
            failed = _orbit(failed, schreier)
        cand = np.zeros(n, dtype=bool)
        cand[xs] = True
        if (valid & ~cand).any():
            raise ArithmeticError("a Schreier generator moved the orbit off the candidates")
        order *= int(valid.sum())
    return order


def aut_group(g: CayleyGroup, p: Optional[int] = None) -> List[np.ndarray]:
    """All automorphisms as permutation arrays, each verified on construction.

    Raises ValueError past the listing guard, before listing any.
    """
    s = _Search(g, g, p)
    n = _chain_order(s)
    guards.check("listed_automorphisms", n)
    auts = list(s.extensions(0, *s.fixed_prefix(0)))
    if len(auts) != n:
        raise ArithmeticError("automorphism search and stabiliser chain disagree on |Aut(G)|")
    for phi in auts:
        if not np.array_equal(np.sort(phi), np.arange(g.order)):
            raise ArithmeticError("automorphism search returned a non-bijection")
        if not np.array_equal(phi[g.table], g.table[phi[:, None], phi[None, :]]):
            raise ArithmeticError("automorphism search returned a non-homomorphism")
    return auts


def aut_order(g: CayleyGroup, p: Optional[int] = None) -> int:
    """|Aut(G)| along a stabiliser chain; ValueError past the search-node guard."""
    return _chain_order(_Search(g, g, p))


def aut_is_p_group(g: CayleyGroup, p: int) -> bool:
    return is_p_power(aut_order(g, p), p)


def are_isomorphic(a: CayleyGroup, b: CayleyGroup, p: Optional[int] = None) -> bool:
    if a.order != b.order:
        return False
    if sorted(a.element_orders()) != sorted(b.element_orders()):
        return False
    if a.center().size != b.center().size:
        return False
    s = _Search(a, b, p)
    return s.feasible and next(s.extensions(0, *s.fixed_prefix(0)), None) is not None


def frattini_action_kernel_order(g: CayleyGroup, p: int, auts: Sequence[np.ndarray]) -> int:
    """Order of the subgroup of Aut(G) acting trivially on G/Frattini."""
    phi = np.zeros(g.order, dtype=bool)
    phi[g.frattini(p)] = True
    return sum(1 for a in auts if phi[g.table[a, g.inverse]].all())  # a(x) x^-1 in Phi


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
