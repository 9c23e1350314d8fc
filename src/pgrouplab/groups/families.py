"""Constructors for the group families used by the catalogs and tests.

Each table is one numpy expression of the family's defining rule, broadcast
over a fixed numbering of the elements; the CayleyGroup constructor then
verifies the group axioms on it exactly, associativity by Light's test.
"""
from __future__ import annotations

import itertools
from typing import Callable, Optional, Sequence

import numpy as np

from .. import guards
from .cayley import CayleyGroup, direct_product, quotient_group


def cyclic(n: int, name: Optional[str] = None) -> CayleyGroup:
    guards.check("group_order", n)
    table = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    return CayleyGroup(table, name=name or f"C{n}")


def abelian_of_type(p: int, lam: Sequence[int], name: Optional[str] = None) -> CayleyGroup:
    """Direct product of cyclic groups of orders p^lam_i."""
    if not lam:
        return cyclic(1, name=name or "1")
    g = cyclic(p ** lam[0])
    for e in lam[1:]:
        g = direct_product(g, cyclic(p**e))
    g.name = name or "x".join(f"C{p**e}" for e in lam)
    return g


def metacyclic(m: int, n: int, t: int, s: int = 0, name: Optional[str] = None) -> CayleyGroup:
    """Group <a,b | a^m = 1, b^n = a^s, b a b^-1 = a^t>; a^i b^j is element j*m + i.

    Requires t^n = 1 (mod m) and s(t-1) = 0 (mod m) so that the presentation
    is consistent; the Cayley constructor re-verifies associativity anyway.
    """
    guards.check("group_order", m * n)
    t %= m
    s %= m
    if pow(t, n, m) != 1:
        raise ValueError("t^n must be 1 mod m")
    if (s * (t - 1)) % m != 0:
        raise ValueError("a^s must be central")
    tp = np.array([pow(t, j, m) for j in range(n)])
    j1, i1, j2, i2 = np.ix_(range(n), range(m), range(n), range(m))
    carry, j = np.divmod(j1 + j2, n)
    table = (j * m + (i1 + i2 * tp[j1] + s * carry) % m).reshape(m * n, m * n)
    gens = [1, m] if m > 1 and n > 1 else None
    return CayleyGroup(table, name=name or f"M({m},{n},{t},{s})", generators=gens)


def dihedral(order: int) -> CayleyGroup:
    if order % 2 or order < 4:
        raise ValueError("dihedral order must be even and at least 4")
    m = order // 2
    return metacyclic(m, 2, m - 1, 0, name=f"D{order}")


def quaternion(order: int) -> CayleyGroup:
    if order < 8 or order & (order - 1):
        raise ValueError("generalized quaternion order must be a power of 2, at least 8")
    m = order // 2
    return metacyclic(m, 2, m - 1, m // 2, name=f"Q{order}")


def semidihedral(order: int) -> CayleyGroup:
    if order < 16 or order & (order - 1):
        raise ValueError("semidihedral order must be a power of 2, at least 16")
    m = order // 2
    return metacyclic(m, 2, m // 2 - 1, 0, name=f"SD{order}")


def modular_group(p: int, k: int) -> CayleyGroup:
    """Modular group of order p^k: <a,b | a^{p^{k-1}}, b^p, bab^-1 = a^{1+p^{k-2}}>."""
    if k < 3:
        raise ValueError("modular group needs order at least p^3")
    m = p ** (k - 1)
    return metacyclic(m, p, 1 + p ** (k - 2), 0, name=f"M{k}({p})")


def ut_group(size: int, p: int, name: Optional[str] = None) -> CayleyGroup:
    """Upper unitriangular size x size matrices over F_p.

    Element i has the base-p digits of i as its above-diagonal entries, row by row.
    """
    rows, cols = np.triu_indices(size, 1)
    k = rows.size
    order = p**k
    guards.check("group_order", order)
    mats = np.tile(np.eye(size, dtype=np.int64), (order, 1, 1))
    mats[:, rows, cols] = list(itertools.product(range(p), repeat=k))
    # only the above-diagonal entries of each product vary
    prod = np.einsum("atk,bkt->abt", mats[:, rows, :], mats[:, :, cols]) % p
    table = prod @ p ** np.arange(k - 1, -1, -1)
    data = [tuple(map(tuple, m)) for m in mats.tolist()]
    return CayleyGroup(table, name=name or f"UT({size},{p})", data=data)


def extraspecial(p: int, exponent: str) -> CayleyGroup:
    """The two extraspecial groups of order p^3 (odd p): exponent "p" or "p2"."""
    if p == 2:
        raise ValueError("use dihedral(8)/quaternion(8) for p = 2")
    if exponent == "p":
        g = ut_group(3, p, name=f"E({p}^3,exp {p})")
        return g
    if exponent == "p2":
        return metacyclic(p * p, p, 1 + p, 0, name=f"E({p}^3,exp {p}^2)")
    raise ValueError("exponent must be 'p' or 'p2'")


def central_product(
    a: CayleyGroup, b: CayleyGroup, za: int, zb: int, name: Optional[str] = None
) -> CayleyGroup:
    """(A x B) / <(za, zb^-1)> for central elements za, zb of equal order."""
    if za not in a.center() or zb not in b.center():
        raise ValueError("central_product needs central elements")
    prod = direct_product(a, b)
    nb = b.order
    gen = za * nb + int(b.inverse[zb])
    normal = prod.closure([gen])
    expected = a.element_orders()[za]
    if b.element_orders()[zb] != expected or normal.size != expected:
        raise ValueError("identified central elements must have equal order")
    q, _ = quotient_group(prod, normal, name=name or f"{a.name}o{b.name}")
    return q


def semidirect_product(
    n_grp: CayleyGroup,
    h_grp: CayleyGroup,
    act: Callable[[int], np.ndarray],
    name: Optional[str] = None,
) -> CayleyGroup:
    """N x| H with act(h) the permutation of N induced by h; (n, h) is element n*|H| + h.

    act(h) must be an automorphism of N for each h and h -> act(h) a
    homomorphism; associativity of the resulting table certifies this.
    """
    nn, nh = n_grp.order, h_grp.order
    guards.check("group_order", nn * nh)
    acts = np.array([act(h) for h in range(nh)], dtype=np.int32)
    n1, h1, n2, h2 = np.ix_(range(nn), range(nh), range(nn), range(nh))
    table = n_grp.table[n1, acts[h1, n2]] * nh + h_grp.table[h1, h2]
    return CayleyGroup(table.reshape(nn * nh, nn * nh), name=name or f"{n_grp.name}:{h_grp.name}")


def wreath_cp_cp(p: int) -> CayleyGroup:
    """C_p wr C_p = C_p^p x| C_p, the top C_p shifting the coordinates cyclically."""
    guards.check("group_order", p ** (p + 1))
    base = np.array(list(itertools.product(range(p), repeat=p)))
    weights = p ** np.arange(p - 1, -1, -1)

    def shift(s: int) -> np.ndarray:
        return np.roll(base, s, axis=1) @ weights

    return semidirect_product(abelian_of_type(p, (1,) * p), cyclic(p), shift, name=f"C{p}wrC{p}")


def c2sq_semidirect_c4() -> CayleyGroup:
    """(C2 x C2) x| C4, the C4 acting by swapping the two generators."""
    n_grp = abelian_of_type(2, (1, 1))
    h_grp = cyclic(4)
    # element i of C2 x C2 encodes (i >> 1, i & 1); swap exchanges coordinates
    swap = np.array([0, 2, 1, 3], dtype=np.int32)
    ident = np.arange(4, dtype=np.int32)

    def act(h: int) -> np.ndarray:
        return swap if h % 2 else ident

    return semidirect_product(n_grp, h_grp, act, name="(C2xC2):C4")


def c4_semidirect_c4() -> CayleyGroup:
    """C4 x| C4 with the generator acting by inversion."""
    return metacyclic(4, 4, 3, 0, name="C4:C4")
