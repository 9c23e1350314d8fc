"""Constructors for the group families used by the catalogs and tests."""
from __future__ import annotations

import itertools
from typing import Callable, Optional, Sequence

import numpy as np

from .cayley import ORDER_GUARD, CayleyGroup, direct_product, quotient_group


def cyclic(n: int, name: Optional[str] = None, guard: int = ORDER_GUARD) -> CayleyGroup:
    table = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    return CayleyGroup(
        table, name=name or f"C{n}", labels=[f"g^{i}" for i in range(n)], guard=guard
    )


def abelian_of_type(
    p: int, lam: Sequence[int], name: Optional[str] = None, guard: int = ORDER_GUARD
) -> CayleyGroup:
    """Direct product of cyclic groups of orders p^lam_i."""
    if not lam:
        return cyclic(1, name=name or "1")
    g = cyclic(p ** lam[0], guard=guard)
    for e in lam[1:]:
        g = direct_product(g, cyclic(p**e, guard=guard), guard=guard)
    g.name = name or "x".join(f"C{p**e}" for e in lam)
    return g


def metacyclic(m: int, n: int, t: int, s: int = 0, name: Optional[str] = None) -> CayleyGroup:
    """Group <a,b | a^m = 1, b^n = a^s, b a b^-1 = a^t> on elements a^i b^j.

    Requires t^n = 1 (mod m) and s(t-1) = 0 (mod m) so that the presentation
    is consistent; the Cayley constructor re-verifies associativity anyway.
    """
    t %= m
    s %= m
    if pow(t, n, m) != 1:
        raise ValueError("t^n must be 1 mod m")
    if (s * (t - 1)) % m != 0:
        raise ValueError("a^s must be central")
    tp = [pow(t, j, m) for j in range(n)]
    size = m * n

    def idx(i: int, j: int) -> int:
        return j * m + i

    table = np.empty((size, size), dtype=np.int32)
    for j1 in range(n):
        for i1 in range(m):
            for j2 in range(n):
                for i2 in range(m):
                    jj = j1 + j2
                    carry, j = divmod(jj, n)
                    i = (i1 + i2 * tp[j1] + s * carry) % m
                    table[idx(i1, j1), idx(i2, j2)] = idx(i, j)
    labels = [f"a^{i}b^{j}" for j in range(n) for i in range(m)]
    gens = [idx(1, 0), idx(0, 1)] if m > 1 and n > 1 else None
    return CayleyGroup(table, name=name or f"M({m},{n},{t},{s})", labels=labels, generators=gens)


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
    """Upper unitriangular size x size matrices over F_p."""
    positions = [(i, j) for i in range(size) for j in range(i + 1, size)]
    order = p ** len(positions)
    if order > ORDER_GUARD:
        raise ValueError(f"UT({size},{p}) has order {order} > {ORDER_GUARD}")

    def to_mat(vals):
        mat = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
        for (i, j), v in zip(positions, vals):
            mat[i][j] = v
        return tuple(tuple(r) for r in mat)

    elements = [to_mat(vals) for vals in itertools.product(range(p), repeat=len(positions))]
    index = {m: i for i, m in enumerate(elements)}

    def mul(a, b):
        return tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(size)) % p for j in range(size))
            for i in range(size)
        )

    table = np.array(
        [[index[mul(a, b)] for b in elements] for a in elements], dtype=np.int32
    )
    labels = ["".join(str(m[i][j]) for (i, j) in positions) for m in elements]
    return CayleyGroup(
        table, name=name or f"UT({size},{p})", labels=labels, data=elements
    )


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
    """N x| H with act(h) the permutation of N induced by h.

    act(h) must be an automorphism of N for each h and h -> act(h) a
    homomorphism; associativity of the resulting table certifies this.
    """
    nn, nh = n_grp.order, h_grp.order
    acts = [np.asarray(act(h), dtype=np.int32) for h in range(nh)]
    size = nn * nh
    table = np.empty((size, size), dtype=np.int32)
    for h1 in range(nh):
        phi = acts[h1]
        for n1 in range(nn):
            row = table[n1 * nh + h1]
            for h2 in range(nh):
                hh = h_grp.table[h1, h2]
                row[np.arange(nn) * nh + h2] = (
                    n_grp.table[n1, phi[np.arange(nn)]] * nh + hh
                )
    return CayleyGroup(table, name=name or f"{n_grp.name}:{h_grp.name}")


def wreath_cp_cp(p: int) -> CayleyGroup:
    """C_p wr C_p: base C_p^p with a cyclic coordinate shift on top."""
    order = p ** (p + 1)
    if order > ORDER_GUARD:
        raise ValueError(f"C{p} wr C{p} has order {order} > {ORDER_GUARD}")
    base = list(itertools.product(range(p), repeat=p))
    index = {f: i for i, f in enumerate(base)}
    size = len(base) * p

    def idx(f, s):
        return index[f] * p + s

    table = np.empty((size, size), dtype=np.int32)
    for f in base:
        for s in range(p):
            for g in base:
                for t in range(p):
                    shifted = tuple(g[(i - s) % p] for i in range(p))
                    fg = tuple((x + y) % p for x, y in zip(f, shifted))
                    table[idx(f, s), idx(g, t)] = idx(fg, (s + t) % p)
    return CayleyGroup(table, name=f"C{p}wrC{p}")


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
