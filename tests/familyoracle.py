"""Per-entry multiplication tables of the group families, as plain nested lists.

An oracle for the table builders of `pgrouplab.groups`: it shares none of
their code.  Each function fills its table one entry at a time from the
family's defining rule, with the element numbering the library documents,
and returns plain nested lists.
"""
import itertools
from typing import List, Optional, Sequence, Tuple

Table = List[List[int]]


def cyclic(n: int) -> Table:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def direct_product(ta: Sequence[Sequence[int]], tb: Sequence[Sequence[int]]) -> Table:
    """A x B with (a, b) numbered a*|B| + b."""
    na, nb = len(ta), len(tb)
    return [
        [ta[a1][a2] * nb + tb[b1][b2] for a2 in range(na) for b2 in range(nb)]
        for a1 in range(na)
        for b1 in range(nb)
    ]


def abelian_of_type(p: int, lam: Sequence[int]) -> Table:
    table = cyclic(p ** lam[0])
    for e in lam[1:]:
        table = direct_product(table, cyclic(p**e))
    return table


def metacyclic(m: int, n: int, t: int, s: int) -> Tuple[Table, Optional[List[int]]]:
    """Table and generators [a, b] of <a,b | a^m, b^n = a^s, b a b^-1 = a^t>, a^i b^j = j*m + i."""
    t %= m
    s %= m
    tp = [pow(t, j, m) for j in range(n)]
    size = m * n

    def idx(i: int, j: int) -> int:
        return j * m + i

    table = [[0] * size for _ in range(size)]
    for j1 in range(n):
        for i1 in range(m):
            for j2 in range(n):
                for i2 in range(m):
                    jj = j1 + j2
                    carry, j = divmod(jj, n)
                    i = (i1 + i2 * tp[j1] + s * carry) % m
                    table[idx(i1, j1)][idx(i2, j2)] = idx(i, j)
    gens = [idx(1, 0), idx(0, 1)] if m > 1 and n > 1 else None
    return table, gens


def ut_group(size: int, p: int) -> Tuple[Table, list]:
    """Table and element matrices of UT(size, p), in itertools.product order of the entries."""
    positions = [(i, j) for i in range(size) for j in range(i + 1, size)]

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

    return [[index[mul(a, b)] for b in elements] for a in elements], elements


def semidirect_product(
    tn: Sequence[Sequence[int]], th: Sequence[Sequence[int]], acts: Sequence[Sequence[int]]
) -> Table:
    """N x| H with acts[h] the permutation of N induced by h; (n, h) is n*|H| + h."""
    nn, nh = len(tn), len(th)
    size = nn * nh
    table = [[0] * size for _ in range(size)]
    for h1 in range(nh):
        phi = acts[h1]
        for n1 in range(nn):
            row = table[n1 * nh + h1]
            for h2 in range(nh):
                hh = th[h1][h2]
                for n2 in range(nn):
                    row[n2 * nh + h2] = tn[n1][phi[n2]] * nh + hh
    return table


def wreath_cp_cp(p: int) -> Table:
    """C_p wr C_p: (f, s) is index(f)*p + s, f in C_p^p in itertools.product order."""
    base = list(itertools.product(range(p), repeat=p))
    index = {f: i for i, f in enumerate(base)}
    size = len(base) * p

    def idx(f, s):
        return index[f] * p + s

    table = [[0] * size for _ in range(size)]
    for f in base:
        for s in range(p):
            for g in base:
                for t in range(p):
                    shifted = tuple(g[(i - s) % p] for i in range(p))
                    fg = tuple((x + y) % p for x, y in zip(f, shifted))
                    table[idx(f, s)][idx(g, t)] = idx(fg, (s + t) % p)
    return table


def quotient_group(table: Sequence[Sequence[int]], normal: Sequence[int]) -> Tuple[Table, List[int]]:
    """G/N numbered by the smallest element of each coset; returns (table, projection)."""
    rep_of = [min(table[x][y] for y in normal) for x in range(len(table))]
    reps = sorted(set(rep_of))
    index_of = {r: i for i, r in enumerate(reps)}
    proj = [index_of[r] for r in rep_of]
    return [[proj[table[r][s]] for s in reps] for r in reps], proj


def subgroup_as_group(table: Sequence[Sequence[int]], sub: Sequence[int]) -> Table:
    """The subgroup sub (sorted) numbered by position."""
    pos = {x: i for i, x in enumerate(sub)}
    return [[pos[table[x][y]] for y in sub] for x in sub]
