"""The p-covering group R of C_p^d from its cocycle, with the standard library alone.

An oracle for `pgrouplab.fplin.wedge_matrix` and for the groups its orbits stand
for: it shares no code with pgrouplab.  R is the set of pairs (v, m), with v in
{0..p-1}^d and m in F_p^(d + C(d,2)), multiplied by

    (v, m)(v', m') = (v + v' mod p, m + m' + c(v, v')).

Coordinate i of c is the carry of v_i + v'_i >= p, and the coordinate d + k of
the k-th pair (i, j), i < j, in lexicographic order is v_j v'_i.  So x_i = (e_i, 0)
has x_i^p = (0, e_i) and [x_j, x_i] = (0, e_(d+k)), and the multiplicator
M = Phi(R) is the central subgroup of the pairs (0, m).  Every d-generator group
of p-class at most 2 is R/N for a subspace N of M, and R/N is isomorphic to R/N'
exactly when N' = N.g for some g in GL(d,p), acting on M through the lift
x_i -> (g e_i, 0) (M. F. Newman, LNM 573, 1977; E. A. O'Brien, J. Symbolic
Comput. 9, 1990).
"""
import functools
import itertools
from typing import Dict, List, Sequence, Tuple


def pairs(d: int) -> List[Tuple[int, int]]:
    return [(i, j) for i in range(d) for j in range(i + 1, d)]


def mul(a: tuple, b: tuple, p: int) -> tuple:
    (v, m), (w, n) = a, b
    c = [int(x + y >= p) for x, y in zip(v, w)] + [v[j] * w[i] for i, j in pairs(len(v))]
    return (tuple((x + y) % p for x, y in zip(v, w)),
            tuple((x + y + z) % p for x, y, z in zip(m, n, c)))


def identity(d: int) -> tuple:
    return ((0,) * d, (0,) * (d + len(pairs(d))))


def power(a: tuple, k: int, p: int) -> tuple:
    out = identity(len(a[0]))
    for _ in range(k):
        out = mul(out, a, p)
    return out


def commutator(a: tuple, b: tuple, p: int) -> tuple:
    """[a, b] = (ba)^-1 ab.  ab and ba share their v, and (u, m)(0, z) = (u, m + z)
    since c(u, 0) = 0, so ab = ba (0, m(ab) - m(ba)) and that is [a, b]."""
    ab, ba = mul(a, b, p), mul(b, a, p)
    return ((0,) * len(ab[0]), tuple((x - y) % p for x, y in zip(ab[1], ba[1])))


def lifted_matrix(g: Sequence[Sequence[int]], p: int) -> tuple:
    """The matrix of g on M: columns are the m-parts of (x_i')^p, then of [x_j', x_i']
    for i < j, where x_i' = (g e_i, 0) is the lift of x_i."""
    d = len(g)
    zero_m = identity(d)[1]
    lift = [(tuple(g[k][i] % p for k in range(d)), zero_m) for i in range(d)]
    cols = [power(x, p, p) for x in lift] + [commutator(lift[j], lift[i], p) for i, j in pairs(d)]
    if any(any(v) for v, _ in cols):
        raise ArithmeticError("a p-th power or commutator of the lifts left M")
    return tuple(zip(*(m for _, m in cols)))


def gl_order(d: int, p: int) -> int:
    out = 1
    for i in range(d):
        out *= p**d - p**i
    return out


def gl_generators(d: int, p: int) -> List[tuple]:
    """The transvections I + E_ij, which generate SL(d,p), and diag(a, 1, ..., 1)."""
    def mat(entries: Dict[Tuple[int, int], int]) -> tuple:
        return tuple(tuple(entries.get((r, c), int(r == c)) for c in range(d)) for r in range(d))
    return ([mat({(i, j): 1}) for i in range(d) for j in range(d) if i != j]
            + [mat({(0, 0): a}) for a in range(2, p)])


def _apply(a: Sequence[Sequence[int]], v: tuple, p: int) -> tuple:
    return tuple(sum(x * y for x, y in zip(row, v)) % p for row in a)


def _span(sub: frozenset, v: tuple, p: int) -> frozenset:
    return frozenset(tuple((x + t * y) % p for x, y in zip(s, v)) for s in sub for t in range(p))


def orbits(d: int, p: int) -> List[Tuple[frozenset, int, int]]:
    """(N, |orbit of N|, |Stab(N)|) for one N per GL(d,p)-orbit of subspaces of M.

    A subspace is the set of its vectors.  Each N of dimension k + 1 lies over some
    N' of dimension k, and moving N' to its orbit's representative moves N with it,
    so the spans of every representative of dimension k with every vector reach
    every orbit of dimension k + 1.  An orbit is the closure of one subspace under
    the generators, whose lifted matrices act on the vectors as permutations.
    """
    m = d + len(pairs(d))
    vectors = list(itertools.product(range(p), repeat=m))
    lifted = [lifted_matrix(g, p) for g in gl_generators(d, p)]
    moves = [{v: _apply(a, v, p) for v in vectors} for a in lifted]
    seen = set()
    out = []
    layer = [frozenset([(0,) * m])]
    while layer:
        reps = []
        for sub in layer:
            if sub in seen:
                continue
            orbit, todo = {sub}, [sub]
            while todo:
                x = todo.pop()
                for move in moves:
                    y = frozenset(move[v] for v in x)
                    if y not in orbit:
                        orbit.add(y)
                        todo.append(y)
            seen |= orbit
            stab, rem = divmod(gl_order(d, p), len(orbit))
            if rem:
                raise ArithmeticError("orbit size does not divide |GL(d,p)|")
            out.append((sub, len(orbit), stab))
            reps.append(sub)
        layer = [_span(r, v, p) for r in reps for v in vectors if v not in r]
    return out


@functools.lru_cache(maxsize=None)
def _vectors(n: int, p: int) -> Tuple[List[tuple], List[List[int]]]:
    """F_p^n in lexicographic order, and its addition table on those indices."""
    vs = list(itertools.product(range(p), repeat=n))
    index = {v: i for i, v in enumerate(vs)}
    return vs, [[index[tuple((a + b) % p for a, b in zip(v, w))] for w in vs] for v in vs]


def quotient_table(d: int, p: int, sub: frozenset) -> List[List[int]]:
    """The Cayley table of R/N, N = sub, on the pairs (v, t) with t the least member of m + N.

    An element's index is the place of v in lexicographic order, times [M : N], plus
    the place of t among the coset representatives.  As M is central,
    (v, s)(w, t) = (v, 0)(w, 0)(0, s + t).
    """
    vs, _ = _vectors(d, p)
    ms, add = _vectors(d + len(pairs(d)), p)
    mindex = {x: i for i, x in enumerate(ms)}
    least = [min(row[mindex[n]] for n in sub) for row in add]
    reps = sorted(set(least))
    place = {t: i for i, t in enumerate(reps)}
    zero_m = identity(d)[1]
    prods = [[mul((v, zero_m), (w, zero_m), p) for w in vs] for v in vs]
    vwc = [[(vs.index(u) * len(reps), mindex[c]) for u, c in row] for row in prods]
    return [[vw + place[least[add[add[s][t]][c]]] for vw, c in vwc[i] for t in reps]
            for i in range(len(vs)) for s in reps]
