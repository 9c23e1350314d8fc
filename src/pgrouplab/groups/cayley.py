"""Finite groups as explicit multiplication tables (numpy int arrays).

The elements are the indices 0..n-1; table[i, j] is the index of the
product.  Construction always verifies the group axioms exactly, so everything
downstream can treat a CayleyGroup as trusted.  Associativity is certified by
Light's test (A. H. Clifford & G. B. Preston, The Algebraic Theory of
Semigroups, vol. 1, AMS 1961, section 1.2): call a associative when
(xa)y = x(ay) for all x, y.  If a and b are, then
(x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y), so ab is too.  Hence
the table is associative once every element is a left-normed product
((s1 s2) s3)... of checked elements.  Each n^2 check of an element outside
the products so far at least doubles them in a group, so at most
floor(log2 n) + 1 elements are checked instead of all n^3 triples.

Inside the class a subgroup is a Python-int bitmask (bit x set iff element x
is in it), grown from generators by Dimino's algorithm (G. Butler,
Fundamental Algorithms for Permutation Groups, LNCS 559, 1991, ch. 7).  The
public methods take and return subgroups as sorted index arrays.
"""
from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .. import guards
from ..qcombin import Partition, _is_prime


def _associates(t: np.ndarray, a: int) -> bool:
    """Whether (x*a)*y = x*(a*y) for all x and y in the table t."""
    return bool(np.array_equal(t[t[:, a]], t[:, t[a]]))


class CayleyGroup:
    def __init__(
        self,
        table,
        name: str = "G",
        generators: Optional[Sequence[int]] = None,
        data: Optional[Sequence] = None,
    ):
        table = np.asarray(table, dtype=np.int32)
        n = table.shape[0]
        if table.ndim != 2 or table.shape != (n, n):
            raise ValueError("table must be square")
        guards.check("group_order", n)
        self.table = table
        self.order = n
        self.name = name
        self.generators = list(generators) if generators is not None else None
        self.data = list(data) if data is not None else None
        self._validate()
        self.identity = self._find_identity()
        self.inverse = self._find_inverses()
        self._orders: Optional[np.ndarray] = None
        self._normals: Optional[List[np.ndarray]] = None  # read-only, built on first request

    # -- construction checks --------------------------------------------------

    def _validate(self):
        n = self.order
        t = self.table
        if t.min() < 0 or t.max() >= n:
            raise ValueError("table entries out of range")
        ar = np.arange(n)
        if not (np.sort(t, axis=1) == ar).all() or not (np.sort(t, axis=0) == ar[:, None]).all():
            raise ValueError("table is not a Latin square")
        # Light's test (module docstring): cover the table with left-normed
        # products of checked elements, read from the raw rows.  No closure
        # code runs here, since it assumes the axioms being checked.
        self._rows = rows = t.tolist()
        covered = [False] * n
        cover: List[int] = []
        checked: List[int] = []
        for a in range(n):
            if covered[a]:
                continue
            if not _associates(t, a):
                raise ValueError("table is not associative")
            checked.append(a)
            todo = [rows[z][a] for z in cover] + [a]
            while todo:
                z = todo.pop()
                if covered[z]:
                    continue
                covered[z] = True
                cover.append(z)
                todo += [rows[z][s] for s in checked]

    def _find_identity(self) -> int:
        ar = np.arange(self.order)
        for e in range(self.order):
            if np.array_equal(self.table[e], ar) and np.array_equal(self.table[:, e], ar):
                return e
        raise ValueError("no identity element")

    def _find_inverses(self) -> np.ndarray:
        pairs = np.argwhere(self.table == self.identity)
        out = np.empty(self.order, dtype=np.int32)
        out[pairs[:, 0]] = pairs[:, 1]
        if not (self.table[np.arange(self.order), out] == self.identity).all():
            raise ValueError("inverses missing")
        return out

    # -- element machinery -----------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def power(self, x: int, k: int) -> int:
        if k < 0:
            return self.power(int(self.inverse[x]), -k)
        out = self.identity
        base = x
        while k:
            if k & 1:
                out = int(self.table[out, base])
            base = int(self.table[base, base])
            k >>= 1
        return out

    def element_orders(self) -> np.ndarray:
        if self._orders is None:
            orders = np.empty(self.order, dtype=np.int32)
            for x in range(self.order):
                k, y = 1, x
                while y != self.identity:
                    y = int(self.table[y, x])
                    k += 1
                orders[x] = k
            self._orders = orders
        return self._orders

    def exponent(self) -> int:
        return int(np.lcm.reduce(self.element_orders()))

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))

    def commutator(self, x: int, y: int) -> int:
        xy = self.table[x, y]
        return int(self.table[self.table[self.inverse[x], self.inverse[y]], xy])

    # -- subgroup machinery ------------------------------------------------------

    def _span(self, gens: Iterable[int], base: Optional[int] = None) -> int:
        """Bitmask of <gens, base>; bit x is set iff x is in it.

        Dimino's algorithm: a generator already in the span D found so far is
        skipped; a new one y extends D by whole right cosets D*w, one for each
        coset representative times a generator that lands outside D.  base is
        the mask of a subgroup that gens normalise (so D*w*b = D*w for b in
        it), which lets the closure start from it without its generators.
        """
        rows = self._rows
        elems = [self.identity] if base is None else self._elements(base).tolist()
        mask = 1 << self.identity if base is None else base
        used: List[int] = []
        for y in gens:
            if mask >> y & 1:
                continue
            used.append(y)
            block = elems[:]  # D; its first element is the identity
            todo = [y]
            while todo:
                w = todo.pop()
                if mask >> w & 1:
                    continue
                for h in block:  # the coset D*w, whose first element is w
                    x = rows[h][w]
                    elems.append(x)
                    mask |= 1 << x
                rep = rows[w]
                todo += [rep[s] for s in used]
        return mask

    def _members(self, mask: int) -> np.ndarray:
        """A bitmask subset as a boolean array over the elements."""
        raw = np.frombuffer(mask.to_bytes((self.order + 7) // 8, "little"), dtype=np.uint8)
        return np.unpackbits(raw, count=self.order, bitorder="little").view(bool)

    def _elements(self, mask: int) -> np.ndarray:
        """The members of a bitmask subset, as a sorted index array."""
        return np.flatnonzero(self._members(mask)).astype(np.int32)

    def _mask(self, elements: np.ndarray) -> int:
        """The bitmask of an array of distinct element indices."""
        return sum(1 << x for x in elements.tolist())

    def closure(self, gens: Iterable[int]) -> np.ndarray:
        """Subgroup generated by gens, as a sorted index array."""
        return self._elements(self._span([int(x) for x in gens]))

    def all_subgroups(self) -> List[np.ndarray]:
        """Every subgroup, by closing joins of cyclic subgroups.

        When a join J = <M, x> has prime index over M, M is maximal in J, so
        <M, y> = J for every y in J outside M: those y are not tried from M.
        """
        guards.check("subgroup_order", self.order)
        cyclic: Dict[int, int] = {}  # mask of <x> -> its first generator x
        for x in range(self.order):
            cyclic.setdefault(self._span([x]), x)
        found = {mask: [x] for mask, x in cyclic.items()}
        queue = list(found.items())
        while queue:
            mask, gens = queue.pop()
            covered, size = mask, mask.bit_count()
            for x in cyclic.values():
                if covered >> x & 1:
                    continue
                join = gens + [x]
                jmask = self._span(join)
                if _is_prime(jmask.bit_count() // size):
                    covered |= jmask
                if jmask not in found:
                    found[jmask] = join
                    queue.append((jmask, join))
        return sorted((self._elements(m) for m in found), key=lambda s: (s.size, s.tolist()))

    def is_normal(self, sub: np.ndarray) -> bool:
        sub = np.asarray(sub, dtype=np.int32)
        mask = np.zeros(self.order, dtype=bool)
        mask[sub] = True
        conj = self.table[
            self.table[np.arange(self.order)[:, None], sub[None, :]],
            self.inverse[:, None],
        ]
        return bool(mask[conj].all())

    def normal_subgroups(self) -> List[np.ndarray]:
        """Every normal subgroup, as read-only arrays enumerated once per group."""
        if self._normals is None:
            self._normals = [s for s in self.all_subgroups() if self.is_normal(s)]
            for s in self._normals:
                s.flags.writeable = False
        return list(self._normals)

    def center(self) -> np.ndarray:
        t = self.table
        return np.flatnonzero((t == t.T).all(axis=1)).astype(np.int32)

    def _commutators(self, xs: np.ndarray) -> List[int]:
        """Every [x, y] = x^-1 y^-1 x y with x in xs and y in G."""
        t, inv = self.table, self.inverse
        return t[t[inv[xs][:, None], inv[None, :]], t[xs]].ravel().tolist()

    def derived_subgroup(self) -> np.ndarray:
        return self._elements(self._span(self._commutators(np.arange(self.order))))

    # -- lower p-series ------------------------------------------------------------

    def is_p_group(self, p: int) -> bool:
        return is_p_power(self.order, p)

    def _p_series_step(self, g_i: np.ndarray, p: int) -> np.ndarray:
        """G_i^p [G_i, G], the term after G_i in the lower p-series."""
        powers = [self.power(x, p) for x in g_i.tolist()]
        return self._elements(self._span(powers + self._commutators(g_i)))

    def lower_p_series(self, p: int) -> List[np.ndarray]:
        """G_1 >= G_2 >= ..., ending with the trivial subgroup."""
        if not self.is_p_group(p):
            raise ValueError(f"group of order {self.order} is not a {p}-group")
        series = [np.arange(self.order, dtype=np.int32)]
        while series[-1].size > 1:
            series.append(self._p_series_step(series[-1], p))
        return series

    def frattini(self, p: int) -> np.ndarray:
        """G^p [G, G], the second term of the lower p-series."""
        if not self.is_p_group(p):
            raise ValueError(f"group of order {self.order} is not a {p}-group")
        return self._p_series_step(np.arange(self.order, dtype=np.int32), p)

    def min_generators(self, p: int) -> int:
        phi = self.frattini(p)
        idx = self.order // phi.size
        d = round(math.log(idx, p)) if idx > 1 else 0
        if p**d != idx:
            raise ArithmeticError(f"Frattini index {idx} is not a power of {p}")
        return d

    def normal_profile_count(self, p: int, u: Sequence[int]) -> int:
        """Number of normal subgroups whose lower-p-series profile matches u."""
        series = self.lower_p_series(p)
        n_len = len(series) - 1
        if len(u) != n_len:
            raise ValueError(f"profile length {len(u)} != lower p-length {n_len}")
        count = 0
        for sub in self.normal_subgroups():
            # (N & G_i)G_{i+1}/G_{i+1} has order |N & G_i| / |N & G_{i+1}|, as G_{i+1} <= G_i
            mask = np.zeros(self.order, dtype=bool)
            mask[sub] = True
            sizes = [int(mask[term].sum()) for term in series]
            count += all(sizes[i] == sizes[i + 1] * p ** u[i] for i in range(n_len))
        return count

    # -- abelian invariants -----------------------------------------------------------

    def abelian_type(self, p: int) -> Tuple[int, ...]:
        """Partition lambda of an abelian p-group (product of C_{p^lambda_i})."""
        if not self.is_abelian():
            raise ValueError("abelian_type needs an abelian group")
        if not self.is_p_group(p):
            raise ValueError("not a p-group")
        return abelian_type_of_orders(self.element_orders(), p)


def is_p_power(n: int, p: int) -> bool:
    """Whether n = p^k for some k >= 0."""
    while n % p == 0:
        n //= p
    return n == 1


def abelian_type_of_orders(orders: np.ndarray, p: int) -> Tuple[int, ...]:
    """Type lambda of an abelian p-group, given the orders of its elements.

    The ranks of the layers {x : x^(p^i) = 1} grow by the parts of the
    conjugate partition, so lambda is the conjugate of that jump sequence.
    """
    jumps = []
    prev = 0
    i = 1
    while True:
        c = int((orders <= p**i).sum())
        s = round(math.log(c, p)) if c > 1 else 0
        jumps.append(s - prev)
        prev = s
        if c == orders.size:
            break
        i += 1
    return Partition(jumps).conjugate().parts


# ---------------------------------------------------------------------------
# derived constructions


def direct_product(a: CayleyGroup, b: CayleyGroup, name: Optional[str] = None) -> CayleyGroup:
    na, nb = a.order, b.order
    guards.check("group_order", na * nb)
    table = (a.table[:, None, :, None] * nb + b.table[None, :, None, :]).reshape(
        na * nb, na * nb
    )
    return CayleyGroup(table, name=name or f"{a.name}x{b.name}")


def quotient_group(g: CayleyGroup, normal, name: Optional[str] = None):
    """Quotient by a normal subgroup; returns (quotient, projection array)."""
    normal = np.asarray(normal, dtype=np.int32)
    if not g.is_normal(normal):
        raise ValueError("subgroup is not normal")
    rep_of = np.min(g.table[:, normal], axis=1)
    reps = np.unique(rep_of)
    proj = np.searchsorted(reps, rep_of).astype(np.int32)
    q = CayleyGroup(proj[g.table[np.ix_(reps, reps)]], name=name or f"{g.name}/N")
    return q, proj


def subgroup_as_group(g: CayleyGroup, sub, name: str = "H") -> CayleyGroup:
    sub = np.asarray(sub, dtype=np.int32)
    pos = np.full(g.order, -1, dtype=np.int32)  # -1 off sub: a non-subgroup fails validation
    pos[sub] = np.arange(sub.size)
    return CayleyGroup(pos[g.table[np.ix_(sub, sub)]], name=name)
