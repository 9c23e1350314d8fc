"""Finite groups as explicit multiplication tables (numpy int arrays).

Index 0..n-1 labels elements; table[i, j] is the index of the product.
Construction always verifies the full group axioms exhaustively, so
everything downstream can treat a CayleyGroup as trusted.

Inside the class a subgroup is a Python-int bitmask (bit x set iff element x
is in it), grown from generators by Dimino's algorithm (G. Butler,
Fundamental Algorithms for Permutation Groups, LNCS 559, 1991, ch. 7).  The
public methods take and return subgroups as sorted index arrays.
"""
from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..qcombin import Partition

ORDER_GUARD = 256
SUBGROUP_ORDER_GUARD = 128


class CayleyGroup:
    def __init__(
        self,
        table,
        name: str = "G",
        labels: Optional[Sequence[str]] = None,
        generators: Optional[Sequence[int]] = None,
        data: Optional[Sequence] = None,
        guard: int = ORDER_GUARD,
    ):
        table = np.asarray(table, dtype=np.int32)
        n = table.shape[0]
        if table.ndim != 2 or table.shape != (n, n):
            raise ValueError("table must be square")
        if n > guard:
            raise ValueError(f"group order {n} exceeds guard {guard}")
        self.table = table
        self.order = n
        self.name = name
        self.labels = list(labels) if labels is not None else [str(i) for i in range(n)]
        self.generators = list(generators) if generators is not None else None
        self.data = list(data) if data is not None else None
        self._validate()
        self.identity = self._find_identity()
        self.inverse = self._find_inverses()
        self._orders: Optional[np.ndarray] = None
        self._rows: Optional[List[List[int]]] = None  # table.tolist(), built on first closure

    # -- construction checks --------------------------------------------------

    def _validate(self):
        n = self.order
        t = self.table
        if t.min() < 0 or t.max() >= n:
            raise ValueError("table entries out of range")
        ar = np.arange(n)
        if not (np.sort(t, axis=1) == ar).all() or not (np.sort(t, axis=0) == ar[:, None]).all():
            raise ValueError("table is not a Latin square")
        # associativity, exhaustive, chunked over the first axis to bound memory
        chunk = max(1, 2**22 // max(1, n * n))
        for a0 in range(0, n, chunk):
            rows = t[a0 : a0 + chunk]
            left = t[rows, :]  # [a, b, c] = t[t[a0+a, b], c]
            right = rows[:, t]  # [a, b, c] = t[a0+a, t[b, c]]
            if not np.array_equal(left, right):
                raise ValueError("table is not associative")

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

    def conjugate(self, g: int, x: int) -> int:
        return int(self.table[self.table[g, x], self.inverse[g]])

    def commutator(self, x: int, y: int) -> int:
        xy = self.table[x, y]
        return int(self.table[self.table[self.inverse[x], self.inverse[y]], xy])

    # -- subgroup machinery ------------------------------------------------------

    def _span(self, gens: Iterable[int]) -> int:
        """Bitmask of the subgroup generated by gens; bit x is set iff x is in it.

        Dimino's algorithm: a generator already in the span D found so far is
        skipped; a new one y extends D by whole right cosets D*w, one for each
        coset representative times a generator that lands outside D.
        """
        if self._rows is None:
            self._rows = self.table.tolist()
        rows = self._rows
        elems = [self.identity]
        mask = 1 << self.identity
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

    def _elements(self, mask: int) -> np.ndarray:
        """The members of a bitmask subset, as a sorted index array."""
        raw = np.frombuffer(mask.to_bytes((self.order + 7) // 8, "little"), dtype=np.uint8)
        return np.flatnonzero(np.unpackbits(raw, bitorder="little")).astype(np.int32)

    def closure(self, gens: Iterable[int]) -> np.ndarray:
        """Subgroup generated by gens, as a sorted index array."""
        return self._elements(self._span([int(x) for x in gens]))

    def all_subgroups(self, guard: int = SUBGROUP_ORDER_GUARD) -> List[np.ndarray]:
        """Every subgroup, by closing joins of cyclic subgroups."""
        if self.order > guard:
            raise ValueError(f"group order {self.order} exceeds subgroup guard {guard}")
        cyclic: Dict[int, int] = {}  # mask of <x> -> its first generator x
        for x in range(self.order):
            cyclic.setdefault(self._span([x]), x)
        found = {mask: [x] for mask, x in cyclic.items()}
        queue = list(found.items())
        while queue:
            mask, gens = queue.pop()
            for x in cyclic.values():
                if mask >> x & 1:
                    continue
                join = gens + [x]
                jmask = self._span(join)
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

    def normal_subgroups(self, guard: int = SUBGROUP_ORDER_GUARD) -> List[np.ndarray]:
        return [s for s in self.all_subgroups(guard=guard) if self.is_normal(s)]

    def center(self) -> np.ndarray:
        t = self.table
        return np.flatnonzero((t == t.T).all(axis=1)).astype(np.int32)

    def derived_subgroup(self) -> np.ndarray:
        comms = {
            self.commutator(x, y) for x in range(self.order) for y in range(self.order)
        }
        return self.closure(comms)

    # -- lower p-series ------------------------------------------------------------

    def is_p_group(self, p: int) -> bool:
        n = self.order
        while n % p == 0:
            n //= p
        return n == 1

    def lower_p_series(self, p: int) -> List[np.ndarray]:
        """G_1 >= G_2 >= ..., ending with the trivial subgroup."""
        if not self.is_p_group(p):
            raise ValueError(f"group of order {self.order} is not a {p}-group")
        t, inv = self.table, self.inverse
        series = [np.arange(self.order, dtype=np.int32)]
        while series[-1].size > 1:
            g_i = series[-1]
            powers = [self.power(int(x), p) for x in g_i]
            comms = t[t[inv[g_i][:, None], inv[None, :]], t[g_i]]  # [x, y], x in G_i, y in G
            series.append(self._elements(self._span(powers + comms.ravel().tolist())))
        return series

    def frattini(self, p: int) -> np.ndarray:
        """Second term of the lower p-series."""
        series = self.lower_p_series(p)
        return series[1] if len(series) > 1 else series[0]

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
        for sub in self.normal_subgroups(guard=self.order):
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


def direct_product(
    a: CayleyGroup, b: CayleyGroup, name: Optional[str] = None, guard: int = ORDER_GUARD
) -> CayleyGroup:
    na, nb = a.order, b.order
    table = (a.table[:, None, :, None] * nb + b.table[None, :, None, :]).reshape(
        na * nb, na * nb
    )
    labels = [f"({a.labels[i]},{b.labels[j]})" for i in range(na) for j in range(nb)]
    return CayleyGroup(table, name=name or f"{a.name}x{b.name}", labels=labels, guard=guard)


def quotient_group(g: CayleyGroup, normal, name: Optional[str] = None):
    """Quotient by a normal subgroup; returns (quotient, projection array)."""
    normal = np.asarray(normal, dtype=np.int32)
    if not g.is_normal(normal):
        raise ValueError("subgroup is not normal")
    rep_of = np.min(g.table[:, normal], axis=1)
    reps = np.unique(rep_of)
    index_of = {int(r): i for i, r in enumerate(reps)}
    proj = np.array([index_of[int(rep_of[x])] for x in range(g.order)], dtype=np.int32)
    k = reps.size
    table = np.empty((k, k), dtype=np.int32)
    for i, r in enumerate(reps):
        table[i] = proj[g.table[r, reps]]
    q = CayleyGroup(table, name=name or f"{g.name}/N", labels=[g.labels[int(r)] for r in reps])
    return q, proj


def subgroup_as_group(g: CayleyGroup, sub, name: str = "H") -> CayleyGroup:
    sub = np.asarray(sub, dtype=np.int32)
    pos = {int(x): i for i, x in enumerate(sub)}
    table = np.array([[pos[int(g.table[x, y])] for y in sub] for x in sub], dtype=np.int32)
    return CayleyGroup(table, name=name, labels=[g.labels[int(x)] for x in sub])
