"""Finite groups as explicit multiplication tables (numpy int arrays).

Index 0..n-1 labels elements; table[i, j] is the index of the product.
Construction always verifies the full group axioms exhaustively, so
everything downstream can treat a CayleyGroup as trusted.
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

    # -- construction checks --------------------------------------------------

    def _validate(self):
        n = self.order
        t = self.table
        if t.min() < 0 or t.max() >= n:
            raise ValueError("table entries out of range")
        ar = np.arange(n)
        if not (np.sort(t, axis=1) == ar).all() or not (np.sort(t, axis=0) == ar[:, None]).all():
            raise ValueError("table is not a Latin square")
        if n <= 300:
            # associativity, exhaustive, chunked over the first axis to bound memory
            chunk = max(1, 2**22 // max(1, n * n))
            for a0 in range(0, n, chunk):
                rows = t[a0 : a0 + chunk]
                left = t[rows, :]  # [a, b, c] = t[t[a0+a, b], c]
                right = rows[:, t]  # [a, b, c] = t[a0+a, t[b, c]]
                if not np.array_equal(left, right):
                    raise ValueError("table is not associative")
        else:
            # beyond the exhaustive range: deterministic sampled triples
            rng = np.random.default_rng(97)
            a, b, c = (rng.integers(0, n, 200000) for _ in range(3))
            if not np.array_equal(t[t[a, b], c], t[a, t[b, c]]):
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

    def closure(self, gens: Iterable[int]) -> np.ndarray:
        """Subgroup generated by gens, as a sorted index array."""
        gen_arr = np.unique(np.asarray(list(gens), dtype=np.int32).ravel())
        current = np.unique(np.append(gen_arr, np.int32(self.identity)))
        if gen_arr.size == 0:
            return current
        while True:
            new = self.table[np.ix_(current, gen_arr)].ravel()
            merged = np.unique(np.concatenate([current, new]))
            if merged.size == current.size:
                return merged
            current = merged

    def cyclic_subgroups(self) -> List[np.ndarray]:
        seen: Dict[bytes, np.ndarray] = {}
        for x in range(self.order):
            s = self.closure([x])
            seen.setdefault(s.tobytes(), s)
        return sorted(seen.values(), key=lambda s: (s.size, s.tolist()))

    def product_set(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.unique(self.table[np.ix_(a, b)])

    def all_subgroups(self, guard: int = SUBGROUP_ORDER_GUARD) -> List[np.ndarray]:
        """Every subgroup, by closing joins of cyclic subgroups."""
        if self.order > guard:
            raise ValueError(f"group order {self.order} exceeds subgroup guard {guard}")
        cyclics = self.cyclic_subgroups()
        abelian = self.is_abelian()
        found: Dict[bytes, np.ndarray] = {s.tobytes(): s for s in cyclics}
        queue = list(cyclics)
        while queue:
            h = queue.pop()
            hmask = np.zeros(self.order, dtype=bool)
            hmask[h] = True
            for c in cyclics:
                if hmask[c].all():
                    continue
                if abelian:
                    j = self.product_set(h, c)
                else:
                    j = h
                    gens = np.unique(np.concatenate([h, c]))
                    while True:
                        j2 = np.unique(
                            np.concatenate([j, self.table[np.ix_(j, gens)].ravel()])
                        )
                        if j2.size == j.size:
                            break
                        j = j2
                key = j.tobytes()
                if key not in found:
                    found[key] = j
                    queue.append(j)
        return sorted(found.values(), key=lambda s: (s.size, s.tolist()))

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
        series = [np.arange(self.order, dtype=np.int32)]
        everyone = np.arange(self.order, dtype=np.int32)
        while series[-1].size > 1:
            g_i = series[-1]
            powers = np.array([self.power(int(x), p) for x in g_i], dtype=np.int32)
            xy = self.table[np.ix_(g_i, everyone)]
            comms = self.table[
                self.table[self.inverse[g_i][:, None], self.inverse[everyone][None, :]],
                xy,
            ]
            series.append(self.closure(np.concatenate([powers, comms.ravel()])))
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
            mask = np.zeros(self.order, dtype=bool)
            mask[sub] = True
            ok = True
            for i in range(n_len):
                inter = series[i][mask[series[i]]]
                prod = self.product_set(inter, series[i + 1])
                quot, rem = divmod(prod.size, series[i + 1].size)
                dim = round(math.log(quot, p)) if quot > 1 else 0
                if rem or p**dim != quot or dim != u[i]:
                    ok = False
                    break
            if ok:
                count += 1
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
