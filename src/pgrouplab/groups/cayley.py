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
        self._validate()
        self.identity = self._find_identity()
        self.inverse = self._find_inverses()
        self._orders: Optional[np.ndarray] = None
        self._normals: Optional[List[np.ndarray]] = None  # read-only, built on first request
        self._series: Dict[int, List[np.ndarray]] = {}  # prime -> read-only lower p-series, likewise
        self._profiles: Dict[int, Dict[Tuple[int, ...], int]] = {}  # prime -> profile -> normal subgroups

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

    def _cosets(self, block: List[int], mask: int, todo: List[int], gens: List[int]) -> Tuple[int, List[int]]:
        """One step of Dimino's algorithm, shared by every closure.

        block lists a subgroup D and mask is a union of right cosets of D.
        Each w reachable from todo by right multiplication by gens whose coset
        D*w is not yet in mask adds that coset.  Returns the grown mask and
        the new coset representatives, in the order they were added.
        """
        rows = self._rows
        reps: List[int] = []
        while todo:
            w = todo.pop()
            if mask >> w & 1:
                continue
            for h in block:  # the coset D*w
                mask |= 1 << rows[h][w]
            reps.append(w)
            rep = rows[w]
            todo += [rep[s] for s in gens]
        return mask, reps

    def _span(self, gens: Iterable[int], base: Optional[int] = None) -> int:
        """Bitmask of <gens, base>; bit x is set iff x is in it.

        Dimino's algorithm: a generator already in the span D found so far is
        skipped; a new one y extends D by whole right cosets D*w, one for each
        coset representative times a generator that lands outside D.  base is
        the mask of a subgroup that gens normalise (so D*w*b = D*w for b in
        it), which lets the closure start from it without its generators.
        The element list of D is built only when a further generator needs it.
        """
        rows = self._rows
        block = [self.identity] if base is None else self._elements(base).tolist()
        mask = 1 << self.identity if base is None else base
        used: List[int] = []
        reps: List[int] = []
        for y in gens:
            if mask >> y & 1:
                continue
            block += [rows[h][w] for w in reps for h in block]  # D, from the cosets last added
            used.append(y)
            mask, reps = self._cosets(block, mask, [y], used)
        return mask

    def _join(self, block: List[int], mask: int, gens: List[int], x: int) -> Tuple[int, int]:
        """Masks of M u MxM and of <M, x>, for M = <gens> listed in block.

        Dimino's step from M: the cosets reached from M*x by M's generators
        alone make up the double coset MxM; each of their representatives
        times x, and so on by all of gens and x, adds the rest of <M, x>.
        """
        double, reps = self._cosets(block, mask, [x], gens)
        rows = self._rows
        return double, self._cosets(block, double, [rows[w][x] for w in reps], gens + [x])[0]

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
        r"""Every subgroup, each accepted once, by canonical augmentation.

        The reps are the first generators of the cyclic subgroups, in index
        order.  The canonical sequence of a subgroup J scans the reps in that
        order and keeps each rep in J outside the span of those kept so far.
        J is the span of its sequence, since each x in J has <x> = <r> for a
        rep r in J.  Starting from the trivial group, a known M with
        canonical sequence gens is joined only with reps x > gens[-1], and
        J = <M, x> is accepted only when x is the least rep in J \ M
        (orderly generation: R. C. Read, "Every one a winner", Ann. Discrete
        Math. 2, 1978; B. D. McKay, "Isomorph-free exhaustive generation",
        J. Algorithms 26, 1998).  Every subgroup is then accepted exactly once:

        - once: if J is accepted from (M, x), the reps below x lie in J iff
          they lie in M, so J's scan keeps gens, then x, then nothing (the
          span is J).  J's canonical sequence is gens + [x], which fixes M
          and x.
        - at least once: with canonical sequence c_1 < ... < c_k, J's scan
          and the scan of M = <c_1, ..., c_(k-1)> agree below c_k, so M's
          sequence is that prefix, and every rep of J below c_k lies in M.
          By induction on k, M is accepted and J is accepted from (M, c_k).

        Each M is extended coset by coset (`_join`), never closed again.  No
        y in MxM is tried from M, since <M, y> = <M, x> for y = m x m': y lies
        in <M, x>, and x = m^-1 y m'^-1 lies in <M, y>.  When the join J has
        prime index over M, M is maximal in J, so <M, y> = J for every y in J
        outside M, and none of those y is tried either.  Neither skip drops
        an accepted join: a skipped y has <M, y> = <M, x> for a smaller rep x.
        A subgroup accepted twice raises ArithmeticError.
        """
        guards.check("subgroup_order", self.order)
        cyclic: Dict[int, int] = {}  # mask of <x> -> its first generator x
        for x in range(self.order):
            cyclic.setdefault(self._span([x]), x)
        reps = list(cyclic.values())
        repmask = sum(1 << x for x in reps)
        primes = set(filter(_is_prime, range(2, self.order + 1)))  # the index of M in a join divides |G|
        trivial = 1 << self.identity
        found = {trivial}
        queue: List[Tuple[int, List[int]]] = [(trivial, [])]
        while queue:
            mask, gens = queue.pop()
            block = self._elements(mask).tolist()
            covered, size = mask, mask.bit_count()
            for x in reps:
                if covered >> x & 1 or gens and x < gens[-1]:
                    continue
                double, jmask = self._join(block, mask, gens, x)
                covered |= jmask if jmask.bit_count() // size in primes else double
                fresh = jmask & ~mask & repmask
                if fresh & -fresh == 1 << x:
                    if jmask in found:
                        raise ArithmeticError(f"subgroup of order {jmask.bit_count()} accepted twice")
                    found.add(jmask)
                    queue.append((jmask, gens + [x]))
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
        """G_1 >= G_2 >= ..., ending with the trivial subgroup; read-only arrays built once per p."""
        if p not in self._series:
            if not self.is_p_group(p):
                raise ValueError(f"group of order {self.order} is not a {p}-group")
            series = [np.arange(self.order, dtype=np.int32)]
            while series[-1].size > 1:
                series.append(self._p_series_step(series[-1], p))
            for term in series:
                term.flags.writeable = False
            self._series[p] = series
        return list(self._series[p])

    def frattini(self, p: int) -> np.ndarray:
        """G^p [G, G], the second term of the lower p-series."""
        if not self.is_p_group(p):
            raise ValueError(f"group of order {self.order} is not a {p}-group")
        return self._p_series_step(np.arange(self.order, dtype=np.int32), p)

    def normal_profile_count(self, p: int, u: Sequence[int]) -> int:
        """Number of normal subgroups whose lower-p-series profile matches u.

        The profile of N is (u_1, ..., u_k) with p^u_i = |N & G_i| / |N & G_(i+1)|,
        the order of (N & G_i)G_(i+1)/G_(i+1), as G_(i+1) <= G_i.  It does not
        depend on u, so the first call for p tabulates every normal subgroup's
        profile, and each call reads the table.
        """
        series = self.lower_p_series(p)
        n_len = len(series) - 1
        if len(u) != n_len:
            raise ValueError(f"profile length {len(u)} != lower p-length {n_len}")
        if p not in self._profiles:
            terms = [self._mask(term) for term in series]
            table: Dict[Tuple[int, ...], int] = {}
            for sub in self.normal_subgroups():
                mask = self._mask(sub)
                logs = [_exact_log((mask & term).bit_count(), p) for term in terms]
                profile = tuple(logs[i] - logs[i + 1] for i in range(n_len))
                table[profile] = table.get(profile, 0) + 1
            self._profiles[p] = table
        return self._profiles[p].get(tuple(u), 0)

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


def _exact_log(c: int, p: int) -> int:
    """The k with c = p^k; ArithmeticError when c is not a power of p."""
    k, rest = 0, c
    while rest > 1 and rest % p == 0:
        rest //= p
        k += 1
    if rest != 1:
        raise ArithmeticError(f"{c} is not a power of {p}")
    return k


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
        s = _exact_log(c, p)
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
