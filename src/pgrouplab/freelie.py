"""Free associative and free Lie algebra over F_p on an ordered alphabet.

Words are tuples of letters 1..d; tuple comparison is exactly the
lexicographic order with a proper prefix smaller than its extensions.
Noncommutative polynomials are sparse coefficient tables keyed by words.
"""
from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import guards
from .fplin import rref

Word = Tuple[int, ...]


def _check_guards(d: int, n: int):
    """Refuse an alphabet size d and degree n outside the lie_* guards."""
    if min(d, n) < 1:
        raise ValueError(f"alphabet size {d} and degree {n} must be at least 1")
    guards.check("lie_alphabet", d)
    guards.check("lie_degree", n)
    guards.check("lie_words", d**n)  # bounded by the two checks above


def is_lyndon(w: Word) -> bool:
    """A word strictly smaller than all of its proper non-trivial tails."""
    if not w:
        return False
    return all(w < w[i:] for i in range(1, len(w)))


def lyndon_words(d: int, n: int) -> List[Word]:
    """All Lyndon words of length n over letters 1..d, lexicographically (Duval)."""
    _check_guards(d, n)
    out: List[Word] = []
    w = [-1]
    while w:
        w[-1] += 1
        m = len(w)
        if m == n:
            out.append(tuple(x + 1 for x in w))
        while len(w) < n:
            w.append(w[-m])
        while w and w[-1] == d - 1:
            w.pop()
    return out


def mobius(n: int) -> int:
    if n < 1:
        raise ValueError("n must be positive")
    result = 1
    x = n
    f = 2
    while f * f <= x:
        if x % f == 0:
            x //= f
            if x % f == 0:
                return 0
            result = -result
        f += 1
    if x > 1:
        result = -result
    return result


def witt_dim(d: int, n: int) -> int:
    """Dimension of the degree-n homogeneous component of the free Lie algebra."""
    if n < 1:
        raise ValueError("n must be positive")
    total = sum(mobius(n // j) * d**j for j in range(1, n + 1) if n % j == 0)
    dim, rem = divmod(total, n)
    if rem:
        raise ArithmeticError(f"necklace sum for d={d}, n={n} not divisible by n")
    return dim


def dn_dim(d: int, n: int) -> int:
    """Sum of the homogeneous dimensions for degrees 1..n."""
    return sum(witt_dim(d, i) for i in range(1, n + 1))


# ---------------------------------------------------------------------------
# noncommutative polynomials


class NcPoly:
    """Sparse noncommutative polynomial over F_p on d letters."""

    __slots__ = ("coeffs", "p", "d")

    def __init__(self, coeffs: Dict[Word, int], p: int, d: int):
        self.p = p
        self.d = d
        self.coeffs = {w: c % p for w, c in coeffs.items() if c % p}

    @classmethod
    def zero(cls, p: int, d: int) -> "NcPoly":
        return cls({}, p, d)

    @classmethod
    def generator(cls, j: int, p: int, d: int) -> "NcPoly":
        if not 1 <= j <= d:
            raise ValueError(f"generator index {j} outside 1..{d}")
        return cls({(j,): 1}, p, d)

    def _match(self, other: "NcPoly"):
        if self.p != other.p or self.d != other.d:
            raise ValueError("mismatched modulus or alphabet size")

    def __add__(self, other: "NcPoly") -> "NcPoly":
        self._match(other)
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            out[w] = out.get(w, 0) + c
        return NcPoly(out, self.p, self.d)

    def __sub__(self, other: "NcPoly") -> "NcPoly":
        self._match(other)
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            out[w] = out.get(w, 0) - c
        return NcPoly(out, self.p, self.d)

    def __neg__(self) -> "NcPoly":
        return NcPoly({w: -c for w, c in self.coeffs.items()}, self.p, self.d)

    def scale(self, c: int) -> "NcPoly":
        return NcPoly({w: c * x for w, x in self.coeffs.items()}, self.p, self.d)

    def __mul__(self, other: "NcPoly") -> "NcPoly":
        self._match(other)
        out: Dict[Word, int] = {}
        for w1, c1 in self.coeffs.items():
            for w2, c2 in other.coeffs.items():
                w = w1 + w2
                out[w] = out.get(w, 0) + c1 * c2
        return NcPoly(out, self.p, self.d)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NcPoly)
            and self.p == other.p
            and self.d == other.d
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.p, self.d, frozenset(self.coeffs.items())))

    def is_zero(self) -> bool:
        return not self.coeffs

    def degrees(self) -> set:
        return {len(w) for w in self.coeffs}

    def coefficient(self, w: Word) -> int:
        return self.coeffs.get(tuple(w), 0)

    def support(self) -> List[Word]:
        return sorted(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        terms = []
        for w in sorted(self.coeffs, key=lambda w: (len(w), w)):
            c = self.coeffs[w]
            mono = "".join(f"x{a}" for a in w)
            terms.append(mono if c == 1 else f"{c}*{mono}")
        return " + ".join(terms)


def lie_bracket(f: NcPoly, g: NcPoly) -> NcPoly:
    """[f, g] = fg - gf."""
    return f * g - g * f


# ---------------------------------------------------------------------------
# right standard bracketing


def right_bracketing_tree(w: Word):
    """Bracket tree of a Lyndon word, split at its longest proper Lyndon tail."""
    w = tuple(w)
    if not is_lyndon(w):
        raise ValueError(f"{w} is not a Lyndon word")
    if len(w) == 1:
        return w[0]
    for i in range(1, len(w)):
        if is_lyndon(w[i:]):
            return (right_bracketing_tree(w[:i]), right_bracketing_tree(w[i:]))
    raise ArithmeticError("unreachable: single letters are Lyndon")


def bracket_expansion(tree, p: int, d: int) -> NcPoly:
    if isinstance(tree, int):
        return NcPoly.generator(tree, p, d)
    left, right = tree
    return lie_bracket(bracket_expansion(left, p, d), bracket_expansion(right, p, d))


def right_bracketing(w: Word, p: int, d: Optional[int] = None):
    """Bracket tree and its expansion over F_p for a Lyndon word."""
    w = tuple(w)
    if d is None:
        d = max(w)
    tree = right_bracketing_tree(w)
    return tree, bracket_expansion(tree, p, d)


def bracket_string(tree) -> str:
    if isinstance(tree, int):
        return f"x{tree}"
    return f"[{bracket_string(tree[0])},{bracket_string(tree[1])}]"


def lambda_basis(d: int, n: int, p: int) -> List[NcPoly]:
    """Bracketed Lyndon basis of the degree-n Lie component."""
    _check_guards(d, n)
    return [right_bracketing(w, p, d)[1] for w in lyndon_words(d, n)]


# ---------------------------------------------------------------------------
# graded subspaces


def _blocks(d: int, degrees: tuple) -> Tuple[Dict[int, int], int]:
    """First coordinate of each degree's block of d^n words, and the total width."""
    starts, width = {}, 0
    for n in degrees:
        starts[n] = width
        width += d**n
    return starts, width


def _vector(f: NcPoly, d: int, starts: Dict[int, int], width: int) -> list:
    """Coordinates of f: word w sits at the start of its degree's block plus its big-endian index."""
    v = [0] * width
    for w, c in f.coeffs.items():
        if not all(1 <= a <= d for a in w):
            raise ValueError(f"word {w} has a letter outside 1..{d}")
        v[starts[len(w)] + sum((a - 1) * d**k for k, a in enumerate(reversed(w)))] = c
    return v


@dataclass(frozen=True)
class LieSubspace:
    """Subspace of a fixed graded slice of the word algebra, in RREF.

    Coordinates are all words of the stored degrees ordered by (degree, lex);
    the pivot of each basis row is its first nonzero coordinate, which makes
    the representation canonical for a fixed degree range.  Within the block
    of degree n, word w sits at sum_k (w_k - 1) d^(n-1-k), its big-endian index.
    """

    p: int
    d: int
    degrees: tuple
    rows: tuple

    @classmethod
    def from_polys(
        cls,
        polys: Sequence[NcPoly],
        p: int,
        d: int,
        degrees: Iterable[int],
    ) -> "LieSubspace":
        degrees = tuple(sorted(set(degrees)))
        starts, width = _blocks(d, degrees)
        vecs = []
        for f in polys:
            if f.is_zero():
                continue
            if not f.degrees() <= set(degrees):
                raise ValueError("polynomial outside the stored degree range")
            vecs.append(_vector(f, d, starts, width))
        return cls(p, d, degrees, rref(vecs, p))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def com(self) -> "LieSubspace":
        """Span of [f, x_j] over basis elements f and all generators x_j.

        In a degree-n block of m = d^n words, f x_j sends word index i to
        i d + j - 1 and x_j f sends it to (j - 1) m + i, both in degree n + 1.
        """
        d, p = self.d, self.p
        degrees = tuple(n + 1 for n in self.degrees)
        src, _ = _blocks(d, self.degrees)
        dst, width = _blocks(d, degrees)
        images = []
        for row in self.rows:
            terms = [(dst[n + 1], d**n, i, row[src[n] + i])
                     for n in self.degrees for i in range(d**n) if row[src[n] + i]]
            for j in range(d):
                v = [0] * width
                for start, m, i, c in terms:
                    v[start + i * d + j] += c
                    v[start + j * m + i] -= c
                images.append([x % p for x in v])
        return LieSubspace(p, d, degrees, rref(images, p))

    def plus(self, other: "LieSubspace") -> "LieSubspace":
        if (self.p, self.d) != (other.p, other.d):
            raise ValueError("mismatched modulus or alphabet size")
        degrees = tuple(sorted(set(self.degrees) | set(other.degrees)))
        dst, width = _blocks(self.d, degrees)
        rows = []
        for w in (self, other):  # each block moves to its place in the wider range
            src, _ = _blocks(w.d, w.degrees)
            for row in w.rows:
                v = [0] * width
                for n in w.degrees:
                    v[dst[n]:dst[n] + w.d**n] = row[src[n]:src[n] + w.d**n]
                rows.append(v)
        return LieSubspace(self.p, self.d, degrees, rref(rows, self.p))


@functools.lru_cache(maxsize=None)
def _basis_vectors(degrees: tuple, d: int, p: int) -> tuple:
    """Coordinate vectors of the bracketed Lyndon basis in the given degrees."""
    starts, width = _blocks(d, degrees)
    out = []
    for n in degrees:
        for b in lambda_basis(d, n, p):
            out.append(tuple(_vector(b, d, starts, width)))
    return tuple(out)


def _random_span(degrees: tuple, d: int, p: int, dim: int, seed: int) -> LieSubspace:
    """Span of dim seeded random combinations of the Lie basis in the given degrees."""
    if dim < 0:
        raise ValueError(f"subspace dimension {dim} is negative")
    basis = _basis_vectors(degrees, d, p)
    width = _blocks(d, degrees)[1]
    rng = random.Random(seed)
    vecs = []
    for _ in range(dim):
        v = [0] * width
        for b in basis:
            c = rng.randrange(p)
            if c:
                v = [x + c * y for x, y in zip(v, b)]
        vecs.append([x % p for x in v])
    return LieSubspace(p, d, degrees, rref(vecs, p))


def random_lie_subspace(d: int, n: int, p: int, dim: int, seed: int) -> LieSubspace:
    """Seeded random subspace of the degree-n Lie component."""
    return _random_span((n,), d, p, dim, seed)


def random_graded_lie_subspace(
    d: int, max_deg: int, p: int, dim: int, seed: int
) -> LieSubspace:
    """Seeded random subspace of the direct sum of Lie components 1..max_deg."""
    return _random_span(tuple(range(1, max_deg + 1)), d, p, dim, seed)


@dataclass(frozen=True)
class ExpansionReport:
    mode: str
    dim_w: int
    dim_result: int
    ratio_ok: bool
    hypothesis_ok: bool
    notes: tuple = ()


def expansion_check(w: LieSubspace, mode: str) -> ExpansionReport:
    """Check the 3/2 growth of a subspace under bracketing with generators.

    "homogeneous" compares dim(com(W)) against (3/2) dim(W) for W inside a
    single Lie component of degree >= 2; "graded-sum" compares
    dim(W + com(W)) for W inside the sum of components 1..n.  Hypothesis
    violations are reported, never raised.
    """
    notes: list = []
    if mode == "homogeneous":
        hyp = w.d >= 3 and len(w.degrees) == 1 and (not w.degrees or w.degrees[0] >= 2)
        if w.dim == 0:
            return ExpansionReport(mode, 0, 0, True, hyp)
        result = w.com()
        ok = 2 * result.dim >= 3 * w.dim
        return ExpansionReport(mode, w.dim, result.dim, ok, hyp, tuple(notes))
    if mode == "graded-sum":
        hyp = w.degrees == tuple(range(1, len(w.degrees) + 1))
        if w.p == 2:
            notes.append("p=2 run against the plain direct sum model")
            hyp = False
        if w.dim == 0:
            return ExpansionReport(mode, 0, 0, True, hyp, tuple(notes))
        result = w.plus(w.com())
        ok = 2 * result.dim >= 3 * w.dim
        return ExpansionReport(mode, w.dim, result.dim, ok, hyp, tuple(notes))
    raise ValueError(f"unknown mode {mode!r}")
