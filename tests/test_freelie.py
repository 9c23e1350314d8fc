import itertools
import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from pgrouplab import freelie as fl
from pgrouplab.fplin import enumerate_subspaces

import lieoracle


# ---------------------------------------------------------------------------
# Lyndon words


def lyndon_by_filter(d, n):
    """Oracle: test every word against the proper-tail definition."""
    out = []
    for w in itertools.product(range(1, d + 1), repeat=n):
        if all(w < w[i:] for i in range(1, n)):
            out.append(w)
    return out


def test_lyndon_frozen_examples():
    assert fl.lyndon_words(2, 3) == [(1, 1, 2), (1, 2, 2)]
    assert fl.lyndon_words(1, 1) == [(1,)]
    assert fl.lyndon_words(1, 2) == []
    assert fl.lyndon_words(2, 1) == [(1,), (2,)]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_lyndon_matches_filter_oracle(d, n):
    got = fl.lyndon_words(d, n)
    assert got == lyndon_by_filter(d, n)
    assert got == sorted(got)


def test_lyndon_guards():
    with pytest.raises(ValueError):
        fl.lyndon_words(9, 2)
    with pytest.raises(ValueError):
        fl.lyndon_words(2, 13)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_witt_dim_counts_lyndon_words(d, n):
    assert fl.witt_dim(d, n) == len(fl.lyndon_words(d, n))


def test_witt_and_dn_frozen():
    assert fl.witt_dim(2, 2) == 1
    assert fl.witt_dim(2, 3) == 2
    assert fl.witt_dim(5, 1) == 5
    assert fl.dn_dim(2, 2) == 3
    assert fl.dn_dim(2, 3) == 5
    assert fl.dn_dim(3, 2) == 6
    # the Witt formula gives 3 + 3 + 8 here; cross-checked by direct count
    assert fl.dn_dim(3, 3) == 3 + 3 + len(lyndon_by_filter(3, 3)) == 14


def test_mobius_values():
    assert [fl.mobius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


# ---------------------------------------------------------------------------
# polynomials and brackets


def test_poly_mismatch_raises():
    with pytest.raises(ValueError):
        fl.lie_bracket(fl.NcPoly.generator(1, 2, 2), fl.NcPoly.generator(1, 3, 2))
    with pytest.raises(ValueError):
        fl.NcPoly.generator(3, 5, 2)


def test_bracket_frozen_examples():
    x1 = fl.NcPoly.generator(1, 7, 2)
    x2 = fl.NcPoly.generator(2, 7, 2)
    b = fl.lie_bracket(x1, x2)
    assert b.coefficient((1, 2)) == 1 and b.coefficient((2, 1)) == 6
    assert fl.lie_bracket(x1, x1).is_zero()
    assert lieoracle.com_j(x1, 1).is_zero()
    assert lieoracle.com_j(x1, 2) == b


def random_poly(rng, p, d, max_deg=3):
    coeffs = {}
    for _ in range(rng.randrange(1, 5)):
        deg = rng.randrange(1, max_deg + 1)
        w = tuple(rng.randrange(1, d + 1) for _ in range(deg))
        coeffs[w] = rng.randrange(p)
    return fl.NcPoly(coeffs, p, d)


@pytest.mark.parametrize("d,p", [(2, 2), (2, 3), (3, 3), (3, 5)])
def test_bracket_identities_seeded(d, p):
    # bilinearity, alternation, Jacobi on 100 seeded random triples
    rng = random.Random(1000 * d + p)
    for _ in range(100):
        f, g, h = (random_poly(rng, p, d) for _ in range(3))
        c = rng.randrange(p)
        assert fl.lie_bracket(f + g.scale(c), h) == fl.lie_bracket(f, h) + fl.lie_bracket(g, h).scale(c)
        assert fl.lie_bracket(f, f).is_zero()
        jac = (
            fl.lie_bracket(fl.lie_bracket(f, g), h)
            + fl.lie_bracket(fl.lie_bracket(g, h), f)
            + fl.lie_bracket(fl.lie_bracket(h, f), g)
        )
        assert jac.is_zero()


def test_right_bracketing_frozen():
    tree, poly = fl.right_bracketing((1, 2), 5)
    assert fl.bracket_string(tree) == "[x1,x2]"
    assert poly.coefficient((1, 2)) == 1 and poly.coefficient((2, 1)) == 4

    tree, _ = fl.right_bracketing((1, 1, 2), 5)
    assert fl.bracket_string(tree) == "[x1,[x1,x2]]"

    # the longest proper Lyndon tail of 1122 is 122, so the split is at 1|122
    tree, _ = fl.right_bracketing((1, 1, 2, 2), 5)
    assert fl.bracket_string(tree) == "[x1,[[x1,x2],x2]]"


def test_right_bracketing_rejects_non_lyndon():
    with pytest.raises(ValueError):
        fl.right_bracketing((2, 1), 3)
    with pytest.raises(ValueError):
        fl.right_bracketing((1, 1), 3)


def test_com_of_bracket_is_negated_extension():
    # [b[w], x_1] = -b[x_1 w] whenever x_1 w is Lyndon
    for p in (2, 3, 5):
        b12 = fl.right_bracketing((1, 2), p, 2)[1]
        b112 = fl.right_bracketing((1, 1, 2), p, 2)[1]
        assert lieoracle.com_j(b12, 1) == -b112


@pytest.mark.parametrize("d,p", [(2, 2), (2, 3), (3, 2), (3, 5)])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_triangularity(d, p, n):
    for w in fl.lyndon_words(d, n):
        _, poly = fl.right_bracketing(w, p, d)
        assert poly.coefficient(w) == 1
        assert all(v >= w for v in poly.support())


@pytest.mark.parametrize("d,n,p", [(2, 2, 3), (2, 3, 2), (3, 1, 5), (3, 4, 3)])
def test_lambda_basis_count_and_independence(d, n, p):
    basis = fl.lambda_basis(d, n, p)
    assert len(basis) == fl.witt_dim(d, n)
    space = fl.LieSubspace.from_polys(basis, p, d, degrees=(n,))
    assert space.dim == len(basis)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_com_j_injective_on_lie_component(d, n):
    # rank preservation of f -> [f, x_j] on the whole bracketed basis
    p = 3
    basis = fl.lambda_basis(d, n, p)
    for j in range(1, d + 1):
        images = [lieoracle.com_j(f, j) for f in basis]
        space = fl.LieSubspace.from_polys(images, p, d, degrees=(n + 1,))
        assert space.dim == len(basis)


# ---------------------------------------------------------------------------
# subspace expansion


def test_com_subspace_frozen_examples():
    x1 = fl.NcPoly.generator(1, 5, 3)
    w = fl.LieSubspace.from_polys([x1], 5, 3, degrees=(1,))
    assert fl.com_subspace(w).dim == 2

    zero = fl.LieSubspace.from_polys([], 5, 3, degrees=(1,))
    assert fl.com_subspace(zero).dim == 0

    lam1 = fl.LieSubspace.from_polys(
        [fl.NcPoly.generator(i, 3, 2) for i in (1, 2)], 3, 2, degrees=(1,)
    )
    assert fl.com_subspace(lam1).dim == 1  # the whole degree-2 component


def subspace_from_rows(rows, basis, p, d, degrees):
    polys = []
    for row in rows:
        f = fl.NcPoly.zero(p, d)
        for c, b in zip(row, basis):
            f = f + b.scale(c)
        polys.append(f)
    return fl.LieSubspace.from_polys(polys, p, d, degrees=degrees)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_expansion_exhaustive_degree2(p):
    # every subspace of the degree-2 component for d = 3 (ambient dim 3)
    basis = fl.lambda_basis(3, 2, p)
    for sub in enumerate_subspaces(len(basis), p):
        w = subspace_from_rows(sub.rows, basis, p, 3, (2,))
        rep = fl.expansion_check(w, "homogeneous")
        assert rep.ratio_ok, (p, sub.rows)


# ---------------------------------------------------------------------------
# index-arithmetic brackets and spans against the polynomial-product oracle


@pytest.mark.parametrize("p", [2, 3, 5])
def test_com_matches_oracle_on_every_degree2_subspace(p):
    # the 16, 28 and 64 subspaces that criterion 06 checks for d = 3
    basis = fl.lambda_basis(3, 2, p)
    subs = list(enumerate_subspaces(len(basis), p))
    assert len(subs) == {2: 16, 3: 28, 5: 64}[p]
    for sub in subs:
        w = subspace_from_rows(sub.rows, basis, p, 3, (2,))
        assert w.com().rows == lieoracle.com_rows(w.rows, (2,), 3, p), sub.rows


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_graded_span_com_and_plus_match_oracle(d, p):
    degrees = (1, 2, 3)
    for seed in range(6):
        dim = seed + 1
        w = fl.random_graded_lie_subspace(d, 3, p, dim, seed)
        assert w.degrees == degrees
        assert w.rows == lieoracle.random_span_rows(degrees, d, p, dim, seed)
        c = w.com()
        assert (c.degrees, c.rows) == ((2, 3, 4), lieoracle.com_rows(w.rows, degrees, d, p))
        both = (1, 2, 3, 4)
        polys = (lieoracle.basis_polys(w.rows, degrees, d, p)
                 + lieoracle.basis_polys(c.rows, c.degrees, d, p))
        s = w.plus(c)
        assert (s.degrees, s.rows) == (both, lieoracle.span_rows(polys, both, d, p))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_random_degree3_span_and_com_match_oracle(p):
    for seed in range(50):
        dim = seed % 9
        w = fl.random_lie_subspace(3, 3, p, dim, seed)
        assert w.rows == lieoracle.random_span_rows((3,), 3, p, dim, seed), seed
        assert w.com().rows == lieoracle.com_rows(w.rows, (3,), 3, p), seed


@pytest.mark.parametrize("make", [fl.random_lie_subspace, fl.random_graded_lie_subspace])
def test_random_subspace_rejects_negative_dimension(make):
    with pytest.raises(ValueError, match="negative"):
        make(3, 2, 5, -1, 0)
    assert make(3, 2, 5, 0, 0).dim == 0


def test_expansion_vacuous_zero():
    w = fl.LieSubspace.from_polys([], 5, 3, degrees=(2,))
    rep = fl.expansion_check(w, "homogeneous")
    assert rep.ratio_ok and rep.dim_w == 0


@pytest.mark.parametrize("p", [2, 3])
def test_onelem_exhaustive_degree1(p):
    # dim(W + com(W)) >= (3/2) dim(W) for every W inside the degree-1 slice
    for d in (2, 3):
        basis = [fl.NcPoly.generator(i, p, d) for i in range(1, d + 1)]
        for sub in enumerate_subspaces(d, p):
            w = subspace_from_rows(sub.rows, basis, p, d, (1,))
            grown = w.plus(w.com())
            assert 2 * grown.dim >= 3 * w.dim


@pytest.mark.parametrize("p", [3, 5])
def test_expansion_graded_sum_seeded(p):
    # 200 seeded random subspaces of the degree-(1,2) slice, dims cycling
    for seed in range(200):
        dim = seed % 4
        w = fl.random_graded_lie_subspace(3, 2, p, dim, seed)
        rep = fl.expansion_check(w, "graded-sum")
        assert rep.ratio_ok, (p, seed)


def test_expansion_graded_sum_two_dim_example():
    for seed in range(10):
        w = fl.random_graded_lie_subspace(3, 2, 3, 2, seed)
        rep = fl.expansion_check(w, "graded-sum")
        assert rep.ratio_ok


def test_expansion_p2_graded_sum_is_flagged():
    w = fl.random_graded_lie_subspace(3, 2, 2, 2, 17)
    rep = fl.expansion_check(w, "graded-sum")
    assert not rep.hypothesis_ok
    assert any("direct sum" in note for note in rep.notes)


def test_expansion_rejects_unknown_mode():
    w = fl.LieSubspace.from_polys([], 3, 3, degrees=(2,))
    with pytest.raises(ValueError):
        fl.expansion_check(w, "sideways")


def test_random_subspace_is_seeded():
    a = fl.random_lie_subspace(3, 2, 5, 2, 99)
    b = fl.random_lie_subspace(3, 2, 5, 2, 99)
    assert a.rows == b.rows
