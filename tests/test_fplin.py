import itertools
import math
import operator
import random

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from pgrouplab import fplin as fp
from pgrouplab.qcombin import galois_number, gauss_binom
from charpolyoracle import cayley_hamilton_holds, charpoly_leibniz
from smallfield import SmallField, invariant_subspace_count, mat_vec, rref_field


def random_matrix(rng, m, p):
    return tuple(tuple(rng.randrange(p) for _ in range(m)) for _ in range(m))


@given(
    p=st.sampled_from([2, 3, 5]),
    rows=st.lists(st.lists(st.integers(0, 6), min_size=3, max_size=3), min_size=1, max_size=4),
)
def test_rref_idempotent_and_canonical(p, rows):
    red = fp.rref(rows, p)
    assert fp.rref(red, p) == red
    # scaling rows by units does not change the canonical form
    scaled = [[(2 * x) % p for x in r] for r in rows] if p > 2 else rows
    assert fp.rref(scaled + list(rows), p) == red


@pytest.mark.parametrize("p,d", [(2, 0), (3, 0), (3, 1), (5, 3), (3, 4), (61, 3), (3, 8)])
def test_state_table_lists_states_like_itertools_product(p, d):
    # d = 0 is one empty row, shape (1, 0): a reshape(d, -1) loses it
    want = np.array(list(itertools.product(range(p), repeat=d)), dtype=np.int64)
    got = fp.state_table(p, d)
    assert got.shape == want.shape == (p**d, d) and got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert got.flags.c_contiguous  # as the list-built table: row sums add in the same order


@pytest.mark.parametrize("m,p,k,seed", [(4, 3, 2, 1), (3, 5, 1, 2), (5, 2, 3, 3), (2, 7, 2, 4), (3, 2, 0, 5)])
def test_matrix_index_perm_of_a_column_basis_lists_its_span(m, p, k, seed):
    # an m x k matrix: entry i is the index of the combination with coefficients state(i)
    rng = random.Random(seed)
    basis = [[rng.randrange(p) for _ in range(m)] for _ in range(k)]
    want = []
    for coeffs in itertools.product(range(p), repeat=k):
        v = [sum(c * b[j] for c, b in zip(coeffs, basis)) % p for j in range(m)]
        want.append(sum(x * p ** (m - 1 - j) for j, x in enumerate(v)))
    cols = np.array(basis, dtype=np.int64).reshape(k, m).T
    assert fp.matrix_index_perm(cols, p).tolist() == want


def test_mat_inverse_roundtrip():
    rng = random.Random(7)
    for p in (2, 3, 5):
        for _ in range(20):
            m = random_matrix(rng, 3, p)
            if not fp.is_invertible(m, p):
                continue
            assert fp.mat_mul(m, fp.mat_inverse(m, p), p) == fp.mat_identity(3)


def test_mat_inverse_rejects_singular():
    with pytest.raises(ValueError):
        fp.mat_inverse(((1, 1), (1, 1)), 2)


def _rank_cases():
    rng = random.Random(31)
    cases = [(2, ((0, 0, 0), (0, 0, 0))), (3, ((0,),)), (5, ((1, 2), (2, 4))),  # zero and singular
             (2, ((1, 1, 0), (0, 1, 1), (1, 0, 1))), (7, ((3, 1, 4, 1, 5),)),
             (3, ((1, 2), (2, 1), (0, 0), (1, 1)))]
    for p in (2, 3, 5, 7):
        for rows, cols in ((3, 3), (4, 4), (2, 5), (5, 2), (6, 6)):
            mat = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
            cases.append((p, tuple(map(tuple, mat))))
            mat[-1] = [(a + 2 * b) % p for a, b in zip(mat[0], mat[1 % rows])]  # a dependent row
            cases.append((p, tuple(map(tuple, mat))))
    return cases


def test_mat_rank_matches_small_field_rref():
    for p, mat in _rank_cases():
        assert fp.mat_rank(mat, p) == len(rref_field(mat, SmallField(p))), (p, mat)
    assert fp.mat_rank((), 2) == 0
    assert fp.mat_rank(((4, 2), (2, 1)), 3) == 1  # entries are reduced mod p


def _charpoly_cases():
    cases = [(5, g) for g in fp.gl_enumerate(2, 5)] + [(2, g) for g in fp.gl_enumerate(3, 2)]
    rng = random.Random(47)
    for p in (2, 3, 5, 7):
        for m in range(1, 9):
            for k in range(6 if m <= 6 else 2):
                mat = [[rng.randrange(p) for _ in range(m)] for _ in range(m)]
                if k == 0:  # singular: the last row repeats the first, or is zero when m = 1
                    mat[-1] = mat[0] if m > 1 else [0]
                cases.append((p, tuple(map(tuple, mat))))
    return cases


def test_characteristic_polynomial_matches_leibniz_expansion():
    singular = 0
    for p, g in _charpoly_cases():
        chi = fp.characteristic_polynomial(g, p)
        assert chi == charpoly_leibniz(g, p), (p, g)
        assert len(chi) == len(g) + 1 and chi[-1] == 1
        singular += chi[0] == 0
    assert singular >= 32  # at least the forced one for every (p, m)


def test_characteristic_polynomial_annihilates_its_matrix():
    for p, g in _charpoly_cases():
        assert cayley_hamilton_holds(g, fp.characteristic_polynomial(g, p), p), (p, g)
    assert not cayley_hamilton_holds(((1, 1), (0, 1)), (1, 1), 2)  # t + 1 misses the Jordan block


@pytest.mark.parametrize("m,p,want", [(2, 2, 5), (3, 3, 28), (1, 5, 2)])
def test_enumerate_subspaces_counts(m, p, want):
    subs = list(fp.enumerate_subspaces(m, p))
    assert len(subs) == want
    assert len({s.rows for s in subs}) == want
    assert want == galois_number(m, p)


def test_enumerate_subspaces_guard():
    with pytest.raises(ValueError):
        list(fp.enumerate_subspaces(10, 5))


@pytest.mark.parametrize("d,p,want", [(2, 2, 6), (1, 3, 2), (2, 3, 48)])
def test_gl_enumerate_counts(d, p, want):
    mats = fp.gl_enumerate(d, p)
    assert len(mats) == want
    assert len(set(mats)) == want
    assert all(fp.is_invertible(g, p) for g in mats)


def _gl_by_filter(d, p):
    """Every d x d matrix over F_p as a tuple of rows, in itertools.product order,
    kept when its Leibniz determinant is a unit; nothing here comes from fplin."""
    vectors = list(itertools.product(range(p), repeat=d))
    tails = list(itertools.product(vectors, repeat=d - 1))
    terms = [(perm, (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2)))
             for perm in itertools.permutations(range(d - 1))]

    def det(m):
        return sum(sign * math.prod(m[i][j] for i, j in enumerate(perm)) for perm, sign in terms)

    # det M = sum_j M[0][j] C_j, where C_j = (-1)^j det(the other rows without column j)
    cofactors = [[(-1) ** j * det([r[:j] + r[j + 1:] for r in t]) for j in range(d)] for t in tails]
    return [(r,) + t for r in vectors for t, c in zip(tails, cofactors) if sum(map(operator.mul, r, c)) % p]


@pytest.mark.parametrize("d,p", [(1, 2), (1, 7), (2, 2), (2, 5), (2, 7), (2, 17), (2, 31), (3, 2), (3, 3), (4, 2)])
def test_gl_enumerate_is_the_ordered_filter_of_all_matrices(d, p):
    got = fp.gl_enumerate(d, p)
    assert got == _gl_by_filter(d, p)  # the same matrices in the same order
    assert {type(x) for g in got[:50] for row in g for x in row} == {int}


def test_gl_enumerate_guard():
    with pytest.raises(ValueError):
        fp.gl_enumerate(3, 5)


def test_natural_and_wedge_refuse_the_permutation_table_before_listing_gl(monkeypatch):
    def listing(d, p):
        raise AssertionError("GL(d,p) listed before the guard")

    monkeypatch.setattr(fp, "gl_enumerate", listing)
    with pytest.raises(ValueError, match="^permutation table entries 44446320 exceeds guard 33554432$"):
        fp.natural_action(2, 19)
    with pytest.raises(ValueError, match="^permutation table entries"):
        fp.wedge_module(2, 13)
    with pytest.raises(ValueError, match="^GL\\(d,p\\) order 1488000 exceeds guard"):
        fp.natural_action(3, 5)


@pytest.mark.parametrize("d,p", [(0, 2), (-1, 3), (2, 4), (2, 1)])
def test_gl_enumerate_rejects_bad_dimension_or_modulus(d, p):
    with pytest.raises(ValueError, match="needs d >= 1 and a prime p"):
        fp.gl_enumerate(d, p)


def test_invariant_subspace_count_examples():
    assert invariant_subspace_count(fp.mat_identity(2), 2) == 5
    assert invariant_subspace_count(((1, 1), (0, 1)), 2) == 3
    assert invariant_subspace_count(fp.companion_matrix((1, 1, 1), 2), 2) == 2


def test_invariant_subspace_count_rejects_singular():
    with pytest.raises(ValueError):
        invariant_subspace_count(((1, 0), (0, 0)), 2)


def test_invariant_count_is_conjugation_invariant():
    rng = random.Random(11)
    gl = fp.gl_enumerate(3, 2)
    for _ in range(15):
        g = rng.choice(gl)
        h = rng.choice(gl)
        conj = fp.mat_mul(fp.mat_mul(h, g, 2), fp.mat_inverse(h, 2), 2)
        assert invariant_subspace_count(g, 2) == invariant_subspace_count(conj, 2)


# ---------------------------------------------------------------------------
# wedge module


def test_wedge_d2_is_determinant_block():
    for p in (3, 5):
        for g in fp.gl_enumerate(2, p):
            w = fp.wedge_matrix(g, p)
            det = (g[0][0] * g[1][1] - g[0][1] * g[1][0]) % p
            assert w[2][2] == det
            assert w[2][0] == w[2][1] == w[0][2] == w[1][2] == 0


def test_wedge_frozen_example():
    assert fp.wedge_matrix(((1, 0), (0, 2)), 3) == ((1, 0, 0), (0, 2, 0), (0, 0, 2))
    ident = fp.mat_identity(3)
    assert fp.wedge_matrix(ident, 5) == fp.mat_identity(6)


def test_wedge_is_multiplicative():
    rng = random.Random(3)
    for p in (3, 2):  # at p = 2 the C(p,2) block of x_i^p composes too
        gl = fp.gl_enumerate(3, p)
        for _ in range(25):
            g, h = rng.choice(gl), rng.choice(gl)
            lhs = fp.wedge_matrix(fp.mat_mul(g, h, p), p)
            rhs = fp.mat_mul(fp.wedge_matrix(g, p), fp.wedge_matrix(h, p), p)
            assert lhs == rhs


@pytest.mark.parametrize("d,p", [(2, 2), (2, 3), (2, 5), (3, 2), (3, 3)])
def test_only_identity_acts_as_scalar_on_wedge(d, p):
    ident = fp.mat_identity(d)
    for g in fp.gl_enumerate(d, p):
        if g == ident:
            continue
        w = fp.wedge_matrix(g, p)
        m = len(w)
        c = w[0][0]
        assert any(w[i][j] != (c if i == j else 0) for i in range(m) for j in range(m))


def test_only_identity_acts_as_scalar_on_wedge_3_5_class_reps():
    # scalar action is a conjugation invariant, so class representatives
    # cover all of GL(3,5)
    ident = fp.mat_identity(3)
    for g in fp.gl_class_reps(3, 5):
        if g == ident:
            continue
        w = fp.wedge_matrix(g, 5)
        c = w[0][0]
        assert any(
            w[i][j] != (c if i == j else 0) for i in range(len(w)) for j in range(len(w))
        )


# ---------------------------------------------------------------------------
# orbit counting


def test_trivial_action_orbits():
    act = fp.LinearAction((fp.mat_identity(2),), 2, 2, name="trivial")
    count, fixed = fp.cauchy_frobenius(act)
    assert count == 5 and fixed == [5]
    census = fp.regular_orbits(act)
    assert census.orbit_count == 5
    assert census.regular_count == 5  # stabilizers are the whole trivial group


def test_gl23_natural_orbits():
    act = fp.natural_action(2, 3)
    count, _ = fp.cauchy_frobenius(act)
    census = fp.regular_orbits(act)
    assert count == census.orbit_count == 3
    assert census.regular_count == 0
    assert sum(size for size, _ in census.orbits) == galois_number(2, 3)
    for size, stab in census.orbits:
        assert size * stab == len(act)


@pytest.mark.parametrize("p", [3, 5])
def test_wedge_orbit_consistency(p):
    act = fp.wedge_module(2, p)
    count, _ = fp.cauchy_frobenius(act)
    census = fp.regular_orbits(act)
    assert count == census.orbit_count
    assert census.regular_count <= census.orbit_count
    assert sum(size for size, _ in census.orbits) == galois_number(3, p)


def test_action_closure_is_verified():
    # over F_3 the transvection has order 3, so {I, t} is not closed
    bad = (fp.mat_identity(2), ((1, 1), (0, 1)))
    with pytest.raises(ValueError):
        fp.LinearAction(bad, 3, 2)
    # {I, s, t, st} over F_2 lacks ts: found only if the element st, added
    # under the second generator t, is also multiplied by the first one, s
    s, t = ((0, 1), (1, 0)), ((1, 0), (1, 1))
    with pytest.raises(ValueError, match="not closed"):
        fp.LinearAction((fp.mat_identity(2), s, t, fp.mat_mul(s, t, 2)), 2, 2)


def test_action_rejects_gl25_missing_one_element():
    gl25 = fp.gl_enumerate(2, 5)
    swap = ((0, 1), (1, 0))
    with pytest.raises(ValueError, match="not closed"):
        fp.LinearAction(tuple(g for g in gl25 if g != swap), 5, 2)
    # |GL(2,5)| - 1 = 479 is prime, so no deletion of a non-identity element
    # leaves a subgroup
    rejected = 0
    for x in gl25:
        if x == fp.mat_identity(2):
            continue
        try:
            fp.LinearAction(tuple(g for g in gl25 if g != x), 5, 2)
        except ValueError:
            rejected += 1
    assert rejected == 479


@pytest.mark.parametrize("bad", [
    ((1, 0),),
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    ((1, 0), (0,)),
    [[1, 0], [0, 1]],
    ((1, 0), (0, 4)),  # 4 = 1 mod 3, but entries are not reduced
    ((1, 0), (0, -1)),
    ((1, 0), (0, 1.0)),
])
def test_action_rejects_malformed_matrices(bad):
    with pytest.raises(ValueError, match=r"is not a 2x2 tuple of tuples with entries in 0\.\.2"):
        fp.LinearAction((fp.mat_identity(2), bad), 3, 2)


def test_action_rejects_singular_matrices():
    # {I, 0} is closed under products, but 0 is no permutation of the vectors
    with pytest.raises(ValueError, match="singular"):
        fp.LinearAction((fp.mat_identity(2), ((0, 0), (0, 0))), 3, 2)


def test_action_permutation_guard():
    # refused before any table is built: one element with 25 x 2^25 work,
    # and 26,208 elements on 13^3 vectors (about 2^25.8 table entries)
    with pytest.raises(ValueError, match="permutation table"):
        fp.LinearAction((fp.mat_identity(25),), 2, 25)
    with pytest.raises(ValueError, match="permutation table"):
        fp.wedge_module(2, 13)


def _fixed_by_rref(g, subspaces, p):
    """Oracle: g-invariant subspaces through RREF membership, without masks.

    The images g v of the basis lie in the subspace exactly when adding them
    leaves its reduced echelon form as it was.
    """
    field = SmallField(p)
    return sum(
        rref_field(s.rows + tuple(mat_vec(g, v, p) for v in s.rows), field) == s.rows for s in subspaces
    )


@pytest.mark.parametrize("builder, d, p", [
    (fp.wedge_module, 2, 3), (fp.natural_action, 3, 2), (fp.wedge_module, 2, 5),
])
def test_cauchy_frobenius_fixed_counts_match_rref_oracle(builder, d, p):
    act = builder(d, p)
    subspaces = list(fp.enumerate_subspaces(act.dim, p))
    _, fixed = fp.cauchy_frobenius(act)
    assert fixed == [_fixed_by_rref(g, subspaces, p) for g in act.elements]


@pytest.mark.parametrize("d, p", [(2, 3), (2, 5), (3, 2), (3, 3)])
def test_natural_orbits_are_the_grassmannians(d, p):
    census = fp.regular_orbits(fp.natural_action(d, p))
    assert sorted(size for size, _ in census.orbits) == sorted(
        gauss_binom(d, k, p) for k in range(d + 1)
    )


# ---------------------------------------------------------------------------
# polynomial helpers


@given(
    p=st.sampled_from([2, 3, 5]),
    a=st.lists(st.integers(0, 4), min_size=1, max_size=6),
    b=st.lists(st.integers(0, 4), min_size=1, max_size=4),
)
@settings(max_examples=60)
def test_poly_divmod_roundtrip(p, a, b):
    if not fp.poly_trim([x % p for x in b]):
        return
    q, r = fp.poly_divmod(a, b, p)
    recon = fp.poly_trim(
        tuple(
            (x + y) % p
            for x, y in itertools.zip_longest(fp.poly_mul(q, b, p), r, fillvalue=0)
        )
    )
    assert recon == fp.poly_trim(tuple(x % p for x in a))


def test_monic_irreducibles_cache_cannot_be_emptied_by_a_caller():
    first = fp.monic_irreducibles(3, 2)
    with pytest.raises(AttributeError):
        first.clear()
    assert fp.monic_irreducibles(3, 2) == first and len(first) == 3 + 3


def test_monic_irreducibles_counts_match_necklace_formula():
    from pgrouplab.freelie import witt_dim

    for p in (2, 3, 5):
        irr = fp.monic_irreducibles(p, 4)
        for deg in (1, 2, 3, 4):
            got = sum(1 for f in irr if len(f) - 1 == deg)
            assert got == witt_dim(p, deg)


def test_companion_matrix_shape():
    c = fp.companion_matrix((1, 1, 1), 2)
    assert c == ((0, 1), (1, 1))


def test_gl_class_reps_counts():
    # the number of conjugacy classes of GL(n, q) is known in closed form
    assert len(fp.gl_class_reps(2, 2)) == 2**2 - 1
    assert len(fp.gl_class_reps(2, 3)) == 3**2 - 1
    assert len(fp.gl_class_reps(2, 5)) == 5**2 - 1
    assert len(fp.gl_class_reps(3, 2)) == 2**3 - 2
    assert len(fp.gl_class_reps(3, 3)) == 3**3 - 3
    assert len(fp.gl_class_reps(3, 5)) == 5**3 - 5
    for g in fp.gl_class_reps(3, 3):
        assert fp.is_invertible(g, 3)


# ---------------------------------------------------------------------------
# small fields


@pytest.mark.parametrize("q", [4, 8, 9])
def test_small_field_axioms(q):
    f = SmallField(q)
    rng = random.Random(q)
    triples = [(rng.randrange(q), rng.randrange(q), rng.randrange(q)) for _ in range(200)]
    for a, b, c in triples:
        assert f.mul[a][f.mul[b][c]] == f.mul[f.mul[a][b]][c]
        assert f.mul[a][f.add[b][c]] == f.add[f.mul[a][b]][f.mul[a][c]]
    for a in range(1, q):
        assert f.mul[a][f.inv[a]] == 1
    assert all(f.add[a][f.neg[a]] == 0 for a in range(q))


def test_small_field_rejects_non_prime_power():
    with pytest.raises(ValueError):
        SmallField(6)


def test_companion_matrix_rejects_non_monic():
    with pytest.raises(ValueError):
        fp.companion_matrix((1, 1, 2), 3)
    with pytest.raises(ValueError):
        fp.companion_matrix((1,), 3)
