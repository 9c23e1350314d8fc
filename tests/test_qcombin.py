import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from pgrouplab import qcombin as qc
from smallfield import SmallField, rref_field


# ---------------------------------------------------------------------------
# independent oracle: count k-dim subspaces of F_q^m by enumerating RREF bases
# over an explicit field (never through the product formula)


def rref_subspace_count(m, k, q):
    field = SmallField(q)
    import itertools

    count = 0
    for pivots in itertools.combinations(range(m), k):
        free = [
            (i, j)
            for i in range(k)
            for j in range(pivots[i] + 1, m)
            if j not in pivots
        ]
        count += q ** len(free)
        # spot-verify canonicity on a handful: the RREF of the rows is itself
    return count


def exhaustive_row_space_count(m, k, q):
    """Even dumber oracle: distinct row spaces of all k x m matrices."""
    field = SmallField(q)
    import itertools

    spaces = set()
    for rows in itertools.product(itertools.product(range(q), repeat=m), repeat=k):
        red = rref_field(rows, field)
        if len(red) == k:
            spaces.add(red)
    return len(spaces)


GAUSS_CASES = [
    (4, 2, 2, 35),
    (7, 0, 5, 1),
    (3, 1, 3, 13),
    (3, 2, 3, 13),
    (4, 1, 2, 15),
]


@pytest.mark.parametrize("n,k,q,want", GAUSS_CASES)
def test_gauss_binom_frozen(n, k, q, want):
    assert qc.gauss_binom(n, k, q) == want


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_gauss_binom_vs_rref_enumeration(q):
    for n in range(5):
        for k in range(n + 1):
            assert qc.gauss_binom(n, k, q) == rref_subspace_count(n, k, q)


@pytest.mark.parametrize("q,m,k", [(2, 3, 1), (2, 3, 2), (3, 2, 1), (4, 2, 1), (3, 3, 2)])
def test_rref_oracle_agrees_with_row_space_enumeration(q, m, k):
    # ties the fast oracle to a set-of-subspaces enumeration
    assert rref_subspace_count(m, k, q) == exhaustive_row_space_count(m, k, q)


def test_gauss_binom_out_of_range_and_errors():
    assert qc.gauss_binom(4, -1, 2) == 0
    assert qc.gauss_binom(4, 5, 2) == 0
    with pytest.raises(ValueError):
        qc.gauss_binom(4, 2, 1)
    with pytest.raises(ValueError):
        qc.gauss_binom(-1, 0, 2)


@given(n=st.integers(0, 12), k=st.integers(-1, 13), q=st.sampled_from([2, 3, 4, 5, 7, 8, 9]))
def test_gauss_symmetry(n, k, q):
    assert qc.gauss_binom(n, k, q) == qc.gauss_binom(n, n - k, q)


@given(n=st.integers(1, 12), k=st.integers(0, 12), q=st.sampled_from([2, 3, 5, 9]))
def test_gauss_pascal_recurrence(n, k, q):
    lhs = qc.gauss_binom(n, k, q)
    rhs = qc.gauss_binom(n - 1, k - 1, q) + q**k * qc.gauss_binom(n - 1, k, q)
    assert lhs == rhs


@pytest.mark.parametrize("n,q,want", [(3, 2, 16), (0, 3, 1), (2, 3, 6)])
def test_galois_number_frozen(n, q, want):
    assert qc.galois_number(n, q) == want


@given(n=st.integers(0, 10), q=st.sampled_from([2, 3, 5, 7]))
def test_galois_is_sum_of_gaussians(n, q):
    assert qc.galois_number(n, q) == sum(qc.gauss_binom(n, k, q) for k in range(n + 1))


@pytest.mark.parametrize("n,q,want", [(2, 2, 4), (0, 7, 1), (3, 2, 10)])
def test_s_n_frozen(n, q, want):
    assert qc.s_n(n, q) == want


# ---------------------------------------------------------------------------
# certified series


def test_c_series_paper_window():
    c2 = qc.c_series(2)
    assert 2 < c2.lo and c2.hi < 9 / 4


def test_d_series_paper_window():
    d2 = qc.d_series(2)
    assert 3 < d2.lo and d2.hi < 7 / 2


def test_c_series_large_argument_is_one():
    val = qc.c_series(10**6)
    assert abs(val.value - 1.0) < 3e-6


def test_d_series_large_argument_is_one():
    val = qc.d_series(10**6)
    assert abs(val.value - 1.0) < 2e-6


def test_c_series_two_truncation_depths_agree():
    rough = qc.c_series(4, target_abs_error=1e-6)
    fine = qc.c_series(4, target_abs_error=1e-13)
    assert abs(rough.value - fine.value) <= rough.abs_error + fine.abs_error


def test_d_series_matches_explicit_partial_product():
    val = qc.d_series(3)
    partial = 1.0
    for j in range(1, 65):
        partial /= 1 - 3.0 ** (-j)
    assert abs(val.value - partial) <= val.abs_error + 1e-12


def test_series_monotone_decreasing_and_above_one():
    grid = [1.1, 1.5, 2, 3, 4, 8, 16, 100]
    cs = [qc.c_series(x).value for x in grid]
    ds = [qc.d_series(x).value for x in grid]
    assert all(a > b for a, b in zip(cs, cs[1:]))
    assert all(a > b for a, b in zip(ds, ds[1:]))
    assert all(v > 1 for v in cs + ds)


def test_series_divergence_errors():
    with pytest.raises(ValueError):
        qc.c_series(1.0)
    with pytest.raises(ValueError):
        qc.d_series(0.5)
    with pytest.raises(ValueError):
        qc.c_series(2, target_abs_error=0)


# ---------------------------------------------------------------------------
# estimate checks


@pytest.mark.parametrize("n,q", [(5, 2), (1, 2), (8, 3)])
def test_qests_examples(n, q):
    assert qc.check_qests(n, q).all_ok


def test_qests_requires_positive_n():
    with pytest.raises(ValueError):
        qc.check_qests(0, 2)


def test_polybound_symmetric_peak():
    rep = qc.polybound_check(1, 0, 0, -3, 3, 2)
    assert rep.holds and rep.y == 0


def test_polybound_interior_peak():
    rep = qc.polybound_check(1, 5, 0, 0, 5, 2)
    assert rep.holds and rep.y == 2.5


def test_polybound_clamped_peak():
    rep = qc.polybound_check(2, 1, 1, 1, 4, 3)
    assert rep.holds and rep.y == 1


@given(
    a=st.floats(0.25, 3), b=st.floats(-4, 4), c=st.floats(-2, 2),
    t=st.integers(-5, 2), width=st.integers(0, 8), q=st.floats(1.3, 4),
)
@settings(max_examples=60)
def test_polybound_holds_on_random_parabolas(a, b, c, t, width, q):
    assert qc.polybound_check(a, b, c, t, t + width, q).holds


def test_quadbound_examples():
    rep = qc.quadbound_check([1, 1, 1], 0)
    assert rep.all_ok and sum(x * x for x in [1, 1, 1]) == (3 - 3 + 1) ** 2 + 2
    assert qc.quadbound_check([3, 1], 0.5).all_ok
    rep = qc.quadbound_check([5], 0)
    assert rep.sum_sq_ok and 25 == (5 - 1 + 1) ** 2 + 0


@given(st.lists(st.integers(1, 9), min_size=1, max_size=6), st.floats(0, 3))
@settings(max_examples=80)
def test_quadbound_random_compositions(alphas, eps):
    assert qc.quadbound_check(alphas, eps).all_ok


def test_quadbound_rejects_empty():
    with pytest.raises(ValueError):
        qc.quadbound_check([], 0)


# ---------------------------------------------------------------------------
# partitions


@given(st.lists(st.integers(0, 9), max_size=8))
def test_partition_conjugate_involution(parts):
    lam = qc.Partition(sorted(parts, reverse=True))
    assert lam.conjugate().conjugate() == lam


def test_partition_trims_and_validates():
    assert qc.Partition((3, 1, 0, 0)).parts == (3, 1)
    with pytest.raises(ValueError):
        qc.Partition((1, 2))
    with pytest.raises(ValueError):
        qc.Partition((-1,))


def test_partition_contains():
    a, b = qc.Partition((3, 2)), qc.Partition((2, 2))
    assert a.contains(b) and not b.contains(a)
    assert a.contains(qc.Partition(()))


def test_bound_real_comparison_accounts_for_error():
    a = qc.BoundReal(1.0, 0.1)
    b = qc.BoundReal(0.95, 0.01)
    assert qc.bound_le(a, b)  # enclosures overlap: not certainly violated
    assert not qc.bound_le(qc.BoundReal(2.0, 0.1), qc.BoundReal(1.0, 0.1))
