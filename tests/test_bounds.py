import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from pgrouplab import bounds as bd
from pgrouplab import cli
from pgrouplab import groups as gr
from pgrouplab.freelie import dn_dim
from pgrouplab.qcombin import d_series, gauss_binom

from exactoracle import SqrtNum, gaussprods_tables_bigint


def test_normalthm_frozen():
    assert bd.normalthm_bound([3], [1], None, None, 2) == 7
    assert bd.normalthm_bound([3], [0], None, None, 2) == 1
    assert bd.normalthm_bound([2, 1], [0, 1], [0, 0], [0, 0], 2) == 1


@given(g1=st.integers(0, 8), u1=st.integers(0, 8), p=st.sampled_from([2, 3, 5]))
def test_normalthm_length_one_is_gaussian(g1, u1, p):
    if u1 > g1:
        with pytest.raises(ValueError):
            bd.normalthm_bound([g1], [u1], None, None, p)
        return
    assert bd.normalthm_bound([g1], [u1], None, None, p) == gauss_binom(g1, u1, p)


def test_normalthm_validates_lengths():
    with pytest.raises(ValueError):
        bd.normalthm_bound([2, 1], [0], None, None, 2)


def test_normalthm_dominates_d8_profiles():
    d8 = gr.dihedral(8)
    series = d8.lower_p_series(2)
    dims = [
        round(math.log(series[i].size // series[i + 1].size, 2))
        for i in range(len(series) - 1)
    ]
    for u in itertools.product(*[range(x + 1) for x in dims]):
        count = d8.normal_profile_count(2, list(u))
        bound = bd.normalthm_bound(dims, list(u), None, None, 2)
        assert count <= bound, (u, count, bound)


def test_fnormal_empty_profile_is_d_power():
    rep = bd.fnormal_bound(3, 3, 3, [0, 0])
    assert abs(rep.value - d_series(3).value ** 2) < 1e-9


def test_fnormal_frozen_value():
    # d_2 = 6 and d_3 = 14 for three generators (certified by the Lyndon count)
    rep = bd.fnormal_bound(2, 3, 3, [1, 2])
    manual = d_series(2).value ** 2 * 2 ** ((1 - 0) * (6 - 1)) * 2 ** ((2 - 0.5) * (14 - 2))
    assert abs(rep.value - manual) / manual < 1e-9


def test_fnormal_readings_differ():
    a = bd.fnormal_bound(2, 3, 3, [1, 2], reading="standard")
    b = bd.fnormal_bound(2, 3, 3, [1, 2], reading="alternate")
    assert b.value > a.value
    with pytest.raises(ValueError):
        bd.fnormal_bound(2, 3, 3, [1, 2], reading="guess")


def test_fnormal_hypothesis():
    with pytest.raises(ValueError):
        bd.fnormal_bound(2, 2, 3, [0, 0])
    with pytest.raises(ValueError):
        bd.fnormal_bound(2, 3, 2, [0])


# ---------------------------------------------------------------------------
# the nested sums


def test_gaussprods_single_sum_matches_direct_summation():
    # i = n-1 reduces to one explicit sum; compare against a float loop
    p, d, n = 2, 3, 3
    dims = {j: dn_dim(d, j) for j in (1, 2, 3)}
    tables = bd.gaussprods_tables(p, d, n)
    for u2 in (0, 1, 3):
        direct = 0.0
        for u3 in range(2, dims[3] + 1):
            direct += p ** ((dims[3] - u3) * (u3 - u2 / 2.0))
        rep = bd.gaussprods_ai(p, d, n, n - 1, u2, tables=tables)
        assert abs(rep.lhs_log_p - math.log(direct, p)) < 1e-9


def _at_shift(x, shift):
    """x as a + b sqrt(p) times p^(shift/2), for a shift at or below x's own."""
    return x + SqrtNum(x.p, shift, 0, 0)


def test_gaussprods_matches_bigint_oracle():
    # exact equality of sum c p^(k/2) as a + b sqrt(p) at a common shift
    for d, n in [(6, 3), (4, 4), (2, 6)]:
        primes = (5,) if d == 2 else (2, 3)
        tables = {p: bd.gaussprods_tables(p, d, n) for p in primes}
        for p in primes:
            slow = gaussprods_tables_bigint(p, d, n)
            for j in range(1, n):
                assert len(tables[p][j]) == len(slow[j]) == dn_dim(d, j) + 1
                for fast, want in zip(tables[p][j], slow[j]):
                    assert fast.p == p
                    shift = min(fast.exps.tolist() + [want.half_shift])
                    got = [0, 0]  # p^(k/2) = p^(shift/2) * sqrt(p)^(k - shift)
                    for k, c in zip(fast.exps.tolist(), fast.counts.tolist()):
                        got[(k - shift) % 2] += c * p ** ((k - shift) // 2)
                    want = _at_shift(want, shift)
                    assert got == [want.a, want.b], (p, d, n, j)
        if len(primes) == 2:  # the second prime reads the first one's arrays
            assert all(np.shares_memory(x.exps, y.exps) for x, y in zip(*(tables[p][1] for p in primes)))


def test_gaussprods_tables_are_read_only():
    tables = bd.gaussprods_tables(2, 4, 4)
    for arr in (tables[1][0].exps, tables[2][3].counts, tables[4][0].exps):
        with pytest.raises(ValueError):
            arr[0] = 7


def test_gaussprods_levels_run_once_per_d_n(monkeypatch):
    calls = []
    merge = bd._merge_terms

    def counted(exps, counts):
        calls.append(exps.size)
        return merge(exps, counts)

    monkeypatch.setattr(bd, "_merge_terms", counted)
    bd._gaussprods_levels.cache_clear()
    d, n = 6, 3
    first = bd.gaussprods_tables(2, d, n)
    assert len(calls) == sum(dn_dim(d, j) + 1 for j in range(1, n))
    second = bd.gaussprods_tables(3, d, n)
    assert len(calls) == sum(dn_dim(d, j) + 1 for j in range(1, n))
    assert [x.log_p() for x in first[1]] != [x.log_p() for x in second[1]]


def test_gaussprods_bound_and_hypothesis_flags():
    rep = bd.gaussprods_ai(2, 6, 3, 1, 0)
    assert rep.holds and rep.hypothesis_ok
    rep = bd.gaussprods_ai(3, 6, 3, 2, 1)
    assert rep.holds
    rep = bd.gaussprods_ai(2, 3, 3, 1, 0)
    assert not rep.hypothesis_ok  # computed anyway, flagged

    with pytest.raises(ValueError):
        bd.gaussprods_ai(2, 6, 3, 3, 0)
    with pytest.raises(ValueError):
        bd.gaussprods_ai(2, 6, 3, 1, 99)


# ---------------------------------------------------------------------------
# limit bounds


def test_limit1_basic_values():
    rep = bd.limit1_bound(2, 6, 3)
    assert rep.hypothesis_ok and rep.value.value > 1
    rep = bd.limit1_bound(2, 4, 3)
    assert not rep.hypothesis_ok and rep.warnings


def test_limit1_tiny_for_large_d():
    # by d = 25 the exponent is hugely negative (the d >= 17 region for n = 3)
    rep = bd.limit1_bound(2, 25, 3)
    assert rep.value.value - 1 < 1e-6


def test_limit1_monotone_in_p():
    values = [bd.limit1_bound(p, 17, 3).value.value for p in (2, 3, 5, 7, 11, 101)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] - 1 < 1e-6


def test_limit1_monotone_in_n():
    values = [bd.limit1_bound(2, 6, n).value.value for n in (3, 4, 5, 6)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_limit1_monotone_in_d_inside_region():
    # the tail underflows to exactly 1.0 in double precision
    values = [bd.limit1_bound(2, d, 3).value.value for d in (17, 18, 19, 20, 21, 22)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert values[0] > values[-1] == 1.0


def test_limit2_constants_frozen():
    _, c2 = bd.limit2_constants(3, 10, 2)
    assert c2 == -10
    _, c2 = bd.limit2_constants(2, 3, 3)
    assert c2 == Fraction(9) - Fraction(dn_dim(3, 3), 2) == 2
    _, c2 = bd.limit2_constants(5, 3, 4)
    assert c2 == Fraction(9) - Fraction(dn_dim(3, 4), 2)
    with pytest.raises(ValueError):
        bd.limit2_constants(2, 9, 2)
    with pytest.raises(ValueError):
        bd.limit2_constants(2, 2, 3)


def test_limit2_bounds_vacuous_branch():
    rep = bd.limit2_bounds(2, 3, 3)  # c2 = 2 makes the correction term >= 1
    assert rep.vacuous_b and rep.bound_b is None


def test_limit2_bounds_close_to_one():
    rep = bd.limit2_bounds(101, 10, 2)
    assert abs(rep.bound_a.value - 1) < 1e-3


def test_limit2_bounds_ordering():
    rep = bd.limit2_bounds(7, 5, 3)
    assert not rep.vacuous_b
    assert 1 < rep.bound_a.value < rep.bound_b.value


# ---------------------------------------------------------------------------
# dimension inequalities


def test_dn_inequalities_regions():
    first, second, third = bd.dn_inequalities(6, 3)
    assert first and second and not third
    assert all(bd.dn_inequalities(17, 3))
    assert all(bd.dn_inequalities(8, 4))
    assert all(bd.dn_inequalities(6, 5))
    assert all(bd.dn_inequalities(5, 10))
    # sharpness just below the stated region boundaries
    assert not bd.dn_inequalities(16, 3)[2]
    assert not bd.dn_inequalities(7, 4)[2]
    assert not bd.dn_inequalities(5, 5)[2]
    with pytest.raises(ValueError):
        bd.dn_inequalities(6, 2)


def test_dn_upper():
    assert bd.dn_upper(5, 1)
    assert bd.dn_upper(5, 4)
    assert bd.dn_upper(7, 6)
    with pytest.raises(ValueError):
        bd.dn_upper(4, 3)


def test_limit1_rows_sorted_by_p_d_n(capsys):
    assert cli.main(["bounds", "--kind", "limit1", "--p", "3,2", "--d", "6", "--n", "4,3"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
    assert [tuple(int(x) for x in r[:3]) for r in rows] == [(2, 6, 3), (2, 6, 4), (3, 6, 3), (3, 6, 4)]


def test_fnormal_single_active_term():
    # u = (0, 1): only the top layer contributes, exponent (1 - 0)(14 - 1)
    rep = bd.fnormal_bound(3, 3, 3, [0, 1])
    manual = d_series(3).value ** 2 * 3 ** 13
    assert abs(rep.value - manual) / manual < 1e-9


def test_sqrtnum_rejects_mismatched_primes():
    with pytest.raises(ValueError):
        SqrtNum.one(2) + SqrtNum.one(3)


def test_powsum_merge_refuses_inexact_counts():
    exps = np.array([3, 1, 3], dtype=np.int64)
    ok = bd.PowSum.from_terms(2, exps, np.array([2**52, 5, 2**52 - 1], dtype=np.int64))
    assert ok.exps.tolist() == [1, 3] and ok.counts.tolist() == [5, 2**53 - 1]
    with pytest.raises(ArithmeticError, match="2\\^53"):
        bd.PowSum.from_terms(2, exps, np.array([2**52, 5, 2**52], dtype=np.int64))
