import itertools
import math
import pathlib
import runpy
import sys
from fractions import Fraction

import numpy as np
import pytest

from pgrouplab import guards
from pgrouplab import walk as wk

import exactoracle
from exactoracle import evolve_exact_rational


def last_transform(spec, n):
    return list(wk.fourier_steps(spec, n))[-1]


def diag_spec(p, d, a=2, q=1.0):
    mat = tuple(tuple(a if i == j else 0 for j in range(d)) for i in range(d))
    return wk.WalkSpec(p=p, d=d, a_matrix=mat, q_weight=q)


# ---------------------------------------------------------------------------
# spec validation


def test_spec_validation():
    with pytest.raises(ValueError):
        wk.WalkSpec(p=2, d=1, a_matrix=((1,),))
    with pytest.raises(ValueError):
        wk.WalkSpec(p=9, d=1, a_matrix=((1,),))
    with pytest.raises(ValueError):
        wk.WalkSpec(p=3, d=2, a_matrix=((1, 1), (1, 1)))  # singular mod 3
    with pytest.raises(ValueError):
        wk.WalkSpec(p=3, d=1, a_matrix=((1,),), q_weight=1.5)


# ---------------------------------------------------------------------------
# exact evolution


def test_evolution_frozen_small_chain():
    spec = wk.scalar_spec(3, 2, 1.0)
    assert wk.evolve_exact(spec, 0).tolist() == [1.0, 0.0, 0.0]
    assert wk.evolve_exact(spec, 1).tolist() == [0.0, 0.5, 0.5]
    # all four two-step paths enumerated by hand
    assert wk.evolve_exact(spec, 2).tolist() == [0.5, 0.25, 0.25]


def test_two_step_path_enumeration_oracle():
    # brute-force over increment sequences for a twisted chain with q < 1
    spec = wk.scalar_spec(5, 3, 0.5)
    n = 3
    probs = {0: 0.5, 1: 0.25, -1: 0.25}
    dist = np.zeros(5)
    for steps in itertools.product(probs, repeat=n):
        x = 0
        weight = 1.0
        for g in steps:
            x = (3 * x + g) % 5
            weight *= probs[g]
        dist[x] += weight
    got = wk.evolve_exact(spec, n)
    assert np.abs(got - dist).max() < 1e-12


def test_distribution_diagnostics():
    spec = diag_spec(7, 2)
    for dist in wk.evolve_steps(spec, 50):
        neg, drift = wk.dist_diagnostics(dist)
        assert neg >= -1e-12
        assert drift < 1e-9


def test_rational_oracle_agreement():
    shear = wk.WalkSpec(p=3, d=3, a_matrix=((1, 1, 0), (0, 1, 2), (0, 0, 1)), q_weight=0.5)
    for spec in (wk.scalar_spec(3, 2, 1.0), wk.scalar_spec(5, 2, 0.25), diag_spec(3, 2), shear):
        exact = evolve_exact_rational(spec, 6)
        fast = wk.evolve_exact(spec, 6)
        for a, b in zip(exact, fast):
            assert abs(float(a) - b) < 1e-12
        assert sum(exact) == Fraction(1)


SHEAR3 = wk.WalkSpec(p=3, d=3, a_matrix=((1, 1, 0), (0, 1, 2), (0, 0, 1)), q_weight=0.5)
SHEAR3X4 = wk.WalkSpec(p=3, d=4, a_matrix=((1, 1, 0, 0), (0, 1, 2, 0), (0, 0, 2, 1), (2, 0, 0, 1)),
                       q_weight=0.8)
UPPER11 = wk.WalkSpec(p=11, d=2, a_matrix=((2, 1), (0, 4)), q_weight=0.9)


@pytest.mark.parametrize("spec", [
    wk.scalar_spec(5, 2, 0.3), diag_spec(7, 2, q=0.7), diag_spec(3, 3), SHEAR3,
    UPPER11, wk.scalar_spec(3, 2, 0.6), SHEAR3X4,
], ids=["scalar5", "diag7", "diag3x3", "shear3x3", "upper11", "scalar3", "shear3x4"])
def test_evolve_steps_match_rolled_stencil_bit_for_bit(spec):
    # at p = 3 a wrap-around add overwrites every row that the flat neighbour add writes
    steps = list(wk.evolve_steps(spec, 25))
    assert [x.tobytes() for x in steps] == [y.tobytes() for y in exactoracle.rolled_steps(spec, 25)]
    assert len({id(x) for x in steps}) == len(steps)  # no yielded array is reused


@pytest.mark.parametrize("spec", [
    diag_spec(7, 2, q=0.7), diag_spec(5, 3), SHEAR3, SHEAR3X4, UPPER11,
    wk.WalkSpec(p=3, d=8, a_matrix=tuple(tuple(2 * (j == i) + (j == i + 1) for j in range(8))
                                         for i in range(8)), q_weight=0.9),
], ids=["diag7", "diag5x3", "shear3x3", "shear3x4", "upper11", "upper3x8"])
def test_fourier_steps_match_product_form_bit_for_bit(spec):
    # d = 8: numpy adds a contiguous row of 8 cosines pairwise, a strided one left to right
    steps = list(wk.fourier_steps(spec, 25))
    assert [x.tobytes() for x in steps] == [y.tobytes() for y in exactoracle.product_form_steps(spec, 25)]
    assert len({id(x) for x in steps}) == len(steps)


def test_rational_oracle_guard():
    with pytest.raises(ValueError):
        evolve_exact_rational(diag_spec(31, 2), 2)


# ---------------------------------------------------------------------------
# transforms


def test_fourier_frozen_one_step():
    spec = wk.scalar_spec(3, 2, 1.0)
    f1 = last_transform(spec, 1)
    assert np.abs(f1 - np.cos(2 * np.pi * np.arange(3) / 3)).max() < 1e-12


def test_transform_at_zero_is_total_mass():
    spec = diag_spec(7, 2)
    for n in (0, 1, 10):
        assert abs(last_transform(spec, n)[0] - 1) < 1e-12


def test_product_form_equals_direct_transform():
    spec = wk.WalkSpec(p=7, d=2, a_matrix=((2, 1), (0, 4)), q_weight=0.7)
    fou = wk.fourier_steps(spec, 30)
    for dist in wk.evolve_steps(spec, 30):
        f = next(fou)
        assert np.abs(f - exactoracle.direct_transform(dist, 7, 2)).max() < 1e-9


def test_factored_transform_matches_naive():
    rng = np.random.default_rng(5)
    dist = rng.random(5**3)
    dist /= dist.sum()
    states = np.array(list(itertools.product(range(5), repeat=3)))
    dots = (states @ states.T) % 5
    naive = (np.exp(2j * np.pi / 5) ** dots) @ dist.astype(complex)
    assert np.abs(exactoracle.direct_transform(dist, 5, 3) - naive).max() < 1e-9


# ---------------------------------------------------------------------------
# distances


def test_tv_frozen():
    spec = wk.scalar_spec(3, 2, 1.0)
    assert abs(wk.tv_distance(wk.evolve_exact(spec, 0)) - 2 / 3) < 1e-12
    assert abs(wk.tv_distance(wk.evolve_exact(spec, 1)) - 1 / 3) < 1e-12
    uniform = np.full(9, 1 / 9)
    assert wk.tv_distance(uniform) == 0


def test_chi2_frozen_and_upper_bound_lemma():
    spec = wk.scalar_spec(3, 2, 1.0)
    f1 = last_transform(spec, 1)
    assert abs(wk.chi2_rhs(f1) - 0.5) < 1e-12
    # 1/9 = TV^2 <= (1/4) chi2 = 1/8
    fou = wk.fourier_steps(spec, 40)
    for dist in wk.evolve_steps(spec, 40):
        f = next(fou)
        tv = wk.tv_distance(dist)
        assert 4 * tv * tv <= wk.chi2_rhs(f) + 1e-12


@pytest.mark.parametrize("spec", [diag_spec(7, 2, q=0.7), SHEAR3X4, wk.scalar_spec(5, 2, 0.3)],
                         ids=["diag7", "shear3x4", "scalar5"])
def test_tv_and_chi2_equal_the_plain_expressions_bit_for_bit(spec):
    rng = np.random.default_rng(11)
    dists = list(wk.evolve_steps(spec, 12)) + [rng.random(spec.n_states) for _ in range(3)]
    for dist in dists:
        assert wk.tv_distance(dist) == exactoracle.tv_distance(dist)
    complex_transforms = [exactoracle.direct_transform(x, spec.p, spec.d) for x in dists]
    for f in list(wk.fourier_steps(spec, 12)) + complex_transforms:
        assert wk.chi2_rhs(f) == exactoracle.chi2_rhs(f)
    assert complex_transforms[-1].dtype.kind == "c"


def test_tv_monotone_for_untwisted_chain():
    ident = ((1, 0), (0, 1))
    spec = wk.WalkSpec(p=5, d=2, a_matrix=ident, q_weight=0.5)
    tvs = [wk.tv_distance(d) for d in wk.evolve_steps(spec, 40)]
    assert all(a >= b - 1e-12 for a, b in zip(tvs, tvs[1:]))


# ---------------------------------------------------------------------------
# the scalar comparison quantity


def d_n(p, b, q, n):
    return list(wk.d_n_series(p, b, q, n))[-1]


def test_dn_expression_frozen():
    assert abs(d_n(3, 2, 1.0, 1) - 0.5) < 1e-12
    for n in (1, 3, 10):
        assert abs(d_n(7, 2, 0.0, n) - 6.0) < 1e-12
    assert list(wk.d_n_series(7, 2, 1.0, 0)) == [6.0]
    with pytest.raises(ValueError):
        d_n(7, 7, 1.0, 2)


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_dn_expression_is_chi2_of_scalar_chain(n):
    lhs = d_n(7, 2, 1.0, n)
    rhs = wk.chi2_rhs(last_transform(wk.scalar_spec(7, 2, 1.0), n))
    assert abs(lhs - rhs) < 1e-9


def test_ubthm_bound_single_eigenvalue():
    want = math.expm1(d_n(3, 2, 1 / 8, 1))
    assert abs(wk.ubthm_bound(3, 1, [2], 1.0, 1) - want) < 1e-12


@pytest.mark.parametrize("p,d,eigs,n", [(61, 3, [2, 2, 2], 120), (11, 2, [2, 3], 50), (7, 3, [3, 5, 3], 40)])
def test_ubthm_series_equals_from_scratch_oracle_at_every_step(p, d, eigs, n):
    # the running products must reproduce every float of the from-scratch loop
    series = list(wk.ubthm_series(p, d, eigs, 1.0, n))
    assert series == [exactoracle.ubthm_bound(p, d, eigs, 1.0, k) for k in range(n + 1)]
    assert wk.ubthm_bound(p, d, eigs, 1.0, n) == series[-1]
    for b in set(eigs):
        assert list(wk.d_n_series(p, b, 1 / (8 * d), n)) == [
            exactoracle.d_n_expression(p, b, 1 / (8 * d), k) for k in range(n + 1)]


def test_ubthm_dominates_tv_small_grid():
    for p, d in [(3, 1), (7, 2)]:
        spec = diag_spec(p, d)
        for n, dist in enumerate(wk.evolve_steps(spec, 60)):
            tv = wk.tv_distance(dist)
            assert 4 * tv * tv <= wk.ubthm_bound(p, d, [2] * d, 1.0, n) + 1e-9


def test_schedule_frozen():
    sch = wk.ubcor_schedule(3, 1, 1.0)
    assert sch.t == 2 and sch.n == math.ceil(8 * (math.log(2) + 1))
    assert wk.ubcor_schedule(127, 1, 2.0).t == 7
    assert abs(sch.tv_sq_target - 2 * math.exp(-1)) < 1e-12
    with pytest.raises(ValueError):
        wk.ubcor_schedule(3, 1, 0)


# ---------------------------------------------------------------------------
# Mersenne products


def test_pi_gamma_frozen():
    pi0, _ = wk.pi_gamma(2, 1, 0)
    assert abs(pi0 - 1.0) < 1e-12
    pi1, _ = wk.pi_gamma(2, 1, 1)
    assert abs(pi1 - 0.25) < 1e-12
    with pytest.raises(ValueError):
        wk.pi_gamma(4, 1, 1)  # 2^4 - 1 = 15 is composite


def test_pi_gamma_symmetry_t5():
    for j in range(1, 5):
        pj, gj = wk.pi_gamma(5, 2, j)
        pk, gk = wk.pi_gamma(5, 2, 5 - j)
        assert abs(pj - pk) < 1e-12 and abs(gj - gk) < 1e-12


def test_meanlem_uniform_side():
    stats = wk.meanlem_stats(3, 1, 2)
    assert abs(stats.enumerated["E_U(f)"]) < 1e-9
    assert abs(stats.enumerated["E_U(ff*)"] - 3) < 1e-9
    assert stats.closed["E_U(ff*)"] == 3


def test_meanlem_frozen_small():
    stats = wk.meanlem_stats(2, 1, 2)
    assert abs(stats.closed["E_P(f)"] - 0.125) < 1e-12  # 2 * (1/4)^2
    assert abs(stats.enumerated["E_P(f)"] - 0.125) < 1e-9


def test_cosine_product_reports():
    rep = wk.cosine_product_checks(2, 1)
    assert not rep.two_sided_ok  # fails at the smallest parameter, as recorded
    assert rep.pi_dominance_ok
    assert rep.gamma_weight_zero

    rep = wk.cosine_product_checks(13, 1)
    assert rep.two_sided_ok

    rep = wk.cosine_product_checks(5, 2)
    assert rep.two_sided_ok and rep.pi_dominance_ok and rep.gamma_dominance_ok
    assert rep.symmetry_dev < 1e-12
    assert rep.ratio_min is not None and rep.ratio_min >= 1 - 1e-9


def test_cosine_product_pi_dominance_across_grid():
    for t in (2, 3, 5, 7, 13):
        for d in (1, 2, 3):
            assert wk.cosine_product_checks(t, d).pi_dominance_ok


# ---------------------------------------------------------------------------
# simulation


def test_monte_carlo_point_mass_at_zero_steps():
    spec = wk.scalar_spec(3, 2, 1.0)
    dist = wk.monte_carlo(spec, 0, 1000, seed=5)
    assert dist.tolist() == [1.0, 0.0, 0.0]


def test_monte_carlo_reproducible():
    spec = diag_spec(5, 2, q=0.8)
    a = wk.monte_carlo(spec, 7, 5000, seed=123)
    b = wk.monte_carlo(spec, 7, 5000, seed=123)
    assert np.array_equal(a, b)
    c = wk.monte_carlo(spec, 7, 5000, seed=124)
    assert not np.array_equal(a, c)


def test_monte_carlo_close_to_exact():
    spec = wk.scalar_spec(3, 2, 1.0)
    mc = wk.monte_carlo(spec, 5, 10**6, seed=7)
    exact = wk.evolve_exact(spec, 5)
    assert np.abs(mc - exact).max() < 5e-3  # six-sigma headroom at 1e6 trials


def test_factored_transform_on_large_state_space():
    # a point mass at g transforms to the plain character values at g
    p, d = 31, 3
    n = p**d
    dist = np.zeros(n)
    g_index = 5 * p + 7  # the state (0, 5, 7)
    dist[g_index] = 1.0
    f = exactoracle.direct_transform(dist, p, d)
    states = np.array(list(itertools.product(range(p), repeat=d)))
    dots = states @ states[g_index] % p
    expected = np.exp(2j * np.pi * dots / p)
    assert np.abs(f - expected).max() < 1e-9


def test_walk_experiment_script_runs_with_its_defaults(monkeypatch, capsys):
    script = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "walk_experiment.py"
    monkeypatch.setattr(sys, "argv", [str(script)])
    runpy.run_path(str(script), run_name="__main__")  # a failure or a nonzero sys.exit raises here
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "schedule c=1.0", "schedule c=2.0", "t=2", "t=3", "t=5", "t=7"]


@pytest.mark.parametrize("n", [-1, guards.LIMITS["walk_steps"] + 1])
def test_step_count_is_checked_by_every_kernel(n):
    spec = diag_spec(5, 2)
    for run in (lambda: next(wk.evolve_steps(spec, n)), lambda: next(wk.fourier_steps(spec, n)),
                lambda: next(wk.d_n_series(5, 2, 1.0, n)), lambda: wk.monte_carlo(spec, n, 1, 0)):
        with pytest.raises(ValueError, match="step count"):
            run()
