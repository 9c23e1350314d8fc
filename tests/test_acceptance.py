"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Tolerances are pinned here, not configurable.
"""
import itertools
import math
import time

import numpy as np
import pytest

from pgrouplab import bounds as bd
from pgrouplab import fplin as fp
from pgrouplab import freelie as fl
from pgrouplab import submod as sm
from pgrouplab import walk as wk
from pgrouplab.groups.catalog import catalog, census
from pgrouplab.groups import (
    aut_order,
    central_product,
    dihedral,
    extraspecial,
    macdonald_aut_order,
    quaternion,
    winter_aut_order,
    abelian_of_type,
    cyclic,
)
from pgrouplab.qcombin import Partition, check_qests, galois_number

from smallfield import mat_vec


_test_start = [0.0]


@pytest.fixture(autouse=True)
def _start_clock():
    _test_start[0] = time.perf_counter()


def report(num, ok, text):
    elapsed = time.perf_counter() - _test_start[0]
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {text} ({elapsed:.2f} s)")
    assert ok, f"criterion {num} failed: {text}"


def partitions_of(n):
    def rec(remaining, largest):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    return list(rec(n, n))


# ---------------------------------------------------------------------------


def test_criterion_01_census_table():
    expected = {(2, 3): (3, 5), (3, 3): (0, 5), (5, 3): (0, 5), (2, 4): (9, 14)}
    results = {}
    for (p, k), want in expected.items():
        hits, total, _ = census(p, k)
        results[(p, k)] = (hits, total)
    ok = results == expected
    report(1, ok, f"census reproduction {results}")


def test_criterion_02_submodule_formula_equals_oracle():
    mismatches = 0
    checked = 0
    for p in (2, 3):
        for size in range(0, 6):
            for alpha_parts in partitions_of(size):
                alpha = Partition(alpha_parts)
                lam = alpha.conjugate()
                censos = sm.abelian_subgroup_type_census(p, lam)
                covered = 0
                for beta in sm.subpartitions(alpha):
                    got = sm.submodule_count(alpha, beta, p)
                    want = censos.get(beta.conjugate().parts, 0)
                    covered += got
                    checked += 1
                    if got != want:
                        mismatches += 1
                if covered != sum(censos.values()):
                    mismatches += 1
    report(2, mismatches == 0, f"{checked} (alpha,beta,p) tuples, {mismatches} mismatches")


def _gl_elements(m, p):
    return fp.gl_enumerate(m, p)


def _subspace_vectors(s, p):
    """Every vector of the subspace s, as the set of all combinations of its basis rows."""
    return {
        tuple(sum(c * r[j] for c, r in zip(cs, s.rows)) % p for j in range(s.ambient_dim))
        for cs in itertools.product(range(p), repeat=s.dim)
    }


def test_criterion_03_structural_count_equals_brute_force():
    mismatches = 0
    checked = 0
    for p in (2, 3):
        for m in (1, 2, 3):
            subspaces = [(s.rows, _subspace_vectors(s, p)) for s in fp.enumerate_subspaces(m, p)]
            basis_rows = {v for rows, _ in subspaces for v in rows}
            for g in _gl_elements(m, p):
                image = {v: mat_vec(g, v, p) for v in basis_rows}
                brute = sum(
                    1
                    for rows, vectors in subspaces
                    if all(image[v] in vectors for v in rows)
                )
                if brute != sm.structural_submodule_count(g, p):
                    mismatches += 1
                checked += 1
    report(3, mismatches == 0, f"{checked} matrices across GL(m,p), m<=3, p in 2,3")


def test_criterion_04_submodule_count_bounds():
    violations = 0
    checked = 0
    # quadratic bound with the 2-epsilon correction, non-scalar g, m <= 3
    for p in (2, 3):
        eps_hi = sm.epsilon_logp(p).hi
        for m in (2, 3):
            bound = (m * m - 2 * m + 2) / 4 + 2 * eps_hi
            for g in _gl_elements(m, p):
                if sm.is_scalar(g, p):
                    continue
                s_m = sm.structural_submodule_count(g, p)
                checked += 1
                if math.log(s_m, p) > bound + 1e-9:
                    violations += 1
    # wedge-extension bound for every nontrivial g
    for d, p in [(2, 3), (2, 5), (3, 3), (3, 5)]:
        m = d + d * (d - 1) // 2
        bound = sm.stronger_bound(m, p).hi
        ident = fp.mat_identity(d)
        if (d, p) == (3, 5):
            # |GL(3,5)| is out of enumeration range; the count is a class
            # function, so canonical-form representatives cover every element
            elements = fp.gl_class_reps(d, p)
        else:
            elements = _gl_elements(d, p)
        for g in elements:
            if g == ident:
                continue
            w = fp.wedge_matrix(g, p)
            s_m = sm.structural_submodule_count(w, p)
            checked += 1
            if math.log(s_m, p) > bound + 1e-9:
                violations += 1
    report(4, violations == 0, f"{checked} bound evaluations, {violations} violations")


def test_criterion_05_normal_subgroup_bound_dominates():
    violations = 0
    checked = 0
    for p, k in ((2, 3), (2, 4), (3, 3)):
        for name, g in catalog(p, k):
            series = g.lower_p_series(p)
            dims = [
                round(math.log(series[i].size // series[i + 1].size, p))
                for i in range(len(series) - 1)
            ]
            for u in itertools.product(*[range(x + 1) for x in dims]):
                count = g.normal_profile_count(p, list(u))
                bound = bd.normalthm_bound(dims, list(u), None, None, p)
                checked += 1
                if count > bound:
                    violations += 1
    report(5, violations == 0, f"{checked} (group, profile) pairs of order <= 64")


def test_criterion_06_expansion_and_triangularity():
    bad = []
    # exhaustive over the degree-2 component (ambient dimension 3)
    for p in (2, 3, 5):
        basis = fl.lambda_basis(3, 2, p)
        for sub in fp.enumerate_subspaces(len(basis), p):
            polys = []
            for row in sub.rows:
                f = fl.NcPoly.zero(p, 3)
                for c, b in zip(row, basis):
                    f = f + b.scale(c)
                polys.append(f)
            w = fl.LieSubspace.from_polys(polys, p, 3, degrees=(2,))
            rep = fl.expansion_check(w, "homogeneous")
            if not rep.ratio_ok:
                bad.append(("exhaustive", p, sub.rows))
    # degree 3 has ambient dimension 8: 200 seeded random subspaces each
    for p in (2, 3, 5):
        for seed in range(200):
            dim = seed % 9
            w = fl.random_lie_subspace(3, 3, p, dim, seed)
            rep = fl.expansion_check(w, "homogeneous")
            if not rep.ratio_ok:
                bad.append(("random", p, seed))
    # triangularity of the bracketed basis, all Lyndon words of length <= 6
    for p in (2, 3, 5):
        for d in (2, 3):
            for n in range(1, 7):
                for word in fl.lyndon_words(d, n):
                    _, poly = fl.right_bracketing(word, p, d)
                    if poly.coefficient(word) != 1 or any(v < word for v in poly.support()):
                        bad.append(("triangularity", p, word))
    report(6, not bad, f"expansion + triangularity, first failures: {bad[:3]}")


def test_criterion_07_witt_lyndon_consistency():
    bad = []
    for d in range(1, 6):
        running = 0
        for n in range(1, 9):
            wd = fl.witt_dim(d, n)
            if wd != len(fl.lyndon_words(d, n)):
                bad.append((d, n))
            running += wd
            if fl.dn_dim(d, n) != running:
                bad.append(("partial", d, n))
    report(7, not bad, f"witt/lyndon agreement for d <= 5, n <= 8; failures: {bad}")


def test_criterion_08_appendix_estimates():
    bad = []
    for q in (2, 3, 5, 7, 9):
        for n in range(1, 13):
            if not check_qests(n, q).all_ok:
                bad.append(("qests", n, q))
    for p in (2, 3):
        for d in (6, 7):
            for n in (3, 4):
                tables = bd.gaussprods_tables(p, d, n)
                for i in range(1, n - 1):
                    for u in range(fl.dn_dim(d, i) + 1):
                        rep = bd.gaussprods_ai(p, d, n, i, u, tables=tables)
                        if not rep.holds:
                            bad.append(("gaussprods", p, d, n, i, u))
    # first two inequalities on their stated region, third at the boundary list
    for d, n in [(6, 3), (7, 3), (6, 4), (5, 10)]:
        first, second, _ = bd.dn_inequalities(d, n)
        if not (first and second):
            bad.append(("dn12", d, n))
    for d, n in [(17, 3), (8, 4), (6, 5), (5, 10)]:
        if not bd.dn_inequalities(d, n)[2]:
            bad.append(("dn3", d, n))
    report(8, not bad, f"estimate suite; failures: {bad[:4]}")


def test_criterion_09_orbit_counting_consistency():
    bad = []
    for p in (3, 5):
        for builder in (fp.natural_action, fp.wedge_module):
            action = builder(2, p)
            cf, _ = fp.cauchy_frobenius(action)
            cen = fp.regular_orbits(action)  # raises on orbit-stabilizer failure
            if cf != cen.orbit_count:
                bad.append((action.name, cf, cen.orbit_count))
            if sum(size for size, _ in cen.orbits) != galois_number(action.dim, p):
                bad.append((action.name, "size-sum"))
    report(9, not bad, f"two-route orbit counts for GL(2,3), GL(2,5); failures: {bad}")


def test_criterion_10_walk_suite():
    bad = []
    for p in (3, 7, 31):
        for d in (1, 2):
            a = tuple(tuple(2 if i == j else 0 for j in range(d)) for i in range(d))
            spec = wk.WalkSpec(p=p, d=d, a_matrix=a, q_weight=1.0)
            states = wk.state_table(p, d)
            w_mat = np.exp(2j * np.pi / p) ** ((states @ states.T) % p)
            fou = wk.fourier_steps(spec, 200)
            for n, dist in enumerate(wk.evolve_steps(spec, 200)):
                f = next(fou)
                if np.abs(f - w_mat @ dist.astype(complex)).max() > 1e-9:
                    bad.append(("fourier", p, d, n))
                    break
                tv = wk.tv_distance(dist)
                if 4 * tv * tv > wk.ubthm_bound(p, d, [2] * d, 1.0, n) + 1e-9:
                    bad.append(("ubthm", p, d, n))
                    break
    for t in (2, 3, 5):
        for d in (1, 2):
            for r in (1, 2, 4):
                if (2**t - 1) ** d > 10**6:
                    continue
                stats = wk.meanlem_stats(t, d, r)
                for key, want in stats.closed.items():
                    got = stats.enumerated[key]
                    if abs(got - want) > 1e-9:
                        bad.append(("meanlem", t, d, r, key))
    for t in (2, 3, 5, 7):
        if wk.cosine_product_checks(t, 2).symmetry_dev > 1e-12:
            bad.append(("symmetry", t))
    for p in (3, 7, 31):
        for d in (1, 2):
            for c in (1.0, 2.0):
                sch = wk.ubcor_schedule(p, d, c)
                a = tuple(tuple(2 if i == j else 0 for j in range(d)) for i in range(d))
                spec = wk.WalkSpec(p=p, d=d, a_matrix=a, q_weight=1.0)
                tv = wk.tv_distance(wk.evolve_exact(spec, sch.n))
                if tv * tv > sch.tv_sq_target:
                    bad.append(("schedule", p, d, c))
    report(10, not bad, f"walk suite; failures: {bad[:4]}")


def test_criterion_11_closed_form_aut_orders():
    bad = []
    checked = 0
    # abelian groups of order <= 64 with |G|^d(G) <= 1e8, the criterion's fixed range
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61]
    for p in primes:
        size = 1
        while p**size <= 64:
            for lam in partitions_of(size):
                order = p**size
                if order ** len(lam) > 10**8:
                    continue
                g = abelian_of_type(p, lam)
                checked += 1
                if macdonald_aut_order(lam, p) != aut_order(g, p):
                    bad.append(("macdonald", p, lam))
            size += 1
    # extraspecial groups: order 27, order 8, and the order-32 central products
    d8, q8 = dihedral(8), quaternion(8)
    zd = int(d8.center()[d8.center() != d8.identity][0])
    zq = int(q8.center()[q8.center() != q8.identity][0])
    cases = [
        (extraspecial(3, "p"), 3, winter_aut_order(3, 1, "exponent_p")),
        (extraspecial(3, "p2"), 3, winter_aut_order(3, 1, "exponent_p2")),
        (d8, 2, winter_aut_order(2, 1, "plus")),
        (q8, 2, winter_aut_order(2, 1, "minus")),
        (central_product(d8, dihedral(8), zd, zd), 2, winter_aut_order(2, 2, "plus")),
        (central_product(d8, q8, zd, zq), 2, winter_aut_order(2, 2, "minus")),
    ]
    for g, p, want in cases:
        checked += 1
        if aut_order(g, p) != want:
            bad.append(("winter", g.name))
    report(11, not bad, f"{checked} closed-form orders against brute force; failures: {bad}")
