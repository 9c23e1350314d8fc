import itertools
import math
import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st
import numpy as np

from pgrouplab import fplin as fp
from pgrouplab import submod as sm
from pgrouplab.qcombin import Partition, galois_number


def all_partitions_up_to(total):
    out = [Partition(())]
    for n in range(1, total + 1):
        def rec(remaining, largest):
            if remaining == 0:
                yield ()
                return
            for first in range(min(remaining, largest), 0, -1):
                for rest in rec(remaining - first, first):
                    yield (first,) + rest
        out.extend(Partition(p) for p in rec(n, n))
    return out


# ---------------------------------------------------------------------------
# the closed formula


def test_submodule_count_frozen():
    assert sm.submodule_count((2,), (1,), 2) == 3
    assert sm.submodule_count((1, 1), (1,), 2) == 1
    assert sm.submodule_count((3, 1), (), 7) == 1
    assert sm.submodule_count((1,), (2,), 3) == 0  # beta not contained


def test_total_submodules_frozen():
    assert sm.total_submodules((2,), 2) == 5
    assert sm.total_submodules((1, 1), 2) == 3
    assert sm.total_submodules((1,), 3) == 2


def test_subpartitions_of_square():
    subs = {s.parts for s in sm.subpartitions(Partition((2, 2)))}
    assert subs == {(), (1,), (2,), (1, 1), (2, 1), (2, 2)}


@given(st.lists(st.integers(1, 4), min_size=0, max_size=3))
@settings(max_examples=40)
def test_subpartitions_are_contained_and_distinct(parts):
    alpha = Partition(sorted(parts, reverse=True))
    seen = list(sm.subpartitions(alpha))
    assert len({s.parts for s in seen}) == len(seen)
    assert all(alpha.contains(s) for s in seen)


@pytest.mark.parametrize("p", [2, 3])
def test_formula_matches_oracle_small(p):
    # the full |alpha| <= 5 sweep lives in the acceptance suite
    for alpha in all_partitions_up_to(3):
        lam = alpha.conjugate()
        for beta in sm.subpartitions(alpha):
            got = sm.submodule_count(alpha, beta, p)
            want = sm.abelian_subgroup_oracle(p, lam, beta.conjugate())
            assert got == want, (alpha.parts, beta.parts)


def test_total_matches_full_subgroup_count():
    # sum over all contained types equals the number of all subgroups
    for p, lam in [(2, (2, 1)), (3, (1, 1)), (2, (3,))]:
        alpha = Partition(lam).conjugate()
        census = sm.abelian_subgroup_type_census(p, lam)
        assert sm.total_submodules(alpha, p) == sum(census.values())


def test_oracle_guard():
    with pytest.raises(ValueError):
        sm.abelian_subgroup_type_census(2, (13,))


# ---------------------------------------------------------------------------
# decomposition


def test_decompose_frozen():
    ident = fp.mat_identity(2)
    assert sm.decompose(ident, 2).components == (((1, 1), Partition((1, 1))),)
    unip = ((1, 1), (0, 1))
    assert sm.decompose(unip, 2).components == (((1, 1), Partition((2,))),)
    comp = fp.companion_matrix((1, 1, 1), 2)
    assert sm.decompose(comp, 2).components == (((1, 1, 1), Partition((1,))),)


def test_decompose_rejects_singular_and_big():
    for g in (((1, 0), (0, 0)), ((0, 1), (0, 0))):  # the second is nilpotent
        with pytest.raises(ValueError, match="matrix is singular"):
            sm.decompose(g, 2)
    with pytest.raises(ValueError):
        sm.decompose(fp.mat_identity(9), 2)


def test_minimal_polynomial_of_companions():
    for p in (2, 3):
        for f in fp.monic_irreducibles(p, 3):
            c = fp.companion_matrix(f, p)
            assert sm.minimal_polynomial(c, p) == f


def _brute_minimal_polynomial(g, p):
    """First monic polynomial, in order of degree, that annihilates g; numpy only."""
    a = np.array(g, dtype=np.int64)
    m = len(a)
    powers = [np.eye(m, dtype=np.int64)]
    for _ in range(m):
        powers.append(powers[-1] @ a % p)
    for deg in range(1, m + 1):
        for tail in itertools.product(range(p), repeat=deg):
            coeffs = tail + (1,)
            if not (sum(c * pw for c, pw in zip(coeffs, powers)) % p).any():
                return coeffs
    raise AssertionError("no annihilating polynomial of degree <= m")


# derogatory elements: the 2 scalars of GL(2,3); the identity and 21 transvections of GL(3,2)
@pytest.mark.parametrize("d,p,derogatory", [(2, 3, 2), (3, 2, 22)])
def test_minimal_polynomial_matches_brute_force(d, p, derogatory):
    degrees = []
    for g in fp.gl_enumerate(d, p):
        want = _brute_minimal_polynomial(g, p)
        assert sm.minimal_polynomial(g, p) == want, g
        degrees.append(len(want) - 1)
    assert sum(k < d for k in degrees) == derogatory


def test_decompose_dimension_reconstruction_and_conjugation_invariance():
    rng = random.Random(23)
    for p in (2, 3):
        gl = fp.gl_enumerate(3, p)
        for _ in range(20):
            g = rng.choice(gl)
            h = rng.choice(gl)
            conj = fp.mat_mul(fp.mat_mul(h, g, p), fp.mat_inverse(h, p), p)
            assert sm.decompose(g, p).signature() == sm.decompose(conj, p).signature()


@pytest.mark.parametrize("d,p", [(2, 2), (2, 3), (3, 2), (2, 5)])
def test_class_reps_cover_all_signatures(d, p):
    sigs_all = {sm.decompose(g, p).signature() for g in fp.gl_enumerate(d, p)}
    sigs_reps = {sm.decompose(g, p).signature() for g in fp.gl_class_reps(d, p)}
    assert sigs_all == sigs_reps
    assert len(sigs_reps) == len(fp.gl_class_reps(d, p))


@pytest.mark.parametrize("m,p", [(2, 2), (2, 3), (3, 2)])
def test_structural_count_equals_brute_force(m, p):
    for g in fp.gl_enumerate(m, p):
        assert sm.structural_submodule_count(g, p) == fp.invariant_subspace_count(g, p)


# ---------------------------------------------------------------------------
# bounds


def test_sm_report_examples():
    rep = sm.sm_value_and_bound(fp.mat_identity(3), 2)
    assert rep.s_m == galois_number(3, 2) == 16 and rep.scalar_case

    rep = sm.sm_value_and_bound(((1, 1), (0, 1)), 2)
    assert rep.s_m == 3 and not rep.scalar_case
    assert math.log(rep.s_m, 2) <= rep.log_p_bound.hi

    comp = fp.companion_matrix((1, 1, 1), 2)
    rep = sm.sm_value_and_bound(comp, 2)
    assert rep.s_m == 2
    assert math.log(rep.s_m, 2) <= rep.log_p_bound.hi


def test_sm_requires_dimension_two():
    with pytest.raises(ValueError):
        sm.sm_value_and_bound(((1,),), 2)


def test_scalar_but_not_identity_is_scalar_case():
    rep = sm.sm_value_and_bound(((2, 0), (0, 2)), 3)
    assert rep.scalar_case and rep.s_m == galois_number(2, 3)


def test_stronger_bound_branches():
    b3 = sm.stronger_bound(3, 3)
    eps = sm.epsilon_logp(3)
    assert abs(b3.value - ((3 - 4) ** 2 / 4 + eps.value + 2 * 3 - 4)) < 1e-9
    b55 = sm.stronger_bound(55, 2)
    eps2 = sm.epsilon_logp(2)
    assert abs(b55.value - ((55 - 4) ** 2 / 4 + 5 * eps2.value + 4)) < 1e-6
    with pytest.raises(ValueError):
        sm.stronger_bound(5, 2)  # not v(v+1)/2
    with pytest.raises(ValueError):
        sm.stronger_bound(1, 2)


def test_epsilon_below_six():
    # the mid-proof auxiliary claim, verified numerically on a prime grid
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        assert sm.epsilon_logp(p).hi <= 6
