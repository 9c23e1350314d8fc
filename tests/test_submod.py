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
from charpolyoracle import cayley_hamilton_holds, charpoly_leibniz
from smallfield import invariant_subspace_count


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
            want = sm.abelian_subgroup_type_census(p, lam).get(beta.conjugate().parts, 0)
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


def test_type_census_cache_is_not_changed_by_editing_a_result():
    first = sm.abelian_subgroup_type_census(2, (2,))
    want = dict(first)
    first[(1,)] = 0
    first[(9,)] = 1
    assert sm.abelian_subgroup_type_census(2, Partition((2, 0))) == want
    assert want == {(): 1, (1,): 1, (2,): 1}


def test_oracle_census_keeps_the_subgroup_guard():
    # C_2^8 passes the order guard (256); listing its 417,199 subgroups is refused
    with pytest.raises(ValueError, match="subgroup-listing order 256 exceeds guard 243"):
        sm.abelian_subgroup_type_census(2, (1,) * 8)


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


def minimal_polynomial(g, p):
    """Monic minimal polynomial of an invertible g, low-to-high: f^(mu_1) over its primary components."""
    out = (1,)
    for f, mu in sm.decompose(g, p).components:
        out = fp.poly_mul(out, fp.poly_pow(f, mu.part(1), p), p)
    return out


def test_minimal_polynomial_of_companions():
    for p in (2, 3):
        for f in fp.monic_irreducibles(p, 3):
            if f[0]:  # t itself has the singular companion (0), which decompose refuses
                assert minimal_polynomial(fp.companion_matrix(f, p), p) == f


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
        assert minimal_polynomial(g, p) == want, g
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
            assert sm.decompose(g, p).components == sm.decompose(conj, p).components


@pytest.mark.parametrize("d,p", [(2, 2), (2, 3), (3, 2), (2, 5)])
def test_class_reps_cover_all_signatures(d, p):
    sigs_all = {sm.decompose(g, p).components for g in fp.gl_enumerate(d, p)}
    sigs_reps = {sm.decompose(g, p).components for g in fp.gl_class_reps(d, p)}
    assert sigs_all == sigs_reps
    assert len(sigs_reps) == len(fp.gl_class_reps(d, p))


@pytest.mark.parametrize("m,p", [(2, 2), (2, 3), (3, 2)])
def test_structural_count_equals_brute_force(m, p):
    for g in fp.gl_enumerate(m, p):
        assert sm.structural_submodule_count(g, p) == invariant_subspace_count(g, p)


# Known decompositions: block-diagonal sums of companion matrices of f^e, with
# f irreducible, so the components are read off the blocks.  Polynomials here
# are low-to-high coefficient tuples multiplied with numpy, not with fplin.


def _pmul(a, b, p):
    return tuple(int(x) for x in np.convolve(a, b) % p)


def _irreducibles(p, deg):
    """Monic polynomials of degree deg that are no product of two monic factors."""
    def monic(k):
        return [tail + (1,) for tail in itertools.product(range(p), repeat=k)]
    reducible = {_pmul(a, b, p) for k in range(1, deg // 2 + 1) for a in monic(k) for b in monic(deg - k)}
    return [f for f in monic(deg) if f not in reducible]


def _known_module(blocks, p):
    """g = diag(C(f^e) for (f, e) in blocks) and its components, ((f, partition), ...)."""
    mats, exps = [], {}
    for f, e in blocks:
        fe = (1,)
        for _ in range(e):
            fe = _pmul(fe, f, p)
        mats.append(fp.companion_matrix(fe, p))
        exps.setdefault(f, []).append(e)
    comps = tuple(sorted((f, Partition(sorted(es, reverse=True))) for f, es in exps.items()))
    return fp.block_diag(mats, p), comps


def _known_modules():
    out = []
    for p, deg in ((2, 4), (2, 5), (3, 4)):  # each f lies above half its degree
        out += [(p, [(f, 1)]) for f in _irreducibles(p, deg)]
    for p in (2, 3):
        units = [f for k in (1, 2) for f in _irreducibles(p, k) if f[0]]
        out += [(p, [(f, e)]) for f in units for e in (2, 3)]
    # t + 1, t^2 + t + 1, and cubics over F_2; t + 1, t + 2 and quadratics over F_3
    l1, q1, c1, c2 = (1, 1), (1, 1, 1), (1, 1, 0, 1), (1, 0, 1, 1)
    m1, m2, r1, r2 = (1, 1), (2, 1), (1, 0, 1), (2, 1, 1)
    out += [
        (2, [(l1, 1), (l1, 1)]), (2, [(l1, 1), (l1, 2)]), (2, [(l1, 2), (l1, 2), (l1, 1)]),
        (2, [(q1, 1), (l1, 1), (l1, 1)]), (2, [(q1, 1), (q1, 1)]), (2, [(q1, 2), (l1, 1)]),
        (2, [(c1, 1), (l1, 1)]), (2, [(c1, 1), (c2, 1)]), (2, [(c1, 1), (l1, 2), (l1, 1)]),
        (2, [(q1, 1), (c1, 1), (l1, 1)]), (2, [(_irreducibles(2, 4)[0], 1), (l1, 1)]),
        (3, [(m1, 1), (m1, 1), (m1, 2)]), (3, [(m1, 1)] * 4),
        (3, [(m1, 1), (m1, 2), (r1, 1), (m2, 1)]), (3, [(r1, 1), (r1, 1)]),
        (3, [(m2, 1), (m1, 1), (m2, 1)]), (3, [(_irreducibles(3, 3)[0], 1), (m2, 1)]),
        (3, [(r1, 1), (r2, 1), (m1, 1)]),
    ]
    return [pytest.param(p, blocks, id=f"p{p}-" + "-".join(f"{''.join(map(str, f))}^{e}" for f, e in blocks))
            for p, blocks in out]


@pytest.mark.parametrize("p,blocks", _known_modules())
def test_decompose_known_modules(p, blocks):
    g, comps = _known_module(blocks, p)
    assert sm.decompose(g, p).components == comps
    if len(g) <= {2: 6, 3: 4}[p]:
        assert sm.structural_submodule_count(g, p) == invariant_subspace_count(g, p)


def test_known_module_irreducible_counts():
    # Gauss's count of monic irreducibles: 3, 6 of degree 4, 5 over F_2; 18 of degree 4 over F_3
    assert [len(_irreducibles(p, k)) for p, k in ((2, 4), (2, 5), (3, 4))] == [3, 6, 18]


@pytest.mark.parametrize("p,blocks", [
    (2, [((1, 1), 3)]),
    (2, [((1, 1, 1), 2), ((1, 1), 1)]),
    (3, [((1, 1), 1), ((1, 1), 2), ((1, 0, 1), 1), ((2, 1), 1)]),
    (2, [((1, 1), 1), ((1, 1), 1), ((1, 1), 1)]),
])
def test_decompose_work_counts(monkeypatch, p, blocks):
    # one rank per filtration step f(g)^1..f(g)^e of each factor; g^2..g^(max deg f),
    # then e - 1 products per factor
    g, comps = _known_module(blocks, p)
    exps = [mu.parts[0] for _, mu in comps]
    max_deg = max(len(f) - 1 for f, _ in comps)
    calls = {"mat_rank": 0, "mat_mul": 0}

    def counted(name):
        fn = getattr(sm, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(sm, name, counted(name))
    assert sm.decompose(g, p).components == comps
    assert calls == {"mat_rank": sum(exps), "mat_mul": max_deg - 1 + sum(e - 1 for e in exps)}


def test_factoring_runs_once_per_characteristic_polynomial(monkeypatch):
    g, _ = _known_module([((1, 1, 1), 2), ((1, 1), 1), ((1, 1), 1)], 2)
    first = sm.decompose(g, 2)
    calls = []

    def counted(*args):
        calls.append(args)
        return fp.poly_divmod(*args)

    monkeypatch.setattr(sm, "poly_divmod", counted)
    conj = ((1, 0, 0, 0, 0, 1),) + fp.mat_identity(6)[1:]  # I + E_{0,5}
    h = fp.mat_mul(fp.mat_mul(conj, g, 2), fp.mat_inverse(conj, 2), 2)
    assert h != g and sm.decompose(h, 2) == first and calls == []


@pytest.mark.parametrize("p,blocks", _known_modules())
def test_characteristic_polynomial_of_known_modules(p, blocks):
    g, _ = _known_module(blocks, p)
    chi = (1,)
    for f, e in blocks:
        for _ in range(e):
            chi = _pmul(chi, f, p)
    assert fp.characteristic_polynomial(g, p) == charpoly_leibniz(g, p) == chi
    assert cayley_hamilton_holds(g, chi, p)


# g, its true characteristic polynomial, a wrong one (monic, unit constant, same
# degree) and the filtration check that must refuse it
WRONG_CHI = [
    # t - 3 is no eigenvalue: its single rank finds a zero kernel, though a = 1
    (((1, 0), (0, 2)), 5, (2, 2, 1), (3, 1, 1), "positive multiple"),
    # (t - 1)(t - 2)^2 for J_2(1) + (2): ker(g - 2I)^2 stalls at 1
    (((1, 1, 0), (0, 1, 0), (0, 0, 2)), 5, (3, 0, 1, 1), (1, 3, 0, 1), "positive multiple"),
    # (t + 1)(t^2 + t + 1) for the identity: ker(g + I) is 3, past a deg f = 1
    (fp.mat_identity(3), 2, (1, 1, 1, 1), (1, 0, 0, 1), "does not end"),
    # (t + 1)^2 for an irreducible quadratic's companion matrix over F_3
    (fp.companion_matrix((2, 1, 1), 3), 3, (2, 1, 1), (1, 2, 1), "positive multiple"),
]


@pytest.mark.parametrize("g,p,chi,wrong,match", WRONG_CHI)
def test_wrong_characteristic_polynomial_is_refused(monkeypatch, g, p, chi, wrong, match):
    assert fp.characteristic_polynomial(g, p) == chi != wrong and wrong[-1] == 1 and wrong[0]
    sm.decompose(g, p)
    monkeypatch.setattr(sm, "characteristic_polynomial", lambda *args: wrong)
    with pytest.raises(ArithmeticError, match=match):
        sm.decompose(g, p)


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
