import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from pgrouplab import groups as gr
from pgrouplab import guards
from pgrouplab.fplin import gl_order
from pgrouplab.groups.aut import _chain_order, _Search
from pgrouplab.groups.catalog import catalog, census, fingerprint, parse_catalog, write_catalog
from pgrouplab.qcombin import galois_number, gauss_binom

from assocoracle import is_associative
from autcount import automorphisms, frattini_kernel_count
import suboracle


def small_catalog_groups(max_order=64):
    out = []
    for p, k in gr.catalog_orders():
        if p**k <= max_order:
            out.extend((name, g, p) for name, g in catalog(p, k))
    return out


# ---------------------------------------------------------------------------
# construction and validation


BAD_5X5 = [  # a Latin square that is not associative
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def test_rejects_bad_tables():
    with pytest.raises(ValueError):
        gr.CayleyGroup([[0, 0], [1, 1]])  # not a Latin square
    assert not is_associative(BAD_5X5)
    with pytest.raises(ValueError, match="not associative"):
        gr.CayleyGroup(BAD_5X5)


def test_order_guard():
    with pytest.raises(ValueError):
        gr.cyclic(300)


@pytest.mark.parametrize("build, args", [
    (gr.cyclic, lambda: (3000,)),
    (gr.dihedral, lambda: (2000,)),
    (gr.direct_product, lambda: (gr.cyclic(50), gr.cyclic(50))),
    (gr.ut_group, lambda: (5, 2)),
    (gr.wreath_cp_cp, lambda: (5,)),
], ids=["cyclic(3000)", "dihedral(2000)", "C50xC50", "UT(5,2)", "C5wrC5"])
def test_order_guard_refuses_before_building_a_table(build, args):
    args = args()  # the factors of a product are built before the trace starts
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="exceeds guard 256"):
            build(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_associativity_checked_exhaustively_above_order_300():
    # an intercalate swap in the table of C_302 keeps a Latin square with the
    # same identity, but breaks associativity at a few thousand triples only
    n, a, c = 302, 5, 9
    t = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    with guards.override(group_order=400):
        gr.CayleyGroup(t)
        t[a, c], t[a, c + 151] = t[a, c + 151], t[a, c]
        t[a + 151, c], t[a + 151, c + 151] = t[a + 151, c + 151], t[a + 151, c]
        with pytest.raises(ValueError, match="not associative"):
            gr.CayleyGroup(t)


def _verdict(table):
    try:
        gr.CayleyGroup(table)
    except ValueError as err:
        if "not associative" in str(err):
            return "not associative"
        raise
    return "accepted"


def _intercalate_swap(t, rng):
    """t with one intercalate swapped: entries t[a,c] = t[b,d] and t[a,d] = t[b,c] trade places."""
    n = t.shape[0]
    col = np.argsort(t, axis=1)  # col[b, v] is the d with t[b, d] = v
    for a, c in zip(rng.permutation(n).tolist(), rng.permutation(n).tolist()):
        d = col[np.arange(n), t[a, c]]
        bs = np.flatnonzero((t[a, d] == t[:, c]) & (d != c))
        if bs.size:
            b = int(rng.choice(bs))
            out = t.copy()
            out[np.ix_([a, b], [c, d[b]])] = t[np.ix_([a, b], [d[b], c])]
            return out
    raise ValueError("the table has no intercalate")


def _isotope(t, rng):
    """x*y = alpha(x) beta(y), each of alpha and beta a random permutation or translation."""
    n = t.shape[0]
    alpha = rng.permutation(n) if rng.random() < 0.5 else t[rng.integers(n)]  # x -> g x
    beta = rng.permutation(n) if rng.random() < 0.5 else t[:, rng.integers(n)]  # y -> y h
    return t[np.ix_(alpha, beta)]


_ASSOC_FAMILIES = {
    "C6": lambda: gr.cyclic(6), "C32": lambda: gr.cyclic(32),
    "C2^2": lambda: gr.abelian_of_type(2, (1,) * 2), "C2^6": lambda: gr.abelian_of_type(2, (1,) * 6),
    "D12": lambda: gr.dihedral(12), "D32": lambda: gr.dihedral(32), "Q16": lambda: gr.quaternion(16),
}
_CATALOG_UP_TO_27 = {name: g for name, g, _ in small_catalog_groups(max_order=27)}


@pytest.mark.parametrize("kind, name", [
    *(("catalog", name) for name in _CATALOG_UP_TO_27), *(("family", name) for name in _ASSOC_FAMILIES),
])
def test_associativity_verdict_equals_triple_check(kind, name):
    g = _CATALOG_UP_TO_27[name] if kind == "catalog" else _ASSOC_FAMILIES[name]()
    rng = np.random.default_rng(sum(map(ord, name)))
    tables = [g.table] + [_relabel(g, rng.permutation(g.order)).table for _ in range(8)]
    if kind == "family":
        tables += [_intercalate_swap(_relabel(g, rng.permutation(g.order)).table, rng) for _ in range(24)]
        tables += [_isotope(g.table, rng) for _ in range(24)]
    verdicts = [_verdict(t) for t in tables]
    assert verdicts == ["accepted" if is_associative(t) else "not associative" for t in tables]
    if kind == "family":  # both verdicts occur, so the comparison can tell them apart
        assert {"accepted", "not associative"} <= set(verdicts)


@pytest.mark.parametrize("build", [
    lambda: gr.abelian_of_type(2, (1,) * 8), lambda: gr.abelian_of_type(3, (1,) * 5),
    lambda: gr.dihedral(128), lambda: gr.quaternion(128),
], ids=["C2^8", "C3^5", "D128", "Q128"])
def test_light_test_checks_at_most_log2_n_plus_one_elements(monkeypatch, build):
    table = build().table
    checked = []
    associates = gr.cayley._associates

    def counted(t, a):
        checked.append(a)
        return associates(t, a)

    monkeypatch.setattr(gr.cayley, "_associates", counted)
    gr.CayleyGroup(table)
    assert 0 < len(checked) <= table.shape[0].bit_length()  # floor(log2 n) + 1


def test_constructor_invariants():
    d8 = gr.dihedral(8)
    assert d8.order == 8 and d8.center().size == 2
    e27 = gr.extraspecial(3, "p")
    assert e27.order == 27 and e27.exponent() == 3
    e27b = gr.extraspecial(3, "p2")
    assert e27b.order == 27 and e27b.exponent() == 9
    c2c2 = gr.abelian_of_type(2, (1, 1))
    assert c2c2.order == 4 and c2c2.is_abelian()
    assert gr.quaternion(16).order == 16
    assert gr.semidihedral(16).exponent() == 8
    assert gr.ut_group(3, 3).order == 27
    assert gr.wreath_cp_cp(2).order == 8


def test_extraspecial_exp_p_is_unitriangular():
    assert gr.are_isomorphic(gr.extraspecial(3, "p"), gr.ut_group(3, 3), 3)


def test_wreath_c2_is_dihedral():
    assert gr.are_isomorphic(gr.wreath_cp_cp(2), gr.dihedral(8), 2)


# ---------------------------------------------------------------------------
# lower p-series


def test_d8_series():
    assert [s.size for s in gr.dihedral(8).lower_p_series(2)] == [8, 2, 1]


def test_non_p_group_rejected():
    with pytest.raises(ValueError):
        gr.cyclic(6).lower_p_series(2)


@pytest.mark.parametrize(
    "p,lam", [(2, (3, 1)), (2, (2, 2, 1)), (3, (2, 1)), (3, (1, 1, 1)), (5, (2,))]
)
def test_abelian_series_types(p, lam):
    # the i-th term of an abelian group of type lam has type max(lam_j - i + 1, 0)
    g = gr.abelian_of_type(p, lam)
    series = g.lower_p_series(p)
    assert len(series) - 1 == lam[0]  # lower p-length
    for i, term in enumerate(series[:-1], start=1):
        expected = tuple(sorted((x - i + 1 for x in lam if x - i + 1 > 0), reverse=True))
        sub = gr.subgroup_as_group(g, term)
        assert sub.abelian_type(p) == expected


def test_abelian_type_refuses_a_layer_that_is_not_a_p_power():
    # three elements of order dividing 2: no 2-group has that layer, and
    # round(log2(3)) = 2 read it as a rank
    with pytest.raises(ArithmeticError, match="3 is not a power of 2"):
        gr.cayley.abelian_type_of_orders(np.array([1, 2, 2, 4]), 2)
    assert gr.cayley.abelian_type_of_orders(np.array([1, 2, 4, 4]), 2) == (2,)


@pytest.mark.parametrize("size,p", [(3, 3), (4, 2)])
def test_unitriangular_series_is_diagonal_cutoff(size, p):
    # i-th term: matrices vanishing at positions with 0 < col - row < i
    g = gr.ut_group(size, p)
    series = g.lower_p_series(p)
    for i, term in enumerate(series, start=1):
        expected = {
            idx
            for idx, mat in enumerate(g.data)
            if all(
                mat[r][c] == 0
                for r in range(size)
                for c in range(size)
                if 0 < c - r < i
            )
        }
        assert set(int(x) for x in term) == expected


def test_proposition_series_laws_on_catalogs():
    for name, g, p in small_catalog_groups(max_order=27):
        series = g.lower_p_series(p)
        terms = series + [series[-1]] * 4
        masks = []
        for t in terms:
            m = np.zeros(g.order, dtype=bool)
            m[t] = True
            masks.append(m)
        length = len(series)
        for i in range(1, length + 1):
            for j in range(1, length + 1):
                gi, gj = terms[i - 1], terms[j - 1]
                target = masks[min(i + j, length) - 1]
                # [G_i, G_j] <= G_{i+j}
                for x in gi:
                    for y in gj:
                        assert target[g.commutator(int(x), int(y))], (name, i, j)
                # G_i^{p^j} <= G_{i+j}
                for x in gi:
                    assert target[g.power(int(x), p**j)], (name, i, j)


def test_series_quotients_elementary_abelian_and_central():
    for name, g, p in small_catalog_groups(max_order=27):
        series = g.lower_p_series(p)
        for i in range(len(series) - 1):
            q, proj = gr.quotient_group(g, series[i + 1])
            sub = q.closure(sorted(set(int(proj[x]) for x in series[i])))
            subgroup = gr.subgroup_as_group(q, sub)
            assert subgroup.is_abelian()
            assert all(subgroup.power(x, p) == subgroup.identity for x in range(subgroup.order))
            # centrality of G_i/G_{i+1} in G/G_{i+1}
            for x in sub:
                assert all(q.mul(int(x), y) == q.mul(y, int(x)) for y in range(q.order))


def test_frattini_equals_intersection_of_maximals():
    for name, g, p in small_catalog_groups(max_order=64):
        subs = g.all_subgroups()
        proper = [s for s in subs if s.size < g.order]
        maximal = [
            s
            for s in proper
            if not any(
                t.size > s.size and set(s.tolist()) <= set(t.tolist()) for t in proper
            )
        ]
        inter = set(range(g.order))
        for s in maximal:
            inter &= set(s.tolist())
        assert sorted(inter) == g.frattini(p).tolist(), name


def test_frattini_is_second_lower_p_series_term_on_relabelled_catalog():
    rng = np.random.default_rng(5)
    for p, k in gr.catalog_orders():
        for name, g in catalog(p, k):
            perm = rng.permutation(g.order)
            h = _relabel(g, perm)
            phi = g.frattini(p)
            assert phi.tolist() == g.lower_p_series(p)[1].tolist(), name
            assert h.frattini(p).tolist() == h.lower_p_series(p)[1].tolist(), name
            assert h.frattini(p).tolist() == sorted(perm[phi].tolist()), name


def test_min_generators_frozen():
    assert len(gr.minimal_generating_tuple(gr.cyclic(8), 2)) == 1
    assert len(gr.minimal_generating_tuple(gr.dihedral(8), 2)) == 2
    assert len(gr.minimal_generating_tuple(gr.abelian_of_type(2, (1,) * 4), 2)) == 4


# ---------------------------------------------------------------------------
# subgroup machinery


def test_subgroup_counts():
    c2c2 = gr.abelian_of_type(2, (1, 1))
    subs = c2c2.all_subgroups()
    assert len(subs) == 5
    assert len(c2c2.normal_subgroups()) == 5
    q8 = gr.quaternion(8)
    assert len(q8.all_subgroups()) == 6
    assert len(q8.normal_subgroups()) == 6
    d8 = gr.dihedral(8)
    assert len(d8.normal_subgroups()) < len(d8.all_subgroups())


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@pytest.mark.parametrize("m", range(3, 65))
def test_dihedral_subgroup_count(m):
    # D_2m has tau(m) cyclic subgroups of rotations and sigma(m) others
    assert len(gr.dihedral(2 * m).all_subgroups()) == len(_divisors(m)) + sum(_divisors(m))


@pytest.mark.parametrize("order", [8, 16, 32, 64, 128])
def test_quaternion_subgroup_count(order):
    # the dicyclic group of order 4n has tau(2n) + sigma(n) subgroups
    n = order // 4
    assert len(gr.quaternion(order).all_subgroups()) == len(_divisors(2 * n)) + sum(_divisors(n))


def _permutation_group(n, even_only):
    # S_n, or A_n, with element i the i-th permutation in lexicographic order
    perms = [s for s in itertools.permutations(range(n))
             if not even_only or sum(a > b for a, b in itertools.combinations(s, 2)) % 2 == 0]
    index = {s: i for i, s in enumerate(perms)}
    return gr.CayleyGroup([[index[tuple(a[x] for x in b)] for b in perms] for a in perms])


@pytest.mark.parametrize("n, even_only, count", [(4, True, 10), (4, False, 30), (5, True, 59), (5, False, 156)],
                         ids=["A4", "S4", "A5", "S5"])
def test_subgroup_counts_of_alternating_and_symmetric_groups(n, even_only, count):
    # A_5 is perfect and S_5 is not solvable; the prime-index skip is exact in these too
    assert len(_permutation_group(n, even_only).all_subgroups()) == count


@pytest.mark.parametrize("p, k, count", [(2, 5, 374), (2, 6, 2825), (3, 4, 212), (3, 5, 2664), (5, 3, 64)])
def test_elementary_abelian_subgroup_counts_are_galois_numbers(p, k, count):
    assert galois_number(k, p) == count
    assert len(gr.abelian_of_type(p, (1,) * k).all_subgroups()) == count


def _count_joins(monkeypatch):
    joins = []
    join = gr.CayleyGroup._join

    def counted(self, block, mask, gens, x):
        joins.append(x)
        return join(self, block, mask, gens, x)

    monkeypatch.setattr(gr.CayleyGroup, "_join", counted)
    return joins


def test_prime_index_skip_bounds_the_joins_on_c3_5(monkeypatch):
    # 25,652 joins when every M was joined with every rep, 23,110 by canonical augmentation
    joins = _count_joins(monkeypatch)
    assert len(gr.abelian_of_type(3, (1,) * 5).all_subgroups()) == 2664
    assert 0 < len(joins) <= 23_500


def test_double_coset_skip_bounds_the_joins_on_d128(monkeypatch):
    # 8,086 joins without the skip of MxM, 2,878 with it, 2,335 by canonical augmentation
    joins = _count_joins(monkeypatch)
    assert len(gr.dihedral(128).all_subgroups()) == 134
    assert 0 < len(joins) <= 2_400


def test_canonical_augmentation_bounds_the_joins_on_c9_c3_3(monkeypatch):
    # 4,062 joins when every M was joined with every rep, 1,991 by canonical augmentation
    joins = _count_joins(monkeypatch)
    assert len(gr.abelian_of_type(3, (2, 1, 1, 1)).all_subgroups()) == 396
    assert 0 < len(joins) <= 2_050


def test_subgroup_guard_243():
    with pytest.raises(ValueError, match="subgroup-listing order 256 exceeds guard 243"):
        gr.abelian_of_type(2, (1,) * 8).all_subgroups()


def _relabel(g, perm):
    inv = np.argsort(perm)
    return gr.CayleyGroup(perm[g.table[inv][:, inv]], name=g.name)


def _closure_oracle(table, gens, identity):
    # fixed point of S u {e} under products, straight from the table
    span = set(gens) | {identity}
    while True:
        more = {int(table[x, y]) for x in span for y in span} - span
        if not more:
            return sorted(span)
        span |= more


_CLOSURE_GROUPS = [g for _, g, _ in small_catalog_groups(max_order=27)]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_closure_matches_product_fixed_point(data):
    g = data.draw(st.sampled_from(_CLOSURE_GROUPS))
    perm = np.array(data.draw(st.permutations(range(g.order))))
    h = _relabel(g, perm)
    gens = data.draw(st.lists(st.integers(0, h.order - 1), max_size=4))
    want = _closure_oracle(h.table, gens, h.identity)
    got = h.closure(gens)
    assert got.dtype == np.int32
    assert got.tolist() == want


def test_all_subgroups_match_the_one_element_closure_oracle():
    # the subgroups as sets, not only their number; 38 groups, 622 subgroups
    rng = np.random.default_rng(23)
    groups = [(name, _relabel(g, rng.permutation(g.order))) for name, g, _ in small_catalog_groups(max_order=27)]
    groups += [(f"D{2 * m}", gr.dihedral(2 * m)) for m in range(2, 13)]
    groups += [("Q16", gr.quaternion(16)), ("A4", _permutation_group(4, True)), ("S4", _permutation_group(4, False))]
    total = 0
    for name, g in groups:
        got = [frozenset(s.tolist()) for s in g.all_subgroups()]
        assert len(set(got)) == len(got), name
        assert set(got) == suboracle.subgroups(g.table.tolist()), name
        total += len(got)
    assert total == 622


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_span_from_a_normal_subgroup_matches_span_from_scratch(data):
    # a normal N enters the closure as a bare mask, without generators of its own
    g = data.draw(st.sampled_from(_CLOSURE_GROUPS))
    h = _relabel(g, np.array(data.draw(st.permutations(range(g.order)))))
    gens = data.draw(st.lists(st.integers(0, h.order - 1), max_size=3))
    for n in h.normal_subgroups():
        assert h._span(gens, h._mask(n)) == h._span(gens + n.tolist()), n.tolist()


def test_normal_profile_counts():
    c23 = gr.abelian_of_type(2, (1, 1, 1))
    assert c23.normal_profile_count(2, [1]) == 7 == gauss_binom(3, 1, 2)
    assert c23.normal_profile_count(2, [0]) == 1
    d8 = gr.dihedral(8)
    assert d8.normal_profile_count(2, [0, 1]) == 1  # just the center
    assert d8.normal_profile_count(2, [0, 0]) == 1  # trivial subgroup
    with pytest.raises(ValueError):
        d8.normal_profile_count(2, [0])


def test_normal_profile_count_keeps_the_subgroup_guard():
    c256 = gr.cyclic(256)
    with pytest.raises(ValueError, match="subgroup-listing order 256 exceeds guard 243"):
        c256.normal_profile_count(2, [1] * 8)


def test_profile_counts_partition_the_normal_subgroups():
    for g in (gr.dihedral(8), gr.quaternion(16), gr.extraspecial(3, "p")):
        p = 2 if g.order % 2 == 0 else 3
        series = g.lower_p_series(p)
        dims = []
        for i in range(len(series) - 1):
            dims.append(
                round(np.log(series[i].size / series[i + 1].size) / np.log(p))
            )
        total = 0
        for u in itertools.product(*[range(x + 1) for x in dims]):
            total += g.normal_profile_count(p, list(u))
        assert total == len(g.normal_subgroups())


def test_lower_p_series_built_once_per_group_and_prime(monkeypatch):
    steps = []
    step = gr.CayleyGroup._p_series_step
    listings = []
    normal_subgroups = gr.CayleyGroup.normal_subgroups

    def counted(self, g_i, p):
        steps.append(g_i.size)
        return step(self, g_i, p)

    def listed(self):
        listings.append(self)
        return normal_subgroups(self)

    monkeypatch.setattr(gr.CayleyGroup, "_p_series_step", counted)
    monkeypatch.setattr(gr.CayleyGroup, "normal_subgroups", listed)
    g = gr.extraspecial(3, "p")
    series = g.lower_p_series(3)
    dims = [round(np.log(series[i].size / series[i + 1].size) / np.log(3)) for i in range(len(series) - 1)]
    total = sum(g.normal_profile_count(3, list(u)) for u in itertools.product(*[range(x + 1) for x in dims]))
    assert len(listings) == 1  # the profile table, over the whole sweep
    assert total == len(g.normal_subgroups())
    assert len(steps) == len(series) - 1  # one step per term after G_1, over the whole sweep
    with pytest.raises(ValueError, match="profile length 3 != lower p-length 2"):
        g.normal_profile_count(3, [0, 0, 0])  # u is checked on every call, not only the first
    with pytest.raises(ValueError):
        series[1][0] = 0  # the stored terms are read-only
    series.clear()
    assert [t.size for t in g.lower_p_series(3)] == [27, 3, 1]
    assert len(steps) == 2


def test_profile_counts_match_the_oracle_on_the_relabelled_catalogs():
    # every u of the sweep, including those no normal subgroup has
    rng = np.random.default_rng(24)
    pairs = 0
    for p, k in ((2, 3), (2, 4), (3, 3)):
        for name, g in catalog(p, k):
            h = _relabel(g, rng.permutation(g.order))
            want = suboracle.normal_profile_counts(h.table.tolist(), p)
            series = h.lower_p_series(p)
            dims = [round(np.log(series[i].size / series[i + 1].size) / np.log(p)) for i in range(len(series) - 1)]
            for u in itertools.product(*[range(x + 1) for x in dims]):
                assert h.normal_profile_count(p, list(u)) == want.pop(u, 0), (name, u)
                pairs += 1
            assert want == {}, name
    assert pairs == 200


def test_normal_subgroups_enumerated_once_per_group(monkeypatch):
    calls = []
    all_subgroups = gr.CayleyGroup.all_subgroups

    def counted(self, *args, **kwargs):
        calls.append(self)
        return all_subgroups(self, *args, **kwargs)

    monkeypatch.setattr(gr.CayleyGroup, "all_subgroups", counted)
    g = gr.semidihedral(16)
    series = g.lower_p_series(2)
    dims = [round(np.log2(series[i].size // series[i + 1].size)) for i in range(len(series) - 1)]
    total = sum(g.normal_profile_count(2, list(u)) for u in itertools.product(*[range(x + 1) for x in dims]))
    assert total == len(g.normal_subgroups())
    assert len(calls) == 1
    normals = g.normal_subgroups()
    with pytest.raises(ValueError):
        normals[0][0] = 1  # cached arrays are read-only
    normals.clear()
    assert len(g.normal_subgroups()) == total
    with pytest.raises(ValueError, match="subgroup-listing order"):
        gr.abelian_of_type(2, (1,) * 8).normal_subgroups()


# ---------------------------------------------------------------------------
# automorphisms


AUT_ORDERS = [
    ("Q8", gr.quaternion(8), 2, 24),
    ("C2^3", gr.abelian_of_type(2, (1, 1, 1)), 2, 168),
    ("C8", gr.cyclic(8), 2, 4),
    ("D8", gr.dihedral(8), 2, 8),
    ("C27", gr.cyclic(27), 3, 18),
]


@pytest.mark.parametrize("name,g,p,want", AUT_ORDERS)
def test_aut_order_frozen(name, g, p, want):
    assert gr.aut_order(g, p) == want


# (with p, without p) for every bundled catalog group
GENERATING_TUPLES = {
    "C8": ([1], [1]), "C4xC2": ([1, 2], [2, 3]), "C2^3": ([1, 2, 4], [1, 2, 4]),
    "D8": ([1, 4], [1, 4]), "Q8": ([1, 4], [1, 4]),
    "C16": ([1], [1]), "C4xC4": ([1, 4], [1, 4]), "C2^2xC4": ([1, 2, 4], [4, 5, 6]),
    "C2^4": ([1, 2, 4, 8], [1, 2, 4, 8]), "C2xC8": ([1, 2], [2, 3]),
    "D16": ([1, 8], [1, 8]), "Q16": ([1, 8], [1, 8]), "SD16": ([1, 8], [1, 9]),
    "M4(2)": ([1, 8], [1, 9]), "D8xC2": ([1, 2, 8], [2, 3, 8]), "Q8xC2": ([1, 2, 8], [2, 3, 8]),
    "D8oC4": ([1, 4, 8], [1, 4, 9]), "(C2xC2):C4": ([1, 4], [1, 5]), "C4:C4": ([1, 4], [1, 4]),
    "C27": ([1], [1]), "C9xC3": ([1, 3], [3, 4]), "C3^3": ([1, 3, 9], [1, 3, 9]),
    "E(3^3,exp 3)": ([1, 9], [1, 3, 9]), "E(3^3,exp 3^2)": ([1, 9], [1, 10]),
    "C125": ([1], [1]), "C25xC5": ([1, 5], [5, 6]), "C5^3": ([1, 5, 25], [1, 5, 25]),
    "E(5^3,exp 5)": ([1, 25], [1, 5, 25]), "E(5^3,exp 5^2)": ([1, 25], [1, 26]),
}


def test_minimal_generating_tuples_frozen():
    got = {name: (gr.minimal_generating_tuple(g, p), gr.minimal_generating_tuple(g))
           for name, g, p in small_catalog_groups(max_order=125)}
    assert got == GENERATING_TUPLES


def test_aut_is_p_group_examples():
    assert gr.aut_is_p_group(gr.dihedral(8), 2)
    assert not gr.aut_is_p_group(gr.quaternion(8), 2)
    assert not gr.aut_is_p_group(gr.cyclic(5), 5)


def test_aut_multiplicative_on_coprime_products():
    c12 = gr.cyclic(12)
    assert gr.aut_order(c12) == gr.aut_order(gr.cyclic(4)) * gr.aut_order(gr.cyclic(3))
    d8c3 = gr.direct_product(gr.dihedral(8), gr.cyclic(3))
    assert gr.aut_order(d8c3) == gr.aut_order(gr.dihedral(8), 2) * gr.aut_order(gr.cyclic(3))


def _kernel_fits(g, p, k):
    """|K| is a p-power and |Aut(G)|/|K|, the image in GL(d,p), divides |GL(d,p)|."""
    aut = gr.aut_order(g, p)
    image, rem = divmod(aut, k)
    power = 1
    while power < k:
        power *= p
    return power == k and rem == 0 and gl_order(len(gr.minimal_generating_tuple(g, p)), p) % image == 0


def test_frattini_action_kernel_is_p_group():
    # the kernel of Aut(G) -> GL(G/Frattini) always has p-power order, and the image lies in GL(d,p)
    for name, g, p in small_catalog_groups(max_order=125):
        assert _kernel_fits(g, p, gr.frattini_action_kernel_order(g, p)), name


@pytest.mark.parametrize("p,n", [(2, 1), (2, 3), (2, 8), (3, 1), (3, 2), (3, 5), (5, 3), (7, 2), (13, 2)])
def test_frattini_kernel_of_cyclic_group(p, n):
    # Aut(C_{p^n}) = (Z/p^n)^*, and the units that are 1 mod p form the kernel
    assert gr.frattini_action_kernel_order(gr.cyclic(p**n), p) == p ** (n - 1)


def test_frattini_kernel_closed_forms():
    # the inner automorphisms of an extraspecial group of order p^3 act trivially
    # on G/Phi = G/Z, and they are all of the kernel; elementary abelian groups have Phi = 1
    groups = {name: (g, p) for name, g, p in small_catalog_groups(max_order=125)}
    for name in ("D8", "Q8", "E(3^3,exp 3)", "E(3^3,exp 3^2)", "E(5^3,exp 5)", "E(5^3,exp 5^2)"):
        g, p = groups[name]
        assert gr.frattini_action_kernel_order(g, p) == p**2, name
    # past the old listing limit of 10^5 automorphisms: |Aut| = 1,488,000 and 20,158,709,760
    for p, d in ((5, 3), (2, 6)):
        assert gr.frattini_action_kernel_order(gr.abelian_of_type(p, (1,) * d), p) == 1


def test_frattini_kernel_checks_can_fail():
    # without the coset cut the chain counts all of Aut(Q8): 24 is neither p^2 nor a p-power
    q8 = gr.quaternion(8)
    uncut = _chain_order(_Search(q8, q8, 2))
    assert (uncut, gr.frattini_action_kernel_order(q8, 2)) == (24, 4)
    assert not _kernel_fits(q8, 2, uncut)


def test_frattini_kernel_needs_a_p_group():
    assert gr.frattini_action_kernel_order(gr.cyclic(1), 2) == 1
    with pytest.raises(ValueError, match="is not a 2-group"):
        gr.frattini_action_kernel_order(gr.cyclic(6), 2)


def test_macdonald_frozen():
    assert gr.macdonald_aut_order((1, 1), 2) == 6
    assert gr.macdonald_aut_order((1,), 5) == 4
    assert gr.macdonald_aut_order((2, 1), 2) == 8
    assert gr.macdonald_aut_order((1, 1, 1), 2) == 168


@pytest.mark.parametrize(
    "p,lam",
    [(2, (2, 1)), (2, (2, 2)), (2, (3, 1)), (3, (1, 1)), (3, (2, 1)), (5, (1, 1)), (5, (3,)), (5, (2, 1))],
)
def test_macdonald_matches_brute_force(p, lam):
    g = gr.abelian_of_type(p, lam)
    assert gr.macdonald_aut_order(lam, p) == gr.aut_order(g, p)


def test_winter_frozen_and_brute():
    assert gr.winter_aut_order(3, 1, "exponent_p") == 432
    assert gr.winter_aut_order(3, 1, "exponent_p2") == 54
    assert gr.winter_aut_order(2, 1, "plus") == 8 == gr.aut_order(gr.dihedral(8), 2)
    assert gr.winter_aut_order(2, 1, "minus") == 24 == gr.aut_order(gr.quaternion(8), 2)
    assert gr.winter_aut_order(5, 1, "exponent_p") == 12000 == gr.aut_order(gr.extraspecial(5, "p"), 5)
    assert gr.winter_aut_order(5, 1, "exponent_p2") == 500 == gr.aut_order(gr.extraspecial(5, "p2"), 5)
    with pytest.raises(ValueError):
        gr.winter_aut_order(3, 1, "plus")


def test_sylow_symmetric_formula_vs_brute_force():
    # the transcribed closed form overshoots at small m; record the comparison
    assert gr.sylow_symmetric_aut_order(3, 1) == 18  # Aut(C_3) actually has order 2
    assert gr.aut_order(gr.cyclic(3)) == 2
    assert gr.sylow_symmetric_aut_order(3, 2) == 972
    assert gr.aut_order(gr.wreath_cp_cp(3), 3) == 324  # brute force disagrees
    assert gr.sylow_symmetric_aut_order(5, 1) == (5 - 1) * 5 ** (5 - 1)
    with pytest.raises(ValueError):
        gr.sylow_symmetric_aut_order(2, 3)


# ---------------------------------------------------------------------------
# catalogs and census


def test_catalog_completeness_fixture():
    for p in (2, 3, 5):
        entries = catalog(p, 3)
        assert len(entries) == 5
        fps = [fingerprint(g) for _, g in entries]
        assert len(set(fps)) == 5  # pairwise distinct invariants
    entries = catalog(2, 4)
    assert len(entries) == 14
    by_fp = {}
    for name, g in entries:
        by_fp.setdefault(fingerprint(g), []).append((name, g))
    for clump in by_fp.values():
        for (n1, g1), (n2, g2) in itertools.combinations(clump, 2):
            assert not gr.are_isomorphic(g1, g2, 2), (n1, n2)


def test_catalog_unknown_order():
    with pytest.raises(ValueError):
        catalog(7, 3)


def test_census_small():
    hits, total, rows = census(2, 3)
    assert (hits, total) == (3, 5)
    by_name = {r.name: r for r in rows}
    assert by_name["Q8"].aut_order == 24 and not by_name["Q8"].aut_is_p_group
    assert by_name["D8"].aut_order == 8 and by_name["D8"].aut_is_p_group


def test_catalog_file_roundtrip(tmp_path):
    path = str(tmp_path / "cat.txt")
    write_catalog(path, [("C8", gr.cyclic(8), 2), ("D8", gr.dihedral(8), 2)])
    back = parse_catalog(path)
    assert [(n, g.order, p) for n, g, p in back] == [("C8", 8, 2), ("D8", 8, 2)]
    assert np.array_equal(back[1][1].table, gr.dihedral(8).table)


def test_parse_catalog_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("this is not a catalog\n")
    with pytest.raises(ValueError):
        parse_catalog(str(path))


@pytest.mark.parametrize("p,k", [(2, 3), (3, 3), (5, 3), (2, 4)])
def test_bundled_catalog_file_roundtrip(tmp_path, p, k):
    # names such as "E(3^3,exp 3)" contain spaces and must survive the trip
    entries = catalog(p, k)
    path = str(tmp_path / "cat.txt")
    write_catalog(path, [(name, g, p) for name, g in entries])
    back = parse_catalog(path)
    assert [name for name, _, _ in back] == [name for name, _ in entries]
    for (_, g), (_, h, q) in zip(entries, back):
        assert q == p
        assert np.array_equal(h.table, g.table)
        assert h.generators == list(g.generators or gr.minimal_generating_tuple(g, p))


def test_parse_catalog_checks_the_order_guard_before_the_rows(tmp_path):
    path = tmp_path / "big.cat"
    path.write_text("group big order 100000 prime 2\n")
    with pytest.raises(ValueError, match="exceeds guard 256"):
        parse_catalog(str(path))
    with guards.override(group_order=10**6), pytest.raises(ValueError, match="promises 100000 table rows"):
        parse_catalog(str(path))


def test_parse_catalog_checks_generators(tmp_path):
    path = tmp_path / "c4.cat"
    write_catalog(str(path), [("C4", gr.cyclic(4), 2)])
    lines = path.read_text().splitlines()
    for gens, match in (("7", "outside 0..3"), ("-1", "outside 0..3"), ("0 2", "do not generate")):
        path.write_text("\n".join(lines[:-1] + ["generators " + gens]) + "\n")
        with pytest.raises(ValueError, match=match):
            parse_catalog(str(path))


def _catalog_lines(tmp_path):
    # the two order-27 groups, whose names contain spaces
    path = tmp_path / "full.txt"
    write_catalog(str(path), [(name, g, 3) for name, g in catalog(3, 3)[3:]])
    return path.read_text().splitlines(keepends=True)


def test_parse_catalog_rejects_missing_and_short_rows(tmp_path):
    lines = _catalog_lines(tmp_path)
    path = tmp_path / "bad.txt"
    path.write_text("".join(lines[:6]))  # the header and 5 of 27 rows
    with pytest.raises(ValueError, match="promises 27 table rows"):
        parse_catalog(str(path))
    lines[3] = " ".join(lines[3].split()[:-1]) + "\n"
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match="length is not 27"):
        parse_catalog(str(path))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_parse_catalog_truncations(tmp_path_factory, data):
    # every prefix of a valid catalog file either parses or raises ValueError
    tmp = tmp_path_factory.mktemp("trunc")
    text = "".join(_catalog_lines(tmp))
    path = tmp / "cut.txt"
    path.write_text(text[: data.draw(st.integers(0, len(text)))])
    try:
        parse_catalog(str(path))
    except ValueError:
        pass


# ---------------------------------------------------------------------------
# quotients and products


def test_quotient_and_central_product():
    d8 = gr.dihedral(8)
    z = int(d8.center()[d8.center() != d8.identity][0])
    c4 = gr.cyclic(4)
    pauli = gr.central_product(d8, c4, z, c4.power(1, 2))
    assert pauli.order == 16
    assert pauli.center().size == 4
    q8 = gr.quaternion(8)
    zq = int(q8.center()[q8.center() != q8.identity][0])
    also_pauli = gr.central_product(q8, c4, zq, c4.power(1, 2))
    assert gr.are_isomorphic(pauli, also_pauli, 2)


def test_central_product_requires_matching_orders():
    d8 = gr.dihedral(8)
    z = int(d8.center()[d8.center() != d8.identity][0])
    c4 = gr.cyclic(4)
    with pytest.raises(ValueError):
        gr.central_product(d8, c4, z, 1)  # generator of C4 has order 4, not 2


def test_quotient_of_center():
    q8 = gr.quaternion(8)
    q, proj = gr.quotient_group(q8, q8.center())
    assert q.order == 4 and q.is_abelian()
    assert q.exponent() == 2  # Q8 / Z is the Klein group


def test_frattini_frozen_examples():
    assert gr.abelian_of_type(2, (1, 1, 1)).frattini(2).size == 1
    c4 = gr.cyclic(4)
    assert c4.frattini(2).tolist() == [0, c4.power(1, 2)]
    q8 = gr.quaternion(8)
    assert q8.frattini(2).tolist() == sorted(int(x) for x in q8.center())


def test_aut_of_trivial_group():
    triv = gr.cyclic(1)
    assert gr.aut_order(triv) == 1
    assert gr.aut_order(triv, 2) == 1


def test_aut_is_p_group_odd_cyclic():
    assert not gr.aut_is_p_group(gr.cyclic(5), 5)  # order p-1 = 4
    assert not gr.aut_is_p_group(gr.cyclic(27), 3)  # order 18


def test_aut_node_guard():
    c2_4 = gr.abelian_of_type(2, (1,) * 4)
    with guards.override(search_nodes=20), pytest.raises(ValueError, match=r"search nodes \d+ exceeds guard 20"):
        _chain_order(_Search(c2_4, c2_4, 2))
    s = _Search(c2_4, c2_4, 2)
    with guards.override(search_nodes=5), pytest.raises(ValueError, match="search nodes"):
        next(s.extensions(0, *s.fixed_prefix(0)))


@pytest.mark.parametrize("p,lam", [(2, (1,) * 6), (3, (1,) * 4), (5, (1,) * 3), (2, (1,) * 5)])
def test_aut_order_of_large_elementary_abelian_groups(p, lam):
    # |GL(6,2)| = 20,158,709,760 is far beyond listing automorphisms one by one
    assert gr.aut_order(gr.abelian_of_type(p, lam), p) == gr.macdonald_aut_order(lam, p)


def _oracle_groups():
    # the catalogs hold D8, Q8, D16 and Q16; C_n gets its prime when n is a prime power
    out = [pytest.param(g, p, id=name) for p, k in ((2, 3), (2, 4)) for name, g in catalog(p, k)]
    for n in range(1, 17):
        primes = [q for q in range(2, n + 1) if n % q == 0 and all(q % r for r in range(2, q))]
        out.append(pytest.param(gr.cyclic(n), primes[0] if len(primes) == 1 else None, id=f"cyclic{n}"))
    return out


@pytest.mark.parametrize("g,p", _oracle_groups())
def test_aut_order_matches_pure_python_oracle(g, p):
    auts = automorphisms(g.table)
    assert gr.aut_order(g) == len(auts)
    if p is not None:
        assert gr.aut_order(g, p) == len(auts)
        assert gr.frattini_action_kernel_order(g, p) == frattini_kernel_count(g.table, p, auts)
