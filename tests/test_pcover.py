"""`fplin.wedge_module` against the p-covering group R of C_p^d that `pcover` builds.

The module is GL(d,p) on the multiplicator M of R, and each orbit of subspaces N
of M stands for one group R/N: a d-generator group of p-class at most 2 and order
p^(d + codim N).  Aut(R/N) -> GL(d,p) has image Stab(N) and a kernel of order
p^(d codim N), so the orbits are checked against the groups themselves.
"""
import collections
import functools
import math
import random

import numpy as np
import pytest

import pcover
from pgrouplab import fplin as fp
from pgrouplab import groups as gr
from pgrouplab.groups.cayley import is_p_power

# every orbit of (2,2) and (2,3), and the orbits with dim N >= 2 of (3,2) and (2,5)
GROUP_CASES = ((2, 2, 0), (2, 3, 0), (3, 2, 2), (2, 5, 2))  # d, p, least dim N


def _log(n, p):
    return round(math.log(n, p))


@functools.lru_cache(maxsize=None)
def _orbits(d, p):
    return pcover.orbits(d, p)


@functools.lru_cache(maxsize=None)
def _module(d, p):
    return fp.wedge_module(d, p)


@functools.lru_cache(maxsize=None)
def _groups():
    """(d, p, N, R/N, |Aut(R/N)|) for one N per orbit of GROUP_CASES."""
    out = []
    for d, p, least in GROUP_CASES:
        for sub, _, _ in _orbits(d, p):
            if _log(len(sub), p) >= least:
                g = gr.CayleyGroup(pcover.quotient_table(d, p, sub))
                out.append((d, p, sub, g, gr.aut_order(g, p)))
    return out


def _stabiliser_order(action, sub):
    """How many elements of the action map the subspace sub, a set of vectors, onto itself."""
    p, m = action.p, action.dim
    mask = np.zeros(p**m, dtype=bool)
    mask[[sum(x * p ** (m - 1 - i) for i, x in enumerate(v)) for v in sub]] = True  # big-endian indices
    return int((mask[action.perms] == mask).all(axis=1).sum())


def _split_matrix(g, p):
    """The split model V + wedge(V,V): `wedge_matrix` without the C(p,2) block."""
    d = len(g)
    return tuple(row if i < d else (0,) * d + row[d:] for i, row in enumerate(fp.wedge_matrix(g, p)))


@pytest.mark.parametrize("d, p", [(2, 2), (3, 2), (2, 3), (2, 5)])
def test_wedge_matrix_is_the_lifted_action_on_every_element(d, p):
    for g in fp.gl_enumerate(d, p):
        assert fp.wedge_matrix(g, p) == pcover.lifted_matrix(g, p), g


def test_wedge_matrix_is_the_lifted_action_on_a_sample_of_gl33():
    rng, seen = random.Random(27), 0
    while seen < 1000:
        g = tuple(tuple(rng.randrange(3) for _ in range(3)) for _ in range(3))
        if fp.is_invertible(g, 3):
            seen += 1
            assert fp.wedge_matrix(g, 3) == pcover.lifted_matrix(g, 3), g


@pytest.mark.parametrize("d, p", [(2, 2), (3, 2), (2, 3), (2, 5)])
def test_orbit_census_equals_the_generator_closure(d, p):
    oracle = collections.Counter((size, stab) for _, size, stab in _orbits(d, p))
    assert oracle == collections.Counter(fp.regular_orbits(_module(d, p)).orbits)
    assert sum(oracle.values()) == {(2, 2): 8, (3, 2): 68, (2, 3): 8, (2, 5): 8}[(d, p)]


def test_aut_orders_are_stabiliser_orders_times_the_kernel():
    groups = _groups()
    assert len(groups) == 83
    for d, p, sub, g, aut in groups:
        codim = d + len(fp.wedge_pairs(d)) - _log(len(sub), p)
        assert g.order == p ** (d + codim)
        stab, kernel = _stabiliser_order(_module(d, p), sub), p ** (d * codim)
        assert aut == stab * kernel, (d, p, sorted(sub))
        assert gr.frattini_action_kernel_order(g, p) == kernel
        assert gr.aut_is_p_group(g, p) == is_p_power(stab, p)


def test_no_two_orbits_give_isomorphic_groups():
    keys = collections.defaultdict(list)
    for _, p, _, g, aut in _groups():
        keys[g.order, gr.fingerprint(g), aut].append((g, p))
    assert len(keys) == 80
    for same in keys.values():
        for i, (a, p) in enumerate(same):
            assert not any(gr.are_isomorphic(a, b, p) for b, _ in same[i + 1:])


@pytest.mark.parametrize("p, k, by_rank", [
    (2, 3, {2: 3, 3: 1}), (2, 4, {2: 3, 3: 4, 4: 1}), (3, 3, {2: 3, 3: 1}),
])
def test_catalog_groups_of_p_class_two_are_the_orbits(p, k, by_rank):
    ranks = collections.Counter(
        _log(g.order // g.frattini(p).size, p)
        for _, g in gr.catalog(p, k) if len(g.lower_p_series(p)) <= 3)
    assert ranks == by_rank
    for d, count in by_rank.items():
        codim = k - d
        if codim == 0:  # N = M is the one subspace of codimension 0
            assert count == 1
            continue
        dim = d + len(fp.wedge_pairs(d)) - codim
        assert count == sum(_log(len(sub), p) == dim for sub, _, _ in _orbits(d, p))


def test_split_model_fails_both_checks():
    # the module V + wedge(V,V) without the C(p,2) block: 70 orbits at (3,2), not 68
    split = fp.LinearAction(tuple(_split_matrix(g, 2) for g in fp.gl_enumerate(3, 2)), 2, 6)
    census = fp.regular_orbits(split)
    assert (census.orbit_count, census.regular_count) == (70, 3)
    assert collections.Counter(census.orbits) != collections.Counter((size, stab) for _, size, stab in _orbits(3, 2))
    # and at (2,2) its stabilisers miss |Aut(R/N)| on 2 of the 8 orbit representatives
    split = fp.LinearAction(tuple(_split_matrix(g, 2) for g in fp.gl_enumerate(2, 2)), 2, 3)
    wrong = [sub for d, p, sub, _, aut in _groups() if (d, p) == (2, 2)
             and aut != _stabiliser_order(split, sub) * 2 ** (2 * (3 - _log(len(sub), 2)))]
    assert len(wrong) == 2
