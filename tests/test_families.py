"""The group table builders against the per-entry oracle in tests/familyoracle.py.

Each case compares the whole table, the generators and the element data, so
a builder that numbers the elements differently fails even when its table is
a valid group isomorphic to the right one.
"""
import numpy as np
import pytest

import familyoracle as orc
from pgrouplab import groups as gr


def _meta(m, n, t, s):
    table, gens = orc.metacyclic(m, n, t, s)
    return table, gens, None


def _ut(size, p):
    table, data = orc.ut_group(size, p)
    return table, None, data


def _abelian(p, lam):
    return orc.abelian_of_type(p, lam), None, None


def _c2sq_c4():
    swap = [0, 2, 1, 3]
    ident = [0, 1, 2, 3]
    acts = [ident, swap] * 2
    return orc.semidirect_product(orc.abelian_of_type(2, (1, 1)), orc.cyclic(4), acts), None, None


def _d8_central_c4():
    # a^2 = element 2 spans the centre of D8, and (a^2, (g^2)^-1) = 2*4 + 2
    prod = orc.direct_product(orc.metacyclic(4, 2, 3, 0)[0], orc.cyclic(4))
    return orc.quotient_group(prod, [0, 10])[0], None, None


def _times_c2(m, n, t, s):
    return orc.direct_product(orc.metacyclic(m, n, t, s)[0], orc.cyclic(2)), None, None


def _catalog_oracles():
    out = {
        "C8": lambda: _abelian(2, (3,)),
        "C4xC2": lambda: _abelian(2, (2, 1)),
        "C2^3": lambda: _abelian(2, (1, 1, 1)),
        "D8": lambda: _meta(4, 2, 3, 0),
        "Q8": lambda: _meta(4, 2, 3, 2),
        "C16": lambda: _abelian(2, (4,)),
        "C4xC4": lambda: _abelian(2, (2, 2)),
        "C2^2xC4": lambda: _abelian(2, (2, 1, 1)),
        "C2^4": lambda: _abelian(2, (1, 1, 1, 1)),
        "C2xC8": lambda: _abelian(2, (3, 1)),
        "D16": lambda: _meta(8, 2, 7, 0),
        "Q16": lambda: _meta(8, 2, 7, 4),
        "SD16": lambda: _meta(8, 2, 3, 0),
        "M4(2)": lambda: _meta(8, 2, 5, 0),
        "D8xC2": lambda: _times_c2(4, 2, 3, 0),
        "Q8xC2": lambda: _times_c2(4, 2, 3, 2),
        "D8oC4": _d8_central_c4,
        "(C2xC2):C4": _c2sq_c4,
        "C4:C4": lambda: _meta(4, 4, 3, 0),
    }
    for p in (3, 5):
        out[f"C{p**3}"] = lambda p=p: _abelian(p, (3,))
        out[f"C{p**2}xC{p}"] = lambda p=p: _abelian(p, (2, 1))
        out[f"C{p}^3"] = lambda p=p: _abelian(p, (1, 1, 1))
        out[f"E({p}^3,exp {p})"] = lambda p=p: _ut(3, p)
        out[f"E({p}^3,exp {p}^2)"] = lambda p=p: _meta(p * p, p, 1 + p, 0)
    return out


CATALOG_ORACLES = _catalog_oracles()

METACYCLIC = [
    (8, 4, 3, 0), (8, 4, 5, 0), (4, 4, 3, 2), (9, 3, 4, 0), (9, 3, 7, 3), (16, 4, 5, 0), (7, 3, 2, 0)
]

FAMILY_CASES = (
    [(f"D{2 * m}", lambda m=m: gr.dihedral(2 * m), lambda m=m: _meta(m, 2, m - 1, 0))
     for m in range(2, 129)]
    + [(f"Q{o}", lambda o=o: gr.quaternion(o), lambda o=o: _meta(o // 2, 2, o // 2 - 1, o // 4))
       for o in (8, 16, 32, 64, 128)]
    + [(f"SD{o}", lambda o=o: gr.semidihedral(o), lambda o=o: _meta(o // 2, 2, o // 4 - 1, 0))
       for o in (16, 32, 64, 128)]
    + [(f"M{k}({p})", lambda p=p, k=k: gr.modular_group(p, k),
        lambda p=p, k=k: _meta(p ** (k - 1), p, 1 + p ** (k - 2), 0))
       for p, ks in ((2, range(3, 8)), (3, range(3, 6)), (5, (3,))) for k in ks]
    + [(f"UT({s},{p})", lambda s=s, p=p: gr.ut_group(s, p), lambda s=s, p=p: _ut(s, p))
       for s, p in ((3, 2), (3, 3), (3, 5), (4, 2))]
    + [(f"E({p}^3,{e})", lambda p=p, e=e: gr.extraspecial(p, e),
        (lambda p=p: _ut(3, p)) if e == "p" else (lambda p=p: _meta(p * p, p, 1 + p, 0)))
       for p in (3, 5) for e in ("p", "p2")]
    + [(f"C{p}wrC{p}", lambda p=p: gr.wreath_cp_cp(p), lambda p=p: (orc.wreath_cp_cp(p), None, None))
       for p in (2, 3)]
    + [("(C2xC2):C4", gr.c2sq_semidirect_c4, _c2sq_c4),
       ("C4:C4", gr.c4_semidirect_c4, lambda: _meta(4, 4, 3, 0))]
    + [(f"M{args}", lambda args=args: gr.metacyclic(*args), lambda args=args: _meta(*args))
       for args in METACYCLIC]
)


def _catalog_groups():
    return [(name, g) for p, k in gr.catalog_orders() for name, g in gr.catalog(p, k)]


def test_catalog_oracles_cover_the_catalogs():
    names = [name for name, _ in _catalog_groups()]
    assert sorted(names) == sorted(CATALOG_ORACLES)
    assert len(FAMILY_CASES) + len(names) == 193


def _assert_same(g, expected, label):
    table, gens, data = expected
    assert g.table.tolist() == table, label
    assert (g.generators, g.data) == (gens, data), label


@pytest.mark.parametrize("label,build,oracle", FAMILY_CASES, ids=[c[0] for c in FAMILY_CASES])
def test_family_tables_match_oracle(label, build, oracle):
    _assert_same(build(), oracle(), label)


def test_catalog_tables_match_oracle():
    for name, g in _catalog_groups():
        _assert_same(g, CATALOG_ORACLES[name](), name)


def test_quotients_and_subgroups_match_oracle():
    for name, g in _catalog_groups():
        rows = g.table.tolist()
        for normal in g.normal_subgroups():
            q, proj = gr.quotient_group(g, normal)
            table, want_proj = orc.quotient_group(rows, normal.tolist())
            assert (q.table.tolist(), proj.tolist()) == (table, want_proj), name
            assert proj.dtype == np.int32
        for sub in g.all_subgroups():
            want = orc.subgroup_as_group(rows, sub.tolist())
            assert gr.subgroup_as_group(g, sub).table.tolist() == want, name


def test_subgroup_as_group_rejects_a_non_subgroup():
    with pytest.raises(ValueError):
        gr.subgroup_as_group(gr.dihedral(8), np.array([0, 1]))
