"""Bundled group catalogs, the small-order census, and catalog file IO.

The catalogs are built from constructors; completeness (right count, pairwise
non-isomorphic) is certified by the test fixtures, not by an external list.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .aut import aut_order, minimal_generating_tuple
from .cayley import ORDER_GUARD, CayleyGroup, check_order, direct_product, is_p_power
from .families import (
    abelian_of_type,
    c2sq_semidirect_c4,
    c4_semidirect_c4,
    central_product,
    cyclic,
    dihedral,
    extraspecial,
    modular_group,
    quaternion,
    semidihedral,
)


def _order8_catalog() -> List[Tuple[str, CayleyGroup]]:
    return [
        ("C8", cyclic(8)),
        ("C4xC2", abelian_of_type(2, (2, 1))),
        ("C2^3", abelian_of_type(2, (1, 1, 1))),
        ("D8", dihedral(8)),
        ("Q8", quaternion(8)),
    ]


def _odd_p3_catalog(p: int) -> List[Tuple[str, CayleyGroup]]:
    return [
        (f"C{p**3}", cyclic(p**3)),
        (f"C{p**2}xC{p}", abelian_of_type(p, (2, 1))),
        (f"C{p}^3", abelian_of_type(p, (1, 1, 1))),
        (f"E({p}^3,exp {p})", extraspecial(p, "p")),
        (f"E({p}^3,exp {p}^2)", extraspecial(p, "p2")),
    ]


def _order16_catalog() -> List[Tuple[str, CayleyGroup]]:
    d8 = dihedral(8)
    q8 = quaternion(8)
    c4 = cyclic(4)
    c2 = cyclic(2)
    d8_center = int(d8.center()[d8.center() != d8.identity][0])
    c4_square = c4.power(1, 2)
    return [
        ("C16", cyclic(16)),
        ("C4xC4", abelian_of_type(2, (2, 2))),
        ("C2^2xC4", abelian_of_type(2, (2, 1, 1))),
        ("C2^4", abelian_of_type(2, (1, 1, 1, 1))),
        ("C2xC8", abelian_of_type(2, (3, 1))),
        ("D16", dihedral(16)),
        ("Q16", quaternion(16)),
        ("SD16", semidihedral(16)),
        ("M4(2)", modular_group(2, 4)),
        ("D8xC2", direct_product(d8, c2, name="D8xC2")),
        ("Q8xC2", direct_product(q8, c2, name="Q8xC2")),
        ("D8oC4", central_product(d8, c4, d8_center, c4_square, name="D8oC4")),
        ("(C2xC2):C4", c2sq_semidirect_c4()),
        ("C4:C4", c4_semidirect_c4()),
    ]


_CATALOGS = {
    (2, 3): _order8_catalog,
    (3, 3): lambda: _odd_p3_catalog(3),
    (5, 3): lambda: _odd_p3_catalog(5),
    (2, 4): _order16_catalog,
}


def catalog(p: int, k: int) -> List[Tuple[str, CayleyGroup]]:
    """The bundled catalog of all groups of order p^k."""
    try:
        builder = _CATALOGS[(p, k)]
    except KeyError:
        raise ValueError(f"no bundled catalog for order {p}^{k}") from None
    return builder()


def catalog_orders() -> List[Tuple[int, int]]:
    return sorted(_CATALOGS)


def fingerprint(g: CayleyGroup) -> tuple:
    """Cheap isomorphism invariants used to pre-sort catalog entries."""
    orders = tuple(sorted(int(x) for x in g.element_orders()))
    return (
        g.order,
        orders,
        int(g.center().size),
        int(g.derived_subgroup().size),
        g.exponent(),
        g.is_abelian(),
    )


@dataclass(frozen=True)
class CensusRow:
    name: str
    aut_order: int
    aut_is_p_group: bool


def census(
    p: int, k: int, entries: Optional[Sequence[Tuple[str, CayleyGroup]]] = None
) -> Tuple[int, int, List[CensusRow]]:
    """Proportion of catalog groups whose automorphism group is a p-group."""
    entries = list(entries) if entries is not None else catalog(p, k)
    rows = []
    for name, g in entries:
        n = aut_order(g, p)
        rows.append(CensusRow(name=name, aut_order=n, aut_is_p_group=is_p_power(n, p)))
    hits = sum(1 for r in rows if r.aut_is_p_group)
    return hits, len(rows), rows


# ---------------------------------------------------------------------------
# catalog file format


def write_catalog(path: str, entries: Sequence[Tuple[str, CayleyGroup, int]]):
    """Write groups in the line-oriented catalog format.

    Each entry is: header "group <name> order <n> prime <p>", n table rows,
    then a "generators i j ..." line.
    """
    with open(path, "w") as fh:
        for name, g, p in entries:
            fh.write(f"group {name} order {g.order} prime {p}\n")
            for row in g.table:
                fh.write(" ".join(str(int(x)) for x in row) + "\n")
            gens = g.generators or minimal_generating_tuple(g, p)
            fh.write("generators " + " ".join(str(int(x)) for x in gens) + "\n")


def parse_catalog(path: str, guard: int = ORDER_GUARD) -> List[Tuple[str, CayleyGroup, int]]:
    """Read the format of `write_catalog`; malformed or truncated files raise ValueError.

    A name may contain spaces: it is everything between "group" and the
    trailing "order <n> prime <p>".  A generators line must name elements of
    the table that generate the whole group.
    """
    entries = []
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    i = 0
    while i < len(lines):
        head = lines[i].rsplit(maxsplit=4)
        lead = head[0].split(maxsplit=1)
        if len(head) != 5 or len(lead) != 2 or (lead[0], head[1], head[3]) != ("group", "order", "prime"):
            raise ValueError(f"malformed catalog header: {lines[i]!r}")
        name, n, p = lead[1], int(head[2]), int(head[4])
        check_order(n, guard)
        if i + 1 + n > len(lines):
            raise ValueError(f"catalog entry {name!r} promises {n} table rows, the file ends first")
        rows = [list(map(int, lines[i + 1 + r].split())) for r in range(n)]
        if any(len(row) != n for row in rows):
            raise ValueError(f"catalog entry {name!r} has a table row whose length is not {n}")
        i += 1 + n
        gens = None
        if i < len(lines) and lines[i].startswith("generators"):
            gens = [int(x) for x in lines[i].split()[1:]]
            i += 1
        g = CayleyGroup(np.array(rows), name=name, generators=gens, guard=guard)
        if gens is not None:
            if any(not 0 <= x < n for x in gens):
                raise ValueError(f"catalog entry {name!r} has a generator outside 0..{n - 1}")
            if g.closure(gens).size != n:
                raise ValueError(f"the generators of catalog entry {name!r} do not generate it")
        entries.append((name, g, p))
    return entries
