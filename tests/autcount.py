"""Pure-Python automorphism counts for small Cayley tables.

An oracle for `pgrouplab.groups.aut`: it shares none of its code.  It picks
a generating tuple by a plain closure loop, tries every tuple of generator
images, and keeps each one that defines a bijective homomorphism, checked
against every product in the table.
"""
import itertools
from typing import List, Sequence

ORACLE_ORDER_LIMIT = 16


def _closure(table: Sequence[Sequence[int]], gens: Sequence[int], identity: int) -> set:
    members = {identity}
    frontier = [identity]
    while frontier:
        x = frontier.pop()
        for s in gens:
            y = table[x][s]
            if y not in members:
                members.add(y)
                frontier.append(y)
    return members


def _generating_tuple(table: Sequence[Sequence[int]], identity: int) -> List[int]:
    gens: List[int] = []
    span = {identity}
    for x in range(len(table)):
        if x not in span:
            gens.append(x)
            span = _closure(table, gens, identity)
    return gens


def count_automorphisms(table) -> int:
    """|Aut(G)| for the group with this multiplication table (order <= 16)."""
    table = [list(map(int, row)) for row in table]
    n = len(table)
    if n > ORACLE_ORDER_LIMIT:
        raise ValueError(f"order {n} is above the oracle's limit {ORACLE_ORDER_LIMIT}")
    identity = next(e for e in range(n) if table[e] == list(range(n)))
    gens = _generating_tuple(table, identity)
    # a word for every element: element -> (parent, generator position)
    word = {identity: None}
    order = [identity]
    for x in order:
        for pos, s in enumerate(gens):
            y = table[x][s]
            if y not in word:
                word[y] = (x, pos)
                order.append(y)
    count = 0
    for images in itertools.product(range(n), repeat=len(gens)):
        phi = [0] * n
        phi[identity] = identity
        for x in order[1:]:
            parent, pos = word[x]
            phi[x] = table[phi[parent]][images[pos]]
        if len(set(phi)) != n:
            continue
        if all(phi[table[a][b]] == table[phi[a]][phi[b]] for a in range(n) for b in range(n)):
            count += 1
    return count
