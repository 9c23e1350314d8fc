"""Pure-Python automorphism lists for small Cayley tables.

An oracle for `pgrouplab.groups.aut`: it shares none of its code.  It picks
a generating tuple by a plain closure loop, tries every tuple of generator
images, and keeps each one that defines a bijective homomorphism, checked
against every product in the table.  |Aut(G)| is the length of that list,
and the kernel of the action on G/Phi(G) is the part of it that moves every
x only within x Phi(G), with Phi(G) closed from p-th powers and commutators.
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


def automorphisms(table) -> List[List[int]]:
    """Every automorphism of the group with this multiplication table (order <= 16),
    each as the list of images of 0, ..., n-1."""
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
    auts = []
    for images in itertools.product(range(n), repeat=len(gens)):
        phi = [0] * n
        phi[identity] = identity
        for x in order[1:]:
            parent, pos = word[x]
            phi[x] = table[phi[parent]][images[pos]]
        if len(set(phi)) != n:
            continue
        if all(phi[table[a][b]] == table[phi[a]][phi[b]] for a in range(n) for b in range(n)):
            auts.append(phi)
    return auts


def frattini_kernel_count(table, p: int, auts: Sequence[Sequence[int]]) -> int:
    """How many of auts satisfy phi(x) x^-1 in Phi(G) for every x, G a p-group."""
    table = [list(map(int, row)) for row in table]
    n = len(table)
    identity = next(e for e in range(n) if table[e] == list(range(n)))
    inverse = [table[x].index(identity) for x in range(n)]
    gens = set()
    for x in range(n):
        power = identity
        for _ in range(p):
            power = table[power][x]
        gens.add(power)
        gens.update(table[table[inverse[x]][inverse[y]]][table[x][y]] for y in range(n))
    phi_g = _closure(table, sorted(gens), identity)
    return sum(all(table[phi[x]][inverse[x]] in phi_g for x in range(n)) for phi in auts)
