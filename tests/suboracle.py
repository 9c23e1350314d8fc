"""Oracle: every subgroup of a finite group, from its raw Cayley table.

Starting from the trivial group, each known subgroup H and each element g
outside it give the closure of H u {g} under products read from the table.
Every subgroup is reached this way, one element at a time: a subgroup K with
elements k_1, ..., k_r is the last of the closures of {e, k_1, ..., k_i}.
A finite set closed under products is a subgroup, so no inverses are taken.
Standard library only.
"""


def _identity(table):
    n = len(table)
    return next(e for e in range(n) if list(table[e]) == list(range(n)))


def _close(table, h, g):
    """The closure of the subgroup h (a frozenset) and the element g under products."""
    members = set(h)
    members.add(g)
    fresh = [g]  # products of two members of h are already in h
    while fresh:
        x = fresh.pop()
        for y in list(members):
            for z in (table[x][y], table[y][x]):
                if z not in members:
                    members.add(z)
                    fresh.append(z)
    return frozenset(members)


def subgroups(table):
    """Every subgroup of the group with this table, as a set of frozensets of indices."""
    table = [list(map(int, row)) for row in table]
    trivial = frozenset([_identity(table)])
    found = {trivial}
    todo = [trivial]
    while todo:
        h = todo.pop()
        for g in range(len(table)):
            if g not in h:
                k = _close(table, h, g)
                if k not in found:
                    found.add(k)
                    todo.append(k)
    return found
