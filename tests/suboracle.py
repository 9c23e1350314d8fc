"""Oracle: every subgroup of a finite group, from its raw Cayley table.

Starting from the trivial group, each known subgroup H and each element g
outside it give the closure of H u {g} under products read from the table.
Every subgroup is reached this way, one element at a time: a subgroup K with
elements k_1, ..., k_r is the last of the closures of {e, k_1, ..., k_i}.
A finite set closed under products is a subgroup, so no inverses are taken.

The normal subgroups are those closed under conjugation g h g^-1, and the
lower p-series is G_1 = G, G_(i+1) = <x^p, [x, g] : x in G_i, g in G>, each
term closed from those generators one element at a time.  Standard library
only.
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


def _span(table, identity, gens):
    h = frozenset([identity])
    for g in gens:
        if g not in h:
            h = _close(table, h, g)
    return h


def normal_profile_counts(table, p):
    """{profile u: number of normal subgroups N with p^u_i = |N & G_i| / |N & G_(i+1)|}."""
    table = [list(map(int, row)) for row in table]
    n = len(table)
    e = _identity(table)
    inv = [next(y for y in range(n) if table[x][y] == e) for x in range(n)]
    normals = [h for h in subgroups(table)
               if all(table[table[g][x]][inv[g]] in h for g in range(n) for x in h)]
    series = [frozenset(range(n))]
    while len(series[-1]) > 1:
        gens = []
        for x in series[-1]:
            power = e
            for _ in range(p):
                power = table[power][x]
            gens.append(power)
            gens += [table[table[inv[x]][inv[g]]][table[x][g]] for g in range(n)]
        series.append(_span(table, e, gens))
    counts = {}
    for h in normals:
        u = tuple(next(k for k in range(n) if len(h & lower) * p**k == len(h & upper))
                  for upper, lower in zip(series, series[1:]))
        counts[u] = counts.get(u, 0) + 1
    return counts
