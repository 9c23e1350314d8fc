"""Every resource limit of pgrouplab: declared, checked and widened here.

A guard refuses an input before the work it bounds starts, with a ValueError
in one format, "<what> <value> exceeds guard <limit>".  Lower bounds of a
domain, such as a step count of at least 0, are checked by their functions.
"""
from __future__ import annotations

import contextlib
import math
from typing import Dict, Iterator

_TABLE = {  # name: (limit, what the checked value counts)
    "group_order": (256, "group order"),  # checked before a Cayley table is built
    "subgroup_order": (243, "subgroup-listing order"),  # C_3^5, the largest group the oracles enumerate
    "search_nodes": (10**7, "search nodes"),  # candidate images tried, over one whole Aut(G) search
    "subspace_count": (10**6, "subspace count"),
    # never widened: every larger GL(d,p) has a permutation table above the next limit
    "gl_order": (10**6, "GL(d,p) order"),
    # entries of LinearAction.perms (128 MB), and dim x vectors of one element
    "permutation_table": (2**25, "permutation table entries"),
    "decompose_dim": (8, "decompose dimension"),
    "walk_states": (10**6, "walk states"),
    "walk_steps": (10**5, "step count"),
    "lie_alphabet": (8, "alphabet size"),
    "lie_degree": (12, "Lie degree"),
    # d^n, about n times the Lyndon words of degree n; the witt/Lyndon checks reach 5^8 = 390,625
    "lie_words": (10**6, "words of one degree"),
    # the product of d_j + 1 over j = 1..n bounds every level: 23,847,048 at (d, n) = (7, 4),
    # the largest pair the appendix estimates reach; (4, 5) needs 4.6e7 and (6, 5) 1.1e10
    "gaussprods_terms": (2**25, "gaussprods level terms"),
    # never widened: trial division by up to 10^6 factors takes about 0.1 s
    "prime_candidate": (10**12, "prime candidate"),
}
LIMITS: Dict[str, int] = {name: limit for name, (limit, _) in _TABLE.items()}
UNSAFE_LIMIT = 10**12  # what --unsafe-limits sets


def check(name: str, value: int):
    """Raise ValueError when value passes the limit in force for the guard `name`."""
    if value > LIMITS[name]:
        raise ValueError(f"{_TABLE[name][1]} {_shown(value)} exceeds guard {LIMITS[name]}")


def _shown(value: int) -> str:
    """value in full, or as "about 10^k" when it is too long to write out.

    Its size is read from bit_length, since str() itself refuses an int of
    more than 4,300 digits; 10,000 bits is about 3,000 digits.
    """
    if int(value).bit_length() <= 10_000:
        return str(value)
    return f"about 10^{round(math.log10(value))}"


@contextlib.contextmanager
def override(**limits: int) -> Iterator[None]:
    """Set the named limits for the body of a `with` block, restored even when it raises."""
    saved = {name: LIMITS[name] for name in limits}  # KeyError on an unknown name
    LIMITS.update(limits)
    try:
        yield
    finally:
        LIMITS.update(saved)


def widened(*names: str):
    """`override` with each named limit at UNSAFE_LIMIT."""
    return override(**dict.fromkeys(names, UNSAFE_LIMIT))
