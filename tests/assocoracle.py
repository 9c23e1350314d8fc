"""Oracle: associativity of a Cayley table by checking every triple.

This is the n^3 check the CayleyGroup constructor made before it used
Light's test; the tests compare the constructor's verdicts against it.
"""
import numpy as np


def is_associative(table) -> bool:
    """Whether t[t[a, b], c] == t[a, t[b, c]] for all a, b, c.

    Chunked over the first axis so that no temporary exceeds 2^22 entries.
    """
    t = np.asarray(table)
    n = t.shape[0]
    chunk = max(1, 2**22 // max(1, n * n))
    for a0 in range(0, n, chunk):
        rows = t[a0 : a0 + chunk]
        left = t[rows, :]  # [a, b, c] = t[t[a0+a, b], c]
        right = rows[:, t]  # [a, b, c] = t[a0+a, t[b, c]]
        if not np.array_equal(left, right):
            return False
    return True
