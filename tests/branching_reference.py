"""The one-strip branching rule, as an oracle for coinvariant quotients.

Removing a horizontal strip of size m: the quotient of S^lam by the tail
coinvariants of size m decomposes over H_{|lam|-m} as the sum of S^mu over
mu with lam in pieri_add(mu, m), each once.  ``verify`` checks only the
strip a = |lam|; the tests compare every strip size against this rule.
"""

from heckestab.partitions import partitions_of, pieri_add
from heckestab.specht import coinvariant_quotient, decompose, specht_module


def branching_check(lam, m: int) -> dict:
    """Compare coinvariants of S^lam against the one-strip branching oracle."""
    n = sum(lam)
    if not 0 <= m <= n:
        raise ValueError(f"strip size {m} outside 0..{n}")
    a = n - m
    V = specht_module(lam)
    quotient, _ = coinvariant_quotient(V, a)
    computed = decompose(quotient) if quotient.dim else {}
    expected = {
        mu: 1 for mu in partitions_of(a) if tuple(lam) in pieri_add(mu, m)
    }
    return {
        "lam": tuple(lam),
        "m": m,
        "computed": computed,
        "expected": expected,
        "match": computed == expected,
    }
