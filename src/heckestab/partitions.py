"""Partitions, padded partitions, tableaux, and the horizontal-strip oracle.

A partition is a tuple of weakly decreasing positive integers; the empty
tuple is the empty partition.  A composition is any tuple of nonnegative
integers.  Standard Young tableaux are tuples of row tuples.

The combinatorial predictions here (pieri_add, stable_multiplicity_oracle,
row_standard_tableaux) are deliberately independent of the algebra modules
so they can serve as oracles for algebraic decompositions.  So is
hecke_character, the q-Murnaghan-Nakayama rule, which the character
tables are read from.
"""

from __future__ import annotations

from functools import cache
from math import comb, factorial

__all__ = [
    "partitions_of",
    "is_partition",
    "conjugate",
    "pad",
    "unpad",
    "pieri_add",
    "hooks",
    "syt_count",
    "syt_enumerate",
    "hecke_character",
    "row_standard_tableaux",
    "stable_multiplicity_oracle",
    "partition_label",
    "parse_partition_label",
]

SYT_BOUND = 8


def is_partition(lam) -> bool:
    lam = tuple(lam)
    return all(
        isinstance(p, int) and p > 0 for p in lam
    ) and all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))


def _check(lam) -> tuple:
    lam = tuple(lam)
    if not is_partition(lam):
        raise ValueError(f"not a partition: {lam}")
    return lam


@cache
def partitions_of(n: int) -> tuple:
    """All partitions of n in descending lexicographic order.

    >>> partitions_of(4)
    ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    """
    if n < 0:
        raise ValueError("negative size")
    if n == 0:
        return ((),)
    out = []

    def build(remaining, largest, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for part in range(min(remaining, largest), 0, -1):
            acc.append(part)
            build(remaining - part, part, acc)
            acc.pop()

    build(n, n, [])
    return tuple(out)


def conjugate(lam) -> tuple:
    lam = _check(lam)
    if not lam:
        return ()
    return tuple(
        sum(1 for p in lam if p > i) for i in range(lam[0])
    )


def pad(lam, n: int) -> tuple:
    """The padded partition lam[n] = (n - |lam|, lam_1, lam_2, ...).

    >>> pad((2, 1), 6)
    (3, 2, 1)
    """
    lam = _check(lam)
    size = sum(lam)
    first = lam[0] if lam else 0
    if n < size + first:
        raise ValueError(f"pad range: need n >= {size + first}, got {n}")
    if n == size:
        return lam  # only possible for lam = (): the empty shape pads to itself
    return (n - size,) + lam


def unpad(mu) -> tuple:
    """The tail (mu_2, mu_3, ...); total inverse of pad on its image."""
    mu = _check(mu)
    return mu[1:]


def pieri_add(lam, m: int) -> tuple:
    """All partitions obtained from lam by adding a horizontal strip of m.

    A horizontal strip adds at most one box per column, which is the
    interlacing condition mu_1 >= lam_1 >= mu_2 >= lam_2 >= ...

    >>> pieri_add((1,), 2)
    ((3,), (2, 1))
    """
    lam = _check(lam)
    if m < 0:
        raise ValueError("negative strip")
    rows = len(lam)
    results = []

    def place(i, budget, acc):
        # acc holds mu_1..mu_i; next row mu_{i+1} is bounded above by lam_i
        if i == rows:
            # one final row below lam may receive the leftovers
            if budget == 0:
                results.append(tuple(acc))
            elif rows == 0 or budget <= lam[rows - 1]:
                results.append(tuple(acc) + (budget,))
            return
        lo = lam[i]
        hi = lam[i - 1] if i > 0 else lam[i] + budget
        for mu_i in range(min(hi, lam[i] + budget), lo - 1, -1):
            acc.append(mu_i)
            place(i + 1, budget - (mu_i - lam[i]), acc)
            acc.pop()

    if rows == 0:
        return ((m,),) if m > 0 else ((),)
    place(0, m, [])
    return tuple(sorted(results, reverse=True))


def hooks(lam) -> tuple:
    """Hook lengths, row by row."""
    lam = _check(lam)
    conj = conjugate(lam)
    return tuple(
        tuple(
            lam[i] - j + conj[j] - i - 1 for j in range(lam[i])
        )
        for i in range(len(lam))
    )


def syt_count(lam) -> int:
    """Number of standard Young tableaux of shape lam (hook length formula).

    >>> syt_count((2, 1))
    2
    """
    lam = _check(lam)
    n = sum(lam)
    denom = 1
    for row in hooks(lam):
        for h in row:
            denom *= h
    count, rem = divmod(factorial(n), denom)
    assert rem == 0
    return count


def _corners(lam) -> list:
    """Removable cells (i, j), top to bottom."""
    out = []
    for i, part in enumerate(lam):
        if i + 1 == len(lam) or lam[i + 1] < part:
            out.append((i, part - 1))
    return out


def syt_enumerate(lam) -> tuple:
    """All standard tableaux of shape lam, in a fixed recursive order.

    The largest entry sits in a removable corner; corners are visited top
    to bottom and the rest of the tableau is enumerated recursively.  This
    order is the basis order for all seminormal matrices, so it must never
    change.

    >>> syt_enumerate((2, 1))
    (((1, 3), (2,)), ((1, 2), (3,)))
    """
    lam = _check(lam)
    n = sum(lam)
    if n > SYT_BOUND:
        raise ValueError(f"size bound: |lam| = {n} exceeds {SYT_BOUND}")
    if n == 0:
        return ((),)
    out = []
    for (i, j) in _corners(lam):
        smaller = tuple(p - 1 if r == i else p for r, p in enumerate(lam))
        smaller = tuple(p for p in smaller if p > 0)
        for t in syt_enumerate(smaller):
            rows = [list(r) for r in t]
            while len(rows) <= i:
                rows.append([])
            rows[i].append(n)
            out.append(tuple(tuple(r) for r in rows))
    return tuple(out)


def hecke_character(lam, mu) -> tuple:
    """chi^lam(T_{gamma_mu}) by the q-Murnaghan-Nakayama rule (Ram 1991).

    gamma_mu is the minimal-length permutation with cycles on consecutive
    letters of lengths mu_1, mu_2, ..., and T satisfies (T - q)(T + 1) = 0.
    The value is a sum over chains () = lam^(0) < ... < lam^(l) = lam whose
    steps lam^(i) / lam^(i-1) have mu_i cells and contain no 2x2 square
    (broken border strips).  A step with c connected components, component
    j spanning r_j rows and c_j columns, weighs

        (q - 1)^(c - 1) * prod_j (-1)^(r_j - 1) q^(c_j - 1),

    and a chain weighs the product of its steps.  Returns the integer
    coefficients of that polynomial in q, lowest degree first.

    >>> hecke_character((2,), (2,))
    (0, 1)
    >>> hecke_character((2, 1), (3,))
    (0, -1)
    >>> hecke_character((2, 1), (1, 1, 1))
    (2,)
    """
    lam = _check(lam)
    mu = tuple(mu)
    if not all(isinstance(p, int) and p > 0 for p in mu) or sum(mu) != sum(lam):
        raise ValueError(f"not a composition of {sum(lam)}: {mu}")
    return _murnaghan_nakayama(lam, mu)


@cache
def _murnaghan_nakayama(lam: tuple, mu: tuple) -> tuple:
    """hecke_character on checked input; the last step is peeled off."""
    if not mu:
        return (1,)
    total = [0] * (sum(lam) + 1)
    for nu, weight in _broken_strips(lam, mu[-1]):
        inner = _murnaghan_nakayama(nu, mu[:-1])
        for i, a in enumerate(weight):
            for j, b in enumerate(inner):
                total[i + j] += a * b
    while total and not total[-1]:
        total.pop()
    return tuple(total)


def _broken_strips(lam: tuple, k: int):
    """(nu, weight) for every nu with lam / nu a broken border strip of k
    cells, the weight as coefficients of a polynomial in q."""
    rows = len(lam)
    below = lam[1:] + (0,)

    def choose(i, left, acc):
        if i == rows:
            if left == 0:
                yield tuple(acc)
            return
        # nu_i >= lam_{i+1} - 1 is exactly "no 2x2 square in rows i, i+1"
        hi = min(lam[i], acc[-1]) if acc else lam[i]
        for nu_i in range(max(below[i] - 1, 0, lam[i] - left), hi + 1):
            acc.append(nu_i)
            yield from choose(i + 1, left - (lam[i] - nu_i), acc)
            acc.pop()

    for nu in choose(0, k, []):
        comps, sign, q_exp = 0, 1, 0
        for i in range(rows):
            if nu[i] == lam[i]:
                continue
            # row i starts a component unless a cell of row i - 1 lies on it
            if i == 0 or nu[i - 1] >= lam[i]:
                top = i
                comps += 1
            # a component ending at row i spans rows top..i, columns
            # nu_i..lam_top - 1
            if i + 1 == rows or nu[i + 1] == lam[i + 1] or nu[i] >= lam[i + 1]:
                sign *= (-1) ** (i - top)
                q_exp += lam[top] - nu[i] - 1
        weight = (0,) * q_exp + tuple(
            sign * (-1) ** (comps - 1 - t) * comb(comps - 1, t) for t in range(comps)
        )
        yield tuple(p for p in nu if p), weight


def row_standard_tableaux(lam, mu) -> tuple:
    """Row-standard lam-tableaux of type mu (rows weakly increasing).

    lam and mu are compositions of the same number; the tableau of shape
    lam holds mu_j copies of j with every row weakly increasing.  These
    are counted by nonnegative integer matrices with row sums lam and
    column sums mu, matching the number of S_mu x S_lam double cosets.
    """
    lam = tuple(lam)
    mu = tuple(mu)
    if any(p < 0 for p in lam) or any(p < 0 for p in mu) or sum(lam) != sum(mu):
        raise ValueError(f"composition size: {lam} vs {mu}")
    values = len(mu)
    out = []

    def fill(row: int, remaining: tuple, acc: list):
        if row == len(lam):
            out.append(tuple(acc))
            return
        need = lam[row]
        # choose how many copies of each value this row takes
        def choose(j, left, counts):
            if j == values:
                if left == 0:
                    row_content = []
                    for v, c in enumerate(counts, start=1):
                        row_content.extend([v] * c)
                    acc.append(tuple(row_content))
                    fill(
                        row + 1,
                        tuple(r - c for r, c in zip(remaining, counts)),
                        acc,
                    )
                    acc.pop()
                return
            for c in range(min(left, remaining[j]) + 1):
                choose(j + 1, left - c, counts + [c])

        choose(0, need, [])

    fill(0, mu, [])
    return tuple(out)


def stable_multiplicity_oracle(lam, n: int) -> dict:
    """Predicted decomposition of M(S^lam)_n: one copy of S^mu per
    horizontal strip mu of size n - |lam| over lam, nothing else.

    >>> stable_multiplicity_oracle((1,), 4)
    {(4,): 1, (3, 1): 1}
    """
    lam = _check(lam)
    if n < sum(lam):
        raise ValueError(f"range: n = {n} < |lam| = {sum(lam)}")
    return {mu: 1 for mu in pieri_add(lam, n - sum(lam))}


def partition_label(lam) -> str:
    """Comma-separated parts; empty string for the empty partition."""
    return ",".join(str(p) for p in lam)


def parse_partition_label(s: str) -> tuple:
    s = s.strip()
    if not s:
        return ()
    return _check(tuple(int(p) for p in s.replace(",", " ").split()))

