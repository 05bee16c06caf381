"""Symmetric group combinatorics: words, lengths, coset representatives.

Permutations are stored in one-line notation over {1..n} and composed as
functions, (sigma * tau)(x) = sigma(tau(x)).  Young subgroups are given by
compositions (tuples of nonnegative integers summing to n) whose parts cut
{1..n} into consecutive position blocks.

>>> w = Permutation((3, 2, 1))
>>> w.length
3
>>> w.reduced_word()
(1, 2, 1)
"""

from __future__ import annotations

import itertools
from bisect import bisect_left

__all__ = [
    "Permutation",
    "first_descent",
    "left_step",
    "permutations_of",
    "blocks_of",
    "coset_min_reps",
    "double_coset_min_reps",
    "conjugacy_min_reps",
    "double_coset_stabilization",
]


class Permutation:
    """A permutation of {1..n} in one-line notation."""

    __slots__ = ("one_line", "_len")

    def __init__(self, one_line):
        ol = tuple(one_line)
        if sorted(ol) != list(range(1, len(ol) + 1)):
            raise ValueError(f"not a permutation of 1..{len(ol)}: {ol}")
        self.one_line = ol
        self._len = None

    @classmethod
    def _new(cls, one_line: tuple) -> "Permutation":
        """Internal constructor for a tuple already known to be a permutation."""
        self = object.__new__(cls)
        self.one_line = one_line
        self._len = None
        return self

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @classmethod
    def simple(cls, n: int, i: int) -> "Permutation":
        """The adjacent transposition s_i swapping i and i+1."""
        if not 1 <= i <= n - 1:
            raise ValueError(f"s_{i} is not a generator of S_{n}")
        ol = list(range(1, n + 1))
        ol[i - 1], ol[i] = ol[i], ol[i - 1]
        return cls(ol)

    @property
    def n(self) -> int:
        return len(self.one_line)

    def __call__(self, x: int) -> int:
        return self.one_line[x - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.n != other.n:
            raise ValueError("rank mismatch")
        return Permutation(tuple(self.one_line[v - 1] for v in other.one_line))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for pos, v in enumerate(self.one_line, start=1):
            inv[v - 1] = pos
        return Permutation(inv)

    @property
    def length(self) -> int:
        """Coxeter length = number of inversions.

        Each value is placed into the sorted list of the values left of
        it; the values it is inserted before are its inversions.
        """
        if self._len is None:
            seen: list = []
            count = 0
            for v in self.one_line:
                j = bisect_left(seen, v)
                count += len(seen) - j
                seen.insert(j, v)
            self._len = count
        return self._len

    def reduced_word(self) -> tuple:
        """The lexicographically smallest reduced word.

        Peeling off the smallest left descent at each step is greedy-valid:
        the first letters of reduced words of w are exactly its left
        descents, so the smallest choice extends to the lex-min word.

        >>> Permutation((2, 3, 1)).reduced_word()
        (1, 2)
        """
        w = self.one_line
        word = []
        i = first_descent(w)
        while i:
            word.append(i)
            w = left_step(w, i)[0]
            i = first_descent(w)
        return tuple(word)

    def embed(self, m: int) -> "Permutation":
        """The image under S_n ⊆ S_m fixing the letters n+1..m."""
        if m < self.n:
            raise ValueError("cannot embed into a smaller group")
        return Permutation(self.one_line + tuple(range(self.n + 1, m + 1)))

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.one_line == other.one_line

    def __hash__(self):
        return hash(self.one_line)

    def __repr__(self):
        return f"Permutation({self.one_line})"


def first_descent(one_line: tuple) -> int:
    """The smallest left descent of w in one-line notation, or 0 if w = e:
    the least i with l(s_i w) < l(w), i.e. with i+1 standing left of i."""
    for i in range(1, len(one_line)):
        if one_line.index(i) > one_line.index(i + 1):
            return i
    return 0


def left_step(one_line: tuple, i: int) -> tuple:
    """(s_i w, whether l(s_i w) > l(w)) for w in one-line notation.

    s_i w exchanges the values i and i+1, and it is longer than w exactly
    when i stands left of i+1 in w; both are read from the two positions,
    so the step costs O(n) and never counts inversions.

    >>> left_step((2, 1, 3), 2)
    ((3, 1, 2), True)
    """
    a = one_line.index(i)
    b = one_line.index(i + 1)
    out = list(one_line)
    out[a] = i + 1
    out[b] = i
    return tuple(out), a < b


def permutations_of(n: int):
    """All of S_n in lexicographic one-line order."""
    for ol in itertools.permutations(range(1, n + 1)):
        yield Permutation(ol)


def _check_composition(n: int, comp) -> tuple:
    comp = tuple(comp)
    if any(part < 0 for part in comp) or sum(comp) != n:
        raise ValueError(f"composition size: {comp} does not sum to {n}")
    return comp


def blocks_of(comp) -> tuple:
    """Consecutive position blocks [start, end] (1-based, end inclusive)."""
    out = []
    start = 1
    for part in comp:
        out.append((start, start + part - 1))
        start += part
    return tuple(out)


def is_distinguished(w: Permutation, comp) -> bool:
    """Whether w is the minimal element of its left coset w·S_comp.

    Equivalent to w being increasing on every position block of comp.
    """
    ol = w.one_line
    for start, end in blocks_of(comp):
        for p in range(start, end):
            if ol[p - 1] > ol[p]:
                return False
    return True


def coset_min_reps(n: int, comp) -> list:
    """Distinguished minimal-length left coset representatives of S_comp.

    Every w in S_n factors uniquely as w = d·u with u in the Young subgroup
    and l(w) = l(d) + l(u); the returned d are increasing on each block.
    Order: by the tuple of value sets assigned to the blocks, block by
    block in lexicographic order (so for comp = (m, n-m) the reps follow
    the m-subsets of {1..n} in lexicographic order).

    >>> [d.one_line for d in coset_min_reps(3, (2, 1))]
    [(1, 2, 3), (1, 3, 2), (2, 3, 1)]
    """
    comp = _check_composition(n, comp)
    return [Permutation._new(d) for d in _coset_one_lines(n, comp)]


def _coset_one_lines(n: int, comp: tuple) -> list:
    """The one-line tuples of coset_min_reps(n, comp), in its order, for a
    composition comp of n: block by block, each takes an increasing choice
    of the values still free."""
    reps = [((), tuple(range(1, n + 1)))]
    for part in comp:
        reps = [
            (acc + chosen, tuple(v for v in free if v not in chosen))
            for acc, free in reps
            for chosen in itertools.combinations(free, part)
        ]
    return [acc for acc, _ in reps]


def double_coset_min_reps(n: int, mu, lam) -> list:
    """Minimal-length representatives of the double cosets S_mu\\S_n/S_lam.

    A representative is distinguished on the right for lam (increasing on
    lam position blocks) and on the left for mu (values within a mu block
    appear in increasing positions, i.e. d^-1 is distinguished for mu).

    >>> [d.one_line for d in double_coset_min_reps(3, (2, 1), (2, 1))]
    [(1, 2, 3), (1, 3, 2)]
    """
    mu = _check_composition(n, mu)
    return [d for d in coset_min_reps(n, lam) if is_distinguished(d.inverse(), mu)]


def conjugacy_min_reps(n: int) -> dict:
    """A minimal-length representative for each conjugacy class of S_n.

    The class of cycle type mu is represented by the product of disjoint
    cycles on consecutive letters (1 .. mu_1)(mu_1+1 .. mu_1+mu_2)...,
    which has length n - (number of parts), minimal in its class.
    """
    from .partitions import partitions_of

    reps = {}
    for mu in partitions_of(n):
        ol = list(range(1, n + 1))
        start = 1
        for part in mu:
            # cycle start -> start+1 -> ... -> start+part-1 -> start
            for x in range(start, start + part - 1):
                ol[x - 1] = x + 1
            ol[start + part - 2] = start
            start += part
        reps[mu] = Permutation(ol)
    return reps


def double_coset_stabilization(a: int, m: int, n_max: int) -> dict:
    """Track 𝒟_{mu_n, lam_n} for lam_n = (m, a+n-m), mu_n = (1,..,1, n).

    For each probed n, reports the minimal double coset representatives in
    S_{a+n}, whether each set embeds into the next one (fixing new letters),
    and the least n at which the chain stops growing within the bound.
    """
    if a < 0 or m < 0:
        raise ValueError("a and m must be nonnegative")
    n_lo = max(0, m - a)
    chain = []
    reps_by_n = {}
    for n in range(n_lo, n_max + 1):
        lam = (m, a + n - m)
        mu = (1,) * a + (n,)
        reps = double_coset_min_reps(a + n, mu, lam)
        reps_by_n[n] = reps
        chain.append({"n": n, "size": len(reps)})
    inclusions_ok = True
    for n in range(n_lo, n_max):
        embedded = {d.embed(a + n + 1) for d in reps_by_n[n]}
        included = embedded <= set(reps_by_n[n + 1])
        chain[n - n_lo]["included_in_next"] = included
        inclusions_ok = inclusions_ok and included
    stabilized_at = None
    for n in range(n_lo, n_max + 1):
        if all(
            len(reps_by_n[k]) == len(reps_by_n[n]) for k in range(n, n_max + 1)
        ):
            stabilized_at = n
            break
    return {
        "a": a,
        "m": m,
        "n_max": n_max,
        "chain": chain,
        "reps_by_n": reps_by_n,
        "inclusions_ok": inclusions_ok,
        "stabilized_at": stabilized_at,
        "stabilized_by_m": stabilized_at is not None and stabilized_at <= m,
    }

