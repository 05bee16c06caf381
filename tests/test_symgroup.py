"""Permutations, reduced words, distinguished coset representatives.

The minimality claims (lex-smallest reduced word, shortest coset and
double-coset representatives) are all checked against brute force over
whole symmetric groups at small rank.
"""

from collections import deque

import pytest
from hypothesis import given, strategies as st

from helpers import (
    all_reduced_words,
    from_word,
    is_identity,
    left_descents,
    swap_values,
)
from heckestab.symgroup import (
    Permutation,
    blocks_of,
    conjugacy_min_reps,
    coset_min_reps,
    double_coset_min_reps,
    double_coset_stabilization,
    first_descent,
    is_distinguished,
    left_step,
    permutations_of,
)


def bfs_lengths(n):
    """Word length of every element of S_n by breadth-first search."""
    e = Permutation.identity(n)
    dist = {e.one_line: 0}
    queue = deque([e])
    while queue:
        w = queue.popleft()
        for i in range(1, n):
            v = swap_values(w, i)
            if v.one_line not in dist:
                dist[v.one_line] = dist[w.one_line] + 1
                queue.append(v)
    return dist


def cycle_type(w):
    seen = set()
    lengths = []
    for x in range(1, w.n + 1):
        if x in seen:
            continue
        length = 0
        y = x
        while y not in seen:
            seen.add(y)
            y = w(y)
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def permutations_up_to(top):
    return st.integers(1, top).flatmap(
        lambda n: st.permutations(list(range(1, n + 1))).map(
            lambda p: Permutation(tuple(p))
        )
    )


perms = permutations_up_to(6)


class TestBasics:
    def test_composition_convention(self):
        # (s t)(x) = s(t(x)): s_1 s_2 sends 3 -> 2 -> 1? no: t = s_2 first
        s1 = Permutation.simple(3, 1)
        s2 = Permutation.simple(3, 2)
        assert (s1 * s2).one_line == (2, 3, 1)
        assert (s2 * s1).one_line == (3, 1, 2)

    def test_not_a_permutation(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 3))
        with pytest.raises(ValueError):
            Permutation((0, 1))

    def test_identity_and_inverse(self):
        e = Permutation.identity(4)
        assert is_identity(e) and e.length == 0
        w = Permutation((3, 1, 4, 2))
        assert (w * w.inverse()) == e
        assert w.inverse().length == w.length

    @given(perms | permutations_up_to(256))
    def test_length_is_inversions(self, w):
        # the pairwise count is the reference for the sorted-prefix count
        inv = sum(
            1
            for a in range(1, w.n + 1)
            for b in range(a + 1, w.n + 1)
            if w(a) > w(b)
        )
        assert w.length == inv

    @given(perms, st.integers(0, 4))
    def test_embed_preserves_word(self, w, extra):
        big = w.embed(w.n + extra)
        assert big.length == w.length
        assert big.reduced_word() == w.reduced_word()

    def test_embed_smaller_rejected(self):
        with pytest.raises(ValueError, match="smaller"):
            Permutation((2, 1, 3)).embed(2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_left_step_agrees_with_length(self, n):
        for w in permutations_of(n):
            for i in range(1, n):
                sw, longer = left_step(w.one_line, i)
                expected = Permutation.simple(n, i) * w
                assert sw == expected.one_line
                assert longer == (expected.length > w.length)
            assert first_descent(w.one_line) == min(left_descents(w), default=0)


class TestReducedWords:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_word_is_shortest_and_lex_least(self, n):
        dist = bfs_lengths(n)
        for w in permutations_of(n):
            words = all_reduced_words(w)
            assert w.length == dist[w.one_line]
            assert all(len(u) == w.length for u in words)
            assert w.reduced_word() == min(words)

    @given(perms)
    def test_word_evaluates_back(self, w):
        assert from_word(w.n, w.reduced_word()) == w

    def test_longest_element(self):
        w0 = Permutation((3, 2, 1))
        assert w0.reduced_word() == (1, 2, 1)


class TestCosets:
    def test_blocks(self):
        assert blocks_of((2, 0, 1)) == ((1, 2), (3, 2), (3, 3))
        with pytest.raises(ValueError, match="composition size"):
            coset_min_reps(3, (2, 2))

    def test_frozen_example(self):
        reps = coset_min_reps(3, (2, 1))
        assert [d.one_line for d in reps] == [(1, 2, 3), (1, 3, 2), (2, 3, 1)]

    @pytest.mark.parametrize("n,comp", [
        (4, (2, 2)), (4, (1, 3)), (5, (2, 3)), (5, (2, 2, 1)), (5, (5,)),
    ])
    def test_shortest_in_each_left_coset(self, n, comp):
        # a left coset d*S_comp is determined by the value sets over the
        # position blocks; the distinguished element is its unique minimum
        reps = coset_min_reps(n, comp)
        blocks = blocks_of(comp)
        cosets = {}
        for w in permutations_of(n):
            key = tuple(
                frozenset(w(x) for x in range(lo, hi + 1)) for lo, hi in blocks
            )
            cosets.setdefault(key, []).append(w)
        assert len(reps) == len(cosets)
        for d in reps:
            assert is_distinguished(d, comp)
            key = tuple(
                frozenset(d(x) for x in range(lo, hi + 1)) for lo, hi in blocks
            )
            shortest = min(w.length for w in cosets[key])
            assert d.length == shortest
            assert sum(1 for w in cosets[key] if w.length == shortest) == 1

    def test_two_block_order_is_subset_lex(self):
        # for comp = (m, n-m) the reps come in lex order of the first-block
        # value sets; the M(W) basis layout depends on this
        from itertools import combinations

        n, m = 6, 3
        reps = coset_min_reps(n, (m, n - m))
        subsets = [tuple(sorted(d(x) for x in range(1, m + 1))) for d in reps]
        assert subsets == sorted(combinations(range(1, n + 1), m))

    @given(st.integers(0, 5).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, n))
    ))
    def test_counts_are_binomial(self, nm):
        from math import comb

        n, m = nm
        assert len(coset_min_reps(n, (m, n - m))) == comb(n, m)


def double_coset_classes(n, mu, lam):
    """Partition S_n into S_mu w S_lam classes by closure under both sides."""
    gens_mu = [
        i for lo, hi in blocks_of(mu) for i in range(lo, hi)
    ]
    gens_lam = [
        i for lo, hi in blocks_of(lam) for i in range(lo, hi)
    ]
    remaining = {w.one_line: w for w in permutations_of(n)}
    classes = []
    while remaining:
        _, seed = remaining.popitem()
        block = {seed.one_line}
        queue = deque([seed])
        while queue:
            w = queue.popleft()
            for i in gens_mu:
                v = swap_values(w, i)  # left multiplication
                if v.one_line not in block:
                    block.add(v.one_line)
                    queue.append(v)
            for i in gens_lam:
                v = w * Permutation.simple(n, i)  # right multiplication
                if v.one_line not in block:
                    block.add(v.one_line)
                    queue.append(v)
        for key in block:
            remaining.pop(key, None)
        classes.append(block)
    return classes


class TestDoubleCosets:
    def test_frozen_example(self):
        reps = double_coset_min_reps(3, (2, 1), (2, 1))
        assert [d.one_line for d in reps] == [(1, 2, 3), (1, 3, 2)]

    @pytest.mark.parametrize("n,mu,lam", [
        (3, (2, 1), (2, 1)),
        (4, (2, 2), (2, 2)),
        (4, (1, 3), (2, 2)),
        (5, (1, 1, 3), (2, 3)),
    ])
    def test_one_shortest_rep_per_class(self, n, mu, lam):
        reps = double_coset_min_reps(n, mu, lam)
        classes = double_coset_classes(n, mu, lam)
        assert len(reps) == len(classes)
        for d in reps:
            (block,) = [b for b in classes if d.one_line in b]
            shortest = min(Permutation(key).length for key in block)
            assert d.length == shortest


class TestConjugacy:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_minimal_length_in_class(self, n):
        reps = conjugacy_min_reps(n)
        assert set(reps) == set(
            cycle_type(w) for w in permutations_of(n)
        )
        by_type = {}
        for w in permutations_of(n):
            by_type.setdefault(cycle_type(w), []).append(w.length)
        for mu, w in reps.items():
            assert cycle_type(w) == mu
            assert w.length == min(by_type[mu])
            assert w.length == n - len(mu)


class TestStabilization:
    def test_free_letter_chain(self):
        # mu_n = (1, n), lam_n = (1, n): the free letter sits in row 1 or 2
        report = double_coset_stabilization(1, 1, 4)
        sizes = [step["size"] for step in report["chain"]]
        assert sizes == [1, 2, 2, 2, 2]
        assert report["inclusions_ok"]
        assert report["stabilized_at"] == 1
        assert report["stabilized_by_m"]

    def test_two_free_letters(self):
        report = double_coset_stabilization(2, 1, 4)
        assert report["chain"][-1]["size"] == 3
        assert report["stabilized_at"] <= 1
