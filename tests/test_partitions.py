"""Partitions, padding, Pieri strips, standard tableaux counts and order."""

from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import factorial, prod

import pytest
from hypothesis import given, strategies as st

from heckestab.partitions import (
    conjugate,
    hecke_character,
    pad,
    partition_label,
    parse_partition_label,
    partitions_of,
    pieri_add,
    row_standard_tableaux,
    stable_multiplicity_oracle,
    syt_count,
    syt_enumerate,
    unpad,
)
from heckestab.symgroup import conjugacy_min_reps, double_coset_min_reps


def brute_partitions(n):
    """All weakly decreasing positive tuples summing to n, descending lex."""
    def rec(n, maxpart):
        if n == 0:
            yield ()
        for first in range(min(n, maxpart), 0, -1):
            for rest in rec(n - first, first):
                yield (first,) + rest
    return sorted(rec(n, n), reverse=True)


partitions = st.integers(0, 8).flatmap(
    lambda n: st.sampled_from(partitions_of(n)) if n else st.just(())
)


class TestPartitions:
    @pytest.mark.parametrize("n", range(9))
    def test_matches_brute_force(self, n):
        assert list(partitions_of(n)) == brute_partitions(n)

    def test_not_a_partition(self):
        with pytest.raises(ValueError, match="not a partition"):
            pad((1, 2), 5)

    @given(partitions)
    def test_conjugate_involution(self, lam):
        assert conjugate(conjugate(lam)) == lam
        assert sum(conjugate(lam)) == sum(lam)


class TestPadding:
    def test_pad_prepends_long_row(self):
        assert pad((2, 1), 6) == (3, 2, 1)
        assert pad((), 4) == (4,)

    def test_pad_range(self):
        with pytest.raises(ValueError, match="pad range"):
            pad((2, 1), 4)  # needs n >= |lam| + lam_1 = 5
        assert pad((2, 1), 5) == (2, 2, 1)

    @given(partitions, st.integers(0, 6))
    def test_round_trip(self, lam, slack):
        n = sum(lam) + (lam[0] if lam else 0) + slack
        assert unpad(pad(lam, n)) == lam

    def test_unpad_is_total(self):
        assert unpad((3, 3)) == (3,)
        assert unpad((1,)) == ()
        assert unpad(()) == ()


def is_horizontal_strip(lam, mu):
    """mu/lam has at most one box per column and lam sits inside mu."""
    cl, cm = conjugate(lam), conjugate(mu)
    width = max(len(cl), len(cm))
    cl = cl + (0,) * (width - len(cl))
    cm = cm + (0,) * (width - len(cm))
    return all(0 <= b - a <= 1 for a, b in zip(cl, cm))


class TestPieri:
    def test_frozen_examples(self):
        assert pieri_add((1,), 2) == ((3,), (2, 1))
        assert pieri_add((1, 1), 1) == ((2, 1), (1, 1, 1))
        assert pieri_add((), 3) == ((3,),)
        assert pieri_add((2, 2), 0) == ((2, 2),)

    @given(partitions, st.integers(0, 5))
    def test_exactly_the_horizontal_strips(self, lam, m):
        got = pieri_add(lam, m)
        assert len(set(got)) == len(got)
        assert list(got) == sorted(got, reverse=True)
        expected = {
            mu for mu in partitions_of(sum(lam) + m)
            if is_horizontal_strip(lam, mu)
        }
        assert set(got) == expected


class TestTableaux:
    @pytest.mark.parametrize("n", range(8))
    def test_hook_formula_equals_enumeration(self, n):
        for lam in partitions_of(n):
            tabs = syt_enumerate(lam)
            assert len(tabs) == syt_count(lam)
            assert len(set(tabs)) == len(tabs)

    def test_tableaux_are_standard(self):
        for lam in partitions_of(6):
            for t in syt_enumerate(lam):
                assert tuple(len(r) for r in t) == lam
                assert sorted(v for r in t for v in r) == list(
                    range(1, 7)
                )
                for row in t:
                    assert all(a < b for a, b in zip(row, row[1:]))
                for r in range(1, len(t)):
                    assert all(
                        t[r - 1][c] < t[r][c] for c in range(len(t[r]))
                    )

    def test_frozen_order(self):
        # last letter high in the shape first: corners scan top to bottom
        assert syt_enumerate((2, 1)) == (((1, 3), (2,)), ((1, 2), (3,)))
        assert syt_enumerate((1, 1, 1)) == (((1,), (2,), (3,)),)
        assert len(syt_enumerate((2, 2))) == 2

    def test_size_bound(self):
        with pytest.raises(ValueError, match="size bound"):
            syt_enumerate((5, 4))

    def test_counts_against_closed_forms(self):
        assert syt_count((2, 1)) == 2
        assert syt_count(()) == 1
        # hook content of a staircase, vs the determinant-free classic
        assert syt_count((4,)) == 1
        assert syt_count((2, 2)) == 2
        assert syt_count((3, 2, 1)) == 16


def z_order(mu):
    """z_mu = prod_i i^{m_i} m_i!: n! over the size of the class of mu."""
    return prod(part**m * factorial(m) for part, m in Counter(mu).items())


class TestHeckeCharacter:
    """Past the reach of the seminormal oracle (|lam| <= 7), the rule is
    checked against facts of S_n and H_n that it does not encode."""

    @pytest.mark.parametrize("n", [8, 9])
    def test_independent_facts(self, n):
        shapes = partitions_of(n)
        table = {(lam, mu): hecke_character(lam, mu) for lam in shapes for mu in shapes}
        at_one = {key: sum(c) for key, c in table.items()}
        reps = conjugacy_min_reps(n)
        for mu in shapes:
            ell = reps[mu].length
            # T_w acts by q^l(w) on the index module, by (-1)^l(w) on the sign
            assert table[(n,), mu] == (0,) * ell + (1,)
            assert table[(1,) * n, mu] == ((-1) ** ell,)
        for lam in shapes:
            assert table[lam, (1,) * n] == (syt_count(lam),)
        for lam in shapes:
            for nu in shapes:
                total = sum(
                    Fraction(at_one[lam, mu] * at_one[nu, mu], z_order(mu))
                    for mu in shapes
                )
                assert total == (lam == nu)
        for mu in shapes:
            for rho in shapes:
                total = sum(at_one[lam, mu] * at_one[lam, rho] for lam in shapes)
                assert total == (z_order(mu) if mu == rho else 0)

    @pytest.mark.parametrize("n", [8, 9])
    def test_order_of_the_parts_is_immaterial(self, n):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                assert hecke_character(lam, mu) == hecke_character(lam, mu[::-1])

    @pytest.mark.parametrize(
        "lam, mu",
        [((2, 1), (2,)), ((2, 1), (2, 0, 1)), ((2,), (1.0, 1)), ((1, 2), (3,))],
    )
    def test_not_a_composition(self, lam, mu):
        with pytest.raises(ValueError):
            hecke_character(lam, mu)


class TestRowStandard:
    def test_frozen_counts(self):
        assert len(row_standard_tableaux((2, 1), (2, 1))) == 2
        assert len(row_standard_tableaux((1, 1), (1, 1))) == 2
        assert len(row_standard_tableaux((4,), (4,))) == 1

    def test_rows_weakly_increase(self):
        for t in row_standard_tableaux((2, 2), (1, 2, 1)):
            for row in t:
                assert all(a <= b for a, b in zip(row, row[1:]))

    @pytest.mark.parametrize("n,mu,lam", [
        (3, (2, 1), (2, 1)),
        (4, (2, 2), (2, 2)),
        (4, (1, 3), (2, 2)),
        (5, (1, 1, 3), (2, 3)),
        (5, (2, 3), (4, 1)),
    ])
    def test_bijection_with_double_cosets(self, n, mu, lam):
        tabs = row_standard_tableaux(lam, mu)
        reps = double_coset_min_reps(n, mu, lam)
        assert len(tabs) == len(reps)


class TestStableOracle:
    def test_free_letter(self):
        assert stable_multiplicity_oracle((1,), 4) == {(4,): 1, (3, 1): 1}

    def test_below_range(self):
        with pytest.raises(ValueError, match="range"):
            stable_multiplicity_oracle((2, 1), 2)

    @given(partitions, st.integers(0, 4))
    def test_matches_pieri(self, lam, slack):
        n = sum(lam) + slack
        assert stable_multiplicity_oracle(lam, n) == {
            mu: 1 for mu in pieri_add(lam, slack)
        }


class TestLabels:
    @given(partitions)
    def test_round_trip(self, lam):
        assert parse_partition_label(partition_label(lam)) == lam

    def test_empty(self):
        assert partition_label(()) == ""
        assert parse_partition_label("") == ()
        assert parse_partition_label("2,1") == (2, 1)
