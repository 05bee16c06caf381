"""Differential tests of the packed-integer T-basis product.

``hecke_reference`` is the product ``mult`` replaced: a fold of Scalar
arithmetic over Q(q), one generator at a time.  Both must give equal
elements.  The coefficients drawn below reach every branch of the packed
path: integers, non-integral rationals, integers of at least 2^80 (a wide
packing width) and the denominators q, q - 1 and q^2 + 1.
"""

import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import hecke_reference as ref
from heckestab import hecke
from heckestab.hecke import REGULAR_BOUND, HeckeElement, mult
from heckestab.qfield import ONE, Q, Scalar, poly_pack, poly_unpack
from heckestab.symgroup import Permutation, permutations_of

DENOMINATORS = (ONE, Q, Q - 1, Q * Q + 1)

constants = st.one_of(
    st.integers(-5, 5),
    st.fractions(min_value=-4, max_value=4, max_denominator=9).filter(
        lambda c: c.denominator != 1
    ),
    st.integers(2**80, 2**90),
    st.integers(-(2**90), -(2**80)),
)

coefficients = st.builds(
    lambda num, den: Scalar(tuple(num)) / den,
    st.lists(constants, min_size=1, max_size=3).filter(any),
    st.sampled_from(DENOMINATORS),
)


@st.composite
def elements(draw, n):
    words = draw(
        st.lists(st.permutations(range(1, n + 1)), max_size=3, unique_by=tuple)
    )
    return HeckeElement(n, {Permutation(w): draw(coefficients) for w in words})


@st.composite
def pairs(draw):
    n = draw(st.integers(1, 6))
    return draw(elements(n)), draw(elements(n))


def in_normal_form(x: HeckeElement) -> bool:
    """No zero coefficient, int coefficients only, and positive leading
    coefficients of the denominators."""
    return all(
        c and all(type(a) is int for a in c.num + c.den) and c.den[-1] > 0
        for c in x.coeffs.values()
    )


def max_coefficient(x: HeckeElement) -> int:
    """The largest absolute value of a Z[q] coefficient of x."""
    return max((abs(a) for c in x.coeffs.values() for a in c.num), default=0)


def longest(n: int) -> HeckeElement:
    return HeckeElement.basis(n, Permutation(tuple(range(n, 0, -1))))


class TestAgainstScalarFold:
    @settings(max_examples=150)
    @given(pairs())
    def test_random_pairs(self, xy):
        x, y = xy
        got = mult(x, y)
        assert got == ref.mult(x, y)
        assert in_normal_form(got)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_basis_pair(self, n):
        for u, v in product(permutations_of(n), repeat=2):
            x, y = HeckeElement.basis(n, u), HeckeElement.basis(n, v)
            got = mult(x, y)
            assert got == ref.mult(x, y)
            assert max_coefficient(got) <= 3**u.length

    def test_longest_squared_rank_six(self):
        w0 = longest(6)
        got = mult(w0, w0)
        assert got == ref.mult(w0, w0)
        assert len(got.coeffs) == 720
        assert max_coefficient(got) <= 3**15

    def test_rational_and_wide_coefficients(self):
        x = longest(4).scale(Scalar((2**100, Fraction(1, 3))) / (Q - 1))
        y = (longest(4) + HeckeElement.one(4)).scale(Fraction(-5, 7) * Q / (Q * Q + 1))
        assert mult(x, y) == ref.mult(x, y)
        assert mult(y, x) == ref.mult(y, x)

    def test_denominators_with_rational_coefficients(self):
        # denominators such as q + 1/2 are stored over Z[q], as 2q + 1
        x = HeckeElement(3, {
            Permutation((2, 1, 3)): ONE / (Q + Fraction(1, 2)),
            Permutation((3, 2, 1)): Scalar((Fraction(1, 3), 2)) / (Q * Q + Fraction(2, 7)),
        })
        y = HeckeElement(3, {
            Permutation((1, 3, 2)): (Q - Fraction(1, 2)) / (Q + Fraction(1, 2)),
            Permutation((1, 2, 3)): Scalar(Fraction(5, 4)),
        })
        for a, b in product((x, y), repeat=2):
            assert mult(a, b) == ref.mult(a, b)

    def test_denominators_cancel(self):
        # (q - 1) / q times q / (q - 1) is 1: the cleared denominators
        # must divide out of the product, not only the shared one
        x = HeckeElement.one(3).scale((Q - 1) / Q)
        y = HeckeElement.basis(3, Permutation((2, 1, 3))).scale(Q / (Q - 1))
        assert mult(x, y) == HeckeElement.basis(3, Permutation((2, 1, 3)))


def seeded_element(n: int, seed: int) -> HeckeElement:
    """Three terms of S_n with rational coefficients and the denominators
    q, q - 1 and q^2 + 1, whose products cancel against each other."""
    rng = random.Random(seed)
    words = set()
    while len(words) < 3:
        words.add(tuple(rng.sample(range(1, n + 1), n)))
    coefficients = (
        Scalar((Fraction(-2, 3), 1)) / Q,
        Q / (Q - 1) * Fraction(5, 2),
        Scalar((Fraction(1, 2), 0, 3)) / (Q * Q + 1),
    )
    return HeckeElement(n, {Permutation(w): c for w, c in zip(sorted(words), coefficients)})


class TestStepMemo:
    """Left steps come from one memo per rank: kept for n <= REGULAR_BOUND,
    made afresh for each product above it."""

    @pytest.mark.parametrize("n", [REGULAR_BOUND, REGULAR_BOUND + 1])
    def test_against_scalar_fold_on_both_sides_of_the_bound(self, n):
        x, y = seeded_element(n, 1), seeded_element(n, 2)
        for a, b in ((x, y), (y, x), (x, x)):
            got = mult(a, b)
            assert got == ref.mult(a, b)
            assert in_normal_form(got)

    @pytest.mark.parametrize("n", [REGULAR_BOUND, REGULAR_BOUND + 1])
    def test_cancelling_coefficients(self, n):
        # x (T_s - q)(T_s + 1) = 0, and (q-1)/q T_u times q/(q-1) T_v is T_u T_v
        x = seeded_element(n, 3)
        s = HeckeElement.basis(n, Permutation.simple(n, 1))
        one = HeckeElement.one(n)
        assert mult(mult(x, s - one.scale(Q)), s + one) == HeckeElement(n)
        u, v = (Permutation(w) for w in ((2, 1, *range(3, n + 1)), tuple(range(n, 0, -1))))
        got = mult(
            HeckeElement.basis(n, u).scale((Q - 1) / Q),
            HeckeElement.basis(n, v).scale(Q / (Q - 1)),
        )
        assert got == ref.mult(HeckeElement.basis(n, u), HeckeElement.basis(n, v))

    def test_kept_memo_is_bounded_by_the_group(self):
        n = REGULAR_BOUND
        for seed in range(4):
            mult(seeded_element(n, seed), longest(n))
        mult(longest(n), longest(n))
        memo = hecke._kept_steps(n)
        assert sum(map(len, memo.steps.values())) <= math.factorial(n) * (n - 1)
        assert set(memo.steps) <= set(range(1, n))
        assert len(memo.descents) <= math.factorial(n)
        assert len(memo.perms) <= math.factorial(n)

    def test_filled_memo_shares_one_tuple_per_permutation(self):
        # every s_i w of a filled H_6 memo is one of 720 interned tuples,
        # not one tuple per step
        n = REGULAR_BOUND
        hecke._kept_steps.cache_clear()
        steps = hecke._kept_steps(n).steps
        for i in range(1, n):
            for w in permutations_of(n):
                steps[i][w.one_line]
        assert sum(map(len, steps.values())) == math.factorial(n) * (n - 1)
        shared = {id(sw) for step in steps.values() for sw, _ in step.values()}
        assert len(shared) <= math.factorial(n)

    def test_no_memo_kept_above_the_bound(self):
        hecke._kept_steps.cache_clear()
        n = REGULAR_BOUND + 1
        mult(seeded_element(n, 4), longest(n))
        assert hecke._kept_steps.cache_info().currsize == 0
        mult(seeded_element(n - 1, 4), longest(n - 1))
        assert hecke._kept_steps.cache_info().currsize == 1

    def test_regular_representation_reads_the_same_steps(self):
        # built afresh past its own cache, it fills the kept memo of its rank
        hecke._kept_steps.cache_clear()
        n = 4
        V = hecke.regular_representation.__wrapped__(n)
        steps = hecke._kept_steps(n).steps
        assert sum(map(len, steps.values())) == math.factorial(n) * (n - 1)
        assert V.gen_action == hecke.regular_representation(n).gen_action

    def test_products_sharing_terms_are_independent(self):
        n = REGULAR_BOUND
        x = seeded_element(n, 5)
        first, second = mult(x, longest(n)), mult(x, longest(n))
        assert first == second
        first.coeffs.clear()
        assert second.coeffs
        assert second == mult(x, longest(n))


class TestPacking:
    @given(st.integers(2, 200), st.data())
    def test_round_trip_up_to_the_width(self, k, data):
        # every coefficient of absolute value below 2^(k-1) decodes exactly
        top = (1 << (k - 1)) - 1
        coeff = st.sampled_from((-top, top)) | st.integers(-top, top)
        p = list(data.draw(st.lists(coeff, max_size=8)))
        while p and not p[-1]:
            p.pop()
        assert poly_unpack(poly_pack(p, k), k) == tuple(p)

    def test_width_one_holds_only_zero(self):
        # a module whose generators are all zero packs at k = 1
        assert poly_unpack(0, 1) == ()
        for h in (1, -1, 2, 1 << 70):
            with pytest.raises(ValueError, match="balanced base-2"):
                poly_unpack(h, 1)


class TestEdges:
    def test_zero_element(self):
        zero = HeckeElement(4)
        assert mult(zero, longest(4)) == zero
        assert mult(longest(4), zero) == zero
        assert mult(zero, zero) == zero

    def test_cancellation_to_zero(self):
        # (T_s - q)(T_s + 1) = 0 in H_2
        s = HeckeElement.basis(2, Permutation((2, 1)))
        one = HeckeElement.one(2)
        assert mult(s - one.scale(Q), s + one) == HeckeElement(2)

    def test_rank_mismatch(self):
        with pytest.raises(ValueError, match="rank mismatch"):
            mult(HeckeElement.one(3), HeckeElement.one(4))

    def test_rank_zero_and_one(self):
        for n in (0, 1):
            x = HeckeElement.one(n).scale(Fraction(3, 2))
            assert mult(x, x) == HeckeElement.one(n).scale(Fraction(9, 4))
