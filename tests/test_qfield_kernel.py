"""Differential tests of the Q(q) kernel against the Fraction reference.

``fraction_kernel`` is the all-Fraction, Euclid-gcd arithmetic the kernel
replaced.  Both must give equal results; the kernel's results must also be
in normal form: integral coefficients stored as int, the rest as Fraction.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import fraction_kernel as ref
from heckestab import qfield
from heckestab.qfield import Scalar, poly_divmod, poly_gcd, poly_mul


@st.composite
def small_fractions(draw):
    """The values of st.fractions(-10, 10, max_denominator=6), drawn as a
    denominator and a numerator, about three times faster."""
    d = draw(st.integers(1, 6))
    return Fraction(draw(st.integers(-10 * d, 10 * d)), d)


coefficients = st.one_of(st.integers(min_value=-20, max_value=20), small_fractions())
wide_coefficients = st.integers(min_value=-10**6, max_value=10**6)


def normal(coeffs) -> tuple:
    """Coefficients in the kernel's normal form, trailing zeros dropped."""
    coeffs = [Fraction(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(c.numerator if c.denominator == 1 else c for c in coeffs)


def is_normal(p) -> bool:
    return (not p or p[-1] != 0) and all(
        type(c) is int or (type(c) is Fraction and c.denominator != 1) for c in p
    )


def as_ref(p) -> tuple:
    return tuple(Fraction(c) for c in p)


@st.composite
def polys(draw, elements=coefficients, min_size=0, max_size=6):
    return normal(draw(st.lists(elements, min_size=min_size, max_size=max_size)))


@st.composite
def nonzero_polys(draw, elements=coefficients, max_size=6):
    p = draw(polys(elements, min_size=1, max_size=max_size))
    return p or (1,)


@st.composite
def gcd_pairs(draw):
    """Two polynomials sharing a random factor, so gcds are often nontrivial;
    either may be zero, and the factor may be a constant."""
    elements = draw(st.sampled_from([coefficients, wide_coefficients]))
    common = draw(nonzero_polys(elements, max_size=4))
    a = poly_mul(draw(polys(elements, max_size=5)), common)
    b = poly_mul(draw(polys(elements, max_size=5)), common)
    return a, b


@st.composite
def scalars(draw):
    num = draw(polys())
    den = draw(nonzero_polys())
    return Scalar(num, den)


def assert_scalar_matches(s: Scalar, pair: tuple) -> None:
    assert is_normal(s.num) and is_normal(s.den)
    assert (s.num, s.den) == pair


class TestPolynomialKernel:
    @given(polys(), polys())
    def test_mul(self, a, b):
        out = poly_mul(a, b)
        assert is_normal(out)
        assert out == ref.poly_mul(as_ref(a), as_ref(b))

    @given(polys(max_size=8), nonzero_polys())
    def test_divmod(self, a, b):
        quot, rem = poly_divmod(a, b)
        assert is_normal(quot) and is_normal(rem)
        assert (quot, rem) == ref.poly_divmod(as_ref(a), as_ref(b))

    @given(gcd_pairs())
    def test_gcd(self, pair):
        a, b = pair
        g = poly_gcd(a, b)
        assert is_normal(g)
        assert g == ref.poly_gcd(as_ref(a), as_ref(b))

    @given(gcd_pairs())
    def test_euclid_fallback(self, pair):
        a, b = pair
        calls = []

        def give_up(f, g):
            calls.append((f, g))
            return None

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qfield, "_heuristic_gcd", give_up)
            g = poly_gcd(a, b)
        assert is_normal(g)
        assert g == ref.poly_gcd(as_ref(a), as_ref(b))
        assert bool(calls) == (len(a) > 1 and len(b) > 1)

    def test_heuristic_retries_at_larger_points(self, monkeypatch):
        # at the first point x = 4, gcd(f(4), g(4)) = gcd(24, 3) = 3 reads
        # back as q - 1, which does not divide f; a larger point finds 1
        f, g = [0, 2, 1], [-1, 1]
        assert qfield._heuristic_gcd(f, g) == (1,)
        monkeypatch.setattr(qfield, "_HEU_TRIES", 1)
        assert qfield._heuristic_gcd(f, g) is None
        assert poly_gcd(tuple(f), tuple(g)) == (1,)


class TestScalarKernel:
    @given(scalars(), scalars())
    def test_add_sub_mul(self, a, b):
        x, y = (as_ref(a.num), as_ref(a.den)), (as_ref(b.num), as_ref(b.den))
        assert_scalar_matches(a + b, ref.add(x, y))
        assert_scalar_matches(a - b, ref.sub(x, y))
        assert_scalar_matches(a * b, ref.mul(x, y))

    @given(scalars(), scalars())
    def test_div(self, a, b):
        if not b:
            return
        x, y = (as_ref(a.num), as_ref(a.den)), (as_ref(b.num), as_ref(b.den))
        assert_scalar_matches(a / b, ref.div(x, y))

    @given(polys(), nonzero_polys())
    def test_constructor_reduces_like_reference(self, num, den):
        assert_scalar_matches(Scalar(num, den), ref.reduce(as_ref(num), as_ref(den)))

    def test_integral_values_stored_as_int(self):
        s = Scalar((Fraction(4, 2), Fraction(6)), (Fraction(2),))
        assert s.num == (1, 3) and all(type(c) is int for c in s.num + s.den)
        assert [type(c) for c in Scalar((Fraction(3, 3),)).num] == [int]


class TestAgainstSympy:
    @given(polys(wide_coefficients), nonzero_polys(wide_coefficients))
    def test_cancel(self, num, den):
        sympy = pytest.importorskip("sympy")
        q = sympy.Symbol("q")
        expr = sympy.cancel(
            sympy.Poly(list(reversed(num)) or [0], q).as_expr()
            / sympy.Poly(list(reversed(den)), q).as_expr()
        )
        top, bottom = (sympy.Poly(e, q) for e in sympy.fraction(expr))
        lead = Fraction(int(bottom.LC().p), int(bottom.LC().q))

        def coeffs(p):
            values = reversed(p.all_coeffs())
            return normal(Fraction(int(c.p), int(c.q)) / lead for c in values)

        s = Scalar(num, den)
        assert (s.num, s.den) == (coeffs(top), coeffs(bottom))
