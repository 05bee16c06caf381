"""Differential tests of the Z[q] kernel against the Fraction reference.

``fraction_kernel`` is the all-Fraction, Euclid-gcd arithmetic over Q[q]
that the kernel replaced.  A kernel scalar num/den is compared with it on
the monic view num/c over den/c, c the leading coefficient of den, which
is the reference's normal form.  The kernel's own results must also be in
its normal form: int coefficients only, num and den with no common factor
in Z[q] (constants included), den with positive leading coefficient.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import fraction_kernel as ref
from heckestab import qfield
from heckestab.qfield import Scalar, poly_div_exact, poly_gcd, poly_mul


@st.composite
def small_fractions(draw):
    """The values of st.fractions(-10, 10, max_denominator=6), drawn as a
    denominator and a numerator, about three times faster."""
    d = draw(st.integers(1, 6))
    return Fraction(draw(st.integers(-10 * d, 10 * d)), d)


coefficients = st.one_of(st.integers(min_value=-20, max_value=20), small_fractions())
integers = st.integers(min_value=-20, max_value=20)
wide_coefficients = st.integers(min_value=-10**6, max_value=10**6)


def trimmed(coeffs) -> tuple:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def as_ref(p) -> tuple:
    return tuple(Fraction(c) for c in p)


def monic(s: Scalar) -> tuple:
    """The monic view of s, as a reference pair."""
    lead = s.den[-1]
    return (
        tuple(Fraction(c, lead) for c in s.num),
        tuple(Fraction(c, lead) for c in s.den),
    )


def coprime(a, b) -> bool:
    """No common factor in Z[q]: coprime over Q (reference gcd) and with
    coprime contents, by Gauss's lemma."""
    return (
        math.gcd(*a, *b) == 1
        and ref.poly_gcd(as_ref(a), as_ref(b)) == ref.P_ONE
    )


def assert_normal(s: Scalar) -> None:
    assert all(type(c) is int for c in s.num + s.den)
    assert trimmed(s.num) == s.num and trimmed(s.den) == s.den
    assert s.den and s.den[-1] > 0
    assert coprime(s.num, s.den)
    if not s.num:
        assert s.den == (1,)


@st.composite
def polys(draw, elements=integers, min_size=0, max_size=6):
    return trimmed(draw(st.lists(elements, min_size=min_size, max_size=max_size)))


@st.composite
def nonzero_polys(draw, elements=integers, max_size=6):
    p = draw(polys(elements, min_size=1, max_size=max_size))
    return p or (1,)


@st.composite
def gcd_pairs(draw):
    """Two Z[q] polynomials sharing a random factor, so gcds are often
    nontrivial; either may be zero, and the factor may be a constant."""
    elements = draw(st.sampled_from([integers, wide_coefficients]))
    common = draw(nonzero_polys(elements, max_size=4))
    a = poly_mul(draw(polys(elements, max_size=5)), common)
    b = poly_mul(draw(polys(elements, max_size=5)), common)
    return a, b


@st.composite
def scalars(draw):
    num = draw(polys(coefficients))
    den = draw(nonzero_polys(coefficients))
    return Scalar(num, den)


def assert_gcd(a, b, g) -> None:
    """g is the Z[q] gcd of a and b: the reference's gcd over Q times the
    gcd of the contents, with positive leading coefficient."""
    if not a and not b:
        assert g == ()
        return
    assert all(type(c) is int for c in g) and g[-1] > 0
    assert math.gcd(*g) == math.gcd(*a, *b)
    lead = g[-1]
    assert tuple(Fraction(c, lead) for c in g) == ref.poly_gcd(as_ref(a), as_ref(b))


def assert_cofactors(a, b, found) -> None:
    g, x, y = found
    assert_gcd(a, b, g)
    assert poly_mul(g, x) == a and poly_mul(g, y) == b
    assert coprime(x, y)


def assert_matches(s: Scalar, pair: tuple) -> None:
    assert_normal(s)
    assert monic(s) == pair


class TestPolynomialKernel:
    @given(polys(), polys())
    def test_mul(self, a, b):
        out = poly_mul(a, b)
        assert all(type(c) is int for c in out)
        assert out == ref.poly_mul(as_ref(a), as_ref(b))

    @given(polys(max_size=8), nonzero_polys())
    def test_div_exact(self, a, b):
        assert poly_div_exact(poly_mul(a, b), b) == a
        quot, rem = ref.poly_divmod(as_ref(a), as_ref(b))
        if rem or any(c.denominator != 1 for c in quot):
            with pytest.raises(ValueError, match="inexact"):
                poly_div_exact(a, b)
        else:
            assert poly_div_exact(a, b) == quot

    @given(gcd_pairs())
    def test_gcd(self, pair):
        a, b = pair
        assert_gcd(a, b, poly_gcd(a, b))

    @given(gcd_pairs())
    def test_gcd_cofactors(self, pair):
        a, b = pair
        if a and b:
            assert_cofactors(a, b, qfield._gcd_cofactors(a, b))

    @given(gcd_pairs())
    def test_prs_fallback(self, pair):
        a, b = pair
        calls = []

        def give_up(f, g):
            calls.append((f, g))
            return None

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qfield, "_heuristic_gcd", give_up)
            assert_gcd(a, b, poly_gcd(a, b))
            if a and b:
                assert_cofactors(a, b, qfield._gcd_cofactors(a, b))
        assert bool(calls) == (len(a) > 1 and len(b) > 1)

    def test_heuristic_retries_at_larger_points(self, monkeypatch):
        # at the first point 2^2, gcd(f(4), g(4)) = gcd(24, 3) = 3 reads
        # back as q - 1, which does not divide f; a larger point finds 1
        f, g = (0, 2, 1), (-1, 1)
        assert qfield._heuristic_gcd(f, g) == ((1,), f, g)
        monkeypatch.setattr(qfield, "_HEU_TRIES", 1)
        assert qfield._heuristic_gcd(f, g) is None
        assert poly_gcd(f, g) == (1,)
        assert qfield._gcd_cofactors(f, g) == ((1,), f, g)


class TestScalarKernel:
    @given(scalars(), scalars())
    def test_add_sub_mul(self, a, b):
        x, y = monic(a), monic(b)
        assert_matches(a + b, ref.add(x, y))
        assert_matches(a - b, ref.sub(x, y))
        assert_matches(a * b, ref.mul(x, y))

    @given(scalars(), scalars())
    def test_div(self, a, b):
        if not b:
            return
        assert_matches(a / b, ref.div(monic(a), monic(b)))

    @given(polys(coefficients), nonzero_polys(coefficients))
    def test_constructor_reduces_like_reference(self, num, den):
        assert_matches(Scalar(num, den), ref.reduce(as_ref(num), as_ref(den)))

    @given(scalars())
    def test_wire_and_str_print_the_monic_view(self, a):
        num, den = monic(a)
        if den == ref.P_ONE:
            wire, human = qfield.poly_wire(num), qfield.poly_human(num)
        else:
            wire = f"{qfield.poly_wire(num)} / {qfield.poly_wire(den)}"
            human = f"({qfield.poly_human(num)})/({qfield.poly_human(den)})"
        assert a.to_wire() == wire and str(a) == human
        back = Scalar.from_wire(wire)
        assert (back.num, back.den) == (a.num, a.den)

    def test_integral_values_stored_as_int(self):
        s = Scalar((Fraction(4, 2), Fraction(6)), (Fraction(2),))
        assert s.num == (1, 3) and all(type(c) is int for c in s.num + s.den)
        assert [type(c) for c in Scalar((Fraction(3, 3),)).num] == [int]

    def test_rational_constants_keep_their_denominator(self):
        half = Scalar(Fraction(-1, 2))
        assert (half.num, half.den) == ((-1,), (2,))
        assert str(half) == "-1/2" and half.to_wire() == "-1/2*q^0"
        # 2/(-4q) = -1/(2q): the content cancels and the sign moves up
        s = Scalar(2, (0, -4))
        assert (s.num, s.den) == ((-1,), (0, 2))
        assert str(s) == "(-1/2)/(q)"


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
            return trimmed(Fraction(int(c.p), int(c.q)) / lead for c in values)

        assert monic(Scalar(num, den)) == (coeffs(top), coeffs(bottom))
