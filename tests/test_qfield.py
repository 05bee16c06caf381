from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from heckestab.qfield import (
    ONE,
    Q,
    WIRE_EXPONENT_BOUND,
    ZERO,
    Scalar,
    poly_gcd,
    poly_mul,
    poly_parse_wire,
    q_power,
    scal,
)


def poly(*coeffs):
    return tuple(Fraction(c) for c in coeffs)


@st.composite
def small_fractions(draw):
    """The values of st.fractions(-10, 10, max_denominator=6), drawn as a
    denominator and a numerator, about three times faster."""
    d = draw(st.integers(1, 6))
    return Fraction(draw(st.integers(-10 * d, 10 * d)), d)


@st.composite
def scalars(draw):
    num = tuple(draw(st.lists(small_fractions(), max_size=4)))
    den = tuple(draw(st.lists(small_fractions(), min_size=1, max_size=4)))
    if not any(den):
        den = (Fraction(1),)
    return Scalar(num, den)


class TestNormalization:
    def test_zero_collapses_denominator(self):
        s = Scalar((), poly(3, 1))
        assert s.num == ()
        assert s.den == poly(1)
        assert not s

    def test_common_factor_cancelled(self):
        # (q^2 - 1)/(q - 1) = q + 1
        s = Scalar(poly(-1, 0, 1), poly(-1, 1))
        assert s.num == poly(1, 1)
        assert s.den == poly(1)

    def test_denominator_made_monic(self):
        # stored over Z[q]; printed as the monic view 1/2 over q
        s = Scalar(poly(1), poly(0, 2))
        assert (s.num, s.den) == ((1,), (0, 2))
        assert s.to_wire() == "1/2*q^0 / 1*q^1"
        assert str(s) == "(1/2)/(q)"

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError, match="zero divisor"):
            Scalar(poly(1), ())

    @pytest.mark.parametrize(
        "num, den",
        [(0.1, 1), ((1, 0.5), 1), (1, 0.5), ((Fraction(1, 2), 2.0), (1,)), ("1/2", 1)],
    )
    def test_inexact_coefficients_rejected(self, num, den):
        # Fraction(0.1) would store the binary fraction nearest 0.1
        with pytest.raises(TypeError, match="not an exact coefficient"):
            Scalar(num, den)

    @given(scalars(), scalars())
    def test_equal_iff_cross_multiplication_agrees(self, a, b):
        assert (a == b) == (poly_mul(a.num, b.den) == poly_mul(b.num, a.den))

    @given(scalars())
    def test_num_den_coprime_and_den_monic(self, a):
        # coprime in Z[q], constants included; den has a positive leading
        # coefficient and is monic in the printed form
        assert poly_gcd(a.num, a.den) == (1,)
        assert a.den[-1] > 0
        _, _, den = a.to_wire().partition(" / ")
        assert den == "" or den.startswith(f"1*q^{len(a.den) - 1}")


class TestArithmetic:
    @given(scalars(), scalars(), scalars())
    def test_field_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a
        assert a * ONE == a
        assert a - a == ZERO

    @given(scalars())
    def test_multiplicative_inverse(self, a):
        if a:
            assert a * (ONE / a) == ONE
        else:
            with pytest.raises(ValueError, match="zero divisor"):
                ONE / a

    def test_integer_coercion(self):
        assert Q + 1 == Scalar(poly(1, 1), poly(1))
        assert 2 * Q == Q + Q
        assert Q - Q == 0
        assert (1 - Q) == -(Q - 1)

    def test_quadratic_relation_scalars(self):
        # (T - q)(T + 1) = 0 expands to T^2 = (q-1)T + q; check the
        # eigenvalue form: x = q and x = -1 both satisfy x^2 - (q-1)x - q.
        for x in (Q, scal(-1)):
            assert x * x - (Q - 1) * x - Q == ZERO

    @given(scalars())
    def test_product_with_one_is_the_other_factor(self, a):
        # a factor 1 returns the other operand itself, already in normal
        # form, on either side and whatever its denominator (a product
        # with 0 is ZERO, and 1 times 1 may be either operand)
        for product in (ONE * a, a * ONE, 1 * a, a * 1):
            assert (product.num, product.den) == (a.num, a.den)
            if a and a != ONE:
                assert product is a

    def test_product_with_one_keeps_a_denominator(self):
        a = (Q - 1) / (2 * Q * Q + 2)
        assert (a * ONE) is a and (ONE * a) is a
        assert (a.num, a.den) == ((-1, 1), (2, 0, 2))
        assert (ONE * 3).num == (3,) and (3 * ONE).num == (3,)

    def test_negative_power(self):
        assert q_power(-2) * q_power(2) == ONE
        assert Q ** -1 == ONE / Q

    @given(scalars(), st.integers(min_value=0, max_value=5))
    def test_power_matches_repeated_product(self, a, k):
        expected = ONE
        for _ in range(k):
            expected = expected * a
        assert a ** k == expected


class TestSpecialize:
    def test_cancellation_before_evaluation(self):
        s = Scalar(poly(-1, 0, 1), poly(-1, 1))  # (q^2-1)/(q-1)
        assert s.specialize(Fraction(3)) == 4
        # even at the removable point q = 1
        assert s.specialize(Fraction(1)) == 2

    def test_pole_detected(self):
        s = ONE / (Q - 1)
        with pytest.raises(ValueError, match="pole"):
            s.specialize(Fraction(1))

    @given(scalars(), scalars())
    def test_specialization_is_a_homomorphism(self, a, b):
        pt = Fraction(7, 2)
        try:
            va, vb = a.specialize(pt), b.specialize(pt)
        except ValueError:
            return
        assert (a + b).specialize(pt) == va + vb
        assert (a * b).specialize(pt) == va * vb


class TestStrings:
    def test_human_readable(self):
        assert str(Q) == "q"
        assert str(Q - 1) == "q-1"
        assert str(Q * Q + 2) == "q^2+2"
        assert str((Q - 1) / (Q + 1)) == "(q-1)/(q+1)"
        assert str(ZERO) == "0"
        assert str(scal(Fraction(-3, 2))) == "-3/2"

    def test_wire_round_trip_simple(self):
        for s in (ZERO, ONE, Q, Q - 1, (Q ** 3 - 2) / (Q + 5), scal(Fraction(2, 7))):
            assert Scalar.from_wire(s.to_wire()) == s

    @given(scalars())
    def test_wire_round_trip(self, a):
        b = Scalar.from_wire(a.to_wire())
        assert b == a
        assert b.num == a.num and b.den == a.den

    def test_wire_format_is_stable(self):
        assert Q.to_wire() == "1*q^1"
        assert (Q - 1).to_wire() == "1*q^1+-1*q^0"
        assert ZERO.to_wire() == "0"
        assert ((Q - 1) / (Q + 1)).to_wire() == "1*q^1+-1*q^0 / 1*q^1+1*q^0"

    @pytest.mark.parametrize(
        "wire",
        [
            "1*q^-1", "1*q^2+1*q^-1", "-3*q^-2+1*q^0", "1*q^x", "x*q^0", "1/0*q^0",
            "0.5*q^1", "1e3*q^0", "1*q^1+-2.5*q^0", "1*q^1+ 1/2*q^0", "+1*q^0",
            f"1*q^{WIRE_EXPONENT_BOUND + 1}", "1*q^0+1*q^999999999",
            # exponents poly_wire never writes, which int() would read
            "1*q^1_0", "1*q^ 2", "1*q^2 +1*q^0", "1*q^+2", "1*q^\u0663",
            "1*q^\uff12", "1*q^",
        ],
    )
    def test_parse_wire_rejects_bad_terms(self, wire):
        # an exponent out of range is malformed wherever its term stands
        with pytest.raises(ValueError, match="bad polynomial term"):
            poly_parse_wire(wire)

    def test_parse_wire_accepts_the_exponent_bound(self):
        top = poly_parse_wire(f"1*q^{WIRE_EXPONENT_BOUND}")
        assert len(top) == WIRE_EXPONENT_BOUND + 1
