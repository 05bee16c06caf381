"""Exact arithmetic in the rational function field Q(q).

Every Hecke-algebra computation in this package happens over the field
k = Q(q) with q a formal parameter ("generic q").  Floating point is never
used.  A polynomial is a tuple of coefficients, lowest degree first, with
no trailing zeros; the zero polynomial is the empty tuple.  A coefficient
is an ``int`` when it is integral and a ``Fraction`` only when it is not,
so integer arithmetic, the common case, never builds a ``Fraction``;
``Fraction(3) == 3`` and ``hash(Fraction(3)) == hash(3)``, so equality,
hashing and printing do not see the difference.  A :class:`Scalar` is a
reduced fraction num/den of two such polynomials, normalised so that

* the denominator is monic and nonzero,
* gcd(num, den) = 1,
* zero is represented as 0/1.

Two scalars are equal iff their representations are equal, so ``==`` and
hashing are structural.

Gcds use the heuristic GCDHEU (Char, Geddes and Gonnet, J. Symb. Comput.
7, 1989) on the primitive integer parts: the gcd of two integer values
f(x), g(x), read back as a polynomial in balanced base x.  Its answer is
certified by exact division, and the Euclidean algorithm takes over when
the heuristic gives up, so the result is always exact.

>>> str(Q * Q - ONE)
'q^2-1'
>>> str((Q * Q - ONE) / (Q - ONE))
'q+1'
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

__all__ = [
    "Poly",
    "Scalar",
    "ZERO",
    "ONE",
    "Q",
    "scal",
    "poly_gcd",
    "poly_divmod",
]

Poly = tuple  # int or non-integral Fraction coefficients, lowest degree first

_F0 = Fraction(0)

_P_ZERO: Poly = ()
_P_ONE: Poly = (1,)

# tries of the heuristic gcd, each at a larger evaluation point
_HEU_TRIES = 6

# The largest exponent a wire string may carry.  Parsing allocates a dense
# list as long as the largest exponent, so this caps what a tower file can
# ask for; the Specht generators with |lam| <= 7 reach q^11.
WIRE_EXPONENT_BOUND = 64


def _trim(coeffs: list) -> Poly:
    """The polynomial with these coefficients: no trailing zeros, and
    integral coefficients stored as int."""
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    if Fraction in map(type, coeffs):
        return tuple(c.numerator if c.denominator == 1 else c for c in coeffs)
    return tuple(coeffs)


def _coeff(c):
    """A coefficient in normal form: int if integral, else Fraction."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _div(x, y):
    """The exact quotient x / y of two coefficients, y nonzero, in normal form."""
    if type(x) is int and type(y) is int:
        quo, rem = divmod(x, y)
        return Fraction(x, y) if rem else quo
    c = x / y  # at least one Fraction, so a Fraction
    return c.numerator if c.denominator == 1 else c


def _poly_over(a: Poly, c) -> Poly:
    """a / c for a nonzero coefficient c."""
    return tuple(_div(x, c) for x in a)


def poly_from_fraction(c) -> Poly:
    c = _coeff(c)
    return (c,) if c else ()


def _as_poly(x) -> Poly:
    """A tuple of coefficients, or one coefficient, as a polynomial."""
    if isinstance(x, tuple):
        return _trim(list(map(_coeff, x)))
    return poly_from_fraction(x)


def poly_add(a: Poly, b: Poly) -> Poly:
    if not a:
        return b
    if not b:
        return a
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def poly_neg(a: Poly) -> Poly:
    return tuple(-c for c in a)


def poly_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return _P_ZERO
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b, i):
                out[j] += ca * cb
    return _trim(out)


def poly_divmod(a: Poly, b: Poly) -> tuple:
    """Quotient and remainder of polynomial division; ``b`` must be nonzero."""
    if not b:
        raise ValueError("zero divisor")
    if len(a) < len(b):
        return _P_ZERO, a
    rem = list(a)
    db = len(b) - 1
    lead = b[-1]
    quot = [0] * (len(a) - db)
    for k in range(len(a) - 1 - db, -1, -1):
        c = _div(rem[k + db], lead)
        if c:
            quot[k] = c
            for j in range(db + 1):
                rem[k + j] -= c * b[j]
    return _trim(quot), _trim(rem)


def poly_div_exact(a: Poly, b: Poly) -> Poly:
    q, r = poly_divmod(a, b)
    if r:
        raise ValueError("inexact polynomial division")
    return q


def poly_monic(a: Poly) -> Poly:
    if not a or a[-1] == 1:
        return a
    return _poly_over(a, a[-1])


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd; the zero polynomial only when both inputs are zero.

    GCDHEU on the primitive integer parts, with the Euclidean algorithm
    when the heuristic gives up.
    """
    if not a or not b:
        return poly_monic(a or b)
    if len(a) == 1 or len(b) == 1:
        return _P_ONE
    g = _heuristic_gcd(_primitive(a), _primitive(b))
    if g is None:
        return _euclid_gcd(a, b)
    return poly_monic(g)


def _euclid_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd via the Euclidean algorithm (remainders kept monic)."""
    while b:
        a, b = b, poly_monic(poly_divmod(a, b)[1])
    return poly_monic(a)


def _primitive(a: Poly) -> list:
    """The primitive integer polynomial that is a rational multiple of a != 0."""
    if Fraction in map(type, a):
        d = math.lcm(*(c.denominator for c in a))
        a = [c.numerator * (d // c.denominator) for c in a]
    g = math.gcd(*a)
    return list(a) if g == 1 else [c // g for c in a]


def _heuristic_gcd(f: list, g: list):
    """The primitive gcd in Z[q] of primitive f and g of degree >= 1, or
    None if the heuristic gives up.

    Each try reads a candidate G off gcd(f(x), g(x)) in balanced base x.
    For x >= 2 min(|f|, |g|) + 2, max norms, a primitive G dividing both
    f and g is their gcd (Geddes, Czapor and Labahn, Algorithms for
    Computer Algebra, 1992, Thm 7.7), so exact division certifies it.
    """
    x = 2 * min(max(map(abs, f)), max(map(abs, g))) + 2
    for _ in range(_HEU_TRIES):
        G = _balanced_digits(math.gcd(_eval_int(f, x), _eval_int(g, x)), x)
        if len(G) == 1:
            return _P_ONE
        content = math.gcd(*G)
        if content != 1:
            G = [c // content for c in G]
        if _divides(G, f) and _divides(G, g):
            return tuple(G)
        x = x * 73794 * math.isqrt(math.isqrt(x)) // 27011
    return None


def _eval_int(f: list, x: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def _balanced_digits(h: int, x: int) -> list:
    """Digits of h > 0 in base x, each in (-x/2, x/2], lowest first."""
    digits = []
    half = x // 2
    while h:
        d = h % x
        if d > half:
            d -= x
        digits.append(d)
        h = (h - d) // x
    return digits


def _divides(g: list, f: list) -> bool:
    """Whether g divides f in Z[q]; both nonzero."""
    dg = len(g) - 1
    if dg >= len(f):
        return False
    rem = list(f)
    lead = g[-1]
    for k in range(len(f) - 1 - dg, -1, -1):
        c, r = divmod(rem[k + dg], lead)
        if r:
            return False
        if c:
            for j in range(dg):
                rem[k + j] -= c * g[j]
    return not any(rem[:dg])


def poly_eval(a: Poly, point: Fraction) -> Fraction:
    acc = _F0
    for c in reversed(a):
        acc = acc * point + c
    return acc


def poly_wire(a: Poly) -> str:
    """Unambiguous machine form: '+'-joined 'c*q^k' terms, highest degree first."""
    if not a:
        return "0"
    terms = []
    for k in range(len(a) - 1, -1, -1):
        if a[k]:
            terms.append(f"{a[k]}*q^{k}")
    return "+".join(terms)


def poly_parse_wire(s: str) -> Poly:
    """The polynomial a poly_wire string names.

    Raises ValueError("bad polynomial term ...") on a malformed term,
    a negative exponent or one above WIRE_EXPONENT_BOUND included.
    """
    s = s.strip()
    if s == "0":
        return _P_ZERO
    coeffs: dict = {}
    for term in s.split("+"):
        c, _, k = term.partition("*q^")
        if not k:
            raise ValueError(f"bad polynomial term {term!r}")
        try:
            exp = int(k)
            if not 0 <= exp <= WIRE_EXPONENT_BOUND:
                raise ValueError("exponent out of range")
            coeffs[exp] = coeffs.get(exp, 0) + Fraction(c)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"bad polynomial term {term!r}") from None
    if not coeffs:
        return _P_ZERO
    out = [0] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        out[k] = c
    return _trim(out)


def poly_human(a: Poly) -> str:
    """Readable form such as 'q^2-q+3' or '1/2*q'."""
    if not a:
        return "0"
    parts = []
    for k in range(len(a) - 1, -1, -1):
        c = a[k]
        if not c:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            var = "q" if k == 1 else f"q^{k}"
            body = var if mag == 1 else f"{mag}*{var}"
        sign = "-" if c < 0 else ("+" if parts else "")
        parts.append(sign + body)
    return "".join(parts)


class Scalar:
    """An element of Q(q), always kept in reduced normal form."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den=1):
        if isinstance(num, Scalar) or isinstance(den, Scalar):
            raise TypeError("use arithmetic operators to combine scalars")
        n, d = _reduce(_as_poly(num), _as_poly(den))
        self.num = n
        self.den = d
        self._hash = None

    @classmethod
    def _new(cls, num: Poly, den: Poly) -> "Scalar":
        """Internal constructor for already-normalised data."""
        self = object.__new__(cls)
        self.num = num
        self.den = den
        self._hash = None
        return self

    # -- predicates ---------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.num)

    def is_one(self) -> bool:
        return self.num == _P_ONE and self.den == _P_ONE

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        if self.den == _P_ONE and other.den == _P_ONE:
            return Scalar._new(poly_add(self.num, other.num), _P_ONE)
        if self.den == other.den:
            return _make(poly_add(self.num, other.num), self.den)
        num = poly_add(poly_mul(self.num, other.den), poly_mul(other.num, self.den))
        return _make(num, poly_mul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self):
        return Scalar._new(poly_neg(self.num), self.den)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        if not self.num or not other.num:
            return ZERO
        if self.den == _P_ONE and other.den == _P_ONE:
            return Scalar._new(poly_mul(self.num, other.num), _P_ONE)
        # cross-cancel before multiplying to keep degrees small
        n1, d2 = _cancel(self.num, other.den)
        n2, d1 = _cancel(other.num, self.den)
        return Scalar._new(poly_mul(n1, n2), poly_mul(d1, d2))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        if not other.num:
            raise ValueError("zero divisor")
        inv_num, inv_den = other.den, other.num
        lead = inv_den[-1]
        if lead != 1:
            inv_num = _poly_over(inv_num, lead)
            inv_den = _poly_over(inv_den, lead)
        return self * Scalar._new(inv_num, inv_den)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        return other / self

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return ONE / (self ** (-k))
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    # -- comparisons / hashing ----------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    # -- evaluation and formatting ------------------------------------

    def specialize(self, point) -> Fraction:
        """Evaluate at a rational point; raises on a pole of the reduced form."""
        point = Fraction(point)
        d = poly_eval(self.den, point)
        if d == 0:
            raise ValueError(f"pole at q = {point}")
        return poly_eval(self.num, point) / d

    def __str__(self):
        if self.den == _P_ONE:
            return poly_human(self.num)
        return f"({poly_human(self.num)})/({poly_human(self.den)})"

    def __repr__(self):
        return f"Scalar({self})"

    def to_wire(self) -> str:
        if self.den == _P_ONE:
            return poly_wire(self.num)
        return f"{poly_wire(self.num)} / {poly_wire(self.den)}"

    @classmethod
    def from_wire(cls, s: str) -> "Scalar":
        num, sep, den = s.partition(" / ")
        n = poly_parse_wire(num)
        d = poly_parse_wire(den) if sep else _P_ONE
        return _make(n, d)


def _cancel(a: Poly, b: Poly) -> tuple:
    g = poly_gcd(a, b)
    if len(g) > 1:
        return poly_div_exact(a, g), poly_div_exact(b, g)
    return a, b


def _reduce(num: Poly, den: Poly) -> tuple:
    if not den:
        raise ValueError("zero divisor")
    if not num:
        return _P_ZERO, _P_ONE
    if den != _P_ONE:
        num, den = _cancel(num, den)
        lead = den[-1]
        if lead != 1:
            num = _poly_over(num, lead)
            den = _poly_over(den, lead)
    return num, den


def _make(num: Poly, den: Poly) -> Scalar:
    num, den = _reduce(num, den)
    return Scalar._new(num, den)


ZERO = Scalar._new(_P_ZERO, _P_ONE)
ONE = Scalar._new(_P_ONE, _P_ONE)
Q = Scalar._new((0, 1), _P_ONE)

_SMALL = {0: ZERO, 1: ONE, -1: Scalar._new((-1,), _P_ONE)}


def scal(x) -> Scalar:
    """Coerce an int or Fraction (or Scalar) to a Scalar."""
    if isinstance(x, Scalar):
        return x
    if isinstance(x, int) and x in _SMALL:
        return _SMALL[x]
    if isinstance(x, (int, Fraction)):
        return Scalar._new(poly_from_fraction(x), _P_ONE)
    raise TypeError(f"cannot coerce {type(x).__name__} to Scalar")


def _coerce(x) -> Union[Scalar, type(NotImplemented)]:
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return scal(x)
    return NotImplemented


def q_power(k: int) -> Scalar:
    """q**k, allowing negative k."""
    return Q**k
