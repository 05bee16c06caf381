"""Exact arithmetic in the rational function field Q(q).

Every Hecke-algebra computation in this package happens over the field
k = Q(q) with q a formal parameter ("generic q").  Floating point is never
used.  Q(q) is the fraction field of Z[q], a unique factorisation domain,
so all arithmetic runs on integer polynomials.  A polynomial is a tuple of
int coefficients, lowest degree first, with no trailing zeros; the zero
polynomial is the empty tuple.  A :class:`Scalar` is a quotient num/den of
two such polynomials, normalised so that

* num and den have no common factor in Z[q], constants included,
* the leading coefficient of den is positive,
* zero is represented as 0/1.

This form is unique, so ``==`` and hashing are structural.  ``Fraction``
appears only at the boundary: the constructor and :func:`scal` clear the
denominators of rational input, :meth:`Scalar.specialize` returns a
rational value, and ``str``, ``to_wire`` and ``from_wire`` use the monic
view num/c over den/c, c the leading coefficient of den.

One integer codec serves every fast path: a polynomial is packed as its
value at q = 2^k and read back as its balanced base-2^k digits
(:func:`poly_pack`, :func:`poly_unpack`).  Gcds use the heuristic GCDHEU
(Char, Geddes and Gonnet, J. Symb. Comput. 7, 1989) on the primitive
parts: the integer gcd of the two packed values, read back as a
polynomial.  Its answer is certified by exact division, and a primitive
remainder sequence takes over when the heuristic gives up, so the result
is always exact.

>>> str(Q * Q - ONE)
'q^2-1'
>>> str((Q * Q - ONE) / (Q - ONE))
'q+1'
>>> half = ONE / (2 * Q)
>>> half.num, half.den, str(half)
((1,), (0, 2), '(1/2)/(q)')
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Union

__all__ = [
    "Poly",
    "Scalar",
    "ZERO",
    "ONE",
    "MINUS_ONE",
    "Q",
    "scal",
    "poly_gcd",
    "poly_div_exact",
    "pack_width",
    "poly_pack",
    "poly_unpack",
]

Poly = tuple  # int coefficients, lowest degree first

_F0 = Fraction(0)

_P_ZERO: Poly = ()
_P_ONE: Poly = (1,)

# tries of the heuristic gcd, each at a larger evaluation point
_HEU_TRIES = 6

# The largest exponent a wire string may carry.  Parsing allocates a dense
# list as long as the largest exponent, so this caps what a tower file can
# ask for; the Specht generators with |lam| <= 7 reach q^11.
WIRE_EXPONENT_BOUND = 64

# The coefficient forms poly_wire writes: an int, or a fraction of two ints.
_WIRE_COEFFICIENT = re.compile(r"-?[0-9]+(/[0-9]+)?")
_WIRE_EXPONENT = re.compile(r"[0-9]+")


def _trim(coeffs: list) -> Poly:
    """The polynomial with these coefficients: no trailing zeros."""
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def _cleared(x) -> tuple:
    """(p, c) with p in Z[q], c a positive int and x = p / c, for a tuple
    of int or Fraction coefficients, or for one coefficient.

    Any other coefficient raises TypeError: a float would otherwise enter
    as the binary fraction nearest to it, and a string as whatever
    Fraction parses it as.
    """
    if type(x) is not tuple:
        x = (x,)
    if all(type(a) is int for a in x):
        return _trim(list(x)), 1
    for a in x:
        if not isinstance(a, (int, Fraction)):
            raise TypeError(f"not an exact coefficient: {a!r}")
    coeffs = [Fraction(a) for a in x]
    c = math.lcm(*(a.denominator for a in coeffs))
    return _trim([a.numerator * (c // a.denominator) for a in coeffs]), c


def _times(a: Poly, c: int) -> Poly:
    return a if c == 1 else tuple(x * c for x in a)


def _over(a: Poly, c: int) -> Poly:
    """a / c for an int c dividing every coefficient of a."""
    return a if c == 1 else tuple(x // c for x in a)


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


def _quotient(a: Poly, b: Poly):
    """a / b in Z[q] for b nonzero, or None when b does not divide a in Z[q]."""
    if not a:
        return _P_ZERO
    db = len(b) - 1
    if len(a) <= db:
        return None
    rem = list(a)
    lead = b[-1]
    quot = [0] * (len(a) - db)
    for k in range(len(a) - 1 - db, -1, -1):
        c, r = divmod(rem[k + db], lead)
        if r:
            return None
        if c:
            quot[k] = c
            for j in range(db):
                rem[k + j] -= c * b[j]
    return None if any(rem[:db]) else tuple(quot)


def poly_div_exact(a: Poly, b: Poly) -> Poly:
    """a / b in Z[q]; raises ValueError unless b is nonzero and divides a."""
    if not b:
        raise ValueError("zero divisor")
    quot = _quotient(a, b)
    if quot is None:
        raise ValueError("inexact polynomial division")
    return quot


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """The gcd in Z[q], with positive leading coefficient; the zero
    polynomial only when both inputs are zero."""
    if not a or not b:
        p = a or b
        return poly_neg(p) if p and p[-1] < 0 else p
    return _gcd_cofactors(a, b)[0]


def _gcd_cofactors(a: Poly, b: Poly) -> tuple:
    """(g, a / g, b / g) for g the gcd of nonzero a and b in Z[q], with
    positive leading coefficient.

    g is the gcd of the contents times the gcd of the primitive parts:
    GCDHEU, or the primitive remainder sequence when it gives up.
    """
    if len(a) == 1 or len(b) == 1:
        c = math.gcd(*a, *b)
        return (c,), _over(a, c), _over(b, c)
    ca, cb = math.gcd(*a), math.gcd(*b)
    f, g = _over(a, ca), _over(b, cb)
    found = _heuristic_gcd(f, g)
    if found is None:
        G = _prs_gcd(f, g)
        found = G, poly_div_exact(f, G), poly_div_exact(g, G)
    G, qf, qg = found
    c = math.gcd(ca, cb)
    return _times(G, c), _times(qf, ca // c), _times(qg, cb // c)


def _heuristic_gcd(f: Poly, g: Poly):
    """(G, f / G, g / G) for G the gcd in Z[q] of primitive f and g of
    degree >= 1, or None if the heuristic gives up.

    Each try packs f and g at q = 2^k and reads a candidate G off the
    gcd of the two values, made primitive; its leading coefficient is
    positive, as the gcd is.  For 2^k >= 2 min(|f|, |g|) + 2, max norms,
    a primitive G dividing both f and g is their gcd (Geddes, Czapor and
    Labahn, Algorithms for Computer Algebra, 1992, Thm 7.7), so exact
    division certifies it and gives the cofactors.
    """
    k = pack_width(min(max(map(abs, f)), max(map(abs, g))))
    for _ in range(_HEU_TRIES):
        G = poly_unpack(math.gcd(poly_pack(f, k), poly_pack(g, k)), k)
        if len(G) == 1:
            return _P_ONE, f, g
        G = _over(G, math.gcd(*G))
        qf = _quotient(f, G)
        qg = None if qf is None else _quotient(g, G)
        if qg is not None:
            return G, qf, qg
        k += k // 4 + 2
    return None


def _prs_gcd(f: Poly, g: Poly) -> Poly:
    """The gcd of primitive f and g in Z[q], with positive leading
    coefficient, by the primitive remainder sequence: each pseudo-remainder
    is divided by its content (Geddes, Czapor and Labahn 1992, ch. 7)."""
    if len(f) < len(g):
        f, g = g, f
    while g:
        rem = _pseudo_remainder(f, g)
        f, g = g, _over(rem, math.gcd(*rem) or 1)
    return poly_neg(f) if f[-1] < 0 else f


def _pseudo_remainder(f: Poly, g: Poly) -> Poly:
    """The remainder of lc(g)^(deg f - deg g + 1) f on division by g, over Z."""
    rem = list(f)
    dg = len(g) - 1
    lead = g[-1]
    for k in range(len(f) - 1 - dg, -1, -1):
        c = rem.pop()
        rem = [lead * x for x in rem]
        for j in range(dg):
            rem[k + j] -= c * g[j]
    return _trim(rem)


# -- the integer codec ---------------------------------------------------


def pack_width(bound: int) -> int:
    """The least k with 2^(k-1) > bound: at q = 2^k, a Z[q] polynomial whose
    coefficients are at most bound in absolute value is read back exactly."""
    return bound.bit_length() + 1


def poly_pack(p: Poly, k: int) -> int:
    """The value of the Z[q] polynomial p at q = 2^k."""
    h = 0
    for a in reversed(p):
        h = (h << k) + a
    return h


def poly_unpack(h: int, k: int) -> Poly:
    """The Z[q] polynomial whose value at q = 2^k is h, read as balanced
    base-2^k digits in [-2^(k-1), 2^(k-1)).

    A polynomial with coefficients below 2^(k-1) in absolute value is read
    back exactly.  At k = 1 only the zero polynomial is, so h = 0 is the
    only valid value.  Any other h raises ValueError: a positive one would
    otherwise grow digits in {-1, 0} forever.
    """
    if k < 2 and h:
        raise ValueError(f"no balanced base-2^{k} digits for a nonzero value")
    digits = []
    base = 1 << k
    mask = base - 1
    half = base >> 1
    while h:
        d = h & mask
        h >>= k
        if d >= half:
            d -= base
            h += 1
        digits.append(d)
    return tuple(digits)


# -- evaluation and strings ----------------------------------------------


def poly_eval(a, point: Fraction) -> Fraction:
    acc = _F0
    for c in reversed(a):
        acc = acc * point + c
    return acc


def poly_wire(a) -> str:
    """Unambiguous machine form: '+'-joined 'c*q^k' terms, highest degree first."""
    if not a:
        return "0"
    terms = []
    for k in range(len(a) - 1, -1, -1):
        if a[k]:
            terms.append(f"{a[k]}*q^{k}")
    return "+".join(terms)


def poly_parse_wire(s: str) -> tuple:
    """The polynomial a poly_wire string names, with Fraction coefficients.

    Raises ValueError("bad polynomial term ...") on a malformed term: a
    coefficient in a form poly_wire does not write (a decimal such as 0.5
    or 1e3 included), an exponent that is not ASCII digits (1_0, a space
    or a non-ASCII digit included), or one above WIRE_EXPONENT_BOUND.
    """
    s = s.strip()
    if s == "0":
        return _P_ZERO
    coeffs: dict = {}
    for term in s.split("+"):
        c, _, k = term.partition("*q^")
        if not _WIRE_EXPONENT.fullmatch(k) or not _WIRE_COEFFICIENT.fullmatch(c):
            raise ValueError(f"bad polynomial term {term!r}")
        try:
            exp = int(k)
            if not 0 <= exp <= WIRE_EXPONENT_BOUND:
                raise ValueError("exponent out of range")
            coeffs[exp] = coeffs.get(exp, _F0) + Fraction(c)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"bad polynomial term {term!r}") from None
    if not coeffs:
        return _P_ZERO
    out = [_F0] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        out[k] = c
    return _trim(out)


def poly_human(a) -> str:
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
        """num / den for ints, Fractions, or tuples of them as polynomials."""
        if isinstance(num, Scalar) or isinstance(den, Scalar):
            raise TypeError("use arithmetic operators to combine scalars")
        n, cn = _cleared(num)
        d, cd = _cleared(den)
        self.num, self.den = _reduce(_times(n, cd), _times(d, cn))
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
        """The product in normal form.

        A factor equal to 1 returns the other factor itself: scalars are
        immutable and always normalised, so that is the product's value
        in the product's normal form, built without arithmetic.
        """
        other = _coerce(other)
        if other is NotImplemented:
            return other
        if not self.num or not other.num:
            return ZERO
        if self.num == _P_ONE and self.den == _P_ONE:
            return other
        if other.num == _P_ONE and other.den == _P_ONE:
            return self
        if self.den == _P_ONE and other.den == _P_ONE:
            return Scalar._new(poly_mul(self.num, other.num), _P_ONE)
        # cross-cancel before multiplying to keep degrees small; the
        # cofactors of positive dens keep positive leading coefficients
        _, n1, d2 = _gcd_cofactors(self.num, other.den)
        _, n2, d1 = _gcd_cofactors(other.num, self.den)
        return Scalar._new(poly_mul(n1, n2), poly_mul(d1, d2))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        if not other.num:
            raise ValueError("zero divisor")
        inv_num, inv_den = other.den, other.num
        if inv_den[-1] < 0:
            inv_num, inv_den = poly_neg(inv_num), poly_neg(inv_den)
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

    def _monic(self) -> tuple:
        """(num / c, den / c) for c the leading coefficient of den, with
        Fraction coefficients where c does not divide: the printed form."""
        lead = self.den[-1]
        if lead == 1:
            return self.num, self.den
        return (
            tuple(Fraction(a, lead) for a in self.num),
            tuple(Fraction(a, lead) for a in self.den),
        )

    def __str__(self):
        num, den = self._monic()
        if len(den) == 1:
            return poly_human(num)
        return f"({poly_human(num)})/({poly_human(den)})"

    def __repr__(self):
        return f"Scalar({self})"

    def to_wire(self) -> str:
        num, den = self._monic()
        if len(den) == 1:
            return poly_wire(num)
        return f"{poly_wire(num)} / {poly_wire(den)}"

    @classmethod
    def from_wire(cls, s: str) -> "Scalar":
        num, sep, den = s.partition(" / ")
        return cls(poly_parse_wire(num), poly_parse_wire(den) if sep else 1)


def _reduce(num: Poly, den: Poly) -> tuple:
    if not den:
        raise ValueError("zero divisor")
    if not num:
        return _P_ZERO, _P_ONE
    if den != _P_ONE:
        _, num, den = _gcd_cofactors(num, den)
        if den[-1] < 0:
            num, den = poly_neg(num), poly_neg(den)
    return num, den


def _make(num: Poly, den: Poly) -> Scalar:
    num, den = _reduce(num, den)
    return Scalar._new(num, den)


ZERO = Scalar._new(_P_ZERO, _P_ONE)
ONE = Scalar._new(_P_ONE, _P_ONE)
MINUS_ONE = Scalar._new((-1,), _P_ONE)
Q = Scalar._new((0, 1), _P_ONE)

_SMALL = {0: ZERO, 1: ONE, -1: MINUS_ONE}


def scal(x) -> Scalar:
    """Coerce an int or Fraction (or Scalar) to a Scalar."""
    if isinstance(x, Scalar):
        return x
    if isinstance(x, int) and x in _SMALL:
        return _SMALL[x]
    if isinstance(x, int):
        return Scalar._new((x,), _P_ONE)
    if isinstance(x, Fraction):
        num = x.numerator
        return Scalar._new((num,) if num else _P_ZERO, (x.denominator,))
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
