"""Reference Q(q) kernel: every coefficient a Fraction, gcds by Euclid.

This is the arithmetic ``heckestab.qfield`` used before its coefficients
became ints where integral and its gcd became heuristic.  It is kept only
as the slow, obviously correct side of the differential tests.  A
polynomial is a tuple of Fractions, lowest degree first, no trailing
zeros; a scalar is a pair (num, den) with den monic and gcd(num, den) = 1.
"""

from fractions import Fraction

F0 = Fraction(0)
P_ONE = (Fraction(1),)


def trim(coeffs: list) -> tuple:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def poly_add(a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return trim(out)


def poly_neg(a: tuple) -> tuple:
    return tuple(-c for c in a)


def poly_mul(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    out = [F0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return trim(out)


def poly_divmod(a: tuple, b: tuple) -> tuple:
    if not b:
        raise ValueError("zero divisor")
    if len(a) < len(b):
        return (), a
    rem = list(a)
    db = len(b) - 1
    quot = [F0] * (len(a) - db)
    for k in range(len(a) - 1 - db, -1, -1):
        c = rem[k + db] / b[-1]
        quot[k] = c
        for j in range(db + 1):
            rem[k + j] -= c * b[j]
    return trim(quot), trim(rem)


def poly_monic(a: tuple) -> tuple:
    if not a:
        return a
    inv = 1 / a[-1]
    return tuple(c * inv for c in a)


def poly_gcd(a: tuple, b: tuple) -> tuple:
    while b:
        a, b = b, poly_monic(poly_divmod(a, b)[1])
    return poly_monic(a)


def reduce(num: tuple, den: tuple) -> tuple:
    if not den:
        raise ValueError("zero divisor")
    if not num:
        return (), P_ONE
    g = poly_gcd(num, den)
    num, den = poly_divmod(num, g)[0], poly_divmod(den, g)[0]
    inv = 1 / den[-1]
    return tuple(c * inv for c in num), tuple(c * inv for c in den)


def add(x: tuple, y: tuple) -> tuple:
    (a, b), (c, d) = x, y
    return reduce(poly_add(poly_mul(a, d), poly_mul(c, b)), poly_mul(b, d))


def sub(x: tuple, y: tuple) -> tuple:
    return add(x, (poly_neg(y[0]), y[1]))


def mul(x: tuple, y: tuple) -> tuple:
    return reduce(poly_mul(x[0], y[0]), poly_mul(x[1], y[1]))


def div(x: tuple, y: tuple) -> tuple:
    return reduce(poly_mul(x[0], y[1]), poly_mul(x[1], y[0]))
