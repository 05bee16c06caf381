"""Reference T-basis product: a fold of Scalar arithmetic, one generator at a time.

This is the multiplication ``heckestab.hecke.mult`` used before it moved to
packed integers.  It is kept only as the slow, obviously correct side of
the differential tests: left multiplication by a generator follows the
two-case rule

    T_s T_w = T_{sw}                 if l(sw) > l(w),
    T_s T_w = q T_{sw} + (q-1) T_w   otherwise,

and T_w y is the fold of that rule over a reduced word of w.
"""

from heckestab.hecke import HeckeElement
from heckestab.qfield import Q, ZERO

Q_MINUS_ONE = Q - 1


def gen_left_mult(i: int, x: HeckeElement) -> HeckeElement:
    """T_{s_i} * x via the two-case rule."""
    out: dict = {}
    for w, c in x.coeffs.items():
        sw = w.swap_values(i)
        if sw.length > w.length:
            s = out.get(sw, ZERO) + c
            if s:
                out[sw] = s
            else:
                out.pop(sw, None)
        else:
            s = out.get(sw, ZERO) + Q * c
            if s:
                out[sw] = s
            else:
                out.pop(sw, None)
            s = out.get(w, ZERO) + Q_MINUS_ONE * c
            if s:
                out[w] = s
            else:
                out.pop(w, None)
    res = HeckeElement(x.n)
    res.coeffs = out
    return res


def mult(x: HeckeElement, y: HeckeElement) -> HeckeElement:
    """The product xy, folding generators of each left factor basis word."""
    if x.n != y.n:
        raise ValueError("rank mismatch")
    total = HeckeElement(x.n)
    for w, c in x.coeffs.items():
        acc = y
        for i in reversed(w.reduced_word()):
            acc = gen_left_mult(i, acc)
        total = total + acc.scale(c)
    return total
