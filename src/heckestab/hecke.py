"""The Iwahori-Hecke algebra of type A over Q(q), in the T-basis.

H_n is generated by T_{s_1}, ..., T_{s_{n-1}} subject to

    (T_{s_i} - q)(T_{s_i} + 1) = 0,
    T_{s_i} T_{s_j} = T_{s_j} T_{s_i}          for |i - j| > 1,
    T_{s_i} T_{s_{i+1}} T_{s_i} = T_{s_{i+1}} T_{s_i} T_{s_{i+1}},

with k-basis {T_w : w in S_n} and H_0 = H_1 = k.  Left multiplication by
a generator is

    T_s T_w = T_{sw}                 if l(sw) > l(w),
    T_s T_w = q T_{sw} + (q-1) T_w   otherwise,

and T_w = T_{s_i} T_{s_i w} for any left descent i of w.

The product ``mult`` folds these rules over integers, not over Q(q).
Write x = X / D_x and y = Y / D_y, where D is the lcm of the coefficient
denominators times an integer, so that X and Y have Z[q] coefficients.
Evaluation at q = 2^k is a ring map Z[q] -> Z, so XY can be computed with
each coefficient packed into one Python int: a generator step is c, c << k
or (c << k) - c.  Each step at most triples the l1 norm of the
coefficients, so every coefficient of XY is bounded in absolute value by

    B = (sum_w |X_w|_1 3^{l(w)}) (sum_v |Y_v|_1).

With 2^(k-1) > B, a polynomial with coefficients in (-2^(k-1), 2^(k-1)) is
the only one with its value at 2^k: its coefficients are the balanced
base-2^k digits of that value.  So decoding is exact, and only the final
coefficients need the bound.  The terms of x are grouped by their smallest
left descent, so terms whose reduced words share a leading letter share
that generator pass.

Modules are given concretely as ModulePresentation: one exact matrix per
generator, acting on column vectors, with all defining relations verified
at construction time.
"""

from __future__ import annotations

import math

from .linalg import ExactMatrix
from .qfield import ONE, Q, ZERO, Scalar, poly_div_exact, poly_gcd, poly_mul, scal
from .symgroup import (
    Permutation,
    coset_min_reps,
    first_descent,
    is_distinguished,
    left_step,
    permutations_of,
)

__all__ = [
    "HeckeElement",
    "mult",
    "tau",
    "ModulePresentation",
    "regular_representation",
    "index_rep",
    "sign_rep",
    "induce_pair",
]

REGULAR_BOUND = 6

Q_MINUS_ONE = Q - 1


class HeckeElement:
    """A finitely supported k-linear combination of basis elements T_w."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs=None):
        self.n = n
        clean = {}
        for w, c in (coeffs or {}).items():
            if w.n != n:
                raise ValueError(f"rank mismatch: T_{w.one_line} in H_{n}")
            c = scal(c)
            if c:
                clean[w] = c
        self.coeffs = clean

    @classmethod
    def basis(cls, n: int, w: Permutation) -> "HeckeElement":
        return cls(n, {w: ONE})

    @classmethod
    def one(cls, n: int) -> "HeckeElement":
        return cls(n, {Permutation.identity(n): ONE})

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        if self.n != other.n:
            raise ValueError("rank mismatch")
        coeffs = dict(self.coeffs)
        for w, c in other.coeffs.items():
            s = coeffs.get(w, ZERO) + c
            if s:
                coeffs[w] = s
            else:
                coeffs.pop(w, None)
        out = HeckeElement(self.n)
        out.coeffs = coeffs
        return out

    def __neg__(self):
        out = HeckeElement(self.n)
        out.coeffs = {w: -c for w, c in self.coeffs.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "HeckeElement":
        c = scal(c)
        out = HeckeElement(self.n)
        if c:
            out.coeffs = {w: x * c for w, x in self.coeffs.items()}
        return out

    def __mul__(self, other):
        if isinstance(other, HeckeElement):
            return mult(self, other)
        return self.scale(other)

    def __eq__(self, other):
        if not isinstance(other, HeckeElement):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self):
        raise TypeError("HeckeElement is not hashable")

    def is_zero(self) -> bool:
        return not self.coeffs

    def __repr__(self):
        if not self.coeffs:
            return f"HeckeElement(H_{self.n}, 0)"
        parts = []
        for w in sorted(self.coeffs, key=lambda w: (w.length, w.one_line)):
            word = w.reduced_word()
            name = "T_e" if not word else "T_" + ".".join(map(str, word))
            parts.append(f"({self.coeffs[w]})*{name}")
        return f"HeckeElement(H_{self.n}, {' + '.join(parts)})"


def mult(x: HeckeElement, y: HeckeElement) -> HeckeElement:
    """The product xy, computed exactly over packed integers.

    x = X / D_x and y = Y / D_y with Z[q] coefficients; XY is folded at
    q = 2^k with 2^(k-1) above the bound B on its coefficients (see the
    module docstring), decoded, and divided by D_x D_y.
    """
    if x.n != y.n:
        raise ValueError("rank mismatch")
    out = HeckeElement(x.n)
    if not x.coeffs or not y.coeffs:
        return out
    X, dx = _integral(x)
    Y, dy = _integral(y)
    bound = sum(
        sum(map(abs, X[w.one_line])) * 3**w.length for w in x.coeffs
    ) * sum(sum(map(abs, c)) for c in Y.values())
    k = bound.bit_length() + 1
    xs = {w: _pack(c, k) for w, c in X.items()}
    ys = {w: _pack(c, k) for w, c in Y.items()}
    den = poly_mul(dx, dy)
    for w, h in _fold(xs, ys, k).items():
        if h:
            num = _unpack(h, k)
            out.coeffs[Permutation(w)] = (
                Scalar._new(num, den) if den == (1,) else Scalar(num, den)
            )
    return out


def _integral(x: HeckeElement) -> tuple:
    """({one-line w: X_w}, D) with X_w in Z[q] and x = sum_w (X_w / D) T_w.

    D is the lcm of the coefficient denominators times the integer lcm of
    the rational coefficients that remain after clearing them.
    """
    den = (1,)
    for c in x.coeffs.values():
        if c.den != den:
            den = poly_mul(den, poly_div_exact(c.den, poly_gcd(den, c.den)))
    polys = {
        w.one_line: c.num if c.den == den
        else poly_mul(c.num, poly_div_exact(den, c.den))
        for w, c in x.coeffs.items()
    }
    scale = math.lcm(*(a.denominator for p in polys.values() for a in p))
    if scale != 1:
        polys = {w: tuple(int(a * scale) for a in p) for w, p in polys.items()}
        den = tuple(a * scale for a in den)
    return polys, den


def _pack(p, k: int) -> int:
    """The value of the Z[q] polynomial p at q = 2^k."""
    h = 0
    for a in reversed(p):
        h = (h << k) + a
    return h


def _unpack(h: int, k: int) -> tuple:
    """The Z[q] polynomial with coefficients below 2^(k-1) in absolute
    value whose value at q = 2^k is h: its balanced base-2^k digits."""
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


def _fold(xs: dict, ys: dict, k: int) -> dict:
    """sum_w c_w T_w y at q = 2^k, for xs = {one-line w: c_w} and y = ys.

    T_w = T_{s_i} T_{s_i w} for the smallest left descent i of w, so the
    terms are grouped by i and each group costs one generator pass, after
    the product of its shorter words, which recurse the same way.
    """
    groups: dict = {}
    parts = []
    for w, c in xs.items():
        i = first_descent(w)
        if i:
            groups.setdefault(i, {})[left_step(w, i)[0]] = c
        else:
            parts.append({v: c * b for v, b in ys.items()})
    for i, sub in groups.items():
        parts.append(_left_mult(i, _fold(sub, ys, k), k))
    out = max(parts, key=len)
    for part in parts:
        if part is not out:
            for w, c in part.items():
                out[w] = out.get(w, 0) + c
    return out


def _left_mult(i: int, acc: dict, k: int) -> dict:
    """T_{s_i} acc at q = 2^k: c, c << k and (c << k) - c are c, qc and (q-1)c."""
    out: dict = {}
    get = out.get
    for w, c in acc.items():
        if not c:
            continue
        sw, longer = left_step(w, i)
        if longer:
            out[sw] = get(sw, 0) + c
        else:
            qc = c << k
            out[sw] = get(sw, 0) + qc
            out[w] = get(w, 0) + qc - c
    return out


def tau(x: HeckeElement) -> HeckeElement:
    """The tower embedding H_n -> H_{n+1}, T_w -> T_w."""
    out = HeckeElement(x.n + 1)
    out.coeffs = {w.embed(x.n + 1): c for w, c in x.coeffs.items()}
    return out


class ModulePresentation:
    """An H_n-module given by one generator matrix per T_{s_i}.

    Matrices act on column vectors; gen_action[i-1] is the action of
    T_{s_i}.  The defining relations are verified exactly at construction
    unless check=False (used internally for data already validated).
    """

    __slots__ = ("n", "dim", "gen_action", "label")

    def __init__(self, n, dim, gen_action, label="", check=True):
        gen_action = tuple(gen_action)
        if len(gen_action) != max(n - 1, 0):
            raise ValueError(f"H_{n} needs {max(n - 1, 0)} generators")
        for g in gen_action:
            if g.rows != dim or g.cols != dim:
                raise ValueError("generator matrix shape mismatch")
        self.n = n
        self.dim = dim
        self.gen_action = gen_action
        self.label = label
        if check:
            self._check_relations()

    def _check_relations(self):
        eye = ExactMatrix.identity(self.dim)
        gens = self.gen_action
        for i, g in enumerate(gens, start=1):
            if g @ g != g.scale(Q_MINUS_ONE) + eye.scale(Q):
                raise ValueError(f"relation failure: quadratic at s_{i}")
        for i in range(len(gens)):
            for j in range(i + 2, len(gens)):
                if gens[i] @ gens[j] != gens[j] @ gens[i]:
                    raise ValueError(
                        f"relation failure: commutation at s_{i + 1}, s_{j + 1}"
                    )
        for i in range(len(gens) - 1):
            a, b = gens[i], gens[i + 1]
            if a @ b @ a != b @ a @ b:
                raise ValueError(f"relation failure: braid at s_{i + 1}")

    def generator(self, i: int) -> ExactMatrix:
        """Action of T_{s_i}."""
        return self.gen_action[i - 1]

    def word_matrix(self, word) -> ExactMatrix:
        """Action of T_{s_{i_1}} ... T_{s_{i_l}} for word (i_1, ..., i_l)."""
        out = ExactMatrix.identity(self.dim)
        for i in word:
            out = out @ self.gen_action[i - 1]
        return out

    def __repr__(self):
        tag = f" {self.label!r}" if self.label else ""
        return f"ModulePresentation(H_{self.n}, dim {self.dim}{tag})"


def regular_representation(n: int) -> ModulePresentation:
    """Left multiplication of H_n on itself in the T_w basis (lex order)."""
    if n > REGULAR_BOUND:
        raise ValueError(f"size bound: n = {n} exceeds {REGULAR_BOUND}")
    basis = [w.one_line for w in permutations_of(n)]
    index = {w: t for t, w in enumerate(basis)}
    gens = []
    for i in range(1, n):
        entries = {}
        for t, w in enumerate(basis):
            sw, longer = left_step(w, i)
            if longer:
                entries[(index[sw], t)] = ONE
            else:
                entries[(index[sw], t)] = Q
                entries[(t, t)] = Q_MINUS_ONE
        gens.append(ExactMatrix(len(basis), len(basis), entries))
    return ModulePresentation(n, len(basis), gens, label=f"regular H_{n}")


def index_rep(n: int) -> ModulePresentation:
    """The one-dimensional module on which every generator acts by q."""
    g = ExactMatrix(1, 1, {(0, 0): Q})
    return ModulePresentation(
        n, 1, [g] * max(n - 1, 0), label=f"index H_{n}", check=False
    )


def sign_rep(n: int) -> ModulePresentation:
    """The one-dimensional module on which every generator acts by -1."""
    g = ExactMatrix(1, 1, {(0, 0): scal(-1)})
    return ModulePresentation(
        n, 1, [g] * max(n - 1, 0), label=f"sign H_{n}", check=False
    )


def _simple_index(u: Permutation):
    """If u = s_t, return t; otherwise None."""
    diff = [x for x in range(1, u.n + 1) if u(x) != x]
    if len(diff) == 2 and diff[1] == diff[0] + 1 and u(diff[0]) == diff[1]:
        return diff[0]
    return None


def induce_pair(V: ModulePresentation, W: ModulePresentation) -> ModulePresentation:
    """The induced module H_{m+k} tensor_{H_(m,k)} (V boxtimes W).

    Basis T_d (x) (v_i (x) w_j) with d over the distinguished coset
    representatives of S_(m,k), ordered like coset_min_reps.  A generator
    T_s acts by one of three cases on the coset factor: move to the longer
    coset, act through the parabolic on a tensor slot, or the quadratic
    combination when the coset gets shorter.
    """
    m, k = V.n, W.n
    n = m + k
    comp = (m, k)
    reps = coset_min_reps(n, comp)
    rep_index = {d.one_line: t for t, d in enumerate(reps)}
    p, r = V.dim, W.dim
    dim = len(reps) * p * r

    def idx(di, i, j):
        return (di * p + i) * r + j

    gens = []
    for s in range(1, n):
        entries: dict = {}
        for di, d in enumerate(reps):
            sd_line, longer = left_step(d.one_line, s)
            sd = Permutation(sd_line)
            if is_distinguished(sd, comp):
                ti = rep_index[sd_line]
                if longer:
                    for i in range(p):
                        for j in range(r):
                            entries[(idx(ti, i, j), idx(di, i, j))] = ONE
                else:
                    for i in range(p):
                        for j in range(r):
                            entries[(idx(ti, i, j), idx(di, i, j))] = Q
                            entries[(idx(di, i, j), idx(di, i, j))] = Q_MINUS_ONE
            else:
                u = d.inverse() * sd
                t = _simple_index(u)
                if t is None or t == m:
                    raise ValueError(
                        f"coset case analysis failed at s_{s}, d = {d.one_line}"
                    )
                if t < m:
                    g = V.gen_action[t - 1]
                    for (ii, i), c in g.entries.items():
                        for j in range(r):
                            entries[(idx(di, ii, j), idx(di, i, j))] = c
                else:
                    g = W.gen_action[t - m - 1]
                    for (jj, j), c in g.entries.items():
                        for i in range(p):
                            entries[(idx(di, i, jj), idx(di, i, j))] = c
        gens.append(ExactMatrix(dim, dim, entries))
    assert dim == math.comb(n, m) * p * r
    label = f"Ind({V.label or 'V'}, {W.label or 'W'})"
    return ModulePresentation(n, dim, gens, label=label)
