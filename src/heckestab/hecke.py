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
Write x = X / D_x and y = Y / D_y, where D is the lcm in Z[q] of the
coefficient denominators, so that X and Y have Z[q] coefficients.
Evaluation at q = 2^k is a ring map Z[q] -> Z, so XY can be computed with
each coefficient packed into one Python int (qfield's codec, poly_pack and
poly_unpack): a generator step is c, c << k
or (c << k) - c.  Each step at most triples the l1 norm of the
coefficients, so every coefficient of XY is bounded in absolute value by

    B = (sum_w |X_w|_1 3^{l(w)}) (sum_v |Y_v|_1).

With 2^(k-1) > B, a polynomial with coefficients in (-2^(k-1), 2^(k-1)) is
the only one with its value at 2^k: its coefficients are the balanced
base-2^k digits of that value.  So decoding is exact, and only the final
coefficients need the bound.  The terms of x are grouped by their smallest
left descent, so terms whose reduced words share a leading letter share
that generator pass.

Every step of the fold depends on the rank alone: s_i w and whether it is
longer than w, the smallest left descent of w, and the Permutation that
keys an output term.  They are read from one memo per rank, keyed by
one-line tuples and filled on first read.  For n <= REGULAR_BOUND the memo
is kept for the life of the process; it holds at most n!(n-1) steps, and
regular_representation builds its generator matrices from the same steps.
Above the bound no table of S_n is feasible, so each product fills a memo
of its own, which dies with the call.

Modules are given concretely as ModulePresentation: one exact matrix per
generator, acting on column vectors, with all defining relations verified
at construction time unless they are inherited: Ind(V boxtimes W)
satisfies them whenever V and W do (the proof is at induce_pair).
Relation checks and traces run on packed integers too.  A module's
integral form, built for each check or trace, writes every generator as
T_{s_i} = N_i / D over one D in Z[q] for all generators, with the N_i
over Z[q].  One D makes each relation homogeneous: multiplied through
by D^2 or D^3 it reads

    N_i^2 = (q-1) D N_i + q D^2 I,
    N_i N_j = N_j N_i,    N_a N_b N_a = N_b N_a N_b,

with both sides over Z[q], so it is checked with no division.  For the
l1 norm |p|_1 of a polynomial, the largest row sum r_i and column sum c_i
of |N_i|_1 are each submultiplicative and bound every entry, so every
coefficient of N_{i_1} ... N_{i_l} is at most min(prod r, prod c), and of
its trace at most dim times that; a coefficient of (q-1) D N_i + q D^2 is
at most 2 |D|_1 min(r_i, c_i) + |D|_1^2.  The relation check packs at the
width k that the largest bound of a difference of two sides certifies,
where equal integers mean equal polynomials, so nothing is decoded.

Traces are taken for a list of words at once, at one width: k is
certified by the largest of dim times a word's bound, and each generator
is packed once.  Evaluation at 2^k is a ring map, and any k with 2^(k-1)
above a word's trace bound decodes that word exactly, so the common width
gives every word the trace its own width would.  The words are walked in
order over a stack of prefix products: each word pops the stack back to
its longest common prefix with the last word, so a prefix shared by
consecutive words is multiplied once, and a word of length l keeps at
most l - 1 matrices on it.  Of the last factor only the diagonal
is read; each D^l is formed once, and the trace alone is decoded as
tr(N_{i_1} ... N_{i_l}) / D^l: by one exact division, with no gcd, when
D^l divides the trace in Z[q], as the quotient over 1 is already reduced.

A module is its content alone: n, dim and the generator matrices, and
that is all the relation check and a decomposition read.  Its content
key (ModulePresentation.content_key) is those as bytes, and equal keys
mean equal modules and equal modules equal keys (the proof is at
content_key); specht.decompose keeps its solutions by that key.  The
relations are checked in three places only: once per Specht shape
(specht._verified_specht), once per regular rank (regular_representation)
and once per parsed tower file.  Every other module inherits them:
induce_pair proves its relations from its factors', and a tower's block
sums, submodules and quotients are built unchecked.  The key is sound
because a module is never mutated: gen_action is a tuple of ExactMatrix,
whose entries are set only at construction.
"""

from __future__ import annotations

import marshal
import math
from functools import lru_cache
from itertools import repeat

from .linalg import ExactMatrix, vec_add_scaled, vec_scale
from .qfield import MINUS_ONE, ONE, Q, Scalar, _make, _quotient, pack_width
from .qfield import poly_div_exact, poly_gcd, poly_mul, poly_pack, poly_unpack, scal
from .symgroup import (
    Permutation,
    _coset_one_lines,
    first_descent,
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

    def _plus(self, other: "HeckeElement", c: Scalar) -> "HeckeElement":
        """self + c*other, for the c = 1 of ``+`` and the c = -1 of ``-``."""
        if self.n != other.n:
            raise ValueError("rank mismatch")
        out = HeckeElement(self.n)
        out.coeffs = dict(self.coeffs)
        vec_add_scaled(out.coeffs, other.coeffs, c)
        return out

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        return self._plus(other, ONE)

    def __sub__(self, other: "HeckeElement") -> "HeckeElement":
        return self._plus(other, MINUS_ONE)

    def __neg__(self):
        return self.scale(MINUS_ONE)

    def scale(self, c) -> "HeckeElement":
        out = HeckeElement(self.n)
        out.coeffs = vec_scale(self.coeffs, scal(c))
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
    X, dx = _integral(x.coeffs.values())
    Y, dy = _integral(y.coeffs.values())
    bound = sum(
        _l1(c) * 3**w.length for w, c in zip(x.coeffs, X)
    ) * sum(map(_l1, Y))
    k = pack_width(bound)
    xs = {w.one_line: poly_pack(c, k) for w, c in zip(x.coeffs, X)}
    ys = {w.one_line: poly_pack(c, k) for w, c in zip(y.coeffs, Y)}
    den = poly_mul(dx, dy)
    memo = _kept_steps(x.n) if x.n <= REGULAR_BOUND else _Steps()
    perms = memo.perms
    for w, h in _fold(xs, ys, k, memo).items():
        if h:
            out.coeffs[perms[w]] = _make(poly_unpack(h, k), den)
    return out


class _Memo(dict):
    """A dict that fills a missing key with fn(key) on first read."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class _Steps:
    """What the fold reads of S_n, keyed by one-line tuples w:
    steps[i][w] = (s_i w, whether l(s_i w) > l(w)), descents[w] = the
    smallest left descent of w, and perms[w] = Permutation(w).  Every key
    is a factor's one-line tuple or a left step of one, so a permutation:
    perms builds it without checking it again.  Each s_i w is interned
    through a plain dict, so a filled memo holds one tuple per
    permutation, not one per step."""

    __slots__ = ("steps", "descents", "perms")

    def __init__(self):
        shared: dict = {}

        def step(i, w):
            sw, longer = left_step(w, i)
            return shared.setdefault(sw, sw), longer

        self.steps = _Memo(lambda i: _Memo(lambda w: step(i, w)))
        self.descents = _Memo(first_descent)
        self.perms = _Memo(Permutation._new)


@lru_cache(maxsize=None)
def _kept_steps(n: int) -> _Steps:
    """The memo of S_n for n <= REGULAR_BOUND, kept for the process."""
    return _Steps()


def _integral(scalars) -> tuple:
    """([X_1, X_2, ...], D) with every X_t and D in Z[q] and c_t = X_t / D
    for the scalars c_1, c_2, ...: D is the lcm of their denominators."""
    scalars = list(scalars)
    distinct = set(scalars)
    den = (1,)
    for d in {c.den for c in distinct}:
        if d != den:
            den = poly_mul(den, poly_div_exact(d, poly_gcd(den, d)))
    num = {
        c: c.num if c.den == den else poly_mul(c.num, poly_div_exact(den, c.den))
        for c in distinct
    }
    return [num[c] for c in scalars], den


def _l1(p) -> int:
    """The sum of the absolute values of the coefficients of p."""
    return sum(map(abs, p))


def _fold(xs: dict, ys: dict, k: int, memo: _Steps) -> dict:
    """sum_w c_w T_w y at q = 2^k, for xs = {one-line w: c_w} and y = ys.

    T_w = T_{s_i} T_{s_i w} for the smallest left descent i of w, so the
    terms are grouped by i and each group costs one generator pass, after
    the product of its shorter words, which recurse the same way.
    """
    steps = memo.steps
    descents = memo.descents
    groups: dict = {}
    parts = []
    for w, c in xs.items():
        i = descents[w]
        if i:
            groups.setdefault(i, {})[steps[i][w][0]] = c
        else:
            parts.append({v: c * b for v, b in ys.items()})
    for i, sub in groups.items():
        parts.append(_left_mult(steps[i], _fold(sub, ys, k, memo), k))
    out = max(parts, key=len)
    for part in parts:
        if part is not out:
            for w, c in part.items():
                out[w] = out.get(w, 0) + c
    return out


def _left_mult(step: dict, acc: dict, k: int) -> dict:
    """T_{s_i} acc at q = 2^k, for step = {w: (s_i w, l(s_i w) > l(w))}:
    c, c << k and (c << k) - c are c, qc and (q-1)c.

    When s_i w is shorter than w, T_{s_i w} receives from T_w alone (the
    other rule writes only to the longer word), so it is set, not added to.
    """
    out: dict = {}
    get = out.get
    for w, c in acc.items():
        if not c:
            continue
        sw, longer = step[w]
        if longer:
            out[sw] = get(sw, 0) + c
        else:
            qc = c << k
            out[sw] = qc
            out[w] = get(w, 0) + qc - c
    return out


def tau(x: HeckeElement) -> HeckeElement:
    """The tower embedding H_n -> H_{n+1}, T_w -> T_w."""
    out = HeckeElement(x.n + 1)
    out.coeffs = {w.embed(x.n + 1): c for w, c in x.coeffs.items()}
    return out


class ContentMemo(dict):
    """A process memo keyed by bytes: a ModulePresentation.content_key, or
    a tower file's contents.  cache_clear empties it, as it does a
    functools cache."""

    def cache_clear(self) -> None:
        self.clear()


class ModulePresentation:
    """An H_n-module given by one generator matrix per T_{s_i}.

    Matrices act on column vectors; gen_action[i-1] is the action of
    T_{s_i}.  The defining relations are verified exactly at every
    construction unless check=False (for data already validated, or whose
    relations follow from its parts', as induce_pair's do), so a module
    that fails raises each time it is built.  Relation checks and traces
    build the integral form when they run.  Each induced module
    Ind(V boxtimes index_k) is kept per k; it and the content key are sound
    because a module is never mutated.
    """

    __slots__ = ("n", "dim", "gen_action", "_induced", "_key")

    def __init__(self, n, dim, gen_action, *, check=True):
        if n < 0:
            raise ValueError(f"rank n = {n} is negative")
        if dim < 0:
            raise ValueError(f"dim = {dim} is negative")
        gen_action = tuple(gen_action)
        if len(gen_action) != max(n - 1, 0):
            raise ValueError(f"H_{n} needs {max(n - 1, 0)} generators")
        for g in gen_action:
            if g.rows != dim or g.cols != dim:
                raise ValueError("generator matrix shape mismatch")
        self.n = n
        self.dim = dim
        self.gen_action = gen_action
        self._induced = {}
        self._key = None
        if check:
            self._check_relations()

    def content_key(self) -> bytes:
        """The module's content as bytes, computed once and kept: marshal
        (version 2) of [n, dim, per generator the positions r * dim + c of
        its entries in sorted order and, in the same order, their indices
        into the table, then the table of distinct entries as (num, den),
        in order of first use].

        Equal keys mean equal modules.  marshal.loads inverts marshal.dumps,
        and c < dim, so the key gives back n, dim and, for every generator,
        each nonzero entry's (r, c) and its num/den: the whole matrix.
        Equal modules mean equal keys.  A Scalar is kept in its unique
        reduced normal form, so equal entries share one table index; an
        ExactMatrix keeps no zero entry; the order is fixed by the content;
        and version 2 writes no back-references, so the bytes depend on the
        value alone, not on which objects are shared.
        So a memo keyed by it is reached by every repeat, and only by one.

        The parts are lists, and each entry is read through its (r, c), not
        through items(), because CPython keeps freed small tuples on free
        lists: a tuple per entry or per generator of every module built
        would hold memory for the rest of the process.
        """
        if self._key is None:
            dim = self.dim
            table: dict = {}
            gens = []
            for g in self.gen_action:
                entries = g.entries
                cells = sorted(entries)
                gens.append([r * dim + c for r, c in cells])
                gens.append([table.setdefault(entries[rc], len(table)) for rc in cells])
            values = [(v.num, v.den) for v in table]
            self._key = marshal.dumps([self.n, dim, gens, values], 2)
        return self._key

    def induced_by_index(self, k: int) -> "ModulePresentation":
        """induce_pair(self, index_rep(k)), built once per k.

        The cache lives on this module and dies with it.
        """
        ind = self._induced.get(k)
        if ind is None:
            ind = self._induced[k] = induce_pair(self, index_rep(k))
        return ind

    def _check_relations(self):
        """The defining relations with D cleared, compared at q = 2^k.

        Each side is a product of at most three N_i, or (q-1) D N_i + q D^2,
        so k is taken from the bound on both sides of every relation.  The
        braid sides N_i (N_{i+1} N_i) and (N_{i+1} N_i) N_{i+1} share N_{i+1} N_i.
        """
        form = IntegralForm(self.dim, self.gen_action)
        bound = form.bound
        r = len(self.gen_action)
        d1 = _l1(form.den)
        bounds = [
            bound((i, i)) + 2 * d1 * bound((i,)) + d1 * d1 for i in range(1, r + 1)
        ]
        bounds += [
            2 * bound((i, j)) for i in range(1, r + 1) for j in range(i + 2, r + 1)
        ]
        bounds += [bound((i, i + 1, i)) + bound((i + 1, i, i + 1)) for i in range(1, r)]
        k = pack_width(max(bounds, default=0))
        gens = [form.packed(i, k) for i in range(1, r + 1)]
        d = poly_pack(form.den, k)
        qd2 = d * d << k
        qd1 = (d << k) - d
        for i, g in enumerate(gens, start=1):
            rhs = []
            for row_index, row in enumerate(g):
                row = {c: qd1 * x for c, x in row.items()}
                row[row_index] = row.get(row_index, 0) + qd2
                rhs.append({c: x for c, x in row.items() if x})
            if _packed_product(g, g) != rhs:
                raise ValueError(f"relation failure: quadratic at s_{i}")
        for i in range(r):
            for j in range(i + 2, r):
                a, b = gens[i], gens[j]
                if _packed_product(a, b) != _packed_product(b, a):
                    raise ValueError(
                        f"relation failure: commutation at s_{i + 1}, s_{j + 1}"
                    )
        for i in range(r - 1):
            a, b = gens[i], gens[i + 1]
            ba = _packed_product(b, a)
            if _packed_product(a, ba) != _packed_product(ba, b):
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

    def word_traces(self, words) -> list:
        """tr(N_{i_1} ... N_{i_l}) / D^l for each word (i_1, ..., i_l), in
        order: one width, shared prefixes and a prefix stack, as the module
        docstring says.

        >>> from heckestab.specht import specht_module
        >>> specht_module((2, 1)).word_traces([(), (1,), (1, 2), (1,)])
        [Scalar(2), Scalar(q-1), Scalar(-q), Scalar(q-1)]
        """
        words = [tuple(w) for w in words]
        form = IntegralForm(self.dim, self.gen_action)
        k = pack_width(max((self.dim * form.bound(w) for w in words), default=0))
        gens = {i: form.packed(i, k) for i in {i for w in words for i in w}}
        # stack[j] = (i_j, N_{i_0} ... N_{i_j} packed) along the prefix
        # i_0 i_1 ... of the last word
        stack: list = []
        dens = [(1,)]  # dens[l] = D^l
        out = []
        for word in words:
            if not word:
                out.append(scal(self.dim))
                continue
            head = word[:-1]
            j = 0
            while j < min(len(stack), len(head)) and stack[j][0] == head[j]:
                j += 1
            del stack[j:]
            for i in head[j:]:
                top = _packed_product(stack[-1][1], gens[i]) if stack else gens[i]
                stack.append((i, top))
            last = gens[word[-1]]
            if stack:
                h = sum(
                    x * last[c].get(t, 0)
                    for t, row in enumerate(stack[-1][1])
                    for c, x in row.items()
                )
            else:
                h = sum(row.get(t, 0) for t, row in enumerate(last))
            while len(dens) <= len(word):
                dens.append(poly_mul(dens[-1], form.den))
            num, den = poly_unpack(h, k), dens[len(word)]
            quot = _quotient(num, den)
            out.append(_make(num, den) if quot is None else Scalar._new(quot, (1,)))
        return out

    def __repr__(self):
        return f"ModulePresentation(H_{self.n}, dim {self.dim})"


class IntegralForm:
    """A module's generators as T_{s_i} = N_i / D over one D.

    D and the entries of every N_i lie in Z[q].  row_l1[i-1] and
    col_l1[i-1] are the largest l1 norm (the sum of the absolute values of
    all coefficients) of a row and of a column of N_i.
    """

    __slots__ = ("dim", "den", "nums", "row_l1", "col_l1")

    def __init__(self, dim: int, gens):
        polys, self.den = _integral(v for g in gens for v in g.entries.values())
        rest = iter(polys)
        self.dim = dim
        self.nums = tuple(dict(zip(g.entries, rest)) for g in gens)
        self.row_l1 = []
        self.col_l1 = []
        for num in self.nums:
            rows = [0] * dim
            cols = [0] * dim
            for (r, c), p in num.items():
                a = _l1(p)
                rows[r] += a
                cols[c] += a
            self.row_l1.append(max(rows, default=0))
            self.col_l1.append(max(cols, default=0))

    def bound(self, word) -> int:
        """A bound on every coefficient of every entry of N_{i_1} ... N_{i_l}.

        The largest row l1 norm is submultiplicative and bounds every entry,
        and so is the largest column l1 norm: the product of either kind
        along the word bounds the product.
        """
        return min(
            math.prod(self.row_l1[i - 1] for i in word),
            math.prod(self.col_l1[i - 1] for i in word),
        )

    def packed(self, i: int, k: int) -> list:
        """N_i at q = 2^k, as one {column: value} dict per row."""
        rows = [{} for _ in range(self.dim)]
        values: dict = {}
        for (r, c), p in self.nums[i - 1].items():
            v = values.get(p)
            if v is None:
                v = values[p] = poly_pack(p, k)
            rows[r][c] = v
        return rows


def _packed_product(a: list, b: list) -> list:
    """The product of two packed matrices, stored as rows, without zeros."""
    out = []
    for row in a:
        acc: dict = {}
        get = acc.get
        for t, x in row.items():
            for j, y in b[t].items():
                acc[j] = get(j, 0) + x * y
        out.append({j: v for j, v in acc.items() if v})
    return out


@lru_cache(maxsize=None)
def regular_representation(n: int) -> ModulePresentation:
    """Left multiplication of H_n on itself in the T_w basis (lex order).

    Built and verified once per rank, then shared by every caller; sound
    because ModulePresentation and ExactMatrix are never mutated.  A
    refused rank raises, so nothing is kept for it.
    """
    if n < 0:
        raise ValueError(f"rank n = {n} is negative")
    if n > REGULAR_BOUND:
        raise ValueError(f"size bound: n = {n} exceeds {REGULAR_BOUND}")
    basis = [w.one_line for w in permutations_of(n)]
    index = {w: t for t, w in enumerate(basis)}
    steps = _kept_steps(n).steps
    gens = []
    for i in range(1, n):
        step = steps[i]
        entries = {}
        for t, w in enumerate(basis):
            sw, longer = step[w]
            if longer:
                entries[(index[sw], t)] = ONE
            else:
                entries[(index[sw], t)] = Q
                entries[(t, t)] = Q_MINUS_ONE
        gens.append(ExactMatrix(len(basis), len(basis), entries))
    return ModulePresentation(n, len(basis), gens)


def index_rep(n: int) -> ModulePresentation:
    """The one-dimensional module on which every generator acts by q."""
    g = ExactMatrix(1, 1, {(0, 0): Q})
    return ModulePresentation(n, 1, [g] * max(n - 1, 0), check=False)


def induce_pair(V: ModulePresentation, W: ModulePresentation) -> ModulePresentation:
    """The induced module H_{m+k} tensor_{H_(m,k)} (V boxtimes W).

    Basis T_d (x) (v_i (x) w_j) with d over the distinguished coset
    representatives of S_(m,k), ordered like coset_min_reps: d's block is
    p r consecutive positions, with v_i (x) w_j at i r + j in it.

    T_s acts by a case read off the positions a and b of s and s+1 in d,
    which increases on the position blocks 1..m and m+1..m+k (Deodhar's
    lemma).  No value lies strictly between s and s+1.  So if a and b lie
    in two blocks, exchanging s and s+1 keeps both increasing: s d is again
    distinguished, and longer than d exactly when a < b; T_s moves to the
    longer coset, or gives the quadratic combination from the longer one.
    If they lie in one block, then b = a + 1, so s d = d s_a with
    l(s d) = l(d) + 1 and T_s T_d = T_d T_{s_a}; a != m as positions a and
    a + 1 share a block, and T_{s_a} acts by V's generator a if a < m, by
    W's a - m if a > m.  So a move is one offset over all of d's block, and
    a slot action copies each entry of V's generator at stride r, or W's
    at stride 1.

    The result satisfies the defining relations whenever V and W do, so it
    is built unchecked.  Write A for the values in d's first m places; s is
    split at A when just one of s, s+1 is in A (a move), inside otherwise
    (a slot generator G).  T_s maps d's block into those of A and s A, so a
    relation in T_s and T_t holds if it holds on the blocks of each orbit
    of <s_s, s_t> on the sets A, where each block of T_s or T_t is a
    multiple of the identity or a slot generator.  On an orbit:
    - quadratic: at A inside, it is V's or W's quadratic relation for G;
      on a split pair {A, s A}, shorter first, T_s is [[0, q], [1, q-1]],
      whose square is (q-1) T_s + q.
    - commutation, |s - t| > 1: s_t moves no value across s or s+1, so the
      case of s, its direction and its slot are the same on A and s_t A,
      and vice versa.  So T_s and T_t act on two tensor factors of the
      orbit's blocks and commute, unless both are inside the same one of V
      and W, at slots two or more apart: V's or W's commutation relation.
    - braid, t = s + 1: if none or all of s, s+1, s+2 lie in A, both act
      inside one slot at consecutive positions: V's or W's braid relation.
      Otherwise the orbit is three blocks, ordered by length.  Each of T_s
      and T_t moves between two of them and acts by G on the third, the
      same G for both, as the values outside s..s+2 are the same in all
      three sets.  They are [[0, q, 0], [1, q-1, 0], [0, 0, G]] and
      [[G, 0, 0], [0, 0, q], [0, 1, q-1]], in either order.  Their blocks
      lie in Q(q)[G], which G's quadratic relation splits by G -> q and
      G -> -1, and both sides of the braid relation agree at each.
    """
    m, k = V.n, W.n
    n = m + k
    reps = _coset_one_lines(n, (m, k))
    rep_index = {d: t for t, d in enumerate(reps)}
    p, r = V.dim, W.dim
    size = p * r
    dim = len(reps) * size
    gens = []
    for s in range(1, n):
        entries: dict = {}
        start = 0  # of d's block
        for d in reps:
            a, b = d.index(s), d.index(s + 1)  # 0-based, 1 below the a and b above
            if (a < m) != (b < m):
                block = range(start, start + size)
                off = rep_index[left_step(d, s)[0]] * size - start
                if a < b:
                    moved = range(start + off, start + off + size)
                    entries.update(zip(zip(moved, block), repeat(ONE)))
                else:
                    for x in block:
                        entries[(x + off, x)] = Q
                        entries[(x, x)] = Q_MINUS_ONE
            elif b < m:
                for (ii, i), c in V.gen_action[a].entries.items():
                    rows = range(start + ii * r, start + ii * r + r)
                    cols = range(start + i * r, start + i * r + r)
                    entries.update(zip(zip(rows, cols), repeat(c)))
            else:
                for (jj, j), c in W.gen_action[a - m].entries.items():
                    rows = range(start + jj, start + size, r)
                    cols = range(start + j, start + size, r)
                    entries.update(zip(zip(rows, cols), repeat(c)))
            start += size
        gens.append(ExactMatrix._new(dim, dim, entries))
    return ModulePresentation(n, dim, gens, check=False)
