"""Reference Hecke arithmetic: Scalar folds over Q(q), no packed integers.

``mult`` is the multiplication ``heckestab.hecke.mult`` used before it
moved to packed integers: left multiplication by a generator follows the
two-case rule

    T_s T_w = T_{sw}                 if l(sw) > l(w),
    T_s T_w = q T_{sw} + (q-1) T_w   otherwise,

and T_w y is the fold of that rule over a reduced word of w.
``check_relations`` and ``character`` are the relation check and the trace
that ``ModulePresentation`` and ``heckestab.specht.character`` computed
with ExactMatrix products before they moved to packed integers.
``induce_pair`` is the induced module as ``heckestab.hecke.induce_pair``
built it before it read each coset case off two positions: it forms s d
as a Permutation and tests it for being distinguished, and otherwise
finds the simple reflection d^-1 s d.  All are kept only as the slow,
obviously correct side of the differential tests.
"""

from heckestab.hecke import HeckeElement, ModulePresentation
from heckestab.linalg import ExactMatrix
from heckestab.qfield import ONE, Q, ZERO, Scalar
from heckestab.symgroup import Permutation, coset_min_reps, is_distinguished
from helpers import swap_values

Q_MINUS_ONE = Q - 1


def gen_left_mult(i: int, x: HeckeElement) -> HeckeElement:
    """T_{s_i} * x via the two-case rule."""
    out: dict = {}
    for w, c in x.coeffs.items():
        sw = swap_values(w, i)
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


def matrix_trace(A: ExactMatrix) -> Scalar:
    """The sum of the diagonal entries of a square matrix, over Q(q)."""
    if A.rows != A.cols:
        raise ValueError("trace of a non-square matrix")
    t = ZERO
    for (i, j), v in A.entries.items():
        if i == j:
            t = t + v
    return t


def character(V: ModulePresentation, w) -> Scalar:
    """Trace of T_w on V, from the Scalar product along a reduced word."""
    if w.n != V.n:
        raise ValueError("rank mismatch")
    return matrix_trace(V.word_matrix(w.reduced_word()))


def check_relations(V: ModulePresentation) -> None:
    """The defining relations of V, checked with ExactMatrix products over
    Q(q), in the order ``ModulePresentation`` checks them and with its
    messages."""
    eye = ExactMatrix.identity(V.dim)
    gens = V.gen_action
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


def _simple_index(u: Permutation):
    """If u = s_t, return t; otherwise None."""
    diff = [x for x in range(1, u.n + 1) if u(x) != x]
    if len(diff) == 2 and diff[1] == diff[0] + 1 and u(diff[0]) == diff[1]:
        return diff[0]
    return None


def induce_pair(V: ModulePresentation, W: ModulePresentation) -> ModulePresentation:
    """Ind(V boxtimes W) with the basis of ``heckestab.hecke.induce_pair``,
    its relations unchecked."""
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
            sd = swap_values(d, s)
            if is_distinguished(sd, comp):
                ti = rep_index[sd.one_line]
                for i in range(p):
                    for j in range(r):
                        if sd.length > d.length:
                            entries[(idx(ti, i, j), idx(di, i, j))] = ONE
                        else:
                            entries[(idx(ti, i, j), idx(di, i, j))] = Q
                            entries[(idx(di, i, j), idx(di, i, j))] = Q_MINUS_ONE
            else:
                t = _simple_index(d.inverse() * sd)
                if t is None or t == m:
                    raise ValueError(
                        f"coset case analysis failed at s_{s}, d = {d.one_line}"
                    )
                if t < m:
                    for (ii, i), c in V.gen_action[t - 1].entries.items():
                        for j in range(r):
                            entries[(idx(di, ii, j), idx(di, i, j))] = c
                else:
                    for (jj, j), c in W.gen_action[t - m - 1].entries.items():
                        for i in range(p):
                            entries[(idx(di, i, jj), idx(di, i, j))] = c
        gens.append(ExactMatrix(dim, dim, entries))
    return ModulePresentation(n, dim, gens, check=False)
