"""Irreducible H_n-modules in seminormal form, characters, decomposition.

The simple modules S^lam at generic q are indexed by partitions of n and
carry the seminormal basis labelled by standard Young tableaux.  On a
tableau t the generator T_{s_i} acts by q when i, i+1 share a row, by -1
when they share a column, and otherwise mixes t with the swapped tableau
s_i.t through a 2x2 block whose entries depend only on the axial distance
d = content(i+1) - content(i) in t:

    diagonal   D(d)  = (q-1) q^d / (q^d - 1),
    off-diag   1                    (into s_i.t, when d > 0),
    off-diag   B(d)  = (q^d - q)(q^{d+1} - 1) / (q^d - 1)^2
                                    (into s_i.t, when d < 0, with |d|),

so each block has trace q - 1 and determinant -q.  All defining relations
are re-verified exactly at construction, once per shape and process;
nothing relies on the formulas being transcribed correctly.

Decomposition of an arbitrary ModulePresentation uses characters: traces
at minimal-length class representatives form a p(n) x p(n) system whose
value at q = 1 is the S_n character table; it is solved there over Q and
the solution is certified exactly over Q(q).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .hecke import ModulePresentation
from .linalg import ExactMatrix, quotient_structure
from .partitions import partition_label, partitions_of, syt_count, syt_enumerate
from .qfield import ONE, Q, ZERO, Scalar, q_power, scal
from .symgroup import Permutation, conjugacy_min_reps

__all__ = [
    "SPECHT_BOUND",
    "specht_module",
    "character",
    "CharacterTable",
    "character_table",
    "decompose",
    "coinvariant_quotient",
]

SPECHT_BOUND = 7

MINUS_ONE = scal(-1)


def _positions(tableau):
    """Map entry -> (row, col), 0-indexed."""
    pos = {}
    for r, row in enumerate(tableau):
        for c, v in enumerate(row):
            pos[v] = (r, c)
    return pos


def _swap_entries(tableau, i):
    """The tableau with entries i and i+1 exchanged."""
    return tuple(
        tuple(i + 1 if v == i else i if v == i + 1 else v for v in row)
        for row in tableau
    )


def _diag(d: int) -> Scalar:
    """D(d) = (q-1) q^d / (q^d - 1) for d != 0, in positive powers of q."""
    if d > 0:
        return (Q - 1) * q_power(d) / (q_power(d) - 1)
    return MINUS_ONE * (Q - 1) / (q_power(-d) - 1)


def _cross(d: int) -> Scalar:
    """B(d) = (q^d - q)(q^{d+1} - 1) / (q^d - 1)^2 for d >= 2."""
    return (q_power(d) - Q) * (q_power(d + 1) - 1) / (q_power(d) - 1) ** 2


def specht_module(lam) -> ModulePresentation:
    """The seminormal presentation of S^lam, basis in syt_enumerate order.

    Built and verified once per shape, then shared by every caller; sound
    because ModulePresentation and ExactMatrix are never mutated.
    """
    n = sum(lam)
    if n > SPECHT_BOUND:
        raise ValueError(f"size bound: |lam| = {n} exceeds {SPECHT_BOUND}")
    return _verified_specht(tuple(lam))


@lru_cache(maxsize=None)
def _verified_specht(lam: tuple) -> ModulePresentation:
    n = sum(lam)
    basis = syt_enumerate(lam)
    index = {t: a for a, t in enumerate(basis)}
    dim = len(basis)
    gens = []
    for i in range(1, n):
        entries = {}
        for a, t in enumerate(basis):
            pos = _positions(t)
            (r1, c1), (r2, c2) = pos[i], pos[i + 1]
            d = (c2 - r2) - (c1 - r1)
            if d == 1:
                entries[(a, a)] = Q
            elif d == -1:
                entries[(a, a)] = MINUS_ONE
            else:
                b = index[_swap_entries(t, i)]
                entries[(a, a)] = _diag(d)
                entries[(b, a)] = ONE if d > 0 else _cross(-d)
        gens.append(ExactMatrix(dim, dim, entries))
    return ModulePresentation(n, dim, gens, label=f"S({partition_label(lam)})")


def character(V: ModulePresentation, w: Permutation) -> Scalar:
    """Trace of T_w on V; reduced-word independent."""
    if w.n != V.n:
        raise ValueError("rank mismatch")
    return V.word_matrix(w.reduced_word()).trace()


class CharacterTable:
    """Traces of the simple modules at minimal class representatives.

    Rows run over partitions of n in the partitions_of order; columns over
    cycle types with the identity class first (reversed partitions_of
    order).  At q = 1 it is the S_n character table, inverted once over Q;
    its nonzero determinant there makes the table invertible over Q(q).
    """

    __slots__ = (
        "n",
        "row_labels",
        "classes",
        "class_reps",
        "values",
        "_inverse_at_one",
    )

    def __init__(self, n: int):
        self.n = n
        self.row_labels = partitions_of(n)
        self.classes = tuple(reversed(partitions_of(n)))
        reps = conjugacy_min_reps(n)
        self.class_reps = tuple(reps[mu] for mu in self.classes)
        modules = [specht_module(lam) for lam in self.row_labels]
        self.values = tuple(
            tuple(character(V, w) for w in self.class_reps) for V in modules
        )
        # the q = 1 system has entry (class, lam); singularity is fatal
        at_one = [[v.specialize(1) for v in row] for row in self.values]
        self._inverse_at_one = _inverse([list(col) for col in zip(*at_one)])

    def multiplicities(self, traces) -> dict:
        """The m_lam in Q with sum_lam m_lam chi_lam(w_mu) = traces[mu].

        Solved at q = 1, then certified exactly over Q(q).  A pole at q = 1
        or a failed certificate means the Q(q) solution is not constant.
        """
        try:
            at_one = [t.specialize(1) for t in traces]
        except ValueError:
            raise ValueError("not a module") from None
        sol = [sum(x * y for x, y in zip(row, at_one)) for row in self._inverse_at_one]
        for ci, t in enumerate(traces):
            if sum((m * row[ci] for m, row in zip(sol, self.values) if m), ZERO) != t:
                raise ValueError("not a module")
        return dict(zip(self.row_labels, sol))


def _inverse(rows) -> list:
    """Inverse of a square rational matrix, by Gauss-Jordan elimination."""
    m = len(rows)
    aug = [list(row) + [int(i == j) for j in range(m)] for i, row in enumerate(rows)]
    for col in range(m):
        pivot = next((r for r in range(col, m) if aug[r][col]), None)
        if pivot is None:
            raise ValueError("degenerate character table")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        lead = Fraction(aug[col][col])
        aug[col] = [x / lead for x in aug[col]]
        for r in range(m):
            c = aug[r][col]
            if r != col and c:
                aug[r] = [x - c * y for x, y in zip(aug[r], aug[col])]
    return [row[m:] for row in aug]


@lru_cache(maxsize=None)
def character_table(n: int) -> CharacterTable:
    return CharacterTable(n)


def decompose(V: ModulePresentation) -> dict:
    """Multiplicities of each S^lam in V, by solving against the table.

    Raises ValueError('not a module') if the solution is not made of
    nonnegative integers summing (with dimensions) to dim V.
    """
    table = character_table(V.n)
    traces = [character(V, w) for w in table.class_reps]
    sol = table.multiplicities(traces)
    out = {}
    total = 0
    for lam, c in sol.items():
        if not c:
            continue
        if c.denominator != 1 or c < 0:
            raise ValueError("not a module")
        out[lam] = int(c)
        total += int(c) * syt_count(lam)
    if total != V.dim:
        raise ValueError("not a module")
    return out


def coinvariant_quotient(V: ModulePresentation, a: int):
    """Quotient of V by the tail coinvariant subspace, as an H_a-module.

    For V over H_N the tail generators are s_{a+1}, ..., s_{N-1}; the
    subspace Q is spanned by the images of (T_{s_j} - q) for tail j, which
    equals span{T_sigma v - q^{l(sigma)} v} over the tail subalgebra.  The
    front generators s_1, ..., s_{a-1} commute with the tail, so they
    descend to the quotient, the index-isotypic part of the restriction.

    Returns (quotient ModulePresentation over H_a, QuotientStructure); the
    structure's section builds the induced maps between quotients.
    """
    N = V.n
    if not 0 <= a <= N:
        raise ValueError(f"retained rank {a} outside 0..{N}")
    subspace = []
    eye = ExactMatrix.identity(V.dim)
    for j in range(a + 1, N):
        g = V.gen_action[j - 1] - eye.scale(Q)
        subspace.extend(g.columns())
    front = V.gen_action[: max(a - 1, 0)]
    qs = quotient_structure(V.dim, subspace, front)
    quotient = ModulePresentation(
        a,
        qs.quotient_dim,
        qs.induced,
        label=f"{V.label or 'V'}/Q(tail>{a})",
        check=False,
    )
    return quotient, qs
