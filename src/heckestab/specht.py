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

Decomposition of an arbitrary ModulePresentation uses characters.  The
character table of H_n at minimal-length class representatives comes from
the q-Murnaghan-Nakayama rule (Ram, Invent. Math. 106, 1991; Halverson and
Ram, Trans. AMS 348, 1996): chi^lam(T_{gamma_mu}) is a signed sum over
chains of broken border strips of sizes mu_1, mu_2, ... filling lam, see
partitions.hecke_character.  No Specht module is built for it.  At q = 1
the table is the S_n character table; its column orthogonality, checked
exactly once per rank, certifies that it is invertible and gives the
inverse, kept as integer rows over L = lcm(z_mu).  The traces of V, which
lie in Z[q] for a module, are taken at every class representative in one
pass, solved against the table at q = 1 in integers, each multiplicity a
quotient by L with no remainder, and the solution is certified exactly in
Z[q].  A module is decomposed once per content key and process
(decompose).
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial, lcm

from .hecke import ContentMemo, ModulePresentation
from .linalg import EchelonBasis, ExactMatrix
from .partitions import (
    hecke_character,
    partitions_of,
    syt_count,
    syt_enumerate,
)
from .qfield import MINUS_ONE, ONE, Q, Scalar, poly_add, q_power
from .symgroup import Permutation, conjugacy_min_reps

__all__ = [
    "SPECHT_BOUND",
    "specht_module",
    "character",
    "CharacterTable",
    "character_table",
    "decompose",
    "coinvariant_quotient",
    "coinvariant_quotients",
]

SPECHT_BOUND = 7


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
    return ModulePresentation(n, dim, gens)


def character(V: ModulePresentation, w: Permutation) -> Scalar:
    """Trace of T_w on V; reduced-word independent.

    The integral generators N_i = D T_{s_i} are multiplied along a reduced
    word of w as integers packed at q = 2^k, with k certified from their l1
    row and column bounds, and only the trace is decoded: chi(T_w) =
    tr(N_{i_1} ... N_{i_l}) / D^l, one Scalar with one gcd.
    """
    if w.n != V.n:
        raise ValueError("rank mismatch")
    return V.word_traces([w.reduced_word()])[0]


class CharacterTable:
    """Traces of the simple modules at minimal class representatives.

    Rows run over partitions of n in the partitions_of order; columns over
    cycle types with the identity class first (reversed partitions_of
    order).  Each entry chi^lam(T_{gamma_mu}) is read from the
    q-Murnaghan-Nakayama rule (Ram, Invent. Math. 106, 1991), so no Specht
    module is built.  class_words holds the reduced word of each class
    representative, in column order.

    At q = 1 the table is the S_n character table, and the column
    orthogonality sum_mu chi^lam(mu) chi^nu(mu) / z_mu = delta_{lam,nu} is
    checked once per rank, multiplied through by L = lcm(z_mu) so that it
    is an identity of integers: it certifies that the table is invertible
    over Q, hence over Q(q), and gives the inverse with no elimination.
    inverse_at_one holds it as integer rows chi^lam(mu) L / z_mu, and
    inverse_scale is L.
    """

    __slots__ = (
        "n",
        "row_labels",
        "classes",
        "class_reps",
        "class_words",
        "values",
        "inverse_at_one",
        "inverse_scale",
    )

    def __init__(self, n: int):
        if n > SPECHT_BOUND:
            raise ValueError(f"size bound: |lam| = {n} exceeds {SPECHT_BOUND}")
        self.n = n
        self.row_labels = partitions_of(n)
        self.classes = tuple(reversed(partitions_of(n)))
        reps = conjugacy_min_reps(n)
        self.class_reps = tuple(reps[mu] for mu in self.classes)
        self.class_words = tuple(w.reduced_word() for w in self.class_reps)
        coeffs = [
            [hecke_character(lam, mu) for mu in self.classes] for lam in self.row_labels
        ]
        self.values = tuple(tuple(Scalar(c) for c in row) for row in coeffs)
        # the q = 1 system has entry (class, lam); row lam of its inverse
        # is chi^lam(mu) / z_mu exactly when the columns are orthonormal
        at_one = [[sum(c) for c in row] for row in coeffs]
        z = [_centralizer_order(mu) for mu in self.classes]
        scale = lcm(*z)
        inverse = [[x * (scale // zi) for x, zi in zip(row, z)] for row in at_one]
        for li, row in enumerate(inverse):
            for ni, other in enumerate(at_one):
                if sum(x * y for x, y in zip(row, other)) != scale * (li == ni):
                    raise ValueError("degenerate character table")
        self.inverse_at_one = tuple(map(tuple, inverse))
        self.inverse_scale = scale


def _centralizer_order(mu) -> int:
    """z_mu = prod_i i^{m_i} m_i!, the order of the centralizer of a
    permutation of cycle type mu with m_i parts equal to i."""
    z = 1
    for part in set(mu):
        m = mu.count(part)
        z *= part**m * factorial(m)
    return z


@lru_cache(maxsize=None)
def character_table(n: int) -> CharacterTable:
    return CharacterTable(n)


# {content key: multiplicities} of every module decompose has solved
_decompositions = ContentMemo()


def decompose(V: ModulePresentation) -> dict:
    """Multiplicities of each S^lam in V, by solving against the table.

    The traces of V at every class representative are taken in one pass
    (ModulePresentation.word_traces) and handed to _multiplicities.

    That is done once per content key (ModulePresentation.content_key) and
    process, and the solution is kept in _decompositions.  The table is
    character_table(V.n), and the traces and dim are V's content, so the
    solution is a function of the content, which equal keys share.  A
    module is never mutated, so its key stays its content.  Each call
    returns a fresh dict, so a caller that changes it changes no later
    result; an exception is never kept, so a module that is not one raises
    at every call.

    >>> decompose(specht_module((2, 1)))
    {(2, 1): 1}
    >>> from heckestab.hecke import regular_representation
    >>> decompose(regular_representation(3))
    {(3,): 1, (2, 1): 2, (1, 1, 1): 1}
    """
    key = V.content_key()
    sol = _decompositions.get(key)
    if sol is None:
        table = character_table(V.n)
        sol = _multiplicities(table, V.dim, V.word_traces(table.class_words))
        _decompositions[key] = sol
    return dict(sol)


def _multiplicities(table: CharacterTable, dim: int, traces) -> dict:
    """{lam: m_lam} for a module of dimension dim with the given traces at
    the table's class representatives, or ValueError('not a module').

    A module's traces are sum_lam m_lam chi^lam with integers m_lam >= 0,
    and every chi^lam lies in Z[q], so each trace t must lie in Z[q]; its
    value at q = 1 is then sum(t.num).  The m_lam are read off these
    values through the integer inverse of the q = 1 table: L m_lam is the
    dot product of its row lam with the values, so m_lam is that product
    divided by L, and a nonzero remainder or a negative quotient is not a
    module.  This is the solve over Q multiplied through by L, so it
    accepts and rejects what that solve does.  The m_lam are then
    certified: they sum (with dimensions) to dim, and reproduce every
    t.num in Z[q].

    These are exactly the traces a solution over Q(q) accepts.  If that
    solution is made of nonnegative integers m_lam, then t = sum m_lam
    chi^lam lies in Z[q] and passes here with the same m_lam; if the
    traces pass here, those m_lam solve the system over Q(q).
    """
    if any(t.den != (1,) for t in traces):
        raise ValueError("not a module")
    at_one = [sum(t.num) for t in traces]
    scale = table.inverse_scale
    sol = []
    for row in table.inverse_at_one:
        m, r = divmod(sum(x * y for x, y in zip(row, at_one)), scale)
        if r or m < 0:
            raise ValueError("not a module")
        sol.append(m)
    dims = (m * syt_count(lam) for m, lam in zip(sol, table.row_labels) if m)
    if sum(dims) != dim:
        raise ValueError("not a module")
    for ci, t in enumerate(traces):
        acc = ()
        for m, row in zip(sol, table.values):
            if m:
                acc = poly_add(acc, tuple(m * c for c in row[ci].num))
        if acc != t.num:
            raise ValueError("not a module")
    return {lam: m for lam, m in zip(table.row_labels, sol) if m}


def coinvariant_quotient(V: ModulePresentation, a: int):
    """Quotient of V by the tail coinvariant subspace, as an H_a-module.

    For V over H_N the tail generators are s_{a+1}, ..., s_{N-1}; the
    subspace Q is spanned by the images of (T_{s_j} - q) for tail j, which
    equals span{T_sigma v - q^{l(sigma)} v} over the tail subalgebra.  The
    front generators s_1, ..., s_{a-1} commute with the tail, so they
    descend to the quotient, the index-isotypic part of the restriction.

    Returns (quotient ModulePresentation over H_a, QuotientStructure); the
    structure's section builds the induced maps between quotients.  This
    is the one-rank case of coinvariant_quotients.
    """
    return coinvariant_quotients(V, (a,))[a]


def coinvariant_quotients(V: ModulePresentation, ranks) -> dict:
    """{a: (quotient, structure)} as coinvariant_quotient gives them, for
    every retained rank a in ranks.

    The tail subspaces are nested, Q_a = Q_{a+1} + im(T_{s_{a+1}} - q), so
    one echelon basis is fed the columns of T_{s_j} + (-q)I for j from
    N - 1 down and read at each rank on the way.  A subspace has one
    reduced echelon basis, so each quotient is the one Q_a alone would
    give.
    """
    N = V.n
    ranks = sorted(set(ranks), reverse=True)
    for a in ranks:
        if not 0 <= a <= N:
            raise ValueError(f"retained rank {a} outside 0..{N}")
    basis = EchelonBasis()
    minus_q_eye = ExactMatrix.identity(V.dim).scale(-Q)
    fed = N  # the tail generators s_j with j >= fed are in the basis
    out = {}
    for a in ranks:
        while fed > a + 1:
            fed -= 1
            for col in (V.gen_action[fed - 1] + minus_q_eye).columns():
                basis.insert(col)
        qs = basis.quotient(V.dim, V.gen_action[: max(a - 1, 0)])
        quotient = ModulePresentation(a, qs.quotient_dim, qs.induced, check=False)
        out[a] = (quotient, qs)
    return out
