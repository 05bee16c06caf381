"""Small helpers the tests share for what the package itself never needs.

Permutation words and descents, the sign module of H_n, constant
scalars read as Fractions, matrices from sparse columns, the zero tower
and pointwise sums of towers.  They are the test oracles' vocabulary; no
package code reaches them.
"""

from fractions import Fraction

from heckestab import sequences
from heckestab.hecke import ModulePresentation
from heckestab.linalg import ExactMatrix
from heckestab.qfield import Scalar, scal
from heckestab.sequences import ConsistentSequence, build_M
from heckestab.symgroup import Permutation, left_step


def from_word(n: int, word) -> Permutation:
    """The product s_{i_1} s_{i_2} ... s_{i_l} for word (i_1, ..., i_l)."""
    w = Permutation.identity(n)
    for i in word:
        w = w * Permutation.simple(n, i)
    return w


def is_identity(w: Permutation) -> bool:
    return w.one_line == tuple(range(1, w.n + 1))


def swap_values(w: Permutation, i: int) -> Permutation:
    """Left multiplication by s_i (exchanges the values i and i+1)."""
    return Permutation(left_step(w.one_line, i)[0])


def left_descents(w: Permutation) -> list:
    """Generators i with l(s_i w) < l(w), i.e. i appears after i+1."""
    pos = [0] * (w.n + 1)
    for p, v in enumerate(w.one_line):
        pos[v] = p
    return [i for i in range(1, w.n) if pos[i] > pos[i + 1]]


def all_reduced_words(w: Permutation) -> list:
    """Every reduced word of w, by peeling each left descent recursively."""
    if is_identity(w):
        return [()]
    return [
        (i,) + rest
        for i in left_descents(w)
        for rest in all_reduced_words(swap_values(w, i))
    ]


def sign_rep(n: int) -> ModulePresentation:
    """The one-dimensional module on which every generator acts by -1."""
    g = ExactMatrix(1, 1, {(0, 0): scal(-1)})
    return ModulePresentation(n, 1, [g] * max(n - 1, 0), check=False)


def is_constant(c: Scalar) -> bool:
    return len(c.num) <= 1 and len(c.den) == 1


def as_fraction(c: Scalar) -> Fraction:
    """The value of a constant scalar, as a Fraction."""
    if not is_constant(c):
        raise ValueError(f"not a constant: {c}")
    return Fraction(c.num[0], c.den[0]) if c.num else Fraction(0)


def from_columns(nrows: int, columns) -> ExactMatrix:
    """The nrows x len(columns) matrix with the given sparse columns."""
    entries = {}
    columns = list(columns)
    for j, col in enumerate(columns):
        for i, v in col.items():
            if v:
                entries[(i, j)] = v
    return ExactMatrix(nrows, len(columns), entries)


def zero_sequence(n_max: int) -> ConsistentSequence:
    return build_M({}, n_max, "0")


def direct_sum(V: ConsistentSequence, W: ConsistentSequence) -> ConsistentSequence:
    """V (+) W degree by degree, with block-diagonal actions and connectors."""
    if V.n_max != W.n_max:
        raise ValueError("truncation mismatch")
    modules = [
        sequences._presentation_direct_sum(n, [V.modules[n], W.modules[n]])
        for n in range(V.n_max + 1)
    ]
    connectors = [
        sequences._block_diagonal([V.connectors[n], W.connectors[n]])
        for n in range(V.n_max)
    ]
    return ConsistentSequence(
        modules, connectors, label=f"({V.label})(+)({W.label})", check=False
    )


def assert_squares_hold(V: ConsistentSequence, a_max: int = 2) -> None:
    """Run, exactly, the checks that a derived tower is built without.

    V's commuting squares, and for each a <= a_max the H_a-equivariance of
    every map T of Phi_a(V).
    """
    assert sequences.check_consistency(V)["ok"]
    for a in range(min(a_max, V.n_max) + 1):
        tower = sequences.phi_a(V, a)
        for n, T in enumerate(tower.maps):
            assert sequences._not_intertwined(T, tower.spaces[n], tower.spaces[n + 1]) == []
