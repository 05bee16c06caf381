"""Differential tests of the packed relation check and the packed trace.

``ModulePresentation`` checks its relations, and ``word_traces`` takes
traces, on integer matrices packed at q = 2^k with k certified from l1
bounds.  ``hecke_reference`` keeps the ExactMatrix versions they replaced.
Both must accept the same modules with the same message and give equal
traces.  The modules drawn below reach the width bound: Specht, regular
and induced modules, and unchecked modules whose entries have
coefficients near 2^64, rational coefficients or denominators.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import hecke_reference as ref
from helpers import sign_rep
from heckestab.hecke import (
    ModulePresentation,
    index_rep,
    induce_pair,
    regular_representation,
)
from heckestab.linalg import ExactMatrix
from heckestab.partitions import partitions_of
from heckestab.qfield import ONE, Q, ZERO, Scalar
from heckestab import hecke
from heckestab.specht import character, character_table, decompose, specht_module
from heckestab.symgroup import Permutation

WIDE = 2**64


def words(n, max_size):
    """Words in the generator indices 1..n-1, reduced or not."""
    if n < 2:
        return st.just(())
    return st.lists(st.integers(1, n - 1), max_size=max_size).map(tuple)


def permutations(n):
    return st.permutations(range(1, n + 1)).map(lambda p: Permutation(tuple(p)))


@st.composite
def shapes(draw, max_rank):
    n = draw(st.integers(1, max_rank))
    return draw(st.sampled_from(partitions_of(n)))


class TestTraceAgainstReference:
    @settings(max_examples=40)
    @given(st.data())
    def test_specht_words(self, data):
        lam = data.draw(shapes(7))
        V = specht_module(lam)
        word = data.draw(words(V.n, 6))
        assert V.word_traces([word])[0] == ref.matrix_trace(V.word_matrix(word))

    @settings(max_examples=30)
    @given(st.data())
    def test_specht_characters(self, data):
        lam = data.draw(shapes(5))
        V = specht_module(lam)
        w = data.draw(permutations(V.n))
        assert character(V, w) == ref.character(V, w)

    @settings(max_examples=25)
    @given(st.data())
    def test_regular_characters(self, data):
        V = regular_representation(data.draw(st.integers(0, 5)))
        w = data.draw(permutations(V.n))
        assert character(V, w) == ref.character(V, w)

    @settings(max_examples=25)
    @given(st.data())
    def test_induced_characters(self, data):
        lam = data.draw(shapes(3))
        side = data.draw(st.sampled_from((index_rep, sign_rep)))
        V = induce_pair(specht_module(lam), side(data.draw(st.integers(0, 2))))
        w = data.draw(permutations(V.n))
        assert character(V, w) == ref.character(V, w)


wide_ints = st.one_of(
    st.integers(WIDE - 2**8, WIDE - 1),
    st.integers(-WIDE + 1, -WIDE + 2**8),
    st.integers(-3, 3),
)
rationals = st.fractions(min_value=-5, max_value=5, max_denominator=7)
DENOMINATORS = (ONE, Q, Q + 1, Q - 2, Q * Q + 1, Scalar((Fraction(1, 3), 1)))


@st.composite
def entries(draw):
    kind = draw(st.sampled_from((wide_ints, rationals)))
    coeffs = draw(st.lists(kind, min_size=1, max_size=3))
    return Scalar(tuple(coeffs)) / draw(st.sampled_from(DENOMINATORS))


@st.composite
def unchecked_modules(draw):
    """Any generator matrices at all, with no relation checked."""
    n = draw(st.integers(2, 4))
    dim = draw(st.integers(1, 4))
    cells = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1))
    matrices = st.dictionaries(cells, entries(), max_size=dim * dim)
    gens = [ExactMatrix(dim, dim, draw(matrices)) for _ in range(n - 1)]
    return ModulePresentation(n, dim, gens, check=False)


class TestWideAndRationalEntries:
    @settings(max_examples=150)
    @given(unchecked_modules(), st.data())
    def test_word_traces(self, V, data):
        word = data.draw(words(V.n, 4))
        assert V.word_traces([word])[0] == ref.matrix_trace(V.word_matrix(word))

    @settings(max_examples=50)
    @given(unchecked_modules(), st.data())
    def test_characters(self, V, data):
        w = data.draw(permutations(V.n))
        assert character(V, w) == ref.character(V, w)

    @pytest.mark.parametrize("c", [WIDE - 1, -(WIDE - 1), 2**63, -(2**63) - 1])
    def test_bound_met_exactly(self, c):
        # the trace of a 1x1 generator is its entry, which is the bound
        V = ModulePresentation(2, 1, [ExactMatrix(1, 1, {(0, 0): c})], check=False)
        assert V.word_traces([(1,)])[0] == Scalar(c)

    @pytest.mark.parametrize("c", [WIDE - 1, 3])
    def test_bound_needs_row_sums(self, c):
        # every product term is c^2 with one sign: the trace is 4 c^2,
        # twice what the largest entries alone would bound
        g = ExactMatrix(2, 2, {(i, j): c for i in range(2) for j in range(2)})
        V = ModulePresentation(3, 2, [g, g], check=False)
        assert V.word_traces([(1, 2)])[0] == Scalar(4 * c * c)
        assert V.word_traces([(1, 2, 1, 2)])[0] == Scalar(16 * c**4)

    def test_empty_word_and_zero_module(self):
        V = ModulePresentation(3, 0, [ExactMatrix(0, 0)] * 2, check=False)
        assert V.word_traces([()])[0] == ZERO
        assert V.word_traces([(1, 2)])[0] == ZERO
        assert specht_module((2, 1)).word_traces([()])[0] == Scalar(2)


@st.composite
def word_lists(draw, n, max_len):
    """Words in any order, with repeats, the empty word, and words that
    share no prefix with their neighbours."""
    ws = draw(st.lists(words(n, max_len), max_size=5))
    if ws and draw(st.booleans()):
        ws.append(draw(st.sampled_from(ws)))
    if draw(st.booleans()):
        ws.append(())
    if n > 2 and draw(st.booleans()):
        ws += [(1,) * min(max_len, 2), (n - 1,) * min(max_len, 2)]
    return draw(st.permutations(ws))


def reference_traces(V, ws):
    """The ExactMatrix trace of each word, each distinct word taken once."""
    seen = {w: ref.matrix_trace(V.word_matrix(w)) for w in set(ws)}
    return [seen[w] for w in ws]


def counting_products(monkeypatch):
    """A list that grows by one on each packed matrix product."""
    calls = []
    product = hecke._packed_product

    def counted(a, b):
        calls.append(None)
        return product(a, b)

    monkeypatch.setattr(hecke, "_packed_product", counted)
    return calls


def counting_checks(monkeypatch):
    """A list that grows by one on each relation check."""
    calls = []
    check = ModulePresentation._check_relations

    def counted(module):
        calls.append(None)
        return check(module)

    monkeypatch.setattr(ModulePresentation, "_check_relations", counted)
    return calls


class TestWordTraces:
    """word_traces takes every word of a list at one width, over a stack
    of prefix products; each trace must equal the ExactMatrix trace."""

    @settings(max_examples=30)
    @given(st.data())
    def test_specht_modules(self, data):
        V = specht_module(data.draw(shapes(7)))
        ws = data.draw(word_lists(V.n, 5))
        assert V.word_traces(ws) == reference_traces(V, ws)

    @settings(max_examples=20)
    @given(st.data())
    def test_induced_and_regular_modules(self, data):
        if data.draw(st.booleans()):
            V = regular_representation(data.draw(st.integers(0, 4)))
        else:
            lam = data.draw(shapes(3))
            side = data.draw(st.sampled_from((index_rep, sign_rep)))
            V = induce_pair(specht_module(lam), side(data.draw(st.integers(0, 2))))
        ws = data.draw(word_lists(V.n, 4))
        assert V.word_traces(ws) == reference_traces(V, ws)

    @settings(max_examples=60)
    @given(unchecked_modules(), st.data())
    def test_wide_and_rational_modules(self, V, data):
        ws = data.draw(word_lists(V.n, 4))
        assert V.word_traces(ws) == reference_traces(V, ws)

    def test_no_words(self):
        assert specht_module((2, 1)).word_traces([]) == []

    @pytest.mark.parametrize(
        "ws, products",
        [
            ([(1, 2, 3)], 1),
            ([(1, 2, 3), (1, 2, 3)], 1),
            ([(1, 2, 3), (2, 3, 1)], 2),
            ([(1, 2, 3), (1, 2, 1), (1, 2, 3, 2)], 2),
            # (1, 2) pops the stack back to (1,), so (1, 2) is formed again
            ([(1, 2, 3), (1, 2), (1, 2, 1)], 2),
            ([(), (3,), (1, 3), (3, 2, 1)], 1),
        ],
    )
    def test_each_prefix_run_multiplied_once(self, monkeypatch, ws, products):
        V = specht_module((2, 1, 1))
        want = reference_traces(V, ws)
        calls = counting_products(monkeypatch)
        assert V.word_traces(ws) == want
        assert len(calls) == products

    def test_rank_seven_decompose_makes_seven_products(self, monkeypatch):
        # the 15 class words of S_7 have 7 distinct prefixes of length 2
        # or more below their last letter, and they come in runs
        V = specht_module((4, 2, 1))
        table = character_table(7)
        calls = counting_products(monkeypatch)
        assert decompose(V) == {(4, 2, 1): 1}
        assert len(calls) == 7
        prefixes = {w[:j] for w in table.class_words for j in range(2, len(w))}
        assert len(prefixes) == 7


def outcome(check, V):
    """None if check accepts V, else its message."""
    try:
        check(V)
    except ValueError as exc:
        return str(exc)
    return None


def packed_check(V):
    ModulePresentation(V.n, V.dim, V.gen_action)


VALID = (
    lambda: specht_module((2, 1)),
    lambda: specht_module((2, 1, 1)),
    lambda: specht_module((3, 2)),
    lambda: regular_representation(3),
    lambda: induce_pair(specht_module((2,)), sign_rep(2)),
    lambda: induce_pair(index_rep(1), index_rep(3)),
)
DELTAS = (ONE, -ONE, Q, Scalar(Fraction(-1, 2)), ONE / (Q + 1), Scalar(WIDE - 1))


@st.composite
def perturbed(draw):
    """A valid module with one generator changed.

    Either one entry is moved by a delta, which usually breaks the
    quadratic relation, or one generator is conjugated by I + c e_ab,
    which keeps it and usually breaks a braid or a commutation.
    """
    V = draw(st.sampled_from(VALID))()
    gens = list(V.gen_action)
    i = draw(st.integers(0, len(gens) - 1))
    a, b = draw(st.integers(0, V.dim - 1)), draw(st.integers(0, V.dim - 1))
    c = draw(st.sampled_from(DELTAS))
    if draw(st.booleans()) or a == b:
        entries = dict(gens[i].entries)
        entries[(a, b)] = entries.get((a, b), ZERO) + c
        gens[i] = ExactMatrix(V.dim, V.dim, entries)
    else:
        E = ExactMatrix.identity(V.dim) + ExactMatrix(V.dim, V.dim, {(a, b): c})
        E_inv = ExactMatrix.identity(V.dim) - ExactMatrix(V.dim, V.dim, {(a, b): c})
        gens[i] = E @ gens[i] @ E_inv
    return ModulePresentation(V.n, V.dim, gens, check=False)


class TestRelationCheckAgainstReference:
    @pytest.mark.parametrize("make", VALID)
    def test_valid_modules_accepted(self, make, monkeypatch):
        V = make()
        checks = counting_checks(monkeypatch)
        assert outcome(packed_check, V) is None
        assert len(checks) == 1
        assert outcome(ref.check_relations, V) is None

    @settings(max_examples=120)
    @given(perturbed())
    def test_perturbed_modules(self, V):
        assert outcome(packed_check, V) == outcome(ref.check_relations, V)

    def test_each_message_reached(self):
        # quadratic, then commutation, then braid, as the reference orders them
        g = ExactMatrix(1, 1, {(0, 0): Q + 1})
        q, m = ExactMatrix(1, 1, {(0, 0): Q}), ExactMatrix(1, 1, {(0, 0): -ONE})
        swap = ExactMatrix(2, 2, {(0, 1): ONE, (1, 0): Q, (1, 1): Q - 1})
        diag = ExactMatrix(2, 2, {(0, 0): Q, (1, 1): -ONE})
        cases = (
            (ModulePresentation(3, 1, [q, g], check=False), "quadratic at s_2"),
            (ModulePresentation(4, 2, [swap, diag, diag], check=False),
             "commutation at s_1, s_3"),
            (ModulePresentation(3, 1, [q, m], check=False), "braid at s_1"),
        )
        for V, message in cases:
            assert outcome(ref.check_relations, V) == f"relation failure: {message}"
            assert outcome(packed_check, V) == f"relation failure: {message}"

    def test_braid_sides_share_one_product(self, monkeypatch):
        # rank 7: 6 quadratic, 10 commutation pairs of 2 and 5 braids of 3
        V = induce_pair(specht_module((2, 1)), index_rep(4))
        calls = counting_products(monkeypatch)
        V._check_relations()
        assert len(calls) == 6 + 10 * 2 + 5 * 3 == 41
