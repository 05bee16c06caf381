"""The content key of a module, and the decomposition memo keyed by it.

``decompose`` solves once per content key.  These tests hold the memoised
answers against a fresh computation over the modules a benchmark pass
builds, check that the key tells modules apart exactly when their content
differs, and that a failure or a caller's change to a result never
reaches a later answer.  The relation check keeps nothing: it runs at
every checked construction, once per Specht shape, regular rank and
parsed tower file, and every other module inherits its relations.
"""

from unittest import mock

import pytest

from heckestab import hecke, sequences, specht
from heckestab.hecke import (
    ModulePresentation,
    index_rep,
    induce_pair,
    regular_representation,
)
from heckestab.linalg import ExactMatrix
from heckestab.partitions import conjugate, partitions_of
from heckestab.qfield import MINUS_ONE, ONE, Q
from heckestab.sequences import build_M_specht, build_Mm, noetherian_experiment
from heckestab.specht import decompose, specht_module

# (lam, k) for Ind(S^lam boxtimes index_k), as the modules workload draws them
INDUCE_SLOTS = (
    ((1,), 4), ((2, 1), 2), ((2,), 3), ((3, 1), 1),
    ((1,), 5), ((2,), 4), ((3, 1), 2), ((2, 1), 3), ((3,), 3), ((3, 2), 1), ((2, 2), 2),
    ((1,), 6), ((2,), 5), ((2, 1), 4), ((2, 2), 3), ((4,), 3), ((3,), 4),
)
TOWERS = [(m, None) for m in (1, 2, 3)] + [
    (None, lam) for lam in [(1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]
]


def fresh(V) -> dict:
    """V's multiplicities solved again, past the decomposition memo."""
    table = specht.character_table(V.n)
    return specht._multiplicities(table, V.dim, V.word_traces(table.class_words))


def content(V) -> tuple:
    """V's content, as an independent oracle for the key: Scalars compare
    by value, and an ExactMatrix keeps only its nonzero entries."""
    return (V.n, V.dim, tuple(frozenset(g.entries.items()) for g in V.gen_action))


def specht_deck():
    return [specht_module(lam) for n in (5, 6, 7) for lam in partitions_of(n)]


def induce_deck():
    return [
        induce_pair(specht_module(mu), index_rep(k))
        for lam, k in INDUCE_SLOTS
        for mu in dict.fromkeys((lam, conjugate(lam)))
    ]


def regular_deck():
    return [regular_representation(n) for n in (0, 1, 4, 5)]


def tower_deck():
    return [
        V
        for m, lam in TOWERS
        for V in (build_Mm(m, 6) if lam is None else build_M_specht(lam, 6)).modules
    ]


def span_deck():
    spans = []
    span = sequences.span

    def kept(*args, **kwargs):
        sub = span(*args, **kwargs)
        spans.append(sub)
        return sub

    with mock.patch.object(sequences, "span", kept):
        for seed in (1, 2, 3):
            noetherian_experiment(1, 2, seed, 6)
    assert len(spans) == 6
    return [V for sub in spans for V in sub.modules]


DECKS = {
    "specht": specht_deck,
    "induce": induce_deck,
    "regular": regular_deck,
    "towers": tower_deck,
    "spans": span_deck,
}


@pytest.mark.parametrize("deck", DECKS)
def test_memoised_decompose_equals_a_fresh_solve(deck):
    modules = DECKS[deck]()
    for V in modules:
        assert decompose(V) == fresh(V)
    keys = {V.content_key() for V in modules}
    assert len(specht._decompositions) == len(keys)
    for V in modules:
        assert decompose(V) == fresh(V)


@pytest.mark.parametrize("deck", DECKS)
def test_equal_keys_exactly_when_equal_content(deck):
    modules = DECKS[deck]()
    by_key: dict = {}
    by_content: dict = {}
    for t, V in enumerate(modules):
        by_key.setdefault(V.content_key(), []).append(t)
        by_content.setdefault(content(V), []).append(t)
    assert sorted(by_key.values()) == sorted(by_content.values())


def test_key_is_kept():
    V = specht_module((2, 1))
    assert V.content_key() is V.content_key()


def test_rank_is_part_of_the_key():
    # H_0 and H_1 have no generators: a one-dimensional module of each has
    # the same matrices, but not the same decomposition
    assert index_rep(0).content_key() != index_rep(1).content_key()
    assert decompose(index_rep(0)) == {(): 1}
    assert decompose(index_rep(1)) == {(1,): 1}
    assert decompose(index_rep(0)) == {(): 1}


def diagonal(c):
    """The H_2-module on which T_{s_1} acts by diag(q, c)."""
    return ModulePresentation(2, 2, [ExactMatrix(2, 2, {(0, 0): Q, (1, 1): c})])


def test_a_failing_module_raises_at_every_construction():
    # diag(q, -1) and diag(q, -1/q) have the same entry positions and
    # numerators; only the denominator of the second entry differs
    good = diagonal(MINUS_ONE)
    assert decompose(good) == {(2,): 1, (1, 1): 1}
    bad = MINUS_ONE / Q
    for _ in range(3):
        with pytest.raises(ValueError, match="relation failure: quadratic at s_1"):
            diagonal(bad)
    assert diagonal(MINUS_ONE).content_key() == good.content_key()


def test_a_failing_decomposition_raises_at_every_call():
    # an unchecked "module" whose traces are no module's
    V = ModulePresentation(2, 1, [ExactMatrix(1, 1, {(0, 0): ONE})], check=False)
    for _ in range(3):
        with pytest.raises(ValueError, match="not a module"):
            decompose(V)
    assert not specht._decompositions


def test_a_changed_result_changes_no_later_one():
    V = regular_representation(3)
    want = {(3,): 1, (2, 1): 2, (1, 1, 1): 1}
    first = decompose(V)
    assert first == want
    first[(3,)] = 7
    first.pop((2, 1))
    second = decompose(V)
    assert second == want and second is not first
    second.clear()
    assert decompose(V) == want


def count(monkeypatch, owner, name) -> list:
    """Patch owner.name to record each call; returns the record."""
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_M1_and_M_S1_share_each_decomposition(monkeypatch):
    solves = count(monkeypatch, specht, "_multiplicities")
    M1, MS1 = build_Mm(1, 6), build_M_specht((1,), 6)
    for n in range(7):
        a, b = M1.modules[n], MS1.modules[n]
        assert a is not b and a.content_key() == b.content_key()
        before = len(solves)
        assert decompose(a) == decompose(b) == fresh(b)
        assert len(solves) == before + 2  # the memo's and fresh's


@pytest.mark.parametrize("lam, k", [((2, 1), 2), ((3,), 3)])
def test_two_induce_pair_calls_make_no_check_and_share_one_solve(monkeypatch, lam, k):
    # an induced module inherits its relations from its factors, so neither
    # call checks; the two share one decomposition by their content key
    specht_module(lam)
    checks = count(monkeypatch, hecke.ModulePresentation, "_check_relations")
    solves = count(monkeypatch, specht, "_multiplicities")
    a = induce_pair(specht_module(lam), index_rep(k))
    b = induce_pair(specht_module(lam), index_rep(k))
    assert a is not b and a.content_key() == b.content_key()
    assert len(checks) == 0
    assert decompose(a) == decompose(b)
    assert len(solves) == 1
