"""Seminormal modules, characters, decomposition, coinvariant quotients."""

import math
import random
import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import coinvariant_reference
from branching_reference import branching_check
from hecke_reference import matrix_trace
from helpers import all_reduced_words, as_fraction, is_constant, sign_rep
from heckestab import specht
from heckestab.hecke import (
    ModulePresentation,
    index_rep,
    induce_pair,
    regular_representation,
)
from heckestab.linalg import ExactMatrix, solve_unique
from heckestab.partitions import hecke_character, pad, partitions_of, syt_count
from heckestab.qfield import ONE, Q, ZERO, Scalar, scal
from heckestab.specht import (
    CharacterTable,
    character,
    character_table,
    coinvariant_quotient,
    coinvariant_quotients,
    decompose,
    specht_module,
)
from heckestab.symgroup import Permutation, conjugacy_min_reps, permutations_of


def reference_multiplicities(table, traces):
    """The unique solution over Q(q), by elimination on the Q(q) table."""
    m = len(table.row_labels)
    mat = ExactMatrix(
        m,
        m,
        {(ci, li): table.values[li][ci] for li in range(m) for ci in range(m)},
    )
    sol = solve_unique(mat, {ci: t for ci, t in enumerate(traces) if t})
    return dict(zip(table.row_labels, sol))


def reference_decompose(V):
    """decompose through the Q(q) solve, with the same module checks."""
    table = character_table(V.n)
    traces = [character(V, w) for w in table.class_reps]
    out = {}
    for lam, c in reference_multiplicities(table, traces).items():
        if not c:
            continue
        value = as_fraction(c) if is_constant(c) else None
        if value is None or value.denominator != 1 or value < 0:
            raise ValueError("not a module")
        out[lam] = int(value)
    if sum(c * syt_count(lam) for lam, c in out.items()) != V.dim:
        raise ValueError("not a module")
    return out


def traced_table_values(n):
    """The table as built before the q-Murnaghan-Nakayama rule: each
    seminormal S^lam traced along a reduced word of each minimal class
    representative, rows and columns in CharacterTable order."""
    reps = conjugacy_min_reps(n)
    return tuple(
        tuple(character(specht_module(lam), reps[mu]) for mu in reversed(partitions_of(n)))
        for lam in partitions_of(n)
    )


@lru_cache(maxsize=None)
def class_sizes(n):
    """{cycle type: number of permutations of S_n of that type}, counted."""
    sizes = Counter()
    for w in permutations_of(n):
        seen, cycles = set(), []
        for start in range(1, n + 1):
            length = 0
            while start not in seen:
                seen.add(start)
                start = w(start)
                length += 1
            if length:
                cycles.append(length)
        sizes[tuple(sorted(cycles, reverse=True))] += 1
    return sizes


def centralizer_order(mu):
    """z_mu as n! over the size of the class of mu, counted in S_n."""
    n = sum(mu)
    return math.factorial(n) // class_sizes(n)[tuple(mu)]


def table_traces(table, coeffs):
    """sum_lam coeffs[lam] chi_lam at each class, as a trace vector."""
    traces = [ZERO] * len(table.classes)
    for li, lam in enumerate(table.row_labels):
        for ci, v in enumerate(table.values[li]):
            traces[ci] = traces[ci] + coeffs.get(lam, 0) * v
    return traces


def decompose_traces(table, traces):
    """What decompose makes of a module of rank table.n whose character
    at the class representatives is traces, through the solve it calls.
    Its dim is the sum of the coefficients of traces[0], the trace of the
    identity: its value at q = 1 when it is a polynomial."""
    return specht._multiplicities(table, sum(traces[0].num), traces)


def one_dim(x):
    """A rank-2 presentation with T_1 acting by x, relations unchecked."""
    return ModulePresentation(2, 1, [ExactMatrix(1, 1, {(0, 0): x})], check=False)


def direct_sum(V, W):
    """Block-diagonal presentation; decompose must be additive over it."""
    dim = V.dim + W.dim
    gens = []
    for a, b in zip(V.gen_action, W.gen_action):
        entries = dict(a.entries)
        entries.update(
            {(i + V.dim, j + V.dim): c for (i, j), c in b.entries.items()}
        )
        gens.append(ExactMatrix(dim, dim, entries))
    return ModulePresentation(V.n, dim, gens, check=False)


class TestSeminormal:
    @pytest.mark.parametrize("n", range(7))
    def test_relations_and_dims(self, n):
        # the ModulePresentation constructor re-verifies every relation
        for lam in partitions_of(n):
            V = specht_module(lam)
            assert V.dim == syt_count(lam)

    def test_one_dimensional_cases(self):
        assert specht_module((4,)).gen_action == index_rep(4).gen_action
        assert specht_module((1, 1, 1)).gen_action == sign_rep(3).gen_action

    def test_repr_is_rank_and_dim(self):
        # a module is its content: its repr names no shape
        assert repr(specht_module((2, 1))) == "ModulePresentation(H_3, dim 2)"

    def test_two_dimensional_block(self):
        V = specht_module((2, 1))
        # basis order: ((1,3),(2,)) then ((1,2),(3,))
        minus = scal(-1)
        assert V.generator(1).to_lists() == [
            [minus, scal(0)],
            [scal(0), Q],
        ]
        d2 = Q ** 2 / (Q + 1)
        d2m = minus / (Q + 1)
        b2 = Q * (Q ** 2 + Q + 1) / (Q + 1) ** 2
        assert V.generator(2).to_lists() == [[d2, b2], [ONE, d2m]]

    def test_size_bound(self):
        with pytest.raises(ValueError, match="size bound"):
            specht_module((8,))

    def test_one_module_per_shape(self):
        assert specht_module([2, 1]) is specht_module((2, 1))
        assert specht_module((2, 1)) is specht_module([2, 1])

    def test_size_bound_after_smaller_shapes_are_cached(self, monkeypatch):
        # the bound is checked before the per-shape cache is consulted
        for lam in partitions_of(3):
            specht_module(lam)
        with pytest.raises(ValueError, match="size bound"):
            specht_module((4, 2, 1, 1))
        monkeypatch.setattr(specht, "SPECHT_BOUND", 2)
        with pytest.raises(ValueError, match="size bound"):
            specht_module((2, 1))

    def test_classical_limit_of_block(self):
        # at q = 1 the (2,1) module becomes Young's seminormal form
        g = specht_module((2, 1)).generator(2)
        spec = [[c.specialize(1) for c in row] for row in g.to_lists()]
        assert spec == [
            [Fraction(1, 2), Fraction(3, 4)],
            [Fraction(1), Fraction(-1, 2)],
        ]


class TestCharacter:
    def test_identity_gives_dimension(self):
        V = specht_module((2, 2))
        assert character(V, Permutation.identity(4)) == scal(V.dim)

    def test_sign_generator(self):
        V = specht_module((1, 1))
        assert character(V, Permutation.simple(2, 1)) == scal(-1)

    def test_regular_generator_trace(self):
        # the n!/2 basis vectors with left descent at 1 contribute q-1 each
        V = regular_representation(3)
        assert character(V, Permutation.simple(3, 1)) == (Q - 1) * 3

    def test_reduced_word_independent(self):
        rng = random.Random(17)
        V = regular_representation(4)
        for _ in range(10):
            w = Permutation(tuple(rng.sample(range(1, 5), 4)))
            words = all_reduced_words(w)
            traces = {matrix_trace(V.word_matrix(u)).to_wire() for u in words}
            traces |= {V.word_traces([u])[0].to_wire() for u in words}
            assert len(traces) == 1


class TestCharacterTable:
    def test_rank_two(self):
        t = character_table(2)
        assert t.row_labels == ((2,), (1, 1))
        assert t.classes == ((1, 1), (2,))
        assert [[str(v) for v in row] for row in t.values] == [
            ["1", "q"],
            ["1", "-1"],
        ]

    def test_identity_column_is_dimension(self):
        t = character_table(3)
        assert [row[0] for row in t.values] == [scal(1), scal(2), scal(1)]

    def test_classical_limit_rank_three(self):
        t = character_table(3)
        spec = [[v.specialize(1) for v in row] for row in t.values]
        # classes e, (12), (123); rows (3), (2,1), (1,1,1)
        assert spec == [[1, 1, 1], [2, 0, -1], [1, -1, 1]]


    @pytest.mark.parametrize("n", range(8))
    def test_rule_matches_traced_table(self, n):
        table = character_table(n)
        reference = traced_table_values(n)
        assert table.values == reference
        # the rule may take the parts of mu in either order
        for li, lam in enumerate(table.row_labels):
            for ci, mu in enumerate(table.classes):
                assert Scalar(hecke_character(lam, mu[::-1])) == reference[li][ci]

    @pytest.mark.parametrize("n", range(8))
    def test_inverse_at_one(self, n):
        # the integer rows over L are chi^lam(mu) / z_mu, and they form a
        # right inverse of the q = 1 system, whose entry (class, lam) is
        # chi^lam(mu); the table's own check is the left one
        table = character_table(n)
        scale = table.inverse_scale
        m = len(table.classes)
        for li in range(m):
            for ci, mu in enumerate(table.classes):
                assert Fraction(table.inverse_at_one[li][ci], scale) == Fraction(
                    table.values[li][ci].specialize(1), centralizer_order(mu)
                )
        for ci in range(m):
            for cj in range(m):
                total = sum(
                    table.values[li][ci].specialize(1) * table.inverse_at_one[li][cj]
                    for li in range(m)
                )
                assert total == scale * (ci == cj)

    @pytest.mark.parametrize("n", range(8))
    def test_class_words_are_reduced_words_of_the_reps(self, n):
        table = character_table(n)
        assert table.class_words == tuple(w.reduced_word() for w in table.class_reps)
        for w, word in zip(table.class_reps, table.class_words):
            assert len(word) == w.length

    def test_builds_no_specht_module(self, monkeypatch):
        def refuse(lam):
            raise AssertionError(f"built S^{lam}")

        monkeypatch.setattr(specht, "specht_module", refuse)
        monkeypatch.setattr(specht, "_verified_specht", refuse)
        assert len(CharacterTable(7).values) == len(partitions_of(7))

    def test_size_bound_before_any_work(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("work past the bound")

        for name in ("hecke_character", "partitions_of", "conjugacy_min_reps"):
            monkeypatch.setattr(specht, name, refuse)
        bound = specht.SPECHT_BOUND
        message = f"size bound: |lam| = {bound + 1} exceeds {bound}"
        with pytest.raises(ValueError, match=re.escape(message)):
            character_table(bound + 1)

    def test_degenerate_table_is_refused(self, monkeypatch):
        # the sign row read as the trivial one breaks orthogonality
        def trivial_for_sign(lam, mu):
            return hecke_character((len(lam),) if lam == (1,) * len(lam) else lam, mu)

        monkeypatch.setattr(specht, "hecke_character", trivial_for_sign)
        with pytest.raises(ValueError, match="degenerate character table"):
            CharacterTable(3)


class TestDecompose:
    def test_regular_rank_three(self):
        V = regular_representation(3)
        assert decompose(V) == {(3,): 1, (2, 1): 2, (1, 1, 1): 1}

    def test_irreducible_is_delta(self):
        assert decompose(specht_module((2, 1))) == {(2, 1): 1}
        assert decompose(specht_module((3, 1))) == {(3, 1): 1}

    def test_additive_over_direct_sums(self):
        V = direct_sum(specht_module((2, 1)), specht_module((3,)))
        assert decompose(V) == {(2, 1): 1, (3,): 1}
        W = direct_sum(V, specht_module((2, 1)))
        assert decompose(W) == {(2, 1): 2, (3,): 1}

    def test_induced_pair_pieri(self):
        V = induce_pair(specht_module((1,)), index_rep(1))
        assert decompose(V) == {(2,): 1, (1, 1): 1}

    def test_not_a_module(self):
        fake = ModulePresentation(
            2, 1, [ExactMatrix(1, 1, {(0, 0): Q + 1})], check=False
        )
        with pytest.raises(ValueError, match="not a module"):
            decompose(fake)


class TestDecomposeAgainstQqSolve:
    """decompose solves at q = 1; solve_unique over Q(q) is the reference."""

    @pytest.mark.parametrize("n", range(7))
    def test_specht_modules(self, n):
        for lam in partitions_of(n):
            V = specht_module(lam)
            assert decompose(V) == reference_decompose(V) == {lam: 1}

    @pytest.mark.parametrize("n", range(7))
    def test_induced_pairs(self, n):
        for k in range(n + 1):
            for lam in partitions_of(n - k):
                V = induce_pair(specht_module(lam), index_rep(k))
                assert decompose(V) == reference_decompose(V)

    @pytest.mark.parametrize("n", range(5))
    def test_regular_representations(self, n):
        V = regular_representation(n)
        assert decompose(V) == reference_decompose(V)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_agrees_at_one_but_not_over_qq(self, n):
        table = character_table(n)
        traces = table.values[0]
        for li, lam in enumerate(table.row_labels):
            bent = [t + (Q - 1) * v for t, v in zip(traces, table.values[li])]
            assert [t.specialize(1) for t in bent] == [
                t.specialize(1) for t in traces
            ]
            ref = reference_multiplicities(table, bent)
            assert not all(map(is_constant, ref.values()))
            with pytest.raises(ValueError, match="not a module"):
                decompose_traces(table, bent)

    def test_certificate_fails_on_fake_module(self):
        # traces (1, 2q-1) read (1, 1) at q = 1, the index module's
        fake = one_dim(2 * Q - 1)
        with pytest.raises(ValueError, match="not a module"):
            reference_decompose(fake)
        with pytest.raises(ValueError, match="not a module"):
            decompose(fake)

    def test_trace_outside_z_q(self):
        # q/2 stores num q over den 2: its num is the index module's trace
        fake = one_dim(Q / 2)
        with pytest.raises(ValueError, match="not a module"):
            reference_decompose(fake)
        with pytest.raises(ValueError, match="not a module"):
            decompose(fake)

    def test_pole_at_one(self):
        fake = one_dim(ONE / (Q - 1))
        with pytest.raises(ValueError, match="not a module"):
            reference_decompose(fake)
        with pytest.raises(ValueError, match="not a module"):
            decompose(fake)
        table = character_table(3)
        traces = [t / (Q - 1) for t in table.values[1]]
        with pytest.raises(ValueError, match="not a module"):
            decompose_traces(table, traces)

    @pytest.mark.parametrize(
        "x, solution",
        [
            ((Q - 1) / 2, {(2,): Fraction(1, 2), (1, 1): Fraction(1, 2)}),
            (-Q - 2, {(2,): -1, (1, 1): 2}),
        ],
    )
    def test_constant_solution_not_a_module(self, x, solution):
        fake = one_dim(x)
        table = character_table(2)
        traces = [character(fake, w) for w in table.class_reps]
        assert reference_multiplicities(table, traces) == {
            lam: scal(c) for lam, c in solution.items()
        }
        with pytest.raises(ValueError, match="not a module"):
            reference_decompose(fake)
        with pytest.raises(ValueError, match="not a module"):
            decompose(fake)

    @settings(max_examples=40)
    @given(st.data())
    def test_random_table_combinations(self, data):
        n = data.draw(st.integers(1, 5))
        table = character_table(n)
        coeffs = {
            lam: data.draw(st.integers(-3, 3)) for lam in table.row_labels
        }
        bend = data.draw(st.integers(0, 2))
        traces = table_traces(table, coeffs)
        traces[-1] = traces[-1] + bend * (Q - 1)
        ref = reference_multiplicities(table, traces)
        if bend:
            assert not all(map(is_constant, ref.values()))
        else:
            assert ref == {lam: scal(c) for lam, c in coeffs.items()}
        if bend or min(coeffs.values()) < 0:
            with pytest.raises(ValueError, match="not a module"):
                decompose_traces(table, traces)
        else:
            assert decompose_traces(table, traces) == {
                lam: c for lam, c in coeffs.items() if c
            }


@st.composite
def coinvariant_modules(draw):
    """A Specht module of rank <= 6, a regular one of rank <= 4, or an
    induced Ind(S^lam (x) index_k) with |lam| <= 3 and rank <= 6."""
    kind = draw(st.sampled_from(["specht", "regular", "induced"]))
    if kind == "regular":
        return regular_representation(draw(st.integers(0, 4)))
    size = draw(st.integers(0, 6 if kind == "specht" else 3))
    lam = draw(st.sampled_from(partitions_of(size)))
    if kind == "specht":
        return specht_module(lam)
    return induce_pair(specht_module(lam), index_rep(draw(st.integers(0, 6 - size))))


class TestCoinvariants:
    @given(coinvariant_modules(), st.data())
    @settings(max_examples=40)
    def test_every_rank_matches_reference(self, V, data):
        # one elimination read at each rank gives, bit for bit, what one
        # elimination per rank gave: the reduced basis of Q_a is unique
        some = data.draw(st.sets(st.integers(0, V.n), min_size=1))
        every = coinvariant_quotients(V, range(V.n + 1))
        subset = coinvariant_quotients(V, some)
        assert sorted(every) == list(range(V.n + 1))
        assert sorted(subset) == sorted(some)
        for a in range(V.n + 1):
            want, want_qs = coinvariant_reference.coinvariant_quotient(V, a)
            got = [every[a], coinvariant_quotient(V, a)]
            if a in some:
                got.append(subset[a])
            for quotient, qs in got:
                assert qs.projection == want_qs.projection
                assert qs.section == want_qs.section
                assert qs.induced == want_qs.induced
                assert quotient.gen_action == want.gen_action
                assert (quotient.n, quotient.dim) == (want.n, want.dim)

    def test_rank_outside_range(self):
        V = specht_module((2, 1))
        for ranks in ([4], [0, -1]):
            with pytest.raises(ValueError, match="retained rank"):
                coinvariant_quotients(V, ranks)

    def test_no_tail_is_identity_quotient(self):
        V = specht_module((2, 1))
        quotient, qs = coinvariant_quotient(V, 3)
        assert quotient.dim == V.dim
        assert quotient.n == 3
        assert qs.projection.rows == V.dim

    def test_single_tail_generator(self):
        # image of (T_{s_2} - q) is the (-1)-eigenspace, which is a line
        V = specht_module((2, 1))
        quotient, _ = coinvariant_quotient(V, 1)
        assert quotient.n == 1
        assert quotient.dim == 1

    def test_sign_has_no_index_part(self):
        V = specht_module((1, 1, 1))
        quotient, _ = coinvariant_quotient(V, 0)
        assert quotient.dim == 0

    def test_counts_index_isotypic_part(self):
        # regular H_3 restricted to the tail <s_2> is 3 copies of regular
        # H_2, so the q-eigenspace of the tail has dimension 3
        V = regular_representation(3)
        quotient, _ = coinvariant_quotient(V, 1)
        assert quotient.dim == 3

    def test_projection_intertwines_front(self):
        # rank 4 with a = 2 exercises front and tail generators at once
        V = regular_representation(4)
        quotient, qs = coinvariant_quotient(V, 2)
        proj = qs.projection
        assert quotient.dim == 12
        assert proj @ V.generator(1) == quotient.generator(1) @ proj


class TestBranching:
    def test_one_box(self):
        report = branching_check((2, 1), 1)
        assert report["match"]
        assert report["computed"] == {(2,): 1, (1, 1): 1}

    def test_single_row_strips(self):
        report = branching_check((3,), 2)
        assert report["match"]
        assert report["computed"] == {(1,): 1}

    def test_square_drops_only_one_shape(self):
        # (2,2)/(1,1) is a vertical domino, not a horizontal strip
        report = branching_check((2, 2), 2)
        assert report["match"]
        assert report["computed"] == {(2,): 1}

    @pytest.mark.parametrize(
        "lam", [lam for n in range(7) for lam in partitions_of(n)], ids=str
    )
    def test_every_strip_matches_pieri(self, lam):
        for m in range(sum(lam) + 1):
            report = branching_check(lam, m)
            assert report["computed"] == report["expected"], (lam, m)

    def test_strip_size_outside_range(self):
        with pytest.raises(ValueError, match="strip size"):
            branching_check((2, 1), 4)

    def test_vanishing_below_weight(self):
        # removing more than a full horizontal strip can ever supply
        for lam, n, a in [((1, 1), 4, 1), ((2, 1), 5, 2), ((1,), 3, 0)]:
            V = specht_module(pad(lam, n))
            quotient, _ = coinvariant_quotient(V, a)
            assert quotient.dim == 0

    def test_quotient_at_weight_is_the_shape(self):
        for lam, n in [((1, 1), 4), ((2,), 5)]:
            V = specht_module(pad(lam, n))
            quotient, _ = coinvariant_quotient(V, sum(lam))
            assert decompose(quotient) == {lam: 1}
