"""T-basis arithmetic, module presentations, induction from Young pairs."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import hecke_reference as ref
from hecke_reference import matrix_trace
from helpers import from_word, sign_rep
from heckestab import hecke, sequences
from heckestab.hecke import (
    HeckeElement,
    ModulePresentation,
    index_rep,
    induce_pair,
    mult,
    regular_representation,
    tau,
)
from heckestab.linalg import ExactMatrix
from heckestab.partitions import partitions_of
from heckestab.qfield import ONE, Q, ZERO, scal
from heckestab.specht import specht_module
from heckestab.symgroup import Permutation, permutations_of


def T(n, *word):
    return HeckeElement.basis(n, from_word(n, word))


def basis_elements(n):
    return [HeckeElement.basis(n, w) for w in permutations_of(n)]


coefficient_values = st.sampled_from(
    [ONE, -ONE, Q, Q / (Q + 1), (Q - 1) / (Q * Q + 1), scal(Fraction(1, 3))]
)


@st.composite
def element_pairs(draw):
    """(x, y) in H_3.  Some coefficients of y are x's and some their
    negatives, so that coefficients cancel in x - y and in x + y."""
    words = st.lists(st.sampled_from(list(permutations_of(3))), max_size=4, unique=True)
    x = HeckeElement(3, {w: draw(coefficient_values) for w in draw(words)})
    y = {w: draw(coefficient_values) for w in draw(words)}
    for w, c in x.coeffs.items():
        sign = draw(st.sampled_from([0, 1, -1]))
        if sign:
            y[w] = c if sign == 1 else -c
    return x, HeckeElement(3, y)


def coefficient_forms(coeffs: dict) -> list:
    return [(w, c.num, c.den) for w, c in coeffs.items()]


def coefficientwise(x, y, c) -> dict:
    """x + c*y computed coefficient by coefficient, zeros dropped."""
    keys = list(x.coeffs) + [w for w in y.coeffs if w not in x.coeffs]
    sums = {w: x.coeffs.get(w, ZERO) + c * y.coeffs.get(w, ZERO) for w in keys}
    return {w: s for w, s in sums.items() if s}


class TestAlgebra:
    def test_quadratic_relation(self):
        t = T(3, 1)
        assert t * t == t.scale(Q - 1) + HeckeElement.one(3).scale(Q)

    def test_braid_relation(self):
        assert T(3, 1) * T(3, 2) * T(3, 1) == T(3, 2) * T(3, 1) * T(3, 2)

    def test_length_additive_products(self):
        # T_u T_v = T_{uv} whenever lengths add
        u = from_word(4, (1, 2))
        v = from_word(4, (3, 2))
        uv = u * v
        assert uv.length == u.length + v.length
        prod = HeckeElement.basis(4, u) * HeckeElement.basis(4, v)
        assert prod == HeckeElement.basis(4, uv)

    def test_identity_is_neutral(self):
        e = HeckeElement.one(4)
        for x in basis_elements(4):
            assert e * x == x
            assert x * e == x

    @pytest.mark.parametrize("n", [2, 3])
    def test_associativity_exhaustive(self, n):
        elems = basis_elements(n)
        for x in elems:
            for y in elems:
                for z in elems:
                    assert (x * y) * z == x * (y * z)

    def test_associativity_sampled(self):
        rng = random.Random(7)
        elems = basis_elements(4)
        for _ in range(60):
            x, y, z = rng.sample(elems, 3)
            assert (x * y) * z == x * (y * z)

    def test_group_algebra_at_one(self):
        # specializing every structure constant at q = 1 gives S_n
        rng = random.Random(11)
        for _ in range(20):
            u = Permutation(tuple(rng.sample(range(1, 5), 4)))
            v = Permutation(tuple(rng.sample(range(1, 5), 4)))
            prod = HeckeElement.basis(4, u) * HeckeElement.basis(4, v)
            special = {
                w: c.specialize(1) for w, c in prod.coeffs.items()
                if c.specialize(1)
            }
            assert special == {u * v: 1}

    def test_rank_mismatch(self):
        with pytest.raises(ValueError, match="rank mismatch"):
            mult(HeckeElement.one(3), HeckeElement.one(4))

    def test_scaling_and_zero(self):
        x = T(3, 1, 2)
        assert x.scale(0) == HeckeElement(3)
        assert x - x == HeckeElement(3)
        assert x.scale(ZERO) == HeckeElement(3)


class TestLinearAgainstCoefficients:
    """+, -, negation and scale against coefficient-wise arithmetic: the
    same basis elements in the same order and the same (num, den)."""

    @given(element_pairs(), st.one_of(coefficient_values, st.integers(-2, 2)))
    @settings(max_examples=80)
    def test_sum_difference_negation_and_scale(self, pair, c):
        x, y = pair
        zero = HeckeElement(3)
        for mine, theirs in [
            (x + y, coefficientwise(x, y, ONE)),
            (x - y, coefficientwise(x, y, -ONE)),
            (-y, coefficientwise(zero, y, -ONE)),
            (y.scale(c), coefficientwise(zero, y, scal(c))),
        ]:
            assert coefficient_forms(mine.coeffs) == coefficient_forms(theirs)

    def test_scale_refuses_inexact_factors(self):
        for x in (HeckeElement(3), T(3, 1)):
            with pytest.raises(TypeError):
                x.scale(0.5)


class TestTau:
    def test_fixes_coefficients(self):
        x = T(3, 1) + T(3, 2, 1).scale(Q)
        y = tau(x)
        assert y.n == 4
        assert sorted(c.to_wire() for c in x.coeffs.values()) == sorted(
            c.to_wire() for c in y.coeffs.values()
        )

    def test_algebra_map(self):
        rng = random.Random(3)
        elems = basis_elements(3)
        for _ in range(25):
            x, y = rng.sample(elems, 2)
            assert tau(x * y) == tau(x) * tau(y)


class TestRegular:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_constructs_and_has_factorial_dim(self, n):
        import math

        V = regular_representation(n)
        assert V.dim == math.factorial(n)

    def test_size_bound(self):
        with pytest.raises(ValueError, match="size bound"):
            regular_representation(7)

    def test_matches_algebra_multiplication(self):
        n = 4
        V = regular_representation(n)
        basis = list(permutations_of(n))
        index = {w.one_line: t for t, w in enumerate(basis)}
        rng = random.Random(5)
        for _ in range(10):
            w = basis[rng.randrange(len(basis))]
            i = rng.randrange(1, n)
            prod = mult(T(n, i), HeckeElement.basis(n, w))
            col = V.generator(i).columns()[index[w.one_line]]
            assert col == {index[u.one_line]: c for u, c in prod.coeffs.items()}

    def test_trace_of_generator(self):
        # exactly the n!/2 elements with a left descent at 1 contribute q-1
        V = regular_representation(3)
        assert matrix_trace(V.generator(1)) == (Q - 1) * 3

    def test_eigenvalue_split_rank_two(self):
        V = regular_representation(2)
        g = V.generator(1)
        assert g.to_lists() == [[ZERO, Q], [ONE, Q - 1]]


class TestOneDimensional:
    def test_index_and_sign(self):
        assert index_rep(4).generator(2).to_lists() == [[Q]]
        assert sign_rep(4).generator(3).to_lists() == [[scal(-1)]]


class TestPresentation:
    def test_relation_failure_detected(self):
        bad = ExactMatrix(1, 1, {(0, 0): Q + 1})
        with pytest.raises(ValueError, match="relation failure: quadratic"):
            ModulePresentation(2, 1, [bad])

    def test_braid_failure_detected(self):
        # both diagonal q and -1 satisfy the quadratic; mixing them on one
        # basis vector violates the braid relation
        g1 = ExactMatrix(1, 1, {(0, 0): Q})
        g2 = ExactMatrix(1, 1, {(0, 0): scal(-1)})
        with pytest.raises(ValueError, match="relation failure: braid"):
            ModulePresentation(3, 1, [g1, g2])

    def test_generator_count(self):
        with pytest.raises(ValueError, match="generators"):
            ModulePresentation(3, 1, [ExactMatrix.identity(1)])

    @pytest.mark.parametrize(
        "build", [lambda n: ModulePresentation(n, 1, []), regular_representation, index_rep]
    )
    @pytest.mark.parametrize("n", [-1, -3])
    def test_negative_rank_refused(self, build, n):
        # permutations_of(-1) yields one empty permutation, so without the
        # refusal H_-1 would get a module of dim 1
        with pytest.raises(ValueError, match=f"^rank n = {n} is negative$"):
            build(n)

    @pytest.mark.parametrize("dim", [-1, -2])
    def test_negative_dim_refused(self, dim):
        # with no generator to contradict it, a negative dim would construct
        with pytest.raises(ValueError, match=f"^dim = {dim} is negative$"):
            ModulePresentation(0, dim, [])

    @pytest.mark.parametrize("n", [-2, -5])
    def test_negative_regular_rank_keeps_no_steps(self, n):
        # refused before the S_n step memo is asked for: no empty entry is
        # kept for the rank, and the memo is not even read
        before = hecke._kept_steps.cache_info()
        with pytest.raises(ValueError, match=f"^rank n = {n} is negative$"):
            regular_representation(n)
        after = hecke._kept_steps.cache_info()
        assert after.currsize == before.currsize
        assert after.hits + after.misses == before.hits + before.misses

    def test_word_matrix_respects_braid(self):
        V = regular_representation(3)
        assert V.word_matrix((1, 2, 1)) == V.word_matrix((2, 1, 2))


class TestInduce:
    def test_unit_times_unit_is_regular(self):
        got = induce_pair(index_rep(1), index_rep(1))
        expect = regular_representation(2)
        assert got.dim == expect.dim
        assert got.gen_action == expect.gen_action

    def test_dimension_formula(self):
        from math import comb

        V = regular_representation(2)
        W = index_rep(2)
        ind = induce_pair(V, W)
        assert ind.dim == comb(4, 2) * V.dim * W.dim

    def test_relations_verified_at_construction(self):
        # induce_pair builds unchecked, as its factors' relations carry over;
        # the check raises if the case analysis were wrong
        for V, W in (
            (regular_representation(2), sign_rep(2)),
            (sign_rep(3), index_rep(1)),
            (index_rep(0), regular_representation(2)),
        ):
            induce_pair(V, W)._check_relations()

    def test_degenerate_factors(self):
        V = regular_representation(2)
        left = induce_pair(V, index_rep(0))
        assert left.gen_action == V.gen_action
        right = induce_pair(index_rep(0), V)
        assert right.gen_action == V.gen_action


def plain_modules(n):
    """An index, sign, regular (n <= 3) or Specht (1 <= n <= 4) module of
    rank n."""
    kinds = [st.just(index_rep(n)), st.just(sign_rep(n))]
    if n <= 3:
        kinds.append(st.just(regular_representation(n)))
    if 1 <= n <= 4:
        kinds.append(st.sampled_from(partitions_of(n)).map(specht_module))
    return st.one_of(kinds)


@st.composite
def factor_modules(draw, max_rank):
    """A plain module (see plain_modules), an induced module or the direct
    sum of two plain modules, of rank at most max_rank, rank 0 included.
    A sum or an induced factor has rank at most 4.  An induced one is
    induced, on either side, from a plain module of dimension at most 2
    and an index or sign module, so its dimension is at most 12."""
    kind = draw(st.sampled_from(["plain", "induced", "sum"]))
    if kind == "plain":
        return draw(plain_modules(draw(st.integers(0, max_rank))))
    n = draw(st.integers(0, min(4, max_rank)))
    if kind == "sum":
        parts = draw(st.lists(plain_modules(n), min_size=2, max_size=2))
        return sequences._presentation_direct_sum(n, parts)
    m = draw(st.integers(max(0, n - 3), min(3, n)))
    V = draw(plain_modules(m).filter(lambda P: P.dim <= 2))
    W = draw(st.sampled_from((index_rep, sign_rep)))(n - m)
    return induce_pair(*draw(st.permutations((V, W))))


class TestInduceAgainstReference:
    """induce_pair reads each coset case off the positions of s and s+1;
    hecke_reference.induce_pair forms s d and d^-1 s d as Permutations."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_generators_equal_entry_for_entry(self, data):
        V = data.draw(factor_modules(7))
        W = data.draw(factor_modules(7 - V.n))
        got = induce_pair(V, W)
        want = ref.induce_pair(V, W)
        assert (got.n, got.dim) == (want.n, want.dim)
        assert [g.entries for g in got.gen_action] == [
            g.entries for g in want.gen_action
        ]

    @pytest.mark.parametrize("m, k", [(0, 3), (3, 0), (0, 0)])
    def test_empty_blocks(self, m, k):
        V, W = regular_representation(m), sign_rep(k)
        got = induce_pair(V, W).gen_action
        assert [g.entries for g in got] == [
            g.entries for g in ref.induce_pair(V, W).gen_action
        ]


class TestInducedRelations:
    """induce_pair builds unchecked, as Ind(V boxtimes W) inherits its
    relations from V and W (the proof is in its docstring).  The packed
    check and the ExactMatrix reference must both accept every induced
    module.  It fails under each of three mutants of the case table: V's
    generator read at the wrong slot, the (q - 1) diagonal dropped, and a
    move to the wrong block.  A fourth, q and 1 swapped in a move, gives
    the same module in the basis q^l(d) T_d (x) v_i (x) w_j, so only the
    entry-for-entry comparison with the reference catches it."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_induced_modules_satisfy_the_relations(self, data):
        V = data.draw(factor_modules(7))
        W = data.draw(factor_modules(7 - V.n))
        ind = induce_pair(V, W)
        ind._check_relations()
        ref.check_relations(ind)
