from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import linalg_reference as ref
from hecke_reference import matrix_trace
from heckestab import sequences
from heckestab.linalg import (
    EchelonBasis,
    ExactMatrix,
    kernel_basis,
    quotient_structure,
    rank,
    solve_unique,
    vec_add_scaled,
)
from heckestab.qfield import ONE, Q, ZERO, scal


def M(rows):
    return ExactMatrix.from_rows(rows)


small_entries = st.integers(min_value=-4, max_value=4)

# Q(q) entries, zero-heavy so that rank deficiency and kernels are common
qq_entries = st.sampled_from(
    [ZERO, ZERO, ZERO, ONE, -ONE, scal(2), Q, Q / (Q + 1), Q * Q - 1,
     scal(Fraction(1, 2)) * Q]
)


@st.composite
def int_matrices(draw, max_dim=5):
    r = draw(st.integers(min_value=0, max_value=max_dim))
    c = draw(st.integers(min_value=0, max_value=max_dim))
    data = draw(
        st.lists(
            st.lists(small_entries, min_size=c, max_size=c), min_size=r, max_size=r
        )
    )
    return ExactMatrix.from_rows(data) if r else ExactMatrix(0, c, {})


@st.composite
def qq_matrices(draw, rows=None, cols=None):
    """Matrices over Q(q) with at most 4 rows and columns unless sizes are given."""
    r = draw(st.integers(min_value=0, max_value=4)) if rows is None else rows
    c = draw(st.integers(min_value=0, max_value=4)) if cols is None else cols
    data = draw(
        st.lists(st.lists(qq_entries, min_size=c, max_size=c), min_size=r, max_size=r)
    )
    return ExactMatrix.from_rows(data) if r else ExactMatrix(0, c, {})


def outcome(fn, *args):
    """fn's result, or the text of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


class TestMatrixBasics:
    def test_identity_multiplication(self):
        a = M([[Q, 1], [0, Q - 1]])
        assert ExactMatrix.identity(2) @ a == a
        assert a @ ExactMatrix.identity(2) == a

    def test_matmul_known_product(self):
        a = M([[1, 2], [3, 4]])
        b = M([[0, 1], [1, 0]])
        assert a @ b == M([[2, 1], [4, 3]])

    def test_apply_is_column_action(self):
        a = M([[Q, 1], [0, 2]])
        image = a.apply({0: ONE, 1: ONE})
        assert image == {0: Q + 1, 1: scal(2)}

    def test_apply_keeps_its_index_private(self):
        # the column index is built once and kept; neither a caller editing
        # an image nor a matrix derived from this one may see it
        a = M([[Q, 1], [0, 2]])
        image = a.apply({0: ONE, 1: ONE})
        image[0] = ZERO
        assert a.apply({0: ONE, 1: ONE}) == {0: Q + 1, 1: scal(2)}
        for derived in (a + a, a.scale(2), a @ a, -a):
            assert derived.apply({1: ONE}) == derived.columns()[1]

    def test_entries_outside_shape_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            ExactMatrix(2, 2, {(2, 0): ONE})

    def test_trace(self):
        assert matrix_trace(M([[Q, 5], [7, 1 - Q]])) == ONE

    def test_json_round_trip(self):
        a = M([[Q / (Q + 1), 0], [-1, Q**3]])
        b = sequences._matrix_from_json(sequences._matrix_to_json(a), "a")
        assert b == a

    @given(int_matrices(), int_matrices())
    @settings(max_examples=30)
    def test_product_columns_are_images(self, a, b):
        if a.cols != b.rows:
            return
        product = (a @ b).columns()
        assert product == [a.apply(col) for col in b.columns()]


class TestEchelonBasis:
    def test_dependent_vector_not_inserted(self):
        basis = EchelonBasis()
        assert basis.insert({0: ONE, 1: Q}) == 0
        assert basis.insert({0: Q, 1: Q * Q}) is None
        assert len(basis) == 1

    def test_contains_and_coordinates(self):
        basis = EchelonBasis()
        basis.insert({0: ONE, 1: ONE})
        basis.insert({1: Q, 2: ONE})
        # the second pivot is cleared from the first vector
        assert basis.vectors == [{0: ONE, 2: -ONE / Q}, {1: ONE, 2: ONE / Q}]
        v = {0: Q, 1: ONE, 2: ONE / Q - 1}
        assert basis.reduce(v) == {}
        # coordinates are the entries at the pivots
        assert [v[p] for p in basis.pivots] == [Q, ONE]
        assert basis.reduce({2: ONE}) == {2: ONE}

    def test_stored_pivot_is_an_error(self):
        # a stored vector corrupted at its own pivot leaves a residue with
        # that pivot; insert must say so, not store a second vector there
        basis = EchelonBasis()
        basis.insert({0: ONE, 1: Q})
        basis.vectors[0][0] = scal(2)
        with pytest.raises(ValueError, match="pivot 0 is already stored"):
            basis.insert({0: ONE})
        assert len(basis) == 1

    @given(st.lists(st.lists(small_entries, min_size=4, max_size=4), max_size=6))
    @settings(max_examples=50)
    def test_rank_matches_fraction_elimination(self, rows):
        mat = ExactMatrix.from_rows(rows) if rows else ExactMatrix(0, 4, {})
        # independent oracle: plain row reduction over Fraction
        work = [[Fraction(x) for x in row] for row in rows]
        r = 0
        for col in range(4):
            piv = next((i for i in range(r, len(work)) if work[i][col]), None)
            if piv is None:
                continue
            work[r], work[piv] = work[piv], work[r]
            for i in range(len(work)):
                if i != r and work[i][col]:
                    f = work[i][col] / work[r][col]
                    work[i] = [a - f * b for a, b in zip(work[i], work[r])]
            r += 1
        assert rank(mat) == r


class TestKeptRank:
    """rank keeps its result on the matrix; no new matrix inherits one."""

    def test_second_rank_inserts_nothing(self, monkeypatch):
        inserts = []
        insert = EchelonBasis.insert
        monkeypatch.setattr(
            EchelonBasis, "insert", lambda self, v: inserts.append(v) or insert(self, v)
        )
        a = M([[1, Q], [Q, Q * Q], [0, 1]])
        assert rank(a) == 2
        assert len(inserts) == 2
        assert rank(a) == 2
        assert len(inserts) == 2

    def test_every_new_matrix_starts_unranked(self):
        a = M([[Q, 1], [0, 2]])
        b = M([[1, 1], [1, 1]])
        assert (rank(a), rank(b)) == (2, 1)
        fresh = [
            ExactMatrix(2, 2, {(0, 0): ONE}),
            ExactMatrix._new(2, 2, {(0, 1): Q}),
            ExactMatrix.identity(2),
            M([[1, 0], [0, 0]]),
            a + b,
            a - b,
            -a,
            a.scale(Q),
            a @ b,
            b @ a,
        ]
        assert all(f._rank is None for f in fresh)
        assert [rank(f) for f in fresh] == [1, 1, 2, 1, 2, 2, 2, 2, 1, 1]


@st.composite
def qq_vector_lists(draw, dim=6, max_size=6):
    """Lists of sparse vectors over Q(q) with coordinates below ``dim``."""
    vector = st.dictionaries(st.integers(0, dim - 1), qq_entries, max_size=dim)
    return draw(st.lists(vector, max_size=max_size))


def reduced_and_reference(vectors):
    """The package's basis and the reference's, each fed ``vectors``."""
    basis, reference = EchelonBasis(), ref.EchelonBasis()
    for v in vectors:
        assert basis.insert(v) == reference.insert(v)
    return basis, reference


class TestReducedBasis:
    """The reduced basis against the unreduced one of linalg_reference."""

    @given(qq_vector_lists())
    @settings(max_examples=40)
    def test_stored_vectors_are_reduced(self, vectors):
        basis, _ = reduced_and_reference(vectors)
        assert sorted(basis.pivots.values()) == list(range(len(basis)))
        for p, t in basis.pivots.items():
            v = basis.vectors[t]
            assert min(v) == p and v[p] == ONE
            assert all(v.get(other) is None for other in basis.pivots if other != p)

    @given(qq_vector_lists())
    @settings(max_examples=40)
    def test_pivots_match_reference(self, vectors):
        basis, reference = reduced_and_reference(vectors)
        assert basis.pivots == reference.pivots

    @given(qq_vector_lists(), qq_vector_lists(max_size=4))
    @settings(max_examples=40)
    def test_residues_match_reference(self, vectors, probes):
        basis, reference = reduced_and_reference(vectors)
        for probe in probes:
            assert basis.reduce(probe) == reference.reduce(probe)

    @given(qq_vector_lists(), qq_vector_lists(max_size=4))
    @example([{0: ONE, 1: Q}, {1: ONE}], [{1: Q}])
    @settings(max_examples=40)
    def test_arguments_are_left_unchanged(self, vectors, probes):
        # _closure queues the vectors it inserts, so neither call may
        # change its argument, and insert may not store it: a stored
        # vector is cleared of later pivots in place
        basis = EchelonBasis()
        copies = [dict(v) for v in vectors + probes]
        for v in vectors:
            basis.insert(v)
            assert all(u is not v for u in basis.vectors)
        for probe in probes:
            basis.reduce(probe)
        assert vectors + probes == copies

    @given(qq_vector_lists(), st.data())
    @settings(max_examples=40)
    def test_coordinates_at_pivots(self, vectors, data):
        basis, _ = reduced_and_reference(vectors)
        coeffs = [data.draw(qq_entries) for _ in vectors]
        v = {}
        for c, u in zip(coeffs, vectors):
            vec_add_scaled(v, u, c)
        assert basis.reduce(v) == {}
        rebuilt = {}
        for p, t in basis.pivots.items():
            vec_add_scaled(rebuilt, basis.vectors[t], v.get(p, ZERO))
        assert rebuilt == v


class TestKernel:
    def test_known_kernel(self):
        a = M([[1, Q, 0], [0, 0, 1]])
        ker = kernel_basis(a)
        assert len(ker) == 1
        (v,) = ker
        assert a.apply(v) == {}
        assert v.get(1)  # the dependent column carries coefficient 1

    @given(int_matrices())
    @settings(max_examples=50)
    def test_kernel_vectors_annihilate_and_count(self, a):
        ker = kernel_basis(a)
        assert len(ker) == a.cols - rank(a)
        for v in ker:
            assert a.apply(v) == {}
        # kernel vectors are independent: each has a fresh supporting column
        basis = EchelonBasis()
        for v in ker:
            assert basis.insert(v) is not None


class TestSolve:
    def test_solve_square(self):
        a = M([[Q, 1], [1, 1]])
        x = solve_unique(a, {0: Q + Q, 1: scal(3)})
        # verify by substitution
        assert a.apply({0: x[0], 1: x[1]}) == {0: Q + Q, 1: scal(3)}

    def test_inconsistent_detected(self):
        a = M([[1], [1]])
        with pytest.raises(ValueError, match="inconsistent"):
            solve_unique(a, {0: ONE, 1: ZERO + scal(2)})

    def test_rank_deficient_detected(self):
        a = M([[1, 2], [2, 4]])
        with pytest.raises(ValueError, match="full column rank"):
            solve_unique(a, {0: ONE})


class TestQuotient:
    def test_projection_section_identity(self):
        qs = quotient_structure(3, [{0: ONE, 2: Q}])
        assert qs.quotient_dim == 2
        assert qs.projection @ qs.section == ExactMatrix.identity(2)

    def test_projection_kills_subspace(self):
        sub = [{0: ONE, 1: Q}, {1: ONE, 2: ONE}]
        qs = quotient_structure(3, sub)
        for v in sub:
            assert qs.projection.apply(v) == {}

    def test_induced_map_commutes(self):
        # the scaling map fixes every subspace; its induced map scales too
        m = ExactMatrix.identity(3).scale(Q)
        qs = quotient_structure(3, [{0: ONE, 1: ONE}], maps=[m])
        (ind,) = qs.induced
        assert ind == ExactMatrix.identity(2).scale(Q)
        assert qs.projection @ m == ind @ qs.projection

    def test_non_invariant_map_rejected(self):
        # shift map e0 -> e1 -> e2 -> 0 does not preserve span(e0)
        m = ExactMatrix(3, 3, {(1, 0): ONE, (2, 1): ONE})
        with pytest.raises(ValueError, match="not invariant"):
            quotient_structure(3, [{0: ONE}], maps=[m])

    def test_invariant_block_triangular(self):
        # upper triangular preserves span(e0); induced map is the lower block
        m = M([[Q, 1, 2], [0, 3, Q], [0, 0, Q + 1]])
        qs = quotient_structure(3, [{0: ONE}], maps=[m])
        (ind,) = qs.induced
        assert ind == M([[3, Q], [0, Q + 1]])

    @given(int_matrices(max_dim=4))
    @settings(max_examples=30)
    def test_quotient_by_image_has_corank_dimension(self, a):
        qs = quotient_structure(a.rows, a.columns())
        assert qs.quotient_dim == a.rows - rank(a)


class TestAgainstReference:
    """Solve, kernel and quotient against their own eliminations (linalg_reference)."""

    @given(qq_matrices(), st.booleans(), st.data())
    @settings(max_examples=80)
    def test_solve(self, a, consistent, data):
        draw_vector = lambda n: {i: data.draw(qq_entries) for i in range(n)}
        rhs = a.apply(draw_vector(a.cols)) if consistent else draw_vector(a.rows)
        assert outcome(solve_unique, a, rhs) == outcome(ref.solve_unique, a, rhs)

    @given(qq_matrices())
    @settings(max_examples=80)
    def test_kernel(self, a):
        assert kernel_basis(a) == ref.kernel_basis(a)

    @given(
        st.integers(min_value=0, max_value=4),
        st.sampled_from(["image", "kernel", "drawn", "line"]),
        st.lists(
            st.sampled_from(["m", "m^2", "drawn", "scalar"]), min_size=1, max_size=3
        ),
        st.data(),
    )
    @settings(max_examples=80)
    def test_quotient(self, dim, subspace, map_names, data):
        # im m and ker m are m-invariant; a drawn map or subspace rarely is
        drawn = lambda: data.draw(qq_matrices(dim, dim))
        m = drawn()
        vectors = {
            "image": lambda: m.columns(),
            "kernel": lambda: ref.kernel_basis(m),
            "drawn": lambda: drawn().columns(),
            "line": lambda: drawn().columns()[:1],
        }[subspace]()
        maps = [
            {
                "m": lambda: m,
                "m^2": lambda: m @ m,
                "drawn": drawn,
                "scalar": lambda: ExactMatrix.identity(dim).scale(Q / (Q + 1)),
            }[name]()
            for name in map_names
        ]

        def new():
            qs = quotient_structure(dim, vectors, maps)
            return qs.projection, qs.section, qs.induced

        assert outcome(new) == outcome(ref.quotient_structure, dim, vectors, maps)


# Entries for the kernel differential tests: 1, small Z[q] polynomials and
# quotients whose denominator is not 1, each with its negative, so that
# products with 1 and contributions that cancel are both common.
_KERNEL_VALUES = [
    ONE, Q, Q + 1, Q * Q - 1, scal(2), Q / (Q + 1), ONE / (2 * Q),
    (Q - 1) / (Q * Q + 1), scal(Fraction(1, 3)),
]
kernel_entries = st.sampled_from(_KERNEL_VALUES + [-x for x in _KERNEL_VALUES])
sparse_entries = st.one_of(st.just(ZERO), kernel_entries)


def forms(entries: dict) -> list:
    """(key, num, den) of every entry, in the dict's order."""
    return [(k, v.num, v.den) for k, v in entries.items()]


def matrix_forms(m: ExactMatrix) -> tuple:
    return m.rows, m.cols, forms(m.entries)


def sparse_vectors(dim=6):
    return st.dictionaries(st.integers(0, dim - 1), kernel_entries, max_size=dim)


@st.composite
def sparse_matrices(draw, rows, cols):
    data = draw(
        st.lists(st.lists(sparse_entries, min_size=cols, max_size=cols),
                 min_size=rows, max_size=rows)
    )
    return ExactMatrix.from_rows(data) if rows else ExactMatrix(0, cols, {})


@st.composite
def matmul_pairs(draw):
    """(a, b) with a.cols == b.rows.  With ``cancel`` the last inner index
    repeats the first with b's row negated, so every product through the
    first index cancels against one through the last."""
    r, k, c = (draw(st.integers(0, 4)) for _ in range(3))
    a, b = draw(sparse_matrices(r, k + 1)), draw(sparse_matrices(k + 1, c))
    if k and draw(st.booleans()):
        a_entries = {key: v for key, v in a.entries.items() if key[1] != k}
        a_entries.update({(i, k): v for (i, j), v in a.entries.items() if j == 0})
        b_entries = {key: v for key, v in b.entries.items() if key[0] != k}
        b_entries.update({(k, j): -v for (i, j), v in b.entries.items() if i == 0})
        a = ExactMatrix(r, k + 1, a_entries)
        b = ExactMatrix(k + 1, c, b_entries)
    return a, b


@st.composite
def sum_pairs(draw):
    """(a, b) of one shape.  Some entries of b are a's and some their
    negatives, so that entries cancel in a - b and in a + b."""
    r, c = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    a, b = draw(sparse_matrices(r, c)), draw(sparse_matrices(r, c))
    entries = dict(b.entries)
    for key, v in a.entries.items():
        sign = draw(st.sampled_from([0, 1, -1]))
        if sign:
            entries[key] = v if sign == 1 else -v
    return a, ExactMatrix(r, c, entries)


class TestKernelsAgainstFullArithmetic:
    """The kernels' shortcuts against linalg_reference's full arithmetic:
    the same keys in the same order and the same (num, den) everywhere."""

    @given(matmul_pairs())
    @settings(max_examples=80)
    def test_matmul(self, pair):
        a, b = pair
        assert forms((a @ b).entries) == forms(ref.matmul(a, b).entries)

    @given(matmul_pairs(), st.data())
    @settings(max_examples=80)
    def test_apply(self, pair, data):
        # a column of b as the vector: the cancelling pairs carry over
        a, b = pair
        vectors = b.columns() or [{}]
        vec = vectors[data.draw(st.integers(0, len(vectors) - 1))]
        vec[data.draw(st.integers(0, a.cols - 1))] = data.draw(sparse_entries)
        assert forms(a.apply(vec)) == forms(ref.apply(a, vec))

    @given(sum_pairs(), st.one_of(sparse_entries, st.integers(-2, 2)))
    @settings(max_examples=80)
    def test_sum_difference_negation_and_scale(self, pair, c):
        a, b = pair
        assert matrix_forms(a + b) == matrix_forms(ref.add(a, b))
        assert matrix_forms(a - b) == matrix_forms(ref.sub(a, b))
        assert matrix_forms(-b) == matrix_forms(ref.neg(b))
        assert matrix_forms(b.scale(c)) == matrix_forms(ref.scale(b, c))

    def test_sums_and_scales_store_operand_entries(self):
        # no scalar equal to an operand's entry is built: identity(n).scale(x)
        # stores x itself, and a + b stores b's entry where a has none
        x = Q / (Q + 1)
        assert all(v is x for v in ExactMatrix.identity(3).scale(x).entries.values())
        a = ExactMatrix(2, 2, {(0, 0): Q})
        b = ExactMatrix(2, 2, {(0, 0): ONE, (1, 1): x})
        assert (a + b).entries[(1, 1)] is x

    def test_scale_refuses_inexact_factors(self):
        # even with no entry to scale, the factor is coerced and checked
        for m in (ExactMatrix(2, 2, {}), ExactMatrix.identity(2)):
            with pytest.raises(TypeError):
                m.scale(0.5)

    @given(sparse_vectors(), sparse_vectors(), sparse_entries, st.data())
    @settings(max_examples=80)
    def test_vec_add_scaled(self, u, v, c, data):
        # entries of u that c*v cancels, on some of v's keys
        for i in data.draw(st.lists(st.sampled_from(sorted(v) or [0]), max_size=3)):
            if i in v and c:
                u[i] = -(c * v[i])
        mine, theirs = dict(u), dict(u)
        vec_add_scaled(mine, v, c)
        ref.vec_add_scaled(theirs, v, c)
        assert forms(mine) == forms(theirs)

    @given(st.lists(sparse_vectors(), max_size=7), st.lists(sparse_vectors(), max_size=4))
    @settings(max_examples=80)
    def test_echelon_basis(self, vectors, probes):
        basis, reference = EchelonBasis(), ref.ReducedEchelonBasis()
        for v in vectors:
            assert basis.insert(v) == reference.insert(v)
        assert list(basis.pivots.items()) == list(reference.pivots.items())
        assert [forms(v) for v in basis.vectors] == [forms(v) for v in reference.vectors]
        for probe in probes + vectors:
            assert forms(basis.reduce(probe)) == forms(reference.reduce(probe))

    @given(st.integers(0, 4), st.data())
    @settings(max_examples=60)
    def test_quotient(self, dim, data):
        # the image of m is invariant under m and under any scalar map
        m = data.draw(sparse_matrices(dim, dim))
        maps = [m, ExactMatrix.identity(dim).scale(data.draw(kernel_entries))]
        basis, reference = EchelonBasis(), ref.ReducedEchelonBasis()
        for col in m.columns():
            basis.insert(col)
            reference.insert(col)
        qs = basis.quotient(dim, maps)
        projection, section, induced = reference.quotient(dim, maps)
        assert forms(qs.projection.entries) == forms(projection.entries)
        assert forms(qs.section.entries) == forms(section.entries)
        assert [forms(x.entries) for x in qs.induced] == [forms(x.entries) for x in induced]

    @given(st.integers(1, 4), st.integers(1, 4), st.booleans(), st.data())
    @settings(max_examples=80)
    def test_induced_map_between_quotients(self, d1, d2, carried, data):
        # f: k^d1 -> k^d2; the target subspace holds f(U) when ``carried``,
        # and otherwise is a proper subspace that f(U) often leaves
        f = data.draw(sparse_matrices(d2, d1))
        sources = data.draw(st.lists(sparse_vectors(d1), min_size=1, max_size=3))
        targets = data.draw(st.lists(sparse_vectors(d2), max_size=d2 - 1))
        if carried:
            targets += [ref.apply(f, v) for v in sources]
        source, target = EchelonBasis(), EchelonBasis()
        reference = ref.ReducedEchelonBasis()
        for v in sources:
            source.insert(v)
        for v in targets:
            target.insert(v)
            reference.insert(v)
        S, P = source.quotient(d1), target.quotient(d2)
        if any(reference.reduce(ref.apply(f, v)) for v in sources):
            with pytest.raises(ValueError, match="not invariant"):
                P.induced_map(f, S)
        else:
            expected = ref.matmul(ref.matmul(P.projection, f), S.section)
            assert matrix_forms(P.induced_map(f, S)) == matrix_forms(expected)

    @given(matmul_pairs())
    @settings(max_examples=60)
    def test_rank_and_kernel(self, pair):
        for a in pair:
            assert rank(a) == ref.rank(a)
            assert [sorted(forms(v)) for v in kernel_basis(a)] == [
                sorted(forms(v)) for v in ref.kernel_basis(a)
            ]
