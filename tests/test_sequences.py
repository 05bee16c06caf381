"""Consistent sequences: M(W), span, covers, Phi_a degrees, shift, stability."""

import json
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import linalg_reference
import sequences_reference as ref
from helpers import assert_squares_hold, direct_sum, from_columns, zero_sequence
from heckestab import hecke, sequences, verify
from heckestab.hecke import ModulePresentation, regular_representation
from heckestab.linalg import EchelonBasis, ExactMatrix
from heckestab.partitions import pad, partition_label, pieri_add, syt_count, unpad
from heckestab.qfield import ONE, Q, ZERO, scal
from heckestab.sequences import (
    FILE_DIM_BOUND,
    ConsistentSequence,
    SequenceMorphism,
    build_M,
    build_M_specht,
    build_Mm,
    check_consistency,
    degrees,
    free_cover,
    generation_degree,
    is_uniformly_stable,
    load_sequence,
    multiplicity_table,
    noetherian_experiment,
    non_finitely_generated,
    phi_a,
    save_sequence,
    seq_kernel,
    sequence_from_json_obj,
    sequence_to_json_obj,
    shift,
    shift_decompose_Mm,
    span,
    weight,
)
from heckestab.specht import decompose, specht_module
from heckestab.symgroup import permutations_of


def mm_multiplicity_oracle(m, n_max):
    """Rows of the c table for M(m), straight from the Pieri rule.

    M(m)_n decomposes as the sum over nu of dim(S^nu) copies of the
    induction of S^nu (x) index, so the multiplicity of S^mu is the sum
    of syt_count(nu) over nu with mu in pieri_add(nu, n - m).
    """
    from heckestab.partitions import partitions_of

    rows = {}
    for n in range(m, n_max + 1):
        for nu in partitions_of(m):
            for mu in pieri_add(nu, n - m):
                key = unpad(mu)
                rows.setdefault(key, [0] * (n_max + 1))[n] += syt_count(nu)
    return rows


def regular_tower(n_max):
    """The tower of regular modules along T_w -> T_w; consistent, not M-type."""
    mods = [regular_representation(n) for n in range(n_max + 1)]
    conns = []
    for n in range(n_max):
        src = list(permutations_of(n))
        tgt = {p.one_line: i for i, p in enumerate(permutations_of(n + 1))}
        conns.append(
            ExactMatrix(
                mods[n + 1].dim,
                mods[n].dim,
                {
                    (tgt[w.embed(n + 1).one_line], j): ONE
                    for j, w in enumerate(src)
                },
            )
        )
    return ConsistentSequence(mods, conns, label="regular tower")


class TestConsistency:
    def test_mm_is_consistent(self):
        assert check_consistency(build_Mm(1, 5))["ok"]
        assert check_consistency(build_Mm(2, 5))["ok"]

    def test_fault_injection_locates_violation(self):
        V = build_Mm(1, 4)
        bad = dict(V.connectors[2].entries)
        (i, j), _ = next(iter(sorted(bad.items())))
        bad[(i, j)] = Q
        conns = list(V.connectors)
        conns[2] = ExactMatrix(V.modules[3].dim, V.modules[2].dim, bad)
        broken = ConsistentSequence(V.modules, conns, check=False)
        verdict = check_consistency(broken)
        assert not verdict["ok"]
        assert verdict["violations"]
        assert all(n == 2 for n, _ in verdict["violations"])
        with pytest.raises(ValueError, match="inconsistent"):
            ConsistentSequence(V.modules, conns)

    @given(
        st.sampled_from([(1, 4), (2, 4), ((2, 1), 5)]),
        st.booleans(),
        st.sampled_from([ZERO, ONE, Q, Q / (Q + 1)]),
        st.data(),
    )
    @settings(max_examples=40)
    def test_violations_match_reference(self, tower, in_generator, value, data):
        """One entry of a generator or a connector redrawn, checked both ways."""
        m, n_max = tower
        V = build_Mm(m, n_max) if isinstance(m, int) else build_M_specht(m, n_max)
        modules, connectors = list(V.modules), list(V.connectors)
        if in_generator:
            n = data.draw(st.integers(2, n_max))
            k = data.draw(st.integers(0, n - 2))
            g = modules[n].gen_action[k]
        else:
            n = data.draw(st.integers(0, n_max - 1))
            g = connectors[n]
        if not g.rows * g.cols:
            return
        entries = dict(g.entries)
        entries[(data.draw(st.integers(0, g.rows - 1)),
                 data.draw(st.integers(0, g.cols - 1)))] = value
        g = ExactMatrix(g.rows, g.cols, entries)
        if in_generator:
            gens = list(modules[n].gen_action)
            gens[k] = g
            modules[n] = ModulePresentation(n, g.rows, gens, check=False)
        else:
            connectors[n] = g
        broken = ConsistentSequence(modules, connectors, check=False)
        assert check_consistency(broken) == ref.check_consistency(broken)

    def test_shape_errors(self):
        V = build_Mm(1, 3)
        with pytest.raises(ValueError, match="shape"):
            ConsistentSequence(
                V.modules, [ExactMatrix(1, 1, {})] * 3, check=False
            )
        with pytest.raises(ValueError, match="one connector"):
            ConsistentSequence(V.modules, V.connectors[:-1], check=False)

    def test_phi_composite(self):
        V = build_Mm(1, 4)
        assert V.phi_composite(2, 2) == ExactMatrix.identity(2)
        assert V.phi_composite(1, 4) == (
            V.connectors[3] @ V.connectors[2] @ V.connectors[1]
        )
        with pytest.raises(ValueError, match="composite range"):
            V.phi_composite(3, 1)


class TestBuildM:
    def test_mm_dimensions(self):
        # M(m)_n is free on the cosets: n!/(n-m)! once n reaches m
        for m in range(3):
            V = build_Mm(m, 5)
            for n in range(6):
                expect = (
                    math.factorial(n) // math.factorial(n - m) if n >= m else 0
                )
                assert V.modules[n].dim == expect

    def test_specht_induced_dimension(self):
        V = build_M_specht((2, 1), 5)
        assert V.dims() == [0, 0, 0, 2, 8, 20]
        with pytest.raises(ValueError, match="exceeds"):
            build_M_specht((2, 1), 2)

    def test_connectors_are_unit_inclusions(self):
        V = build_Mm(2, 5)
        for f in V.connectors:
            assert all(v == ONE for v in f.entries.values())
            cols = [j for _, j in f.entries]
            assert sorted(cols) == list(range(f.cols))
            rows = [i for i, _ in f.entries]
            assert len(set(rows)) == len(rows)

    def test_doubling_tower(self):
        V = non_finitely_generated(5)
        assert V.dims() == [1, 2, 4, 8, 16, 32]

    def test_mixed_weights(self):
        V = build_M(
            {1: regular_representation(1), 2: regular_representation(2)}, 4
        )
        assert V.dims() == [0, 1, 4, 9, 16]


class TestKeptWork:
    """Modules, induced blocks and reports are built once and shared."""

    def test_rebuilt_towers_induce_nothing(self, monkeypatch):
        first = [build_Mm(2, 5), build_M_specht((2, 1), 5)]
        calls = []
        induce_pair = hecke.induce_pair
        monkeypatch.setattr(
            hecke, "induce_pair", lambda V, W: calls.append(V) or induce_pair(V, W)
        )
        again = [build_Mm(2, 5), build_M_specht((2, 1), 5)]
        assert calls == []
        assert [sequence_to_json_obj(V) for V in again] == [
            sequence_to_json_obj(V) for V in first
        ]

    def test_induced_blocks_live_on_the_module(self):
        W = regular_representation(2)
        assert regular_representation(2) is W
        block = W.induced_by_index(3)
        assert W.induced_by_index(3) is block
        # the tower's module is the kept block itself, not a copy of it
        assert build_Mm(2, 5).modules[5] is block
        fresh = hecke.induce_pair(W, hecke.index_rep(3))
        assert block is not fresh
        assert (block.dim, block.gen_action) == (fresh.dim, fresh.gen_action)

    @pytest.mark.parametrize("m, lam", [(1, None), (2, None), (3, None), (3, (2, 1))])
    def test_every_window_holds_the_induced_blocks(self, m, lam):
        # a one-summand M(W) holds the blocks kept on W, so the windows
        # 6 and 7 share each module, and none is a copy
        if lam is None:
            W, short, long = regular_representation(m), build_Mm(m, 6), build_Mm(m, 7)
        else:
            W = specht_module(lam)
            short, long = build_M_specht(lam, 6), build_M_specht(lam, 7)
        for n in range(m, 7):
            block = W.induced_by_index(n - m)
            assert long.modules[n] is short.modules[n] is block

    def test_several_summands_are_summed(self):
        # non_finitely_generated(4) has a summand per k <= n: each V_n is
        # the block-diagonal sum of its induced parts, in order of k
        V = non_finitely_generated(4)
        for n, module in enumerate(V.modules):
            parts = [
                specht_module((k,) if k else ()).induced_by_index(n - k)
                for k in range(n + 1)
            ]
            gens = []
            for i in range(n - 1):
                entries, offset = {}, 0
                for part in parts:
                    for (r, c), v in part.gen_action[i].entries.items():
                        entries[(offset + r, offset + c)] = v
                    offset += part.dim
                gens.append(entries)
            assert (module.n, module.dim) == (n, sum(p.dim for p in parts))
            assert [g.entries for g in module.gen_action] == gens

    def test_reports_are_kept_on_the_tower(self, monkeypatch):
        decomposed, eliminated = [], []
        decompose, quotients = sequences.decompose, sequences.coinvariant_quotients
        monkeypatch.setattr(
            sequences, "decompose", lambda V: decomposed.append(V) or decompose(V)
        )
        monkeypatch.setattr(
            sequences,
            "coinvariant_quotients",
            lambda V, ranks: eliminated.append(V) or quotients(V, ranks),
        )
        V = build_Mm(2, 5)
        table = multiplicity_table(V)
        assert weight(V) == 2
        assert multiplicity_table(V) is table
        report = degrees(V, 2)
        verdict = is_uniformly_stable(V, a_max=2)
        assert degrees(V, 2) is report
        assert verdict["stability_degree"] == report["stability_degree"]
        assert decomposed == [module for module in V.modules if module.dim]
        assert eliminated == list(V.modules)
        assert degrees(V, 1) is not report
        assert eliminated == 2 * list(V.modules)


# the nine towers of the towers benchmark: (m, None) is M(m), (None, lam) M(S^lam)
BENCH_TOWERS = [(m, None) for m in (1, 2, 3)] + [
    (None, lam) for lam in [(1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]
]


class TestTowerMemo:
    """build_Mm, build_M_specht and shift_decompose_Mm share one memo of
    M(W) towers; what each hands out equals a fresh build bit for bit."""

    @staticmethod
    def fresh(m, lam, n_max):
        """(tower, labels) from _build_M_layout, past every memo of towers."""
        if lam is None:
            return sequences._build_M_layout(
                {m: regular_representation(m)}, n_max, f"M({m})"
            )
        label = f"M(S({partition_label(lam)}))"
        return sequences._build_M_layout({sum(lam): specht_module(lam)}, n_max, label)

    @staticmethod
    def reports(V):
        return (
            degrees(V, 2),
            multiplicity_table(V),
            is_uniformly_stable(V, a_max=2),
            generation_degree(V),
            sequences._generated(V),
        )

    @pytest.mark.parametrize("m, lam", BENCH_TOWERS)
    def test_builders_match_a_fresh_build(self, m, lam):
        def kept(n_max):
            return build_Mm(m, n_max) if lam is None else build_M_specht(lam, n_max)

        for n_max in (4, 6, 4):
            V = kept(n_max)
            reports = self.reports(V)
            fresh, _ = self.fresh(m, lam, n_max)
            again = kept(n_max) if lam is None else build_M_specht(list(lam), n_max)
            assert again is V
            assert (again.label, again.n_max) == (fresh.label, n_max)
            assert [(mod.n, mod.dim, mod.gen_action) for mod in again.modules] == [
                (mod.n, mod.dim, mod.gen_action) for mod in fresh.modules
            ]
            assert again.connectors == fresh.connectors
            assert sequence_to_json_obj(again) == sequence_to_json_obj(fresh)
            if lam is None:
                hits = build_Mm.cache_info().hits
                assert build_Mm(m, n_max) is V
                assert build_Mm.cache_info().hits == hits + 1
            assert self.reports(again) == reports == self.reports(fresh)

    @pytest.mark.parametrize("m, a", [(1, 0), (1, 2), (2, 1), (3, 2)])
    def test_shift_decompose_matches_a_fresh_build(self, m, a, monkeypatch):
        kept = [shift_decompose_Mm(m, a, 4) for _ in range(2)]
        # the split filled build_Mm's memo, at the window 4 + a
        build_Mm(m, 4 + a)
        assert build_Mm.cache_info().misses == 1
        # past both memos: M(m) built and the split made afresh
        for name in ("build_Mm", "_shift_split"):
            monkeypatch.setattr(sequences, name, getattr(sequences, name).__wrapped__)
        fresh = shift_decompose_Mm(m, a, 4)
        assert fresh["complement"] is not kept[0]["complement"]
        for report in kept:
            assert report.keys() == fresh.keys()
            for key, value in report.items():
                if key == "complement":
                    assert sequence_to_json_obj(value) == sequence_to_json_obj(
                        fresh[key]
                    )
                    assert sequences._generated(value) == sequences._generated(
                        fresh[key]
                    )
                else:
                    assert value == fresh[key]

    @pytest.mark.parametrize("m, a", [(1, 1), (2, 2), (3, 1)])
    def test_repeat_split_reads_the_kept_parts(self, m, a, monkeypatch):
        first = shift_decompose_Mm(m, a, 5)
        calls = []
        for name in ("_closure", "shift", "build_Mm", "_build_M_layout"):
            original = getattr(sequences, name)
            monkeypatch.setattr(
                sequences,
                name,
                lambda *args, name=name, original=original: calls.append(name)
                or original(*args),
            )
        again = shift_decompose_Mm(m, a, 5)
        assert calls == []
        assert again is not first and again == first
        assert again["complement"] is first["complement"]
        for key in ("shifted_dims", "summand_dims", "complement_dims"):
            assert again[key] is not first[key]
        # a caller that edits its report changes no later report
        for key in ("shifted_dims", "summand_dims", "complement_dims"):
            first[key].append(-1)
        first["matches_fresh_Mm"] = first["bound_ok"] = False
        assert shift_decompose_Mm(m, a, 5) == again
        assert calls == []

    def test_refused_splits_are_not_kept(self):
        with pytest.raises(ValueError, match="m must be at least 1"):
            shift_decompose_Mm(0, 1, 4)
        with pytest.raises(ValueError, match="a must be nonnegative"):
            shift_decompose_Mm(1, -1, 4)
        # n_max + a >= m here, so only the n_max check refuses the window
        with pytest.raises(ValueError, match="n_max must be nonnegative"):
            shift_decompose_Mm(1, 2, -1)
        # S+a M(3) is zero in every degree up to 1 when a <= 1
        for a in (0, 1):
            with pytest.raises(ValueError, match="zero in every degree"):
                shift_decompose_Mm(3, a, 1)
        # S+2 M(3) is not zero in degree 1, but its M(3) summand is
        with pytest.raises(ValueError, match=r"M\(3\) summand is zero"):
            shift_decompose_Mm(3, 2, 1)
        assert sequences._shift_split.cache_info().misses == 0
        assert build_Mm.cache_info().misses == 0

    def test_commands_share_one_build(self, monkeypatch):
        builds = []
        build = sequences._build_M_layout

        def counted(W, n_max, label):
            builds.append((label, n_max))
            return build(W, n_max, label)

        monkeypatch.setattr(sequences, "_build_M_layout", counted)
        V = build_Mm(2, 5)
        shift_decompose_Mm(2, 1, 4)
        shift_decompose_Mm(2, 0, 5)
        noetherian_experiment(2, 2, 7, 5)
        build_M_specht((2, 1), 5)
        build_M_specht([2, 1], 5)
        assert build_Mm(2, 5) is V
        assert builds == [("M(2)", 5), ("M(S(2,1))", 5)]
        verify.clear_memos()
        assert build_Mm(2, 5) is not V
        assert builds[-1] == ("M(2)", 5)

    def test_refused_builds_are_not_kept(self):
        with pytest.raises(ValueError, match="exceeds n_max"):
            build_M_specht((2, 1), 2)
        with pytest.raises(ValueError, match="is negative"):
            build_Mm(-1, 3)
        assert sequences._M_specht.cache_info().currsize == 0
        assert build_Mm.cache_info().currsize == 0

    def test_second_save_writes_the_same_bytes(self, tmp_path):
        V = build_Mm(2, 5)
        want = json.dumps(sequence_to_json_obj(V), sort_keys=True, indent=2) + "\n"
        path = tmp_path / "t.json"
        for _ in range(2):
            sequences._last_loaded.cache_clear()
            save_sequence(V, path)
            assert path.read_bytes() == want.encode()
            # the save filled the slot, so the load is V itself
            assert load_sequence(path) is V
            path.unlink()
        # a parsed tower's first save makes its own bytes: the same ones
        save_sequence(V, path)
        sequences._last_loaded.cache_clear()
        parsed = load_sequence(path)
        assert parsed is not V
        other = tmp_path / "u.json"
        save_sequence(parsed, other)
        assert other.read_bytes() == want.encode()

    def test_kept_flags_cannot_be_changed_by_a_caller(self):
        V = build_M_specht((2,), 5)
        verdict = is_uniformly_stable(V)
        flags = sequences._generated(V)
        assert sequences._generated(V) is flags
        with pytest.raises(TypeError):
            flags[0] = not flags[0]
        copy = list(flags)
        copy[:] = [False] * len(copy)
        for clause in verdict["clauses"]:
            clause["generated"] = False
        degree = generation_degree(V)
        fresh, _ = self.fresh(None, (2,), 5)
        assert is_uniformly_stable(V) == is_uniformly_stable(fresh)
        assert is_uniformly_stable(V)["stable"]
        assert generation_degree(V) == degree == generation_degree(fresh) == 2
        assert sequences._generated(V) == sequences._generated(fresh)


class TestSkippedWork:
    """Work the L1 kernels and closures skip, pinned by counts, not timings."""

    def test_connector_products_are_generator_entries(self):
        # a connector is a 0/1 matrix with one 1 per column and at most one
        # per row, so f @ G and G' @ f take each entry from the generator
        V = build_Mm(2, 4)
        seen = 0
        for n, f in enumerate(V.connectors):
            assert all(x is ONE for x in f.entries.values())
            assert len(f.entries) == f.cols
            row_of = {j: k for (k, j) in f.entries}
            col_of = {k: j for (k, j) in f.entries}
            assert len(row_of) == f.cols and len(col_of) == f.cols
            for G in V.modules[n].gen_action:
                for (i, j), x in (f @ G).entries.items():
                    assert x is G.entries[(col_of[i], j)]
                    seen += 1
            for G in V.modules[n + 1].gen_action:
                for (i, j), x in (G @ f).entries.items():
                    assert x is G.entries[(i, row_of[j])]
                    seen += 1
        assert seen > 40

    def test_full_closure_applies_no_generator(self, monkeypatch):
        bases = []

        class Recorded(EchelonBasis):
            def __init__(self):
                super().__init__()
                bases.append(self)

        class Watched:
            """A generator that records the basis size at each apply."""

            def __init__(self, g):
                self.g = g

            def apply(self, v):
                sizes.append(len(bases[-1]))
                return self.g.apply(v)

        monkeypatch.setattr(sequences, "EchelonBasis", Recorded)
        filled = 0
        for V in (build_Mm(2, 4), build_M_specht((2, 1), 5)):
            for n, module in enumerate(V.modules):
                seed_sets = [
                    [{0: ONE}] if module.dim else [],
                    V.connectors[n - 1].columns() if n else [],
                    [{i: ONE} for i in range(module.dim)],
                ]
                for vectors in seed_sets:
                    sizes = []
                    watched = mock.Mock(
                        dim=module.dim, gen_action=[Watched(g) for g in module.gen_action]
                    )
                    basis = sequences._closure(watched, vectors)
                    assert all(size < module.dim for size in sizes)
                    reference = ref.unstopped_closure(module, vectors)
                    assert list(basis.pivots.items()) == list(reference.pivots.items())
                    assert basis.vectors == reference.vectors
                    filled += len(basis) == module.dim and bool(sizes)
        assert filled > 5


class TestSpan:
    def test_canonical_seed_generates_m1(self):
        V = build_Mm(1, 5)
        sub = span(V, [(1, {0: ONE})])
        assert sub.dims() == V.dims()
        assert generation_degree(sub) == 1
        assert_squares_hold(sub)

    def test_empty_seeds_span_zero(self):
        V = build_Mm(1, 4)
        sub = span(V, [])
        assert sub.dims() == [0] * 5
        assert_squares_hold(sub)

    def test_zero_ambient(self):
        sub = span(zero_sequence(3), [])
        assert sub.dims() == [0] * 4
        assert generation_degree(sub) == 0
        assert_squares_hold(sub)

    def test_seed_validation(self):
        V = build_Mm(1, 3)
        with pytest.raises(ValueError, match="degree"):
            span(V, [(9, {0: ONE})])
        with pytest.raises(ValueError, match="coordinate"):
            span(V, [(1, {5: ONE})])

    def test_generation_degrees(self):
        assert generation_degree(build_Mm(1, 4)) == 1
        assert generation_degree(build_Mm(2, 4)) == 2
        assert generation_degree(build_M_specht((1, 1), 4)) == 2
        assert generation_degree(zero_sequence(4)) == 0
        assert generation_degree(non_finitely_generated(4)) == 4

    def test_full_degree_m_seeds_recover_mm(self):
        V = build_Mm(2, 4)
        seeds = [(2, {i: ONE}) for i in range(V.modules[2].dim)]
        sub = span(V, seeds)
        assert sub.dims() == V.dims()
        assert generation_degree(sub) == 2
        assert_squares_hold(sub)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(0, 5), min_size=0, max_size=4), st.data())
    def test_span_monotone_in_seeds(self, picks, data):
        V = build_Mm(2, 4)
        seeds = [(2, {i % 2: ONE}) for i in picks]
        extra = data.draw(st.lists(st.integers(0, 5), max_size=3))
        more = seeds + [(3, {i: ONE}) for i in extra]
        small = span(V, seeds)
        big = span(V, more)
        assert all(a <= b for a, b in zip(small.dims(), big.dims()))
        assert_squares_hold(small)
        assert_squares_hold(big)

    # a seed of M(1)_2 whose H_2-span is all of M(1)_2
    GENERIC = [(2, {0: ONE, 1: scal(3)})]

    def test_full_degrees_are_the_ambient_objects(self):
        V = build_Mm(1, 6)
        sub = span(V, self.GENERIC)
        full = [n for n, mod in enumerate(sub.modules) if mod.dim == V.modules[n].dim]
        assert full == [0, 2, 3, 4, 5, 6]
        for n in full:
            assert sub.modules[n] is V.modules[n]
        for n in range(V.n_max):
            assert (sub.connectors[n] is V.connectors[n]) == (
                n in full and n + 1 in full
            )
        assert_squares_hold(sub)

    def test_no_closure_after_a_full_generated_degree(self, monkeypatch):
        V = build_Mm(1, 6)
        flags = sequences._generated(V)
        degree_of = {id(g): n for n, mod in enumerate(V.modules) for g in mod.gen_action}
        degree_of.update({id(f): n + 1 for n, f in enumerate(V.connectors)})
        reached = []
        closure, restrict = sequences._closure, sequences._restriction_matrix

        def spied_closure(module, *args):
            reached.append(module.n)
            return closure(module, *args)

        def spied_restrict(basis_from, basis_to, mat):
            reached.append(degree_of[id(mat)])
            return restrict(basis_from, basis_to, mat)

        monkeypatch.setattr(sequences, "_closure", spied_closure)
        monkeypatch.setattr(sequences, "_restriction_matrix", spied_restrict)
        for seeds in (self.GENERIC, [(1, {0: ONE})], [(3, {0: ONE})]):
            reached.clear()
            sub = span(V, seeds)
            skipped = [
                n
                for n in range(1, V.n_max + 1)
                if sub.dims()[n - 1] == V.dims()[n - 1] and flags[n - 1]
            ]
            assert skipped and set(skipped).isdisjoint(reached)
            assert set(reached) | set(skipped) >= set(range(1, V.n_max + 1))
            # the recorded flags serve every later reader
            reached.clear()
            generation_degree(sub)
            is_uniformly_stable(sub)
            assert reached == []

    def test_closure_applies_generators_to_the_vectors_that_entered(self, monkeypatch):
        # a rational seed whose closure is all of M(S^(2,1))_5; the stored
        # vectors, which insert rewrites in place, reach degree 344 here,
        # so the generators must meet each vector as it entered
        module = build_M_specht((2, 1), 5).modules[5]
        degrees = []
        apply = ExactMatrix.apply

        def spied_apply(g, v):
            degrees.extend(max(len(c.num), len(c.den)) - 1 for c in v.values())
            return apply(g, v)

        monkeypatch.setattr(ExactMatrix, "apply", spied_apply)
        seed = {5: scal(Fraction(1, 3)), 1: Q - 1, 6: Q}
        basis = sequences._closure(module, [seed])
        assert len(basis) == module.dim == 20
        assert degrees and max(degrees) <= 12

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_continued_closure_is_the_closure_of_the_union(self, data):
        V = build_M_specht((2, 1), 5)
        n = data.draw(st.integers(3, V.n_max))
        module = V.modules[n]

        def vectors():
            return data.draw(
                st.lists(
                    st.dictionaries(
                        st.integers(0, module.dim - 1), small_scalars, max_size=3
                    ),
                    max_size=3,
                )
            )

        first, then = vectors(), vectors()
        basis = sequences._closure(module, first)
        assert sequences._closure(module, then, basis) is basis
        fresh = sequences._closure(module, first + then)

        def by_pivot(b):
            return {p: b.vectors[t] for p, t in b.pivots.items()}

        event(f"grew: {len(basis) > len(sequences._closure(module, first))}")
        assert by_pivot(basis) == by_pivot(fresh)


small_scalars = st.sampled_from(
    [ZERO, ZERO, ONE, -ONE, scal(2), Q, Q - 1, Q / (Q + 1), scal(Fraction(1, 3))]
)


def as_matrix(dim, basis):
    """The dim x len(basis) matrix whose columns are the stored vectors."""
    return from_columns(dim, basis.vectors)


class TestRestriction:
    """Maps restricted to reduced bases, with coordinates read at the pivots."""

    def test_non_invariant_map_rejected(self):
        # the shift e0 -> e1 -> e2 -> 0 does not preserve span(e0)
        basis = EchelonBasis()
        basis.insert({0: ONE})
        m = ExactMatrix(3, 3, {(1, 0): ONE, (2, 1): ONE})
        with pytest.raises(ValueError, match="map does not preserve the subspaces"):
            sequences._restriction_matrix(basis, basis, m)

    @settings(max_examples=80)
    @given(st.sampled_from(["image", "drawn"]), st.data())
    def test_against_reference_coordinates(self, subspace, data):
        # im m is m-invariant; a drawn proper subspace rarely is
        dim = data.draw(st.integers(0 if subspace == "image" else 2, 4))
        entry = lambda: data.draw(small_scalars)
        m = ExactMatrix.from_rows([[entry() for _ in range(dim)] for _ in range(dim)])
        if subspace == "image":
            vectors = m.columns()
        else:
            count = data.draw(st.integers(1, dim - 1))
            vectors = [{i: entry() for i in range(dim)} for _ in range(count)]
        basis, reference = EchelonBasis(), linalg_reference.EchelonBasis()
        for v in vectors:
            basis.insert(v)
            reference.insert(v)
        leaves = any(reference.coordinates(m.apply(v)) is None for v in basis.vectors)
        event(f"{subspace}, leaves the span: {leaves}")
        if leaves:
            with pytest.raises(ValueError, match="map does not preserve the subspaces"):
                sequences._restriction_matrix(basis, basis, m)
        else:
            restricted = sequences._restriction_matrix(basis, basis, m)
            B = as_matrix(dim, basis)
            assert B @ restricted == m @ B

    @settings(max_examples=15)
    @given(st.data())
    def test_span_commutes_with_ambient(self, data):
        V = build_Mm(2, 4)
        seeds = []
        for _ in range(data.draw(st.integers(1, 3))):
            deg = data.draw(st.integers(2, V.n_max))
            support = data.draw(
                st.sets(st.integers(0, V.modules[deg].dim - 1), min_size=1, max_size=3)
            )
            seeds.append((deg, {i: data.draw(small_scalars) for i in sorted(support)}))
        captured = []
        real = sequences._subsequence

        def spy(V, bases, label):
            captured.append(bases)
            return real(V, bases, label)

        with mock.patch.object(sequences, "_subsequence", spy):
            U = span(V, seeds)
        (bases,) = captured
        B = [as_matrix(mod.dim, b) for mod, b in zip(V.modules, bases)]
        for n in range(V.n_max + 1):
            for g, h in zip(V.modules[n].gen_action, U.modules[n].gen_action):
                assert B[n] @ h == g @ B[n]
        for n in range(V.n_max):
            assert B[n + 1] @ U.connectors[n] == V.connectors[n] @ B[n]
        assert_squares_hold(U)

    @settings(max_examples=80)
    @given(st.data())
    def test_unit_bases_match_the_generic_path(self, data):
        dim = data.draw(st.integers(1, 5))
        m = ExactMatrix.from_rows(
            [[data.draw(small_scalars) for _ in range(dim)] for _ in range(dim)]
        )
        indices = st.sets(st.integers(0, dim - 1))
        source = data.draw(indices)
        target = data.draw(indices)
        if data.draw(st.booleans()):
            # a target that holds the source's image
            target |= {i for i, j in m.entries if j in source}
        bases = []
        for chosen in (source, target):
            basis = EchelonBasis()
            for j in data.draw(st.permutations(sorted(chosen))):
                basis.insert({j: ONE})
            bases.append(basis)
        try:
            want = ref.restriction_matrix(*bases, m)
        except ValueError as exc:
            want = exc
        m = ExactMatrix(dim, dim, m.entries)  # no column index built yet
        event(f"preserved: {not isinstance(want, ValueError)}")
        if isinstance(want, ValueError):
            with pytest.raises(ValueError, match=str(want)):
                sequences._restriction_matrix(*bases, m)
        else:
            assert sequences._restriction_matrix(*bases, m) == want
        # the one pass over the entries keeps no column index
        assert m._by_column is None


class TestFreeCover:
    def test_m1_cover_is_iso(self):
        V = build_Mm(1, 5)
        f = free_cover(V, 1)
        assert f.source.dims() == V.dims()
        kernel = seq_kernel(f)
        assert kernel.dims() == [0] * 6
        assert_squares_hold(kernel)

    def test_hook_cover_is_iso(self):
        # V_0 = V_1 = 0, so the degree-2 cover is M(V_2) itself and the
        # canonical epimorphism has nothing to kill
        V = build_M_specht((1, 1), 5)
        f = free_cover(V, 2)
        assert f.source.dims() == V.dims()
        kernel = seq_kernel(f)
        assert kernel.dims() == [0] * 6
        assert_squares_hold(kernel)

    @pytest.mark.parametrize("lam", [(2,), (2, 1)])
    def test_induced_tower_is_its_own_cover(self, lam):
        # V = M(W) with W in degree m = |lam| alone: the degree-m cover sends
        # T_d (x) w to T_d . w, which is the same basis vector of V
        V = build_Mm(2, 5) if lam == (2,) else build_M_specht(lam, 5)
        f = free_cover(V, sum(lam))
        assert list(f.components) == [ExactMatrix.identity(k) for k in V.dims()]

    def test_insufficient_degree(self):
        with pytest.raises(ValueError, match="insufficient degree"):
            free_cover(build_Mm(2, 4), 1)

    def test_zero_sequence_cover(self):
        f = free_cover(zero_sequence(3), 0)
        assert f.source.dims() == [0] * 4

    def test_regular_tower_has_no_canonical_cover(self):
        # consistent and generated in degree 0, yet the would-be map from
        # M(0) is not equivariant: being a quotient of some M(W) is a
        # strictly stronger property than finite generation
        tower = regular_tower(3)
        assert generation_degree(tower) == 0
        with pytest.raises(ValueError, match="not a morphism"):
            free_cover(tower, 0)


class TestPhi:
    def test_m1_front_one(self):
        tower = phi_a(build_Mm(1, 5), 1)
        assert tower.dims() == [1, 2, 2, 2, 2]

    def test_m1_front_zero(self):
        tower = phi_a(build_Mm(1, 5), 0)
        assert tower.dims() == [0, 1, 1, 1, 1, 1]

    def test_row_specht_front_zero(self):
        tower = phi_a(build_M_specht((2,), 5), 0)
        assert tower.dims() == [0, 0, 1, 1, 1, 1]

    def test_degenerate_window(self):
        # a = n_max leaves no tail generators, so the single quotient is
        # the whole top module
        tower = phi_a(build_Mm(1, 3), 3)
        assert tower.dims() == [3]
        assert tower.maps == []

    def test_range_error(self):
        with pytest.raises(ValueError, match="outside truncation"):
            phi_a(build_Mm(1, 3), 4)


class TestDegrees:
    def test_mm_injective_and_surjective(self):
        for m in (1, 2):
            report = degrees(build_Mm(m, 5), 2)
            assert report["injective_degree"] == 0
            assert report["surjective_degree"] == m
            assert report["monotonicity_violations"] == []

    def test_specht_stability_degree_is_first_part(self):
        assert degrees(build_M_specht((2,), 5), 2)["stability_degree"] == 2
        assert degrees(build_M_specht((1, 1), 5), 2)["stability_degree"] == 1

    def test_zero_probes_give_no_degree(self):
        # every Phi_a map of M(S^(1,1,1)) at a <= 1 is 0 -> 0, and n_max = 0
        # has no probe at all: neither is evidence of any degree
        column = build_M_specht((1, 1, 1), 6)
        for V, a_max in ((column, 1), (build_Mm(1, 0), 0)):
            report = degrees(V, a_max)
            for key in ("injective_degree", "surjective_degree", "stability_degree"):
                assert report[key] is None
        verdict = is_uniformly_stable(column, a_max=1)
        assert verdict["predicted_bound"] is None
        assert not verdict["within_predicted"]
        # Phi_2 is the first nonzero one, and it shows degree lam_1
        assert degrees(column, 2)["stability_degree"] == 1

    def test_report_metadata(self):
        report = degrees(build_Mm(1, 4), 1)
        assert report["mode"] == "exact"
        assert "truncation" in report["qualifier"]
        with pytest.raises(ValueError, match="a_max"):
            degrees(build_Mm(1, 3), 9)


class TestWeightAndMultiplicities:
    def test_weights(self):
        from heckestab.sequences import weight

        assert weight(build_Mm(1, 4)) == 1
        assert weight(build_Mm(2, 4)) == 2
        assert weight(build_M_specht((2,), 4)) == 2
        assert weight(build_M_specht((1, 1), 4)) == 2
        assert weight(zero_sequence(3)) == 0

    def test_m2_table_matches_pieri_oracle(self):
        table = multiplicity_table(build_Mm(2, 5))
        assert table["rows"] == mm_multiplicity_oracle(2, 5)

    def test_m1_table(self):
        table = multiplicity_table(build_Mm(1, 5))
        assert table["rows"] == {
            (): [0, 1, 1, 1, 1, 1],
            (1,): [0, 0, 1, 1, 1, 1],
        }

    def test_rows_pad_back_to_the_decompose_keys(self, monkeypatch):
        # each row is its key with the first part cut: padded at n, the
        # rows nonzero there are exactly decompose(V_n), with its counts
        trials = []
        real_span = sequences.span
        monkeypatch.setattr(
            sequences, "span", lambda *a, **k: trials.append(real_span(*a, **k)) or trials[-1]
        )
        noetherian_experiment(1, 2, 7, 6)
        towers = [build_Mm(2, 6), build_M_specht((2, 1), 6), *trials]
        assert any(any(t.dims()) for t in trials)
        for V in towers:
            rows = multiplicity_table(V)["rows"]
            for n, module in enumerate(V.modules):
                padded = {pad(lam, n): c[n] for lam, c in rows.items() if c[n]}
                assert padded == (decompose(module) if module.dim else {})


class TestUniformStability:
    def test_column_specht(self):
        verdict = is_uniformly_stable(build_M_specht((1,), 5), a_max=2)
        assert verdict["stable"]
        assert verdict["observed_N"] <= 2
        assert verdict["predicted_bound"] == 2
        assert verdict["within_predicted"]

    def test_m2_onset_matches_prediction(self):
        verdict = is_uniformly_stable(build_Mm(2, 5), a_max=2)
        assert verdict["stable"]
        assert verdict["observed_N"] == 4
        assert verdict["predicted_bound"] == 4

    def test_zero_sequence(self):
        verdict = is_uniformly_stable(zero_sequence(4))
        assert verdict["stable"]
        assert verdict["observed_N"] == 0

    def test_empty_window_never_certifies(self):
        # n_max = 0 has no connector: no clause, so no evidence of stability
        verdict = is_uniformly_stable(build_Mm(1, 0), a_max=0)
        assert verdict["clauses"] == []
        assert not verdict["stable"]
        assert verdict["observed_N"] is None
        assert not verdict["within_predicted"]

    def test_second_verdict_ranks_nothing(self, monkeypatch):
        V = build_Mm(3, 6)
        first = is_uniformly_stable(V)
        inserts = []
        insert = EchelonBasis.insert
        monkeypatch.setattr(
            EchelonBasis, "insert", lambda self, v: inserts.append(v) or insert(self, v)
        )
        assert is_uniformly_stable(V) == first
        assert inserts == []
        assert all(f._rank == f.cols for f in V.connectors)

    def test_doubling_tower_fails(self):
        verdict = is_uniformly_stable(non_finitely_generated(5))
        assert not verdict["stable"]
        last = verdict["clauses"][-1]
        assert not last["generated"]
        assert not last["multiplicities_match"]
        # vacuous evidence must not rescue it
        assert verdict["observed_N"] is None


class TestShift:
    def test_zero_shift_is_identity(self):
        V = build_Mm(1, 4)
        assert shift(V, 0) is V

    def test_shift_dims_and_consistency(self):
        S = shift(build_Mm(1, 5), 1)
        assert S.dims() == [1, 2, 3, 4, 5]
        assert check_consistency(S)["ok"]

    def test_shift_composes(self):
        V = build_Mm(1, 5)
        twice = shift(shift(V, 1), 1)
        once = shift(V, 2)
        assert twice.connectors == once.connectors
        for a, b in zip(twice.modules, once.modules):
            assert a.gen_action == b.gen_action

    def test_range_error(self):
        with pytest.raises(ValueError, match="shift amount"):
            shift(build_Mm(1, 3), 4)

    @pytest.mark.parametrize(
        "m, lam", [(m, None) for m in (1, 2, 3)] + [(None, lam) for lam in verify.SPECHT_SET]
    )
    def test_shifts_inherit_their_squares(self, m, lam):
        # shift builds unchecked: its square at (n, i) is V's at (n + a, i + a)
        V = build_Mm(m, 6) if lam is None else build_M_specht(lam, 6)
        for a in range(V.n_max + 1):
            assert_squares_hold(shift(V, a))

    def test_decompose_m1_a1(self):
        report = shift_decompose_Mm(1, 1, 4)
        assert report["direct_sum_ok"]
        assert report["matches_fresh_Mm"]
        assert report["complement_dims"] == [1, 1, 1, 1, 1]
        assert report["complement_generation_degree"] == 0
        assert report["bound_ok"]

    def test_decompose_m1_a0(self):
        report = shift_decompose_Mm(1, 0, 4)
        assert report["complement_dims"] == [0] * 5
        assert report["matches_fresh_Mm"]
        assert report["bound_ok"]

    def test_decompose_m2_a1(self):
        report = shift_decompose_Mm(2, 1, 4)
        assert report["direct_sum_ok"]
        assert report["matches_fresh_Mm"]
        assert report["complement_generation_degree"] <= 1
        assert report["bound_ok"]

    @staticmethod
    def assert_matches_reference(m, a, n_max):
        got = shift_decompose_Mm(m, a, n_max)
        want = ref.shift_decompose_Mm(m, a, n_max)
        complement, want_complement = got.pop("complement"), want.pop("complement")
        assert got == want
        assert sequence_to_json_obj(complement) == sequence_to_json_obj(want_complement)
        assert_squares_hold(complement)

    @pytest.mark.parametrize("a", [0, 1, 2])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_decompose_matches_reference(self, m, a):
        self.assert_matches_reference(m, a, 4)

    @pytest.mark.parametrize("m, a", [(2, 2), (3, 2)])
    def test_decompose_matches_reference_at_n_max_6(self, m, a):
        # the largest (m, a) pairs the towers benchmark runs, on its window
        self.assert_matches_reference(m, a, 6)

    def test_decompose_builds_mm_once(self, monkeypatch):
        calls = []

        def count(name):
            original = getattr(sequences, name)
            monkeypatch.setattr(
                sequences, name, lambda *args: calls.append(name) or original(*args)
            )

        count("_build_M_layout")
        count("regular_representation")
        shift_decompose_Mm(2, 1, 4)
        assert sorted(calls) == ["_build_M_layout", "regular_representation"]

    def test_split_rejects_cross_entries(self, monkeypatch):
        # misplaced coset representatives put the wrong unit vectors in the
        # summand and C_a; M(1) is built first, so only the split reads them
        build_Mm(1, 5)
        original = sequences._coset_one_lines

        def rotated(n, comp):
            reps = original(n, comp)
            return reps[1:] + reps[:1]

        monkeypatch.setattr(sequences, "_coset_one_lines", rotated)
        with pytest.raises(ValueError, match="map does not preserve the subspaces"):
            shift_decompose_Mm(1, 1, 4)

    def test_decompose_shifts_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            sequences, "shift", lambda V, a: calls.append((V.label, a)) or shift(V, a)
        )
        shift_decompose_Mm(2, 1, 4)
        assert calls == [("M(2)", 1)]

    def test_decompose_checks_each_square_once(self, monkeypatch):
        # once, for M(m) on the window n_max + a: the shift's squares are
        # M(m)'s and C_a's are blocks of them, so neither is checked again
        checked = []
        original = sequences.check_consistency
        monkeypatch.setattr(
            sequences,
            "check_consistency",
            lambda V: checked.append(V.label) or original(V),
        )
        shift_decompose_Mm(2, 1, 4)
        assert checked == ["M(2)"]


class TestPointwise:
    def test_direct_sum(self):
        V = build_Mm(1, 4)
        W = build_M_specht((1,), 4)
        S = direct_sum(V, W)
        assert S.dims() == [v + w for v, w in zip(V.dims(), W.dims())]
        assert check_consistency(S)["ok"]

    def test_kernel_of_projection(self):
        V = build_Mm(1, 4)
        W = build_M_specht((1,), 4)
        S = direct_sum(V, W)
        proj = SequenceMorphism(
            S,
            V,
            [
                ExactMatrix(
                    V.modules[n].dim,
                    S.modules[n].dim,
                    {(i, i): ONE for i in range(V.modules[n].dim)},
                )
                for n in range(5)
            ],
        )
        kernel = seq_kernel(proj)
        assert kernel.dims() == W.dims()
        assert_squares_hold(kernel)


class TestSerialization:
    def test_round_trip_preserves_structure(self):
        V = build_Mm(2, 4)
        back = sequence_from_json_obj(sequence_to_json_obj(V))
        assert back.dims() == V.dims()
        assert back.connectors == V.connectors
        for a, b in zip(back.modules, V.modules):
            assert a.gen_action == b.gen_action

    @staticmethod
    def save_unkept(V, path):
        # a save keeps V for the next load; forget it so that load parses
        save_sequence(V, path)
        sequences._last_loaded.cache_clear()

    def test_files_are_byte_identical(self, tmp_path):
        V = build_M_specht((2,), 4)
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        self.save_unkept(V, p1)
        parsed = load_sequence(p1)
        assert parsed is not V
        save_sequence(parsed, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_same_bytes_load_the_same_tower(self, tmp_path):
        V = build_M_specht((2,), 4)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_sequence(V, p1)
        self.save_unkept(V, p2)
        first = load_sequence(p1)
        assert first is not V
        assert load_sequence(p1) is first
        # the key is the content, not the path
        assert load_sequence(p2) is first
        self.save_unkept(build_Mm(1, 4), p2)
        other = load_sequence(p2)
        assert other is not first
        assert other.dims() == build_Mm(1, 4).dims()
        assert load_sequence(p1) is not first

    def test_the_slot_keeps_one_tower(self, tmp_path):
        # each parse and each save replaces the kept tower
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        self.save_unkept(build_Mm(1, 4), p1)
        self.save_unkept(build_Mm(2, 4), p2)
        first = load_sequence(p1)
        second = load_sequence(p2)
        assert list(sequences._last_loaded.values()) == [second]
        assert load_sequence(p1) is not first
        save_sequence(second, p2)
        assert list(sequences._last_loaded.values()) == [second]
        assert load_sequence(p2) is second

    def test_saved_tower_loads_as_itself(self, tmp_path, monkeypatch):
        sequences._last_loaded.cache_clear()
        parsed = []
        original = sequences.sequence_from_json_obj
        monkeypatch.setattr(
            sequences,
            "sequence_from_json_obj",
            lambda obj: parsed.append(obj) or original(obj),
        )
        V = build_M_specht((2,), 4)
        p = tmp_path / "a.json"
        save_sequence(V, p)
        assert load_sequence(p) is V
        assert parsed == []
        # bytes written by other means are parsed and verified again
        p.write_text(json.dumps(sequence_to_json_obj(build_Mm(1, 4))))
        other = load_sequence(p)
        assert len(parsed) == 1
        assert other is not V
        assert other.dims() == build_Mm(1, 4).dims()

    def test_cleared_memos_forget_the_saved_tower(self, tmp_path):
        V = build_Mm(1, 4)
        p = tmp_path / "a.json"
        save_sequence(V, p)
        verify.clear_memos()
        back = load_sequence(p)
        assert back is not V
        assert back.dims() == V.dims()

    @pytest.mark.parametrize(
        "m, lam",
        [(m, None) for m in (1, 2, 3)]
        + [(None, lam) for lam in [(1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]],
    )
    def test_saved_and_parsed_towers_agree(self, tmp_path, m, lam):
        # the nine towers of the towers benchmark: the tower a save keeps
        # and the tower parsed from its file give the same reports
        V = build_Mm(m, 6) if lam is None else build_M_specht(lam, 6)
        path = tmp_path / "t.json"
        self.save_unkept(V, path)
        parsed = load_sequence(path)
        assert parsed is not V
        assert sequence_to_json_obj(parsed) == sequence_to_json_obj(V)
        assert degrees(parsed, 2) == degrees(V, 2)
        assert is_uniformly_stable(parsed, 2) == is_uniformly_stable(V, 2)

    def test_unknown_schema(self):
        with pytest.raises(ValueError, match="schema"):
            sequence_from_json_obj({"schema": "hecke-stab/99"})

    @pytest.mark.parametrize("field", ["dim", "rows", "cols"])
    def test_declared_sizes_are_bounded(self, field):
        obj = sequence_to_json_obj(build_Mm(1, 3))
        record = obj["modules"][1] if field == "dim" else obj["connectors"][0]
        record[field] = FILE_DIM_BOUND
        with pytest.raises(ValueError, match="mismatch"):
            sequence_from_json_obj(obj)
        record[field] = FILE_DIM_BOUND + 1
        with pytest.raises(ValueError, match=f"{field} = {FILE_DIM_BOUND + 1} exceeds"):
            sequence_from_json_obj(obj)

    def test_load_verifies_relations(self):
        V = build_Mm(1, 3)
        obj = sequence_to_json_obj(V)
        fake = sequences._matrix_to_json(ExactMatrix.identity(V.modules[2].dim))
        obj["modules"][2]["generators"][0] = fake
        with pytest.raises(ValueError, match="relation failure"):
            sequence_from_json_obj(obj)


class TestNoetherianExperiment:
    def test_deterministic(self):
        a = noetherian_experiment(2, 4, 7, 5)
        b = noetherian_experiment(2, 4, 7, 5)
        assert a == b

    def test_small_run_shape(self):
        report = noetherian_experiment(2, 4, 7, 5)
        assert report["all_finitely_generated"]
        assert len(report["per_trial"]) == 4
        assert report["max_generation_degree"] <= 2
        for row in report["per_trial"]:
            assert row["generation_degree"] is not None
            assert set(row["multiplicities"]) >= set()

    def test_each_module_decomposed_once(self, monkeypatch):
        calls = []
        decompose = sequences.decompose
        monkeypatch.setattr(
            sequences, "decompose", lambda V: calls.append(V) or decompose(V)
        )
        report = noetherian_experiment(1, 2, 7, 6)
        nonzero = [d for row in report["per_trial"] for d in row["dims"] if d]
        assert len(calls) == len(nonzero) == 9

    def test_steady_trials_rank_no_connector_of_mm_again(self, monkeypatch):
        # from a trial's first full degree on, its connectors are M(1)'s
        # own, ranked once and then read off the matrix
        ranked = []
        real_rank = sequences.rank
        monkeypatch.setattr(
            sequences,
            "rank",
            lambda f: (f._rank is None and ranked.append(f)) or real_rank(f),
        )
        ambient = [id(f) for f in build_Mm(1, 6).connectors]
        first = noetherian_experiment(1, 2, 7, 6)
        assert any(id(f) in ambient for f in ranked)
        ranked.clear()
        assert noetherian_experiment(1, 2, 7, 6) == first
        assert not any(id(f) in ambient for f in ranked)

    @pytest.mark.parametrize("n_max", [0, -1])
    def test_needs_a_connector(self, n_max):
        with pytest.raises(ValueError, match="n_max must be at least 1"):
            noetherian_experiment(2, 1, 1, n_max)

    @pytest.mark.parametrize("m, n_max", [(3, 6), (3, 1), (2, 4), (1, 2)])
    def test_needs_a_nonzero_seed_degree(self, m, n_max):
        # seed degrees run up to n_max - m - 1 and M(m)_n = 0 for n < m
        with pytest.raises(ValueError, match=f"at least 2m \\+ 1 = {2 * m + 1}"):
            noetherian_experiment(m, 5, 1, n_max)

    def test_json_safe(self):
        report = noetherian_experiment(1, 3, 1, 4)
        json.dumps(report)
