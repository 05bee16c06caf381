"""Acceptance battery: every headline claim checked in exact arithmetic.

Runs the full verification suite twice (the second pass feeds the
determinism check) and exposes each criterion as its own pass/fail
test.  All comparisons are exact; there are no numeric tolerances
anywhere in the battery.
"""

import functools
import importlib
import io
import re
import time
from collections import Counter
from contextlib import ExitStack
from pathlib import Path
from unittest import mock

import pytest

import heckestab
from heckestab import hecke, partitions, sequences, specht, verify
from heckestab.linalg import ExactMatrix

N_MAX = 6

# run_criteria(6)'s report, pinned: `verify all` prints it before line 12
GOLDEN = Path(__file__).parent / "golden" / "verify_all.txt"

# the process memos a battery pass fills
MEMOS = (
    specht._verified_specht,
    specht.character_table,
    hecke.regular_representation,
    hecke._kept_steps,
    partitions.partitions_of,
    partitions._murnaghan_nakayama,
    sequences.build_Mm,
    sequences._M_specht,
    sequences._shift_split,
)

# the memos keyed by module content, with the computation each one saves
CONTENT_MEMOS = {
    "_multiplicities": specht._decompositions,
}


@pytest.fixture(scope="module")
def battery():
    """verify_all from cleared memos, with each pass's report, misses, M(W)
    builds (label and n_max), shifts split (label, window and a), relation
    checks and decompositions made, and the content keys kept at its end."""
    reports, misses, builds, shifts, kept = [], [], [], [], []
    run_criteria = verify.run_criteria
    build = sequences._build_M_layout
    shift = sequences.shift
    check = hecke.ModulePresentation._check_relations
    multiplicities = specht._multiplicities

    def counted(W, n_max, label):
        builds[-1].append((label, n_max))
        return build(W, n_max, label)

    def counted_shift(V, a):
        shifts[-1].append((V.label, V.n_max, a))
        return shift(V, a)

    def counted_check(module):
        misses[-1]["_check_relations"] += 1
        return check(module)

    def counted_multiplicities(table, dim, traces):
        misses[-1]["_multiplicities"] += 1
        return multiplicities(table, dim, traces)

    def recorded(n_max, err):
        builds.append([])
        shifts.append([])
        misses.append(dict.fromkeys(("_check_relations", *CONTENT_MEMOS), 0))
        before = [memo.cache_info().misses for memo in MEMOS]
        ok, report = run_criteria(n_max, err=err)
        reports.append(report)
        misses[-1].update(
            {
                memo.__name__: memo.cache_info().misses - start
                for memo, start in zip(MEMOS, before)
            }
        )
        kept.append({name: len(memo) for name, memo in CONTENT_MEMOS.items()})
        return ok, report

    out, err = io.StringIO(), io.StringIO()
    verify.clear_memos()
    t0 = time.perf_counter()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "run_criteria", recorded)
        mp.setattr(sequences, "_build_M_layout", counted)
        mp.setattr(sequences, "shift", counted_shift)
        mp.setattr(hecke.ModulePresentation, "_check_relations", counted_check)
        mp.setattr(specht, "_multiplicities", counted_multiplicities)
        code = verify.verify_all(N_MAX, out=out, err=err)
    total = time.perf_counter() - t0
    timings = {}
    for line in err.getvalue().splitlines():
        match = re.match(r"\[timing\] (.+): ([0-9.]+)s", line)
        if match:
            timings.setdefault(match.group(1), float(match.group(2)))
    return {
        "code": code,
        "out": out.getvalue(),
        "first": reports[0],
        "second": reports[1],
        "misses": misses,
        "builds": builds,
        "shifts": shifts,
        "kept": kept,
        "timings": timings,
        "total": total,
    }


def criterion_line(battery, idx):
    return battery["first"].splitlines()[idx - 1]


def test_01_algebra_relations(battery):
    row = criterion_line(battery, 1)
    assert row.startswith("PASS"), row
    assert battery["timings"]["relation-suite"] < 30.0


def test_02_seminormal_modules(battery):
    row = criterion_line(battery, 2)
    assert row.startswith("PASS"), row
    assert battery["timings"]["seminormal-suite"] < 60.0


def test_03_decomposition_and_branching(battery):
    row = criterion_line(battery, 3)
    assert row.startswith("PASS"), row


def test_04_coinvariant_dimensions(battery):
    row = criterion_line(battery, 4)
    assert row.startswith("PASS"), row


def test_05_injectivity_and_surjectivity_degrees(battery):
    row = criterion_line(battery, 5)
    assert row.startswith("PASS"), row


def test_06_weight_bounds(battery):
    row = criterion_line(battery, 6)
    assert row.startswith("PASS"), row


def test_07_stability_onset_and_tables(battery):
    row = criterion_line(battery, 7)
    assert row.startswith("PASS"), row


def test_08_shift_decomposition(battery):
    row = criterion_line(battery, 8)
    assert row.startswith("PASS"), row


def test_09_double_coset_combinatorics(battery):
    row = criterion_line(battery, 9)
    assert row.startswith("PASS"), row


def test_10_random_submodule_generation(battery):
    row = criterion_line(battery, 10)
    assert row.startswith("PASS"), row


def test_11_unstable_counterexample(battery):
    row = criterion_line(battery, 11)
    assert row.startswith("PASS"), row


def test_12_reports_byte_identical(battery):
    assert battery["first"].encode() == battery["second"].encode()
    assert battery["out"] == battery["first"] + (
        "PASS 12 determinism: two runs produced byte-identical reports\n"
    )
    assert battery["code"] == 0
    assert battery["total"] < 600.0


def test_12_second_pass_recomputes(battery):
    # verify_all clears the memos between the passes, so pass 2 builds
    # every module and table that pass 1 built, and checks and decomposes
    # as many modules
    first, second = battery["misses"]
    assert all(first.values())
    assert second == first


def test_12_each_tower_built_once_per_pass(battery):
    # build_Mm, build_M_specht and shift_decompose_Mm share the tower memos,
    # so a cold pass builds each (m or lam, n_max) once; pass 2 rebuilds
    # every tower pass 1 built, in the same order
    first, second = battery["builds"]
    assert ("M(2)", 6) in first and ("M(S(2,1))", 6) in first
    assert max(Counter(first).values()) == 1
    assert second == first


def test_12_each_shift_split_once_per_pass(battery):
    # criterion 8 splits S_+a M(m) for m <= 3 and a <= 2 at n_max 6; the
    # split memo makes each (m, a) once per pass, and pass 2 splits again
    first, second = battery["shifts"]
    assert sorted(first) == [
        (f"M({m})", 6 + a, a) for m in (1, 2, 3) for a in (0, 1, 2)
    ]
    assert second == first
    assert [made["_shift_split"] for made in battery["misses"]] == [9, 9]


def test_12_each_module_checked_and_decomposed_once_per_pass(battery):
    # decompose runs once per content key, and each pass starts from
    # cleared memos: a pass that solved a key twice would keep fewer keys
    # than it made solves
    for made, kept in zip(battery["misses"], battery["kept"]):
        for name in CONTENT_MEMOS:
            assert made[name] == kept[name] > 0, name
    assert battery["kept"][0] == battery["kept"][1]
    # a module is checked where it is built: the 30 Specht modules of ranks
    # 0-6 once per shape and the 6 regular modules of ranks 0-5 once per
    # rank.  Induced modules and the towers' sums inherit their relations.
    # The regular and the Specht module of H_0, and those of H_1, have
    # equal content; these four have no generator, so their checks do no
    # work
    assert [made["_check_relations"] for made in battery["misses"]] == [36, 36]


def package_caches() -> dict:
    """{qualified name: memo} of every functools cache in the package, and
    of every memo assigned at module level that has a cache_clear.

    Each cache is found by its decorator in the source, so a cache the
    lookup cannot reach (a method or nested function) fails the count below.
    """
    found = {}
    for path in sorted(Path(heckestab.__file__).parent.glob("*.py")):
        module = importlib.import_module(
            "heckestab" if path.stem == "__init__" else f"heckestab.{path.stem}"
        )
        source = path.read_text()
        names = re.findall(
            r"^@(?:functools\.)?(?:lru_)?cache\b.*\n(?:@.*\n)*def (\w+)", source, re.M
        )
        decorators = re.findall(r"^\s*@(?:functools\.)?(?:lru_)?cache\b", source, re.M)
        assert len(names) == len(decorators), path.name
        for name in names:
            found[f"{module.__name__}.{name}"] = getattr(module, name)
        for name in re.findall(r"^(\w+)(?:: [^=\n]+)? = ", source, re.M):
            if hasattr(getattr(module, name, None), "cache_clear"):
                found[f"{module.__name__}.{name}"] = getattr(module, name)
    return found


def test_clear_memos_clears_every_package_cache():
    caches = package_caches()
    assert len(caches) >= len(MEMOS) + len(CONTENT_MEMOS) + 1
    assert {
        "heckestab.specht._decompositions",
        "heckestab.sequences._last_loaded",
        "heckestab.cli.build_parser",
    } <= set(caches)
    cleared = []
    with ExitStack() as stack:
        for name, memo in caches.items():
            stack.enter_context(
                mock.patch.object(
                    memo, "cache_clear", lambda name=name: cleared.append(name)
                )
            )
        verify.clear_memos()
    assert sorted(cleared) == sorted(caches)


def test_clear_memos_finds_a_memo_by_its_declaration(monkeypatch):
    # memos that clear_memos names nowhere: one keyed by content and one
    # functools cache, each declared at the top level of a package module.
    # The ContentMemo class itself sits in hecke's namespace too, and an
    # unbound cache_clear would raise there
    content = hecke.ContentMemo({b"key": None})
    cached = functools.cache(abs)
    cached(-1)
    monkeypatch.setattr(sequences, "_planted_content", content, raising=False)
    monkeypatch.setattr(sequences, "_planted_cache", cached, raising=False)
    verify.clear_memos()
    assert not content
    assert cached.cache_info().currsize == 0


def refuse_every_generator(monkeypatch):
    """Make the relation check fail on every module with a generator."""
    check = hecke.ModulePresentation._check_relations

    def refused(module):
        if module.gen_action:
            raise ValueError(f"relation failure: planted at H_{module.n}")
        return check(module)

    monkeypatch.setattr(hecke.ModulePresentation, "_check_relations", refused)


def test_01_fails_when_a_regular_module_fails_its_check(monkeypatch):
    # regular_representation(2) is the first module the suite checks that
    # has a generator
    refuse_every_generator(monkeypatch)
    ok, report = verify.run_criteria(N_MAX, err=io.StringIO())
    assert not ok
    assert report.splitlines()[0] == (
        "FAIL  1 relation-suite: ValueError: relation failure: planted at H_2"
    )


def test_02_fails_when_a_specht_module_fails_its_check(monkeypatch):
    # S^(2) is the first shape the suite builds that has a generator
    refuse_every_generator(monkeypatch)
    ok, report = verify.run_criteria(N_MAX, err=io.StringIO())
    assert not ok
    assert report.splitlines()[1] == (
        "FAIL  2 seminormal-suite: ValueError: relation failure: planted at H_2"
    )


def test_08_fails_when_a_restriction_is_wrong(monkeypatch):
    # a _restriction_matrix that doubles every off-diagonal coordinate: the
    # summand of S_+a M(m) it restricts to no longer equals M(m).  At a = 0
    # the summand is all of M(m), which _subsequence reuses unrestricted,
    # so the first split the mutant reaches is a = 1
    restrict = sequences._restriction_matrix

    def doubled(basis_from, basis_to, mat):
        f = restrict(basis_from, basis_to, mat)
        entries = {(i, j): v + v if i != j else v for (i, j), v in f.entries.items()}
        return ExactMatrix(f.rows, f.cols, entries)

    monkeypatch.setattr(sequences, "_restriction_matrix", doubled)
    assert verify.shift_decomposition(N_MAX) == (
        False,
        "decomposition failed at m=1, a=1",
    )


def test_12_fails_when_a_rebuilt_table_differs(monkeypatch):
    # a character table whose rebuild swaps two row labels: only a second
    # pass that rebuilds the tables can tell the two passes apart
    builds = Counter()
    build = specht.CharacterTable

    def varying(n):
        table = build(n)
        builds[n] += 1
        if builds[n] > 1 and n >= 3:
            labels = list(table.row_labels)
            labels[0], labels[1] = labels[1], labels[0]
            table.row_labels = tuple(labels)
        return table

    monkeypatch.setattr(specht, "CharacterTable", varying)
    monkeypatch.setattr(
        verify, "CRITERIA", [c for c in verify.CRITERIA if c[0] == "decomposition-oracle"]
    )
    specht.character_table.cache_clear()
    out = io.StringIO()
    try:
        code = verify.verify_all(N_MAX, out=out, err=io.StringIO())
    finally:
        specht.character_table.cache_clear()
    assert code == 1
    assert out.getvalue().splitlines() == [
        "PASS  1 decomposition-oracle: regular ranks <= 4 and 50 induction tables"
        " match the Pieri rule",
        "FAIL 12 determinism: reports differ between runs",
    ]


def test_report_matches_golden(battery):
    assert battery["first"].encode() == GOLDEN.read_bytes()
