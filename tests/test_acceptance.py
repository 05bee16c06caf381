"""Acceptance battery: every headline claim checked in exact arithmetic.

Runs the full verification suite twice (the second pass feeds the
determinism check) and exposes each criterion as its own pass/fail
test.  All comparisons are exact; there are no numeric tolerances
anywhere in the battery.
"""

import io
import re
import time
from collections import Counter
from pathlib import Path

import pytest

from heckestab import hecke, partitions, specht, verify

N_MAX = 6

# run_criteria(6)'s report, pinned: `verify all` prints it before line 12
GOLDEN = Path(__file__).parent / "golden" / "verify_all.txt"

# the process memos a battery pass fills
MEMOS = (
    specht._verified_specht,
    specht.character_table,
    hecke._verified_regular,
    hecke._kept_steps,
    partitions.partitions_of,
    partitions._murnaghan_nakayama,
)


@pytest.fixture(scope="module")
def battery():
    """verify_all from cleared memos, with each pass's report and misses."""
    reports, misses = [], []
    run_criteria = verify.run_criteria

    def recorded(n_max, err):
        before = [memo.cache_info().misses for memo in MEMOS]
        ok, report = run_criteria(n_max, err=err)
        reports.append(report)
        misses.append(
            {
                memo.__name__: memo.cache_info().misses - start
                for memo, start in zip(MEMOS, before)
            }
        )
        return ok, report

    out, err = io.StringIO(), io.StringIO()
    verify.clear_memos()
    t0 = time.perf_counter()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "run_criteria", recorded)
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
    # every module and table that pass 1 built
    first, second = battery["misses"]
    assert all(first.values())
    assert second == first


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
