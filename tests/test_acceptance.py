"""Acceptance battery: every headline claim checked in exact arithmetic.

Runs the full verification suite twice (the second pass feeds the
determinism check) and exposes each criterion as its own pass/fail
test.  All comparisons are exact; there are no numeric tolerances
anywhere in the battery.
"""

import io
import re
import time
from pathlib import Path

import pytest

from heckestab.verify import run_criteria

N_MAX = 6

# run_criteria(6)'s report, pinned: `verify all` prints it before line 12
GOLDEN = Path(__file__).parent / "golden" / "verify_all.txt"


@pytest.fixture(scope="module")
def battery():
    err_first = io.StringIO()
    err_second = io.StringIO()
    t0 = time.perf_counter()
    _, report_first = run_criteria(N_MAX, err=err_first)
    _, report_second = run_criteria(N_MAX, err=err_second)
    total = time.perf_counter() - t0
    timings = {}
    for line in err_first.getvalue().splitlines():
        match = re.match(r"\[timing\] (.+): ([0-9.]+)s", line)
        if match:
            timings[match.group(1)] = float(match.group(2))
    return {
        "first": report_first,
        "second": report_second,
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
    assert battery["total"] < 600.0


def test_report_matches_golden(battery):
    assert battery["first"].encode() == GOLDEN.read_bytes()
