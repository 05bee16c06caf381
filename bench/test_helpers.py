"""Tests of the benchmark's own helpers: run with ``python -m pytest bench``."""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

from metrics import central, quartiles, self_times, spread, tail
from workloads import (
    WORKLOADS,
    at_one,
    compose,
    conjugate,
    group_product,
    hook_count,
    partitions,
    tower_stable,
)

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def pkg():
    sys.path.insert(0, str(SRC))
    import heckestab

    return heckestab


# -- percentiles and tails ---------------------------------------------------


def test_tail_has_ten_samples_beyond():
    samples = list(range(40, 0, -1))  # 1..40, unsorted
    value, pct, beyond = tail(samples, width=1)
    assert (value, pct, beyond) == (30, 75.0, 10)
    assert sum(1 for s in samples if s > value) == 10


def test_tail_averages_the_order_statistics_below_the_tail_rank():
    value, pct, beyond = tail(range(1, 41))
    assert (value, pct, beyond) == (28.0, 75.0, 10)  # mean of 26..30
    assert tail(range(11)) == (0, 100.0 * 1 / 11, 10)  # window clipped at 0


def test_tail_percentile_is_fixed_by_the_pass_not_the_run():
    deck = list(range(1, 41))
    one = tail(deck)
    two = tail(deck + deck, passes=2)
    assert two == (one[0], one[1], 20)  # same rank, twice the samples beyond
    assert tail(deck * 3, passes=3, width=1) == (30, 75.0, 30)
    with pytest.raises(ValueError):
        tail(deck + [41], passes=2)


def test_tail_with_too_few_samples_is_the_maximum_with_none_beyond():
    assert tail([3, 1, 2]) == (3, 100.0, 0)
    with pytest.raises(ValueError):
        tail([])


def test_central_is_the_mean_of_the_middle_fifth():
    assert central(range(1, 11)) == 5.5  # mean of 5 and 6
    assert central([9, 1, 5]) == 5  # one sample: the median
    assert central(list(range(100)) + [10**6]) == 49.5  # mean of 40..59
    with pytest.raises(ValueError):
        central([])


def test_quartiles_and_spread_follow_statistics_quantiles():
    values = list(range(1, 11))
    assert quartiles(values) == (2.75, 5.5, 8.25)
    assert spread(values) == pytest.approx(1.0)


# -- self time -----------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
    ]
    times = self_times(spans)
    assert times["a"] == [1, pytest.approx(3.0)]
    assert times["b"] == [2, pytest.approx(2.0 + 4.0)]
    assert times["c"] == [1, pytest.approx(1.0)]
    total = sum(t for _, t in times.values())
    assert total == pytest.approx(10.0)


# -- combinatorial oracles -----------------------------------------------------


def test_partitions_conjugates_and_hook_counts():
    assert [len(partitions(n)) for n in range(8)] == [1, 1, 2, 3, 5, 7, 11, 15]
    assert conjugate((4, 2, 1)) == (3, 2, 1, 1)
    assert [hook_count(lam) for lam in ((4, 2, 1), (3, 2), (7,), ())] == [35, 5, 1, 1]
    assert sum(hook_count(lam) ** 2 for lam in partitions(6)) == 720


def test_tower_stability_prediction(pkg):
    assert tower_stable(pkg, "Mm", 2, 6)
    assert not tower_stable(pkg, "Mm", 3, 6)
    assert tower_stable(pkg, "M-specht", (2, 1), 6)
    assert not tower_stable(pkg, "M-specht", (3,), 6)


# -- the q = 1 Hecke oracle ---------------------------------------------------


def test_specialization_and_composition():
    assert at_one((-1, 1)) == 0  # q - 1
    assert at_one((1, 1), (2,)) == 1  # (q + 1) / 2
    w, v = (2, 3, 1), (2, 1, 3)
    assert compose(w, v) == (3, 2, 1)  # (w o v)(1) = w(v(1)) = w(2) = 3


def test_group_product_of_a_simple_reflection_squared():
    # T_1 T_1 = (q-1) T_1 + q T_e, which is e at q = 1
    s = (((2, 1), (0, 1)),)  # the element q T_1; q * q at q = 1 is 1
    assert group_product(s, s) == {(1, 2): 1}


def test_hecke_oracle_accepts_products_and_rejects_a_changed_one(pkg):
    hecke = WORKLOADS["hecke"]
    jobs = hecke.pass_jobs(random.Random(5))[:4]
    for job in jobs:
        product = hecke.call(pkg, hecke.prepare(pkg, job))
        ok, _ = hecke.check(pkg, job, product)
        assert ok
    w = next(iter(product.coeffs))
    product.coeffs[w] = product.coeffs[w] + 1
    ok, _ = hecke.check(pkg, jobs[-1], product)
    assert not ok


def test_decks_depend_only_on_the_seed():
    for workload in WORKLOADS.values():
        first = workload.pass_jobs(random.Random(3))
        assert first == workload.pass_jobs(random.Random(3))
        assert first != workload.pass_jobs(random.Random(4))
