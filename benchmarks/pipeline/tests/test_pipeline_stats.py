"""The tail-percentile rule and the verdicts of ``run.py compare``."""

import pytest
from stats import quartiles, relative_spread, tail, verdict


def test_no_tail_below_eleven_samples():
    assert tail([1.0] * 10) is None


def test_tail_has_ten_samples_beyond_it():
    latencies = [float(i) for i in range(100, 0, -1)]  # 1..100, unsorted
    value, percentile = tail(latencies)
    assert value == 90.0
    assert percentile == pytest.approx(90.0)
    assert sum(x > value for x in latencies) == 10


def test_tail_of_eleven_samples_is_the_minimum():
    value, percentile = tail([float(i) for i in range(11)])
    assert value == 0.0
    assert percentile == pytest.approx(100.0 / 11)


def test_quartiles_and_spread():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    assert quartiles(values) == (2.75, 8.25)
    assert relative_spread(values) == pytest.approx(5.5 / 5.5)
    assert quartiles([3.0]) == (3.0, 3.0)


BASE = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]


def test_identical_runs_are_within_bound():
    assert verdict(BASE, list(BASE), 0.10, higher_is_better=False) == "within bound"


def test_clear_gain_is_better():
    faster = [value * 0.8 for value in BASE]
    assert verdict(BASE, faster, 0.10, higher_is_better=False) == "better"
    assert verdict(BASE, faster, 0.10, higher_is_better=True) == "worse"


def test_slower_inside_bound_is_within_bound():
    slower = [value * 1.05 for value in BASE]
    assert verdict(BASE, slower, 0.10, higher_is_better=False) == "within bound"


def test_slower_beyond_bound_is_worse():
    slower = [value * 1.2 for value in BASE]
    assert verdict(BASE, slower, 0.10, higher_is_better=False) == "worse"


def test_noisy_overlapping_runs_are_unresolved():
    noisy = [0.7, 1.4, 0.8, 1.3, 0.9, 1.2, 1.0, 1.5, 0.75, 1.35]
    assert verdict(BASE, noisy, 0.10, higher_is_better=False) == "unresolved"


def test_noisy_but_separated_runs_are_judged():
    noisy_worse = [1.3, 1.9, 1.4, 1.8, 1.5, 1.7, 1.6, 2.0, 1.35, 1.85]
    assert verdict(BASE, noisy_worse, 0.10, higher_is_better=False) == "worse"


def test_better_needs_nine_tenths_of_the_pairs():
    # Seven of ten pairs won: not enough, even with a lower median.
    mixed = [0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 1.05, 1.05, 1.05]
    assert verdict(BASE, mixed, 0.25, higher_is_better=False) == "within bound"
