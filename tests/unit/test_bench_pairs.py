"""The verdict arithmetic of ``tools/bench_pairs.py`` on synthetic pairs."""

from __future__ import annotations

import pytest

from tools.bench_pairs import quartiles, summarize

PARENT = [7.8, 7.1, 8.4, 7.5, 7.9, 9.0, 7.6, 8.1, 7.3, 7.7]


def run_s(change, parent=PARENT, bound=0.25):
    return summarize("run_s", "s", "lower", bound, parent, change)


def test_quartiles_of_ten_samples():
    # statistics.quantiles' default (exclusive) method.
    assert quartiles(PARENT) == pytest.approx((7.45, 7.75, 8.175))
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_clear_gain_is_claimed():
    summary = run_s([p * 0.77 for p in PARENT])
    assert (summary.wins, summary.losses, summary.pairs) == (10, 0, 10)
    assert summary.gain > summary.parent_iqr
    assert summary.gain_claimed
    assert summary.relative_change == pytest.approx(-0.23)
    assert not summary.regressed


def test_eight_wins_in_ten_is_no_gain():
    change = [p * 0.7 for p in PARENT]
    change[0] = change[1] = 10.0
    summary = run_s(change)
    assert summary.wins == 8
    assert summary.gain > summary.parent_iqr
    assert not summary.gain_claimed


def test_gap_inside_the_parent_iqr_is_no_gain():
    summary = run_s([p - 0.1 for p in PARENT])
    assert summary.wins == 10
    assert summary.gain == pytest.approx(0.1)
    assert summary.parent_iqr == pytest.approx(0.725)
    assert not summary.gain_claimed


def test_fewer_than_ten_pairs_is_no_gain():
    summary = run_s([p * 0.7 for p in PARENT[:3]], parent=PARENT[:3])
    assert summary.wins == 3
    assert summary.gain > summary.parent_iqr
    assert not summary.gain_claimed


def test_ties_count_for_neither_side():
    change = list(PARENT)
    change[0] = 1.0
    change[1] = 20.0
    summary = run_s(change)
    assert (summary.wins, summary.losses) == (1, 1)


def test_higher_is_better_metrics_win_upwards():
    parent = [1000.0 + i for i in range(10)]
    summary = summarize(
        "events_per_s", "1/s", "higher", 0.25, parent, [p * 1.3 for p in parent]
    )
    assert summary.wins == 10
    assert summary.gain_claimed
    assert not summary.regressed
    worse = summarize(
        "events_per_s", "1/s", "higher", 0.25, parent, [p * 0.7 for p in parent]
    )
    assert worse.losses == 10
    assert worse.regressed


def test_regression_is_judged_on_the_median_against_the_bound():
    assert run_s([p * 1.2 for p in PARENT]).regressed is False
    assert run_s([p * 1.3 for p in PARENT]).regressed is True
    assert run_s([p * 1.06 for p in PARENT], bound=0.05).regressed is True


def test_unequal_sides_are_rejected():
    with pytest.raises(ValueError):
        run_s(PARENT[:-1])
