"""The verdict arithmetic and exit status of ``tools/bench_pairs.py`` on
synthetic pairs."""

from __future__ import annotations

import pytest

from tools import bench_pairs
from tools.bench_pairs import gate_failures, quartiles, summarize

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


#: Failed and attempted runs per side when nothing failed.
NO_FAILURES = {"parent": 0, "change": 0}
RUNS = {"parent": 15, "change": 15}


def exit_status(monkeypatch, summaries, failed=NO_FAILURES, attempted=RUNS):
    """``main``'s exit status with ``run_pairs`` answering synthetic pairs."""
    monkeypatch.setattr(
        bench_pairs, "run_pairs", lambda *args: (summaries, failed, attempted)
    )
    return bench_pairs.main(["--workload", "tpcds-k4", "--parent", "HEAD"])


def test_exit_status_is_0_when_nothing_regressed(monkeypatch):
    summaries = [run_s([p * 1.2 for p in PARENT])]
    assert gate_failures(summaries, NO_FAILURES, RUNS) == []
    assert exit_status(monkeypatch, summaries) == 0


def test_exit_status_is_1_on_a_regressed_metric(monkeypatch):
    summaries = [run_s(list(PARENT)), run_s([p * 1.3 for p in PARENT])]
    reasons = gate_failures(summaries, NO_FAILURES, RUNS)
    assert len(reasons) == 1 and reasons[0].startswith("run_s: median change +30.0%")
    assert exit_status(monkeypatch, summaries) == 1


def test_exit_status_is_1_when_the_change_fails_more_often(monkeypatch):
    summaries = [run_s(list(PARENT))]
    failed = {"parent": 1, "change": 2}
    assert gate_failures(summaries, failed, RUNS) == [
        "failed runs: 2 of 15 vs the parent's 1 of 15"
    ]
    assert exit_status(monkeypatch, summaries, failed) == 1


def test_failures_are_compared_as_shares_of_the_runs(monkeypatch):
    # Each side times as many runs as fit its budget, so counts differ.
    summaries = [run_s(list(PARENT))]
    failed = {"parent": 1, "change": 2}
    attempted = {"parent": 10, "change": 20}
    assert gate_failures(summaries, failed, attempted) == []
    assert exit_status(monkeypatch, summaries, failed, attempted) == 0
    assert gate_failures(summaries, failed, {"parent": 10, "change": 19})
