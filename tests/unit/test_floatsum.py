"""``ordered_sum`` adds left to right on every supported Python version."""

from repro.floatsum import ordered_sum
from repro.workloads.tpcds import RELATIVE_VOLUMES


def test_tenths_add_left_to_right():
    # Builtin sum() reads 1.0 here from Python 3.12 on.
    assert ordered_sum([0.1] * 10) == 0.9999999999999999


def test_tpcds_relative_volumes():
    # Every generated TPC-DS flow size divides by this sum.
    assert ordered_sum(RELATIVE_VOLUMES) == 1.7300000000000002


def test_integers_stay_exact_integers():
    total = ordered_sum([2**60, 1, 2])
    assert total == 2**60 + 3 and isinstance(total, int)
    assert ordered_sum([]) == 0
