"""Exponentially spaced priority thresholds.

Both the TBS-based baselines (Aalo, Stream) and Gurita map a scalar score
(accumulated bytes sent, or the blocking effect Ψ) to one of K priority
queues by comparing it to exponentially spaced thresholds — the spacing
recommended by Aalo (paper §IV.B, "These thresholds are determined using
exponentially-spaced as recommended by [5]").
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import List, Tuple

from repro.errors import SchedulerError

#: Aalo's first queue boundary: 10 MB.
DEFAULT_FIRST_THRESHOLD = 10e6
#: Aalo's multiplier between successive queue boundaries.
DEFAULT_THRESHOLD_BASE = 10.0


@dataclass(frozen=True)
class ExponentialThresholds:
    """K priority classes split by boundaries ``first * base**i``.

    Class 0 (highest priority) holds scores below ``first``; class ``K-1``
    (lowest) holds scores at or above ``first * base**(K-2)``.
    """

    num_classes: int
    first: float = DEFAULT_FIRST_THRESHOLD
    base: float = DEFAULT_THRESHOLD_BASE

    def __post_init__(self) -> None:
        if self.num_classes < 1:
            raise SchedulerError("need at least one priority class")
        if self.first <= 0 or self.base <= 1:
            raise SchedulerError(
                f"thresholds need first > 0 and base > 1, "
                f"got first={self.first}, base={self.base}"
            )

    @property
    def boundaries(self) -> List[float]:
        """The K-1 class boundaries, ascending."""
        return list(self._boundaries)

    @cached_property
    def _boundaries(self) -> Tuple[float, ...]:
        # Computed on first use, not in __post_init__: unpickling skips
        # __post_init__, and an instance pickled before this cache existed
        # (a checkpoint) must still classify.
        return tuple(self.first * self.base**i for i in range(self.num_classes - 1))

    def class_of(self, score: float) -> int:
        """Priority class for a score (0 = highest priority)."""
        return bisect_right(self._boundaries, score)

    def demoted(self, score: float, floor_class: int) -> int:
        """Class for a score, never better (smaller) than ``floor_class``.

        Models the paper's rule that a deprioritized job's new coflows
        inherit at least the job's current (worse) priority.
        """
        return max(self.class_of(score), floor_class)
