"""One float sum on every supported Python version.

From Python 3.12 on, builtin ``sum()`` compensates float rounding, so a
float sum over simulation inputs (flow sizes, volume weights, Ψ̈ terms)
would differ in its last bits between interpreters, and every JCT
computed from it with them.  :func:`ordered_sum` adds left to right, as
``sum()`` does up to Python 3.11, on every version.  Integer sums are
exact either way and stay on builtin ``sum``.
"""

from __future__ import annotations

from typing import Iterable


def ordered_sum(values: Iterable[float]) -> float:
    """``values`` added left to right, starting from ``0`` like ``sum()``."""
    total: float = 0
    for value in values:
        total += value
    return total


__all__ = ["ordered_sum"]
