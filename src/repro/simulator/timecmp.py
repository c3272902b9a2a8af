"""Blessed float-time comparison helpers.

Simulation timestamps are floats, and two timestamps produced by different
arithmetic paths may disagree in the last few ulps even when they denote
the same instant.  Exact ``==``/``!=`` on timestamps is therefore banned by
simlint (rule SIM004) everywhere except this module; compare through
:func:`times_close` / :func:`time_before` instead.

The resolution model matches the runtime's event batching: anything within
8 ulps of the clock (floored at :data:`TIME_EPSILON` near zero) is below
simulation time resolution.
"""

from __future__ import annotations

import math

from repro.simulator.units import Seconds

#: Absolute floor of the time resolution (seconds); relevant only near t=0.
TIME_EPSILON: Seconds = 1e-15

#: Relative resolution in units of ulps at the current clock value.
RESOLUTION_ULPS = 8.0


def time_resolution(t: Seconds) -> Seconds:
    """The smallest meaningful time step at clock value ``t``.

    Events closer together than this are considered simultaneous; flows
    whose remaining transfer time falls below it cannot make float-visible
    progress.
    """
    return max(math.ulp(abs(t)) * RESOLUTION_ULPS, TIME_EPSILON)


def times_close(a: Seconds, b: Seconds) -> bool:
    """Do ``a`` and ``b`` denote the same simulation instant?

    The tolerance is the coarser of the two clocks' resolutions.
    ``math.ulp`` is monotone in ``|t|``, so that is the resolution at
    the larger magnitude: one :func:`time_resolution` call, not two.
    """
    return abs(a - b) <= time_resolution(max(abs(a), abs(b)))


def time_before(a: Seconds, b: Seconds) -> bool:
    """Is ``a`` strictly before ``b``, beyond float time resolution?"""
    return a < b - time_resolution(max(abs(a), abs(b)))
