"""Host-clock access for experiment *reporting* — never simulation time.

The simulator's determinism contract (enforced by simlint's SIM001) bans
wall-clock reads anywhere scheduling or allocation decisions are made:
simulated time must come from the event clock.  Measuring how long an
*experiment* took on the host is a different thing — it feeds progress
bars, worker-utilization reports, per-unit timeouts, run budgets and
cache speedup numbers, and never flows back into a simulation.

All wall-clock access of the experiments package is concentrated here so
the parallel engine itself (:mod:`repro.experiments.parallel`) stays free
of SIM001/SIM002 hits even when linted under the simulator scope — the
unit suite asserts exactly that.
"""

from __future__ import annotations

from time import perf_counter


def host_clock() -> float:
    """Seconds on a monotonic host clock (reporting only).

    The absolute value is meaningless; only differences are.  This must
    never be used as a simulation timestamp.
    """
    return perf_counter()
