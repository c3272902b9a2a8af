"""Dimensional unit aliases for simulator quantities.

Every scalar the simulator moves around is one of four physical kinds:

* :data:`Seconds` — simulation timestamps, durations, horizons;
* :data:`Bytes` — transfer volumes (flow sizes, port loads, residuals);
* :data:`BytesPerSec` — rates (link capacities, allocated bandwidth);
* :data:`Fraction` — dimensionless ratios (utilization, optimality gaps).

The aliases are plain ``float`` at runtime — annotating a signature with
them changes nothing about execution, pickling, or numeric results.  They
exist so that (a) readers see the unit contract in the signature and
(b) simlint's units layer (SIM301-SIM308) can seed its interprocedural
dimensional-analysis dataflow from the annotations and prove that no
bytes-vs-seconds or rate-vs-volume mixup flows between the lower-bound
theory, the max-min allocator, and the runtime.

A module that adopts these annotations must also be listed in the units
registry (``UNITS_MODULES`` in ``tools/simlint/units.py``); SIM308
reports drift in either direction.  Import under ``TYPE_CHECKING`` where
a runtime import could cycle (the jobs layer); the aliases are only ever
consumed by annotations.
"""

from __future__ import annotations

#: A simulation timestamp or duration, in seconds.
Seconds = float

#: A data volume, in bytes.
Bytes = float

#: A transfer or link rate, in bytes per second.
BytesPerSec = float

#: A dimensionless ratio (utilization, share, optimality gap).
Fraction = float

__all__ = ["Bytes", "BytesPerSec", "Fraction", "Seconds"]
