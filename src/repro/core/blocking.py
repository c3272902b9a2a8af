"""The blocking effect Ψ — Gurita's scheduling score (paper eq. 2 and 3).

A coflow's blocking effect quantifies how likely it is to delay the
completion of *other* jobs, combining the three dimensions of a multi-stage
coflow:

* horizontal — its width ``w`` (number of flows),
* vertical — its largest flow ``l_max``,
* depth — how close the job is to its final stage (weight ``gamma``).

::

    Ψ_c = gamma × w × l_max × beta                          (eq. 2)

``beta`` normalizes the largest flow against the coflow's average flow
size: a lone elephant among mice blocks more than uniform flows of the
same maximum.  Jobs in late stages get small ``gamma`` (rule 3: finish
what is nearly done).  Scheduling ascends Ψ — Least Blocking Effect First.

The clairvoyant forms take true sizes and stage counts (GuritaPlus / the
ideal-condition design); the estimated forms use only receiver-observable
quantities (eq. 3): open connections, bytes received per flow, and the
count of completed stages.
"""

from __future__ import annotations

from typing import Iterable

from repro.floatsum import ordered_sum
from repro.jobs.coflow import Coflow
from repro.jobs.job import Job

#: Default β when the largest flow equals the average (uniform coflow).
DEFAULT_BETA_FLOOR = 0.1


def beta(
    max_flow_bytes: float,
    mean_flow_bytes: float,
    floor: float = DEFAULT_BETA_FLOOR,
) -> float:
    """Elephant-dominance factor β (paper eq. 2's normalizer).

    With ``alpha = mean / max``: ``β = 1 - alpha`` when ``alpha < 1`` and
    ``β = floor`` otherwise.  β → 1 when one elephant dwarfs the average
    (the coflow can badly delay others); β = floor for uniform coflows.
    """
    if max_flow_bytes <= 0:
        # Nothing observed yet: no evidence of vertical blocking.
        return floor
    alpha = min(mean_flow_bytes / max_flow_bytes, 1.0)
    if alpha < 1.0:
        return max(1.0 - alpha, floor)
    return floor


def gamma_clairvoyant(completed_stages: int, total_stages: int) -> float:
    """Final-stage weight γ = 1 - s / s_total (paper eq. 2).

    Decreases as the job approaches its final stage, boosting priority
    (rule 3).  For the last stage of an ``n``-stage job, γ = 1/n.
    """
    if total_stages < 1:
        raise ValueError("total_stages must be >= 1")
    completed = min(max(completed_stages, 0), total_stages - 1)
    return 1.0 - completed / total_stages


def gamma_estimated(completed_stages: int) -> float:
    """Online γ̈ ≈ 1 / (s + 1) when the total stage count is unknown.

    The paper keeps the influence diminishing as s → ∞ to avoid falsely
    treating deep jobs as near-final.
    """
    return 1.0 / (max(completed_stages, 0) + 1)


def blocking_effect(
    gamma: float,
    width: float,
    max_flow_bytes: float,
    mean_flow_bytes: float,
    beta_floor: float = DEFAULT_BETA_FLOOR,
) -> float:
    """Ψ = γ × w × l_max × β — the generic form behind eq. 2 and eq. 3."""
    if width < 0 or max_flow_bytes < 0:
        raise ValueError("width and max_flow_bytes must be non-negative")
    return (
        gamma
        * width
        * max_flow_bytes
        * beta(max_flow_bytes, mean_flow_bytes, floor=beta_floor)
    )


def coflow_psi_clairvoyant(
    coflow: Coflow,
    job: Job,
    beta_floor: float = DEFAULT_BETA_FLOOR,
) -> float:
    """Eq. 2: Ψ with full knowledge of sizes and the job's stage count."""
    gamma = gamma_clairvoyant(coflow.stage - 1, job.num_stages)
    return blocking_effect(
        gamma,
        coflow.width,
        coflow.max_flow_bytes,
        coflow.mean_flow_bytes,
        beta_floor=beta_floor,
    )


def coflow_psi_estimated(
    coflow: Coflow,
    completed_stages: int,
    beta_floor: float = DEFAULT_BETA_FLOOR,
) -> float:
    """Eq. 3: Ψ̈ from receiver-observable quantities only.

    Width is estimated by the number of open connections; the largest and
    mean flow sizes by the bytes each flow has delivered so far; γ̈ by the
    completed-stage count.
    """
    width, observed_max, observed_mean = coflow.observed_stats()
    return blocking_effect(
        gamma_estimated(completed_stages),
        width,
        observed_max,
        observed_mean,
        beta_floor=beta_floor,
    )


def psi_from_observation(
    open_connections: int,
    max_flow_bytes: float,
    mean_flow_bytes: float,
    completed_stages: int,
    beta_floor: float = DEFAULT_BETA_FLOOR,
) -> float:
    """Eq. 3 from explicit receiver-side observations.

    Same formula as :func:`coflow_psi_estimated`, but fed by the merged
    receiver reports of the observation plane instead of direct coflow
    state (see :mod:`repro.core.receiver`).
    """
    return blocking_effect(
        gamma_estimated(completed_stages),
        open_connections,
        max_flow_bytes,
        mean_flow_bytes,
        beta_floor=beta_floor,
    )


def job_stage_psi(coflow_psis: Iterable[float]) -> float:
    """Ψ_J(s): the job's per-stage blocking effect — the sum over its
    coflows in that stage (paper §IV.B), added left to right so that it
    classifies alike on every supported interpreter.
    """
    return ordered_sum(coflow_psis)
