"""Unit tests for the blocking effect Ψ (paper eq. 2 / eq. 3)."""

import pytest

from repro.core.blocking import (
    beta,
    blocking_effect,
    coflow_psi_clairvoyant,
    coflow_psi_estimated,
    gamma_clairvoyant,
    gamma_estimated,
    job_stage_psi,
)
from repro.jobs import JobBuilder


class TestBeta:
    def test_uniform_coflow_hits_floor(self):
        assert beta(10.0, 10.0) == pytest.approx(0.1)

    def test_elephant_dominance_approaches_one(self):
        assert beta(1000.0, 1.0) == pytest.approx(0.999)

    def test_midrange(self):
        assert beta(10.0, 4.0) == pytest.approx(0.6)

    def test_floor_respected_even_for_near_uniform(self):
        assert beta(10.0, 9.99, floor=0.1) >= 0.1

    def test_no_observation_yet(self):
        assert beta(0.0, 0.0) == pytest.approx(0.1)

    def test_custom_floor(self):
        assert beta(10.0, 10.0, floor=0.25) == pytest.approx(0.25)


class TestGamma:
    def test_clairvoyant_decreases_toward_final_stage(self):
        values = [gamma_clairvoyant(s, 5) for s in range(5)]
        assert values == sorted(values, reverse=True)
        assert values[0] == pytest.approx(1.0)
        assert values[-1] == pytest.approx(0.2)

    def test_clairvoyant_single_stage_job(self):
        assert gamma_clairvoyant(0, 1) == pytest.approx(1.0)

    def test_clairvoyant_clamps_overflow(self):
        assert gamma_clairvoyant(99, 5) == gamma_clairvoyant(4, 5)

    def test_clairvoyant_rejects_bad_total(self):
        with pytest.raises(ValueError):
            gamma_clairvoyant(0, 0)

    def test_estimated_diminishes_with_stage(self):
        values = [gamma_estimated(s) for s in range(10)]
        assert values == sorted(values, reverse=True)
        assert values[0] == pytest.approx(1.0)
        assert gamma_estimated(9) == pytest.approx(0.1)

    def test_estimated_handles_negative_gracefully(self):
        assert gamma_estimated(-1) == pytest.approx(1.0)


class TestBlockingEffect:
    def test_formula_composition(self):
        # Ψ = γ × w × l_max × β with β = 1 - mean/max
        psi = blocking_effect(0.5, 4, 100.0, 25.0)
        assert psi == pytest.approx(0.5 * 4 * 100.0 * 0.75)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            blocking_effect(1.0, -1, 10.0, 5.0)

    def test_wider_coflow_blocks_more(self):
        narrow = blocking_effect(1.0, 2, 100.0, 50.0)
        wide = blocking_effect(1.0, 20, 100.0, 50.0)
        assert wide > narrow

    def test_longer_flows_block_more(self):
        short = blocking_effect(1.0, 4, 10.0, 5.0)
        long = blocking_effect(1.0, 4, 100.0, 50.0)
        assert long > short

    def test_job_stage_psi_sums(self):
        assert job_stage_psi([1.0, 2.0, 3.0]) == pytest.approx(6.0)
        assert job_stage_psi([]) == 0.0

    def test_job_stage_psi_adds_left_to_right(self):
        # Builtin sum() compensates rounding from Python 3.12 on (1.0
        # here); the stage sum must classify alike on every version.
        assert job_stage_psi([0.1] * 10) == 0.9999999999999999


class TestCoflowPsi:
    def _job(self, ids):
        builder = JobBuilder(ids=ids)
        first = builder.add_coflow([(0, 1, 100.0), (2, 3, 20.0)])
        second = builder.add_coflow([(1, 2, 10.0)], depends_on=[first])
        return builder.build(), first, second

    def test_clairvoyant_uses_true_dimensions(self, ids):
        job, first, _second = self._job(ids)
        coflow = job.coflow(first)
        expected = blocking_effect(
            gamma_clairvoyant(0, 2), 2, 100.0, 60.0
        )
        assert coflow_psi_clairvoyant(coflow, job) == pytest.approx(expected)

    def test_final_stage_coflow_gets_lower_gamma(self, ids):
        job, first, second = self._job(ids)
        psi_first = coflow_psi_clairvoyant(job.coflow(first), job)
        # Same dimensions at the final stage would halve gamma (1 -> 0.5).
        assert gamma_clairvoyant(1, 2) == pytest.approx(0.5)

    def test_estimated_starts_at_zero_before_observations(self, ids):
        job, first, _second = self._job(ids)
        coflow = job.coflow(first)
        coflow.release(0.0)
        # No bytes received yet: Ψ̈ must be zero (no evidence of blocking).
        assert coflow_psi_estimated(coflow, completed_stages=0) == 0.0

    def test_estimated_grows_with_observations(self, ids):
        job, first, _second = self._job(ids)
        coflow = job.coflow(first)
        coflow.release(0.0)
        coflow.flows[0].rate = 10.0
        coflow.flows[0].advance(1.0)
        early = coflow_psi_estimated(coflow, completed_stages=0)
        coflow.flows[0].advance(5.0)
        late = coflow_psi_estimated(coflow, completed_stages=0)
        assert late > early > 0.0
