"""Integration tests for the experiment harness (tiny configurations)."""

import pytest

from repro.core.config import GuritaConfig
from repro.experiments import (
    ScenarioConfig,
    build_jobs,
    figure5_configs,
    figure6_config,
    figure7_config,
    figure8_config,
    run_gurita_variant,
    run_scenario,
    run_variants,
    starvation_variants,
    summarize,
)

TINY = dict(num_jobs=6, fattree_k=4, seed=5)


class TestScenario:
    def test_identical_workloads_across_policies(self):
        config = ScenarioConfig(**TINY)
        jobs_a = build_jobs(config, num_hosts=16)
        jobs_b = build_jobs(config, num_hosts=16)
        assert [j.total_bytes for j in jobs_a] == [j.total_bytes for j in jobs_b]
        assert [j.arrival_time for j in jobs_a] == [
            j.arrival_time for j in jobs_b
        ]

    def test_run_scenario_covers_requested_schedulers(self):
        config = ScenarioConfig(**TINY)
        outcome = run_scenario(config, schedulers=("pfs", "gurita"))
        assert set(outcome.results) == {"pfs", "gurita"}
        assert all(r.all_done for r in outcome.results.values())

    def test_improvements_relative_to_reference(self):
        config = ScenarioConfig(**TINY)
        outcome = run_scenario(config, schedulers=("pfs", "gurita"))
        factors = outcome.improvements_over("gurita")
        assert set(factors) == {"pfs"}
        assert factors["pfs"] == pytest.approx(
            outcome.results["pfs"].average_jct()
            / outcome.results["gurita"].average_jct()
        )

    def test_category_improvements_shape(self):
        config = ScenarioConfig(**TINY)
        outcome = run_scenario(config, schedulers=("pfs", "gurita"))
        table = outcome.category_improvements_over("gurita")
        assert "pfs" in table
        assert all(1 <= cat <= 7 for cat in table["pfs"])

    def test_with_overrides(self):
        config = ScenarioConfig().with_overrides(num_jobs=3, seed=9)
        assert config.num_jobs == 3 and config.seed == 9


class TestFigureConfigs:
    def test_figure5_has_four_scenarios(self):
        configs = figure5_configs(num_jobs=4)
        assert [c.name for c in configs] == ["FB-t", "CD-t", "FB-b", "CD-b"]
        assert {c.structure for c in configs} == {"fb-tao", "tpcds"}
        assert {c.arrival_mode for c in configs} == {"uniform", "bursty"}

    def test_figure6_and_7_structures(self):
        assert figure6_config("tpcds").structure == "tpcds"
        assert figure7_config("fb-tao").arrival_mode == "bursty"

    def test_figure7_full_scale_matches_paper(self):
        config = figure7_config("fb-tao", full_scale=True)
        assert config.fattree_k == 48
        assert config.num_jobs == 10_000

    def test_figure8_compares_gurita_to_oracle(self):
        assert figure8_config("fb-tao").schedulers == ("gurita", "gurita+")


class TestAblationHarness:
    def test_variant_runner(self):
        scenario = ScenarioConfig(**TINY)
        result = run_gurita_variant(scenario, GuritaConfig(num_classes=2))
        assert result.all_done

    def test_run_variants_and_summary(self):
        scenario = ScenarioConfig(**TINY)
        results = run_variants(scenario, starvation_variants())
        ranked = summarize(results)
        assert len(ranked) == 2
        assert ranked[0][1] <= ranked[1][1]

    def test_variant_honours_fabric_and_faults(self):
        """A default-config variant replays the scenario exactly as
        ``run_scenario`` does: same fabric, same fault timeline."""
        scenario = ScenarioConfig(
            num_jobs=4,
            topology="bigswitch",
            num_hosts=16,
            fattree_k=4,
            fault_profile="link-flap",
        )
        variant = run_gurita_variant(scenario, GuritaConfig())
        reference = run_scenario(scenario, ("gurita",)).results["gurita"]
        assert variant.fault_stats is not None
        assert (
            variant.job_completion_times()
            == reference.job_completion_times()
        )
