"""Unit tests for the deterministic fault-injection subsystem.

Covers the pure layers: seed-derived fault streams, profile/timeline
construction, the injector's reference-counted outage state, HR channel
dispositions, and the statistics surface.
"""

from __future__ import annotations

import pytest

from repro.errors import FaultError
from repro.simulator.faults import (
    CANNED_PROFILES,
    HR_DELAY,
    HR_DELIVER,
    HR_DROP,
    POLICY_RESTART,
    POLICY_RESUME,
    FaultInjector,
    FaultKind,
    FaultProfile,
    FaultStats,
    HostFault,
    HRDegradation,
    LinkFault,
    SwitchFault,
    build_timeline,
    default_fault_horizon,
    derive_fault_seed,
    fault_stream_u64,
    fault_stream_uniform,
    profile_from_name,
)
from repro.simulator.topology.fattree import FatTreeTopology


@pytest.fixture(scope="module")
def topo():
    return FatTreeTopology(k=4)


# ----------------------------------------------------------------------
# Fault streams
# ----------------------------------------------------------------------
class TestFaultStreams:
    def test_stream_is_deterministic(self):
        a = fault_stream_u64(7, "links", 0, 1)
        assert a == fault_stream_u64(7, "links", 0, 1)

    def test_stream_varies_with_every_component(self):
        base = fault_stream_u64(7, "links", 0, 1)
        assert base != fault_stream_u64(8, "links", 0, 1)
        assert base != fault_stream_u64(7, "hosts", 0, 1)
        assert base != fault_stream_u64(7, "links", 1, 1)
        assert base != fault_stream_u64(7, "links", 0, 2)

    def test_uniform_is_in_unit_interval(self):
        for index in range(200):
            sample = fault_stream_uniform(3, "u", index)
            assert 0.0 <= sample < 1.0

    def test_derive_fault_seed_matches_unit_seed_discipline(self):
        seed = derive_fault_seed(42, "link-flap")
        assert seed == derive_fault_seed(42, "link-flap")
        assert seed != derive_fault_seed(42, "hr-loss")
        assert seed != derive_fault_seed(43, "link-flap")
        assert 0 <= seed < 2**63


# ----------------------------------------------------------------------
# Specs, profiles, timelines
# ----------------------------------------------------------------------
class TestProfiles:
    def test_canned_profiles_materialize(self, topo):
        for name in CANNED_PROFILES:
            profile = profile_from_name(name, seed=derive_fault_seed(1, name))
            timeline = build_timeline(profile, topo, horizon=10.0)
            # hr-loss degrades only the control channel: no fabric events.
            if name == "hr-loss":
                assert not timeline
                assert profile.hr is not None
            else:
                assert timeline, name

    def test_unknown_profile_raises(self):
        with pytest.raises(FaultError):
            profile_from_name("not-a-profile")

    def test_intensity_scales_incident_count(self, topo):
        seed = derive_fault_seed(5, "link-flap")
        light = profile_from_name("link-flap", intensity=1.0, seed=seed)
        heavy = profile_from_name("link-flap", intensity=3.0, seed=seed)
        few = build_timeline(light, topo, horizon=10.0)
        many = build_timeline(heavy, topo, horizon=10.0)
        assert len(many) > len(few)

    def test_timeline_is_deterministic_and_sorted(self, topo):
        profile = profile_from_name(
            "chaos", seed=derive_fault_seed(9, "chaos")
        )
        one = build_timeline(profile, topo, horizon=20.0)
        two = build_timeline(profile, topo, horizon=20.0)
        assert one == two
        assert [a.time for a in one] == sorted(a.time for a in one)

    def test_scheduled_specs_expand_to_their_cable(self, topo):
        cable = next(iter(topo.links))
        spec = LinkFault(
            src_node=cable.src_node, dst_node=cable.dst_node,
            at=1.0, duration=2.0,
        )
        profile = FaultProfile(name="one-link", specs=(spec,), seed=3)
        timeline = build_timeline(profile, topo, horizon=10.0)
        downs = [a for a in timeline if a.kind == FaultKind.LINK_DOWN]
        ups = [a for a in timeline if a.kind == FaultKind.LINK_UP]
        assert len(downs) == 1 and len(ups) == 1
        # Both directions of the cable go down together.
        assert len(downs[0].links) == 2
        assert downs[0].time == 1.0 and ups[0].time == 3.0

    def test_switch_fault_downs_every_attached_link(self, topo):
        switch = next(
            link.src_node
            for link in topo.links
            if not link.src_node.startswith("h")
        )
        profile = FaultProfile(
            name="one-switch",
            specs=(SwitchFault(node=switch, at=2.0, duration=1.0),),
            seed=11,
        )
        timeline = build_timeline(profile, topo, horizon=10.0)
        downs = [a for a in timeline if a.kind == FaultKind.SWITCH_DOWN]
        assert len(downs) == 1
        # An edge switch in a k=4 FatTree has 4 attached duplex cables.
        assert len(downs[0].links) >= 4

    def test_host_fault_policies(self, topo):
        for policy in (POLICY_RESTART, POLICY_RESUME):
            profile = FaultProfile(
                name="crash",
                specs=(HostFault(host=0, at=1.0, duration=1.0, policy=policy),),
                seed=1,
            )
            timeline = build_timeline(profile, topo, horizon=10.0)
            down = next(
                a for a in timeline if a.kind == FaultKind.HOST_DOWN
            )
            assert down.hosts == (0,)
            assert down.policy == policy

    def test_hr_degradation_validates_fractions(self):
        with pytest.raises(FaultError):
            HRDegradation(drop_fraction=0.8, delay_fraction=0.4)
        with pytest.raises(FaultError):
            HRDegradation(drop_fraction=-0.1)

    def test_default_fault_horizon_covers_arrivals(self):
        assert default_fault_horizon([0.0, 2.0, 5.0]) == 11.0
        assert default_fault_horizon([]) == 1.0


# ----------------------------------------------------------------------
# Injector state machine
# ----------------------------------------------------------------------
class TestInjector:
    def _injector(self, topo, specs, hr=None):
        profile = FaultProfile(name="t", specs=tuple(specs), hr=hr, seed=2)
        return FaultInjector(profile, topo, horizon=10.0)

    def test_refcounted_link_outage(self, topo):
        injector = self._injector(topo, [])
        newly = injector.links_down([3, 4])
        assert newly == [3, 4]
        assert injector.links_down([3]) == []  # second fault, same link
        assert injector.links_up([3]) == []  # one repair outstanding
        assert 3 in injector.downed_links
        assert injector.links_up([3]) == [3]  # last repair restores it
        assert 3 not in injector.downed_links

    def test_refcounted_host_outage(self, topo):
        injector = self._injector(topo, [])
        assert injector.hosts_down([5], POLICY_RESTART) == [5]
        assert injector.hosts_down([5], POLICY_RESTART) == []
        assert injector.hosts_up([5]) == []
        assert injector.hosts_up([5]) == [5]
        assert 5 not in injector.crashed_hosts

    def test_hr_disposition_is_deterministic_per_round(self, topo):
        hr = HRDegradation(drop_fraction=0.5, delay_fraction=0.3)
        one = self._injector(topo, [], hr=hr)
        two = self._injector(topo, [], hr=hr)
        rounds = [one.hr_disposition(i, now=float(i)) for i in range(50)]
        assert rounds == [two.hr_disposition(i, now=float(i)) for i in range(50)]
        kinds = {kind for kind, _delay in rounds}
        assert kinds <= {HR_DELIVER, HR_DROP, HR_DELAY}
        assert HR_DROP in kinds and HR_DELAY in kinds

    def test_hr_disposition_without_degradation_always_delivers(self, topo):
        injector = self._injector(topo, [])
        assert injector.hr_disposition(0, now=0.0) == (HR_DELIVER, 0.0)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
class TestFaultStats:
    def test_recovery_aggregates(self):
        stats = FaultStats(recovery_seconds=[1.0, 3.0])
        assert stats.max_recovery_seconds == 3.0
        assert stats.mean_recovery_seconds == 2.0
        assert FaultStats().max_recovery_seconds == 0.0

    def test_staleness_histogram_buckets(self):
        stats = FaultStats(hr_staleness=[0.05, 0.15, 0.15, 0.9])
        assert stats.staleness_histogram([0.1, 0.2]) == [1, 2, 1]
        assert FaultStats().staleness_histogram([0.1]) == [0, 0]


# ----------------------------------------------------------------------
# Reporting surfaces
# ----------------------------------------------------------------------
class TestCounterSurface:
    def test_fault_counters_zero_filled_without_profile(self):
        from repro.simulator.observability import fault_counters
        from repro.simulator.runtime import SimulationResult

        counters = fault_counters(
            SimulationResult(
                jobs=[], makespan=0.0, events_processed=0,
                reallocations=0, scheduler_name="none",
            )
        )
        assert counters["faults_injected"] == 0.0
        assert counters["flows_rerouted"] == 0.0
        assert counters["max_hr_staleness"] == 0.0

    def test_format_fault_table_renders_all_schedulers(self):
        from repro.metrics.report import format_fault_table

        table = format_fault_table(
            {
                "gurita": {"flows_rerouted": 3.0, "flow_restarts": 1.0},
                "pfs": {"flows_rerouted": 2.0},
            }
        )
        assert "gurita" in table and "pfs" in table
        assert "rerouted" in table

    def test_format_degradation_table(self):
        from repro.metrics.report import format_degradation_table

        table = format_degradation_table(
            {"link-flap": {"gurita": 1.1, "pfs": 1.4}}
        )
        assert "link-flap" in table
        assert "1.10x" in table and "1.40x" in table
