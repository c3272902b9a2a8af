"""Deterministic fault injection for the flow-level simulator.

Gurita's robustness story (paper §IV) rests on *decentralized* control:
every receiver keeps scheduling locally even when the δ-interval
coordination with its head receiver degrades.  A perfect-fabric simulator
cannot exercise that claim, so this module supplies a first-class failure
model: link flaps, switch failures (taking every attached link down), host
crashes (aborting resident flows), and a degraded HR coordination channel
(dropped or delayed δ-round sync messages).

Determinism contract (the chaos test suite asserts all of it):

* Fault timelines are **pure functions** of ``(profile, topology,
  horizon)``.  All randomness flows through a *blake2b-derived fault
  stream* — a stateless, counter-indexed hash construction in the same
  discipline as :meth:`repro.experiments.parallel.WorkUnit.fingerprint` —
  so identical seeds produce bit-identical timelines regardless of
  process, platform, worker count, or call order.
* The injector consumes no wall-clock time and no global RNG state; the
  per-round HR channel dispositions are hash-indexed by round number, not
  drawn from a stateful generator, so they cannot drift when the event
  interleaving changes.
* With no profile configured the simulator takes its historical code
  paths verbatim; zero-fault runs are byte-identical to pre-fault builds.

The runtime (:mod:`repro.simulator.runtime`) owns a :class:`FaultInjector`
per run, applies :class:`FaultAction` events through the event queue, and
surfaces the outcome as :class:`FaultStats` on the simulation result.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.errors import FaultError
from repro.simulator.topology.base import Topology

#: Version tag mixed into every fault stream; bump on derivation changes.
FAULT_STREAM_NAMESPACE = "repro.faults.v1"

#: Host-crash recovery policies.
POLICY_RESTART = "restart"  #: restart-from-zero: in-flight progress is lost
POLICY_RESUME = "resume"  #: resume-from-checkpoint: progress survives

_POLICIES = (POLICY_RESTART, POLICY_RESUME)

#: HR-round dispositions returned by :meth:`FaultInjector.hr_disposition`.
HR_DELIVER = "deliver"
HR_DROP = "drop"
HR_DELAY = "delay"


# ----------------------------------------------------------------------
# Blake2b fault streams (stateless, purely functional)
# ----------------------------------------------------------------------
def fault_stream_u64(seed: int, label: str, *components: Union[int, str]) -> int:
    """A 64-bit value from the seed-derived fault stream.

    Purely functional: the value depends only on ``(seed, label,
    components)``.  Distinct labels give independent substreams; indexing
    by an explicit counter (rather than drawing from a stateful RNG)
    means consumers can evaluate stream positions in any order without
    changing any value.
    """
    payload = "|".join(
        [FAULT_STREAM_NAMESPACE, str(seed), label]
        + [str(component) for component in components]
    )
    digest = hashlib.blake2b(payload.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def fault_stream_uniform(
    seed: int, label: str, *components: Union[int, str]
) -> float:
    """A uniform float in ``[0, 1)`` from the fault stream."""
    return fault_stream_u64(seed, label, *components) / 2.0**64


def derive_fault_seed(base_seed: int, profile_name: str) -> int:
    """The 63-bit fault seed for ``(workload seed, profile name)``.

    Mirrors the unit-seed discipline of the parallel engine: a blake2b
    hash of the canonical identity, never dependent on process or worker
    state, so serial and ``run_grid`` executions derive the same fault
    timeline from the same scenario.
    """
    digest = hashlib.blake2b(
        f"{FAULT_STREAM_NAMESPACE}|fault-seed|{base_seed}|{profile_name}".encode(
            "utf-8"
        ),
        digest_size=8,
    ).digest()
    return int.from_bytes(digest, "big") & 0x7FFF_FFFF_FFFF_FFFF


# ----------------------------------------------------------------------
# Fault specifications (symbolic; materialized against a topology)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LinkFault:
    """Scheduled flap of one cable (both directions) between two nodes."""

    src_node: str
    dst_node: str
    at: float
    duration: float

    def __post_init__(self) -> None:
        if self.at < 0 or self.duration <= 0:
            raise FaultError(
                f"link fault {self.src_node}<->{self.dst_node} needs "
                f"at >= 0 and duration > 0"
            )


@dataclass(frozen=True)
class SwitchFault:
    """Scheduled failure of a switch: every attached link goes down."""

    node: str
    at: float
    duration: float

    def __post_init__(self) -> None:
        if self.at < 0 or self.duration <= 0:
            raise FaultError(
                f"switch fault {self.node!r} needs at >= 0 and duration > 0"
            )


@dataclass(frozen=True)
class HostFault:
    """Scheduled crash of a host; resident flows abort until recovery."""

    host: int
    at: float
    duration: float
    policy: str = POLICY_RESTART

    def __post_init__(self) -> None:
        if self.at < 0 or self.duration <= 0:
            raise FaultError(
                f"host fault {self.host} needs at >= 0 and duration > 0"
            )
        if self.policy not in _POLICIES:
            raise FaultError(
                f"unknown host recovery policy {self.policy!r}; "
                f"expected one of {_POLICIES}"
            )


@dataclass(frozen=True)
class RandomLinkFlaps:
    """Stochastic link flaps drawn from the fault stream.

    ``count`` flap incidents are placed uniformly over the materialization
    horizon; each takes one cable down for ``downtime_fraction`` of the
    horizon (scaled by a per-incident jitter in ``[0.5, 1.5)``), so the
    spec adapts to any scenario timescale without retuning.
    """

    count: int = 4
    downtime_fraction: float = 0.05
    label: str = "link-flaps"

    def __post_init__(self) -> None:
        if self.count < 1:
            raise FaultError("random link flaps need count >= 1")
        if not 0.0 < self.downtime_fraction <= 1.0:
            raise FaultError("downtime_fraction must be in (0, 1]")


@dataclass(frozen=True)
class RandomSwitchFailures:
    """Stochastic switch failures drawn from the fault stream."""

    count: int = 1
    downtime_fraction: float = 0.1
    label: str = "switch-failures"

    def __post_init__(self) -> None:
        if self.count < 1:
            raise FaultError("random switch failures need count >= 1")
        if not 0.0 < self.downtime_fraction <= 1.0:
            raise FaultError("downtime_fraction must be in (0, 1]")


@dataclass(frozen=True)
class RandomHostCrashes:
    """Stochastic host crashes drawn from the fault stream."""

    count: int = 1
    downtime_fraction: float = 0.1
    policy: str = POLICY_RESTART
    label: str = "host-crashes"

    def __post_init__(self) -> None:
        if self.count < 1:
            raise FaultError("random host crashes need count >= 1")
        if not 0.0 < self.downtime_fraction <= 1.0:
            raise FaultError("downtime_fraction must be in (0, 1]")
        if self.policy not in _POLICIES:
            raise FaultError(
                f"unknown host recovery policy {self.policy!r}; "
                f"expected one of {_POLICIES}"
            )


@dataclass(frozen=True)
class HRDegradation:
    """A degraded δ-interval head-receiver coordination channel.

    Within ``[start, start + duration)`` (``duration=None`` = forever),
    each coordination round is independently dropped with probability
    ``drop_fraction`` or delayed by up to ``max_delay`` seconds with
    probability ``delay_fraction`` (delayed syncs can arrive after later
    rounds, i.e. reordered).  Decisions are hash-indexed by round number,
    so they are identical across runs and schedulers.
    """

    drop_fraction: float = 0.0
    delay_fraction: float = 0.0
    max_delay: float = 0.1
    start: float = 0.0
    duration: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_fraction <= 1.0:
            raise FaultError("drop_fraction must be in [0, 1]")
        if not 0.0 <= self.delay_fraction <= 1.0:
            raise FaultError("delay_fraction must be in [0, 1]")
        if self.drop_fraction + self.delay_fraction > 1.0:
            raise FaultError("drop_fraction + delay_fraction must be <= 1")
        if self.max_delay <= 0:
            raise FaultError("max_delay must be positive")
        if self.start < 0:
            raise FaultError("start must be >= 0")
        if self.duration is not None and self.duration <= 0:
            raise FaultError("duration must be positive (or None)")


FaultSpec = Union[
    LinkFault,
    SwitchFault,
    HostFault,
    RandomLinkFlaps,
    RandomSwitchFailures,
    RandomHostCrashes,
]


@dataclass(frozen=True)
class FaultProfile:
    """One named bundle of fault specifications.

    ``seed`` feeds every stochastic draw; ``None`` falls back to a seed
    derived from the profile name alone.  ``horizon`` pins the window
    stochastic specs are materialized over; ``None`` lets the runtime
    derive it from the workload's arrival span (a pure function of the
    jobs, hence identical across schedulers and executions).
    """

    name: str
    specs: Tuple[FaultSpec, ...] = ()
    hr: Optional[HRDegradation] = None
    seed: Optional[int] = None
    horizon: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise FaultError("fault profile needs a non-empty name")
        if self.horizon is not None and self.horizon <= 0:
            raise FaultError("horizon must be positive (or None)")

    @property
    def effective_seed(self) -> int:
        return (
            self.seed
            if self.seed is not None
            else derive_fault_seed(0, self.name)
        )


# ----------------------------------------------------------------------
# Canned profiles (the chaos scenario family)
# ----------------------------------------------------------------------
def _scaled_count(base: int, intensity: float) -> int:
    return max(1, round(base * intensity))


def profile_from_name(
    name: str, intensity: float = 1.0, seed: Optional[int] = None
) -> FaultProfile:
    """A canned chaos profile by name.

    ``intensity`` scales incident counts and channel degradation;
    ``seed`` pins the fault stream (see :func:`derive_fault_seed`).
    """
    if intensity <= 0:
        raise FaultError(f"fault intensity must be positive, got {intensity}")
    if name == "link-flap":
        specs: Tuple[FaultSpec, ...] = (
            RandomLinkFlaps(count=_scaled_count(4, intensity)),
        )
        return FaultProfile(name=name, specs=specs, seed=seed)
    if name == "switch-failure":
        specs = (RandomSwitchFailures(count=_scaled_count(1, intensity)),)
        return FaultProfile(name=name, specs=specs, seed=seed)
    if name == "host-crash":
        specs = (RandomHostCrashes(count=_scaled_count(2, intensity)),)
        return FaultProfile(name=name, specs=specs, seed=seed)
    if name == "hr-loss":
        hr = HRDegradation(
            drop_fraction=min(0.9, 0.5 * intensity),
            delay_fraction=min(1.0 - min(0.9, 0.5 * intensity), 0.25),
        )
        return FaultProfile(name=name, hr=hr, seed=seed)
    if name == "chaos":
        specs = (
            RandomLinkFlaps(count=_scaled_count(3, intensity)),
            RandomHostCrashes(count=_scaled_count(1, intensity)),
        )
        hr = HRDegradation(
            drop_fraction=min(0.8, 0.3 * intensity), delay_fraction=0.1
        )
        return FaultProfile(name=name, specs=specs, hr=hr, seed=seed)
    raise FaultError(
        f"unknown fault profile {name!r}; expected one of "
        "'link-flap', 'switch-failure', 'host-crash', 'hr-loss', 'chaos'"
    )


#: Names :func:`profile_from_name` accepts (the CLI choices list).
CANNED_PROFILES: Tuple[str, ...] = (
    "link-flap",
    "switch-failure",
    "host-crash",
    "hr-loss",
    "chaos",
)


# ----------------------------------------------------------------------
# Timeline materialization
# ----------------------------------------------------------------------
class FaultKind:
    """Timeline action kinds (string constants; stable sort keys)."""

    LINK_DOWN = "link_down"
    LINK_UP = "link_up"
    SWITCH_DOWN = "switch_down"
    SWITCH_UP = "switch_up"
    HOST_DOWN = "host_down"
    HOST_UP = "host_up"


_DOWN_KINDS = frozenset(
    {FaultKind.LINK_DOWN, FaultKind.SWITCH_DOWN, FaultKind.HOST_DOWN}
)


@dataclass(frozen=True)
class FaultAction:
    """One materialized timeline entry (a fault or its repair)."""

    time: float
    kind: str
    links: Tuple[int, ...] = ()
    hosts: Tuple[int, ...] = ()
    node: str = ""
    policy: str = POLICY_RESTART
    cause: str = ""

    @property
    def is_repair(self) -> bool:
        return self.kind not in _DOWN_KINDS


def _duplex_links(topology: Topology, node_a: str, node_b: str) -> Tuple[int, ...]:
    ids: List[int] = []
    for src, dst in ((node_a, node_b), (node_b, node_a)):
        try:
            ids.append(topology.links.id_of(src, dst))
        except Exception as exc:
            raise FaultError(
                f"fault targets unknown link {src}->{dst}"
            ) from exc
    return tuple(sorted(ids))


def _attached_links(topology: Topology, node: str) -> Tuple[int, ...]:
    ids = sorted(
        link.link_id
        for link in topology.links
        if link.src_node == node or link.dst_node == node
    )
    if not ids:
        raise FaultError(f"fault targets unknown node {node!r} (no links)")
    return tuple(ids)


def _cables(topology: Topology) -> List[Tuple[str, str]]:
    """Every physical cable as a canonical (min, max) node-name pair."""
    seen: Set[Tuple[str, str]] = set()
    for link in topology.links:
        pair = (
            (link.src_node, link.dst_node)
            if link.src_node <= link.dst_node
            else (link.dst_node, link.src_node)
        )
        seen.add(pair)
    return sorted(seen)


def _switch_nodes(topology: Topology) -> List[str]:
    """Every non-host node name, sorted (hosts are ``h<i>``)."""
    nodes: Set[str] = set()
    for link in topology.links:
        for name in (link.src_node, link.dst_node):
            if not _is_host_node(name):
                nodes.add(name)
    return sorted(nodes)


def _is_host_node(name: str) -> bool:
    return name.startswith("h") and name[1:].isdigit()


def default_fault_horizon(arrival_times: Sequence[float]) -> float:
    """The stochastic-fault window for a workload's arrival span.

    Twice the arrival span plus a second of tail: long enough to overlap
    the busy period of overloaded scenarios, and a pure function of the
    jobs, so every scheduler and every execution mode derives the same
    window.
    """
    latest = max(arrival_times, default=0.0)
    return 2.0 * latest + 1.0


def _materialize_spec(
    spec: FaultSpec,
    topology: Topology,
    seed: int,
    horizon: float,
    actions: List[FaultAction],
) -> None:
    if isinstance(spec, LinkFault):
        links = _duplex_links(topology, spec.src_node, spec.dst_node)
        cause = f"link:{spec.src_node}<->{spec.dst_node}"
        actions.append(
            FaultAction(spec.at, FaultKind.LINK_DOWN, links=links, cause=cause)
        )
        actions.append(
            FaultAction(
                spec.at + spec.duration, FaultKind.LINK_UP, links=links, cause=cause
            )
        )
        return
    if isinstance(spec, SwitchFault):
        links = _attached_links(topology, spec.node)
        cause = f"switch:{spec.node}"
        actions.append(
            FaultAction(
                spec.at, FaultKind.SWITCH_DOWN, links=links, node=spec.node,
                cause=cause,
            )
        )
        actions.append(
            FaultAction(
                spec.at + spec.duration, FaultKind.SWITCH_UP, links=links,
                node=spec.node, cause=cause,
            )
        )
        return
    if isinstance(spec, HostFault):
        if not 0 <= spec.host < topology.num_hosts:
            raise FaultError(
                f"host fault targets unknown host {spec.host} "
                f"(num_hosts={topology.num_hosts})"
            )
        cause = f"host:{spec.host}"
        actions.append(
            FaultAction(
                spec.at, FaultKind.HOST_DOWN, hosts=(spec.host,),
                policy=spec.policy, cause=cause,
            )
        )
        actions.append(
            FaultAction(
                spec.at + spec.duration, FaultKind.HOST_UP, hosts=(spec.host,),
                cause=cause,
            )
        )
        return
    if isinstance(spec, RandomLinkFlaps):
        cables = _cables(topology)
        for index in range(spec.count):
            at = fault_stream_uniform(seed, spec.label, index, "at") * horizon
            jitter = 0.5 + fault_stream_uniform(seed, spec.label, index, "jit")
            duration = spec.downtime_fraction * horizon * jitter
            pick = fault_stream_u64(seed, spec.label, index, "cable") % len(cables)
            node_a, node_b = cables[pick]
            _materialize_spec(
                LinkFault(node_a, node_b, at=at, duration=duration),
                topology, seed, horizon, actions,
            )
        return
    if isinstance(spec, RandomSwitchFailures):
        switches = _switch_nodes(topology)
        if not switches:
            raise FaultError("topology has no switch nodes to fail")
        for index in range(spec.count):
            at = fault_stream_uniform(seed, spec.label, index, "at") * horizon
            jitter = 0.5 + fault_stream_uniform(seed, spec.label, index, "jit")
            duration = spec.downtime_fraction * horizon * jitter
            pick = fault_stream_u64(seed, spec.label, index, "node") % len(switches)
            _materialize_spec(
                SwitchFault(switches[pick], at=at, duration=duration),
                topology, seed, horizon, actions,
            )
        return
    if isinstance(spec, RandomHostCrashes):
        for index in range(spec.count):
            at = fault_stream_uniform(seed, spec.label, index, "at") * horizon
            jitter = 0.5 + fault_stream_uniform(seed, spec.label, index, "jit")
            duration = spec.downtime_fraction * horizon * jitter
            host = int(
                fault_stream_u64(seed, spec.label, index, "host")
                % topology.num_hosts
            )
            _materialize_spec(
                HostFault(host, at=at, duration=duration, policy=spec.policy),
                topology, seed, horizon, actions,
            )
        return
    raise FaultError(f"unknown fault spec {spec!r}")


def build_timeline(
    profile: FaultProfile, topology: Topology, horizon: float
) -> Tuple[FaultAction, ...]:
    """Materialize a profile into a sorted, deterministic action timeline.

    A pure function of its arguments: stochastic draws come from the
    blake2b fault stream seeded by ``profile.effective_seed``, so the
    same ``(profile, topology, horizon)`` always yields a bit-identical
    timeline.
    """
    if horizon <= 0:
        raise FaultError(f"timeline horizon must be positive, got {horizon}")
    actions: List[FaultAction] = []
    for spec in profile.specs:
        _materialize_spec(
            spec, topology, profile.effective_seed, horizon, actions
        )
    actions.sort(key=lambda a: (a.time, a.kind, a.links, a.hosts, a.cause))
    return tuple(actions)


# ----------------------------------------------------------------------
# Run-level statistics
# ----------------------------------------------------------------------
@dataclass
class FaultStats:
    """What one simulation run's fault injection did (and cost).

    Surfaced on :attr:`repro.simulator.runtime.SimulationResult.fault_stats`
    and condensed by :func:`repro.simulator.observability.fault_counters`.
    """

    faults_injected: int = 0
    repairs_applied: int = 0
    link_down_events: int = 0
    switch_failures: int = 0
    host_crashes: int = 0
    #: flows moved onto an alternate path when their route lost a link
    flows_rerouted: int = 0
    #: remaining volume of rerouted flows at reroute time
    rerouted_bytes: float = 0.0
    #: flows stalled with no usable path (partition or crashed endpoint)
    flows_parked: int = 0
    #: restart-from-zero aborts (progress discarded by a host crash)
    flow_restarts: int = 0
    #: parked flows that resumed after a repair
    flows_recovered: int = 0
    #: per-recovery stall durations (park -> unpark), seconds
    recovery_seconds: List[float] = field(default_factory=list)
    #: HR coordination rounds observed / dropped / delayed
    hr_rounds_total: int = 0
    hr_rounds_dropped: int = 0
    hr_rounds_delayed: int = 0
    #: staleness of the receivers' Ψ̈ view at each coordination round
    hr_staleness: List[float] = field(default_factory=list)

    @property
    def max_recovery_seconds(self) -> float:
        return max(self.recovery_seconds, default=0.0)

    @property
    def mean_recovery_seconds(self) -> float:
        if not self.recovery_seconds:
            return 0.0
        return sum(self.recovery_seconds) / len(self.recovery_seconds)

    @property
    def max_hr_staleness(self) -> float:
        return max(self.hr_staleness, default=0.0)

    def staleness_histogram(
        self, bin_edges: Sequence[float]
    ) -> List[int]:
        """Counts of HR-staleness samples per ``bin_edges`` bucket.

        Returns ``len(bin_edges) + 1`` counts: one per half-open bucket
        ``[edge[i-1], edge[i])`` plus a final overflow bucket.
        """
        edges = sorted(bin_edges)
        counts = [0] * (len(edges) + 1)
        for sample in self.hr_staleness:
            slot = len(edges)
            for index, edge in enumerate(edges):
                if sample < edge:
                    slot = index
                    break
            counts[slot] += 1
        return counts


# ----------------------------------------------------------------------
# The injector (live fault state of one run)
# ----------------------------------------------------------------------
class FaultInjector:
    """Owns one run's fault timeline and live degradation state.

    Link and host outages are reference-counted so overlapping faults
    (e.g. a link flap during a switch failure touching the same cable)
    compose correctly: a resource is up again only when its last
    outstanding fault has been repaired.
    """

    def __init__(
        self,
        profile: FaultProfile,
        topology: Topology,
        horizon: float,
    ) -> None:
        self.profile = profile
        self.timeline: Tuple[FaultAction, ...] = build_timeline(
            profile, topology, horizon
        )
        self.stats = FaultStats()
        #: live downed-link view; shared with the router (same set object)
        self.downed_links: Set[int] = set()
        #: live crashed-host view; shared with schedulers that care
        self.crashed_hosts: Set[int] = set()
        #: recovery policy per crashed host (last crash wins)
        self.host_policy: Dict[int, str] = {}
        self._link_down_count: Dict[int, int] = {}
        self._host_down_count: Dict[int, int] = {}
        self._hr_seed = profile.effective_seed
        self._hr_last_delivered: Optional[float] = None

    # ------------------------------------------------------------------
    # Topology state transitions (called by the runtime per action)
    # ------------------------------------------------------------------
    def links_down(self, links: Sequence[int]) -> List[int]:
        """Record an outage; returns links that newly transitioned down."""
        newly: List[int] = []
        for link_id in links:
            count = self._link_down_count.get(link_id, 0)
            self._link_down_count[link_id] = count + 1
            if count == 0:
                self.downed_links.add(link_id)
                newly.append(link_id)
        return newly

    def links_up(self, links: Sequence[int]) -> List[int]:
        """Record a repair; returns links that newly transitioned up."""
        restored: List[int] = []
        for link_id in links:
            count = self._link_down_count.get(link_id, 0) - 1
            if count <= 0:
                self._link_down_count.pop(link_id, None)
                if link_id in self.downed_links:
                    self.downed_links.discard(link_id)
                    restored.append(link_id)
            else:
                self._link_down_count[link_id] = count
        return restored

    def hosts_down(self, hosts: Sequence[int], policy: str) -> List[int]:
        newly: List[int] = []
        for host in hosts:
            count = self._host_down_count.get(host, 0)
            self._host_down_count[host] = count + 1
            self.host_policy[host] = policy
            if count == 0:
                self.crashed_hosts.add(host)
                newly.append(host)
        return newly

    def hosts_up(self, hosts: Sequence[int]) -> List[int]:
        recovered: List[int] = []
        for host in hosts:
            count = self._host_down_count.get(host, 0) - 1
            if count <= 0:
                self._host_down_count.pop(host, None)
                self.host_policy.pop(host, None)
                if host in self.crashed_hosts:
                    self.crashed_hosts.discard(host)
                    recovered.append(host)
            else:
                self._host_down_count[host] = count
        return recovered

    # ------------------------------------------------------------------
    # HR coordination channel
    # ------------------------------------------------------------------
    def hr_disposition(
        self, round_index: int, now: float
    ) -> Tuple[str, float]:
        """Fate of the ``round_index``-th δ-round sync: deliver/drop/delay.

        Returns ``(disposition, delay_seconds)``.  Hash-indexed by round
        number — evaluating rounds in any order yields the same fates.
        Also records the staleness sample for this round (time since the
        receivers last saw a delivered sync).
        """
        self.stats.hr_rounds_total += 1
        if self._hr_last_delivered is not None:
            self.stats.hr_staleness.append(now - self._hr_last_delivered)
        spec = self.profile.hr
        if spec is None or now < spec.start or (
            spec.duration is not None and now >= spec.start + spec.duration
        ):
            self._hr_last_delivered = now
            return HR_DELIVER, 0.0
        roll = fault_stream_uniform(self._hr_seed, "hr-round", round_index)
        if roll < spec.drop_fraction:
            self.stats.hr_rounds_dropped += 1
            return HR_DROP, 0.0
        if roll < spec.drop_fraction + spec.delay_fraction:
            self.stats.hr_rounds_delayed += 1
            delay = spec.max_delay * fault_stream_uniform(
                self._hr_seed, "hr-delay", round_index
            )
            return HR_DELAY, max(delay, 1e-9)
        self._hr_last_delivered = now
        return HR_DELIVER, 0.0

    def hr_delivered(self, now: float) -> None:
        """A delayed sync finally arrived: the receivers' view is fresh."""
        self._hr_last_delivered = now


__all__ = [
    "CANNED_PROFILES",
    "FAULT_STREAM_NAMESPACE",
    "FaultAction",
    "FaultInjector",
    "FaultKind",
    "FaultProfile",
    "FaultStats",
    "HRDegradation",
    "HR_DELAY",
    "HR_DELIVER",
    "HR_DROP",
    "HostFault",
    "LinkFault",
    "POLICY_RESTART",
    "POLICY_RESUME",
    "RandomHostCrashes",
    "RandomLinkFlaps",
    "RandomSwitchFailures",
    "SwitchFault",
    "build_timeline",
    "default_fault_horizon",
    "derive_fault_seed",
    "fault_stream_u64",
    "fault_stream_uniform",
    "profile_from_name",
]
