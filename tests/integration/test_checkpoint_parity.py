"""The checkpoint hard guarantee: restore → run is bit-identical.

Parity matrix: every registered scheduler on a k=4 FatTree, once on a
perfect fabric and once under the link-flap fault profile, plus two
big-switch cases — each case checkpoints a half-finished run, restores
it, runs to completion, and requires the exact job-completion times,
event count and engine counters of the uninterrupted run.  The SIGKILL
test does the same across a real process boundary: the first run is
killed dead mid-flight and a fresh interpreter finishes from its last
on-disk checkpoint.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments.common import (
    ScenarioConfig,
    build_fault_profile,
    build_jobs,
    build_topology,
)
from repro.schedulers.registry import available_schedulers, make_scheduler
from repro.simulator.checkpoint import restore_simulation, write_checkpoint
from repro.simulator.observability import NetworkProbe
from repro.simulator.runtime import CoflowSimulation

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


def _build(config: ScenarioConfig, scheduler: str):
    topology = build_topology(config)
    jobs = build_jobs(config, topology.num_hosts)
    return CoflowSimulation(
        topology,
        make_scheduler(scheduler),
        jobs,
        faults=build_fault_profile(config),
    )


PARITY_CASES = [
    # (case id, scheduler, config overrides)
    *(
        (f"{name}-fattree", name, {"fattree_k": 4})
        for name in available_schedulers()
    ),
    *(
        (f"{name}-chaos", name, {"fattree_k": 4, "fault_profile": "link-flap"})
        for name in available_schedulers()
    ),
    ("pfs-bigswitch", "pfs", {"topology": "bigswitch"}),
    ("gurita-bigswitch", "gurita", {"topology": "bigswitch"}),
]


class TestMidRunRestoreParity:
    @pytest.mark.parametrize(
        "scheduler,overrides",
        [case[1:] for case in PARITY_CASES],
        ids=[case[0] for case in PARITY_CASES],
    )
    def test_restore_is_bit_identical(
        self, tmp_path, scheduler, overrides
    ):
        config = ScenarioConfig(
            name="ckpt-parity", num_jobs=10, seed=7, **overrides
        )
        reference = _build(config, scheduler).run()

        interrupted = _build(config, scheduler)
        interrupted.run(until=reference.makespan / 2)
        path = tmp_path / "mid.ckpt"
        write_checkpoint(interrupted, path)

        resumed = restore_simulation(path).run()
        assert (
            resumed.job_completion_times()
            == reference.job_completion_times()
        )
        assert resumed.events_processed == reference.events_processed
        assert resumed.reallocations == reference.reallocations
        assert resumed.engine_stats == reference.engine_stats

    def test_probed_run_restores_without_the_probe(self, tmp_path):
        """A probe's patched ``_reallocate`` stays out of the checkpoint."""
        config = ScenarioConfig(
            name="ckpt-probe", num_jobs=8, seed=5, fattree_k=4
        )
        reference = _build(config, "gurita").run()

        probed = _build(config, "gurita")
        probe = NetworkProbe(probed)
        probed.run(until=reference.makespan / 2)
        assert probe.samples
        path = tmp_path / "probed.ckpt"
        write_checkpoint(probed, path)

        restored = restore_simulation(path)
        assert "_reallocate" not in vars(restored)
        resumed = restored.run()
        assert (
            resumed.job_completion_times()
            == reference.job_completion_times()
        )
        assert resumed.events_processed == reference.events_processed

    def test_checkpoint_without_per_batch_state_restores(self, tmp_path):
        """A checkpoint pickled before the per-batch tick, the ripe-scan
        flag and the cached threshold boundaries existed still resumes:
        each is written before it is read, or computed on first use."""
        config = ScenarioConfig(
            name="ckpt-batch-state", num_jobs=10, seed=7, fattree_k=4
        )
        reference = _build(config, "gurita").run()

        sim = _build(config, "gurita")
        sim.run(until=reference.makespan / 2)
        thresholds = sim.scheduler.config.thresholds
        assert "_boundaries" in vars(thresholds)
        del sim._tick, sim._ripe_pending
        del vars(thresholds)["_boundaries"]
        path = tmp_path / "older.ckpt"
        write_checkpoint(sim, path)

        restored = restore_simulation(path)
        assert not {"_tick", "_ripe_pending"} & set(vars(restored))
        assert "_boundaries" not in vars(restored.scheduler.config.thresholds)
        resumed = restored.run()
        assert (
            resumed.job_completion_times()
            == reference.job_completion_times()
        )
        assert resumed.events_processed == reference.events_processed
        assert resumed.engine_stats == reference.engine_stats

    def test_double_checkpoint_chain_stays_identical(self, tmp_path):
        """Checkpoint → restore → checkpoint again → restore again."""
        config = ScenarioConfig(name="ckpt-chain", num_jobs=8, seed=5)
        reference = _build(config, "gurita").run()

        sim = _build(config, "gurita")
        sim.run(until=reference.makespan / 3)
        first = tmp_path / "first.ckpt"
        write_checkpoint(sim, first)

        middle = restore_simulation(first)
        middle.run(until=2 * reference.makespan / 3)
        second = tmp_path / "second.ckpt"
        write_checkpoint(middle, second)

        final = restore_simulation(second).run()
        assert (
            final.job_completion_times() == reference.job_completion_times()
        )
        assert final.events_processed == reference.events_processed


_CHILD_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
from repro.experiments.common import (
    ScenarioConfig, build_fault_profile, build_jobs, build_topology,
)
from repro.schedulers.registry import make_scheduler
from repro.simulator.runtime import CoflowSimulation

config = ScenarioConfig(name="sigkill", num_jobs=60, seed=13)
topology = build_topology(config)
jobs = build_jobs(config, topology.num_hosts)
sim = CoflowSimulation(
    topology, make_scheduler("gurita"), jobs,
    faults=build_fault_profile(config),
    checkpoint_every=1e-4, checkpoint_path={ckpt!r},
)
sim.run()
"""


class TestSigkillRecovery:
    def test_killed_run_resumes_to_identical_fingerprint(self, tmp_path):
        config = ScenarioConfig(name="sigkill", num_jobs=60, seed=13)
        reference = _build(config, "gurita").run()

        ckpt = tmp_path / "victim.ckpt"
        child = subprocess.Popen(
            [
                sys.executable,
                "-c",
                _CHILD_SCRIPT.format(src=str(REPO_SRC), ckpt=str(ckpt)),
            ],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 30.0
            while not ckpt.exists():
                if child.poll() is not None:
                    break  # finished before we could kill it — still valid
                if time.monotonic() > deadline:
                    pytest.fail("child never wrote a checkpoint")
                time.sleep(0.005)
            if child.poll() is None:
                os.kill(child.pid, signal.SIGKILL)
        finally:
            child.wait(timeout=30.0)

        assert ckpt.exists(), "no checkpoint survived the kill"
        resumed = restore_simulation(ckpt).run()
        assert (
            resumed.job_completion_times()
            == reference.job_completion_times()
        )
        assert resumed.events_processed == reference.events_processed
