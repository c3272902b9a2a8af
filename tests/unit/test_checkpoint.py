"""Unit tests for the checkpoint file format and restore plumbing."""

from __future__ import annotations

import hashlib
import pickle

import pytest

import repro.simulator.events as events
from repro.errors import CheckpointError, SimulationError
from repro.experiments.common import ScenarioConfig, build_jobs, build_topology
from repro.schedulers.registry import make_scheduler
from repro.simulator.checkpoint import (
    CHECKPOINT_SCHEMA,
    read_checkpoint,
    restore_simulation,
    write_checkpoint,
)
from repro.simulator.events import EventQueue
from repro.simulator.runtime import CoflowSimulation


def _small_sim() -> CoflowSimulation:
    config = ScenarioConfig(name="ckpt-unit", num_jobs=4, seed=3)
    topology = build_topology(config)
    jobs = build_jobs(config, topology.num_hosts)
    return CoflowSimulation(topology, make_scheduler("pfs"), jobs)


class TestFileFormat:
    def test_write_read_round_trip(self, tmp_path):
        sim = _small_sim()
        sim.run(until=0.01)
        path = tmp_path / "sim.ckpt"
        fingerprint = write_checkpoint(sim, path)
        payload = read_checkpoint(path)
        assert payload["schema"] == CHECKPOINT_SCHEMA == 3
        assert payload["fingerprint"] == fingerprint
        assert payload["simulated_time"] == sim.now
        assert isinstance(payload["simulation"], CoflowSimulation)
        assert payload["simulation"].now == sim.now

    def test_atomic_write_leaves_no_tmp_file(self, tmp_path):
        sim = _small_sim()
        path = tmp_path / "sim.ckpt"
        write_checkpoint(sim, path)
        assert path.exists()
        assert not (tmp_path / "sim.ckpt.tmp").exists()

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_checkpoint(tmp_path / "absent.ckpt")

    def test_truncated_checkpoint_is_detected(self, tmp_path):
        sim = _small_sim()
        path = tmp_path / "sim.ckpt"
        write_checkpoint(sim, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CheckpointError):
            read_checkpoint(path)

    def test_corrupted_body_fails_fingerprint(self, tmp_path):
        sim = _small_sim()
        path = tmp_path / "sim.ckpt"
        write_checkpoint(sim, path)
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        body = bytearray(payload["body"])
        body[len(body) // 2] ^= 0xFF
        payload["body"] = bytes(body)
        path.write_bytes(pickle.dumps(payload, protocol=4))
        with pytest.raises(CheckpointError, match="fingerprint"):
            read_checkpoint(path)

    def test_wrong_magic_and_garbage_rejected(self, tmp_path):
        path = tmp_path / "not-a-checkpoint"
        path.write_bytes(pickle.dumps({"magic": "something-else"}))
        with pytest.raises(CheckpointError):
            read_checkpoint(path)
        path.write_bytes(b"plain garbage, not even pickle")
        with pytest.raises(CheckpointError):
            read_checkpoint(path)

    def test_unsupported_schema_rejected(self, tmp_path):
        sim = _small_sim()
        path = tmp_path / "sim.ckpt"
        write_checkpoint(sim, path)
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        # Schema 1 held per-component snapshots, not the pickled simulation;
        # schema 2 pickled link memberships without slots.
        for schema in (1, 2, CHECKPOINT_SCHEMA + 1):
            payload["schema"] = schema
            path.write_bytes(pickle.dumps(payload, protocol=4))
            with pytest.raises(CheckpointError, match="schema"):
                read_checkpoint(path)

    def test_body_that_is_not_a_simulation_rejected(self, tmp_path):
        sim = _small_sim()
        path = tmp_path / "sim.ckpt"
        write_checkpoint(sim, path)
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        body = pickle.dumps({"fields": {}, "queue": None}, protocol=4)
        payload["body"] = body
        payload["fingerprint"] = hashlib.blake2b(body, digest_size=16).hexdigest()
        path.write_bytes(pickle.dumps(payload, protocol=4))
        with pytest.raises(CheckpointError, match="not a CoflowSimulation"):
            restore_simulation(path)


class TestRestore:
    def test_restore_continues_to_identical_result(self, tmp_path):
        baseline = _small_sim()
        reference = baseline.run()

        sim = _small_sim()
        sim.run(until=reference.makespan / 2)
        path = tmp_path / "mid.ckpt"
        write_checkpoint(sim, path)

        resumed = restore_simulation(path).run()
        assert (
            resumed.job_completion_times()
            == reference.job_completion_times()
        )
        assert resumed.events_processed == reference.events_processed

    def test_checkpoint_cadence_writes_and_resumes(self, tmp_path):
        config = ScenarioConfig(name="ckpt-cadence", num_jobs=4, seed=3)
        topology = build_topology(config)
        jobs = build_jobs(config, topology.num_hosts)
        path = tmp_path / "auto.ckpt"
        sim = CoflowSimulation(
            topology,
            make_scheduler("pfs"),
            jobs,
            checkpoint_every=0.001,
            checkpoint_path=path,
        )
        reference = sim.run()
        assert path.exists()  # at least one cadence checkpoint was cut
        resumed = restore_simulation(path).run()
        assert (
            resumed.job_completion_times()
            == reference.job_completion_times()
        )

    def test_checkpoint_every_requires_path(self):
        config = ScenarioConfig(name="ckpt-flags", num_jobs=2, seed=1)
        topology = build_topology(config)
        jobs = build_jobs(config, topology.num_hosts)
        with pytest.raises(Exception):
            CoflowSimulation(
                topology, make_scheduler("pfs"), jobs, checkpoint_every=1.0
            )

    @pytest.mark.parametrize("every", [0.0, -1.0, float("nan")])
    def test_non_positive_cadence_rejected(self, tmp_path, every):
        config = ScenarioConfig(name="ckpt-flags", num_jobs=2, seed=1)
        topology = build_topology(config)
        jobs = build_jobs(config, topology.num_hosts)
        with pytest.raises(SimulationError, match="positive"):
            CoflowSimulation(
                topology,
                make_scheduler("pfs"),
                jobs,
                checkpoint_every=every,
                checkpoint_path=tmp_path / "never.ckpt",
            )

    def test_restore_applies_the_constructor_cadence_checks(self, tmp_path):
        """Restore validates its cadence exactly like ``__init__``: no
        cadence without a path, and no zero cadence (which would write
        and fsync a checkpoint after every event batch)."""
        sim = _small_sim()
        sim.run(until=0.005)
        path = tmp_path / "mid.ckpt"
        write_checkpoint(sim, path)
        with pytest.raises(SimulationError, match="checkpoint_path"):
            restore_simulation(path, checkpoint_every=1e-3)
        with pytest.raises(SimulationError, match="positive"):
            restore_simulation(path, checkpoint_every=0.0, checkpoint_path=path)
        restored = restore_simulation(
            path, checkpoint_every=1e-3, checkpoint_path=path
        )
        assert restored._checkpoint_every == 1e-3
        assert restored._last_checkpoint_at == sim.now


class TestCompatibility:
    """Checkpoints that name code this version no longer has fail
    cleanly, as :class:`CheckpointError`."""

    def test_bucket_queue_checkpoint_fails_to_decode(self, tmp_path, monkeypatch):
        """A checkpoint that pickled the removed ``BucketEventQueue`` class
        by reference fails through ``read_checkpoint``'s AttributeError
        path, as a :class:`CheckpointError`."""

        class BucketEventQueue(EventQueue):
            pass

        BucketEventQueue.__module__ = events.__name__
        BucketEventQueue.__qualname__ = "BucketEventQueue"
        monkeypatch.setattr(
            events, "BucketEventQueue", BucketEventQueue, raising=False
        )
        sim = _small_sim()
        sim.run(until=0.005)
        sim._queue.__class__ = BucketEventQueue
        path = tmp_path / "bucket.ckpt"
        write_checkpoint(sim, path)
        monkeypatch.delattr(events, "BucketEventQueue")

        with pytest.raises(CheckpointError, match="does not decode") as info:
            read_checkpoint(path)
        assert isinstance(info.value.__cause__, AttributeError)
