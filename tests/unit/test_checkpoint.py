"""Unit tests for the checkpoint file format and restore plumbing."""

from __future__ import annotations

import heapq
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
from repro.simulator.events import Event, EventKind, EventQueue
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
        fingerprint = write_checkpoint(sim, path, meta={"scheduler": "pfs"})
        payload = read_checkpoint(path)
        assert payload["schema"] == CHECKPOINT_SCHEMA
        assert payload["fingerprint"] == fingerprint
        assert payload["meta"] == {"scheduler": "pfs"}
        assert payload["simulated_time"] == sim.now
        assert isinstance(payload["state"], dict)

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
        payload["schema"] = CHECKPOINT_SCHEMA + 1
        path.write_bytes(pickle.dumps(payload, protocol=4))
        with pytest.raises(CheckpointError, match="schema"):
            read_checkpoint(path)


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

    def test_scheduler_class_mismatch_rejected(self, tmp_path):
        sim = _small_sim()
        sim.run(until=0.005)
        state = sim.snapshot_state()
        state["scheduler"]["state"]["class"] = "SomethingElse"
        with pytest.raises(CheckpointError):
            make_scheduler("pfs").restore_state(state["scheduler"]["state"])


class TestCompatibility:
    """Schema-1 checkpoints written before the queue and allocation
    options were removed: what still restores, and what fails cleanly."""

    def test_heap_shape_queue_payload_restores(self):
        """The schema-1 heap payload restores into the one queue."""
        rows = [
            (2.0, EventKind.FLOW_COMPLETION, 5),
            (1.0, EventKind.SCHEDULER_UPDATE, 4),
            (1.0, EventKind.JOB_ARRIVAL, 6),
            (3.0, EventKind.JOB_ARRIVAL, 3),
        ]
        heap = []
        for time, kind, seq in rows:
            event = Event(time, kind, seq, payload=("row", seq))
            heapq.heappush(heap, (time, int(kind), seq, event))
        payload = {
            "variant": "EventQueue",
            "next_seq": 7,
            "size": len(heap),
            "watermark": 0.5,
            "storage": {"heap": heap},
        }
        assert set(EventQueue().snapshot_state()) == set(payload)
        assert set(EventQueue().snapshot_state()["storage"]) == {"heap"}

        queue = EventQueue()
        queue.restore_state(pickle.loads(pickle.dumps(payload)))
        assert len(queue) == 4
        assert queue.watermark == 0.5
        with pytest.raises(SimulationError, match="behind the pop watermark"):
            queue.push(0.25, EventKind.JOB_ARRIVAL)
        assert queue.push(3.0, EventKind.FLOW_COMPLETION).seq == 7
        drained = [(e.time, e.kind, e.seq, e.payload) for e in _drain(queue)]
        assert drained == [
            (1.0, EventKind.JOB_ARRIVAL, 6, ("row", 6)),
            (1.0, EventKind.SCHEDULER_UPDATE, 4, ("row", 4)),
            (2.0, EventKind.FLOW_COMPLETION, 5, ("row", 5)),
            (3.0, EventKind.JOB_ARRIVAL, 3, ("row", 3)),
            (3.0, EventKind.FLOW_COMPLETION, 7, None),
        ]
        assert queue.watermark == 3.0

    def test_engine_off_snapshot_raises_checkpoint_error(self):
        """A snapshot of an engine-off run carries ``engine: None``."""
        sim = _small_sim()
        sim.run(until=0.005)
        state = sim.snapshot_state()
        state["engine"] = None
        with pytest.raises(CheckpointError, match="no allocation engine"):
            CoflowSimulation.restore_state(state)

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


def _drain(queue):
    while queue:
        yield queue.pop()
