"""Versioned, fingerprinted checkpoints of a running simulation.

A checkpoint's body is the pickled
:class:`~repro.simulator.runtime.CoflowSimulation` itself, taken mid-run:
the event queue with its sequence counter and monotonic watermark, the
incremental :class:`~repro.simulator.bandwidth.engine.AllocationState`,
every job/coflow/flow progress record, the scheduler policy, the ECMP
router with its route caches and generation counter, the fault
injector's timeline position and degradation counters, and the
deterministic stream offsets (the HR round index and event sequence
numbers — fault streams themselves are stateless counter-indexed
hashes, so those counters *are* the complete RNG position).

The hard guarantee, enforced by the parity suite
(``tests/integration/test_checkpoint_parity.py``): **restore → run to
completion is bit-identical to the uninterrupted run** — same JCTs,
same event counts, same engine counters.

Serialization discipline
------------------------

The simulation is pickled **whole, in one pass, at a pinned protocol**.
One pass matters: pickle's memo preserves cross-component reference
sharing, e.g. the fault injector's live downed-link set that the router
aliases, and the scheduler context's views onto the job dicts — a
restored graph has exactly the original aliasing without any manual
rewiring.  ``CoflowSimulation.__getstate__`` leaves out host-side state
only: the logger guard (recomputed on load), the checkpoint cadence
(:func:`restore_simulation` applies the caller's), and observability
probes patched onto the instance (a restored run has none).

On-disk format (all one pickle stream)::

    {"magic": "repro-checkpoint", "schema": 2,
     "fingerprint": blake2b(body), "simulated_time": float, "body": bytes}

where ``body`` is the pickled simulation.  Files are written atomically
(temp file + fsync + ``os.replace``) so a crash mid-write leaves either
the previous complete checkpoint or none — never a torn one.  The
fingerprint is an *integrity* check detecting truncation and corruption
on read; any mismatch, schema skew, unpicklable content, or a body that
is not a simulation raises :class:`~repro.errors.CheckpointError`.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from typing import Any, Dict, Optional, Union

from repro.errors import CheckpointError
from repro.simulator.runtime import CoflowSimulation

__all__ = [
    "CHECKPOINT_SCHEMA",
    "read_checkpoint",
    "restore_simulation",
    "write_checkpoint",
]

#: Schema version of the on-disk checkpoint format.  Bump on any change
#: to the body's structure; readers reject other versions rather than
#: guessing.  Schema 2 pickles the simulation itself.
CHECKPOINT_SCHEMA = 2

_MAGIC = "repro-checkpoint"

#: Pinned pickle protocol: checkpoints written by one interpreter must
#: load on any other supported one, so the protocol never floats with
#: ``pickle.HIGHEST_PROTOCOL``.
_PICKLE_PROTOCOL = 4


def _fingerprint(body: bytes) -> str:
    return hashlib.blake2b(body, digest_size=16).hexdigest()


def write_checkpoint(
    sim: CoflowSimulation, path: Union[str, "os.PathLike[str]"]
) -> str:
    """Atomically write ``sim`` to ``path``; returns the body fingerprint."""
    body = pickle.dumps(sim, protocol=_PICKLE_PROTOCOL)
    fingerprint = _fingerprint(body)
    payload = {
        "magic": _MAGIC,
        "schema": CHECKPOINT_SCHEMA,
        "fingerprint": fingerprint,
        "simulated_time": sim.now,
        "body": body,
    }
    target = os.fspath(path)
    tmp = target + ".tmp"
    with open(tmp, "wb") as handle:
        pickle.dump(payload, handle, protocol=_PICKLE_PROTOCOL)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, target)
    return fingerprint


def read_checkpoint(path: Union[str, "os.PathLike[str]"]) -> Dict[str, Any]:
    """Read and verify a checkpoint file; returns the header payload.

    The returned dict still carries the raw ``body`` bytes (verified
    against the fingerprint) plus the decoded ``simulation``.  Raises
    :class:`CheckpointError` on any corruption, truncation, schema
    mismatch, fingerprint divergence, or a body that is not a
    :class:`CoflowSimulation`; raises ``FileNotFoundError`` untouched so
    callers can distinguish "no checkpoint yet" from "a checkpoint went
    bad".
    """
    target = os.fspath(path)
    try:
        with open(target, "rb") as handle:
            payload = pickle.load(handle)
    except FileNotFoundError:
        raise
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
            ImportError, IndexError, ValueError) as exc:
        raise CheckpointError(f"unreadable checkpoint {target}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("magic") != _MAGIC:
        raise CheckpointError(f"{target} is not a repro checkpoint")
    if payload.get("schema") != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            f"checkpoint schema {payload.get('schema')!r} in {target} is not "
            f"the supported version {CHECKPOINT_SCHEMA}"
        )
    body = payload.get("body")
    if not isinstance(body, bytes):
        raise CheckpointError(f"checkpoint {target} carries no state body")
    if _fingerprint(body) != payload.get("fingerprint"):
        raise CheckpointError(
            f"checkpoint {target} failed its integrity fingerprint "
            "(truncated or corrupted)"
        )
    try:
        simulation = pickle.loads(body)
    except (pickle.UnpicklingError, EOFError, AttributeError, ImportError,
            IndexError, ValueError) as exc:
        raise CheckpointError(
            f"checkpoint {target} body does not decode: {exc}"
        ) from exc
    if not isinstance(simulation, CoflowSimulation):
        raise CheckpointError(
            f"checkpoint {target} body is a {type(simulation).__name__}, "
            "not a CoflowSimulation"
        )
    payload["simulation"] = simulation
    return payload


def restore_simulation(
    path: Union[str, "os.PathLike[str]"],
    checkpoint_every: Optional[float] = None,
    checkpoint_path: Union[str, "os.PathLike[str]", None] = None,
) -> CoflowSimulation:
    """Load the simulation stored at ``path``, ready to ``run()``.

    ``checkpoint_every``/``checkpoint_path`` configure the restored
    run's own checkpoint cadence (commonly the same path, so a resumed
    run keeps advancing its checkpoint) and are validated exactly like
    the :class:`CoflowSimulation` arguments of the same names; left
    unset, the restored run takes no further checkpoints.
    """
    sim: CoflowSimulation = read_checkpoint(path)["simulation"]
    sim._set_checkpoint_cadence(checkpoint_every, checkpoint_path)
    return sim
