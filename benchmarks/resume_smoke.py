#!/usr/bin/env python
"""Resume smoke: kill a supervised run mid-flight, resume, diff fingerprints.

The checkpoint/resume hard guarantee, checked end-to-end through the
CLI (what the ``resume-smoke`` CI job runs):

1. run a supervised trials grid uninterrupted and record its JCT
   fingerprint;
2. launch the identical grid in a fresh run directory, SIGKILL the
   process as soon as the *second* unit has a simulator checkpoint on
   disk (a partial or cache entry alone does not count: the resume must
   restore a checkpoint mid-simulation);
3. ``repro resume`` the killed run's manifest;
4. fail unless the resume finds the first unit, which finished before
   the kill, in the cache (``1 cache hit(s)``), and prints the exact
   fingerprint of the uninterrupted run.

Exit code 0 = bit-identical; anything else is a determinism regression.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

#: Big enough that the victim cannot finish before the kill lands on a
#: typical machine; small enough to keep the smoke inside a CI budget.
SEEDS = ("1", "2")
TRIALS_FLAGS = [
    "trials",
    "--jobs", "30",
    "--seeds", ",".join(SEEDS),
    "--schedulers", "pfs,gurita",
]

#: Simulated-seconds cadence: frequent enough that a kill costs little
#: progress, coarse enough that checkpoint writes stay off the profile.
CHECKPOINT_EVERY = "0.25"

FINGERPRINT_RE = re.compile(r"^jct fingerprint: ([0-9a-f]{32})$", re.MULTILINE)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return env


def _repro(*args: str, **popen_kwargs):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=_env(),
        capture_output=True,
        text=True,
        **popen_kwargs,
    )


def _fingerprint_of(output: str, label: str) -> str:
    match = FINGERPRINT_RE.search(output)
    if not match:
        print(f"FAIL: no jct fingerprint in {label} output:\n{output}")
        raise SystemExit(1)
    return match.group(1)


def _second_unit_checkpointed(run_dir: Path) -> bool:
    """The second unit has a complete checkpoint on disk.

    Checkpoints are named ``<unit fingerprint>.<scheduler>.ckpt`` (a
    ``*.ckpt.tmp`` is one mid-write); the manifest lists the units'
    fingerprints in grid order.
    """
    try:
        manifest = json.loads((run_dir / "manifest.json").read_text())
    except (OSError, ValueError):
        return False  # not written yet, or caught mid-replace
    second = manifest["units"][1]["fingerprint"]
    return any((run_dir / "checkpoints").glob(f"{second}.*.ckpt"))


def main() -> int:
    workdir = Path(tempfile.mkdtemp(prefix="resume-smoke-"))
    clean_dir = workdir / "clean"
    victim_dir = workdir / "victim"
    try:
        print("== clean supervised run")
        clean = _repro(*TRIALS_FLAGS, "--run-dir", str(clean_dir),
                       "--checkpoint-every", CHECKPOINT_EVERY)
        if clean.returncode != 0:
            print(f"FAIL: clean run exited {clean.returncode}:\n{clean.stderr}")
            return 1
        expected = _fingerprint_of(clean.stdout, "clean run")
        print(f"   fingerprint {expected}")

        print("== victim run (to be killed mid-flight)")
        victim = subprocess.Popen(
            [sys.executable, "-m", "repro", *TRIALS_FLAGS,
             "--run-dir", str(victim_dir), "--checkpoint-every", CHECKPOINT_EVERY],
            env=_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 60.0
        killed = False
        while victim.poll() is None:
            if _second_unit_checkpointed(victim_dir):
                os.kill(victim.pid, signal.SIGKILL)
                killed = True
                break
            if time.monotonic() > deadline:
                victim.kill()
                print("FAIL: victim wrote no checkpoint within 60s")
                return 1
            time.sleep(0.01)
        victim.wait(timeout=30.0)
        if killed:
            print(f"   killed pid {victim.pid} with the second unit's "
                  "checkpoint on disk")
        else:
            print("   victim finished before the kill (machine too fast); "
                  "resume must then be pure cache hits")
        # The first unit finished before the kill, so it must be cached.
        expected_hits = 1 if killed else len(SEEDS)
        if not (victim_dir / "manifest.json").exists():
            print("FAIL: victim left no manifest to resume from")
            return 1

        print("== resume the killed run")
        resumed = _repro("resume", str(victim_dir))
        if resumed.returncode != 0:
            print(
                f"FAIL: resume exited {resumed.returncode}:\n"
                f"{resumed.stdout}\n{resumed.stderr}"
            )
            return 1
        actual = _fingerprint_of(resumed.stdout, "resumed run")
        print(f"   fingerprint {actual}")
        if f" {expected_hits} cache hit(s)," not in resumed.stdout:
            print(
                f"FAIL: resume did not report {expected_hits} cache hit(s) — "
                f"a unit finished before the kill was lost:\n{resumed.stdout}"
            )
            return 1

        if actual != expected:
            print(
                f"FAIL: resumed fingerprint {actual} != clean {expected} — "
                "the kill/restore path changed simulation results"
            )
            return 1
        print("OK: resumed run is bit-identical to the uninterrupted run")
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
