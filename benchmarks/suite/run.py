"""Layered benchmark suite for the flow-level simulator.

One workload per run (the form ``BENCHMARK.json`` names)::

    python3 benchmarks/suite/run.py --workload fbtao-k8 --seed 7 --seconds 20 --trace 0

measures for about ``--seconds`` seconds, checks the outputs, prints every
metric as ``workload metric value unit n=<samples>``, and ends with one
JSON line ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of one extra
traced run with ``--trace 1``.

The whole suite, each workload in its own child interpreter, one at a
time::

    python3 benchmarks/suite/run.py [--seed S] [--workloads a,b] [--out FILE]
    python3 benchmarks/suite/run.py --check   # exact counters vs pins.json
    python3 benchmarks/suite/run.py --pin     # rewrite pins.json

Exit status is non-zero when any correctness check or pin fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
PINS = HERE / "pins.json"
#: Scratch space inside the checkout (grid caches, reports, trace files).
SCRATCH = ROOT / ".bench_build" / "suite"

#: Units of the per-layer metrics that must repeat exactly.
EXACT_UNITS = ("count", "ratio", "B")


def load_json(path: Path) -> Any:
    with path.open(encoding="utf-8") as handle:
        return json.load(handle)


def write_json(path: Path, payload: Any) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def metric_lines(outcome: Dict[str, Any], units: Dict[str, str]) -> List[str]:
    lines = []
    for metric, value in {**outcome["e2e"], **outcome["layers"]}.items():
        n = outcome["samples"].get(metric)
        suffix = f" n={n}" if n is not None else ""
        lines.append(f"{outcome['workload']} {metric} {value:.6g} {units[metric]}{suffix}")
    return lines


# ----------------------------------------------------------------------
# One workload (a child of the suite, or a run named in BENCHMARK.json)
# ----------------------------------------------------------------------
def run_workload(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    import workloads  # needs src/ on sys.path, which main() sets up

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; have {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    pins = load_json(PINS).get(args.workload, {}) if PINS.exists() else {}
    scratch = SCRATCH / f"{args.workload}-{args.seed}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "grid-k4":
            result = workloads.measure_grid(
                args.seed, args.seconds, args.trace, pins, scratch
            )
        else:
            result = workloads.measure_sim(
                args.workload, args.seed, args.seconds, args.trace, pins
            )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    outcome = dataclasses.asdict(result)

    reported = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = result.layers if args.trace else result.e2e
    missing = [m["name"] for m in reported if m["name"] not in measured]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for line in metric_lines(outcome, units):
        print(line)
    for error in result.errors:
        print(f"{args.workload} FAILED {error}", file=sys.stderr)
    if args.trace:
        write_json(
            SCRATCH / f"trace-{args.workload}-{args.seed}.json",
            {"workload": args.workload, "seed": args.seed,
             "spans": result.spans, "layers": result.layers},
        )
    if args.report:
        write_json(Path(args.report), outcome)
    correct = not result.errors
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
            for m in reported
        },
    }))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# The whole suite
# ----------------------------------------------------------------------
def run_child(
    workload: str, seed: int, seconds: float, trace: bool
) -> Optional[Dict[str, Any]]:
    """Measure one workload in a fresh interpreter; None if it failed."""
    report = SCRATCH / f"report-{workload}.json"
    report.unlink(missing_ok=True)
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
        "--report", str(report),
    ]
    child = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    for line in child.stdout.splitlines()[:-1]:
        print(line, flush=True)
    if child.returncode != 0 or not report.exists():
        print(f"{workload}: child exited with status {child.returncode}",
              file=sys.stderr)
        return None
    outcome: Dict[str, Any] = load_json(report)
    report.unlink()
    return outcome


def exact_counters(outcome: Dict[str, Any], spec: Dict[str, Any]) -> Dict[str, float]:
    return {
        m["name"]: outcome["layers"][m["name"]]
        for m in spec["per_layer"]
        if m["unit"] in EXACT_UNITS
    }


def pin_of(outcome: Dict[str, Any], spec: Dict[str, Any]) -> Dict[str, Any]:
    key = "unit_fingerprints" if outcome["workload"] == "grid-k4" else "fingerprint"
    prints = outcome["fingerprints"]
    return {
        "seed": outcome["seed"],
        key: prints if key == "unit_fingerprints" else prints[0],
        "counters": exact_counters(outcome, spec),
    }


def compare_pins(
    outcome: Dict[str, Any], pinned: Dict[str, Any], spec: Dict[str, Any]
) -> List[str]:
    """Every difference between a traced pass and its pinned counters."""
    problems = []
    measured = pin_of(outcome, spec)
    for key in ("fingerprint", "unit_fingerprints"):
        if key in pinned and measured.get(key) != pinned[key]:
            problems.append(f"{key}: {measured.get(key)} != pinned {pinned[key]}")
    for name, value in pinned["counters"].items():
        got = measured["counters"].get(name)
        if got != value:
            problems.append(f"{name}: {got} != pinned {value}")
    return problems


def run_suite(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    import workloads

    names = args.workloads.split(",") if args.workloads else list(workloads.WORKLOADS)
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print(f"unknown workloads {unknown}; have {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    pins = load_json(PINS) if PINS.exists() else {}
    # --check/--pin replay the pinned seed with the fewest timed repeats.
    seconds = 0.0 if args.check or args.pin else args.seconds
    seed = workloads.PINNED_SEED if args.check or args.pin else args.seed
    status = 0
    outcomes: Dict[str, Any] = {}
    for name in names:
        outcome = run_child(name, seed, seconds, trace=True)
        if outcome is None:
            status = 1
            continue
        outcomes[name] = outcome
        if args.check:
            problems = (
                compare_pins(outcome, pins[name], spec) if name in pins
                else ["no pins recorded"]
            )
            for problem in problems:
                print(f"{name} PIN MISMATCH {problem}", file=sys.stderr)
            status = status or int(bool(problems))
    if args.pin:
        pins.update({name: pin_of(o, spec) for name, o in outcomes.items()})
        write_json(PINS, pins)
        print(f"wrote {PINS.relative_to(ROOT)}")
    if args.out:
        write_json(Path(args.out), {"seed": seed, "seconds": seconds,
                                    "workloads": outcomes})
    print("suite " + ("OK" if status == 0 else "FAILED"))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="measure one workload in this process")
    parser.add_argument("--workloads", help="suite mode: comma-separated subset")
    parser.add_argument("--seed", type=int, default=42,
                        help="input seed; 42, the scenario seed, keeps the pinned inputs")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    parser.add_argument("--report", help="write the full outcome as JSON here")
    parser.add_argument("--out", help="suite mode: write every outcome as JSON here")
    parser.add_argument("--check", action="store_true",
                        help="compare exact counters and fingerprints with pins.json")
    parser.add_argument("--pin", action="store_true",
                        help="rewrite pins.json from one traced pass per workload")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir() or not SPEC.is_file():
        print(f"no source tree at {SRC} (or no {SPEC.name}): nothing to measure",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = load_json(SPEC)
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload:
        return run_workload(args, spec)
    return run_suite(args, spec)


if __name__ == "__main__":
    raise SystemExit(main())
