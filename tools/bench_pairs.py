"""Alternating parent/change pairs of one benchmark workload.

::

    python tools/bench_pairs.py --workload tpcds-k4 --parent HEAD~1 [--pairs 10] [--seed 42]
    make bench-pairs W=tpcds-k4 PARENT=HEAD~1 [N=10] [SEED=42]

Checks the parent revision out as a git worktree under ``.bench_build/``
and runs ``benchmarks/suite/run.py --workload W --seed S --seconds
<run_seconds> --trace 0`` in the parent tree and in this checkout, pair
after pair, alternating which tree goes first.  For each end-to-end
metric of ``BENCHMARK.json`` it prints:

* each side's median and quartiles, and the change's wins over the pairs
  (ties count for neither side);
* the verdict on a claimed gain: at least ten pairs, at least nine wins
  in ten, and a median gap in the better direction larger than the
  parent's interquartile range;
* the median's relative change against the metric's regression bound.

Exit status 1 is the regression gate: some metric's median is worse than
the parent's beyond its bound, or a larger share of this checkout's runs
failed their checks than of the parent's.  A claimed gain is reported but
never gated on.  The worktree is removed when the pairs are done, or when
they fail.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
WORKTREE = ROOT / ".bench_build" / "pairs-parent"

#: A gain needs at least this many pairs ...
MIN_PAIRS = 10
#: ... and the change winning at least this share of them.
WIN_SHARE = 0.9


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` of ``values`` (one value is its own quartiles)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


@dataclass(frozen=True)
class MetricSummary:
    """One end-to-end metric over the pairs, parent against change."""

    name: str
    unit: str
    better: str  #: "lower" or "higher"
    bound: float  #: largest tolerated relative worsening of the median
    parent: Tuple[float, float, float]  #: (q1, median, q3)
    change: Tuple[float, float, float]
    wins: int  #: pairs where the change measured better
    losses: int  #: pairs where the parent measured better
    pairs: int

    @property
    def parent_iqr(self) -> float:
        return self.parent[2] - self.parent[0]

    @property
    def gain(self) -> float:
        """Median improvement of the change, in the metric's unit."""
        gap = self.parent[1] - self.change[1]
        return gap if self.better == "lower" else -gap

    @property
    def gain_claimed(self) -> bool:
        """The verdict: enough pairs and wins, and a median gap wider
        than the parent's interquartile range."""
        return (
            self.pairs >= MIN_PAIRS
            and self.wins >= WIN_SHARE * self.pairs
            and self.gain > self.parent_iqr
        )

    @property
    def relative_change(self) -> float:
        """(change median - parent median) / parent median."""
        return (self.change[1] - self.parent[1]) / self.parent[1]

    @property
    def regressed(self) -> bool:
        """Is the change's median worse than the parent's beyond the bound?"""
        worse = self.relative_change
        if self.better == "higher":
            worse = -worse
        return worse > self.bound


def summarize(
    name: str,
    unit: str,
    better: str,
    bound: float,
    parent: Sequence[float],
    change: Sequence[float],
) -> MetricSummary:
    """Summarize paired samples; ``parent[i]`` and ``change[i]`` are pair i."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, non-zero number of samples per side")
    if better not in ("lower", "higher"):
        raise ValueError(f"unknown direction {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    return MetricSummary(
        name=name,
        unit=unit,
        better=better,
        bound=bound,
        parent=quartiles(parent),
        change=quartiles(change),
        wins=wins,
        losses=losses,
        pairs=len(parent),
    )


def render(summary: MetricSummary) -> List[str]:
    p, c = summary.parent, summary.change
    verdict = "gain claimed" if summary.gain_claimed else "no gain claimed"
    bound = "REGRESSED" if summary.regressed else "within bound"
    return [
        f"{summary.name} ({summary.unit}, {summary.better} is better)",
        f"  parent median {p[1]:.6g}  quartiles {p[0]:.6g} .. {p[2]:.6g}",
        f"  change median {c[1]:.6g}  quartiles {c[0]:.6g} .. {c[2]:.6g}",
        f"  wins {summary.wins}/{summary.pairs} (losses {summary.losses}), "
        f"median gap {summary.gain:.6g} vs parent IQR "
        f"{summary.parent_iqr:.6g}: {verdict}",
        f"  median change {summary.relative_change:+.1%} vs bound "
        f"{summary.bound:.0%}: {bound}",
    ]


def failure_share(failed: int, attempted: int) -> float:
    return failed / attempted if attempted else 0.0


def gate_failures(
    summaries: Sequence[MetricSummary],
    failed: Dict[str, int],
    attempted: Dict[str, int],
) -> List[str]:
    """Why the change fails the regression gate; empty when it passes.

    ``failed`` and ``attempted`` count runs per side (``"parent"``,
    ``"change"``).
    """
    reasons = [
        f"{s.name}: median change {s.relative_change:+.1%} is worse than "
        f"its {s.bound:.0%} bound"
        for s in summaries
        if s.regressed
    ]
    parent = failure_share(failed["parent"], attempted["parent"])
    change = failure_share(failed["change"], attempted["change"])
    if change > parent:
        reasons.append(
            f"failed runs: {failed['change']} of {attempted['change']} vs the "
            f"parent's {failed['parent']} of {attempted['parent']}"
        )
    return reasons


# ----------------------------------------------------------------------
# Running the pairs
# ----------------------------------------------------------------------
def run_once(tree: Path, workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    """One benchmark run in ``tree``; returns its closing JSON line.

    A run whose outputs failed a check still reports its metrics (and a
    non-zero exit status); its failures are counted, not fatal.
    """
    command = [
        sys.executable, "benchmarks/suite/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(
        command, cwd=tree, capture_output=True, text=True, check=False
    )
    lines = done.stdout.strip().splitlines()
    try:
        outcome = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        outcome = None
    if not isinstance(outcome, dict) or "metrics" not in outcome:
        raise RuntimeError(
            f"{' '.join(command)} in {tree} exited {done.returncode} "
            f"without a result line:\n{done.stderr.strip()}"
        )
    return outcome


def git(*args: str) -> None:
    subprocess.run(["git", *args], cwd=ROOT, check=True)


def run_pairs(
    workload: str, parent_rev: str, pairs: int, seed: int
) -> Tuple[List[MetricSummary], Dict[str, int], Dict[str, int]]:
    """The summaries, and the failed and attempted runs per side."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    seconds = float(spec["run_seconds"])
    metrics = spec["end_to_end"]
    samples: Dict[str, Dict[str, List[float]]] = {
        side: {m["name"]: [] for m in metrics} for side in ("parent", "change")
    }
    failed = {"parent": 0, "change": 0}
    attempted = {"parent": 0, "change": 0}
    if WORKTREE.exists():
        git("worktree", "remove", "--force", str(WORKTREE))
    git("worktree", "add", "--detach", str(WORKTREE), parent_rev)
    try:
        trees = {"parent": WORKTREE, "change": ROOT}
        for index in range(pairs):
            order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
            for side in order:
                outcome = run_once(trees[side], workload, seed, seconds)
                attempted[side] += outcome["attempted"]
                failed[side] += outcome["failed"]
                for metric in metrics:
                    samples[side][metric["name"]].append(
                        float(outcome["metrics"][metric["name"]]["value"])
                    )
            print(f"pair {index + 1}/{pairs} done ({order[0]} first)", flush=True)
    finally:
        git("worktree", "remove", "--force", str(WORKTREE))
    for side in ("parent", "change"):
        print(f"{side}: {failed[side]} of {attempted[side]} runs failed")
    summaries = [
        summarize(
            m["name"], m["unit"], m["better"], float(m["bound"]),
            samples["parent"][m["name"]], samples["change"][m["name"]],
        )
        for m in metrics
    ]
    return summaries, failed, attempted


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a BENCHMARK.json workload")
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    summaries, failed, attempted = run_pairs(
        args.workload, args.parent, args.pairs, args.seed
    )
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs vs {args.parent}:")
    for summary in summaries:
        for line in render(summary):
            print(line)
    reasons = gate_failures(summaries, failed, attempted)
    for reason in reasons:
        print(f"REGRESSION: {reason}", file=sys.stderr)
    return 1 if reasons else 0


if __name__ == "__main__":
    raise SystemExit(main())
