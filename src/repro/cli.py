"""Command-line interface: run scenarios, figures, trials, trace tooling.

Examples::

    python -m repro info
    python -m repro scenario --structure tpcds --jobs 40 --arrival bursty
    python -m repro figure fig5 --jobs 40 --out fig5.json
    python -m repro figure fig5 --parallel 4 --cache-dir .repro-cache
    python -m repro trials --jobs 30 --seeds 1,2,3,4 --parallel 4
    python -m repro scenario --jobs 40 --fault-profile link-flap
    python -m repro chaos --jobs 30 --profiles link-flap,hr-loss --parallel 4
    python -m repro gap --parallel 4 --out GAP_GOLDEN.json
    python -m repro gap --check GAP_GOLDEN.json
    python -m repro trace --synthesize 200 --out /tmp/trace.txt
    python -m repro trace --stats /tmp/trace.txt
    python -m repro trials --run-dir runs/nightly --checkpoint-every 5
    python -m repro gap --run-dir runs/gap --run-budget 3600 --allow-partial
    python -m repro resume runs/gap

Every grid-shaped subcommand (``scenario``, ``figure``, ``trials``,
``chaos``, ``gap``) builds its family's work units from the flags, runs
them through :func:`_execute` and prints the family report assembled
from the resulting grid.  ``--parallel N`` fans the units across N
worker processes (results are bit-identical to serial runs),
``--cache-dir`` reuses completed units across invocations, and
``--run-dir`` supervises the run (manifest, checkpoints, resume).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import __version__
from repro.experiments.chaos import ChaosReport, chaos_configs
from repro.experiments.common import PAPER_SCHEDULERS, ScenarioConfig
from repro.experiments.figures import (
    figure5_configs,
    figure6_config,
    figure7_config,
    figure8_config,
    figure_outcomes,
)
from repro.experiments.parallel import (
    GridReport,
    ProgressEvent,
    WorkUnit,
    grid_of,
    run_grid,
)
from repro.experiments.supervisor import (
    SupervisorReport,
    resume_run,
    run_supervised,
)
from repro.experiments.trials import TrialResult, trial_units
from repro.metrics.report import (
    format_category_table,
    format_degradation_table,
    format_fault_table,
    format_improvement_row,
    format_jct_table,
)
from repro.metrics.serialize import comparison_to_dict, load_json, save_json
from repro.schedulers.registry import available_schedulers
from repro.simulator.faults import CANNED_PROFILES
from repro.simulator.observability import fault_counters
from repro.theory.gap import (
    GAP_FAMILIES,
    check_gap_golden,
    gap_report_from_grid,
    gap_units,
    golden_harness_units,
)
from repro.workloads.fbtrace import parse_trace, synthesize_trace, write_trace
from repro.workloads.stats import format_trace_stats, trace_stats


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Gurita (ICDCS 2019) reproduction toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="library, schedulers, and topology info")

    scenario = sub.add_parser("scenario", help="run one scenario")
    _add_workload_flags(scenario, jobs=40)
    scenario.add_argument(
        "--hosts", type=int, default=0,
        help="host count for --topology bigswitch (0 = default 16)",
    )
    _add_fault_flags(scenario)
    _add_supervisor_flags(scenario)
    scenario.add_argument("--out", help="write results JSON here")

    figure = sub.add_parser("figure", help="reproduce one paper figure")
    figure.add_argument(
        "name", choices=["fig5", "fig6", "fig7", "fig8"],
    )
    figure.add_argument("--structure", default="fb-tao")
    figure.add_argument("--jobs", type=int, default=None)
    figure.add_argument("--out", help="write results JSON here")
    _add_engine_flags(figure)

    trials = sub.add_parser(
        "trials", help="replay one scenario across seeds (mean ± std)"
    )
    _add_workload_flags(trials, jobs=30, scenario_flags=False)
    trials.add_argument(
        "--seeds", default="1,2,3", help="comma-separated replicate seeds"
    )
    trials.add_argument(
        "--gaps", action="store_true",
        help="also report each policy's mean optimality gap (JCT over the "
        "combinatorial lower bound) across seeds",
    )
    _add_engine_flags(trials)
    _add_supervisor_flags(trials)

    chaos = sub.add_parser(
        "chaos", help="compare schedulers on a faulted vs perfect fabric"
    )
    _add_workload_flags(chaos, jobs=40)
    chaos.add_argument(
        "--profiles",
        default=",".join(CANNED_PROFILES),
        help="comma-separated fault profiles to inject (each runs the "
        "scenario once, compared against a shared no-fault baseline)",
    )
    chaos.add_argument(
        "--intensity", type=float, default=1.0,
        help="scales the profiles' incident counts / HR degradation",
    )
    chaos.add_argument(
        "--fault-seed", type=int, default=0,
        help="pin the fault streams (0 = derive from the workload seed)",
    )
    _add_engine_flags(chaos)

    gap = sub.add_parser(
        "gap", help="optimality-gap harness: JCT vs combinatorial lower bound"
    )
    gap.add_argument("--jobs", type=int, default=12)
    gap.add_argument("--fattree-k", type=int, default=4)
    gap.add_argument("--seed", type=int, default=42)
    gap.add_argument(
        "--schedulers", default="all",
        help="comma-separated policy names ('all' = the full registry)",
    )
    gap.add_argument(
        "--families",
        default=",".join(name for name, *_ in GAP_FAMILIES),
        help="comma-separated scenario families "
        f"({', '.join(name for name, *_ in GAP_FAMILIES)})",
    )
    gap.add_argument(
        "--out", help="write the golden-format gap artifact JSON here"
    )
    gap.add_argument(
        "--check", metavar="GOLDEN",
        help="re-run a committed golden artifact's harness parameters and "
        "fail unless the gap fingerprint matches it",
    )
    _add_engine_flags(gap)
    _add_supervisor_flags(gap)

    resume = sub.add_parser(
        "resume",
        help="resume an interrupted supervised run from its manifest",
    )
    resume.add_argument(
        "manifest",
        help="path to a supervised run's manifest.json (or its run directory)",
    )
    resume.add_argument(
        "--parallel", type=int, default=1, metavar="N",
        help="fan the remaining units across N worker processes",
    )
    resume.add_argument(
        "--checkpoint-every", type=float, default=None, metavar="SECONDS",
        help="override the manifest's checkpoint cadence (simulated "
        "seconds; default: the cadence recorded in the manifest)",
    )
    resume.add_argument(
        "--run-budget", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget for this resume pass; at expiry pending "
        "units are checkpointed and marked abandoned for the next resume",
    )
    resume.add_argument(
        "--allow-partial", action="store_true",
        help="exit 0 reporting per-unit statuses even if some units "
        "remain failed/abandoned",
    )

    trace = sub.add_parser("trace", help="trace tooling")
    trace.add_argument("--synthesize", type=int, metavar="N")
    trace.add_argument("--machines", type=int, default=3000)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--out", help="trace output path")
    trace.add_argument("--stats", metavar="PATH", help="summarise a trace file")

    return parser


def _add_workload_flags(
    sub: argparse.ArgumentParser, jobs: int, scenario_flags: bool = True
) -> None:
    """The scenario knobs shared by ``scenario``, ``trials`` and ``chaos``.

    ``scenario_flags`` adds ``--seed`` and ``--topology``; ``trials``
    takes its seeds from ``--seeds`` and always runs a FatTree.
    """
    sub.add_argument("--structure", default="fb-tao")
    sub.add_argument("--jobs", type=int, default=jobs)
    sub.add_argument(
        "--arrival", default="uniform",
        choices=["uniform", "poisson", "bursty", "simultaneous"],
    )
    sub.add_argument("--load", type=float, default=1.5)
    if scenario_flags:
        sub.add_argument("--seed", type=int, default=42)
        sub.add_argument(
            "--topology", default="fattree", choices=["fattree", "bigswitch"],
        )
    sub.add_argument("--fattree-k", type=int, default=8)
    sub.add_argument(
        "--schedulers",
        default=",".join(PAPER_SCHEDULERS),
        help="comma-separated policy names",
    )


def _add_fault_flags(sub: argparse.ArgumentParser) -> None:
    """The fault-injection knobs of fabric-level subcommands."""
    sub.add_argument(
        "--fault-profile", default="", metavar="NAME",
        help="inject a canned fault profile "
        f"({', '.join(CANNED_PROFILES)}; default: perfect fabric)",
    )
    sub.add_argument(
        "--fault-intensity", type=float, default=1.0,
        help="scales the profile's incident counts / HR degradation",
    )
    sub.add_argument(
        "--fault-seed", type=int, default=0,
        help="pin the fault streams (0 = derive from the workload seed)",
    )


def _add_engine_flags(sub: argparse.ArgumentParser) -> None:
    """The parallel-engine knobs shared by grid-shaped subcommands."""
    sub.add_argument(
        "--parallel", type=int, default=1, metavar="N",
        help="fan independent scenario runs across N worker processes "
        "(results stay bit-identical to --parallel 1)",
    )
    sub.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="reuse completed units from (and persist them to) this "
        "on-disk result cache",
    )


def _add_supervisor_flags(sub: argparse.ArgumentParser) -> None:
    """The crash-safe run-manager knobs (see ``repro.experiments.supervisor``)."""
    sub.add_argument(
        "--run-dir", default=None, metavar="PATH",
        help="supervise the run: persist a resumable manifest, result "
        "cache, and per-unit checkpoints under this directory",
    )
    sub.add_argument(
        "--checkpoint-every", type=float, default=None, metavar="SECONDS",
        help="checkpoint each in-flight simulation every SECONDS of "
        "simulated time (requires --run-dir; default: no checkpoints). "
        "Each write pickles the whole simulation and the number of writes "
        "follows the simulated makespan, so a small cadence can cost "
        "more than the run itself",
    )
    sub.add_argument(
        "--run-budget", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget for the whole run (requires --run-dir); "
        "at expiry pending units are checkpointed and marked abandoned, "
        "resumable via `repro resume`",
    )
    sub.add_argument(
        "--resume", action="store_true",
        help="resume the manifest already in --run-dir instead of "
        "building a fresh unit list from these flags",
    )
    sub.add_argument(
        "--allow-partial", action="store_true",
        help="report per-unit statuses instead of failing the whole "
        "command when some units fail or run out of budget",
    )


def _print_progress(event: ProgressEvent) -> None:
    print(
        f"[{event.completed}/{event.total}] {event.kind}: "
        f"{event.unit.describe()}",
        file=sys.stderr,
    )


def _csv(text: str) -> Tuple[str, ...]:
    """The non-empty items of a comma-separated flag value."""
    return tuple(item.strip() for item in text.split(",") if item.strip())


def _scenario_config(
    args: argparse.Namespace, name: str, **fields: Any
) -> ScenarioConfig:
    """The scenario the shared workload flags describe, plus ``fields``."""
    return ScenarioConfig(
        name=name,
        structure=args.structure,
        num_jobs=args.jobs,
        arrival_mode=args.arrival,
        offered_load=args.load,
        fattree_k=args.fattree_k,
        **fields,
    )


def _flag_conflict(args: argparse.Namespace) -> Optional[str]:
    """Why the supervisor flags given cannot be combined, if they cannot."""
    if not hasattr(args, "run_dir"):
        return None
    if not args.run_dir:
        for flag, name in (
            (args.checkpoint_every, "--checkpoint-every"),
            (args.run_budget, "--run-budget"),
            (args.resume or None, "--resume"),
            (args.allow_partial or None, "--allow-partial"),
        ):
            if flag is not None:
                return f"{name} requires --run-dir (the supervised run directory)"
        return None
    if getattr(args, "cache_dir", None):
        return (
            "--cache-dir cannot be combined with --run-dir: a supervised "
            "run keeps its result cache under the run directory"
        )
    if getattr(args, "check", None):
        return (
            "--check replays a pinned harness and cannot be supervised; "
            "drop --run-dir"
        )
    return None


def _execute(
    args: argparse.Namespace, units: Sequence[WorkUnit]
) -> Optional[GridReport]:
    """Run ``units`` the way ``args`` asks, then print the run summary.

    Plain runs go through ``run_grid`` (``--parallel``, ``--cache-dir``);
    ``--run-dir`` supervises them, and ``--resume`` or the ``resume``
    subcommand replays the manifest's units instead of ``units``.
    Returns the grid report, or None when some unit did not complete.
    """
    parallel = getattr(args, "parallel", 1)
    progress = _print_progress if parallel > 1 else None
    supervised: Optional[SupervisorReport] = None
    if args.command == "resume" or getattr(args, "run_dir", None):
        options: Dict[str, Any] = dict(
            parallel=parallel,
            checkpoint_every=args.checkpoint_every,
            run_budget=args.run_budget,
            allow_partial=args.allow_partial,
            progress=progress,
        )
        if args.command == "resume":
            supervised = resume_run(args.manifest, **options)
        elif args.resume:
            supervised = resume_run(args.run_dir, **options)
        else:
            supervised = run_supervised(units, args.run_dir, **options)
        report = supervised.report
    else:
        report = run_grid(
            units,
            parallel=parallel,
            cache_dir=getattr(args, "cache_dir", None),
            progress=progress,
        )
    _print_summary(report, supervised)
    return report if report.ok else None


def _print_summary(
    report: GridReport, supervised: Optional[SupervisorReport]
) -> None:
    """Engine counters, failed units and the JCT fingerprint of one run.

    Supervised runs add their unit status counts and, when something is
    left to do, the command that resumes them.
    """
    if supervised is not None:
        summary = ", ".join(
            f"{count} {status}"
            for status, count in supervised.counts().items()
            if count
        )
        print(f"supervised: {summary or 'nothing to do'}")
    stats = report.stats
    line = (
        f"engine: {stats.completed}/{stats.total_units} units, "
        f"{stats.workers} worker(s), {stats.cache_hits} cache hit(s), "
        f"{stats.retries} retried, {stats.failures} failed"
    )
    for label, count in (
        ("worker crash(es)", stats.worker_crashes),
        ("corrupt cache entr(ies)", stats.cache_corrupt),
        ("abandoned on budget", stats.abandoned),
    ):
        if count:
            line += f", {count} {label}"
    if stats.elapsed_seconds > 0:
        line += (
            f", {stats.elapsed_seconds:.1f}s elapsed, "
            f"utilization {stats.worker_utilization:.0%}"
        )
    print(line)
    for failure in report.failures:
        times = (
            ", ".join(f"{s:.1f}s" for s in failure.attempt_seconds)
            if failure.attempt_seconds
            else "no attempt launched"
        )
        print(
            f"  {failure.unit.describe()}: [{failure.kind}] "
            f"{failure.attempts} attempt(s) ({times}): {failure.error}"
        )
    print(f"jct fingerprint: {_jct_fingerprint(report)}")
    if (
        supervised is not None
        and supervised.manifest_path is not None
        and supervised.resumable
    ):
        print(f"resume with: repro resume {supervised.manifest_path}")


def _jct_fingerprint(report: GridReport) -> str:
    """blake2b-16 over every completed unit's sorted per-job JCTs.

    The same scheme as ``benchmarks/fingerprint_figures.py``: any float
    divergence in any completed simulation changes it, which is what the
    resume-smoke check diffs against an uninterrupted run.
    """
    record = {}
    for unit, outcome in zip(report.units, report.results):
        if outcome is None:
            continue
        record[unit.describe()] = {
            name: sorted(result.job_completion_times().items())
            for name, result in sorted(outcome.results.items())
        }
    encoded = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(encoded.encode("utf-8"), digest_size=16).hexdigest()


def cmd_info(args: argparse.Namespace) -> int:
    from repro.simulator.topology.fattree import FatTreeTopology

    print(f"repro {__version__} — Gurita (ICDCS 2019) reproduction")
    print(f"schedulers: {', '.join(available_schedulers())}")
    for k in (4, 8, 48):
        topo = FatTreeTopology(k=k)
        print(
            f"fattree k={k}: {topo.num_hosts} hosts, "
            f"{topo.num_switches} switches, {topo.num_links} directed links"
        )
    return 0


def cmd_scenario(args: argparse.Namespace) -> int:
    config = _scenario_config(
        args,
        "cli",
        seed=args.seed,
        topology=args.topology,
        num_hosts=args.hosts,
        fault_profile=args.fault_profile,
        fault_intensity=args.fault_intensity,
        fault_seed=args.fault_seed,
    )
    report = _execute(args, grid_of([config], schedulers=_csv(args.schedulers)))
    if report is None:
        return 1
    outcome = report.scenario_results()[0]
    print(format_jct_table(outcome.average_jcts()))
    if args.fault_profile:
        print()
        print(f"fault profile {args.fault_profile!r}:")
        print(
            format_fault_table(
                {
                    name: fault_counters(result)
                    for name, result in outcome.results.items()
                }
            )
        )
    # Surfaced when the run was invariant-checked (REPRO_INVARIANTS=1|strict).
    for name, result in outcome.results.items():
        if result.invariant_report is not None:
            print(f"{name}: {result.invariant_report.summary()}")
    if "gurita" in outcome.results and len(outcome.results) > 1:
        print()
        print(format_improvement_row("vs gurita", outcome.improvements_over()))
        print()
        print(
            format_category_table(
                outcome.category_improvements_over(),
                title="per-category improvement of gurita:",
            )
        )
    if args.out:
        path = save_json(comparison_to_dict(outcome.results), args.out)
        print(f"\nwrote {path}")
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    if args.name == "fig5":
        configs = figure5_configs(num_jobs=args.jobs or 40)
    elif args.name == "fig6":
        configs = [figure6_config(args.structure, num_jobs=args.jobs or 70)]
    elif args.name == "fig7":
        configs = [figure7_config(args.structure, num_jobs=args.jobs or 60)]
    else:
        configs = [figure8_config(args.structure, num_jobs=args.jobs or 70)]
    report = _execute(args, grid_of(configs))
    if report is None:
        return 1
    records = {}
    for name, outcome in figure_outcomes(report).items():
        records[name] = comparison_to_dict(outcome.results)
        reference = "gurita" if "gurita" in outcome.results else None
        print(f"== {name}")
        print(format_jct_table(outcome.average_jcts()))
        if reference and len(outcome.results) > 1:
            print(
                format_category_table(
                    outcome.category_improvements_over(reference),
                    title=f"per-category improvement of {reference}:",
                )
            )
        print()
    if args.out:
        path = save_json(records, args.out)
        print(f"wrote {path}")
    return 0


def cmd_trials(args: argparse.Namespace) -> int:
    seeds = tuple(int(seed) for seed in _csv(args.seeds))
    units = trial_units(
        _scenario_config(args, "cli-trials"), seeds, _csv(args.schedulers)
    )
    report = _execute(args, units)
    if report is None:
        return 1
    trial = TrialResult.from_grid(report)
    # A resume replays the manifest's units, so the seeds and schedulers
    # shown come from the report rather than the flags.
    shown_seeds = [unit.effective_seed for unit in report.units]
    shown_schedulers = report.units[0].scheduler_names()
    print(f"trials over seeds {', '.join(str(s) for s in shown_seeds)}:")
    print("avg JCT per policy (mean ± std):")
    for name, stats in sorted(trial.average_jct_stats().items()):
        print(f"  {name:>10}  {stats}")
    if "gurita" in shown_schedulers and len(shown_schedulers) > 1:
        print("improvement of gurita (mean ± std):")
        for name, stats in sorted(trial.improvement_stats().items()):
            print(f"  {name:>10}  {stats}")
    if args.gaps:
        print("mean optimality gap per policy (mean ± std, 1.00 = optimal):")
        for name, stats in sorted(trial.gap_stats().items()):
            print(f"  {name:>10}  {stats}")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    config = _scenario_config(
        args,
        "cli-chaos",
        seed=args.seed,
        topology=args.topology,
        schedulers=_csv(args.schedulers),
    )
    configs = chaos_configs(
        config,
        _csv(args.profiles),
        intensity=args.intensity,
        fault_seed=args.fault_seed,
    )
    grid = _execute(args, grid_of(configs))
    if grid is None:
        return 1
    report = ChaosReport.from_grid(config, grid)
    print("baseline (perfect fabric):")
    print(format_jct_table(report.baseline.average_jcts()))
    print()
    print(
        format_degradation_table(
            {profile: report.degradation(profile) for profile in report.profiles}
        )
    )
    for profile in report.profiles:
        print()
        print(f"fault handling under {profile!r}:")
        print(format_fault_table(report.fault_counters(profile)))
    return 0


def cmd_gap(args: argparse.Namespace) -> int:
    golden = load_json(args.check) if args.check else None
    if golden is not None:
        units = golden_harness_units(golden)
    else:
        units = gap_units(
            schedulers=(
                None if args.schedulers.strip() == "all" else _csv(args.schedulers)
            ),
            num_jobs=args.jobs,
            fattree_k=args.fattree_k,
            seed=args.seed,
            families=_csv(args.families),
        )
    grid = _execute(args, units)
    if grid is None:
        return 1
    report = gap_report_from_grid(grid)
    report.validate()
    print(report.format_table())
    if golden is not None:
        problems = check_gap_golden(report, golden)
        if problems:
            print(f"\ngap fingerprint diverged from {args.check}:", file=sys.stderr)
            for line in problems:
                print(f"  {line}", file=sys.stderr)
            return 1
        print(f"\ngap fingerprint matches {args.check}: {report.fingerprint()}")
        return 0
    worst = report.worst_cell()
    print(
        f"\nworst cell: {worst.scheduler} on {worst.scenario} "
        f"(mean {worst.mean_gap:.3f}x, max {worst.max_gap:.3f}x)"
    )
    print(f"fingerprint: {report.fingerprint()}")
    if args.out:
        path = save_json(report.to_golden(), args.out)
        print(f"wrote {path}")
    return 0


def cmd_resume(args: argparse.Namespace) -> int:
    return 0 if _execute(args, ()) is not None else 1


def cmd_trace(args: argparse.Namespace) -> int:
    if args.stats:
        _machines, trace = parse_trace(args.stats)
        print(format_trace_stats(trace_stats(trace)))
        return 0
    if args.synthesize:
        trace = synthesize_trace(
            args.synthesize, num_machines=args.machines, seed=args.seed
        )
        print(format_trace_stats(trace_stats(trace)))
        if args.out:
            write_trace(args.out, trace, num_machines=args.machines)
            print(f"wrote {args.out}")
        return 0
    print("trace: pass --synthesize N or --stats PATH", file=sys.stderr)
    return 2


_COMMANDS: Dict[str, Callable[[argparse.Namespace], int]] = {
    "info": cmd_info,
    "scenario": cmd_scenario,
    "figure": cmd_figure,
    "trials": cmd_trials,
    "chaos": cmd_chaos,
    "gap": cmd_gap,
    "resume": cmd_resume,
    "trace": cmd_trace,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    conflict = _flag_conflict(args)
    if conflict:
        print(conflict, file=sys.stderr)
        return 2
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
