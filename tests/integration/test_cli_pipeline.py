"""The CLI's experiment pipeline: plain and supervised runs agree.

Every grid-shaped subcommand (``scenario``, ``figure``, ``trials``,
``chaos``, ``gap``) builds work units, executes them (plainly, or under
``--run-dir`` supervision) and prints family tables assembled from the
grid report.  These tests drive ``repro.cli.main`` on tiny configs and
check that the execution mode never changes a printed table, that a
finished supervised run resumes from its cache, and that no subcommand
silently gains or loses a flag.
"""

from __future__ import annotations

import contextlib
import io
import re
from typing import List

import pytest

from repro.cli import build_parser, main

TINY = ["--jobs", "3", "--fattree-k", "4", "--schedulers", "pfs,gurita"]

#: Lines the run summary prints; they carry wall times or run-mode
#: details, so the table comparison drops them.
SUMMARY_PREFIXES = ("supervised:", "engine:", "jct fingerprint:", "resume with:")

ENGINE_RE = re.compile(
    r"^engine: (\d+)/(\d+) units, \d+ worker\(s\), (\d+) cache hit\(s\)",
    re.MULTILINE,
)
FINGERPRINT_RE = re.compile(r"^jct fingerprint: ([0-9a-f]{32})$", re.MULTILINE)


def run_cli(capsys, argv: List[str]) -> str:
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return out


def tables(output: str) -> str:
    """The printed output minus the run-summary lines."""
    return "\n".join(
        line
        for line in output.splitlines()
        if not line.startswith(SUMMARY_PREFIXES)
    ).strip()


class TestPlainAndSupervisedParity:
    @pytest.mark.parametrize(
        "argv",
        [
            ["scenario", *TINY],
            ["trials", *TINY, "--seeds", "1,2"],
            ["gap", *TINY, "--families", "trace-fbtao,faulted-fbtao"],
        ],
        ids=["scenario", "trials", "gap"],
    )
    def test_tables_identical_with_run_dir(self, capsys, tmp_path, argv):
        plain = run_cli(capsys, argv)
        supervised = run_cli(capsys, [*argv, "--run-dir", str(tmp_path / "run")])
        assert "supervised: " in supervised
        body = tables(plain)
        assert body and ("avg JCT" in body or "fingerprint:" in body)
        assert body == tables(supervised)
        # Both modes print the same run summary, fingerprint included.
        assert ENGINE_RE.search(plain)
        assert (
            FINGERPRINT_RE.search(plain).group(1)
            == FINGERPRINT_RE.search(supervised).group(1)
        )


class TestFlagConflicts:
    @pytest.mark.parametrize("command", ["trials", "gap"])
    def test_cache_dir_rejected_under_run_dir(self, capsys, tmp_path, command):
        code = main(
            [
                command,
                *TINY,
                "--run-dir", str(tmp_path / "run"),
                "--cache-dir", str(tmp_path / "cache"),
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "--cache-dir" in captured.err and "--run-dir" in captured.err
        assert not (tmp_path / "run").exists()
        assert not (tmp_path / "cache").exists()

    def test_supervisor_flag_needs_run_dir(self, capsys):
        assert main(["trials", *TINY, "--allow-partial"]) == 2
        assert "--allow-partial requires --run-dir" in capsys.readouterr().err


class TestSmoke:
    # ``figure fig8`` is smoked by test_requests_errors.TestCliFigure.

    def test_chaos_link_flap(self, capsys):
        out = run_cli(capsys, ["chaos", *TINY, "--profiles", "link-flap"])
        assert "baseline (perfect fabric):" in out
        assert "fault handling under 'link-flap':" in out
        assert ENGINE_RE.search(out)


class TestResume:
    def test_resume_of_finished_run_is_all_cache_hits(self, capsys, tmp_path):
        run_dir = str(tmp_path / "run")
        first = run_cli(
            capsys, ["trials", *TINY, "--seeds", "1,2", "--run-dir", run_dir]
        )
        resumed = run_cli(capsys, ["resume", run_dir])
        completed, total, hits = ENGINE_RE.search(resumed).groups()
        assert completed == total == hits == "2"
        assert (
            FINGERPRINT_RE.search(resumed).group(1)
            == FINGERPRINT_RE.search(first).group(1)
        )


#: Every subcommand's option strings, as printed by ``--help``.
PINNED_OPTIONS = {
    "info": ["--help", "-h"],
    "scenario": [
        "--allow-partial", "--arrival", "--checkpoint-every",
        "--fattree-k", "--fault-intensity", "--fault-profile",
        "--fault-seed", "--help", "--hosts", "--jobs", "--load", "--out",
        "--resume", "--run-budget", "--run-dir", "--schedulers", "--seed",
        "--structure", "--topology", "-h",
    ],
    "figure": [
        "--cache-dir", "--help", "--jobs", "--out", "--parallel",
        "--structure", "-h",
    ],
    "trials": [
        "--allow-partial", "--arrival", "--cache-dir", "--checkpoint-every",
        "--fattree-k", "--gaps", "--help", "--jobs", "--load", "--parallel",
        "--resume", "--run-budget", "--run-dir", "--schedulers", "--seeds",
        "--structure", "-h",
    ],
    "chaos": [
        "--arrival", "--cache-dir", "--fattree-k", "--fault-seed", "--help",
        "--intensity", "--jobs", "--load", "--parallel", "--profiles",
        "--schedulers", "--seed", "--structure", "--topology", "-h",
    ],
    "gap": [
        "--allow-partial", "--cache-dir", "--check", "--checkpoint-every",
        "--families", "--fattree-k", "--help", "--jobs", "--out",
        "--parallel", "--resume", "--run-budget", "--run-dir",
        "--schedulers", "--seed", "-h",
    ],
    "resume": [
        "--allow-partial", "--checkpoint-every", "--help", "--parallel",
        "--run-budget", "-h",
    ],
    "trace": [
        "--help", "--machines", "--out", "--seed", "--stats",
        "--synthesize", "-h",
    ],
}

PAPER = "pfs,baraat,stream,aalo,gurita"
SUPERVISOR_DEFAULTS = {
    "run_dir": None,
    "checkpoint_every": None,
    "run_budget": None,
    "resume": False,
    "allow_partial": False,
}

#: Every subcommand's parsed defaults (positionals filled in below).
PINNED_DEFAULTS = {
    "info": {},
    "scenario": {
        "structure": "fb-tao", "jobs": 40, "arrival": "uniform", "seed": 42,
        "load": 1.5, "topology": "fattree", "fattree_k": 8, "hosts": 0,
        "schedulers": PAPER, "fault_profile": "", "fault_intensity": 1.0,
        "fault_seed": 0, "out": None, **SUPERVISOR_DEFAULTS,
    },
    "figure": {
        "name": "fig5", "structure": "fb-tao", "jobs": None, "out": None,
        "parallel": 1, "cache_dir": None,
    },
    "trials": {
        "structure": "fb-tao", "jobs": 30, "arrival": "uniform", "load": 1.5,
        "fattree_k": 8, "seeds": "1,2,3", "schedulers": PAPER, "gaps": False,
        "parallel": 1, "cache_dir": None, **SUPERVISOR_DEFAULTS,
    },
    "chaos": {
        "structure": "fb-tao", "jobs": 40, "arrival": "uniform", "seed": 42,
        "load": 1.5, "topology": "fattree", "fattree_k": 8,
        "profiles": "link-flap,switch-failure,host-crash,hr-loss,chaos",
        "intensity": 1.0, "fault_seed": 0, "schedulers": PAPER,
        "parallel": 1, "cache_dir": None,
    },
    "gap": {
        "jobs": 12, "fattree_k": 4, "seed": 42, "schedulers": "all",
        "families": "trace-fbtao,trace-tpcds,bursty-fbtao,faulted-fbtao",
        "out": None, "check": None, "parallel": 1, "cache_dir": None,
        **SUPERVISOR_DEFAULTS,
    },
    "resume": {
        "manifest": "runs/x", "parallel": 1, "checkpoint_every": None,
        "run_budget": None, "allow_partial": False,
    },
    "trace": {
        "synthesize": None, "machines": 3000, "seed": 0, "out": None,
        "stats": None,
    },
}

POSITIONALS = {"figure": ["fig5"], "resume": ["runs/x"]}


def help_options(command: str) -> List[str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), pytest.raises(SystemExit):
        build_parser().parse_args([command, "--help"])
    options = set()
    for line in buffer.getvalue().splitlines():
        if re.match(r"^  -", line):
            invocation = re.split(r"\s{2,}", line.strip())[0]
            options.update(re.findall(r"(?<![\w-])-{1,2}[a-z][\w-]*", invocation))
    return sorted(options)


class TestFlagSurface:
    @pytest.mark.parametrize("command", sorted(PINNED_OPTIONS))
    def test_help_option_list_is_pinned(self, command):
        assert help_options(command) == PINNED_OPTIONS[command]

    @pytest.mark.parametrize("command", sorted(PINNED_DEFAULTS))
    def test_defaults_are_pinned(self, command):
        parsed = vars(
            build_parser().parse_args([command, *POSITIONALS.get(command, [])])
        )
        assert parsed.pop("command") == command
        assert parsed == PINNED_DEFAULTS[command]
