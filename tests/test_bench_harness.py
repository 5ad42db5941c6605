"""The research-claim bench harness (``scripts/bench.py``).

The bench is a script, not a package module, so it is loaded from its
path.  It must be registered in ``sys.modules`` before it executes: its
``Experiment`` dataclass is built under ``from __future__ import
annotations``, and ``dataclasses`` resolves those string annotations
through the defining module's ``sys.modules`` entry.
"""

from __future__ import annotations

import hashlib
import importlib.util
import shlex
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CI_WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(
        "bench", ROOT / "scripts" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench", module)
    spec.loader.exec_module(module)
    return module


def bench_files() -> dict:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in ROOT.glob("BENCH_*.json")}


def ci_bench_arguments() -> list:
    """The arguments of every ``scripts/bench.py`` command in CI.

    Read as text (PyYAML is not a dependency): a ``run:`` value is
    either inline or a folded block of more-indented lines.
    """
    lines = CI_WORKFLOW.read_text().splitlines()
    commands = []
    for index, line in enumerate(lines):
        stripped = line.lstrip()
        if not stripped.startswith("run:"):
            continue
        command = stripped[len("run:"):].strip()
        if command in (">", "|", ">-", "|-"):
            indent = len(line) - len(stripped)
            block = []
            for following in lines[index + 1:]:
                if (following.strip() and
                        len(following) - len(following.lstrip()) <= indent):
                    break
                block.append(following.strip())
            command = " ".join(block)
        tokens = shlex.split(command)
        for position, token in enumerate(tokens):
            if token.endswith("scripts/bench.py"):
                commands.append(tokens[position + 1:])
    return commands


def test_workload_replay_mode_passes_without_writing_bench_files(bench):
    before = bench_files()
    assert bench.main(["--workload-replay"]) == 0
    assert bench_files() == before


def test_ci_bench_command_lines_parse_and_name_table_rows(bench):
    parser = bench.build_parser()
    modes = {row.flag: row.name for row in bench.EXPERIMENTS if row.flag}
    assert modes
    for flag, name in modes.items():
        assert parser.parse_args([flag]).mode == name

    commands = ci_bench_arguments()
    assert commands
    ci_modes = set()
    for arguments in commands:
        args = parser.parse_args(arguments)   # exits on a removed flag
        if args.mode is not None:
            ci_modes.add(args.mode)
    # Every mode row runs in CI, and CI runs no mode the bench lacks.
    assert ci_modes == set(modes.values())
