"""The paper's detection tables through the production fleet path.

Figures 3, 4 and 6 list what each ghostware program hides; the
benchmarks reproduce them by calling :class:`~repro.core.GhostBuster`
directly.  This table runs each strain through
:class:`~repro.fleet.FleetCoordinator` instead: one machine per row,
scanned over files, registry and processes, escalated by the
production policy and confirmed by each outside-the-box method, in
both process models (the in-process drain and two forked agents).

The expected column is the paper's tables plus the documented limit of
the inside scan: every ghost is infected and confirmed by the method,
except DeepGhost (ablation A3), which blinds the inside scan and so is
seen only by the RIS sweep, the one method that boots unflagged
machines.  Clean machines are never confirmed.
"""

from __future__ import annotations

import functools
import sys

import pytest

from repro.fleet import (CONFIRM_METHODS, EscalationPolicy, FleetCoordinator,
                         clone_fleet)
from repro.ghostware import FuRootkit, LowLevelInterferenceGhost
from repro.machine import Machine
from repro.workloads import STRAINS
from tests.test_fleet_coordinator import golden_image

RESOURCES = ("files", "registry", "processes")
CLEAN = ("clean-0", "clean-1")


def _hide_started_process(machine: Machine) -> None:
    fu = FuRootkit()
    fu.install(machine)
    victim = machine.start_process("\\Windows\\explorer.exe",
                                   name="dkom_victim.exe")
    fu.hide_process(machine, victim.pid)


INFECT = {**{name: (lambda m, cls=cls: cls().install(m))
             for name, cls in STRAINS.items()},
          "fu": _hide_started_process,
          "deepghost": lambda m: LowLevelInterferenceGhost().install(m)}
ROWS = (*INFECT, *CLEAN)


@functools.lru_cache(maxsize=None)
def _golden() -> Machine:
    return golden_image(file_count=30)


def build_row(name: str) -> Machine:
    """One row's machine, cloned from a small golden image."""
    machine, = clone_fleet(_golden(), 1, name_format=name)
    if name in INFECT:
        INFECT[name](machine)
    return machine


def expected(name: str, method: str):
    """(verdict, confirmed_by) the row must get under ``method``."""
    if name in CLEAN or (name == "deepghost" and method != "ris"):
        return ("clean", None)
    return ("infected", method)


def _table(tmp_path, method: str, agents: int):
    """{row: (verdict, confirmed_by)} from one epoch of the fleet."""
    coordinator = FleetCoordinator(
        str(tmp_path),
        list(ROWS) if agents else [build_row(name) for name in ROWS],
        workers=2, policy=EscalationPolicy(method), resources=RESOURCES)
    if agents:
        aggregate, = coordinator.run_distributed(1, build_row,
                                                 agents=agents)
    else:
        aggregate = coordinator.run_epoch()
    return {v.machine: (v.verdict, v.confirmed_by)
            for v in aggregate.verdicts}


@pytest.mark.parametrize("method", CONFIRM_METHODS)
@pytest.mark.parametrize("agents", [
    0, pytest.param(2, marks=pytest.mark.skipif(
        sys.platform == "win32", reason="distributed mode forks"))])
def test_strain_by_method_table(tmp_path, method, agents):
    assert _table(tmp_path, method, agents) \
        == {name: expected(name, method) for name in ROWS}
