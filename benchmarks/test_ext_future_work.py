"""X1 — extensions beyond the paper's evaluation (its future-work list).

* **ADS**: Section 6 names Alternate Data Streams as a hiding form with
  no enumeration API; the ADS scanner closes that gap and the regular
  file diff demonstrably cannot.
* **RIS**: Section 5 proposes replacing the CD boot with a network boot
  for enterprise automation; one fleet epoch network-boots every client
  and picks the infected one without a console visit.
* **Registry callbacks**: Section 3 names kernel registry callbacks as
  an alternative interception the diff handles identically.
"""

from __future__ import annotations

import tempfile

import pytest

from repro.core import (GhostBuster, executable_streams,
                        scan_alternate_streams)
from repro.fleet import EscalationPolicy, FleetCoordinator
from repro.ghostware import AdsGhost, CmCallbackGhost, HackerDefender
from repro.machine import Machine

from benchmarks.conftest import bench_once, fresh_machine, print_table


def test_ads_scan_closes_the_future_work_gap(benchmark):
    def run(__):
        machine = fresh_machine("ads-box")
        ghost = AdsGhost()
        ghost.install(machine)
        file_diff = GhostBuster(machine).inside_scan(resources=("files",))
        streams = scan_alternate_streams(machine)
        return ghost, file_diff, streams

    ghost, file_diff, streams = bench_once(benchmark, setup=lambda: None,
                                           action=run)
    executables = executable_streams(streams)
    print_table("X1 — ADS hiding (paper future work)",
                ("detector", "result"),
                [("regular file cross-view diff",
                  "clean (host file matches in both views)"
                  if file_diff.is_clean else "detected"),
                 ("ADS raw-MFT scan",
                  "; ".join(entry.describe() for entry in streams))])
    assert file_diff.is_clean
    assert any(entry.qualified_name == ghost.stream_path
               for entry in executables)


def test_ris_fleet_sweep(benchmark, tmp_path):
    def run(__):
        machines = []
        for index in range(4):
            machine = Machine(f"ris-client-{index}", disk_mb=256,
                              max_records=8192)
            machine.boot()
            machines.append(machine)
        HackerDefender().install(machines[2])
        fleet_dir = tempfile.mkdtemp(dir=tmp_path)   # fresh per round
        return FleetCoordinator(fleet_dir, machines,
                                policy=EscalationPolicy("ris")).run_epoch()

    epoch = bench_once(benchmark, setup=lambda: None, action=run)
    rows = [(v.machine, v.verdict,
             f"confirmed by {v.confirmed_by}" if v.confirmed else "-",
             f"{v.scan_seconds:.0f} s")
            for v in sorted(epoch.verdicts, key=lambda v: v.machine)]
    print_table("X1 — RIS network-boot fleet sweep",
                ("client", "verdict", "outside view", "scan"), rows)
    assert epoch.summary.escalated == 4     # every client network-booted
    assert epoch.infected_machines() == ["ris-client-2"]
    infected = next(v for v in epoch.verdicts
                    if v.machine == "ris-client-2")
    assert infected.confirmed_by == "ris"


def test_cm_callback_technique(benchmark):
    def run(__):
        machine = fresh_machine("cm-box")
        CmCallbackGhost().install(machine)
        return GhostBuster(machine).inside_scan(resources=("registry",))

    report = bench_once(benchmark, setup=lambda: None, action=run)
    print_table("X1 — kernel registry-callback hiding",
                ("hidden hook",),
                [(finding.entry.describe(),)
                 for finding in report.hidden_hooks()])
    assert any(finding.entry.name == "cmghost"
               for finding in report.hidden_hooks())
