"""E0 — Figure 1: the complete combined workflow, end to end.

Figure 1 is the paper's overview: inside-the-box high/low scans and
diffs for files, registry, processes, and modules, then the
outside-the-box WinPE pass over the same machine — this bench runs the
whole picture against one multiply-infected machine and prints the
combined detection matrix.
"""

from __future__ import annotations

import pytest

from repro.core import GhostBuster
from repro.ghostware import (Aphex, FuRootkit, HackerDefender,
                             NamingExploitGhost, Urbin, Vanquish)
from repro.workloads import attach_standard_services

from benchmarks.conftest import bench_once, fresh_machine, print_table


def test_fig1_combined_workflow(benchmark):
    def run(__):
        machine = fresh_machine("fig1-box")
        attach_standard_services(machine)
        for ghost_cls in (HackerDefender, Urbin, Vanquish, Aphex,
                          NamingExploitGhost):
            ghost_cls().install(machine)
        fu = FuRootkit()
        fu.install(machine)
        victim = machine.start_process("\\Windows\\explorer.exe",
                                       name="unlinked.exe")
        fu.hide_process(machine, victim.pid)

        ghostbuster = GhostBuster(machine, advanced=True)
        inside = ghostbuster.inside_scan()
        outside = ghostbuster.outside_scan(background_gap=60)
        return inside, outside

    inside, outside = bench_once(benchmark, setup=lambda: None,
                                 action=run, rounds=1)
    rows = [
        ("hidden files", len(inside.hidden_files()),
         len(outside.hidden_files())),
        ("hidden ASEP hooks", len(inside.hidden_hooks()),
         len(outside.hidden_hooks())),
        ("hidden processes", len(inside.hidden_processes()),
         len(outside.hidden_processes())),
        ("hidden modules", len(inside.hidden_modules()), "(volatile)"),
        ("noise classified", len(inside.noise()), len(outside.noise())),
        ("simulated seconds", f"{inside.total_duration():.0f}",
         f"{outside.total_duration():.0f}"),
    ]
    print_table("Figure 1 — inside-the-box vs outside-the-box",
                ("metric", "inside", "outside"), rows)

    # Inside catches the interceptors and (advanced) the DKOM victim.
    assert len(inside.hidden_files()) >= 7
    assert len(inside.hidden_hooks()) >= 4
    assert any(finding.entry.name == "unlinked.exe"
               for finding in inside.hidden_processes())
    # Outside reads the same raw truth: the same hidden files, the
    # naming-exploit ghosts among them, and not GhostBuster's own
    # crash dump (written before the file lie is taken).
    inside_paths = {finding.entry.path.casefold()
                    for finding in inside.hidden_files()}
    outside_paths = {finding.entry.path.casefold()
                     for finding in outside.hidden_files()}
    assert outside_paths == inside_paths
    assert any("payload.exe." in path for path in outside_paths)
    assert "\\windows\\memory.dmp" not in outside_paths
    # And classifies the reboot-window churn instead of crying wolf.
    churn = [finding for finding in outside.findings
             if hasattr(finding.entry, "path")
             and "avlogs" in finding.entry.path.casefold()]
    assert churn and all(finding.is_noise for finding in churn)
