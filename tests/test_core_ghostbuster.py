"""Tests for the GhostBuster facade: inside and outside workflows."""

import pytest

from repro.core import GhostBuster
from repro.core.winpe import DUMP_PATH
from repro.ghostware import (Aphex, Berbew, FuRootkit, HackerDefender,
                             ProBotSE, Urbin, Vanquish)
from repro.workloads import attach_standard_services
from repro.workloads.scenarios import build_home_pc


class TestInsideScan:
    def test_clean_machine_is_clean(self, booted):
        report = GhostBuster(booted, advanced=True).inside_scan()
        assert report.is_clean
        assert report.findings == []

    def test_hacker_defender_fully_detected(self, booted):
        HackerDefender().install(booted)
        report = GhostBuster(booted).inside_scan()
        files = {finding.entry.path for finding in report.hidden_files()}
        assert {"\\Windows\\hxdef100.exe", "\\Windows\\hxdefdrv.sys",
                "\\Windows\\hxdef100.ini"} <= files
        hooks = {finding.entry.name for finding in report.hidden_hooks()}
        assert {"HackerDefender100", "HackerDefenderDrv100"} <= hooks
        processes = {finding.entry.name
                     for finding in report.hidden_processes()}
        assert "hxdef100.exe" in processes

    def test_selective_resources(self, booted):
        HackerDefender().install(booted)
        report = GhostBuster(booted).inside_scan(resources=("registry",))
        assert report.hidden_hooks()
        assert report.hidden_files() == []
        assert list(report.durations) == ["registry"]

    def test_fu_needs_advanced_mode(self, booted):
        fu = FuRootkit()
        fu.install(booted)
        victim = booted.start_process("\\Windows\\explorer.exe",
                                      name="victim.exe")
        fu.hide_process(booted, victim.pid)
        standard = GhostBuster(booted, advanced=False).inside_scan(
            resources=("processes",))
        advanced = GhostBuster(booted, advanced=True).inside_scan(
            resources=("processes",))
        assert standard.hidden_processes() == []
        names = {finding.entry.name
                 for finding in advanced.hidden_processes()}
        assert "victim.exe" in names

    def test_findings_deduplicated_across_truths(self, booted):
        """Advanced mode diffs against two truths; one finding per ghost."""
        HackerDefender().install(booted)
        report = GhostBuster(booted, advanced=True).inside_scan(
            resources=("processes",))
        names = [finding.entry.name
                 for finding in report.hidden_processes()]
        assert names.count("hxdef100.exe") == 1

    def test_durations_recorded_per_resource(self, booted):
        report = GhostBuster(booted).inside_scan()
        assert set(report.durations) == {"files", "registry", "processes",
                                         "modules"}
        assert all(value > 0 for value in report.durations.values())

    def test_multi_infection(self, booted):
        for ghost_cls in (HackerDefender, Urbin, Vanquish, Aphex,
                          ProBotSE, Berbew):
            ghost_cls().install(booted)
        report = GhostBuster(booted, advanced=True).inside_scan()
        assert len(report.hidden_files()) >= 9
        assert len(report.hidden_hooks()) >= 6
        assert len(report.hidden_processes()) >= 2


class TestOutsideScan:
    def test_detects_api_hiders(self, booted):
        HackerDefender().install(booted)
        report = GhostBuster(booted).outside_scan(
            resources=("files", "registry"))
        files = {finding.entry.path for finding in report.hidden_files()}
        assert "\\Windows\\hxdef100.exe" in files
        hooks = {finding.entry.name for finding in report.hidden_hooks()}
        assert "HackerDefender100" in hooks

    def test_process_scan_via_dump(self, booted):
        HackerDefender().install(booted)
        report = GhostBuster(booted).outside_scan(resources=("processes",))
        names = {finding.entry.name
                 for finding in report.hidden_processes()}
        assert "hxdef100.exe" in names

    def test_reboots_back_by_default(self, booted):
        report = GhostBuster(booted).outside_scan(resources=("files",))
        assert booted.powered_on
        assert report.durations["winpe-boot"] > 0

    def test_reboot_after_false_leaves_off(self, booted):
        GhostBuster(booted).outside_scan(resources=("files",),
                                         reboot_after=False)
        assert not booted.powered_on

    def test_background_churn_classified_as_noise(self, booted):
        attach_standard_services(booted)
        report = GhostBuster(booted).outside_scan(resources=("files",),
                                                  background_gap=60)
        assert report.is_clean
        assert len(report.noise()) == 2

    def test_winpe_boot_charged(self, booted):
        before = booted.clock.now()
        GhostBuster(booted).outside_scan(resources=("files",))
        assert booted.clock.now() - before > 90   # boot + scans

    def test_own_crash_dump_is_not_a_finding(self):
        # The dump lands on the disk the truth is read from; it is
        # written before the file lie, so the lie lists it too.
        machine = build_home_pc("client-01", None, files=30, seed=4).machine
        report = GhostBuster(machine, advanced=True).outside_scan()
        assert machine.volume.exists(DUMP_PATH)
        assert report.is_clean, [f.entry.describe()
                                 for f in report.findings if not f.is_noise]

    def test_crash_dump_written_to_volume(self, booted):
        gb = GhostBuster(booted)
        path = gb.write_crash_dump()
        assert booted.volume.exists(path)
        assert booted.volume.stat(path).size > 0


class TestInsideScanRaceWindow:
    def test_default_has_no_window(self, booted):
        attach_standard_services(booted)
        report = GhostBuster(booted).inside_scan(resources=("files",))
        assert report.findings == []

    def test_widened_window_shows_race_fps(self, booted):
        """Section 2's caveat: files created between the high- and
        low-level scans appear as (benign) diff entries."""
        attach_standard_services(booted)
        ghostbuster = GhostBuster(booted, interleave_gap=60.0)
        report = ghostbuster.inside_scan(resources=("files",))
        assert len(report.findings) >= 1       # the AV log landed mid-scan
        assert report.is_clean                 # ...and was classified noise
        assert all(finding.is_noise for finding in report.findings)

    def test_race_does_not_mask_real_hiding(self, booted):
        attach_standard_services(booted)
        HackerDefender().install(booted)
        report = GhostBuster(booted, interleave_gap=60.0).inside_scan(
            resources=("files",))
        files = {finding.entry.path for finding in report.hidden_files()}
        assert "\\Windows\\hxdef100.exe" in files
