"""Tests for the RIS network boot, the CM-callback ghost, and BhoSpyware."""

import pytest

from repro.core import GhostBuster, RisServer
from repro.ghostware import BhoSpyware, CmCallbackGhost, HackerDefender
from repro.machine import RUN_KEY
from repro.workloads import attach_standard_services


class TestCmCallbackGhost:
    def test_hides_run_hook_from_every_process(self, booted):
        CmCallbackGhost().install(booted)
        probe = booted.start_process("\\Windows\\explorer.exe",
                                     name="probe.exe")
        views = probe.call("advapi32", "RegEnumValue", RUN_KEY)
        assert all(view.name != "cmghost" for view in views)
        # No per-process hook anywhere — the lie lives in the kernel:
        assert not probe.code_site("ntdll", "NtEnumerateValueKey").patched
        assert probe.iat == {}

    def test_detected_by_registry_diff(self, booted):
        CmCallbackGhost().install(booted)
        report = GhostBuster(booted).inside_scan(resources=("registry",))
        names = {finding.entry.name for finding in report.hidden_hooks()}
        assert "cmghost" in names

    def test_native_api_also_lied_to(self, booted):
        """The callback sits below NtDll: even Native calls see the lie
        — only the raw hive parse is beneath it."""
        CmCallbackGhost().install(booted)
        probe = booted.start_process("\\Windows\\explorer.exe",
                                     name="probe.exe")
        values = probe.call("ntdll", "NtEnumerateValueKey", RUN_KEY)
        assert all(value.name != "cmghost" for value in values)

    def test_survives_reboot(self, booted):
        CmCallbackGhost().install(booted)
        booted.reboot()
        report = GhostBuster(booted).inside_scan(resources=("registry",))
        assert not report.is_clean


class TestBhoSpyware:
    def test_bho_subkey_hidden(self, booted):
        ghost = BhoSpyware()
        ghost.install(booted)
        report = GhostBuster(booted).inside_scan(resources=("registry",))
        locations = {finding.entry.location
                     for finding in report.hidden_hooks()}
        assert "browser_helper_objects" in locations

    def test_dll_hidden(self, booted):
        BhoSpyware().install(booted)
        report = GhostBuster(booted).inside_scan(resources=("files",))
        files = {finding.entry.path for finding in report.hidden_files()}
        assert "\\Program Files\\Common\\searchhelper.dll" in files

    def test_loader_run_hook_visible(self, booted):
        """Only the BHO is hidden; the loader's Run hook shows —
        realistic partial stealth."""
        BhoSpyware().install(booted)
        probe = booted.start_process("\\Windows\\explorer.exe",
                                     name="probe.exe")
        views = probe.call("advapi32", "RegEnumValue", RUN_KEY)
        assert any(view.name == "CommonLoader" for view in views)


class TestRisServer:
    def test_network_boot_scan_detects(self, booted):
        HackerDefender().install(booted)
        report = RisServer().network_boot_scan(booted)
        files = {finding.entry.path for finding in report.hidden_files()}
        assert "\\Windows\\hxdef100.exe" in files
        assert booted.powered_on   # client rebooted back into service

    def test_network_boot_faster_than_cd(self, booted):
        report = RisServer().network_boot_scan(booted)
        assert report.durations["network-boot"] < 110

    def test_noise_filtering_applies(self, booted):
        attach_standard_services(booted)
        report = RisServer().network_boot_scan(booted, background_gap=60)
        assert report.is_clean
        assert len(report.noise()) == 2

    def test_fleet_sweep(self, tmp_path):
        from repro.fleet import EscalationPolicy, FleetCoordinator
        from repro.machine import Machine
        machines = []
        for index in range(3):
            machine = Machine(f"client-{index}", disk_mb=256,
                              max_records=8192)
            machine.boot()
            machines.append(machine)
        HackerDefender().install(machines[1])
        epoch = FleetCoordinator(
            str(tmp_path), machines,
            policy=EscalationPolicy(confirm_with="ris")).run_epoch()
        assert epoch.infected_machines() == ["client-1"]
        infected = next(v for v in epoch.verdicts if v.machine == "client-1")
        assert infected.confirmed and infected.confirmed_by == "ris"

    def test_reboot_after_false(self, booted):
        RisServer().network_boot_scan(booted, reboot_after=False)
        assert not booted.powered_on
