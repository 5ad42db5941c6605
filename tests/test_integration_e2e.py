"""End-to-end integration scenarios crossing every subsystem."""

import pytest

from repro.core import GhostBuster, disinfect
from repro.core.injection_ext import injected_scan
from repro.ghostware import (Aphex, Berbew, FuRootkit, HackerDefender,
                             HideFoldersXP, Mersting, NamingExploitGhost,
                             ProBotSE, RegistryNamingGhost, Urbin, Vanquish)
from repro.workloads import (SignatureScanner, attach_standard_services,
                             populate_machine)


class TestFullKillChain:
    """The paper's conclusion narrative, in one test per stage."""

    @pytest.fixture
    def infected(self, machine):
        populate_machine(machine, file_count=120, registry_scale=400)
        machine.boot()
        HackerDefender().install(machine)
        return machine

    def test_stage1_process_detection_within_seconds(self, infected):
        gb = GhostBuster(infected)
        before = infected.clock.now()
        report = gb.inside_scan(resources=("processes", "modules"))
        elapsed = infected.clock.now() - before
        assert any(finding.entry.name == "hxdef100.exe"
                   for finding in report.hidden_processes())
        assert elapsed <= 5.0   # "within 5 seconds"

    def test_stage2_hook_location_within_a_minute(self, infected):
        gb = GhostBuster(infected)
        before = infected.clock.now()
        report = gb.inside_scan(resources=("registry",))
        elapsed = infected.clock.now() - before
        assert len(report.hidden_hooks()) == 2
        assert elapsed <= 60.0   # "within one minute"

    def test_stage3_removal_and_reboot(self, infected):
        log = disinfect(infected)
        assert log.verified_clean
        assert infected.process_by_name("hxdef100.exe") is None


class TestEverythingAtOnce:
    def test_twelve_ghost_machine(self, machine):
        """All Windows corpus members coexist and are all detected."""
        populate_machine(machine, file_count=100, registry_scale=400)
        machine.boot()
        ghosts = [HackerDefender(), Urbin(), Mersting(), Vanquish(),
                  Aphex(), ProBotSE(), Berbew(), NamingExploitGhost(),
                  RegistryNamingGhost()]
        for ghost in ghosts:
            ghost.install(machine)
        fu = FuRootkit()
        fu.install(machine)
        victim = machine.start_process("\\Windows\\explorer.exe",
                                       name="fu_victim.exe")
        fu.hide_process(machine, victim.pid)
        hider = HideFoldersXP(hidden_paths=["\\Temp"])
        hider.install(machine)

        inside = GhostBuster(machine, advanced=True).inside_scan()
        hidden_files = {finding.entry.path.casefold()
                        for finding in inside.hidden_files()}
        assert "\\windows\\hxdef100.exe" in hidden_files
        assert "\\windows\\system32\\msvsres.dll" in hidden_files
        assert "\\windows\\system32\\kbddfl.dll" in hidden_files
        assert "\\windows\\vanquish.exe" in hidden_files

        hidden_processes = {finding.entry.name for finding in
                            inside.hidden_processes()}
        assert {"hxdef100.exe", "fu_victim.exe"} <= hidden_processes

        # The outside scan's raw views additionally expose naming ghosts.
        outside = GhostBuster(machine, advanced=True).outside_scan()
        outside_files = {finding.entry.path.casefold()
                         for finding in outside.hidden_files()}
        assert any("payload.exe." in path for path in outside_files)

    def test_survives_many_reboots(self, booted):
        HackerDefender().install(booted)
        for __ in range(3):
            booted.reboot()
        report = GhostBuster(booted).inside_scan(resources=("files",))
        assert not report.is_clean


class TestCombinationScenarios:
    def test_fu_plus_hacker_defender_needs_advanced(self, booted):
        """FU hides hxdef's process: the list-based low scan loses it."""
        HackerDefender().install(booted)
        fu = FuRootkit()
        fu.install(booted)
        hxdef = booted.process_by_name("hxdef100.exe")
        fu.hide_process(booted, hxdef.pid)
        standard = GhostBuster(booted, advanced=False).inside_scan(
            resources=("processes",))
        assert all(finding.entry.name != "hxdef100.exe"
                   for finding in standard.hidden_processes())
        advanced = GhostBuster(booted, advanced=True).inside_scan(
            resources=("processes",))
        assert any(finding.entry.name == "hxdef100.exe"
                   for finding in advanced.hidden_processes())

    def test_av_plus_ghostbuster_dilemma(self, booted):
        """Either the signatures fire or the diff does — never neither."""
        ghost = HackerDefender()
        ghost.install(booted)
        scanner = SignatureScanner()
        signature_hits = scanner.on_demand_scan(booted)
        diff_report = GhostBuster(booted).inside_scan(resources=("files",))
        assert signature_hits or not diff_report.is_clean

    def test_injected_scan_with_noise_services(self, booted):
        attach_standard_services(booted)
        HackerDefender().install(booted)
        result = injected_scan(booted, resources=("files",))
        assert not result.is_clean

    def test_outside_scan_with_everything(self, booted):
        attach_standard_services(booted, with_ccm=True)
        Urbin().install(booted)
        report = GhostBuster(booted).outside_scan(
            resources=("files", "registry"), background_gap=60)
        files = {finding.entry.path.casefold()
                 for finding in report.hidden_files()}
        assert "\\windows\\system32\\msvsres.dll" in files
        assert len(report.noise()) == 7   # the CCM-machine FP count
