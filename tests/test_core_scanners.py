"""Tests for the four resource scanners."""

import random

import pytest

from repro.core.scanners import files as file_scans
from repro.core.scanners import modules as module_scans
from repro.core.scanners import processes as process_scans
from repro.core.scanners import registry as registry_scans
from repro.core.snapshot import ResourceType
from repro.errors import RetryExhausted
from repro.faults import context as faults_context
from repro.faults.plan import SITE_WINAPI_ENUM, FaultPlan, FaultSpec
from repro.ghostware import HackerDefender, FuRootkit, Vanquish
from repro.kernel.crashdump import CrashDump, write_dump
from repro.machine import RUN_KEY


class TestFileScanners:
    def test_views_agree_on_clean_machine(self, booted):
        high = file_scans.high_level_file_scan(booted)
        low = file_scans.low_level_file_scan(booted)
        assert set(high.identities()) == set(low.identities())

    def test_snapshot_metadata(self, booted):
        high = file_scans.high_level_file_scan(booted)
        assert high.resource_type is ResourceType.FILE
        assert high.view == "win32-api"
        assert high.duration > 0

    def test_scan_charges_simulated_time(self, booted):
        before = booted.clock.now()
        file_scans.high_level_file_scan(booted)
        assert booted.clock.now() > before

    def test_scanner_process_reused(self, booted):
        file_scans.high_level_file_scan(booted)
        count = len([p for p in booted.user_processes()
                     if p.name == "ghostbuster.exe"])
        file_scans.high_level_file_scan(booted)
        assert len([p for p in booted.user_processes()
                    if p.name == "ghostbuster.exe"]) == count

    def test_directory_strata_are_listed_without_recursion(self, booted):
        strata = ["\\Windows", "\\Windows\\System32"]
        high = file_scans.high_level_file_scan(booted, directories=strata)
        low = file_scans.low_level_file_scan(booted, directories=strata)
        assert set(high.identities()) == set(low.identities())
        parents = {entry.path.rsplit("\\", 1)[0].casefold()
                   for entry in high.entries}
        assert parents == {stratum.casefold() for stratum in strata}
        shuffled = file_scans.high_level_file_scan(
            booted, directories=strata, order_rng=random.Random(3))
        assert set(shuffled.identities()) == set(high.identities())

    def test_interrupted_walk_closes_its_handles(self, booted):
        """A fault in a child walk unwinds through every open ancestor
        FindFirstFile handle; the retried walks must leave none open."""
        plan = FaultPlan(11, (FaultSpec(SITE_WINAPI_ENUM, rate=0.05,
                                        kinds=("status_failure",)),))
        with faults_context.scoped(plan, scope=booted.name):
            for __ in range(20):
                try:
                    file_scans.high_level_file_scan(booted)
                except RetryExhausted:
                    pass
        assert plan.fired_count(SITE_WINAPI_ENUM) > 0
        scanner = booted.process_by_name(file_scans.SCANNER_PROCESS_NAME)
        assert scanner._handles == {}

    def test_outside_scan_reads_disk_directly(self, booted):
        HackerDefender().install(booted)
        outside = file_scans.outside_file_scan(booted.disk)
        assert any("hxdef100.exe" in entry.path
                   for entry in outside.entries)

    def test_outside_raw_mode_sees_naming_ghosts(self, booted):
        booted.volume.create_file("\\Temp\\dot.", b"", native=True)
        lie = file_scans.high_level_file_scan(booted)
        outside = file_scans.outside_file_scan(booted.disk)
        assert outside.view == "winpe-raw"
        assert all(entry.name != "dot." for entry in lie.entries)
        assert any(entry.name == "dot." for entry in outside.entries)


class TestRegistryScanners:
    def test_views_agree_on_clean_machine(self, booted):
        high = registry_scans.high_level_asep_scan(booted)
        low = registry_scans.low_level_asep_scan(booted)
        assert set(high.identities()) == set(low.identities())

    def test_low_level_reads_hive_files_raw(self, booted):
        HackerDefender().install(booted)
        low = registry_scans.low_level_asep_scan(booted)
        names = {entry.name for entry in low.entries}
        assert "HackerDefender100" in names

    def test_outside_scan_matches_raw_truth(self, booted):
        booted.registry.set_value(RUN_KEY, "legit", "\\x.exe")
        booted.registry.flush()
        outside = registry_scans.outside_asep_scan(booted.disk)
        assert any(entry.name == "legit" for entry in outside.entries)

    def test_outside_view_keeps_counted_names(self, booted):
        # advapi32 truncates the name at the NUL; the outside parse of
        # the hive file keeps the counted name, as the inside raw view.
        booted.registry.set_value(RUN_KEY, "a\x00b", "\\x.exe")
        booted.registry.flush()
        lie = registry_scans.high_level_asep_scan(booted)
        outside = registry_scans.outside_asep_scan(booted.disk)
        assert outside.view == "winpe-rawhive"
        assert "a" in {entry.name for entry in lie.entries}
        outside_names = {entry.name for entry in outside.entries}
        assert "a\x00b" in outside_names and "a" not in outside_names


class TestProcessScanners:
    def test_views_agree_on_clean_machine(self, booted):
        high = process_scans.high_level_process_scan(booted)
        low = process_scans.low_level_process_scan(booted)
        assert set(high.identities()) == set(low.identities())

    def test_advanced_matches_list_when_clean(self, booted):
        low = process_scans.low_level_process_scan(booted)
        advanced = process_scans.advanced_process_scan(booted)
        assert set(low.identities()) == set(advanced.identities())

    def test_dkom_visible_only_to_advanced(self, booted):
        fu = FuRootkit()
        fu.install(booted)
        victim = booted.start_process("\\Windows\\explorer.exe",
                                      name="victim.exe")
        fu.hide_process(booted, victim.pid)
        low = process_scans.low_level_process_scan(booted)
        advanced = process_scans.advanced_process_scan(booted)
        low_names = {entry.name for entry in low.entries}
        advanced_names = {entry.name for entry in advanced.entries}
        assert "victim.exe" not in low_names
        assert "victim.exe" in advanced_names

    def test_dump_scans_match_live(self, booted):
        fu = FuRootkit()
        fu.install(booted)
        victim = booted.start_process("\\Windows\\explorer.exe",
                                      name="victim.exe")
        fu.hide_process(booted, victim.pid)
        dump = CrashDump(write_dump(booted.kernel))
        list_scan = process_scans.dump_process_scan(dump)
        advanced_scan = process_scans.dump_process_scan(dump, advanced=True)
        assert "victim.exe" not in {e.name for e in list_scan.entries}
        assert "victim.exe" in {e.name for e in advanced_scan.entries}


class TestModuleScanners:
    def test_views_agree_on_clean_machine(self, booted):
        high = module_scans.high_level_module_scan(booted)
        low = module_scans.low_level_module_scan(booted)
        high_ids = set(high.identities())
        low_ids = {entry.identity for entry in low.entries
                   if entry.pid in high.scanned_pids}
        assert high_ids == low_ids

    def test_vanquish_module_gap(self, booted):
        Vanquish().install(booted)
        high = module_scans.high_level_module_scan(booted)
        low = module_scans.low_level_module_scan(booted)
        gap = set(low.identities()) - set(high.identities())
        assert any("vanquish.dll" in identity[1] for identity in gap)

    def test_driver_scan(self, booted):
        booted.kernel.load_driver("custom.sys")
        assert "custom.sys" in module_scans.driver_scan(booted)
