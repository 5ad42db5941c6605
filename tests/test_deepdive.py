"""Deep-dive tests: cross-checks and corners the module tests skip."""

import pytest

from repro.core import GhostBuster
from repro.core.scanners.registry import RawHiveReader, Win32ApiReader
from repro.core.snapshot import (FileEntry, ModuleEntry, ProcessEntry,
                                 RegistryHookEntry)
from repro.ghostware import (ALL_FILE_HIDERS, Aphex, HackerDefender,
                             Mersting, ProBotSE, Urbin, Vanquish)
from repro.machine import RUN_KEY


class TestGhostReportConsistency:
    """Every ghost's self-declared report must match what GhostBuster
    actually finds — the ground truth wiring the benchmarks rely on."""

    @pytest.mark.parametrize("ghost_cls", [Urbin, Mersting, Vanquish,
                                           HackerDefender, ProBotSE])
    def test_declared_hidden_files_are_found(self, booted, ghost_cls):
        ghost = ghost_cls()
        ghost.install(booted)
        report = GhostBuster(booted).inside_scan(resources=("files",))
        found = {finding.entry.path.casefold()
                 for finding in report.hidden_files()}
        declared = {path.casefold() for path in ghost.report.hidden_files}
        assert declared <= found

    @pytest.mark.parametrize("ghost_cls", [Urbin, Mersting, Vanquish,
                                           HackerDefender, ProBotSE,
                                           Aphex])
    def test_declared_hook_count_found(self, booted, ghost_cls):
        ghost = ghost_cls()
        ghost.install(booted)
        report = GhostBuster(booted).inside_scan(resources=("registry",))
        assert len(report.hidden_hooks()) >= \
            len(ghost.report.hidden_asep_hooks)

    def test_visible_files_do_not_appear_as_findings(self, booted):
        from repro.ghostware import Berbew
        ghost = Berbew()
        ghost.install(booted)
        report = GhostBuster(booted).inside_scan(resources=("files",))
        found = {finding.entry.path.casefold()
                 for finding in report.hidden_files()}
        for path in ghost.report.visible_files:
            assert path.casefold() not in found


class TestRegistryReaderCorners:
    def test_win32_reader_protocol(self, booted):
        booted.registry.set_value(RUN_KEY, "probe_val", "\\x.exe")
        reader = Win32ApiReader(booted)
        assert reader.key_exists(RUN_KEY)
        assert not reader.key_exists("HKLM\\SOFTWARE\\NoSuchKey")
        names = [view.name for view in reader.enum_values(RUN_KEY)]
        assert "probe_val" in names
        assert reader.get_value(RUN_KEY, "probe_val").data == "\\x.exe"
        assert reader.get_value(RUN_KEY, "absent") is None

    def test_raw_reader_long_subkey_names_native(self, booted):
        """Native semantics: 300-char key names are fully visible."""
        long_name = "K" * 300
        booted.registry.create_key(f"HKLM\\SOFTWARE\\{long_name}")
        reader = RawHiveReader(booted)
        assert long_name in reader.enum_subkeys("HKLM\\SOFTWARE")

    def test_win32_reader_skips_long_subkeys(self, booted):
        """advapi32's RegEnumKey skips names over 255 characters."""
        long_name = "K" * 300
        booted.registry.create_key(f"HKLM\\SOFTWARE\\{long_name}")
        booted.registry.create_key(f"HKLM\\SOFTWARE\\{'K' * 255}")
        names = Win32ApiReader(booted).enum_subkeys("HKLM\\SOFTWARE")
        assert long_name not in names
        assert "K" * 255 in names

    def test_reader_value_lookup_case_insensitive(self, booted):
        booted.registry.set_value(RUN_KEY, "MixedCase", "\\x.exe")
        reader = RawHiveReader(booted)
        assert reader.get_value(RUN_KEY, "mixedcase") is not None

    def test_reader_missing_key_paths(self, booted):
        reader = RawHiveReader(booted)
        assert reader.enum_subkeys("HKLM\\SOFTWARE\\Ghost\\Deep") == []
        assert reader.enum_values("HKLM\\SOFTWARE\\Ghost\\Deep") == []
        assert reader.get_value("HKLM\\SOFTWARE\\Ghost", "x") is None

    def test_unmounted_root_invisible(self, booted):
        reader = RawHiveReader(booted)
        assert not reader.key_exists("HKCC\\Anything")


class TestSnapshotDescribe:
    def test_file_entry(self):
        assert "(dir)" in FileEntry("\\d", "d", True, 0).describe()
        assert "12B" in FileEntry("\\f", "f", False, 12).describe()

    def test_process_entry(self):
        assert "pid 44" in ProcessEntry(44, "x.exe").describe()

    def test_module_entry(self):
        text = ModuleEntry(8, "host.exe", "\\m.dll").describe()
        assert "m.dll" in text and "host.exe" in text

    def test_registry_entry_without_data(self):
        entry = RegistryHookEntry("run", "HKLM\\Run", "name", "")
        assert "→" not in entry.describe()


class TestApiCorners:
    def test_find_handle_invalid(self, probe):
        from repro.errors import ApiError
        with pytest.raises(ApiError):
            probe.call("kernel32", "FindNextFile", 424242)

    def test_find_close_is_idempotent(self, booted, probe):
        handle, __ = probe.call("kernel32", "FindFirstFile", "\\Temp")
        probe.call("kernel32", "FindClose", handle)
        probe.call("kernel32", "FindClose", handle)   # must not raise

    def test_reg_create_and_delete_key_via_api(self, booted, probe):
        probe.call("advapi32", "RegCreateKey", "HKLM\\SOFTWARE\\ViaApi")
        assert booted.registry.key_exists("HKLM\\SOFTWARE\\ViaApi")
        probe.call("advapi32", "RegDeleteKey", "HKLM\\SOFTWARE\\ViaApi")
        assert not booted.registry.key_exists("HKLM\\SOFTWARE\\ViaApi")

    def test_module_code_listing(self, probe):
        functions = probe.module("kernel32").functions()
        assert "FindFirstFile" in functions
        assert probe.module("kernel32").patched_sites() == []


class TestAllFileHidersRegistryEntryPoints:
    def test_corpus_tuple_complete(self):
        assert len(ALL_FILE_HIDERS) == 10   # the Figure-3 roster

    @pytest.mark.parametrize("ghost_cls", ALL_FILE_HIDERS,
                             ids=[g.__name__ for g in ALL_FILE_HIDERS])
    def test_each_detected_after_fresh_boot(self, machine, ghost_cls):
        """Install while powered off is not supported for all; install
        live, reboot, and require detection purely via ASEP restart."""
        machine.boot()
        machine.volume.create_directories("\\Secret")
        machine.volume.create_file("\\Secret\\s.txt", b"")
        try:
            ghost = ghost_cls(hidden_paths=["\\Secret"])
        except TypeError:
            ghost = ghost_cls()
        ghost.install(machine)
        machine.reboot()
        report = GhostBuster(machine).inside_scan(resources=("files",))
        assert not report.is_clean, \
            f"{ghost_cls.__name__} must survive a reboot via its ASEPs"
