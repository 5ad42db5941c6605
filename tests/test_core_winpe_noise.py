"""Tests for the WinPE environment and the noise filter."""

import pytest

from repro.core import GhostBuster, WinPEEnvironment
from repro.core.diff import Finding
from repro.core.noise import NoiseFilter, classify_noise
from repro.core.snapshot import (FileEntry, ProcessEntry, ResourceType)
from repro.errors import MachineStateError, ScanError
from repro.ghostware import HackerDefender, NamingExploitGhost


class TestWinPE:
    def test_requires_powered_down_machine(self, booted):
        with pytest.raises(MachineStateError):
            WinPEEnvironment(booted)

    def test_requires_boot_before_scan(self, booted):
        booted.shutdown()
        winpe = WinPEEnvironment(booted)
        with pytest.raises(ScanError):
            winpe.file_scan()

    def test_boot_charges_paper_range(self, booted):
        booted.shutdown()
        winpe = WinPEEnvironment(booted)
        winpe.boot()
        assert 90 <= winpe.boot_seconds <= 185

    def test_file_scan_sees_hidden_files(self, booted):
        HackerDefender().install(booted)
        booted.shutdown()
        winpe = WinPEEnvironment(booted)
        winpe.boot()
        names = {entry.name for entry in winpe.file_scan().entries}
        assert "hxdef100.exe" in names

    def test_raw_mode_sees_naming_ghosts(self, booted):
        NamingExploitGhost().install(booted)
        booted.shutdown()
        winpe = WinPEEnvironment(booted)
        winpe.boot()
        snapshot = winpe.file_scan()
        assert snapshot.view == "winpe-raw"
        assert "payload.exe." in {entry.name for entry in snapshot.entries}

    def test_missing_dump_raises(self, booted):
        booted.shutdown()
        winpe = WinPEEnvironment(booted)
        winpe.boot()
        with pytest.raises(ScanError):
            winpe.process_scan()

    def test_dump_scan_roundtrip(self, booted):
        gb = GhostBuster(booted)
        gb.write_crash_dump()
        booted.shutdown()
        winpe = WinPEEnvironment(booted)
        winpe.boot()
        snapshot = winpe.process_scan()
        assert any(entry.name == "explorer.exe"
                   for entry in snapshot.entries)


def _file_finding(path):
    return Finding(ResourceType.FILE,
                   FileEntry(path, path.rsplit("\\", 1)[-1], False, 0),
                   "api", "outside")


class TestNoiseFilter:
    @pytest.mark.parametrize("path,reason_part", [
        ("\\Windows\\Prefetch\\APP-123.pf", "prefetch"),
        ("\\System Volume Information\\_restore{X}\\change.log",
         "System Restore"),
        ("\\Documents and Settings\\u\\Local Settings"
         "\\Temporary Internet Files\\ad.htm", "browser"),
        ("\\Windows\\System32\\CCM\\Logs\\exec.log", "CCM"),
        ("\\Program Files\\eTrust AntiVirus\\avlogs\\rt.log",
         "anti-virus"),
        ("\\Temp\\scratch.tmp", "temporary"),
    ])
    def test_known_noise_classified(self, path, reason_part):
        reason = classify_noise(_file_finding(path))
        assert reason is not None
        assert reason_part.casefold() in reason.casefold()

    def test_malware_paths_not_noise(self):
        assert classify_noise(_file_finding("\\Windows\\hxdef100.exe")) \
            is None

    @pytest.mark.parametrize("path", [
        "\\Temp\\scratch.tmp:stream",
        "\\Temp\\scratch.tmp:Zone.Identifier",
        "\\Windows\\Prefetch\\APP-123.pf:meta",
    ])
    def test_ads_qualified_noise_still_classified(self, path):
        """``file.tmp:stream`` is a stream *of* a noise file — same verdict."""
        host = path.rsplit(":", 1)[0]
        assert classify_noise(_file_finding(path)) == \
            classify_noise(_file_finding(host))
        assert classify_noise(_file_finding(path)) is not None

    def test_ads_on_suspicious_host_not_noise(self):
        assert classify_noise(
            _file_finding("\\Windows\\hxdef100.exe:cfg")) is None

    def test_drive_letter_colon_is_not_an_ads(self):
        # The colon sits in a non-final component (the drive letter) —
        # only a colon in the last component is an ADS separator.
        assert classify_noise(_file_finding("c:\\temp\\evil.exe")) is None
        assert classify_noise(_file_finding("c:\\temp\\junk.tmp")) \
            is not None

    def test_non_file_findings_never_noise(self):
        finding = Finding(ResourceType.PROCESS, ProcessEntry(4, "x"),
                          "api", "raw")
        assert classify_noise(finding) is None

    def test_apply_annotates_without_dropping(self):
        findings = [_file_finding("\\Windows\\Prefetch\\A.pf"),
                    _file_finding("\\evil.exe")]
        annotated = NoiseFilter().apply(findings)
        assert len(annotated) == 2
        assert annotated[0].is_noise
        assert not annotated[1].is_noise

    def test_split(self):
        findings = [_file_finding("\\Windows\\Prefetch\\A.pf"),
                    _file_finding("\\evil.exe")]
        suspicious, noise = NoiseFilter().split(findings)
        assert [f.entry.path for f in suspicious] == ["\\evil.exe"]
        assert len(noise) == 1

    def test_extra_patterns(self):
        custom = NoiseFilter(extra_patterns=((r"*\sapgui\*", "SAP trace"),))
        finding = _file_finding("\\Program Files\\sapgui\\trace.txt")
        assert custom.apply([finding])[0].noise_reason == "SAP trace"
