"""Tests for the low-level-interference strain (ablation A3's subject)."""

import random
import tracemalloc

import pytest

from repro.core import GhostBuster
from repro.core.scanners.files import low_level_file_scan
from repro.ghostware import HackerDefender, LowLevelInterferenceGhost
from repro.ghostware.advanced import _SEARCH_WINDOW, TOKEN
from repro.ntfs.constants import MFT_RECORD_SIZE
from repro.ntfs.mft_parser import MftParser

NEEDLE = TOKEN.encode("utf-16-le")


class TestLowLevelInterference:
    def test_hidden_from_api(self, booted):
        LowLevelInterferenceGhost().install(booted)
        from tests.conftest import win32_walk
        probe = booted.start_process("\\Windows\\explorer.exe",
                                     name="probe.exe")
        assert all("deepghost" not in path.casefold()
                   for path in win32_walk(probe))

    def test_scrubs_inside_raw_reads(self, booted):
        LowLevelInterferenceGhost().install(booted)
        inside = MftParser(booted.kernel.disk_port.read_bytes).parse()
        assert all("deepghost" not in entry.path.casefold()
                   for entry in inside)

    def test_physical_disk_still_truthful(self, booted):
        LowLevelInterferenceGhost().install(booted)
        outside = MftParser(booted.disk.read_bytes).parse()
        assert any("deepghost" in entry.path.casefold()
                   for entry in outside)

    def test_inside_the_box_scan_defeated(self, booted):
        LowLevelInterferenceGhost().install(booted)
        report = GhostBuster(booted).inside_scan(resources=("files",))
        assert report.is_clean   # the paper's stated limitation

    def test_outside_the_box_scan_catches_it(self, booted):
        LowLevelInterferenceGhost().install(booted)
        report = GhostBuster(booted).outside_scan(resources=("files",))
        files = {finding.entry.path for finding in report.hidden_files()}
        assert "\\Windows\\deepghost.exe" in files

    def test_ordinary_ghost_unaffected_by_scrubber(self, booted):
        """The scrubber only hides its own records; Hacker Defender's
        remain in the inside raw view."""
        LowLevelInterferenceGhost().install(booted)
        HackerDefender().install(booted)
        report = GhostBuster(booted).inside_scan(resources=("files",))
        files = {finding.entry.path for finding in report.hidden_files()}
        assert "\\Windows\\hxdef100.exe" in files
        assert "\\Windows\\deepghost.exe" not in files


class TestRegistryInterference:
    def test_inside_registry_scan_also_defeated(self, booted):
        LowLevelInterferenceGhost().install(booted)
        report = GhostBuster(booted).inside_scan(resources=("registry",))
        assert report.is_clean

    def test_outside_registry_scan_catches_hook(self, booted):
        LowLevelInterferenceGhost().install(booted)
        report = GhostBuster(booted).outside_scan(resources=("registry",))
        names = {finding.entry.name for finding in report.hidden_hooks()}
        assert "DeepGhost" in names


def reference_scrub(offset, length, data, mft_start, mft_end):
    """The MFT scrub's rule, slot by slot: every slot overlapping the
    read from the MFT's start on, clamped to the window, is zeroed when
    its bytes hold the token in any ASCII case."""
    if offset >= mft_end or offset + length <= mft_start:
        return data
    out = bytearray(data)
    first = max(0, (offset - mft_start) // MFT_RECORD_SIZE)
    last = (offset + length - 1 - mft_start) // MFT_RECORD_SIZE
    for slot in range(first, last + 1):
        lo = max(mft_start + slot * MFT_RECORD_SIZE, offset) - offset
        hi = min(mft_start + (slot + 1) * MFT_RECORD_SIZE,
                 offset + length) - offset
        if NEEDLE in bytes(out[lo:hi]).lower():
            out[lo:hi] = bytes(hi - lo)
    return bytes(out)


# name → (window start: "start" or "end" of the MFT region plus a byte
# delta, window length, [(position in the window, token spelling)])
_SLOT = MFT_RECORD_SIZE
_READS = {
    "mixed-case": (("start", 0), 8 * _SLOT,
                   [(_SLOT + 40, "DeepGhost"), (3 * _SLOT + 500, "DEEPGHOST"),
                    (6 * _SLOT + 1000, "dEePgHoSt")]),
    "across-slot-boundary": (("start", 0), 4 * _SLOT,
                             [(2 * _SLOT - 8, "deepghost")]),
    "mid-slot-window": (("start", 3 * _SLOT + 100), 5 * _SLOT - 300,
                        [(10, "Deepghost"), (2 * _SLOT, "deepGHOST"),
                         (5 * _SLOT - 330, "DEEPghost")]),
    "across-search-window": (("start", 100), _SEARCH_WINDOW + 4 * _SLOT,
                             [(_SEARCH_WINDOW - 6, "DeepGHOST")]),
    "straddles-mft-start": (("start", -_SLOT // 2), 2 * _SLOT,
                            [(100, "deepghost"),
                             (_SLOT // 2 + 100, "DeepGhost")]),
    "runs-past-mft-end": (("end", -2 * _SLOT), 4 * _SLOT,
                          [(_SLOT + 10, "deepghost"),
                           (3 * _SLOT + 10, "DeepGhost")]),
    "outside-mft": (("start", -4 * _SLOT), 4 * _SLOT,
                    [(_SLOT, "DeepGhost")]),
    "clean": (("start", 0), 4 * _SLOT, [(_SLOT, "deepghosx")]),
}
_UNCHANGED = ("across-slot-boundary", "outside-mft", "clean")


class TestMftScrub:
    @staticmethod
    def mft_filter(machine):
        LowLevelInterferenceGhost()._scrub_mft_reads(machine)
        return machine.kernel.disk_port.read_filters[-1]

    @pytest.mark.parametrize("case", sorted(_READS))
    def test_filter_zeroes_what_the_per_slot_rule_zeroes(self, booted,
                                                         case):
        scrub = self.mft_filter(booted)
        mft_start = booted.volume.mft_offset
        mft_end = mft_start + booted.volume.max_records * MFT_RECORD_SIZE
        (anchor, delta), length, tokens = _READS[case]
        offset = (mft_start if anchor == "start" else mft_end) + delta
        data = bytearray(random.Random(case).randbytes(length))
        for position, spelling in tokens:
            data[position:position + len(NEEDLE)] = \
                spelling.encode("utf-16-le")
        data = bytes(data)
        expected = reference_scrub(offset, length, data, mft_start, mft_end)
        result = scrub(offset, length, data)
        assert bytes(result) == expected
        if expected == data:
            assert result is data      # nothing zeroed: no copy made
        assert (expected == data) == (case in _UNCHANGED)

    def test_region_read_peak_stays_below_two_and_a_half_regions(self,
                                                                 booted):
        """The inside raw scan reads the MFT region in one request; the
        filter adds at most one region-sized copy to it."""
        LowLevelInterferenceGhost().install(booted)
        region = booted.volume.max_records * MFT_RECORD_SIZE
        assert booted.volume.max_records == 8192
        booted.disk.raw_cache.clear()
        tracemalloc.start()
        try:
            snapshot = low_level_file_scan(booted)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all("deepghost" not in entry.path.casefold()
                   for entry in snapshot.entries)
        assert peak < 2.5 * region
