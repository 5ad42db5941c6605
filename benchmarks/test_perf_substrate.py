"""P1 — performance of the reproduction's own substrate.

Unlike the E/A/X benchmarks (which reproduce the *paper's* simulated
timings), these measure the wall-clock cost of our hot paths — the raw
MFT parse, the hooked Win32 file walk, the raw hive parse, and the
cross-view diff — so regressions in the reproduction itself are visible.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.diff import cross_view_diff
from repro.core.scanners.files import high_level_file_scan, low_level_file_scan
from repro.core.snapshot import FileEntry, ResourceType, ScanSnapshot
from repro.disk import Disk, DiskGeometry
from repro.machine import Machine
from repro.ntfs import MftParser, NtfsVolume, parse_volume
from repro.registry.hive import Hive
from repro.registry.hive_parser import clear_hive_cache, parse_hive
from repro.telemetry.metrics import global_metrics


def _populated_disk(file_count: int):
    disk = Disk(DiskGeometry.from_megabytes(256))
    volume = NtfsVolume.format(disk, max_records=file_count * 2 + 64)
    volume.create_directories("\\data")
    for index in range(file_count):
        volume.create_file(f"\\data\\file{index:05d}.bin", b"x" * 100)
    return disk


@pytest.mark.parametrize("file_count", [200, 1000])
def test_raw_mft_parse_cold(benchmark, file_count):
    disk = _populated_disk(file_count)

    def cold_parse():
        disk.raw_cache.clear()   # measure the parse, not the cache hit
        return parse_volume(disk)

    entries = benchmark(cold_parse)
    assert len(entries) == file_count + 1   # files + \data


def test_raw_mft_parse_cached(benchmark):
    disk = _populated_disk(1000)
    parse_volume(disk)   # warm the per-(disk, generation) cache
    entries = benchmark(lambda: parse_volume(disk))
    assert len(entries) == 1001


def test_raw_file_view_delta_rescan(benchmark):
    """The raw file scan fleets run every epoch: one file write since the
    last scan, so the namespace and the file view are patched for the
    one changed record instead of being rebuilt."""
    machine = Machine("perf", disk_mb=256, max_records=8192)
    machine.boot()
    machine.volume.create_directories("\\data")
    for index in range(1000):
        machine.volume.create_file(f"\\data\\file{index:05d}.bin",
                                   b"x" * 100)
    warm = low_level_file_scan(machine)
    sizes = itertools.count(1)

    def one_write():
        machine.volume.write_file("\\data\\file00500.bin",
                                  b"y" * (next(sizes) % 200 + 1))

    patched = global_metrics().counter("journal.records_patched")
    snapshot = benchmark.pedantic(lambda: low_level_file_scan(machine),
                                  setup=one_write, rounds=50, iterations=1)
    assert len(snapshot.entries) == len(warm.entries) > 1000
    assert global_metrics().counter("journal.records_patched") > patched


def test_win32_file_walk_warm(benchmark):
    """The FindFirstFile/FindNextFile walk on a machine scanned before:
    every API call still runs, the listing stats and name rule are warm."""
    machine = Machine("perf", disk_mb=256, max_records=8192)
    machine.boot()
    machine.volume.create_directories("\\data")
    for index in range(1000):
        machine.volume.create_file(f"\\data\\file{index:05d}.bin",
                                   b"x" * 100)
    high_level_file_scan(machine)   # warm
    snapshot = benchmark(lambda: high_level_file_scan(machine))
    assert len(snapshot.entries) == len(list(machine.volume.walk()))
    assert len(snapshot.entries) > 1000


def test_read_file_content_indexed(benchmark):
    disk = _populated_disk(1000)
    parser = MftParser(disk.read_bytes)
    parser.parse()   # build the namespace index once
    content = benchmark(
        lambda: parser.read_file_content("\\data\\file00500.bin"))
    assert content == b"x" * 100


def test_raw_hive_parse_cold(benchmark):
    hive = Hive("PERF")
    for key_index in range(100):
        key = hive.create_key(f"Vendor\\App{key_index:03d}")
        for value_index in range(8):
            key.set_value(f"setting{value_index}", "x" * 24)
    blob = hive.serialize()

    def cold_parse():
        clear_hive_cache()   # measure the parse, not the memo hit
        return parse_hive(blob)

    parsed = benchmark(cold_parse)
    assert len(parsed.root.subkey("Vendor").subkeys) == 100


def test_cross_view_diff_10k(benchmark):
    def snapshot(view, count, offset=0):
        entries = [FileEntry(f"\\f{i + offset}", f"f{i + offset}",
                             False, 0) for i in range(count)]
        return ScanSnapshot(ResourceType.FILE, view=view, entries=entries)

    lie = snapshot("lie", 10_000)
    truth = snapshot("truth", 10_000, offset=5)   # 5 "hidden" files
    findings = benchmark(lambda: cross_view_diff(lie, truth))
    assert len(findings) == 5


def test_hive_serialize_1k_values(benchmark):
    hive = Hive("PERF")
    key = hive.create_key("Big")
    for index in range(1000):
        key.set_value(f"value{index:04d}", "payload " * 3)
    blob = benchmark(hive.serialize)
    assert len(blob) > 50_000
