"""Incremental cross-view scanning: journal, cache repair, delta sweeps.

The PR-4 pipeline in one file: the USN-style change journal on the
disk, record-granular MFT namespace repair, the file views patched
behind it, hive bin-level delta parsing, the persistent baseline
store, and the delta fleet sweep built on all of them.  The recurring
assertion everywhere is *identity*: whatever the incremental path
produces must equal what a cold full parse/scan produces, and whenever
that cannot be proven the code must fall back — never guess.
"""

from __future__ import annotations

import pytest

from repro.core import GhostBuster
from repro.core import snapshot as snapshot_module
from repro.core.baseline import BaselineStore, MachineBaseline
from repro.core.reporting import report_from_dict, report_to_dict
from repro.core.risboot import RisServer
from repro.core.scanners.files import low_level_file_scan
from repro.core.snapshot import FileEntry, ResourceType, ScanSnapshot
from repro.disk import ChangeJournal, Disk, DiskGeometry
from repro.errors import FileExists, FileNotFound, VolumeError
from repro.ghostware import Aphex, HackerDefender
from repro.machine import Machine
from repro.ntfs import mft_parser
from repro.ntfs.constants import MFT_RECORD_SIZE
from repro.ntfs.mft_parser import MftParser
from repro.ntfs.records import MftRecord
from repro.registry import hive_parser
from repro.registry.hive import Hive
from repro.telemetry.metrics import global_metrics
from repro.workloads import populate_machine
from repro.workloads.fleetgen import FleetProfile, build_profiled_machine
from tests.test_chaos_e2e import _identities


def _cold_parse(disk):
    """A from-scratch namespace parse that bypasses every shared cache."""
    parser = MftParser(lambda offset, length: disk.read_bytes(offset,
                                                              length))
    return sorted(parser.parse(), key=lambda e: e.record_no)


def _warm_parse(disk):
    parser = MftParser(disk.read_bytes)
    return sorted(parser.parse(), key=lambda e: e.record_no)


def _counter(name):
    return global_metrics().counter(name)


# -- change journal -----------------------------------------------------------

class TestChangeJournal:
    def test_records_every_disk_write(self):
        disk = Disk(DiskGeometry.from_megabytes(1))
        before = len(disk.journal)
        disk.write_bytes(4096, b"first")
        disk.write_bytes(8192, b"second")
        assert len(disk.journal) == before + 2
        newest = disk.journal._records[-1]
        assert newest.generation == disk.generation
        assert newest.kind == "bytes"

    def test_records_since_covers_exact_window(self):
        journal = ChangeJournal()
        for generation in range(1, 6):
            journal.record(generation, generation * 10, 1, "sector")
        window = journal.records_since(2, 5)
        assert [record.generation for record in window] == [3, 4, 5]
        assert journal.records_since(5, 5) == []

    def test_wrap_refuses_coverage(self):
        journal = ChangeJournal(capacity=3)
        for generation in range(1, 7):
            journal.record(generation, generation, 1, "sector")
        assert journal.overflowed
        # Generations 1-3 fell off the ring: unprovable.
        assert journal.records_since(1, 6) is None
        # The retained tail is still answerable.
        assert [r.generation
                for r in journal.records_since(3, 6)] == [4, 5, 6]

    def test_wrap_increments_overflow_counter(self):
        journal = ChangeJournal(capacity=2)
        for generation in range(1, 5):
            journal.record(generation, generation, 1, "sector")
        before = _counter("journal.overflow")
        assert journal.records_since(0, 4) is None
        assert _counter("journal.overflow") == before + 1

    def test_generation_gap_poisons_earlier_coverage(self):
        # A fault injector bumps disk.generation without writing; the
        # next record arrives non-contiguous and the journal must refuse
        # to vouch for anything at or before the gap.
        journal = ChangeJournal()
        journal.record(1, 10, 1, "sector")
        journal.record(3, 30, 1, "sector")     # generation 2 is missing
        assert journal.records_since(1, 3) is None
        assert journal.records_since(2, 3) is not None

    def test_stale_bookmark_refused(self):
        journal = ChangeJournal()
        journal.record(1, 0, 1, "sector")
        # to_generation beyond the newest record → the caller's target
        # state includes unrecorded changes.
        assert journal.records_since(0, 2) is None
        assert journal.records_since(2, 1) is None

    def test_clone_is_independent(self):
        journal = ChangeJournal(capacity=8)
        journal.record(1, 0, 1, "sector")
        copy = journal.clone()
        journal.record(2, 1, 1, "sector")
        assert journal.last_generation == 2
        assert copy.last_generation == 1
        copy.record(2, 99, 1, "sector")
        assert journal._records[-1].first_sector == 1
        assert copy._records[-1].first_sector == 99

    def test_disk_clone_clones_journal(self):
        disk = Disk(DiskGeometry.from_megabytes(1))
        disk.write_bytes(4096, b"seed")
        cloned = disk.clone()
        disk.write_bytes(8192, b"after")
        assert cloned.journal.last_generation < disk.journal.last_generation


# -- record-granular MFT namespace repair -------------------------------------

class TestMftDeltaPatch:
    def _seed(self, volume):
        volume.create_directories("\\data\\sub")
        for index in range(20):
            volume.create_file(f"\\data\\file-{index:02d}.bin",
                               bytes([index]) * 64)
        volume.create_file("\\data\\sub\\inner.bin", b"inner")

    def test_patch_equals_cold_reparse(self, volume, disk):
        self._seed(volume)
        _warm_parse(disk)                       # warm the shared cache
        volume.write_file("\\data\\file-03.bin", b"resized!" * 100)
        volume.create_file("\\data\\new.bin", b"new")
        volume.delete_file("\\data\\file-07.bin")
        volume.rename("\\data\\file-05.bin", "\\data\\renamed.bin")
        before = _counter("journal.records_patched")
        assert _warm_parse(disk) == _cold_parse(disk)
        assert _counter("journal.records_patched") > before

    def test_directory_rename_cascades_paths(self, volume, disk):
        self._seed(volume)
        _warm_parse(disk)
        volume.rename("\\data\\sub", "\\data\\moved")
        entries = _warm_parse(disk)
        paths = {entry.path for entry in entries}
        assert "\\data\\moved\\inner.bin" in paths
        assert not any(path.startswith("\\data\\sub") for path in paths)
        assert entries == _cold_parse(disk)

    def test_ads_change_patches(self, volume, disk):
        self._seed(volume)
        _warm_parse(disk)
        volume.write_stream("\\data\\file-01.bin", "ads", b"hidden")
        entries = _warm_parse(disk)
        entry = next(e for e in entries if e.name == "file-01.bin")
        assert entry.stream_names == ("ads",)
        assert entries == _cold_parse(disk)

    def test_journal_overflow_falls_back_to_full_reparse(self, volume,
                                                         disk):
        self._seed(volume)
        _warm_parse(disk)
        # A tiny journal starting at the warm generation: ten writes
        # wrap it well past the warm bookmark.
        disk.journal = ChangeJournal(capacity=4,
                                     start_generation=disk.generation)
        for index in range(10):
            volume.write_file(f"\\data\\file-{index:02d}.bin", b"x" * 32)
        overflow_before = _counter("journal.overflow")
        patched_before = _counter("journal.records_patched")
        assert _warm_parse(disk) == _cold_parse(disk)
        assert _counter("journal.overflow") > overflow_before
        assert _counter("journal.records_patched") == patched_before

    def test_injected_generation_gap_falls_back(self, volume, disk):
        self._seed(volume)
        _warm_parse(disk)
        volume.write_file("\\data\\file-02.bin", b"touched")
        disk.generation += 1                    # injector-style bare bump
        patched_before = _counter("journal.records_patched")
        assert _warm_parse(disk) == _cold_parse(disk)
        assert _counter("journal.records_patched") == patched_before


class TestDuplicateKeyPatch:
    """Two records whose paths fold to one key: first slot wins, warm or cold.

    The volume's directory index refuses such names, so the second
    record is written raw, behind the volume's back.
    """

    def _raw_write(self, volume, disk, slot, record=None):
        offset = volume.mft_offset + slot * MFT_RECORD_SIZE
        disk.write_bytes(offset, record.to_bytes() if record is not None
                         else bytes(MFT_RECORD_SIZE))

    def _assert_lookups_match_cold(self, disk, path):
        cold = MftParser(lambda offset, length: disk.read_bytes(offset,
                                                                length))
        before = _counter("journal.records_patched")
        assert _warm_parse(disk) == _cold_parse(disk)
        assert _counter("journal.records_patched") > before
        for probe in (path, path.upper()):
            assert MftParser(disk.read_bytes).find_by_path(probe) \
                == cold.find_by_path(probe)

    def test_patches_keep_the_first_slot_winner(self, volume, disk):
        volume.create_directories("\\data")
        volume.create_file("\\data\\twin.bin", b"first")
        _warm_parse(disk)
        original = MftParser(disk.read_bytes).find_by_path(
            "\\data\\twin.bin")
        twin = MftRecord.from_bytes(disk.read_bytes(
            volume.mft_offset + original.record_no * MFT_RECORD_SIZE,
            MFT_RECORD_SIZE))
        slot = original.record_no + 7
        twin.record_no = slot
        twin.file_name.name = "TWIN.bin"
        self._raw_write(volume, disk, slot, twin)         # key now shared
        self._assert_lookups_match_cold(disk, "\\data\\twin.bin")
        assert MftParser(disk.read_bytes).find_by_path(
            "\\data\\TWIN.BIN").record_no == original.record_no
        volume.write_file("\\data\\twin.bin", b"rewritten")  # shared key
        self._assert_lookups_match_cold(disk, "\\data\\twin.bin")
        self._raw_write(volume, disk, slot)               # twin gone
        self._assert_lookups_match_cold(disk, "\\data\\twin.bin")
        volume.write_file("\\data\\twin.bin", b"alone again")
        self._assert_lookups_match_cold(disk, "\\data\\twin.bin")


class TestDeltaRescanCost:
    """A delta rescan re-makes only what the journal says changed.

    Counted, not timed: after k file writes, one low-level file scan of
    a churn-shaped machine (about 320 entries) builds O(k) FileEntry
    objects and folds O(k) path keys, where a rebuild makes one of each
    per entry.
    """

    _PROFILE = FleetProfile(name="churn", size=1, seed=4,
                            file_count=(240, 340),
                            virtual_files=(80_000, 200_000),
                            registry_kb=(40, 80), churn_files=(2, 5),
                            churn_registry=(0, 1), disk_mb=64,
                            max_records=1024)

    @pytest.mark.parametrize("writes", [1, 3])
    def test_delta_rescan_work_follows_the_writes(self, writes,
                                                  monkeypatch):
        machine = build_profiled_machine(self._PROFILE, "churn-000")
        warm = low_level_file_scan(machine)
        assert len(warm.entries) > 300
        for index in range(writes):
            machine.volume.create_file(f"\\Temp\\delta-{index}.log",
                                       b"d" * 64)
        made = {"entries": 0, "keys": 0}
        entry_init = snapshot_module.FileEntry.__init__
        fold = mft_parser.normalize_key

        def counting_init(self, *args, **kwargs):
            made["entries"] += 1
            entry_init(self, *args, **kwargs)

        def counting_fold(path):
            made["keys"] += 1
            return fold(path)

        monkeypatch.setattr(snapshot_module.FileEntry, "__init__",
                            counting_init)
        monkeypatch.setattr(mft_parser, "normalize_key", counting_fold)
        patched = _counter("journal.records_patched")
        rescan = low_level_file_scan(machine)
        monkeypatch.undo()
        assert _counter("journal.records_patched") > patched
        assert len(rescan.entries) == len(warm.entries) + writes
        assert made["entries"] <= 2 * writes
        assert made["keys"] <= 2 * writes


class TestDeltaDetection:
    def test_journal_patched_detection_equals_cold(self):
        """A detection whose caches were repaired through the change
        journal and the hive bin delta convicts on the same findings as
        one that parses every structure cold."""
        machine = Machine("delta", disk_mb=512, max_records=8192)
        populate_machine(machine, file_count=120, registry_scale=200,
                         seed=7)
        machine.boot()
        HackerDefender().install(machine)
        machine.registry.create_key("HKLM\\SOFTWARE\\DeltaProbe")
        GhostBuster(machine).detect()      # every cache warm
        patched = _counter("journal.records_patched")
        for round_no in range(3):
            path = f"\\Temp\\delta{round_no:02d}-new.bin"
            machine.volume.create_file(path, b"fresh")
            machine.volume.write_file(path, b"rewritten")
            machine.volume.write_stream(path, "marker", b"ads")
            machine.registry.set_value("HKLM\\SOFTWARE\\DeltaProbe",
                                       "round", str(round_no))
            warm = GhostBuster(machine).detect()
        assert _counter("journal.records_patched") > patched
        machine.disk.raw_cache.clear()
        hive_parser.clear_hive_cache()
        cold = GhostBuster(machine).detect()
        assert _identities(warm) and _identities(warm) == _identities(cold)


# -- volume rename ------------------------------------------------------------

class TestVolumeRename:
    def test_rename_moves_between_directories(self, volume):
        volume.create_directories("\\a")
        volume.create_directories("\\b")
        volume.create_file("\\a\\f.txt", b"payload")
        volume.rename("\\a\\f.txt", "\\b\\g.txt")
        assert volume.read_file("\\b\\g.txt") == b"payload"
        assert not volume.exists("\\a\\f.txt")

    def test_rename_rejects_collision(self, volume):
        volume.create_file("\\one", b"")
        volume.create_file("\\two", b"")
        with pytest.raises(FileExists):
            volume.rename("\\one", "\\two")

    def test_rename_rejects_cycle(self, volume):
        volume.create_directories("\\outer\\inner")
        with pytest.raises(VolumeError):
            volume.rename("\\outer", "\\outer\\inner\\outer")

    def test_rename_missing_source(self, volume):
        with pytest.raises(FileNotFound):
            volume.rename("\\ghost", "\\real")

    def test_rename_root_forbidden(self, volume):
        with pytest.raises(VolumeError):
            volume.rename("\\", "\\newroot")


# -- hive bin-level delta parsing ---------------------------------------------

class TestHiveBinDelta:
    def _hive(self):
        hive = Hive("SOFTWARE")
        for top in ("Alpha", "Beta", "Gamma", "Delta"):
            key = hive.create_key(f"{top}\\Nested\\Deep")
            key.set_value("marker", f"{top}-value")
        return hive

    def test_single_bin_edit_reuses_other_bins(self):
        hive_parser.clear_hive_cache()
        hive = self._hive()
        hive_parser.parse_hive(hive.serialize())
        hive.open_key("Beta\\Nested\\Deep").set_value("marker", "edited")
        blob = hive.serialize()
        reused_before = _counter("hive.delta.bins_reused")
        reparsed_before = _counter("hive.delta.bins_reparsed")
        parsed = hive_parser.parse_hive(blob)
        assert _counter("hive.delta.bins_reused") == reused_before + 3
        assert _counter("hive.delta.bins_reparsed") == reparsed_before + 1
        cold = hive_parser.HiveParser(blob).parse()
        assert parsed == cold

    def test_unaligned_layout_rejected(self):
        # A compact (foreign-writer) layout puts the first top-level nk
        # below its expected bin boundary; the span finder must refuse
        # so the caller cold-parses.
        from repro.registry import cells
        blob = self._hive().serialize()
        assert hive_parser._bin_spans(blob, [cells.HEADER_SIZE]) is None

    def test_structural_surprise_falls_back(self, monkeypatch):
        from repro.errors import HiveFormatError
        hive_parser.clear_hive_cache()
        blob = self._hive().serialize()

        def foreign(blob_, offsets):
            raise HiveFormatError("foreign writer")

        monkeypatch.setattr(hive_parser, "_bin_spans", foreign)
        before = _counter("hive.delta.fallback")
        parsed = hive_parser._parse_blob_incremental(blob)
        assert _counter("hive.delta.fallback") == before + 1
        assert parsed == hive_parser.HiveParser(blob).parse()

    def test_roundtrip_survives_bin_padding(self):
        hive = self._hive()
        blob = hive.serialize()
        rebuilt = Hive.deserialize(blob)
        assert rebuilt.open_key("Gamma\\Nested\\Deep").value(
            "marker").win32_data() == "Gamma-value"


# -- snapshot identity index --------------------------------------------------

class TestSnapshotIdentities:
    def _entry(self, path):
        return FileEntry(path=path, name=path.rsplit("\\", 1)[-1],
                         is_directory=False, size=1)

    def test_list_replacement_invalidates_cache(self):
        snapshot = ScanSnapshot(ResourceType.FILE, "win32-api",
                                entries=[self._entry("\\a")])
        assert "\\a" in snapshot.identities()
        snapshot.entries = [self._entry("\\b")]
        assert "\\b" in snapshot.identities()
        assert "\\a" not in snapshot.identities()

    def test_id_reuse_cannot_alias_the_cache(self):
        # Regression: the old fingerprint was (id(entries), len(entries)).
        # CPython frees the replaced list immediately, so a same-length
        # replacement routinely reuses the exact id and the stale index
        # was served.  The mutation counter makes every assignment a new
        # fingerprint; loop to give the allocator every chance to reuse.
        snapshot = ScanSnapshot(ResourceType.FILE, "raw-mft", entries=[])
        for round_no in range(50):
            snapshot.entries = [self._entry(f"\\round-{round_no}")]
            index = snapshot.identities()
            assert list(index) == [f"\\round-{round_no}"]

    def test_version_counts_every_assignment(self):
        snapshot = ScanSnapshot(ResourceType.FILE, "win32-api")
        first = snapshot._entries_version
        snapshot.entries = []
        snapshot.entries = []
        assert snapshot._entries_version == first + 2

    def test_in_place_growth_still_invalidates(self):
        snapshot = ScanSnapshot(ResourceType.FILE, "win32-api",
                                entries=[self._entry("\\a")])
        snapshot.identities()
        snapshot.entries.append(self._entry("\\b"))
        assert "\\b" in snapshot.identities()


# -- report round-trip and baseline store -------------------------------------

class TestBaselineStore:
    def _report(self, name="pc-1"):
        machine = Machine(name, disk_mb=64, max_records=4096)
        machine.boot()
        Aphex().install(machine)
        return RisServer().network_boot_scan(machine), machine

    def test_report_roundtrip_preserves_verdict(self):
        report, _ = self._report()
        document = report_to_dict(report)
        rebuilt = report_from_dict(document)
        assert report_to_dict(rebuilt) == document
        assert rebuilt.is_clean == report.is_clean
        assert len(rebuilt.findings) == len(report.findings)

    def test_put_get_and_persistence(self, tmp_path):
        report, machine = self._report()
        store = BaselineStore(str(tmp_path))
        stored = store.put("pc-1", report, machine.disk.generation,
                           scan_seconds=1.25)
        assert store.get("pc-1").baseline_id == stored.baseline_id
        # A fresh store re-reads the JSONL file.
        reloaded = BaselineStore(str(tmp_path))
        baseline = reloaded.get("pc-1")
        assert baseline.disk_generation == machine.disk.generation
        assert baseline.scan_seconds == 1.25
        rebuilt = baseline.rehydrate(mode="ris-delta-skip")
        assert rebuilt.mode == "ris-delta-skip"
        assert not rebuilt.is_clean

    def test_latest_record_wins(self, tmp_path):
        report, machine = self._report()
        store = BaselineStore(str(tmp_path))
        store.put("pc-1", report, 10)
        store.put("pc-1", report, 20)
        assert BaselineStore(str(tmp_path)).get("pc-1") \
            .disk_generation == 20

    def test_torn_tail_line_skipped(self, tmp_path):
        report, machine = self._report()
        store = BaselineStore(str(tmp_path))
        store.put("pc-1", report, 5, scan_seconds=2.0)
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write('{"machine": "pc-2", "trunc')
        reloaded = BaselineStore(str(tmp_path))
        assert reloaded.machines() == ["pc-1"]
        assert reloaded.scan_seconds("pc-1") == 2.0
        assert reloaded.scan_seconds("pc-2") is None


# -- delta fleet sweeps -------------------------------------------------------

def _fleet(count=5, infected=(2,)):
    machines = []
    for index in range(count):
        machine = Machine(f"client-{index}", disk_mb=64, max_records=4096)
        machine.boot()
        machines.append(machine)
    for index in infected:
        Aphex().install(machines[index])
    return machines


class TestDeltaSweep:
    def test_error_machine_keeps_old_baseline(self, tmp_path):
        from repro.faults.plan import (FaultPlan, FaultSpec,
                                       SITE_RIS_TRANSPORT)
        from repro.fleet import EscalationPolicy, FleetCoordinator

        machines = _fleet(count=3, infected=(1,))
        seeded = FleetCoordinator(str(tmp_path), machines,
                                  policy=EscalationPolicy("ris"))
        assert seeded.run_epoch().infected_machines() == ["client-1"]
        old = seeded.store.get("client-1").baseline_id
        machines[1].volume.create_file("\\Temp\\touch.txt", b"x")
        # The same fleet dir again, now with every network boot dying.
        plan = FaultPlan(seed=7, specs=(
            FaultSpec(SITE_RIS_TRANSPORT, mode="always",
                      kinds=("machine_death",), mean_delay_s=0.0,
                      scopes=("client-1",)),))
        coordinator = FleetCoordinator(
            str(tmp_path), machines, fault_plan=plan,
            policy=EscalationPolicy("ris"))
        delta = coordinator.run_epoch()
        failed = next(v for v in delta.verdicts if v.machine == "client-1")
        assert failed.verdict == "error"
        assert failed.error.startswith("MachineUnavailable")
        # The failed rescan must not overwrite the last good baseline.
        assert coordinator.store.get("client-1").baseline_id == old
