"""Tests for the raw MFT parser — the low-level file truth."""

import struct

import pytest

from repro.core import GhostBuster
from repro.disk import Disk, DiskGeometry
from repro.errors import CorruptRecord, DiskError, FileNotFound
from repro.faults import context as faults_context
from repro.faults.injectors import DiskFaultInjector
from repro.faults.plan import SITE_DISK_READ, FaultPlan, FaultSpec
from repro.ghostware import HackerDefender
from repro.kernel.kernel import DiskPort
from repro.machine import Machine
from repro.ntfs import MftParser, NtfsVolume, parse_volume
from repro.ntfs import constants as c
from repro.ntfs.constants import MFT_RECORD_SIZE, NAMESPACE_POSIX
from repro.ntfs.mft_parser import _NAMESPACE_CACHE_KEY
from repro.ntfs.records import DataAttribute, FileName, MftRecord
from repro.workloads.scenarios import build_home_pc


class TestNamespaceReconstruction:
    def test_paths_match_volume_view(self, volume, disk):
        volume.create_directories("\\Windows\\System32")
        volume.create_file("\\Windows\\System32\\x.dll", b"x")
        parsed_paths = {entry.path for entry in parse_volume(disk)}
        volume_paths = {entry.path for entry in volume.walk()}
        assert parsed_paths == volume_paths

    def test_sees_win32_invisible_files(self, volume, disk):
        volume.create_file("\\ghost. ", b"", native=True)
        names = {entry.name for entry in parse_volume(disk)}
        assert "ghost. " in names

    def test_namespace_flag_preserved(self, volume, disk):
        volume.create_file("\\NUL", b"", native=True)
        entry = next(e for e in parse_volume(disk) if e.name == "NUL")
        assert entry.namespace == NAMESPACE_POSIX

    def test_deleted_files_absent(self, volume, disk):
        volume.create_file("\\gone.txt", b"")
        volume.delete_file("\\gone.txt")
        assert all(entry.name != "gone.txt" for entry in parse_volume(disk))

    def test_directory_flag(self, volume, disk):
        volume.create_directories("\\d")
        entry = next(e for e in parse_volume(disk) if e.name == "d")
        assert entry.is_directory

    def test_sizes_reported(self, volume, disk):
        volume.create_file("\\sized", b"12345")
        entry = next(e for e in parse_volume(disk) if e.name == "sized")
        assert entry.size == 5

    def test_empty_volume_parses(self, volume, disk):
        assert parse_volume(disk) == []


class TestBootstrap:
    def test_capacity_from_record_zero(self, volume, disk):
        parser = MftParser(disk.read_bytes)
        assert parser.mft_capacity() == volume.max_records

    def test_not_ntfs_raises(self):
        with pytest.raises(CorruptRecord):
            MftParser(lambda offset, length: b"\x00" * length)


class TestContentAccess:
    def test_resident_content(self, volume, disk):
        volume.create_file("\\small.txt", b"resident!")
        parser = MftParser(disk.read_bytes)
        assert parser.read_file_content("\\small.txt") == b"resident!"

    def test_nonresident_content(self, volume, disk):
        payload = b"Z" * 20_000
        volume.create_file("\\big.bin", payload)
        parser = MftParser(disk.read_bytes)
        assert parser.read_file_content("\\big.bin") == payload

    def test_case_insensitive_path(self, volume, disk):
        volume.create_file("\\Mixed.Case", b"ok")
        parser = MftParser(disk.read_bytes)
        assert parser.read_file_content("\\MIXED.case") == b"ok"

    def test_missing_path(self, volume, disk):
        parser = MftParser(disk.read_bytes)
        with pytest.raises(FileNotFound):
            parser.read_file_content("\\absent")

    def test_find_by_path(self, volume, disk):
        volume.create_directories("\\a")
        volume.create_file("\\a\\b", b"")
        parser = MftParser(disk.read_bytes)
        assert parser.find_by_path("\\a\\b").record_no > 0


class TestIndependenceFromApiView:
    def test_parser_sees_truth_not_index(self, volume, disk):
        """The parser rebuilds paths from parent refs alone: corrupt the
        in-memory index and the raw view is unaffected."""
        volume.create_directories("\\real")
        volume.create_file("\\real\\file", b"")
        volume._children.clear()   # sabotage the API-side index
        names = {entry.path for entry in parse_volume(disk)}
        assert "\\real\\file" in names


def reference_walk(read_bytes, mft_offset: int, capacity: int):
    """The MFT walked slot by slot: one 1,024-byte read per slot, the
    magic and in-use rules, and the slice-per-attribute reference
    decoder.  Returns the in-use records by slot and the skipped count."""
    records, skipped = {}, 0
    for slot in range(capacity):
        try:
            blob = read_bytes(mft_offset + slot * MFT_RECORD_SIZE,
                              MFT_RECORD_SIZE)
        except DiskError:
            skipped += 1
            continue
        if blob[:4] != c.RECORD_MAGIC:
            skipped += any(blob[:4])
            continue
        try:
            record = MftRecord._from_bytes(blob)
        except CorruptRecord:
            skipped += 1
            continue
        if record.flags & c.FLAG_IN_USE:
            records[slot] = record
    return records, skipped


def forge(disk, volume, slot: int, claimed: int, name: str,
          parent: int = c.RECORD_ROOT) -> None:
    """Raw-write an in-use FILE record into ``slot`` whose header claims
    record number ``claimed``."""
    record = MftRecord(record_no=claimed, flags=c.FLAG_IN_USE,
                       file_name=FileName(c.make_file_reference(parent, 1),
                                          name))
    disk.write_bytes(volume.mft_offset + slot * MFT_RECORD_SIZE,
                     record.to_bytes())


def file_findings(machine):
    """The file findings' paths of a cold inside scan of ``machine``."""
    machine.disk.raw_cache.clear()
    report = GhostBuster(machine).inside_scan()
    return sorted(finding.entry.path for finding in report.findings
                  if hasattr(finding.entry, "path"))


def sources(disk):
    """The four kinds of reader a parser can be handed, by name."""
    filtered = DiskPort(disk)
    filtered.read_filters.append(lambda offset, length, data: data)
    return {"disk": disk.read_bytes,
            "port": DiskPort(disk).read_bytes,
            "filtered port": filtered.read_bytes,
            "unbound": lambda offset, length: disk.read_bytes(offset, length)}


class TestOneReadPath:
    def test_every_source_matches_the_slot_by_slot_reference(self, volume,
                                                             disk):
        """Free, junk-magic, corrupt-body, not-in-use and forged slots
        parse identically through every source, and as the reference."""
        volume.create_directories("\\d\\e")
        record_nos = [volume.create_file(f"\\d\\f{index:02d}",
                                         b"x" * index * 90).record_no
                      for index in range(24)]
        for index in range(0, 24, 3):
            volume.delete_file(f"\\d\\f{index:02d}")   # not in use
        volume.create_file("\\d\\e\\late", b"y" * 2000)  # reuses a slot
        slot_at = lambda slot: volume.mft_offset + slot * MFT_RECORD_SIZE
        disk.write_bytes(slot_at(record_nos[3]),
                         b"JUNK" + bytes(MFT_RECORD_SIZE - 4))
        body = bytearray(disk.read_bytes(slot_at(record_nos[1]),
                                         MFT_RECORD_SIZE))
        struct.pack_into("<I", body, c.REC_HEADER_SIZE, 0x1234)
        disk.write_bytes(slot_at(volume.max_records - 1), bytes(body))
        forge(disk, volume, volume.max_records - 2, record_nos[2],
              "forged.txt")
        records, skipped = reference_walk(disk.read_bytes, volume.mft_offset,
                                          volume.max_records)
        assert skipped == 2
        expected = [(slot, record.file_name.name)
                    for slot, record in sorted(records.items())
                    if slot not in (c.RECORD_MFT, c.RECORD_ROOT)]
        for name, read_bytes in sources(disk).items():
            disk.raw_cache.clear()
            parser = MftParser(read_bytes)
            namespace = parser.namespace()
            assert namespace.records == records, name
            assert [(entry.record_no, entry.name)
                    for entry in namespace.entries] == expected, name
            assert parser.corrupt_skipped == skipped, name
        paths = {entry.path for entry in parse_volume(disk)}
        assert {"\\forged.txt", "\\d\\f02"} <= paths

    def test_region_past_the_disk_end_counts_as_skipped(self):
        """A record 0 claiming more slots than the disk holds: the slots
        past its end are skipped, the rest parse as the reference."""
        disk = Disk(DiskGeometry.from_megabytes(16))
        volume = NtfsVolume.format(disk, max_records=1024)
        volume.create_file("\\kept.txt", b"k")
        record0 = MftRecord.from_bytes(
            disk.read_bytes(volume.mft_offset, MFT_RECORD_SIZE))
        record0.data = DataAttribute.make_nonresident(
            record0.data.runs, real_size=40_000 * MFT_RECORD_SIZE)
        disk.write_bytes(volume.mft_offset, record0.to_bytes())
        assert MftParser(disk.read_bytes).mft_capacity() == 40_000
        readable = ((disk.geometry.size_bytes - volume.mft_offset)
                    // MFT_RECORD_SIZE)
        records, skipped = reference_walk(disk.read_bytes,
                                          volume.mft_offset, 40_000)
        assert skipped == 40_000 - readable
        for name, read_bytes in sources(disk).items():
            if name == "unbound":      # no disk end to read up to
                continue
            disk.raw_cache.clear()
            parser = MftParser(read_bytes)
            assert parser.namespace().records == records, name
            assert parser.corrupt_skipped == skipped, name

    def test_one_disk_read_draw_per_cold_parse(self, volume, disk):
        volume.create_file("\\a.txt", b"a")

        class CountingPlan(FaultPlan):
            def draw(self, site, scope="global"):
                self.draws.append(site)
                return super().draw(site, scope)

        plan = CountingPlan(0, (FaultSpec(SITE_DISK_READ, rate=0.0),))
        plan.draws = []
        parser = MftParser(disk.read_bytes)
        disk.fault_injector = DiskFaultInjector(plan, disk)
        with faults_context.scoped(plan):
            assert "\\a.txt" in {entry.path for entry in parser.parse()}
        assert plan.draws.count(SITE_DISK_READ) == 1

    def test_filter_sees_one_region_sized_read(self, volume, disk):
        volume.create_file("\\a.txt", b"a")
        port = DiskPort(disk)
        calls = []

        def observe(offset, length, data):
            calls.append((offset, length))
            return data

        port.read_filters.append(observe)
        parser = MftParser(port.read_bytes)
        calls.clear()                      # the boot sector and record 0
        parser.parse()
        assert calls == [(volume.mft_offset,
                          volume.max_records * MFT_RECORD_SIZE)]


class TestRegionReadHealing:
    """Damage to the one region read heals to the fault-free parse."""

    @pytest.mark.parametrize("spec", [
        FaultSpec(SITE_DISK_READ, mode="one_shot", kinds=("torn_read",)),
        # Four faults exhaust the injector's driver-level retries, so
        # the region read raises and the parse itself retries.
        FaultSpec(SITE_DISK_READ, mode="always", kinds=("io_error",),
                  max_fires=4),
    ], ids=["torn_read", "io_error"])
    def test_damaged_region_read_heals(self, spec):
        disk = Disk(DiskGeometry.from_megabytes(16))
        volume = NtfsVolume.format(disk, max_records=64)
        for index in range(36):
            volume.create_file(f"\\f{index:02d}.txt", b"x")
        truth = MftParser(lambda offset, length:
                          disk.read_bytes(offset, length)).parse()
        assert len(truth) == 36
        parser = MftParser(disk.read_bytes)
        plan = FaultPlan(7, (spec,))
        disk.fault_injector = DiskFaultInjector(plan, disk)
        generation = disk.generation
        with faults_context.scoped(plan):
            healed = parser.parse()
        assert plan.fired_count(SITE_DISK_READ) >= 1
        assert healed == truth
        # Stored, if at all, only at the generation the parse began at.
        assert disk.raw_cache[_NAMESPACE_CACHE_KEY][0] == generation


class TestSlotKeying:
    """A record is keyed by the slot it sits in, not by its header."""

    def test_forged_header_keeps_both_records(self, volume, disk):
        victim = volume.create_file("\\a.txt", b"a").record_no
        forge(disk, volume, victim + 1, victim, "evil.txt")
        disk.raw_cache.clear()
        entries = [(entry.record_no, entry.path)
                   for entry in MftParser(disk.read_bytes).parse()]
        assert entries == [(victim, "\\a.txt"), (victim + 1, "\\evil.txt")]
        mounted = NtfsVolume.mount(disk)
        assert mounted.stat("\\evil.txt").record_no == victim + 1
        assert mounted.stat("\\a.txt").record_no == victim

    @staticmethod
    def decoyed_machine():
        """Hacker Defender's home PC with three decoys in free slots, each
        claiming one hidden file's record number under a visible
        sibling's name; returns the machine and a cold inside scan's
        file findings from before the decoys."""
        machine = build_home_pc("client-01", HackerDefender(), files=30,
                                seed=4).machine
        hidden = file_findings(machine)
        assert len(hidden) == 3
        parsed = {entry.path: entry for entry in parse_volume(machine.disk)}
        parent = parsed[hidden[0]].parent_record
        siblings = [entry.name for path, entry in sorted(parsed.items())
                    if entry.parent_record == parent and path not in hidden
                    and not entry.is_directory]
        volume = machine.volume
        for index, (path, sibling) in enumerate(zip(hidden, siblings)):
            forge(machine.disk, volume, volume.max_records - 1 - index,
                  parsed[path].record_no, sibling, parent)
        return machine, hidden

    def test_decoy_headers_do_not_erase_hidden_files(self):
        """A cold inside scan still finds all three hidden files."""
        machine, hidden = self.decoyed_machine()
        assert file_findings(machine) == hidden

    def test_mount_keeps_the_first_slot_under_a_contested_name(self):
        """Each decoy names a visible sibling's entry a second time.
        Mounting the disk, and imaging a machine from it, keep the
        first record in slot order under the name — the record the raw
        parser's key index serves — instead of raising FileExists."""
        machine, __ = self.decoyed_machine()
        disk = machine.disk
        mounted = NtfsVolume.mount(disk.clone())
        parser = MftParser(disk.read_bytes)
        walked = list(mounted.walk())
        assert walked
        for stat in walked:
            assert parser.find_by_path(stat.path).record_no == stat.record_no
        Machine("again", disk=disk.clone()).boot()
