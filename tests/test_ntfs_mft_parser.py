"""Tests for the raw MFT parser — the low-level file truth."""

import pytest

from repro.errors import CorruptRecord, FileNotFound
from repro.ntfs import MftParser, parse_volume
from repro.ntfs.constants import MFT_RECORD_SIZE, NAMESPACE_POSIX


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

    def test_read_record_out_of_range(self, volume, disk):
        parser = MftParser(disk.read_bytes)
        assert parser.read_record(-1) is None
        assert parser.read_record(volume.max_records + 5) is None

    def test_unallocated_slot_is_none(self, volume, disk):
        parser = MftParser(disk.read_bytes)
        assert parser.read_record(volume.max_records - 1) is None


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


class TestRegionWalkMatchesRecordLoop:
    def test_batched_walk_equals_per_record_reads(self, volume, disk):
        """The batched region walk (a parser bound to the disk) and the
        per-record read loop (an unbound callable) parse one volume
        identically, free and junk slots included."""
        volume.create_directories("\\d\\e")
        record_nos = [volume.create_file(f"\\d\\f{index:02d}",
                                         b"x" * index * 90).record_no
                      for index in range(24)]
        for index in range(0, 24, 3):
            volume.delete_file(f"\\d\\f{index:02d}")
        volume.create_file("\\d\\e\\late", b"y" * 2000)  # reuses a slot
        # A freed slot that was not reused, overwritten with non-FILE bytes.
        disk.write_bytes(volume.mft_offset + record_nos[0] * MFT_RECORD_SIZE,
                         b"JUNK" + bytes(MFT_RECORD_SIZE - 4))

        batched = MftParser(disk.read_bytes)
        looped = MftParser(lambda offset, length:
                           disk.read_bytes(offset, length))
        view = batched._region_view()
        assert view is not None
        view.release()
        assert looped._region_view() is None
        entries = batched.parse()
        assert entries == looped.parse()
        assert len(entries) == 19       # d, e, 16 live files, late
        assert batched.corrupt_skipped == looped.corrupt_skipped == 1
