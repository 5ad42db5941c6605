"""Tests for the NTFS volume facade."""

import pytest

from repro.clock import SimClock
from repro.errors import (DirectoryNotEmpty, FileExists, FileNotFound,
                          InvalidWin32Name, NotADirectory, VolumeError)
from repro.ntfs import NtfsVolume
from repro.ntfs.constants import DOS_FLAG_HIDDEN, RESIDENT_DATA_LIMIT


class TestCreation:
    def test_create_and_stat_file(self, volume):
        volume.create_directories("\\dir")
        stat = volume.create_file("\\dir\\a.txt", b"abc")
        assert stat.size == 3
        assert not stat.is_directory
        assert volume.stat("\\dir\\a.txt").name == "a.txt"

    def test_case_insensitive_lookup(self, volume):
        volume.create_file("\\File.TXT", b"x")
        assert volume.exists("\\FILE.txt")
        assert volume.stat("\\file.txt").name == "File.TXT"  # case kept

    def test_duplicate_rejected(self, volume):
        volume.create_file("\\a", b"")
        with pytest.raises(FileExists):
            volume.create_file("\\A", b"")

    def test_missing_parent_rejected(self, volume):
        with pytest.raises(FileNotFound):
            volume.create_file("\\no\\such\\file", b"")

    def test_file_as_parent_rejected(self, volume):
        volume.create_file("\\f", b"")
        with pytest.raises(NotADirectory):
            volume.create_file("\\f\\child", b"")

    def test_win32_invalid_name_rejected_by_default(self, volume):
        with pytest.raises(InvalidWin32Name):
            volume.create_file("\\bad.", b"")

    def test_native_create_allows_win32_illegal(self, volume):
        stat = volume.create_file("\\bad.", b"", native=True)
        assert stat.name == "bad."

    def test_create_directories_idempotent(self, volume):
        volume.create_directories("\\a\\b\\c")
        volume.create_directories("\\a\\b\\c")
        assert volume.is_directory("\\a\\b\\c")

    def test_dos_flags_recorded(self, volume):
        stat = volume.create_file("\\h.txt", b"", dos_flags=DOS_FLAG_HIDDEN)
        assert stat.dos_flags == DOS_FLAG_HIDDEN


class TestContent:
    def test_resident_roundtrip(self, volume):
        volume.create_file("\\small", b"tiny")
        assert volume.read_file("\\small") == b"tiny"

    def test_nonresident_roundtrip(self, volume):
        payload = bytes(range(256)) * 40   # > RESIDENT_DATA_LIMIT
        assert len(payload) > RESIDENT_DATA_LIMIT
        volume.create_file("\\big", payload)
        assert volume.read_file("\\big") == payload

    def test_rewrite_shrinks(self, volume):
        volume.create_file("\\f", b"x" * 5000)
        volume.write_file("\\f", b"now small")
        assert volume.read_file("\\f") == b"now small"
        assert volume.stat("\\f").size == 9

    def test_rewrite_grows_resident_to_nonresident(self, volume):
        volume.create_file("\\f", b"small")
        volume.write_file("\\f", b"y" * 10_000)
        assert volume.read_file("\\f") == b"y" * 10_000

    def test_append(self, volume):
        volume.create_file("\\log", b"one\n")
        volume.append_file("\\log", b"two\n")
        assert volume.read_file("\\log") == b"one\ntwo\n"

    def test_read_directory_fails(self, volume):
        volume.create_directory("\\d")
        with pytest.raises(VolumeError):
            volume.read_file("\\d")

    def test_cluster_reuse_after_delete(self, volume):
        volume.create_file("\\f1", b"a" * 9000)
        volume.delete_file("\\f1")
        volume.create_file("\\f2", b"b" * 9000)
        assert volume.read_file("\\f2") == b"b" * 9000


class TestDeletion:
    def test_delete_file(self, volume):
        volume.create_file("\\f", b"")
        volume.delete_file("\\f")
        assert not volume.exists("\\f")

    def test_delete_missing(self, volume):
        with pytest.raises(FileNotFound):
            volume.delete_file("\\nope")

    def test_delete_directory_requires_empty(self, volume):
        volume.create_directories("\\d")
        volume.create_file("\\d\\f", b"")
        with pytest.raises(DirectoryNotEmpty):
            volume.delete_directory("\\d")

    def test_recursive_delete(self, volume):
        volume.create_directories("\\d\\sub")
        volume.create_file("\\d\\f", b"")
        volume.create_file("\\d\\sub\\g", b"")
        volume.delete_directory("\\d", recursive=True)
        assert not volume.exists("\\d")

    def test_delete_file_on_directory_fails(self, volume):
        volume.create_directory("\\d")
        with pytest.raises(VolumeError):
            volume.delete_file("\\d")

    def test_root_cannot_be_deleted(self, volume):
        with pytest.raises(VolumeError):
            volume.delete_directory("\\")

    def test_record_number_reused(self, volume):
        stat1 = volume.create_file("\\a", b"")
        volume.delete_file("\\a")
        stat2 = volume.create_file("\\b", b"")
        assert stat2.record_no == stat1.record_no


class TestEnumeration:
    def test_list_directory_sorted(self, volume):
        for name in ("zeta", "alpha", "Mid"):
            volume.create_file(f"\\{name}", b"")
        names = [entry.name for entry in volume.list_directory("\\")]
        assert names == ["alpha", "Mid", "zeta"]

    def test_list_nondirectory_fails(self, volume):
        volume.create_file("\\f", b"")
        with pytest.raises(NotADirectory):
            volume.list_directory("\\f")

    def test_walk_covers_tree(self, volume):
        volume.create_directories("\\a\\b")
        volume.create_file("\\a\\f1", b"")
        volume.create_file("\\a\\b\\f2", b"")
        paths = {entry.path for entry in volume.walk()}
        assert paths == {"\\a", "\\a\\b", "\\a\\f1", "\\a\\b\\f2"}

    def test_file_count(self, volume):
        volume.create_directories("\\d")
        volume.create_file("\\d\\f", b"")
        assert volume.file_count() == 2


class TestMount:
    def test_mount_rebuilds_namespace(self, volume, disk):
        volume.create_directories("\\x\\y")
        volume.create_file("\\x\\y\\data.bin", b"D" * 4096)
        remounted = NtfsVolume.mount(disk)
        assert remounted.read_file("\\x\\y\\data.bin") == b"D" * 4096

    def test_mount_allows_further_writes(self, volume, disk):
        volume.create_file("\\keep", b"old")
        remounted = NtfsVolume.mount(disk)
        remounted.create_file("\\new", b"new")
        assert remounted.exists("\\keep")
        assert remounted.read_file("\\new") == b"new"

    def test_mount_continues_record_allocation(self, volume, disk):
        stats = [volume.create_file(f"\\f{i}", b"") for i in range(5)]
        remounted = NtfsVolume.mount(disk)
        new_stat = remounted.create_file("\\later", b"")
        assert new_stat.record_no > max(s.record_no for s in stats)


def _mutate_write(volume):
    volume.write_file("\\d\\f", b"longer content")


def _mutate_append(volume):
    volume.append_file("\\d\\f", b"+tail")


def _mutate_rename_file(volume):
    volume.rename("\\d\\f", "\\d\\g")


def _mutate_set_times(volume):
    volume.set_times("\\d\\f", modified_us=123_456_789)


def _mutate_write_stream(volume):
    volume.write_stream("\\d\\f", "ads", b"hidden")


def _mutate_reuse_record(volume):
    volume.delete_file("\\d\\f")
    volume.create_file("\\d\\f", b"a different file")


def _mutate_rename_parent(volume):
    volume.rename("\\d", "\\e")


class TestListingStatCache:
    """list_directory keeps each listed record's FileStat; a warm
    listing after any mutation must equal a cold mount's listing."""

    @pytest.mark.parametrize("mutate", [
        _mutate_write, _mutate_append, _mutate_rename_file,
        _mutate_set_times, _mutate_write_stream, _mutate_reuse_record,
        _mutate_rename_parent])
    def test_warm_listing_matches_cold_mount(self, disk, mutate):
        clock = SimClock()
        volume = NtfsVolume.format(disk, max_records=4096, clock=clock)
        volume.create_directories("\\d\\sub")
        volume.create_file("\\d\\f", b"abc")
        volume.create_file("\\d\\sub\\leaf", b"x")
        warm = list(volume.walk())
        assert list(volume.walk()) == warm      # served from the cache
        clock.advance(5.0)
        mutate(volume)
        assert list(volume.walk()) == list(NtfsVolume.mount(disk).walk())

    def test_listing_returns_a_new_list_each_call(self, volume):
        volume.create_file("\\f", b"")
        first = volume.list_directory("\\")
        first.clear()
        assert [s.name for s in volume.list_directory("\\")] == ["f"]
