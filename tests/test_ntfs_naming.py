"""Tests for Win32 vs native naming rules."""

import pytest

from repro.errors import InvalidWin32Name
from repro.ntfs import naming
from tests.conftest import win32_ls


class TestPathAlgebra:
    def test_split_root(self):
        assert naming.split_path("\\") == []

    def test_split_nested(self):
        assert naming.split_path("\\a\\b\\c") == ["a", "b", "c"]

    def test_split_requires_root(self):
        with pytest.raises(ValueError):
            naming.split_path("a\\b")

    def test_join_inverse_of_split(self):
        path = "\\Windows\\System32\\ntdll.dll"
        assert naming.join_path(naming.split_path(path)) == path

    def test_join_empty_is_root(self):
        assert naming.join_path([]) == "\\"

    def test_parent_and_name(self):
        assert naming.parent_and_name("\\a\\b\\c") == ("\\a\\b", "c")

    def test_parent_of_top_level(self):
        assert naming.parent_and_name("\\a") == ("\\", "a")

    def test_root_has_no_parent(self):
        with pytest.raises(ValueError):
            naming.parent_and_name("\\")

    def test_basename(self):
        assert naming.basename("\\a\\b.txt") == "b.txt"
        assert naming.basename("\\") == ""

    def test_normalize_key_casefolds(self):
        assert naming.normalize_key("\\WINDOWS") == \
            naming.normalize_key("\\windows")


class TestWin32Components:
    @pytest.mark.parametrize("name", ["file.txt", "a", "spaces are ok",
                                      "dots.in.middle", "UPPER.DLL"])
    def test_valid_names(self, name):
        assert naming.is_valid_win32_component(name)

    @pytest.mark.parametrize("name,why", [
        ("file.", "trailing dot"),
        ("file ", "trailing space"),
        ("CON", "reserved"),
        ("con", "reserved, case-insensitive"),
        ("NUL.txt", "reserved with extension"),
        ("COM7", "reserved"),
        ("LPT9.log", "reserved"),
        ("a<b", "invalid char"),
        ('a"b', "invalid char"),
        ("a|b", "invalid char"),
        ("a\x07b", "control char"),
        ("", "empty"),
        (".", "relative"),
        ("..", "relative"),
        ("x" * 256, "too long"),
    ])
    def test_invalid_names(self, name, why):
        assert not naming.is_valid_win32_component(name), why

    def test_validate_raises_with_reason(self):
        with pytest.raises(InvalidWin32Name, match="trailing"):
            naming.validate_win32_component("bad.")

    def test_violations_lists_all_reasons(self):
        violations = naming.win32_component_violations("CON. ")
        assert len(violations) >= 2


class TestWin32Paths:
    """Whole-path visibility: kernel32's enumeration applies the rules
    above to each listed name and ``MAX_PATH`` to its full path."""

    @staticmethod
    def _listed(machine, directory):
        probe = machine.start_process("\\Windows\\explorer.exe",
                                      name="probe.exe")
        return win32_ls(probe, directory)

    def test_normal_path_visible(self, booted):
        booted.volume.create_file("\\Windows\\notepad.exe", b"MZ")
        assert "notepad.exe" in self._listed(booted, "\\Windows")

    def test_over_max_path_invisible(self, booted):
        deep = "\\" + "\\".join(["d" * 30] * 8)
        booted.volume.create_directories(deep)
        long_file = deep + "\\" + "f" * 20
        assert len(deep) <= naming.MAX_PATH < len(long_file)
        booted.volume.create_file(long_file, b"x", native=True)
        assert "f" * 20 not in self._listed(booted, deep)

    def test_invalid_component_makes_path_invisible(self, booted):
        booted.volume.create_file("\\Temp\\ghost. ", b"", native=True)
        assert "ghost. " not in self._listed(booted, "\\Temp")


class TestNativeComponents:
    def test_trailing_dot_is_native_legal(self):
        assert naming.is_valid_native_component("ghost.")

    def test_reserved_name_is_native_legal(self):
        assert naming.is_valid_native_component("NUL")

    def test_separator_never_legal(self):
        assert not naming.is_valid_native_component("a\\b")

    def test_nul_byte_never_legal(self):
        assert not naming.is_valid_native_component("a\x00b")

    def test_empty_never_legal(self):
        assert not naming.is_valid_native_component("")
