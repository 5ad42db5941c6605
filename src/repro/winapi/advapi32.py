"""Advapi32 — the Win32 registry API layer.

Forwards to NtDll (``process.call``), then applies Win32 string semantics:

* names are treated as NUL-terminated — a counted name with an embedded
  NUL is *truncated* at the first NUL (so the real entry is unfindable);
* names longer than 255 characters are skipped outright, reproducing the
  Registry-editor bug the paper lists as a hiding vector;
* value data is decoded NUL-terminated, so trailing garbage after the
  terminator (the corrupted ``AppInit_DLLs`` case) is invisible here but
  present in the raw-hive view.

Urbin and Mersting IAT-hook ``RegEnumValue`` at this level.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.registry.asep import ValueView
from repro.winapi.hooks import ApiImpl

_MAX_NAME = 255


def _win32_name(name: str) -> Optional[str]:
    """Apply Win32 name semantics; None means the entry is skipped."""
    truncated = name.split("\x00")[0]
    if len(truncated) > _MAX_NAME:
        return None
    return truncated


def reg_enum_key(process, key_path: str) -> List[str]:
    """Subkey names as Win32 sees them."""
    names = process.call("ntdll", "NtEnumerateKey", key_path)
    out: List[str] = []
    for name in names:
        win32 = _win32_name(name)
        if win32 is not None:
            out.append(win32)
    return out


def reg_enum_value(process, key_path: str) -> List[ValueView]:
    """Values as Win32 sees them: truncated names, NUL-terminated data."""
    values = process.call("ntdll", "NtEnumerateValueKey", key_path)
    out: List[ValueView] = []
    for value in values:
        win32 = _win32_name(value.name)
        if win32 is None:
            continue
        out.append(ValueView.of(win32, value.reg_type, value.win32_data()))
    return out


def reg_query_value(process, key_path: str, name: str) -> Optional[ValueView]:
    """Win32 RegQueryValueEx: one value, Win32 string semantics."""
    value = process.call("ntdll", "NtQueryValueKey", key_path, name)
    if value is None:
        return None
    win32 = _win32_name(value.name)
    if win32 is None:
        return None
    return ValueView.of(win32, value.reg_type, value.win32_data())


def reg_key_exists(process, key_path: str) -> bool:
    """RegOpenKey-style existence probe."""
    return process.call("ntdll", "NtOpenKey", key_path)


def reg_create_key(process, key_path: str):
    """Win32 RegCreateKey."""
    return process.call("ntdll", "NtCreateKey", key_path)


def reg_delete_key(process, key_path: str) -> None:
    """Win32 RegDeleteKey."""
    process.call("ntdll", "NtDeleteKey", key_path)


def reg_set_value(process, key_path: str, name: str, data,
                  reg_type=None) -> None:
    """Win32 RegSetValueEx."""
    process.call("ntdll", "NtSetValueKey", key_path, name, data, reg_type)


def reg_delete_value(process, key_path: str, name: str) -> None:
    """Win32 RegDeleteValue."""
    process.call("ntdll", "NtDeleteValueKey", key_path, name)


EXPORTS: Dict[str, ApiImpl] = {
    "RegEnumKey": reg_enum_key,
    "RegEnumValue": reg_enum_value,
    "RegQueryValue": reg_query_value,
    "RegKeyExists": reg_key_exists,
    "RegCreateKey": reg_create_key,
    "RegDeleteKey": reg_delete_key,
    "RegSetValue": reg_set_value,
    "RegDeleteValue": reg_delete_value,
}
