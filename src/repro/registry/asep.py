r"""Auto-Start Extensibility Point (ASEP) catalog.

Section 3 of the paper scans "all ASEP hooks" rather than the whole
registry: ASEPs are the keys malware must hook to survive a reboot, so
hiding them is where registry-hiding ghostware concentrates.  This module
is the catalog of ASEP locations plus a kind-aware hook enumerator.

The enumerator is deliberately written against a *reader protocol* (four
duck-typed methods) so the exact same logic runs over:

* the Win32 API view (through the hookable Advapi32→NtDll chain),
* the raw-hive-parse view (low-level truth approximation), and
* the WinPE outside-the-box view.

Whatever differs between those runs is a hidden hook.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, List, Optional, Protocol, Tuple


class AsepKind(enum.Enum):
    """How hooks are represented at one ASEP location."""

    SERVICE_TREE = "service_tree"    # each subkey is a service/driver hook
    VALUE_LIST = "value_list"        # each value is a hook (Run keys)
    NAMED_VALUE = "named_value"      # one specific value holds a DLL list
    SUBKEY_LIST = "subkey_list"      # each subkey is a hook (BHOs, Notify)


@dataclass(frozen=True)
class AsepLocation:
    """One catalogued ASEP."""

    ident: str
    key_path: str
    kind: AsepKind
    description: str
    value_name: Optional[str] = None      # for NAMED_VALUE
    payload_value: Optional[str] = None   # value naming the hooked binary


ASEP_CATALOG: Tuple[AsepLocation, ...] = (
    AsepLocation(
        ident="services",
        key_path="HKLM\\SYSTEM\\CurrentControlSet\\Services",
        kind=AsepKind.SERVICE_TREE,
        description="auto-starting services and drivers",
        payload_value="ImagePath"),
    AsepLocation(
        ident="run",
        key_path="HKLM\\SOFTWARE\\Microsoft\\Windows\\CurrentVersion\\Run",
        kind=AsepKind.VALUE_LIST,
        description="per-machine auto-run processes"),
    AsepLocation(
        ident="runonce",
        key_path="HKLM\\SOFTWARE\\Microsoft\\Windows\\CurrentVersion\\RunOnce",
        kind=AsepKind.VALUE_LIST,
        description="one-shot auto-run processes"),
    AsepLocation(
        ident="appinit_dlls",
        key_path=("HKLM\\SOFTWARE\\Microsoft\\Windows NT\\CurrentVersion"
                  "\\Windows"),
        kind=AsepKind.NAMED_VALUE,
        description="DLLs loaded into every process that loads User32.dll",
        value_name="AppInit_DLLs"),
    AsepLocation(
        ident="browser_helper_objects",
        key_path=("HKLM\\SOFTWARE\\Microsoft\\Windows\\CurrentVersion"
                  "\\Explorer\\Browser Helper Objects"),
        kind=AsepKind.SUBKEY_LIST,
        description="DLLs auto-loaded into Internet Explorer",
        payload_value="DllName"),
    AsepLocation(
        ident="winlogon_notify",
        key_path=("HKLM\\SOFTWARE\\Microsoft\\Windows NT\\CurrentVersion"
                  "\\Winlogon\\Notify"),
        kind=AsepKind.SUBKEY_LIST,
        description="Winlogon event notification DLLs",
        payload_value="DllName"),
    AsepLocation(
        ident="shell_service_objects",
        key_path=("HKLM\\SOFTWARE\\Microsoft\\Windows\\CurrentVersion"
                  "\\ShellServiceObjectDelayLoad"),
        kind=AsepKind.VALUE_LIST,
        description="shell delay-load service objects"),
    AsepLocation(
        ident="user_run",
        key_path=("HKU\\.DEFAULT\\Software\\Microsoft\\Windows"
                  "\\CurrentVersion\\Run"),
        kind=AsepKind.VALUE_LIST,
        description="per-user auto-run processes"),
)


@dataclass(frozen=True)
class ValueView:
    """A (name, type, displayable data) triple from some registry view."""

    name: str
    reg_type: int
    data: str

    @classmethod
    def of(cls, name: str, reg_type: int, data) -> "ValueView":
        """A view of decoded ``data``: bytes as hex, lists ';'-joined."""
        if isinstance(data, bytes):
            shown = data.hex()
        elif isinstance(data, list):
            shown = ";".join(str(item) for item in data)
        else:
            shown = str(data)
        return cls(name, int(reg_type), shown)


class RegistryReader(Protocol):
    """The minimal read surface the ASEP enumerator needs."""

    def key_exists(self, path: str) -> bool: ...

    def enum_subkeys(self, path: str) -> List[str]: ...

    def enum_values(self, path: str) -> List[ValueView]: ...

    def get_value(self, path: str, name: str) -> Optional[ValueView]: ...


@dataclass(frozen=True)
class AsepHook:
    """One auto-start hook as seen from a particular view."""

    location: str     # AsepLocation.ident
    key_path: str
    name: str         # subkey name, value name, or DLL entry
    data: str         # the hooked binary / command line

    @property
    def identity(self) -> Tuple[str, str, str, str]:
        """Comparable identity used by the cross-view diff."""
        return (self.location, self.key_path.casefold(),
                self.name.casefold(), self.data.casefold())

    def describe(self) -> str:
        target = f" → {self.data}" if self.data else ""
        return f"{self.key_path}\\{self.name}{target}"


def _split_dll_list(data: str) -> List[str]:
    """AppInit_DLLs holds space- or comma-separated DLL paths."""
    out = []
    for chunk in data.replace(",", " ").split(" "):
        chunk = chunk.strip()
        if chunk:
            out.append(chunk)
    return out


def enumerate_asep_hooks(reader: RegistryReader,
                         catalog: Iterable[AsepLocation] = ASEP_CATALOG
                         ) -> List[AsepHook]:
    """Enumerate every hook at every catalogued ASEP through ``reader``."""
    hooks: List[AsepHook] = []
    for location in catalog:
        if not reader.key_exists(location.key_path):
            continue
        if location.kind == AsepKind.SERVICE_TREE:
            hooks.extend(_service_hooks(reader, location))
        elif location.kind == AsepKind.VALUE_LIST:
            for value in reader.enum_values(location.key_path):
                hooks.append(AsepHook(location.ident, location.key_path,
                                      value.name, value.data))
        elif location.kind == AsepKind.NAMED_VALUE:
            assert location.value_name is not None
            value = reader.get_value(location.key_path, location.value_name)
            if value is not None:
                for dll in _split_dll_list(value.data):
                    hooks.append(AsepHook(location.ident, location.key_path,
                                          location.value_name, dll))
        elif location.kind == AsepKind.SUBKEY_LIST:
            hooks.extend(_subkey_hooks(reader, location))
    return hooks


def _service_hooks(reader: RegistryReader,
                   location: AsepLocation) -> List[AsepHook]:
    hooks = []
    for service_name in reader.enum_subkeys(location.key_path):
        service_key = f"{location.key_path}\\{service_name}"
        image = reader.get_value(service_key, location.payload_value or
                                 "ImagePath")
        hooks.append(AsepHook(location.ident, location.key_path,
                              service_name, image.data if image else ""))
    return hooks


def _subkey_hooks(reader: RegistryReader,
                  location: AsepLocation) -> List[AsepHook]:
    hooks = []
    for subkey_name in reader.enum_subkeys(location.key_path):
        subkey_path = f"{location.key_path}\\{subkey_name}"
        payload = ""
        if location.payload_value:
            value = reader.get_value(subkey_path, location.payload_value)
            if value is not None:
                payload = value.data
        hooks.append(AsepHook(location.ident, location.key_path,
                              subkey_name, payload))
    return hooks
