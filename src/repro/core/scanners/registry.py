r"""Registry (ASEP hook) scanners — Section 3.

Two readers feed the same catalog-driven enumerator
(:func:`repro.registry.asep.enumerate_asep_hooks`):

* :class:`Win32ApiReader` — RegEnumKey/RegEnumValue/RegQueryValue calls
  issued as a process, through every hookable layer, with advapi32's
  Win32 string semantics (the lie);
* :class:`RawHiveReader` — reads each hive's backing *file* straight off
  the MFT through the raw disk port and parses the bytes: no registry
  API anywhere in the path, counted-string semantics (the inside truth
  approximation).  :func:`outside_asep_scan` runs the same parse, with
  the same semantics, against the physical disk from the clean OS.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core import costmodel
from repro.core.scanners.files import (_retry_enumeration,
                                       ensure_scanner_process)
from repro.core.snapshot import (RegistryHookEntry, ResourceType,
                                 ScanSnapshot)
from repro.errors import HiveFormatError, TransientIoError
from repro.faults import context as faults_context
from repro.faults.plan import SITE_HIVE_READ, SITE_WINAPI_ENUM
from repro.faults.retry import construct_with_retry
from repro.machine import HIVE_FILES, Machine
from repro.ntfs.mft_parser import MftParser
from repro.registry.asep import (ASEP_CATALOG, AsepHook, ValueView,
                                 enumerate_asep_hooks)
from repro.registry.hive import decode_value
from repro.registry.hive_parser import ParsedKey, parse_hive
from repro.telemetry import context as telemetry_context
from repro.telemetry.metrics import global_metrics
from repro.usermode.process import Process

_HIVE_ATTEMPTS = 3


class Win32ApiReader:
    """ASEP reader over the live Win32 API (through the hook stack)."""

    def __init__(self, machine: Machine, process: Optional[Process] = None):
        self.process = ensure_scanner_process(machine, process)
        self._machine = machine

    def _inject(self) -> None:
        faults_context.maybe_inject(SITE_WINAPI_ENUM,
                                    clock=self._machine.clock,
                                    scope=self._machine.name)

    def key_exists(self, path: str) -> bool:
        self._inject()
        return self.process.call("advapi32", "RegKeyExists", path)

    def enum_subkeys(self, path: str) -> List[str]:
        self._inject()
        return self.process.call("advapi32", "RegEnumKey", path)

    def enum_values(self, path: str) -> List[ValueView]:
        self._inject()
        return self.process.call("advapi32", "RegEnumValue", path)

    def get_value(self, path: str, name: str) -> Optional[ValueView]:
        self._inject()
        return self.process.call("advapi32", "RegQueryValue", path, name)


class _ParsedHiveForest:
    """Navigation over {mount root → ParsedKey}: counted names, data
    decoded to the last byte."""

    def __init__(self, roots: Dict[str, ParsedKey]):
        self._roots = {mount.casefold(): root
                       for mount, root in roots.items()}

    def _find(self, path: str) -> Optional[ParsedKey]:
        folded = path.casefold()
        for mount, root in self._roots.items():
            if folded == mount or folded.startswith(mount + "\\"):
                relative = path[len(mount):].lstrip("\\")
                key = root
                if relative:
                    for component in relative.split("\\"):
                        try:
                            key = key.subkey(component)
                        except Exception:
                            return None
                return key
        return None

    @staticmethod
    def _view(value) -> ValueView:
        return ValueView.of(value.name, value.reg_type,
                            decode_value(value.reg_type, value.raw_data,
                                         win32=False))

    def key_exists(self, path: str) -> bool:
        return self._find(path) is not None

    def enum_subkeys(self, path: str) -> List[str]:
        key = self._find(path)
        return [] if key is None else [child.name for child in key.subkeys]

    def enum_values(self, path: str) -> List[ValueView]:
        key = self._find(path)
        return [] if key is None else [self._view(v) for v in key.values]

    def get_value(self, path: str, name: str) -> Optional[ValueView]:
        key = self._find(path)
        if key is None:
            return None
        wanted = name.casefold()
        for value in key.values:
            if value.name.casefold() == wanted:
                return self._view(value)
        return None


def _parse_hives_via(read_bytes, hive_files: Dict[str, str], clock=None,
                     scope: Optional[str] = None
                     ) -> Tuple[Dict[str, ParsedKey], int, Tuple[str, ...]]:
    """Parse every hive's backing file off one raw parse of the MFT.

    One :class:`MftParser` serves all hive files — its parse-once
    namespace index means the MFT is walked a single time, not once per
    hive — and :func:`parse_hive` is memoized on the blob digest.

    Per-hive recovery: the ``hive.read`` fault site may damage the blob
    in flight (truncation, zeroed windows), which the validating parser
    rejects; the hive is then re-read clean and re-parsed, up to a
    bounded attempt budget.  A hive that stays unreadable is *skipped*,
    never fatal — its mount lands in the returned ``degraded`` tuple so
    the scan can report partial confidence instead of raising.

    Returns ``(mount → root, total hive bytes read, degraded mounts)``.
    """
    parser = construct_with_retry("mft.bootstrap",
                                  lambda: MftParser(read_bytes), clock=clock)
    roots: Dict[str, ParsedKey] = {}
    hive_bytes = 0
    degraded: List[str] = []
    for mount, hive_file in hive_files.items():
        for attempt in range(1, _HIVE_ATTEMPTS + 1):
            try:
                blob = parser.read_file_content(hive_file)
                blob = faults_context.filter_blob(SITE_HIVE_READ, blob,
                                                  scope=scope)
                roots[mount] = parse_hive(blob).root
                hive_bytes += len(blob)
            except (TransientIoError, HiveFormatError):
                if attempt == _HIVE_ATTEMPTS:
                    degraded.append(mount)
                    global_metrics().incr("scan.hive.degraded")
                else:
                    global_metrics().incr("faults.retries")
                continue
            except Exception:
                pass   # missing hive: scan what remains
            break
    return roots, hive_bytes, tuple(degraded)


class RawHiveReader(_ParsedHiveForest):
    """Inside-the-box truth approximation: raw hive files off the MFT."""

    def __init__(self, machine: Machine):
        roots, self.hive_bytes, self.degraded = _parse_hives_via(
            machine.kernel.disk_port.read_bytes, HIVE_FILES,
            clock=machine.clock, scope=machine.name)
        super().__init__(roots)


def _hooks_to_entries(hooks: List[AsepHook]) -> List[RegistryHookEntry]:
    return [RegistryHookEntry(hook.location, hook.key_path, hook.name,
                              hook.data) for hook in hooks]


def high_level_asep_scan(machine: Machine,
                         process: Optional[Process] = None) -> ScanSnapshot:
    """All catalogued ASEP hooks through the Win32 API (the lie)."""
    start = machine.clock.now()
    with telemetry_context.current_tracer().span(
            "scan.registry.high-level", clock=machine.clock,
            machine=machine.name, view="win32-regapi") as span:
        reader = Win32ApiReader(machine, process)
        hooks = _retry_enumeration(
            "scan.registry.high-level",
            lambda: enumerate_asep_hooks(reader, ASEP_CATALOG))
        duration = costmodel.charge_asep_scan(machine, len(hooks))
        span.set(hooks=len(hooks))
    global_metrics().incr("scan.asep.enumerated", len(hooks))
    return ScanSnapshot(ResourceType.REGISTRY, view="win32-regapi",
                        entries=_hooks_to_entries(hooks), taken_at=start,
                        duration=duration)


def low_level_asep_scan(machine: Machine) -> ScanSnapshot:
    """All catalogued ASEP hooks from raw hive bytes (the truth approx)."""
    start = machine.clock.now()
    with telemetry_context.current_tracer().span(
            "scan.registry.low-level", clock=machine.clock,
            machine=machine.name, view="raw-hive") as span:
        reader = RawHiveReader(machine)
        hooks = enumerate_asep_hooks(reader, ASEP_CATALOG)
        duration = costmodel.charge_asep_scan(machine, len(hooks),
                                              hive_bytes=reader.hive_bytes)
        span.set(hooks=len(hooks), hive_bytes=reader.hive_bytes)
    global_metrics().incr("scan.asep.enumerated", len(hooks))
    snapshot = ScanSnapshot(ResourceType.REGISTRY, view="raw-hive",
                            entries=_hooks_to_entries(hooks), taken_at=start,
                            duration=duration)
    if reader.degraded:
        snapshot.degraded = reader.degraded
    return snapshot


def outside_asep_scan(disk, clock=None) -> ScanSnapshot:
    """ASEP hooks from the hive files on the physical disk, parsed from
    a clean OS with the inside truth's counted-string semantics."""
    start = clock.now() if clock else 0.0
    view = "winpe-rawhive"
    with telemetry_context.current_tracer().span(
            "scan.registry.outside", clock=clock, view=view) as span:
        roots, __, degraded = _parse_hives_via(disk.read_bytes, HIVE_FILES,
                                               clock=clock)
        hooks = enumerate_asep_hooks(_ParsedHiveForest(roots), ASEP_CATALOG)
        span.set(hooks=len(hooks))
    global_metrics().incr("scan.asep.enumerated", len(hooks))
    snapshot = ScanSnapshot(ResourceType.REGISTRY, view=view,
                            entries=_hooks_to_entries(hooks), taken_at=start,
                            duration=0.0)
    if degraded:
        snapshot.degraded = degraded
    return snapshot
