r"""File scanners (Section 2).

* :func:`high_level_file_scan` — a recursive ``FindFirstFile`` /
  ``FindNextFile`` walk (the ``dir /s /b`` equivalent) issued *as a
  process*, so every per-process and kernel interception applies;
* :func:`low_level_file_scan` — a raw parse of the on-disk MFT read
  through the kernel's raw device port (below the API stack, but still
  inside the potentially compromised OS);
* :func:`outside_file_scan` — the same raw parse against the physical
  disk from a clean OS, in either raw or Win32-naming mode.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core import costmodel
from repro.core.snapshot import FileEntry, ResourceType, ScanSnapshot
from repro.errors import ApiError, RetryExhausted, TransientIoError
from repro.faults import context as faults_context
from repro.faults.plan import SITE_WINAPI_ENUM
from repro.faults.retry import construct_with_retry
from repro.machine import Machine
from repro.ntfs import naming
from repro.ntfs.constants import MFT_RECORD_SIZE
from repro.ntfs.mft_parser import MftParser, ParsedFile
from repro.telemetry import context as telemetry_context
from repro.telemetry.metrics import global_metrics
from repro.usermode.process import Process

SCANNER_PROCESS_NAME = "ghostbuster.exe"

_ENUM_ATTEMPTS = 3

# disk.raw_cache key for derived FileEntry lists + identity indexes:
# (generation, {flavor: (entries_tuple, identity_index)}).  Like the MFT
# namespace cache, only the *unfiltered* view is ever stored — reads
# intercepted by a port filter (A3) must never launder their lie into a
# cache another consumer trusts.
_ENTRIES_CACHE_KEY = "file-entries"


def _retry_enumeration(operation: str, run, attempts: int = _ENUM_ATTEMPTS):
    """Re-run an idempotent enumeration walk when chaos interrupts it.

    Transient I/O faults always retry; an :class:`ApiError` (a spurious
    ``STATUS_*`` from the ``winapi.enum`` site) retries only while a
    fault plan is active, so genuine API failures keep their original
    fail-fast contract.
    """
    last = None
    for attempt in range(1, attempts + 1):
        try:
            return run()
        except TransientIoError as exc:
            last = exc
        except ApiError as exc:
            if faults_context.active_plan() is None:
                raise
            last = exc
        global_metrics().incr("faults.retries")
    raise RetryExhausted(operation, attempts, last)


def ensure_scanner_process(machine: Machine,
                           process: Optional[Process] = None,
                           name: str = SCANNER_PROCESS_NAME) -> Process:
    """The scanning process (GhostBuster's own, unless one is supplied)."""
    if process is not None:
        return process
    existing = machine.process_by_name(name)
    if existing is not None:
        return existing
    return machine.start_process("\\Windows\\explorer.exe", name=name)


def high_level_file_scan(machine: Machine,
                         process: Optional[Process] = None,
                         root: str = "\\",
                         order_rng=None) -> ScanSnapshot:
    """Recursive Win32 enumeration through the full (hookable) API chain.

    ``order_rng`` (a ``random.Random``) shuffles the order subdirectories
    are *descended into* — a defender counter-move that keeps a
    scan-aware hider from tuning its unhide window to a fixed
    alphabetical walk.  The entry set is order-independent, so findings
    are unchanged; ``None`` preserves the exact historical interleaved
    recursion (and its call sequence).
    """
    scanner = ensure_scanner_process(machine, process)
    entries: List[FileEntry] = []

    def walk(directory: str) -> None:
        faults_context.maybe_inject(SITE_WINAPI_ENUM, clock=machine.clock,
                                    scope=machine.name)
        handle, stat = scanner.call("kernel32", "FindFirstFile", directory)
        if order_rng is None:
            # A fault inside a child walk unwinds through every open
            # ancestor handle; close each on the way out, or a retried
            # walk leaves them in the scanner process for good.
            try:
                while stat is not None:
                    entries.append(FileEntry(stat.path, stat.name,
                                             stat.is_directory, stat.size))
                    if stat.is_directory:
                        walk(stat.path)
                    stat = scanner.call("kernel32", "FindNextFile", handle)
            finally:
                scanner.call("kernel32", "FindClose", handle)
            return
        subdirs: List[str] = []
        while stat is not None:
            entries.append(FileEntry(stat.path, stat.name,
                                     stat.is_directory, stat.size))
            if stat.is_directory:
                subdirs.append(stat.path)
            stat = scanner.call("kernel32", "FindNextFile", handle)
        scanner.call("kernel32", "FindClose", handle)
        order_rng.shuffle(subdirs)
        for path in subdirs:
            walk(path)

    def run() -> None:
        # The walk is idempotent, so recovery re-runs it whole rather
        # than resuming a half-enumerated tree mid-interruption.
        entries.clear()
        walk(root)

    start = machine.clock.now()
    with telemetry_context.current_tracer().span(
            "scan.files.high-level", clock=machine.clock,
            machine=machine.name, view="win32-api") as span:
        _retry_enumeration("scan.files.high-level", run)
        duration = costmodel.charge_high_file_scan(machine, len(entries))
        span.set(entries=len(entries))
    global_metrics().incr("scan.files.enumerated", len(entries))
    return ScanSnapshot(ResourceType.FILE, view="win32-api",
                        entries=entries, taken_at=start, duration=duration)


def _entries_from_parsed(parsed: List[ParsedFile],
                         win32_naming: bool = False) -> List[FileEntry]:
    entries = []
    for item in parsed:
        if item.path.startswith("\\$Orphan"):
            continue
        if win32_naming and not naming.is_win32_visible_path(item.path):
            continue
        entries.append(FileEntry(item.path, item.name, item.is_directory,
                                 item.size))
    return entries


def _cacheable_disk(disk):
    """The disk, iff it can host shared derived-view cache entries."""
    if disk is not None and hasattr(disk, "generation") \
            and hasattr(disk, "raw_cache"):
        return disk
    return None


def _snapshot_entries(disk, parsed: List[ParsedFile], win32_naming: bool,
                      parse_generation):
    """Entries + identity index, shared per (disk, generation, flavor).

    A fleet sweep re-scans unchanged (often cloned) disks constantly; the
    FileEntry list and its identity index derive purely from the parsed
    namespace, so they are cached beside it in ``disk.raw_cache``.
    ``disk`` is None when the read path is filtered or unbacked — then
    nothing is consulted or stored.  A store only happens if the
    generation did not move during the parse (a chaos fault bumping it
    mid-read means the bytes behind ``parsed`` are suspect).
    """
    flavor = "win32" if win32_naming else "raw"
    if disk is not None:
        cached = disk.raw_cache.get(_ENTRIES_CACHE_KEY)
        if cached is not None and cached[0] == disk.generation:
            hit = cached[1].get(flavor)
            if hit is not None:
                return list(hit[0]), hit[1]
    entries = _entries_from_parsed(parsed, win32_naming=win32_naming)
    index = {entry.identity: entry for entry in entries}
    if disk is not None and disk.generation == parse_generation:
        cached = disk.raw_cache.get(_ENTRIES_CACHE_KEY)
        if cached is None or cached[0] != parse_generation:
            cached = (parse_generation, {})
            disk.raw_cache[_ENTRIES_CACHE_KEY] = cached
        cached[1][flavor] = (tuple(entries), index)
    return entries, index


def low_level_file_scan(machine: Machine) -> ScanSnapshot:
    """Raw MFT parse via the kernel's disk port (inside-the-box truth).

    The port is itself interceptable by sufficiently privileged ghostware
    — the paper's stated limit of the inside-the-box approach.
    """
    start = machine.clock.now()
    with telemetry_context.current_tracer().span(
            "scan.files.low-level", clock=machine.clock,
            machine=machine.name, view="raw-mft") as span:
        port = machine.kernel.disk_port
        cache_disk = None if port.read_filters \
            else _cacheable_disk(getattr(port, "disk", None))
        parse_generation = getattr(cache_disk, "generation", None)
        parser = construct_with_retry(
            "mft.bootstrap", lambda: MftParser(port.read_bytes),
            clock=machine.clock)
        parsed = parser.parse()
        entries, index = _snapshot_entries(cache_disk, parsed,
                                           win32_naming=False,
                                           parse_generation=parse_generation)
        # Disk cost follows the in-use MFT footprint (free record slots
        # on a real volume are proportionally rare; our reserved region
        # is not).
        duration = costmodel.charge_low_file_scan(
            machine, len(parsed), len(parsed) * MFT_RECORD_SIZE)
        span.set(entries=len(parsed))
    global_metrics().incr("scan.files.enumerated", len(parsed))
    snapshot = ScanSnapshot(ResourceType.FILE, view="raw-mft",
                            entries=entries, taken_at=start,
                            duration=duration)
    snapshot.adopt_index(index)
    return snapshot


def outside_file_scan(disk, clock=None, win32_naming: bool = True,
                      view: str = "winpe-outside") -> ScanSnapshot:
    """Scan the physical disk from a clean OS.

    ``win32_naming=True`` models scanning the mounted drive with Win32
    tools (``dir /s /b`` from the WinPE prompt); ``False`` models running
    the low-level scanning code outside, which additionally exposes the
    naming-exploit ghosts.
    """
    start = clock.now() if clock else 0.0
    with telemetry_context.current_tracer().span(
            "scan.files.outside", clock=clock, view=view) as span:
        cache_disk = _cacheable_disk(disk)
        parse_generation = getattr(cache_disk, "generation", None)
        parser = construct_with_retry(
            "mft.bootstrap", lambda: MftParser(disk.read_bytes), clock=clock)
        parsed = parser.parse()
        entries, index = _snapshot_entries(cache_disk, parsed,
                                           win32_naming=win32_naming,
                                           parse_generation=parse_generation)
        span.set(entries=len(entries))
    global_metrics().incr("scan.files.enumerated", len(entries))
    snapshot = ScanSnapshot(ResourceType.FILE, view=view, entries=entries,
                            taken_at=start, duration=0.0)
    snapshot.adopt_index(index)
    return snapshot
