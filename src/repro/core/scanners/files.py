r"""File scanners (Section 2).

* :func:`high_level_file_scan` — a recursive ``FindFirstFile`` /
  ``FindNextFile`` walk (the ``dir /s /b`` equivalent) issued *as a
  process*, so every per-process and kernel interception applies;
* :func:`low_level_file_scan` — a raw parse of the on-disk MFT read
  through the kernel's raw device port (below the API stack, but still
  inside the potentially compromised OS);
* :func:`outside_file_scan` — the same raw parse against the physical
  disk from a clean OS.

Only the first applies Win32 naming rules (kernel32's, on the way up
the API stack): both raw views list every name NTFS holds, so a
naming-exploit file is a finding inside and outside alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence

from repro.core import costmodel
from repro.core.snapshot import FileEntry, ResourceType, ScanSnapshot
from repro.errors import ApiError, RetryExhausted, TransientIoError
from repro.faults import context as faults_context
from repro.faults.plan import SITE_WINAPI_ENUM
from repro.faults.retry import construct_with_retry
from repro.machine import Machine
from repro.ntfs.constants import MFT_RECORD_SIZE
from repro.ntfs.mft_parser import MftParser
from repro.telemetry import context as telemetry_context
from repro.telemetry.metrics import global_metrics
from repro.usermode.process import Process

SCANNER_PROCESS_NAME = "ghostbuster.exe"

_ENUM_ATTEMPTS = 3

# disk.raw_cache key for the disk's last derived file view (a
# _FileView), whichever scan derived it.  Like the MFT namespace cache,
# only the *unfiltered* view is ever stored — reads intercepted by a
# port filter (A3) must never launder their lie into a cache another
# consumer trusts.
_VIEWS_CACHE_KEY = "file-entries"


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
                         order_rng=None,
                         directories: Optional[Sequence[str]] = None
                         ) -> ScanSnapshot:
    """Recursive Win32 enumeration through the full (hookable) API chain.

    ``order_rng`` (a ``random.Random``) shuffles the order subdirectories
    are *descended into* — a defender counter-move that keeps a
    scan-aware hider from tuning its unhide window to a fixed
    alphabetical walk.  The entry set is order-independent, so findings
    are unchanged; ``None`` preserves the exact historical interleaved
    recursion (and its call sequence).

    ``directories`` (the fleet's sampled pass) lists each of those
    directories *non-recursively* instead of walking ``root``: a file
    belongs to exactly one directory stratum, so the cost follows the
    sampled namespace, not the subtree.  ``order_rng`` then shuffles the
    order the strata are listed in.
    """
    scanner = ensure_scanner_process(machine, process)
    entries: List[FileEntry] = []
    recurse = directories is None

    def walk(directory: str) -> None:
        faults_context.maybe_inject(SITE_WINAPI_ENUM, clock=machine.clock,
                                    scope=machine.name)
        handle, stat = scanner.call("kernel32", "FindFirstFile", directory)
        if order_rng is None or not recurse:
            # A fault inside a child walk unwinds through every open
            # ancestor handle; close each on the way out, or a retried
            # walk leaves them in the scanner process for good.
            try:
                while stat is not None:
                    entries.append(FileEntry(stat.path, stat.name,
                                             stat.is_directory, stat.size))
                    if recurse and stat.is_directory:
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
        if recurse:
            walk(root)
            return
        strata = list(directories)
        if order_rng is not None:
            order_rng.shuffle(strata)
        for directory in strata:
            walk(directory)

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


@dataclass(frozen=True)
class _FileView:
    """The FileEntry list and identity index over one namespace.

    ``records`` and ``identities`` run parallel to ``entries`` (record
    slot order), so a patch rebuilds all of them at C speed and makes
    new entries for the re-made records only.  Shared between cloned
    disks through ``raw_cache``: never mutated.
    """

    namespace: int                       # serial of the parse it derives from
    records: List[int]
    identities: List[Hashable]
    entries: List[FileEntry]
    index: Dict[Hashable, FileEntry]     # identity → entry, last one wins


def _derive_view(namespace, base: Optional[_FileView] = None) -> _FileView:
    """Build a view cold, or patch ``base`` (the view of ``namespace``'s
    base) by re-making only the entries of ``namespace.affected``."""
    if base is None:
        records: List[int] = []
        entries: List[FileEntry] = []
        for item in namespace.entries:
            path = item.path
            if path.startswith("\\$Orphan"):
                continue
            records.append(item.record_no)
            entries.append(FileEntry(path, item.name, item.is_directory,
                                     item.size))
        identities = [entry.identity for entry in entries]
        return _FileView(namespace.serial, records, identities, entries,
                         dict(zip(identities, entries)))
    by_record = dict(zip(base.records, base.entries))
    identity_of = dict(zip(base.records, base.identities))
    parsed = namespace.by_record
    for record_no in namespace.affected:
        by_record.pop(record_no, None)
        identity_of.pop(record_no, None)
        item = parsed.get(record_no)
        if item is None or item.path.startswith("\\$Orphan"):
            continue
        entry = FileEntry(item.path, item.name, item.is_directory, item.size)
        by_record[record_no] = entry
        identity_of[record_no] = entry.identity
    records = sorted(by_record)
    entries = list(map(by_record.__getitem__, records))
    identities = list(map(identity_of.__getitem__, records))
    return _FileView(namespace.serial, records, identities, entries,
                     dict(zip(identities, entries)))


def raw_file_view(source, clock=None):
    """One raw MFT parse as ``(parsed count, entries, identity index)``.

    ``source`` is the kernel's disk port (inside the box) or a disk
    (outside).  The entries derive purely from the parsed namespace, so
    the disk keeps one view, the last one derived by any scan, in
    ``disk.raw_cache`` under the serial of the namespace it came from:
    the same namespace hits, and a namespace patched from that one
    patches the view, re-making only the entries of the records the
    patch re-made.  A filtered port or an unbacked source consults and
    stores nothing.  A store only happens if the generation did not
    move during the parse (a chaos fault bumping it mid-read means the
    bytes behind the parse are suspect).
    """
    parse_generation = getattr(source, "generation", None)
    parser = construct_with_retry(
        "mft.bootstrap", lambda: MftParser(source.read_bytes), clock=clock)
    disk = parser.shared_disk
    namespace = parser.namespace()
    view = None if disk is None else disk.raw_cache.get(_VIEWS_CACHE_KEY)
    if view is None or view.namespace != namespace.serial:
        base = view if view is not None \
            and view.namespace == namespace.base else None
        view = _derive_view(namespace, base)
        if disk is not None and disk.generation == parse_generation:
            disk.raw_cache[_VIEWS_CACHE_KEY] = view
    return len(namespace.entries), list(view.entries), view.index


def low_level_file_scan(machine: Machine,
                        directories: Optional[Sequence[str]] = None
                        ) -> ScanSnapshot:
    """Raw MFT parse via the kernel's disk port (inside-the-box truth).

    The port is itself interceptable by sufficiently privileged ghostware
    — the paper's stated limit of the inside-the-box approach.

    ``directories`` keeps only the entries whose parent is one of them —
    the truth for :func:`high_level_file_scan` over the same strata —
    and charges the parse for those entries alone.
    """
    start = machine.clock.now()
    with telemetry_context.current_tracer().span(
            "scan.files.low-level", clock=machine.clock,
            machine=machine.name, view="raw-mft") as span:
        parsed, entries, index = raw_file_view(machine.kernel.disk_port,
                                               machine.clock)
        if directories is not None:
            chosen = {directory.casefold() for directory in directories}
            entries = [entry for entry in entries
                       if (entry.path.rsplit("\\", 1)[0] or "\\"
                           ).casefold() in chosen]
            index = {entry.identity: entry for entry in entries}
            parsed = len(entries)
        # Disk cost follows the in-use MFT footprint (free record slots
        # on a real volume are proportionally rare; our reserved region
        # is not).
        duration = costmodel.charge_low_file_scan(
            machine, parsed, parsed * MFT_RECORD_SIZE)
        span.set(entries=parsed)
    global_metrics().incr("scan.files.enumerated", parsed)
    snapshot = ScanSnapshot(ResourceType.FILE, view="raw-mft",
                            entries=entries, taken_at=start,
                            duration=duration)
    snapshot.adopt_index(index)
    return snapshot


def outside_file_scan(disk, clock=None,
                      view: str = "winpe-raw") -> ScanSnapshot:
    """Scan the physical disk from a clean OS.

    The paper runs the same low-level scanning code outside the box, so
    this is :func:`low_level_file_scan`'s raw view read straight off
    the disk, below any port a ghost could filter.
    """
    start = clock.now() if clock else 0.0
    with telemetry_context.current_tracer().span(
            "scan.files.outside", clock=clock, view=view) as span:
        __, entries, index = raw_file_view(disk, clock)
        span.set(entries=len(entries))
    global_metrics().incr("scan.files.enumerated", len(entries))
    snapshot = ScanSnapshot(ResourceType.FILE, view=view, entries=entries,
                            taken_at=start, duration=0.0)
    snapshot.adopt_index(index)
    return snapshot
