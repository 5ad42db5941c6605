"""Forensic-style raw MFT parser — GhostBuster's low-level file view.

The parser is handed nothing but a ``read_bytes(offset, length)`` callable.
It bootstraps from the boot sector, locates the $MFT via its start cluster,
walks record 0's runlist to bound the MFT region, parses every 1024-byte
FILE record, and reconstructs full paths purely from $FILE_NAME parent
references — never consulting the volume's in-memory namespace.

Two access paths matter:

* **outside-the-box** — called with ``disk.read_bytes`` (ground truth);
* **inside-the-box** — called with the kernel's raw-device port, which an
  *advanced* ghostware strain can intercept (ablation A3).

**One read path.**  Every cold parse reads the whole MFT region in one
request and walks it in place, keying each record by the slot it sits
in (never by the number its own header claims).  A disk, or a kernel
port with no read filters, serves the request as one zero-copy view; a
filtered port or an unbound callable serves it as one ``read_bytes``
call.  Read filters and the disk fault injector therefore act on the
same region request production issues, and ``NtfsVolume.mount`` takes
its records from the same walk.

Performance: the parser parses the MFT region **once** into an indexed
namespace (``normalize_key(path) → ParsedFile`` plus ``slot →
MftRecord``), so ``find_by_path`` / ``read_file_content`` /
``read_stream_content`` are O(1) lookups after the first parse instead
of a full re-parse per call.  When the source is a
:class:`~repro.disk.Disk` or an unfiltered kernel disk port
(:attr:`MftParser.shared_disk`), the parsed namespace is additionally
cached *on the disk* keyed by its write-generation counter, so repeated
scans of an unchanged disk — e.g. one raw ASEP scan per hive file, or a
whole fleet epoch over cloned images — skip the parse entirely.  Any
disk write bumps the generation and forces a fresh raw parse.

A3 interference semantics are preserved: every byte still flows through
the supplied ``read_bytes`` callable, and a port with *any* read filter
installed never consults or populates the shared disk cache (its
filtered view is memoized only within the parser instance, keyed on the
filter set, so installing/removing a filter also forces a re-parse).

**Incremental repair**: when the cached namespace is merely *stale*
(the disk generation advanced), the parser consults the disk's
:class:`~repro.disk.journal.ChangeJournal` before reparsing.  If the
journal proves complete coverage of the generation span, the dirty
sectors are mapped to MFT record slots and only those slots are
re-read; the patched namespace is built copy-on-write (cloned
machines share cached namespaces, so the stale object is never
mutated) at a cost that follows the touched records, and it names the
namespace it was patched from and the records it re-made, so derived
views can be patched the same way.  Journal overflow, a generation
gap (the fault injector's cache-poison bump), a touched boot sector /
record 0, any read or parse error mid-patch, or an installed read
filter all fall back to the cold full parse — incremental results are
identity-identical to cold ones by construction, never best-effort.
"""

from __future__ import annotations

import itertools
import struct
from array import array
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import (CorruptRecord, DiskError, FileNotFound,
                          PermanentCorruption, RetryExhausted,
                          TransientIoError)
from repro.faults import context as faults_context
from repro.faults.plan import SITE_MFT_PARSE
from repro.ntfs import constants as c
from repro.ntfs.naming import normalize_key
from repro.ntfs.records import MftRecord
from repro.telemetry import context as telemetry_context
from repro.telemetry.metrics import global_metrics

ReadBytes = Callable[[int, int], bytes]

# Slot stride of the MFT region viewed as native u32s.
_HEAD_STRIDE = c.MFT_RECORD_SIZE // 4

_MAX_PATH_DEPTH = 4096
_NAMESPACE_CACHE_KEY = "mft-namespace"
# Hard ceiling on believed MFT capacity: a corrupt boot sector or record 0
# must not make the parser loop over billions of phantom slots.
_MAX_CAPACITY = 1 << 20
_PARSE_ATTEMPTS = 3
# Namespace serials: a derived view names the namespace it was built
# from by serial, never by reference (a reference would chain every
# generation's namespace into memory) and never by id() (reusable).
_SERIALS = itertools.count(1)


@dataclass
class _ParsedNamespace:
    """One full raw parse, indexed for O(1) lookups.

    Every map is keyed by record slot.  ``by_record`` and ``children``
    exist for the delta-patch path: ``by_record`` lets a patch replace
    exactly the entries whose record slots were rewritten, and
    ``children`` (parent record → child record numbers, keyed by the
    raw $FILE_NAME parent reference) lets a directory rename cascade
    its new path to every descendant without re-parsing any of their
    records.  ``shared_keys`` holds the keys more than one entry folds
    to (the first in slot order is the one ``by_key`` serves), so a
    patch knows when it may not edit a key.

    A patched namespace names its ``base`` (the serial of the namespace
    it was patched from) and the record slots whose entries it
    re-made (``affected``); every other entry is the base's object.
    Never mutated once built: cloned disks share it.
    """

    records: Dict[int, MftRecord]        # slot → record
    entries: List["ParsedFile"]          # record slot order
    by_key: Dict[str, "ParsedFile"]      # normalize_key(path) → entry
    by_record: Dict[int, "ParsedFile"]   # slot → entry
    children: Dict[int, set]             # parent slot → {slot}
    shared_keys: frozenset = frozenset()
    base: Optional[int] = None
    affected: frozenset = frozenset()
    serial: int = field(default_factory=lambda: next(_SERIALS))


@dataclass(frozen=True, slots=True)
class ParsedFile:
    """One namespace entry reconstructed from raw FILE records."""

    path: str
    name: str
    is_directory: bool
    size: int
    record_no: int
    parent_record: int
    namespace: int
    dos_flags: int
    created: float
    modified: float
    accessed: float
    stream_names: tuple = ()   # named $DATA attributes (ADS)


class MftParser:
    """Parses the on-disk MFT through an arbitrary raw-read callable."""

    def __init__(self, read_bytes: ReadBytes):
        self._read = read_bytes
        self._disk_source, self._port_source = self._resolve_source(
            read_bytes)
        self._namespace: Optional[_ParsedNamespace] = None
        self._namespace_token: Optional[Tuple] = None
        # Pre-resolved counter handles: the revalidation path runs per
        # read_file_content call, so it must not pay a registry lookup.
        registry = global_metrics()
        self._hits = registry.counter_handle("mft.parse.cache_hit")
        self._misses = registry.counter_handle("mft.parse.cache_miss")
        self._patched = registry.counter_handle("journal.records_patched")
        # Records silently skipped during the last namespace build because
        # their bytes were corrupt; the self-healing parse loop rebuilds
        # while a fault plan is active and this is non-zero.
        self.corrupt_skipped = 0
        boot = self._read(0, 512)
        if boot[c.BOOT_MAGIC_OFFSET:c.BOOT_MAGIC_OFFSET + 8] != c.BOOT_MAGIC:
            raise CorruptRecord("not an NTFS boot sector")
        try:
            self.sector_size = struct.unpack_from(
                "<H", boot, c.BOOT_BYTES_PER_SECTOR_OFFSET)[0]
            sectors_per_cluster = boot[c.BOOT_SECTORS_PER_CLUSTER_OFFSET]
            self.cluster_size = self.sector_size * sectors_per_cluster
            self.mft_start_cluster = struct.unpack_from(
                "<Q", boot, c.BOOT_MFT_START_CLUSTER_OFFSET)[0]
            self._boot_record_count = struct.unpack_from(
                "<I", boot, c.BOOT_MFT_RECORD_COUNT_OFFSET)[0]
        except (struct.error, IndexError, ValueError) as exc:
            raise PermanentCorruption(
                f"malformed NTFS boot sector: "
                f"{type(exc).__name__}: {exc}") from exc
        if self.sector_size == 0 or self.cluster_size == 0:
            raise PermanentCorruption(
                "boot sector declares zero-size sectors or clusters")
        self._mft_offset = self.mft_start_cluster * self.cluster_size
        self._capacity = self._bootstrap_capacity()

    def _bootstrap_capacity(self) -> int:
        """Derive MFT capacity from record 0's own $DATA size.

        Falls back to the boot-sector count if record 0 is unreadable —
        a real forensic tool would similarly degrade.  Either source is
        clamped to a sane ceiling so a garbled size field cannot drive a
        near-endless slot walk.
        """
        try:
            record0 = MftRecord.from_bytes(
                self._read(self._mft_offset, c.MFT_RECORD_SIZE))
        except (CorruptRecord, DiskError):
            return self._clamp_capacity(self._boot_record_count)
        if record0.data is None or record0.data.resident:
            return self._clamp_capacity(self._boot_record_count)
        return self._clamp_capacity(
            record0.data.real_size // c.MFT_RECORD_SIZE)

    @staticmethod
    def _clamp_capacity(count: int) -> int:
        return max(0, min(int(count), _MAX_CAPACITY))

    # -- record-level access ---------------------------------------------------

    def mft_capacity(self) -> int:
        """Number of record slots the MFT region reserves."""
        return self._capacity

    def records(self) -> Dict[int, MftRecord]:
        """Every in-use record of the MFT region, keyed by its slot.

        The parser's one record reader: the whole region in one read
        request, walked in place.  A disk, or a port with no read
        filters, serves it as one ``Disk.read_view`` (zero-copy; with a
        fault injector attached the view is routed through
        ``read_bytes``, so the injector draws once for the request).  A
        filtered port or an unbound callable serves it as one
        ``read_bytes`` call, so a filter sees every byte the parse uses.

        Free (all-zero-magic) slots are absent; a nonzero non-FILE magic
        or a body that fails to decode (any :class:`CorruptRecord`)
        counts toward ``corrupt_skipped``, and so do the slots a corrupt
        record 0 claims past the disk's end, which are not read (an
        unbound callable has no known end and is asked for the whole
        region); not-in-use records are dropped.  A record is keyed by
        the slot it sits in, as the delta patch keys its re-reads, so a
        header claiming another slot's number evicts nothing.  Decoded
        afresh on every call: a mounting volume mutates its records.
        """
        slots = self._capacity
        geometry = getattr(self._disk_source, "geometry", None)
        if geometry is not None:
            slots = min(slots, max(0, (geometry.size_bytes - self._mft_offset)
                                   // c.MFT_RECORD_SIZE))
        self.corrupt_skipped = self._capacity - slots
        records: Dict[int, MftRecord] = {}
        if slots == 0:
            return records
        from_buffer = MftRecord.from_buffer
        record_size = c.MFT_RECORD_SIZE
        in_use = c.FLAG_IN_USE
        disk = self.shared_disk
        length = slots * record_size
        view = (disk.read_view(self._mft_offset, length) if disk is not None
                else memoryview(self._read(self._mft_offset, length)))
        try:
            # The slot-magic column as one contiguous buffer (a strided
            # tobytes gather, C speed): live slots are then located with
            # bytes.find and counted with array.count instead of a
            # 65536-iteration Python loop — free slots are the common
            # case and never reach the interpreter.
            heads = view.cast("I")[::_HEAD_STRIDE]
            try:
                packed = heads.tobytes()
            finally:
                heads.release()
            head_values = array("I")
            head_values.frombytes(packed)
            nonzero = len(head_values) - head_values.count(0)
            live = 0
            corrupt = 0
            position = packed.find(c.RECORD_MAGIC)
            while position != -1:
                if position & 3 == 0:     # u32-aligned: a real slot head
                    slot = position >> 2
                    live += 1
                    try:
                        record = from_buffer(view, slot * record_size)
                    except CorruptRecord:
                        corrupt += 1
                    else:
                        if record.flags & in_use:
                            records[slot] = record
                position = packed.find(c.RECORD_MAGIC, position + 1)
        finally:
            try:
                view.release()
            except BufferError:  # a sub-view outlived us; harmless
                pass
        # Nonzero heads that are not FILE magic are skipped slots.
        self.corrupt_skipped += (nonzero - live) + corrupt
        return records

    # -- caching ------------------------------------------------------------------

    @staticmethod
    def _resolve_source(read_bytes: ReadBytes):
        """Identify what the read callable is bound to, by duck typing.

        Returns ``(disk_like, port_like)``: a disk exposes ``generation``
        and ``raw_cache``; a kernel disk port exposes ``disk`` and
        ``read_filters``.  A bare callable (test double, custom wrapper)
        resolves to ``(None, None)`` and gets instance-local memoization
        only.
        """
        owner = getattr(read_bytes, "__self__", None)
        if owner is None:
            return None, None
        if hasattr(owner, "read_filters") and hasattr(owner, "disk"):
            disk = owner.disk
            if hasattr(disk, "generation") and hasattr(disk, "raw_cache"):
                return disk, owner
            return None, owner
        if hasattr(owner, "generation") and hasattr(owner, "raw_cache"):
            return owner, None
        return None, None

    def _cache_token(self) -> Optional[Tuple]:
        """Current validity token, or None when no signal is available.

        The token pairs the disk's write generation with the identity of
        every read filter on the port: a write *or* a filter change
        invalidates the memoized namespace.
        """
        filters = ()
        if self._port_source is not None:
            stack = self._port_source.read_filters
            tokens = getattr(stack, "tokens", None)
            if tokens is not None:
                # Monotonic registration tokens: never reused, unlike
                # id() of a garbage-collected filter object.
                filters = tokens()
            else:
                filters = tuple(id(f) for f in stack)
        if self._disk_source is None:
            return None if self._port_source is None else (None, filters)
        return (self._disk_source.generation, filters)

    @property
    def shared_disk(self):
        """The disk whose ``raw_cache`` this parser may read and fill.

        A disk, or a kernel port with no read filters over one; None for
        a filtered port (an A3 filter's view must never reach another
        reader) and for an unbound callable.  Re-evaluated on every
        access: a filter can be installed after the parser is built.
        """
        port = self._port_source
        if port is not None and port.read_filters:
            return None
        return self._disk_source

    def _ensure_namespace(self) -> _ParsedNamespace:
        """Parse once; revalidate against the source on every access."""
        token = self._cache_token()
        if self._namespace is not None and (token is None
                                            or token == self._namespace_token):
            self._hits.add()
            return self._namespace
        disk = self.shared_disk
        cache_entry = None
        if disk is not None:
            cache_entry = disk.raw_cache.get(_NAMESPACE_CACHE_KEY)
            if cache_entry is not None and cache_entry[0] == token[0]:
                self._namespace, self._namespace_token = cache_entry[1], token
                self._hits.add()
                return cache_entry[1]
        self._misses.add()
        namespace = None
        if cache_entry is not None and cache_entry[0] < token[0]:
            # The cache entry is the only patch base: a shareable
            # parser's own namespace is always one it read from or
            # stored in that entry, so the entry is never older.
            namespace = self._try_patch(cache_entry[1], cache_entry[0],
                                        token[0])
        if namespace is None:
            namespace = self._parse_with_retry(token)
        self._namespace, self._namespace_token = namespace, token
        if disk is not None:
            disk.raw_cache[_NAMESPACE_CACHE_KEY] = (token[0], namespace)
        return namespace

    # -- incremental repair ---------------------------------------------------

    def _try_patch(self, cached: _ParsedNamespace, cached_generation: int,
                   target_generation: int) -> Optional[_ParsedNamespace]:
        """Patch a stale namespace via the change journal; None → reparse.

        Every refusal path increments ``journal.patch_fallback`` except
        the journal's own coverage refusal, which already counted
        ``journal.overflow``.
        """
        journal = getattr(self._disk_source, "journal", None)
        if journal is None:
            return None
        writes = journal.records_since(cached_generation, target_generation)
        if writes is None:
            return None
        dirty = self._dirty_record_numbers(writes)
        if dirty is None:
            global_metrics().incr("journal.patch_fallback")
            return None
        if not dirty:
            # Writes never touched the boot sector or MFT region; the
            # namespace derives from nothing else.
            return cached
        try:
            with telemetry_context.current_tracer().span(
                    "mft.delta_patch", dirty=len(dirty),
                    generations=target_generation - cached_generation):
                namespace = self._patch_namespace(cached, dirty)
        except (DiskError, CorruptRecord, TransientIoError):
            global_metrics().incr("journal.patch_fallback")
            return None
        if self._disk_source.generation != target_generation:
            # A fault injector bumped the generation mid-patch: every
            # byte we just read is suspect.  Reparse cold instead.
            global_metrics().incr("journal.patch_fallback")
            return None
        self._patched.add(len(dirty))
        return namespace

    def _dirty_record_numbers(self, writes) -> Optional[set]:
        """Map journaled sector writes to MFT record slots.

        ``None`` means not patchable: a write touched the boot sector
        (geometry may have changed) or record 0 (the $MFT itself — its
        $DATA size defines capacity).  Writes entirely outside the MFT
        region are data-cluster writes; the namespace caches no cluster
        content (non-resident reads always hit the disk), so they are
        ignored.
        """
        sector_size = self._disk_source.geometry.sector_size
        mft_start = self._mft_offset
        mft_end = mft_start + self._capacity * c.MFT_RECORD_SIZE
        dirty: set = set()
        for write in writes:
            if write.first_sector == 0:
                return None
            byte_start = write.first_sector * sector_size
            byte_end = byte_start + write.sector_count * sector_size
            low = max(byte_start, mft_start)
            high = min(byte_end, mft_end)
            if low >= high:
                continue
            first = (low - mft_start) // c.MFT_RECORD_SIZE
            last = (high - 1 - mft_start) // c.MFT_RECORD_SIZE
            dirty.update(range(first, last + 1))
        if c.RECORD_MFT in dirty:
            return None
        return dirty

    def _read_record_strict(self, record_no: int) -> Optional[MftRecord]:
        """Read one dirty slot for the delta patch; raise, never skip.

        One read per dirty slot: a region read would copy the whole
        region on clones with overlay sectors.  The delta patch must not
        absorb corruption: a slot that fails to parse aborts the whole
        patch, and the cold path — which owns the best-effort /
        self-healing semantics — decides what the namespace really looks
        like.
        """
        blob = self._read(self._mft_offset + record_no * c.MFT_RECORD_SIZE,
                          c.MFT_RECORD_SIZE)
        if blob[0:4] != c.RECORD_MAGIC:
            if any(blob[0:4]):
                raise CorruptRecord(
                    f"patched slot {record_no} is not a FILE record")
            return None
        record = MftRecord.from_bytes(blob)
        return record if record.in_use else None

    def _patch_namespace(self, cached: _ParsedNamespace,
                         dirty: set) -> _ParsedNamespace:
        """Re-read only the dirty slots and splice them into a new index.

        Copy-on-write by contract: cloned machines share cached
        namespaces through ``raw_cache``, so the stale object is never
        mutated.  The new namespace starts from C-speed shallow copies
        of the stale one's maps; only the affected records' entries,
        paths and keys, and the child sets of the parents they left or
        joined, are touched in Python.
        """
        new_records = dict(cached.records)
        children = dict(cached.children)
        owned: set = set()           # parents whose child set is our copy

        def own_kids(parent_no: int) -> set:
            if parent_no not in owned:
                owned.add(parent_no)
                children[parent_no] = set(children.get(parent_no, ()))
            return children[parent_no]

        for record_no in sorted(dirty):
            old = cached.records.get(record_no)
            if old is not None and old.file_name is not None:
                parent_no, __ = c.split_file_reference(
                    old.file_name.parent_reference)
                if parent_no in children:
                    own_kids(parent_no).discard(record_no)
            record = self._read_record_strict(record_no)
            if record is None:
                new_records.pop(record_no, None)
                continue
            new_records[record_no] = record
            if record.file_name is not None:
                parent_no, __ = c.split_file_reference(
                    record.file_name.parent_reference)
                own_kids(parent_no).add(record_no)
        # Affected = dirty slots plus every transitive child: a renamed
        # directory changes the paths of records that were never
        # rewritten.  Moved/new children are dirty in their own right
        # (their $FILE_NAME parent reference lives in their own record).
        affected: set = set()
        stack = list(dirty)
        while stack:
            record_no = stack.pop()
            if record_no in affected:
                continue
            affected.add(record_no)
            stack.extend(children.get(record_no, ()))
        # Every unaffected record keeps its cached path (none of its
        # ancestors is affected, or it would be too).  A parent walk
        # from an affected record stops at its first unaffected
        # ancestor, which is some affected record's parent: seed those.
        stale = cached.by_record
        paths: Dict[int, str] = {c.RECORD_ROOT: "\\"}
        for record_no in affected:
            record = new_records.get(record_no)
            if record is None or record.file_name is None:
                continue
            parent_no, __ = c.split_file_reference(
                record.file_name.parent_reference)
            if parent_no not in affected and parent_no in stale:
                paths[parent_no] = stale[parent_no].path
        path_of = self._path_resolver(new_records, paths)
        by_record = dict(stale)
        for record_no in affected:
            by_record.pop(record_no, None)
        for record_no in sorted(affected):
            record = new_records.get(record_no)
            if record is None:
                continue
            entry = self._make_entry(record_no, record, path_of)
            if entry is not None:
                by_record[record_no] = entry
        entries = list(map(by_record.__getitem__, sorted(by_record)))
        by_key, shared_keys = self._patched_keys(cached, affected, by_record)
        if by_key is None:
            by_key, shared_keys = self._index_keys(entries)
        return _ParsedNamespace(records=new_records, entries=entries,
                                by_key=by_key, by_record=by_record,
                                children=children, shared_keys=shared_keys,
                                base=cached.serial,
                                affected=frozenset(affected))

    @staticmethod
    def _patched_keys(cached: _ParsedNamespace, affected: set,
                      by_record: Dict[int, "ParsedFile"]):
        """``(by_key, shared_keys)`` edited for the affected records only.

        Returns ``(None, None)`` when an edit could change which entry
        wins a key (a key more than one entry folds to, before or after
        the patch); the caller then re-indexes every entry, keeping the
        cold rule that the first record in slot order wins.  Only raw
        record writes can create such keys: the volume's directory
        index refuses case-folded duplicates.
        """
        by_key = dict(cached.by_key)
        for record_no in affected:
            old = cached.by_record.get(record_no)
            if old is not None:
                key = normalize_key(old.path)
                if key in cached.shared_keys:
                    return None, None
                del by_key[key]
        for record_no in affected:
            entry = by_record.get(record_no)
            if entry is not None:
                key = normalize_key(entry.path)
                if key in by_key:
                    return None, None
                by_key[key] = entry
        return by_key, cached.shared_keys

    @staticmethod
    def _index_keys(entries: List["ParsedFile"]):
        """``(by_key, shared_keys)`` over entries in slot order."""
        by_key: Dict[str, ParsedFile] = {}
        shared: set = set()
        for entry in entries:
            key = normalize_key(entry.path)
            # First record in slot order wins, like the linear scan did.
            if by_key.setdefault(key, entry) is not entry:
                shared.add(key)
        return by_key, frozenset(shared)

    def _parse_with_retry(self, token: Optional[Tuple]) -> _ParsedNamespace:
        """Build the namespace, healing injected faults by re-parsing.

        The cache miss was already counted by the caller, so retries do
        not perturb the counters the perf tests pin.  Two healing paths:
        a :class:`TransientIoError` (injected at the ``mft.parse`` site
        or raised by a faulty disk read) retries outright, and a build
        whose region read was damaged is rebuilt *while a fault plan is
        active* — the re-read returns clean bytes.  Damage shows as
        skipped corrupt slots or as a disk generation that moved during
        the build: a torn read zeroes the tail of the region, which then
        reads as free slots, but the fault injector bumps the generation
        on every read it damages.  Without chaos, corruption is genuine
        and the single silent-skip parse stands, preserving the forensic
        best-effort contract.
        """
        namespace: Optional[_ParsedNamespace] = None
        last: Optional[BaseException] = None
        for attempt in range(1, _PARSE_ATTEMPTS + 1):
            generation = getattr(self._disk_source, "generation", None)
            try:
                faults_context.maybe_inject(SITE_MFT_PARSE)
                with telemetry_context.current_tracer().span(
                        "mft.parse", records=self._capacity,
                        filtered=bool(token and token[1])):
                    namespace = self._build_namespace()
            except TransientIoError as exc:
                last = exc
                namespace = None
                global_metrics().incr("faults.retries")
                continue
            damaged = (self.corrupt_skipped or generation
                       != getattr(self._disk_source, "generation", None))
            if (damaged and attempt < _PARSE_ATTEMPTS
                    and faults_context.active_plan() is not None):
                global_metrics().incr("faults.retries")
                continue
            return namespace
        if namespace is not None:
            return namespace
        raise RetryExhausted("mft.parse", _PARSE_ATTEMPTS, last)

    # -- namespace reconstruction ------------------------------------------------

    def parse(self) -> List[ParsedFile]:
        """Rebuild the full namespace from raw records.

        Entries whose parent chain cannot be resolved (orphans of deleted
        directories) are rooted under ``\\$Orphan`` rather than dropped, so
        nothing in-use escapes the low-level view.

        Returns a fresh list per call; the indexed parse behind it is
        memoized (see the module docstring for the invalidation rules).
        """
        return list(self._ensure_namespace().entries)

    def namespace(self) -> _ParsedNamespace:
        """The indexed parse behind :meth:`parse`; shared, never mutate it."""
        return self._ensure_namespace()

    @staticmethod
    def _path_resolver(records: Dict[int, MftRecord],
                       paths: Dict[int, str]) -> Callable[[int], str]:
        """Build a path-of closure over ``records``, memoizing in ``paths``.

        Shared by the cold build (seeded with just the root) and the
        delta patch (seeded with the known paths its walks stop at).
        """

        def path_of(record_no: int) -> str:
            """Resolve by walking the parent chain iteratively.

            Iterative on purpose: a malicious record claiming to be its
            own ancestor must yield :class:`CorruptRecord`, not a
            recursion blowup.
            """
            chain = []
            current = record_no
            seen = set()
            while current not in paths:
                if current in seen or len(chain) > _MAX_PATH_DEPTH:
                    raise CorruptRecord("parent-reference cycle in MFT")
                seen.add(current)
                record = records.get(current)
                if record is None or record.file_name is None:
                    paths[current] = f"\\$Orphan\\#{current}"
                    break
                chain.append(current)
                current, __ = c.split_file_reference(
                    record.file_name.parent_reference)
                if current == chain[-1]:
                    raise CorruptRecord("parent-reference cycle in MFT")
            for pending in reversed(chain):
                if pending in paths:
                    continue
                record = records[pending]
                parent_no, __ = c.split_file_reference(
                    record.file_name.parent_reference)
                parent_path = paths[parent_no]
                base = "" if parent_path == "\\" else parent_path
                paths[pending] = f"{base}\\{record.file_name.name}"
            return paths[record_no]

        return path_of

    @staticmethod
    def _make_entry(record_no: int, record: MftRecord,
                    path_of: Callable[[int], str]) -> Optional[ParsedFile]:
        """Turn one in-use record into a namespace entry (None if not one)."""
        if record_no in (c.RECORD_MFT, c.RECORD_ROOT):
            return None
        if record.file_name is None:
            return None
        parent_no, __ = c.split_file_reference(
            record.file_name.parent_reference)
        info = record.std_info
        return ParsedFile(
            path=path_of(record_no),
            name=record.file_name.name,
            is_directory=record.is_directory,
            size=record.data.real_size if record.data else 0,
            record_no=record_no,
            parent_record=parent_no,
            namespace=record.file_name.namespace,
            dos_flags=info.dos_flags,
            created=info.created_us / 1_000_000,
            modified=info.modified_us / 1_000_000,
            accessed=info.accessed_us / 1_000_000,
            stream_names=tuple(sorted(record.streams)),
        )

    @staticmethod
    def _children_index(records: Dict[int, MftRecord]) -> Dict[int, set]:
        """Parent record number → child record numbers, from $FILE_NAME."""
        children: Dict[int, set] = {}
        for record_no, record in records.items():
            if record.file_name is None:
                continue
            parent_no, __ = c.split_file_reference(
                record.file_name.parent_reference)
            children.setdefault(parent_no, set()).add(record_no)
        return children

    def _build_namespace(self) -> _ParsedNamespace:
        records = self.records()
        paths: Dict[int, str] = {c.RECORD_ROOT: "\\"}
        path_of = self._path_resolver(records, paths)

        out: List[ParsedFile] = []
        by_record: Dict[int, ParsedFile] = {}
        for record_no, record in sorted(records.items()):
            entry = self._make_entry(record_no, record, path_of)
            if entry is None:
                continue
            out.append(entry)
            by_record[record_no] = entry
        by_key, shared_keys = self._index_keys(out)
        return _ParsedNamespace(records=records, entries=out, by_key=by_key,
                                by_record=by_record,
                                children=self._children_index(records),
                                shared_keys=shared_keys)

    def find_by_path(self, path: str) -> ParsedFile:
        """Locate one entry by full path (case-insensitive, O(1))."""
        entry = self._ensure_namespace().by_key.get(normalize_key(path))
        if entry is None:
            raise FileNotFound(path)
        return entry

    # -- content access ------------------------------------------------------------

    def read_file_content(self, path: str) -> bytes:
        """Read file content raw: resident bytes or runlist clusters.

        This is how the low-level registry scan obtains hive-file bytes
        without touching any API layer.
        """
        namespace = self._ensure_namespace()
        entry = namespace.by_key.get(normalize_key(path))
        if entry is None:
            raise FileNotFound(path)
        record = namespace.records.get(entry.record_no)
        if record is None or record.data is None:
            return b""
        return self._data_bytes(record.data)

    def read_stream_content(self, path: str, stream_name: str) -> bytes:
        """Read a named (alternate) data stream raw off the disk."""
        namespace = self._ensure_namespace()
        entry = namespace.by_key.get(normalize_key(path))
        if entry is None:
            raise FileNotFound(path)
        record = namespace.records.get(entry.record_no)
        if record is None or stream_name not in record.streams:
            raise FileNotFound(f"{path}:{stream_name}")
        return self._data_bytes(record.streams[stream_name])

    def _data_bytes(self, data) -> bytes:
        if data.resident:
            return data.content
        blob = bytearray()
        for start, count in data.runs:
            blob += self._read(start * self.cluster_size,
                               count * self.cluster_size)
        return bytes(blob[:data.real_size])


def parse_volume(disk) -> List[ParsedFile]:
    """Convenience: raw-parse a disk's namespace (outside-the-box view)."""
    return MftParser(disk.read_bytes).parse()
