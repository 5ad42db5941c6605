r"""The simulated NTFS volume.

:class:`NtfsVolume` formats a :class:`~repro.disk.Disk` and provides the
filesystem operations the rest of the simulation builds on.  Every mutation
is immediately serialized to the disk as 1024-byte FILE records (plus data
clusters for non-resident content), so the on-disk bytes are always a
complete, independently parseable image of the namespace.

The volume itself enforces only *native* (NT-level) naming rules; Win32
restrictions are enforced higher up, by the Win32 API layer, unless a caller
explicitly creates paths with ``native=True`` semantics.  That split is what
lets the "naming exploit" ghostware create files the Win32 view cannot see.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.clock import SimClock
from repro.disk import Disk
from repro.errors import (DirectoryNotEmpty, FileExists, FileNotFound,
                          NotADirectory, VolumeError)
from repro.ntfs import constants as c
from repro.ntfs import naming
from repro.ntfs.index import DirectoryIndex
from repro.ntfs.records import (DataAttribute, FileName, MftRecord,
                                StandardInformation)

MFT_START_CLUSTER = 4
DEFAULT_MAX_RECORDS = 65536


@dataclass(frozen=True)
class FileStat:
    """Metadata snapshot for one file or directory."""

    path: str
    name: str
    is_directory: bool
    size: int
    created: float
    modified: float
    accessed: float
    dos_flags: int
    record_no: int
    namespace: int


class NtfsVolume:
    """Filesystem facade over a virtual disk.

    Use :meth:`format` to create a fresh volume, or :meth:`mount` to attach
    to a disk previously formatted (in-memory caches are rebuilt from the
    on-disk MFT, proving the serialization round-trips).
    """

    def __init__(self, disk: Disk, max_records: int,
                 clock: Optional[SimClock] = None):
        self.disk = disk
        self.clock = clock or SimClock()
        self.max_records = max_records
        self.cluster_size = disk.geometry.sector_size * c.SECTORS_PER_CLUSTER
        self.mft_offset = MFT_START_CLUSTER * self.cluster_size
        mft_bytes = max_records * c.MFT_RECORD_SIZE
        self._data_start_cluster = MFT_START_CLUSTER + (
            (mft_bytes + self.cluster_size - 1) // self.cluster_size)
        self._records: Dict[int, MftRecord] = {}
        self._children: Dict[int, DirectoryIndex] = {}
        self._parents: Dict[int, int] = {}
        self._free_records: List[int] = []
        self._next_record = c.FIRST_USER_RECORD
        self._free_clusters: List[int] = []
        self._next_cluster = self._data_start_cluster
        # FileStat of every record list_directory has returned, dropped
        # by _flush — every record write goes through it.
        self._stats: Dict[int, FileStat] = {}

    # -- construction -------------------------------------------------------

    @classmethod
    def format(cls, disk: Disk, max_records: int = DEFAULT_MAX_RECORDS,
               clock: Optional[SimClock] = None) -> "NtfsVolume":
        """Write a boot sector, the $MFT record, and the root directory."""
        volume = cls(disk, max_records, clock)
        volume._write_boot_sector()

        mft_region_clusters = volume._data_start_cluster - MFT_START_CLUSTER
        mft_record = MftRecord(
            record_no=c.RECORD_MFT,
            flags=c.FLAG_IN_USE,
            file_name=FileName(parent_reference=c.make_file_reference(
                c.RECORD_ROOT, 1), name="$MFT"),
            data=DataAttribute.make_nonresident(
                [(MFT_START_CLUSTER, mft_region_clusters)],
                real_size=max_records * c.MFT_RECORD_SIZE),
        )
        volume._install_record(mft_record)

        now_us = volume._now_us()
        root = MftRecord(
            record_no=c.RECORD_ROOT,
            flags=c.FLAG_IN_USE | c.FLAG_DIRECTORY,
            std_info=StandardInformation(now_us, now_us, now_us),
            file_name=FileName(parent_reference=c.make_file_reference(
                c.RECORD_ROOT, 1), name="."),
        )
        volume._install_record(root)
        volume._children[c.RECORD_ROOT] = DirectoryIndex()
        return volume

    @classmethod
    def mount(cls, disk: Disk, clock: Optional[SimClock] = None) -> "NtfsVolume":
        """Rebuild a volume object from a previously formatted disk.

        This is how a clean OS (WinPE) attaches the suspect drive: the
        namespace is reconstructed purely from the on-disk MFT bytes,
        through the raw parser's one region walk.  Records are keyed by
        the slot they sit in; a header claiming another slot's number is
        rewritten to its slot when the volume next flushes the record.
        Two in-use records naming one entry (a raw write can make them)
        resolve as the raw parser's key index does: the first in slot
        order holds the name, and the later one stays in use on disk but
        out of the API namespace.
        """
        from repro.ntfs.mft_parser import MftParser  # cycle-free at runtime

        parser = MftParser(disk.read_bytes)
        max_records = parser.mft_capacity()
        volume = cls(disk, max_records, clock)
        highest_cluster = volume._data_start_cluster - 1
        for slot, record in parser.records().items():
            record.record_no = slot
            volume._records[slot] = record
            if slot >= c.FIRST_USER_RECORD:
                volume._next_record = max(volume._next_record, slot + 1)
            if record.is_directory:
                volume._children.setdefault(slot, DirectoryIndex())
            if record.data is not None and not record.data.resident:
                for start, count in record.data.runs:
                    highest_cluster = max(highest_cluster, start + count - 1)
        for slot, record in volume._records.items():
            if slot in (c.RECORD_MFT, c.RECORD_ROOT):
                continue
            if record.file_name is None:
                continue
            parent_no, __ = c.split_file_reference(
                record.file_name.parent_reference)
            try:
                volume._children.setdefault(
                    parent_no, DirectoryIndex()).add(record.file_name.name,
                                                     slot)
            except FileExists:
                continue
            volume._parents[slot] = parent_no
        volume._next_cluster = highest_cluster + 1
        return volume

    # -- public filesystem operations ----------------------------------------

    @property
    def generation(self) -> int:
        """Monotonic mutation counter for this volume's backing bytes.

        Every volume mutation is serialized to the disk immediately, so
        the disk's write generation is the single source of truth; cached
        derived views (the raw-parsed namespace, for example) key on it.
        """
        return self.disk.generation

    def exists(self, path: str) -> bool:
        return self._resolve(path) is not None

    def is_directory(self, path: str) -> bool:
        record_no = self._resolve(path)
        if record_no is None:
            raise FileNotFound(path)
        return self._records[record_no].is_directory

    def create_directory(self, path: str, native: bool = False) -> FileStat:
        """Create one directory (parent must already exist)."""
        return self._create(path, directory=True, content=b"",
                            native=native, dos_flags=0)

    def create_directories(self, path: str, native: bool = False) -> None:
        """mkdir -p: create every missing ancestor."""
        components = naming.split_path(path)
        for depth in range(1, len(components) + 1):
            prefix = naming.join_path(components[:depth])
            if not self.exists(prefix):
                self.create_directory(prefix, native=native)

    def create_file(self, path: str, content: bytes = b"",
                    native: bool = False, dos_flags: int = 0) -> FileStat:
        """Create a regular file with initial content."""
        return self._create(path, directory=False, content=content,
                            native=native, dos_flags=dos_flags)

    def write_file(self, path: str, content: bytes) -> None:
        """Replace a file's content (creating data clusters as needed)."""
        record = self._require_file(path)
        self._free_data(record)
        record.data = self._build_data(content)
        record.std_info.modified_us = self._now_us()
        self._flush(record)

    def append_file(self, path: str, data: bytes) -> None:
        """Append to a file (used by the background/FP-noise services)."""
        existing = self.read_file(path)
        self.write_file(path, existing + data)

    def read_file(self, path: str) -> bytes:
        """Read a file's full content through the volume (not raw disk)."""
        record = self._require_file(path)
        return self._read_data(record)

    def delete_file(self, path: str) -> None:
        """Delete a regular file; frees its record and clusters."""
        record_no = self._resolve(path)
        if record_no is None:
            raise FileNotFound(path)
        record = self._records[record_no]
        if record.is_directory:
            raise VolumeError(f"{path} is a directory; use delete_directory")
        self._unlink(record_no)

    def delete_directory(self, path: str, recursive: bool = False) -> None:
        """Delete a directory; with ``recursive`` remove the whole subtree."""
        record_no = self._resolve(path)
        if record_no is None:
            raise FileNotFound(path)
        record = self._records[record_no]
        if not record.is_directory:
            raise NotADirectory(path)
        if record_no == c.RECORD_ROOT:
            raise VolumeError("cannot delete the root directory")
        index = self._children.get(record_no)
        if index and len(index) > 0:
            if not recursive:
                raise DirectoryNotEmpty(path)
            for name, __ in list(index.entries()):
                child_path = path.rstrip("\\") + "\\" + name
                if self.is_directory(child_path):
                    self.delete_directory(child_path, recursive=True)
                else:
                    self.delete_file(child_path)
        self._unlink(record_no)

    def rename(self, old_path: str, new_path: str,
               native: bool = False) -> None:
        """Rename or move one file/directory.

        The on-disk footprint is exactly one MFT record flush — the
        $FILE_NAME attribute carries both the name and the parent
        reference.  That makes renames the sharpest test of journal-
        driven cache repair: a directory rename changes every
        descendant's *path* without touching any descendant record.
        """
        record_no = self._resolve(old_path)
        if record_no is None:
            raise FileNotFound(old_path)
        if record_no == c.RECORD_ROOT:
            raise VolumeError("cannot rename the root directory")
        new_parent_path, new_name = naming.parent_and_name(new_path)
        if not naming.is_valid_native_component(new_name):
            raise VolumeError(
                f"name illegal even for the native API: {new_name!r}")
        if not native:
            naming.validate_win32_component(new_name)
        new_parent_no = self._resolve(new_parent_path)
        if new_parent_no is None:
            raise FileNotFound(f"parent of {new_path}: {new_parent_path}")
        new_parent = self._records[new_parent_no]
        if not new_parent.is_directory:
            raise NotADirectory(new_parent_path)
        if new_name in self._children[new_parent_no]:
            raise FileExists(new_path)
        record = self._records[record_no]
        if record.is_directory:
            cursor = new_parent_no
            while cursor != c.RECORD_ROOT:
                if cursor == record_no:
                    raise VolumeError(
                        f"cannot move {old_path} into its own subtree")
                cursor = self._parents.get(cursor, c.RECORD_ROOT)
        old_parent_no = self._parents[record_no]
        assert record.file_name is not None
        self._children[old_parent_no].remove(record.file_name.name)
        namespace = (c.NAMESPACE_WIN32
                     if naming.is_valid_win32_component(new_name)
                     else c.NAMESPACE_POSIX)
        record.file_name = FileName(parent_reference=new_parent.reference,
                                    name=new_name, namespace=namespace)
        if record.std_info is not None:
            record.std_info.modified_us = self._now_us()
        self._children[new_parent_no].add(new_name, record_no)
        self._parents[record_no] = new_parent_no
        self._flush(record)

    def stat(self, path: str) -> FileStat:
        record_no = self._resolve(path)
        if record_no is None:
            raise FileNotFound(path)
        return self._stat_of(self._records[record_no], path)

    def set_times(self, path: str, created_us: Optional[int] = None,
                  modified_us: Optional[int] = None,
                  accessed_us: Optional[int] = None) -> None:
        """Rewrite $STANDARD_INFORMATION timestamps (SetFileTime).

        The legitimate API every timestomping tool rides on: any field
        left ``None`` is preserved.  One record flush, like
        :meth:`rename` — the change journal still sees it, so delta
        scans stay coherent even against a cloaked adversary.
        """
        record_no = self._resolve(path)
        if record_no is None:
            raise FileNotFound(path)
        record = self._records[record_no]
        if record.std_info is None:
            raise VolumeError(f"no standard information on {path}")
        if created_us is not None:
            record.std_info.created_us = int(created_us)
        if modified_us is not None:
            record.std_info.modified_us = int(modified_us)
        if accessed_us is not None:
            record.std_info.accessed_us = int(accessed_us)
        self._flush(record)

    def list_directory(self, path: str) -> List[FileStat]:
        """Entries of one directory, in collation order."""
        record_no = self._resolve(path)
        if record_no is None:
            raise FileNotFound(path)
        record = self._records[record_no]
        if not record.is_directory:
            raise NotADirectory(path)
        base = path if path != "\\" else ""
        stats = self._stats
        out = []
        for name, child_no in self._children[record_no].entries():
            child_path = f"{base}\\{name}"
            stat = stats.get(child_no)
            # A directory rename moves every descendant without
            # flushing it, so a cached stat is only good at its path.
            if stat is None or stat.path != child_path:
                stat = stats[child_no] = self._stat_of(
                    self._records[child_no], child_path)
            out.append(stat)
        return out

    def walk(self, start: str = "\\") -> Iterator[FileStat]:
        """Depth-first traversal of every entry below ``start``."""
        for entry in self.list_directory(start):
            yield entry
            if entry.is_directory:
                yield from self.walk(entry.path)

    def file_count(self) -> int:
        """Number of in-use records excluding $MFT and the root."""
        return sum(1 for r in self._records.values()
                   if r.in_use and r.record_no not in (c.RECORD_MFT,
                                                       c.RECORD_ROOT))

    def used_content_bytes(self) -> int:
        """Total logical bytes of file content (drives the scan cost model)."""
        return sum(r.data.real_size for r in self._records.values()
                   if r.in_use and r.data is not None)

    def record_for_path(self, path: str) -> Optional[int]:
        """Expose record resolution for low-level tooling."""
        return self._resolve(path)

    # -- alternate data streams ----------------------------------------------

    def write_stream(self, path: str, stream_name: str,
                     content: bytes) -> None:
        """Create or replace a named $DATA stream (``file:stream``).

        Pre-Vista Windows ships no enumeration API for streams at all —
        the asymmetry the paper's future-work section flags as a hiding
        spot — so there is deliberately no Win32-level surface for this;
        only low-level code (and ghostware) touches streams.
        """
        if not stream_name:
            raise VolumeError("stream name cannot be empty")
        record = self._require_file(path)
        existing = record.streams.get(stream_name)
        if existing is not None and not existing.resident:
            for start, count in existing.runs:
                self._free_clusters.extend(range(start, start + count))
        record.streams[stream_name] = self._build_data(content)
        record.std_info.modified_us = self._now_us()
        self._flush(record)

    def read_stream(self, path: str, stream_name: str) -> bytes:
        record = self._require_file(path)
        data = record.streams.get(stream_name)
        if data is None:
            raise FileNotFound(f"{path}:{stream_name}")
        if data.resident:
            return data.content
        blob = bytearray()
        for start, count in data.runs:
            blob += self.disk.read_bytes(start * self.cluster_size,
                                         count * self.cluster_size)
        return bytes(blob[:data.real_size])

    def list_streams(self, path: str) -> List[str]:
        """Named streams of one file (sorted)."""
        return sorted(self._require_file(path).streams)

    def delete_stream(self, path: str, stream_name: str) -> None:
        record = self._require_file(path)
        data = record.streams.pop(stream_name, None)
        if data is None:
            raise FileNotFound(f"{path}:{stream_name}")
        if not data.resident:
            for start, count in data.runs:
                self._free_clusters.extend(range(start, start + count))
        self._flush(record)

    # -- internals -----------------------------------------------------------

    def _now_us(self) -> int:
        return int(self.clock.now() * 1_000_000)

    def _write_boot_sector(self) -> None:
        sector = bytearray(self.disk.geometry.sector_size)
        sector[c.BOOT_MAGIC_OFFSET:c.BOOT_MAGIC_OFFSET + 8] = c.BOOT_MAGIC
        struct.pack_into("<H", sector, c.BOOT_BYTES_PER_SECTOR_OFFSET,
                         self.disk.geometry.sector_size)
        sector[c.BOOT_SECTORS_PER_CLUSTER_OFFSET] = c.SECTORS_PER_CLUSTER
        struct.pack_into("<Q", sector, c.BOOT_MFT_START_CLUSTER_OFFSET,
                         MFT_START_CLUSTER)
        struct.pack_into("<I", sector, c.BOOT_MFT_RECORD_COUNT_OFFSET,
                         self.max_records)
        sector[-2:] = c.BOOT_SIGNATURE
        self.disk.write_sector(0, bytes(sector))

    def _create(self, path: str, directory: bool, content: bytes,
                native: bool, dos_flags: int) -> FileStat:
        parent_path, name = naming.parent_and_name(path)
        if not naming.is_valid_native_component(name):
            raise VolumeError(f"name illegal even for the native API: {name!r}")
        if not native:
            naming.validate_win32_component(name)
        parent_no = self._resolve(parent_path)
        if parent_no is None:
            raise FileNotFound(f"parent of {path}: {parent_path}")
        parent = self._records[parent_no]
        if not parent.is_directory:
            raise NotADirectory(parent_path)
        if name in self._children[parent_no]:
            raise FileExists(path)

        record_no = self._allocate_record_no()
        now_us = self._now_us()
        namespace = (c.NAMESPACE_WIN32 if naming.is_valid_win32_component(name)
                     else c.NAMESPACE_POSIX)
        record = MftRecord(
            record_no=record_no,
            flags=c.FLAG_IN_USE | (c.FLAG_DIRECTORY if directory else 0),
            std_info=StandardInformation(now_us, now_us, now_us, dos_flags),
            file_name=FileName(parent_reference=parent.reference, name=name,
                               namespace=namespace),
        )
        if not directory:
            record.data = self._build_data(content)
        self._install_record(record)
        self._children[parent_no].add(name, record_no)
        self._parents[record_no] = parent_no
        if directory:
            self._children[record_no] = DirectoryIndex()
        return self._stat_of(record, path)

    def _unlink(self, record_no: int) -> None:
        record = self._records[record_no]
        parent_no = self._parents.pop(record_no)
        assert record.file_name is not None
        self._children[parent_no].remove(record.file_name.name)
        self._children.pop(record_no, None)
        self._free_data(record)
        record.flags &= ~c.FLAG_IN_USE
        record.sequence += 1
        record.data = None
        self._flush(record)
        del self._records[record_no]
        self._free_records.append(record_no)

    def _build_data(self, content: bytes) -> DataAttribute:
        if len(content) <= c.RESIDENT_DATA_LIMIT:
            return DataAttribute.make_resident(content)
        cluster_count = (len(content) + self.cluster_size - 1) // \
            self.cluster_size
        runs = self._allocate_clusters(cluster_count)
        offset_in_content = 0
        for start, count in runs:
            chunk = content[offset_in_content:
                            offset_in_content + count * self.cluster_size]
            padded = chunk + b"\x00" * (count * self.cluster_size - len(chunk))
            self.disk.write_bytes(start * self.cluster_size, padded)
            offset_in_content += count * self.cluster_size
        return DataAttribute.make_nonresident(runs, real_size=len(content))

    def _read_data(self, record: MftRecord) -> bytes:
        data = record.data
        if data is None:
            return b""
        if data.resident:
            return data.content
        blob = bytearray()
        for start, count in data.runs:
            blob += self.disk.read_bytes(start * self.cluster_size,
                                         count * self.cluster_size)
        return bytes(blob[:data.real_size])

    def _free_data(self, record: MftRecord) -> None:
        if record.data is not None and not record.data.resident:
            for start, count in record.data.runs:
                self._free_clusters.extend(range(start, start + count))

    def _allocate_clusters(self, count: int) -> List:
        """Allocate ``count`` clusters, keeping files in one run if possible.

        Contiguity is load-bearing, not cosmetic: the registry
        write-back loop frees and reallocates its hive files on every
        mutation, and raw readers deliver a file run-by-run — a hive
        split across runs reaches read filters (and scan heuristics
        keyed on whole-file reads) in fragments.  A freed contiguous
        run of the right size is reused first, then the untouched tail;
        only when both fail is the file assembled from fragments.
        """
        from repro.ntfs.runlist import coalesce
        run = self._take_free_run(count)
        if run is not None:
            return [run]
        limit = self.disk.geometry.size_bytes // self.cluster_size
        end_cluster = self._next_cluster + count
        if end_cluster <= limit:
            start = self._next_cluster
            self._next_cluster = end_cluster
            return [(start, count)]
        # Tail exhausted: scavenge whatever free fragments remain.
        clusters: List[int] = []
        while count and self._free_clusters:
            clusters.append(self._free_clusters.pop())
            count -= 1
        if count:
            end_cluster = self._next_cluster + count
            if end_cluster > limit:
                raise VolumeError("volume out of space")
            clusters.extend(range(self._next_cluster, end_cluster))
            self._next_cluster = end_cluster
        clusters.sort()
        return coalesce([(cluster, 1) for cluster in clusters])

    def _take_free_run(self, count: int) -> Optional[tuple]:
        """Carve one contiguous ``count``-cluster run out of the free list."""
        if len(self._free_clusters) < count:
            return None
        self._free_clusters.sort()
        free = self._free_clusters
        run_start = 0
        for index in range(1, len(free) + 1):
            if index == len(free) or free[index] != free[index - 1] + 1:
                if index - run_start >= count:
                    start = free[run_start]
                    del free[run_start:run_start + count]
                    return (start, count)
                run_start = index
        return None

    def _allocate_record_no(self) -> int:
        if self._free_records:
            return self._free_records.pop()
        if self._next_record >= self.max_records:
            raise VolumeError("MFT full")
        record_no = self._next_record
        self._next_record += 1
        return record_no

    def _install_record(self, record: MftRecord) -> None:
        self._records[record.record_no] = record
        self._flush(record)

    def _flush(self, record: MftRecord) -> None:
        self._stats.pop(record.record_no, None)
        offset = self.mft_offset + record.record_no * c.MFT_RECORD_SIZE
        self.disk.write_bytes(offset, record.to_bytes())

    def _resolve(self, path: str) -> Optional[int]:
        components = naming.split_path(path)
        current = c.RECORD_ROOT
        for component in components:
            index = self._children.get(current)
            if index is None:
                return None
            child = index.lookup(component)
            if child is None:
                return None
            current = child
        return current

    def _require_file(self, path: str) -> MftRecord:
        record_no = self._resolve(path)
        if record_no is None:
            raise FileNotFound(path)
        record = self._records[record_no]
        if record.is_directory:
            raise VolumeError(f"{path} is a directory")
        return record

    def _stat_of(self, record: MftRecord, path: str) -> FileStat:
        assert record.file_name is not None
        size = record.data.real_size if record.data else 0
        info = record.std_info
        return FileStat(
            path=path,
            name=record.file_name.name,
            is_directory=record.is_directory,
            size=size,
            created=info.created_us / 1_000_000,
            modified=info.modified_us / 1_000_000,
            accessed=info.accessed_us / 1_000_000,
            dos_flags=info.dos_flags,
            record_no=record.record_no,
            namespace=record.file_name.namespace,
        )
