"""The disk's byte store: one flat extent with zero-copy views.

:class:`FlatExtentBackend` is the only store behind
:class:`repro.disk.disk.Disk`: one contiguous extent (a ``bytearray``,
spilling to an anonymous mmap-backed temp file past
:data:`DEFAULT_SPILL_BYTES`) that grows to the highest written offset.
Byte-range reads are single slices, and
:meth:`FlatExtentBackend.read_view` exposes the underlying buffer as a
**zero-copy** :class:`memoryview` so batch parsers walk disk structures
without materializing intermediate ``bytes``.

Copy-on-write cloning lives here too: the first
:meth:`~FlatExtentBackend.clone` *seals* the extent into an immutable
shared base, and both the original and every clone switch to overlay
mode — a dict of privately rewritten sectors over the read-only base.
A fleet imaged from one golden disk therefore shares a single extent and
pays only for the sectors each machine actually diverges.

Memoryview lifetime rule: a view returned by ``read_view`` reflects the
disk content *as of the call* and is only guaranteed until the next
write to the disk.  Writes never mutate a sealed base (overlay sectors
shadow it) and never resize a buffer with exported views (growth copies
into a fresh buffer instead), so stale views remain safely readable —
they are just no longer the disk's current content.

The store holds bytes only.  Bounds checks, the generation counter, the
change journal and the fault-injector hook all stay in ``Disk``.
``tests/test_disk_backends.py`` keeps a dict-of-sectors reference model
and property-tests ``Disk`` against it, clones included.
"""

from __future__ import annotations

import os
import tempfile
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

try:
    import mmap as _mmap
except ImportError:          # pragma: no cover - mmap is stdlib everywhere
    _mmap = None

from repro.disk.geometry import DiskGeometry

# Extent bytes past which the extent spills from a heap bytearray to an
# unlinked mmap-backed temp file.
DEFAULT_SPILL_BYTES = 64 * 1024 * 1024
_MIN_EXTENT = 1 << 16


class StorageStats(NamedTuple):
    """Physically materialized storage, split by ownership.

    ``shared_bytes`` is the sealed copy-on-write base this disk reads
    through (the same base object is shared by every clone — sum it once
    per ``base_id``, not once per machine).  ``private_bytes`` is what
    this disk alone pays for: its own extent or overlay sectors.
    """

    shared_bytes: int
    private_bytes: int
    base_id: Optional[int] = None

    @property
    def total_bytes(self) -> int:
        return self.shared_bytes + self.private_bytes


class _SpillFile:
    """An unlinked temp file backing an mmap extent."""

    def __init__(self) -> None:
        fd, path = tempfile.mkstemp(prefix="repro-disk-")
        os.unlink(path)        # anonymous: vanishes when the fd closes
        self._fd = fd

    def map(self, size: int) -> "_mmap.mmap":
        os.ftruncate(self._fd, size)
        return _mmap.mmap(self._fd, size)

    def __del__(self) -> None:
        try:
            os.close(self._fd)
        except OSError:        # pragma: no cover - already closed
            pass


class _SharedBase:
    """A sealed flat extent, shared read-only by COW overlays."""

    __slots__ = ("buf", "view", "extent", "written", "sector_size",
                 "retired_maps", "spill")

    def __init__(self, buf, extent: int, written: frozenset,
                 sector_size: int, retired_maps, spill) -> None:
        self.buf = buf
        self.view = memoryview(buf)
        self.extent = extent
        self.written = written
        self.sector_size = sector_size
        # Old mmap objects (superseded by growth) that exported views may
        # still reference; kept alive so those views stay readable.
        self.retired_maps = retired_maps
        self.spill = spill

    def read_range(self, offset: int, length: int) -> bytes:
        end = offset + length
        if end <= self.extent:
            return bytes(self.view[offset:end])
        if offset >= self.extent:
            return b"\x00" * length
        head = bytes(self.view[offset:self.extent])
        return head + b"\x00" * (length - len(head))

    def read_view(self, offset: int, length: int) -> memoryview:
        end = offset + length
        if end <= self.extent:
            return self.view[offset:end]
        return memoryview(self.read_range(offset, length))


class FlatExtentBackend:
    """Contiguous extent with zero-copy views and COW cloning.

    Starts in *plain* mode: one growable buffer, writes land in place.
    The first :meth:`clone` seals the buffer into a :class:`_SharedBase`
    and flips this backend (and the clone) to *overlay* mode, where
    writes materialize private whole-sector copies and reads compose
    the overlay over the immutable base.
    """

    def __init__(self, geometry: DiskGeometry):
        self._geometry = geometry
        self._buf = bytearray()
        self._extent = 0
        self._written: set = set()
        self._retired_maps: list = []
        self._spill: Optional[_SpillFile] = None
        # Overlay mode (set by clone): reads fall through to the sealed
        # base for any sector without a private overlay copy.
        self._base: Optional[_SharedBase] = None
        self._overlay: Dict[int, bytes] = {}
        self._overlay_low = 0
        self._overlay_high = -1

    # -- extent management (plain mode) ------------------------------------

    def _ensure(self, end: int) -> None:
        """Grow the extent to cover ``end`` bytes (zero filled)."""
        if end <= self._extent:
            return
        sector_size = self._geometry.sector_size
        target = max(end, self._extent * 2, _MIN_EXTENT)
        target = min(self._geometry.size_bytes,
                     -(-target // sector_size) * sector_size)
        if _mmap is not None and target > DEFAULT_SPILL_BYTES:
            spill = self._spill or _SpillFile()
            grown = spill.map(target)
            grown[0:self._extent] = self._buf[0:self._extent]
            if self._spill is not None:
                # Superseded mapping: exported views may still hold it.
                self._retired_maps.append(self._buf)
            self._spill = spill
            self._buf = grown
        else:
            try:
                self._buf.extend(b"\x00" * (target - self._extent))
            except BufferError:
                # Exported memoryviews pin the old buffer; copy-on-grow
                # leaves them valid (on the old bytes) and moves on.
                grown = bytearray(target)
                grown[0:self._extent] = self._buf
                self._buf = grown
        self._extent = target

    # -- sector interface ----------------------------------------------------

    def read_sector(self, index: int) -> bytes:
        sector_size = self._geometry.sector_size
        if self._base is not None:
            cached = self._overlay.get(index)
            if cached is not None:
                return cached
            return self._base.read_range(index * sector_size, sector_size)
        offset = index * sector_size
        end = offset + sector_size
        if offset >= self._extent:
            return b"\x00" * sector_size
        if end <= self._extent:
            return bytes(self._buf[offset:end])
        head = bytes(self._buf[offset:self._extent])
        return head + b"\x00" * (sector_size - len(head))

    def write_sector(self, index: int, data: bytes) -> None:
        if self._base is not None:
            self._overlay[index] = bytes(data)
            self._track_overlay(index, index)
            return
        sector_size = self._geometry.sector_size
        offset = index * sector_size
        self._ensure(offset + sector_size)
        self._buf[offset:offset + sector_size] = data
        self._written.add(index)

    # -- byte-range interface ------------------------------------------------

    def _track_overlay(self, first: int, last: int) -> None:
        if self._overlay_high < self._overlay_low:
            self._overlay_low, self._overlay_high = first, last
        else:
            if first < self._overlay_low:
                self._overlay_low = first
            if last > self._overlay_high:
                self._overlay_high = last

    def _overlay_indices(self, first: int, last: int) -> List[int]:
        """The overlay sectors in ``[first, last]``, ascending."""
        if not self._overlay or last < self._overlay_low \
                or first > self._overlay_high:
            return []
        if len(self._overlay) > last - first + 1:
            return [index for index in range(first, last + 1)
                    if index in self._overlay]
        return sorted(index for index in self._overlay
                      if first <= index <= last)

    def _composed(self, offset: int, length: int) -> Optional[bytes]:
        """``[offset, offset + length)`` of the overlay over the base, or
        None when no overlay sector falls in it.

        The result is the range's only copy: base views and overlay
        sectors are joined straight into one new ``bytes``.
        """
        sector_size = self._geometry.sector_size
        end = offset + length
        indices = self._overlay_indices(offset // sector_size,
                                        (end - 1) // sector_size)
        if not indices:
            return None
        pieces = []
        position = offset
        for index in indices:
            sector = index * sector_size
            if sector > position:
                pieces.append(self._base.read_view(position,
                                                   sector - position))
            stop = min(end, sector + sector_size)
            pieces.append(memoryview(self._overlay[index])[
                max(0, position - sector):stop - sector])
            position = stop
        if position < end:
            pieces.append(self._base.read_view(position, end - position))
        return b"".join(pieces)

    def read_range(self, offset: int, length: int) -> bytes:
        end = offset + length
        if self._base is not None:
            composed = self._composed(offset, length)
            return (composed if composed is not None
                    else self._base.read_range(offset, length))
        if end <= self._extent:
            return bytes(self._buf[offset:end])
        if offset >= self._extent:
            return b"\x00" * length
        head = bytes(self._buf[offset:self._extent])
        return head + b"\x00" * (length - len(head))

    def read_view(self, offset: int, length: int) -> memoryview:
        end = offset + length
        if self._base is not None:
            composed = self._composed(offset, length)
            return (memoryview(composed) if composed is not None
                    else self._base.read_view(offset, length))
        # Materialize through the requested end so the view is one real
        # slice of the extent (zero fill is identical content; growth is
        # still capped by the geometry, which Disk bounds-checked).
        self._ensure(end)
        return memoryview(self._buf)[offset:end]

    def write_range(self, offset: int, data: bytes) -> None:
        length = len(data)
        end = offset + length
        sector_size = self._geometry.sector_size
        first = offset // sector_size
        last = (end - 1) // sector_size
        if self._base is not None:
            blob = bytearray(self.read_range(
                first * sector_size, (last - first + 1) * sector_size))
            start = offset - first * sector_size
            blob[start:start + length] = data
            for position, index in enumerate(range(first, last + 1)):
                self._overlay[index] = bytes(
                    blob[position * sector_size:
                         (position + 1) * sector_size])
            self._track_overlay(first, last)
            return
        self._ensure(end)
        self._buf[offset:end] = data
        self._written.update(range(first, last + 1))

    # -- maintenance --------------------------------------------------------

    def written_sectors(self) -> Iterator[Tuple[int, bytes]]:
        if self._base is not None:
            indices = set(self._base.written)
            indices.update(self._overlay)
        else:
            indices = self._written
        for index in sorted(indices):
            yield index, self.read_sector(index)

    def storage_stats(self) -> StorageStats:
        sector_size = self._geometry.sector_size
        if self._base is not None:
            return StorageStats(len(self._base.written) * sector_size,
                                len(self._overlay) * sector_size,
                                base_id=id(self._base))
        return StorageStats(0, len(self._written) * sector_size)

    def clone(self) -> "FlatExtentBackend":
        if self._base is None:
            # Seal: freeze the extent into a shared base and flip this
            # backend to overlay mode.  The buffer is adopted, never
            # copied — from here on nothing writes it.
            self._base = _SharedBase(self._buf, self._extent,
                                     frozenset(self._written),
                                     self._geometry.sector_size,
                                     self._retired_maps, self._spill)
            self._buf = bytearray()
            self._extent = 0
            self._written = set()
            self._retired_maps = []
            self._spill = None
        copy = FlatExtentBackend(self._geometry)
        copy._base = self._base
        copy._overlay = dict(self._overlay)
        copy._overlay_low = self._overlay_low
        copy._overlay_high = self._overlay_high
        return copy

