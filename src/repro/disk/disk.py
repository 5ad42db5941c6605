"""Virtual disk with byte- and sector-level access.

Unwritten space reads back as zeros.  The disk keeps no notion of
filesystems or partitions — that is the NTFS layer's job — and it has no
hook points: code holding a :class:`Disk` reference reads ground truth.
Interceptable *raw device* access inside a potentially infected OS is
modelled one layer up, by :class:`repro.kernel.kernel.DiskPort`.

The bytes live in one flat extent (see :mod:`repro.disk.backends`),
which serves contiguous zero-copy ``memoryview`` reads and
copy-on-write clones for fleet imaging.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

from repro.disk.backends import FlatExtentBackend, StorageStats
from repro.disk.geometry import DiskGeometry
from repro.disk.journal import ChangeJournal
from repro.errors import DiskError


class Disk:
    """A sector-addressable virtual disk.

    ``generation`` is a monotonic write counter: every mutation bumps it,
    so any derived view of the disk (a parsed MFT namespace, for example)
    can be cached keyed on the generation and dropped the instant the
    underlying bytes change.  ``raw_cache`` is the host for such derived
    views; consumers store ``(generation, payload)`` entries under their
    own key and must revalidate the generation on every lookup.

    ``journal`` records *which sectors* each generation bump touched, so
    a consumer holding a stale cached view can repair just the derived
    state those sectors back — or learn that the journal wrapped and a
    full rebuild is owed (see :mod:`repro.disk.journal`).
    """

    def __init__(self, geometry: DiskGeometry):
        self.geometry = geometry
        self._backend = FlatExtentBackend(geometry)
        self.generation: int = 0
        self.raw_cache: Dict[str, tuple] = {}
        self.journal = ChangeJournal()
        # Chaos hook: when a fault plan attaches an injector here, every
        # byte-level read flows through it (transient errors, torn
        # sectors, slow reads).  None — the default — costs one check.
        self.fault_injector = None

    # -- sector-level interface -------------------------------------------

    def read_sector(self, index: int) -> bytes:
        """Return one sector; zeros if never written."""
        self._check_sector(index)
        return self._backend.read_sector(index)

    def write_sector(self, index: int, data: bytes) -> None:
        """Write exactly one sector."""
        self._check_sector(index)
        if len(data) != self.geometry.sector_size:
            raise DiskError(
                f"sector write must be exactly {self.geometry.sector_size} "
                f"bytes, got {len(data)}")
        self._backend.write_sector(index, data)
        self.generation += 1
        self.journal.record(self.generation, index, 1, "sector")

    # -- byte-level interface ---------------------------------------------

    def _check_read(self, offset: int, length: int) -> None:
        if length < 0:
            raise DiskError("negative read length")
        if offset < 0 or offset + length > self.geometry.size_bytes:
            raise DiskError(
                f"read [{offset}, {offset + length}) outside disk of "
                f"{self.geometry.size_bytes} bytes")

    def read_bytes(self, offset: int, length: int) -> bytes:
        """Read an arbitrary byte range, crossing sector boundaries."""
        self._check_read(offset, length)
        if length == 0:
            return b""
        data = self._backend.read_range(offset, length)
        if self.fault_injector is not None:
            return self.fault_injector.filter_read(offset, length, data)
        return data

    def read_view(self, offset: int, length: int) -> memoryview:
        """Read a byte range as a memoryview — zero-copy where possible.

        The view reflects disk content *as of this call* and is only
        guaranteed current until the next write; the extent never mutates
        a buffer under an exported view, so stale views stay readable.
        With a fault injector attached the read is routed through
        :meth:`read_bytes` so injected damage is byte-identical on both
        paths.
        """
        self._check_read(offset, length)
        if length == 0:
            return memoryview(b"")
        if self.fault_injector is not None:
            return memoryview(self.read_bytes(offset, length))
        return self._backend.read_view(offset, length)

    def write_bytes(self, offset: int, data: bytes) -> None:
        """Write an arbitrary byte range with read-modify-write at the edges."""
        length = len(data)
        if offset < 0 or offset + length > self.geometry.size_bytes:
            raise DiskError(
                f"write [{offset}, {offset + length}) outside disk of "
                f"{self.geometry.size_bytes} bytes")
        if length == 0:
            return
        sector_size = self.geometry.sector_size
        first = offset // sector_size
        last = (offset + length - 1) // sector_size
        self._backend.write_range(offset, data)
        self.generation += 1
        self.journal.record(self.generation, first, last - first + 1, "bytes")

    # -- maintenance --------------------------------------------------------

    def written_sectors(self) -> Iterator[Tuple[int, bytes]]:
        """Iterate (index, data) over sectors that were ever written."""
        return self._backend.written_sectors()

    def storage_stats(self) -> StorageStats:
        """Materialized storage split into shared-base vs private bytes."""
        return self._backend.storage_stats()

    def used_bytes(self) -> int:
        """Bytes of physically materialized storage (for cost accounting).

        Under copy-on-write clones this is shared + private — callers
        accounting for a whole fleet should use :meth:`storage_stats`
        and count each shared base once (see
        :func:`repro.fleet.provision.fleet_storage_stats`).
        """
        stats = self._backend.storage_stats()
        return stats.shared_bytes + stats.private_bytes

    def clone(self) -> "Disk":
        """Copy the disk (used to snapshot a VM's virtual drive).

        This is copy-on-write: the clone and the original share one
        sealed base extent and each pays only for the sectors it
        rewrites.  The clone inherits the generation counter and the
        current cache entries: a fleet of machines imaged from one golden
        disk shares the golden parse until any clone diverges (its own
        writes bump its own generation, which invalidates its inherited
        entries).
        """
        copy = Disk(self.geometry)
        copy._backend = self._backend.clone()
        copy.generation = self.generation
        copy.raw_cache = dict(self.raw_cache)
        copy.journal = self.journal.clone()
        # A fault injector is bound to one machine's scope; clones get
        # their own (or none) via FaultPlan.attach.
        copy.fault_injector = None
        return copy

    def _check_sector(self, index: int) -> None:
        if index < 0 or index >= self.geometry.sector_count:
            raise DiskError(
                f"sector {index} outside disk of "
                f"{self.geometry.sector_count} sectors")
