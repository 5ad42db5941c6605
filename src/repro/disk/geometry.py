"""Disk geometry description."""

from __future__ import annotations

from dataclasses import dataclass

SECTOR_SIZE = 512


@dataclass(frozen=True)
class DiskGeometry:
    """Immutable description of a virtual disk's shape.

    ``sector_count`` bounds the addressable space; storage grows to the
    highest written offset, so a large nominal geometry costs nothing
    until sectors are written.
    """

    sector_count: int
    sector_size: int = SECTOR_SIZE

    def __post_init__(self) -> None:
        if self.sector_count <= 0:
            raise ValueError("sector_count must be positive")
        if self.sector_size <= 0 or self.sector_size % 512 != 0:
            raise ValueError("sector_size must be a positive multiple of 512")

    @property
    def size_bytes(self) -> int:
        """Total addressable capacity in bytes."""
        return self.sector_count * self.sector_size

    @classmethod
    def from_megabytes(cls, megabytes: int, sector_size: int = SECTOR_SIZE) -> "DiskGeometry":
        """Build a geometry with at least ``megabytes`` of capacity."""
        if megabytes <= 0:
            raise ValueError("megabytes must be positive")
        return cls(sector_count=(megabytes * 1024 * 1024) // sector_size,
                   sector_size=sector_size)
