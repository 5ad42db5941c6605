"""Virtual sector-addressable disk.

The disk is the lowest layer of the simulated machine: the NTFS volume
serializes MFT records and file data onto it, and the outside-the-box scan
reads it directly, below every hookable software layer.
"""

from repro.disk.geometry import DiskGeometry
from repro.disk.backends import FlatExtentBackend, StorageStats
from repro.disk.disk import Disk
from repro.disk.journal import ChangeJournal, JournalRecord

__all__ = ["DiskGeometry", "Disk", "ChangeJournal", "JournalRecord",
           "FlatExtentBackend", "StorageStats"]
