"""Typed scan snapshots.

A :class:`ScanSnapshot` is one view of one resource type at one instant:
which view (``win32-api``, ``raw-mft``, ``winpe-raw``, ...), which
entries it contained, and how long the scan took on the simulated clock.
The cross-view diff compares snapshots by entry *identity* — a stable,
case-folded key per resource type.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Tuple


class ResourceType(enum.Enum):
    """The four resource classes GhostBuster covers."""

    FILE = "file"
    REGISTRY = "registry"
    PROCESS = "process"
    MODULE = "module"


@dataclass(frozen=True)
class FileEntry:
    """One file or directory as some view reports it."""

    path: str
    name: str
    is_directory: bool
    size: int

    @property
    def identity(self) -> Hashable:
        return self.path.casefold()

    def describe(self) -> str:
        kind = "dir" if self.is_directory else f"{self.size}B"
        return f"{self.path} ({kind})"


@dataclass(frozen=True)
class RegistryHookEntry:
    """One ASEP hook as some view reports it."""

    location: str
    key_path: str
    name: str
    data: str

    @property
    def identity(self) -> Hashable:
        return (self.location, self.key_path.casefold(),
                self.name.casefold(), self.data.casefold())

    def describe(self) -> str:
        target = f" → {self.data}" if self.data else ""
        shown_name = self.name.replace("\x00", "\\0")
        return f"{self.key_path}\\{shown_name}{target}"


@dataclass(frozen=True)
class ProcessEntry:
    """One process as some view reports it."""

    pid: int
    name: str

    @property
    def identity(self) -> Hashable:
        return (self.pid, self.name.casefold())

    def describe(self) -> str:
        return f"pid {self.pid}: {self.name}"


@dataclass(frozen=True)
class ModuleEntry:
    """One loaded module (in one process) as some view reports it."""

    pid: int
    process_name: str
    module_path: str

    @property
    def identity(self) -> Hashable:
        return (self.pid, self.module_path.casefold())

    def describe(self) -> str:
        return f"{self.module_path} in pid {self.pid} ({self.process_name})"


@dataclass
class ScanSnapshot:
    """One view's result set plus provenance."""

    resource_type: ResourceType
    view: str
    entries: List = field(default_factory=list)
    taken_at: float = 0.0
    duration: float = 0.0

    def __setattr__(self, name: str, value) -> None:
        # Assigning a new entries list is the documented way to change a
        # snapshot's contents; bump the version so the identity index
        # rebuilds.  An `id(list)` fingerprint is NOT a substitute: a
        # freed list's id can be reused by its same-length replacement,
        # silently serving a stale index.
        if name == "entries":
            version = getattr(self, "_entries_version", 0) + 1
            object.__setattr__(self, "_entries_version", version)
        object.__setattr__(self, name, value)

    def identities(self) -> Dict[Hashable, object]:
        """``identity → entry`` for this view, built once per entry set.

        The index is cached against an explicit mutation counter (bumped
        whenever ``entries`` is assigned) plus the length, so both list
        replacement and in-place growth invalidate it; treat the
        returned mapping as read-only.  Same-length in-place element
        swaps are not detected — replace the list instead (as the
        scanners do).
        """
        fingerprint = (self._entries_version, len(self.entries))
        cached = getattr(self, "_identity_cache", None)
        if cached is not None and cached[0] == fingerprint:
            return cached[1]
        index = {entry.identity: entry for entry in self.entries}
        self._identity_cache = (fingerprint, index)
        return index

    def adopt_index(self, index: Dict[Hashable, object]) -> None:
        """Install a pre-built identity index for the *current* entries.

        The caller asserts ``index`` maps exactly the identities of the
        entry list as it stands now — e.g. an index computed alongside a
        cached parse.  Seeding it here lets consumers skip the O(n)
        first-access build; a later ``entries`` assignment invalidates
        it like any cached index.
        """
        self._identity_cache = (
            (self._entries_version, len(self.entries)), index)

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, identity: Hashable) -> bool:
        return identity in self.identities()


def snapshot_pair_stats(lie: ScanSnapshot,
                        truth: ScanSnapshot) -> Tuple[int, int, int]:
    """(lie size, truth size, common identities) — reporting helper."""
    lie_ids = set(lie.identities())
    truth_ids = set(truth.identities())
    return len(lie_ids), len(truth_ids), len(lie_ids & truth_ids)
