r"""The WinPE outside-the-box environment.

Booting the suspect machine from a clean WinPE CD means none of the
suspect disk's ASEP hooks execute — the ghostware simply is not running —
so every scan taken here is ground truth by construction.  The
environment holds the *physical* :class:`~repro.disk.Disk`, below the
(now halted) kernel and its interceptable raw-device port.

The scans here are the inside truth's raw readers pointed at the
physical disk: the MFT parse lists every name NTFS holds and the hive
parse keeps counted names, so what the Win32 API hides by name alone
(a naming exploit) shows here as it does in the inside raw view.

Volatile state is reached through the crash-dump file the inside tool
wrote before the reboot (:meth:`GhostBuster.write_crash_dump`): the same
pointer-chasing walkers run against the dump blob.
"""

from __future__ import annotations

from typing import Optional

from repro.core import costmodel
from repro.core.scanners.files import outside_file_scan
from repro.core.scanners.processes import dump_process_scan
from repro.core.scanners.registry import outside_asep_scan
from repro.core.snapshot import ScanSnapshot
from repro.errors import MachineStateError, ScanError
from repro.kernel.crashdump import CrashDump
from repro.machine import Machine
from repro.ntfs.mft_parser import MftParser

DUMP_PATH = "\\Windows\\MEMORY.DMP"


class WinPEEnvironment:
    """A clean OS booted around the suspect machine's disk."""

    def __init__(self, machine: Machine):
        if machine.powered_on:
            raise MachineStateError(
                "power the suspect machine down before booting WinPE")
        self.machine = machine
        self.disk = machine.disk
        self.clock = machine.clock
        self.booted = False
        self.boot_seconds = 0.0

    def boot(self) -> None:
        """Boot the WinPE CD (paper: adds 1.5–3 minutes)."""
        self.boot_seconds = costmodel.charge_winpe_boot(
            self.clock, self.machine.perf.cpu_scale)
        self.booted = True

    def _require_boot(self) -> None:
        if not self.booted:
            raise ScanError("WinPE environment not booted")

    # -- persistent state -------------------------------------------------------

    def file_scan(self) -> ScanSnapshot:
        """Scan the suspect drive's raw namespace from the clean OS."""
        self._require_boot()
        return outside_file_scan(self.disk, self.clock)

    def asep_scan(self) -> ScanSnapshot:
        """Parse the suspect hive files from the clean OS and scan."""
        self._require_boot()
        return outside_asep_scan(self.disk, self.clock)

    # -- volatile state ------------------------------------------------------------

    def read_dump(self) -> Optional[CrashDump]:
        """Load the crash dump file straight off the raw disk."""
        self._require_boot()
        parser = MftParser(self.disk.read_bytes)
        try:
            blob = parser.read_file_content(DUMP_PATH)
        except Exception:
            return None
        if not blob:
            return None
        return CrashDump(blob)

    def process_scan(self, advanced: bool = False) -> ScanSnapshot:
        """Walk the dumped kernel structures from outside."""
        dump = self.read_dump()
        if dump is None:
            raise ScanError(
                f"no crash dump at {DUMP_PATH}; run write_crash_dump() "
                "inside the box before rebooting")
        return dump_process_scan(dump, advanced=advanced,
                                 taken_at=self.clock.now())
