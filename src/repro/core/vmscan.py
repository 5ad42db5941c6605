r"""VM-based outside-the-box automation (Section 5).

Two flows from the paper:

* :func:`vm_outside_scan` — the suspect machine *is* a VM: scan inside,
  power the VM down, attach its virtual disk to the host, scan from the
  host, diff.  Because both scans cover exactly the same drive image,
  this diff has zero false positives by construction.  It is the WinPE
  outside scan with the CD boot swapped for the drive attach, so it
  runs the same raw readers (and, with ``advanced=True``, the same
  thread-table walk of the dump) under the same fault plan, layer
  retries and span.
* :func:`automated_winpe_vm_scan` — the GhostBuster WinPE CD carries a VM:
  it plants a ``RunOnce`` ASEP hook on the suspect drive that auto-starts
  the high-level scan, boots the drive inside a VM instance, collects the
  scan-result file the guest wrote, powers the VM down, runs the raw
  outside file scan against the released drive, removes the hook, and
  diffs.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.diff import DetectionReport, cross_view_diff
from repro.core.ghostbuster import GhostBuster
from repro.core.noise import NoiseFilter
from repro.core.scanners.files import (high_level_file_scan,
                                       outside_file_scan)
from repro.core.snapshot import FileEntry, ResourceType, ScanSnapshot
from repro.core.winpe import WinPEEnvironment
from repro.errors import ScanError
from repro.faults.plan import FaultPlan
from repro.machine import Machine, RUNONCE_KEY
from repro.ntfs.mft_parser import MftParser

SCAN_RESULT_PATH = "\\gb_scan_result.dat"
GB_SCANNER_EXE = "\\Windows\\System32\\gbscan.exe"


class _HostAttachedDrive(WinPEEnvironment):
    """The powered-down VM's virtual disk, attached to the host."""

    def file_scan(self) -> ScanSnapshot:
        return outside_file_scan(self.disk, self.clock, view="vm-host")


class _VmHostGhostBuster(GhostBuster):
    """The outside-the-box scan with the CD boot swapped for the host
    attaching the VM's drive."""

    def _clean_boot(self, report: DetectionReport) -> WinPEEnvironment:
        drive = _HostAttachedDrive(self.machine)
        drive.booted = True      # attaching a drive boots nothing
        return drive


def vm_outside_scan(machine: Machine,
                    resources=("files", "registry"),
                    power_up_after: bool = True,
                    noise_filter: Optional[NoiseFilter] = None,
                    fault_plan: Optional[FaultPlan] = None
                    ) -> DetectionReport:
    """Host-side scan of a powered-down VM's virtual disk."""
    report = _VmHostGhostBuster(
        machine, advanced=True, noise_filter=noise_filter,
        fault_plan=fault_plan).outside_scan(resources=resources,
                                            reboot_after=power_up_after)
    report.mode = "vm-outside"
    return report


# -- automated WinPE + VM flow ---------------------------------------------------


def _serialize_snapshot(snapshot: ScanSnapshot) -> bytes:
    lines = []
    for entry in snapshot.entries:
        lines.append("\t".join([entry.path, entry.name,
                                "1" if entry.is_directory else "0",
                                str(entry.size)]))
    return "\n".join(lines).encode("utf-8", errors="replace")


def _deserialize_snapshot(blob: bytes, view: str) -> ScanSnapshot:
    entries: List[FileEntry] = []
    for line in blob.decode("utf-8", errors="replace").splitlines():
        if not line:
            continue
        path, name, is_dir, size = line.split("\t")
        entries.append(FileEntry(path, name, is_dir == "1", int(size)))
    return ScanSnapshot(ResourceType.FILE, view=view, entries=entries)


def automated_winpe_vm_scan(machine: Machine,
                            noise_filter: Optional[NoiseFilter] = None
                            ) -> DetectionReport:
    """The CD-carried VM flow: hook, boot, collect, power down, diff."""
    if machine.powered_on:
        # The user booted from the GhostBuster CD: the suspect OS is down.
        machine.shutdown()

    # Host side (WinPE): plant the auto-start scan hook on the boot drive.
    volume = machine.volume
    if not volume.exists(GB_SCANNER_EXE):
        volume.create_file(GB_SCANNER_EXE, b"MZgbscan")
    machine.register_program(GB_SCANNER_EXE, _guest_scan_main)
    machine.registry.set_value(RUNONCE_KEY, "GhostBusterScan",
                               GB_SCANNER_EXE)

    # Boot the suspect drive inside the VM: ASEPs (including any
    # ghostware's) run, then our RunOnce scanner writes its result file.
    machine.boot()
    machine.shutdown()   # guest notified completion → "power down"

    # Host side again: grab the released drive, read the guest's scan.
    parser = MftParser(machine.disk.read_bytes)
    try:
        blob = parser.read_file_content(SCAN_RESULT_PATH)
    except Exception as exc:
        raise ScanError("guest scan result missing") from exc
    lie = _deserialize_snapshot(blob, view="vm-guest-win32")
    truth = outside_file_scan(machine.disk, machine.clock, view="vm-host")

    report = DetectionReport(machine.name, mode="winpe-vm")
    findings = cross_view_diff(lie, truth)
    findings = (noise_filter or NoiseFilter()).apply(findings)
    # Our own planted artifacts are not suspects.
    report.findings = [
        finding for finding in findings
        if finding.entry.path.casefold() not in
        (SCAN_RESULT_PATH.casefold(), GB_SCANNER_EXE.casefold())]
    report.snapshots = [lie, truth]
    return report


def _guest_scan_main(machine: Machine, process) -> None:
    """Runs inside the VM guest: high-level scan, saved to the drive."""
    snapshot = high_level_file_scan(machine, process=process)
    blob = _serialize_snapshot(snapshot)
    volume = machine.volume
    if volume.exists(SCAN_RESULT_PATH):
        volume.write_file(SCAN_RESULT_PATH, blob)
    else:
        volume.create_file(SCAN_RESULT_PATH, blob)
