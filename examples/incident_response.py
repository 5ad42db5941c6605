#!/usr/bin/env python3
"""Incident response: when the inside-the-box scan isn't enough.

A sufficiently privileged ghostware strain can interfere with the
low-level scan itself (the paper's Section-2 caveat): this machine runs
"DeepGhost", which detours NtDll *and* scrubs its MFT records out of the
kernel's raw-disk reads.  The daily inside-the-box scan comes back clean
— so the responder escalates to the outside-the-box workflow: crash-dump
the kernel, boot the WinPE CD, scan the physical disk from the clean OS,
and filter the reboot-window noise.

Run:  python examples/incident_response.py
"""

from repro import GhostBuster, Machine
from repro.ghostware import LowLevelInterferenceGhost
from repro.workloads import attach_standard_services


def main() -> None:
    machine = Machine("suspect-laptop", disk_mb=512)
    machine.boot()
    attach_standard_services(machine)   # AV + System Restore churn

    ghost = LowLevelInterferenceGhost()
    ghost.install(machine)
    print("infected with DeepGhost (NtDll detours + raw-read scrubbing)\n")

    print("=== step 1: the daily inside-the-box scan ===")
    inside = GhostBuster(machine, advanced=True).inside_scan()
    print(inside.summary())
    assert inside.is_clean, "DeepGhost defeats the inside-the-box scan"
    print(">>> clean report, but the user still reports symptoms...\n")

    print("=== step 2: escalate to the outside-the-box workflow ===")
    ghostbuster = GhostBuster(machine, advanced=True)
    outside = ghostbuster.outside_scan(background_gap=120)
    print(outside.summary())

    hidden = {finding.entry.path for finding in outside.hidden_files()}
    assert hidden == {"\\Windows\\deepghost.exe"}, \
        "the clean OS reads the physical disk below the compromised kernel"

    print("\n=== step 3: triage the noise ===")
    for finding in outside.noise():
        print(f"  benign churn: {finding.entry.path} "
              f"({finding.noise_reason})")
    print(f"\n{len(outside.noise())} reboot-window false positives "
          "classified automatically; "
          f"{len(outside.hidden_files())} genuine hidden artifacts.")

    print("\nVerdict: INFECTED — DeepGhost exposed by the clean-boot scan.")


if __name__ == "__main__":
    main()
