r"""The Section-2 caveat made concrete: interfering with the low-level scan.

"A ghostware program running with sufficient privilege can always try to
defeat the [inside-the-box] solution by interfering with the low-level
scan."  This strain does exactly that: besides Hacker-Defender-style NtDll
detours, its driver filters the kernel's *raw disk port* — the path the
inside-the-box MFT scan reads through — and zeroes any MFT record whose
bytes mention its artifacts.  The inside-the-box diff then comes back
clean, and only the outside-the-box scan (which reads the physical disk
from a clean OS, below the compromised kernel) exposes it.

This is ablation A3's subject.
"""

from __future__ import annotations

from repro.ghostware.base import (Ghostware, patch_file_enum_ntdll,
                                  patch_registry_enum_ntdll)
from repro.machine import Machine
from repro.ntfs.constants import MFT_RECORD_SIZE
from repro.usermode.process import Process
from repro.winapi.services import TYPE_SERVICE

EXE_PATH = "\\Windows\\deepghost.exe"
SERVICE_NAME = "DeepGhost"
TOKEN = "deepghost"
# Bytes of a filtered read lowercased at a time by the MFT scrub.
_SEARCH_WINDOW = 1 << 16


class LowLevelInterferenceGhost(Ghostware):
    """Hides from the API *and* from inside-the-box raw disk reads."""

    name = "DeepGhost"
    technique = "NtDll detours + raw-disk-read interception"

    def _hide(self, text: str) -> bool:
        return TOKEN in text.casefold()

    def _install_persistent(self, machine: Machine) -> None:
        machine.volume.create_file(EXE_PATH, b"MZdeepghost")
        key = f"HKLM\\SYSTEM\\CurrentControlSet\\Services\\{SERVICE_NAME}"
        machine.registry.create_key(key)
        machine.registry.set_value(key, "ImagePath", EXE_PATH)
        machine.registry.set_value(key, "Type", TYPE_SERVICE)
        machine.registry.set_value(key, "Start", 2)
        machine.register_program(EXE_PATH, self._main)
        self.report.hidden_files = [EXE_PATH]
        self.report.hidden_asep_hooks = [f"{key} → {EXE_PATH}"]

    def activate(self, machine: Machine) -> None:
        machine.start_process(EXE_PATH)

    def _main(self, machine: Machine, process: Process) -> None:
        self.infect_everywhere(machine)
        self._intercept_raw_reads(machine)

    def infect_process(self, machine: Machine, process: Process) -> None:
        patch_file_enum_ntdll(process, self._hide, self.name)
        patch_registry_enum_ntdll(process, self._hide, self.name)

    def _intercept_raw_reads(self, machine: Machine) -> None:
        """Scrub our traces out of raw reads through the disk port.

        Two filters: MFT records mentioning our artifacts are zeroed
        (hiding the files from the inside raw file scan), and hive-file
        reads are re-serialized without our Services key (hiding the ASEP
        hook from the inside raw registry scan).  The physical disk —
        what the outside-the-box scan reads — is untouched.
        """
        self._scrub_mft_reads(machine)
        self._scrub_hive_reads(machine)

    def _scrub_mft_reads(self, machine: Machine) -> None:
        """Zero every record slot of a read that names our token.

        A slot (clamped to the read window, from the MFT's start on)
        is zeroed when its bytes hold the UTF-16 token in any ASCII
        case; a match straddling two slots zeroes neither.  The read is
        searched without a per-slot loop and copied only when a slot must
        be zeroed.
        """
        volume = machine.volume
        mft_start = volume.mft_offset
        mft_end = mft_start + volume.max_records * MFT_RECORD_SIZE
        needle = TOKEN.encode("utf-16-le")
        overlap = len(needle) - 1

        def matches(data: bytes):
            """Start offsets of the token in any ASCII case.  Lowercased
            a window at a time, so no region-sized copy is made."""
            for base in range(0, len(data), _SEARCH_WINDOW):
                window = data[base:base + _SEARCH_WINDOW + overlap].lower()
                at = window.find(needle)
                while 0 <= at < _SEARCH_WINDOW:
                    yield base + at
                    at = window.find(needle, at + 1)

        def scrub(offset: int, length: int, data: bytes) -> bytes:
            if offset >= mft_end or offset + length <= mft_start:
                return data
            scrubbed = None
            for start in matches(data):
                slot = (offset + start - mft_start) // MFT_RECORD_SIZE
                if slot < 0 or slot != (offset + start + overlap
                                        - mft_start) // MFT_RECORD_SIZE:
                    continue
                lo = max(mft_start + slot * MFT_RECORD_SIZE - offset, 0)
                hi = min(mft_start + (slot + 1) * MFT_RECORD_SIZE - offset,
                         length)
                if scrubbed is None:
                    scrubbed = bytearray(data)
                scrubbed[lo:hi] = bytes(hi - lo)
            return data if scrubbed is None else scrubbed

        scrub.audit_owner = self.name
        machine.kernel.disk_port.read_filters.append(scrub)

    def _scrub_hive_reads(self, machine: Machine) -> None:
        """Rewrite hive-file reads with our Services key edited out.

        Works when the read delivers the hive from its first byte (the
        common contiguous-file case); fragmented hives would partially
        escape — interference is best-effort, exactly the paper's point
        about the low-level scan being only a truth approximation.
        """
        from repro.registry.hive import Hive

        def scrub(offset: int, length: int, data: bytes) -> bytes:
            if data[:4] != b"regf":
                return data
            try:
                hive = Hive.deserialize(data)
                services = hive.open_key("CurrentControlSet\\Services")
            except Exception:
                return data
            if not services.has_subkey(SERVICE_NAME):
                return data
            services.delete_subkey(SERVICE_NAME)
            rebuilt = hive.serialize()
            if len(rebuilt) > len(data):
                return data
            return rebuilt + b"\x00" * (len(data) - len(rebuilt))

        scrub.audit_owner = self.name
        machine.kernel.disk_port.read_filters.append(scrub)
