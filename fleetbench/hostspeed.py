"""Host-speed reference: a fixed stdlib workload timed beside the program.

The benchmark host is shared; its speed drifts by a third and more over
seconds to minutes, which moves every timing of a run together (ten
same-code runs spread 0.2-0.4 of their median as timed).  A short,
fixed, pure-stdlib workload — JSON round trips, ``struct`` record
parsing and small-object building, the interpreter work the fleet does
— is timed around and inside every measured interval (see
``probe.py``; distributed epochs, whose work runs in the agents, are
left as timed).  Each interval is scaled by ``NOMINAL_S / median(its
reference samples)``: it reads as seconds on a host where one reference
sample takes ``NOMINAL_S``.  The reference never touches the program,
so a change to the program moves the scaled times as it moves the raw
ones; the host's drift largely cancels.
"""

from __future__ import annotations

import json
import statistics
import struct
import sys
import time
from typing import List

# Roughly the median reference sample on the 2-core benchmark host.
NOMINAL_S = 0.002

_DOC = {"machine": "fleet-000", "epoch": 3, "verdict": "clean",
        "findings": 0, "finding_ids": ["file:\\windows\\a.exe", "b"],
        "scan_seconds": 12.5, "skipped": True, "baseline_id": "0" * 16}
_RECORD = struct.Struct("<IHHQ")
_BLOB = bytes(range(256)) * 128


class _Entry:
    __slots__ = ("path", "size", "folded")

    def __init__(self, path: str, size: int):
        self.path = path
        self.size = size
        self.folded = path.casefold()


def reference_sample() -> float:
    """Seconds for one pass of the fixed reference workload: JSON round
    trips (journals, wire), ``struct`` record parsing (MFT, hives) and
    small-object building (snapshots).

    The pass holds the GIL throughout: samples taken inside an epoch
    run beside the coordinator's worker threads, and a hand-off to one
    of them mid-pass would time the workers, not the host.
    """
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1.0)
    try:
        return _timed_pass()
    finally:
        sys.setswitchinterval(interval)


def _timed_pass() -> float:
    started = time.perf_counter()
    total = 0
    for __ in range(120):
        text = json.dumps(_DOC, sort_keys=True)
        total += len(json.loads(text))
    for offset in range(0, len(_BLOB) - _RECORD.size, 64):
        total += _RECORD.unpack_from(_BLOB, offset)[0] & 1
    entries = {}
    for number in range(600):
        entry = _Entry(f"\\Windows\\System32\\file{number}.dll", number)
        entries[entry.folded] = entry
    total += len(entries)
    elapsed = time.perf_counter() - started
    if total < 0:       # keeps the work's result live
        raise AssertionError(total)
    return elapsed


def speed_factor(samples: List[float]) -> float:
    """Multiply a raw timing by this to get nominal-host seconds."""
    return NOMINAL_S / statistics.median(samples)
