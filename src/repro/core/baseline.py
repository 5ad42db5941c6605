"""Persistent per-machine scan baselines for delta fleet sweeps.

The paper's deployment story is *periodic* scanning: the same fleet,
swept again and again, with almost every machine unchanged between
sweeps.  A :class:`BaselineStore` keeps, per machine, the last verdict
and the disk generation it was computed at, persisted as JSONL on the
operator's side (never on the suspect machines).  Each fleet epoch
(:class:`~repro.fleet.FleetCoordinator`) then:

* skips machines whose disk generation still matches the stored
  baseline, rehydrating the stored report instead of re-scanning;
* re-scans the rest (incrementally, via the change-journal cache
  repair) and advances their baselines;
* uses the stored per-machine scan timings to dispatch the historically
  slowest machines first (longest-processing-time-first keeps the
  epoch's makespan near optimal).

Storage is append-only JSONL — one record per baseline update, latest
record per machine wins — so a torn write can lose at most the final
line, and that loss degrades to one extra full scan, never to a wrong
verdict.

The file gains one line per machine per epoch forever;
:meth:`BaselineStore.compact` rewrites it down to the newest record per
machine.  Compaction is crash-safe: the survivors are written to a temp
file, fsynced, atomically renamed over the original, and the directory
is fsynced, so a kill or power cut at any instant leaves either the old
file or the new one, never a half of each.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.diff import DetectionReport
from repro.core.reporting import report_from_dict, report_to_dict
from repro.telemetry.journal_io import (append_journal, iter_journal,
                                       replace_journal)
from repro.telemetry.metrics import global_metrics

logger = logging.getLogger(__name__)

BASELINE_FILE = "baselines.jsonl"


@dataclass(frozen=True)
class MachineBaseline:
    """One machine's stored verdict and the state it was computed at."""

    machine: str
    baseline_id: str
    disk_generation: int
    scan_seconds: float
    report: Dict                    # report_to_dict() document
    # Caller-owned rider (fleet escalation provenance and the like);
    # round-trips through the JSONL but never affects the baseline id.
    extra: Dict = field(default_factory=dict)

    def rehydrate(self, mode: Optional[str] = None) -> DetectionReport:
        """Rebuild the stored report; ``mode`` overrides provenance."""
        document = dict(self.report)
        if mode is not None:
            document = dict(document, mode=mode)
        return report_from_dict(document)


def _baseline_id(machine: str, disk_generation: int, report: Dict) -> str:
    """Deterministic id: same machine, generation and verdict → same id."""
    digest = hashlib.sha256(
        json.dumps(report, sort_keys=True).encode("utf-8")).hexdigest()
    return f"{machine}@g{disk_generation}-{digest[:12]}"


class BaselineStore:
    """JSONL-backed map of machine name → latest :class:`MachineBaseline`."""

    def __init__(self, directory: str):
        self.directory = directory
        self.path = os.path.join(directory, BASELINE_FILE)
        self._lock = threading.Lock()
        self._baselines: Dict[str, MachineBaseline] = {}
        self._load()

    def _load(self) -> None:
        for line in iter_journal(self.path, on_torn=self._warn_torn):
            try:
                baseline = MachineBaseline(
                    machine=line.record["machine"],
                    baseline_id=line.record["baseline_id"],
                    disk_generation=line.record["disk_generation"],
                    scan_seconds=line.record.get("scan_seconds", 0.0),
                    report=line.record["report"],
                    extra=line.record.get("extra", {}),
                )
            except (KeyError, TypeError) as exc:
                # A torn tail line loses one update, not the store.
                self._warn_torn(line.line_no, str(exc))
                continue
            self._baselines[baseline.machine] = baseline

    def _warn_torn(self, line_no: int, reason: str, *_) -> None:
        logger.warning("skipping torn baseline line %d in %s: %s",
                       line_no, self.path, reason)

    def get(self, machine: str) -> Optional[MachineBaseline]:
        with self._lock:
            return self._baselines.get(machine)

    def machines(self) -> List[str]:
        with self._lock:
            return sorted(self._baselines)

    def scan_seconds(self, machine: str) -> Optional[float]:
        """Historical scan cost, for longest-first dispatch ordering."""
        baseline = self.get(machine)
        return baseline.scan_seconds if baseline is not None else None

    def put(self, machine: str, report: DetectionReport,
            disk_generation: int,
            scan_seconds: float = 0.0,
            extra: Optional[Dict] = None) -> MachineBaseline:
        """Record a fresh verdict; appends one JSONL line and returns it."""
        document = report_to_dict(report)
        baseline = MachineBaseline(
            machine=machine,
            baseline_id=_baseline_id(machine, disk_generation, document),
            disk_generation=disk_generation,
            scan_seconds=scan_seconds,
            report=document,
            extra=dict(extra or {}),
        )
        with self._lock:
            append_journal(self.path, self._record(baseline))
            self._baselines[machine] = baseline
        return baseline

    @staticmethod
    def _record(baseline: MachineBaseline) -> Dict:
        return {
            "machine": baseline.machine,
            "baseline_id": baseline.baseline_id,
            "disk_generation": baseline.disk_generation,
            "scan_seconds": baseline.scan_seconds,
            "report": baseline.report,
            "extra": baseline.extra,
        }

    def compact(self) -> Dict[str, int]:
        """Rewrite the JSONL down to the newest record per machine.

        Crash-safe via :func:`~repro.telemetry.journal_io.replace_journal`.
        Returns ``{"records_before": N, "records_after": M}``.
        """
        with self._lock:
            if not os.path.exists(self.path):
                return {"records_before": 0, "records_after": 0}
            with open(self.path, "r", encoding="utf-8") as handle:
                before = sum(1 for line in handle if line.strip())
            after = replace_journal(self.path, (
                json.dumps(self._record(self._baselines[machine]),
                           sort_keys=True)
                for machine in sorted(self._baselines)))
        global_metrics().incr("fleet.baseline.compactions")
        global_metrics().incr("fleet.baseline.compacted_records",
                              max(0, before - after))
        return {"records_before": before, "records_after": after}
