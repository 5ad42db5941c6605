"""Stratified sampled scanning: recall traded for scan-seconds, honestly.

MIMOSA-style covering for the fleet service: at scale, most of every
epoch is spent exhaustively cross-view diffing machines that almost
certainly hide nothing.  A :class:`SamplingPolicy` splits each epoch
two ways:

* **across machines** — risky (prior detections / failures) and
  never-scanned machines always get the full scan; everyone else gets a
  cheap sampled pass, with a deterministic rotation guaranteeing every
  machine a full scan every ``full_every`` epochs so sampling error
  cannot compound forever;
* **within a machine** — the registry (ASEP) stratum is *always*
  scanned in full, because the paper's core persistence argument says
  ghostware that survives a reboot must hook an ASEP, and hive scans
  are cheap next to file scans; the file namespace is stratified by
  parent directory and only a seeded ``file_rate`` share of directories
  is cross-view diffed (one hooked Win32 listing per sampled directory
  against the raw-MFT truth for the same directories).

Every sampled entity is charged honest :mod:`repro.core.costmodel`
time — per listed entry on the API side, per parsed record and diffed
identity on the raw side — so the measured scan-seconds reduction is
the cost model's answer, not an accounting trick.  Any non-noise
discrepancy in a sampled stratum escalates the machine to the existing
full scan + :class:`~repro.fleet.policy.EscalationPolicy` pipeline.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import costmodel
from repro.core.diff import (DetectionReport, Finding, ScanConfidence,
                             cross_view_diff)
from repro.core.noise import NoiseFilter
from repro.core.scanners import files as file_scans
from repro.core.scanners import registry as registry_scans
from repro.core.snapshot import FileEntry, ResourceType
from repro.faults import context as faults_context
from repro.faults.plan import SITE_WINAPI_ENUM, FaultPlan
from repro.machine import Machine
from repro.ntfs.constants import MFT_RECORD_SIZE
from repro.telemetry import context as telemetry_context
from repro.telemetry.metrics import global_metrics

TIER_FULL = "full"
TIER_SAMPLE = "sample"


@dataclass(frozen=True)
class SamplingPolicy:
    """Knobs for the two-level stratified sampling design."""

    seed: int = 0
    file_rate: float = 0.25          # share of directory strata sampled
    full_every: int = 8              # rotation: full scan every N epochs
    full_staleness: float = 1000.0   # ≥ this staleness → always full
    min_strata: int = 1

    def to_dict(self) -> Dict:
        return {"seed": self.seed, "file_rate": self.file_rate,
                "full_every": self.full_every,
                "full_staleness": self.full_staleness,
                "min_strata": self.min_strata}

    @classmethod
    def from_dict(cls, record: Dict) -> "SamplingPolicy":
        return cls(seed=int(record.get("seed", 0)),
                   file_rate=float(record.get("file_rate", 0.25)),
                   full_every=int(record.get("full_every", 8)),
                   full_staleness=float(record.get("full_staleness",
                                                   1000.0)),
                   min_strata=int(record.get("min_strata", 1)))

    # -- machine-level stratification --------------------------------------------

    def _rotation_slot(self, machine: str) -> int:
        digest = hashlib.sha256(
            f"{self.seed}:{machine}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") % max(1, self.full_every)

    def assign(self, plan: Sequence, epoch: int) -> Dict[str, str]:
        """machine → tier for one epoch, from the scheduler's plan.

        Deterministic in (policy seed, epoch, machine name) and the
        plan's score components only — independent of iteration order —
        so a resumed coordinator recomputing tiers from the journaled
        epoch-start record agrees with the dead one.
        """
        tiers: Dict[str, str] = {}
        for entry in plan:
            if (entry.risk > 0
                    or entry.staleness >= self.full_staleness
                    or self._rotation_slot(entry.machine)
                    == epoch % max(1, self.full_every)):
                tiers[entry.machine] = TIER_FULL
            else:
                tiers[entry.machine] = TIER_SAMPLE
        return tiers

    # -- within-machine strata ---------------------------------------------------

    def choose_strata(self, machine: str, epoch: int,
                      directories: Sequence[str]) -> List[str]:
        """The seeded subset of directory strata to cross-view this epoch."""
        ordered = sorted(directories)
        if not ordered:
            return []
        count = max(self.min_strata,
                    int(round(self.file_rate * len(ordered))))
        count = min(count, len(ordered))
        rng = random.Random(f"{self.seed}:{epoch}:{machine}:files")
        return sorted(rng.sample(ordered, count))


@dataclass
class SampledScan:
    """One sampled pass's evidence, before any escalation decision."""

    report: DetectionReport
    scan_seconds: float
    coverage: float                  # share of entities cross-view checked
    sampled_entities: int
    total_entities: int
    strata_sampled: int
    strata_total: int

    @property
    def escalate(self) -> bool:
        """A sampled-stratum discrepancy buys the machine a full scan."""
        return not self.report.is_clean


def _list_directory(machine: Machine, scanner, directory: str
                    ) -> List[FileEntry]:
    """One *non-recursive* hooked Win32 listing of one directory.

    Unlike :func:`~repro.core.scanners.files.high_level_file_scan` this
    deliberately does not recurse: a stratum is exactly one directory's
    children, so a file belongs to exactly one stratum and the sampled
    cost is proportional to the sampled namespace, not the subtree.
    """
    def run() -> List[FileEntry]:
        faults_context.maybe_inject(SITE_WINAPI_ENUM, clock=machine.clock,
                                    scope=machine.name)
        entries: List[FileEntry] = []
        handle, stat = scanner.call("kernel32", "FindFirstFile", directory)
        while stat is not None:
            entries.append(FileEntry(stat.path, stat.name,
                                     stat.is_directory, stat.size))
            stat = scanner.call("kernel32", "FindNextFile", handle)
        scanner.call("kernel32", "FindClose", handle)
        return entries

    return file_scans._retry_enumeration(f"scan.files.sampled:{directory}",
                                         run)


def _parent_dir(path: str) -> str:
    head = path.rsplit("\\", 1)[0]
    return head if head else "\\"


def _sampled_file_diff(machine: Machine, epoch: int,
                       policy: SamplingPolicy
                       ) -> Tuple[List[Finding], Dict]:
    """Cross-view diff restricted to the sampled directory strata."""
    __, truth_entries, __ = file_scans.raw_file_view(
        machine.kernel.disk_port, machine.clock)

    directories: Dict[str, str] = {"\\": "\\"}
    for entry in truth_entries:
        if entry.is_directory:
            directories[entry.path.casefold()] = entry.path
    chosen = policy.choose_strata(machine.name, epoch,
                                  list(directories.keys()))
    chosen_set = set(chosen)

    scanner = file_scans.ensure_scanner_process(machine)
    lie_identities = set()
    listed = 0
    for folded in chosen:
        for entry in _list_directory(machine, scanner,
                                     directories[folded]):
            lie_identities.add(entry.identity)
            listed += 1

    sampled_truth = [entry for entry in truth_entries
                     if _parent_dir(entry.path).casefold() in chosen_set]
    findings = [Finding(ResourceType.FILE, entry, "win32-api", "raw-mft")
                for entry in sampled_truth
                if entry.identity not in lie_identities]

    high = costmodel.charge_high_file_scan(machine, listed)
    low = costmodel.charge_low_file_scan(
        machine, len(sampled_truth), len(sampled_truth) * MFT_RECORD_SIZE)
    diff = costmodel.charge_diff(machine, len(sampled_truth))
    stats = {"sampled": len(sampled_truth), "total": len(truth_entries),
             "strata_sampled": len(chosen),
             "strata_total": len(directories),
             "duration": high + low + diff}
    return findings, stats


def perform_sampled_scan(machine: Machine, epoch: int,
                         policy: SamplingPolicy,
                         noise_filter: Optional[NoiseFilter] = None,
                         resources: Sequence[str] = ("files", "registry"),
                         fault_plan: Optional[FaultPlan] = None,
                         span_clock=None) -> SampledScan:
    """The cheap cross-view pass: full ASEP stratum + sampled file strata.

    Only the file and registry resources participate; anything else in
    ``resources`` (processes, modules) is covered by the full scans the
    rotation and escalation paths trigger.
    """
    if not machine.powered_on:
        machine.boot()
    noise_filter = noise_filter or NoiseFilter()
    stopwatch = machine.clock.stopwatch()
    findings: List[Finding] = []
    durations: Dict[str, float] = {}
    confidence: Dict[str, ScanConfidence] = {}
    sampled_entities = total_entities = 0
    strata_sampled = strata_total = 0

    with telemetry_context.current_tracer().span(
            "fleet.scan.sampled", clock=span_clock or machine.clock,
            machine=machine.name, epoch=epoch):
        with faults_context.machine_scope(fault_plan, machine):
            if "files" in resources:
                file_findings, stats = _sampled_file_diff(machine, epoch,
                                                          policy)
                findings += file_findings
                durations["files"] = stats["duration"]
                confidence["files"] = ScanConfidence.FULL
                sampled_entities += stats["sampled"]
                total_entities += stats["total"]
                strata_sampled += stats["strata_sampled"]
                strata_total += stats["strata_total"]
            if "registry" in resources:
                lie = registry_scans.high_level_asep_scan(machine)
                truth = registry_scans.low_level_asep_scan(machine)
                findings += cross_view_diff(lie, truth)
                durations["registry"] = lie.duration + truth.duration
                confidence["registry"] = (
                    ScanConfidence.DEGRADED
                    if getattr(truth, "degraded", ())
                    else ScanConfidence.FULL)
                hooks = len(truth.entries)
                sampled_entities += hooks
                total_entities += hooks

    report = DetectionReport(machine_name=machine.name,
                             mode="inside-sampled",
                             findings=noise_filter.apply(findings),
                             durations=durations,
                             confidence=confidence)
    coverage = (sampled_entities / total_entities
                if total_entities else 1.0)
    metrics = global_metrics()
    metrics.incr("fleet.scan.sampled")
    metrics.incr("fleet.scan.sampled_entities", sampled_entities)
    return SampledScan(report=report,
                       scan_seconds=stopwatch.elapsed(),
                       coverage=round(coverage, 6),
                       sampled_entities=sampled_entities,
                       total_entities=total_entities,
                       strata_sampled=strata_sampled,
                       strata_total=strata_total)
