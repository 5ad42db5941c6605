"""Sweep trace record/replay: identical workloads across PRs and runs.

Perf numbers are only comparable when the workload is literally the
same, so a :data:`trace <TRACE_VERSION>` is a JSONL journal (written
and read with :mod:`repro.telemetry.journal_io`, like every other
journal in the system) capturing everything that *drives* a sweep:

* ``trace-header`` — the :class:`~repro.workloads.fleetgen.FleetProfile`
  (population seeds and distributions), the optional
  :class:`~repro.workloads.sampling.SamplingPolicy`, the fault-plan
  seed/rate, worker count, and epoch count;
* ``trace-epoch`` (one per epoch) — the concrete churn ops and
  infection events that were applied before the epoch ran, in the
  exact serialized form :func:`~repro.workloads.fleetgen.apply_ops` /
  :func:`~repro.workloads.fleetgen.apply_infections` consume, so
  record and replay mutate machines identically by construction;
* ``trace-footer`` — the canonical digest of everything above.

Replay rebuilds the fleet from the profile (byte-identical disks for
the same seed), applies each epoch's recorded events verbatim, and runs
the same :class:`~repro.fleet.coordinator.FleetCoordinator` epochs.
With no ambient chaos plan, two replays of one trace produce
element-identical verdicts *and* byte-identical ``epochs.jsonl``
journals.  (Under a process-wide chaos plan the per-site fault
streams keep their draw positions across runs in the same process, so
only the semantic verdict keys are comparable — same caveat as the
coordinator's resume guarantee.)
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import FleetError
from repro.faults.plan import FaultPlan
from repro.fleet.aggregator import FleetAggregator, MachineVerdict
from repro.fleet.coordinator import FleetCoordinator
from repro.telemetry.journal_io import append_journal, iter_journal
from repro.workloads.fleetgen import (FleetProfile, FleetWorkload,
                                      apply_infections, apply_ops,
                                      apply_stealth)
from repro.workloads.sampling import SamplingPolicy

TRACE_VERSION = 1


def canonical_json(record: Dict) -> str:
    """One record's canonical serialization (sorted keys, no whitespace)."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def trace_digest(records: List[Dict]) -> str:
    """Canonical digest of the header + epoch records (not the footer)."""
    digest = hashlib.sha256()
    for record in records:
        digest.update(canonical_json(record).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def journal_digest(path: str) -> str:
    """Raw byte digest of a journal file (the replay-identity check)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def verdict_key(verdict: MachineVerdict) -> Tuple:
    """The semantic identity of one verdict (excludes timings)."""
    return (verdict.verdict, verdict.findings, verdict.confirmed,
            verdict.confirmed_by, verdict.sampled,
            round(verdict.coverage, 6), verdict.sampling_escalated)


@dataclass
class TraceResult:
    """What one recorded or replayed sweep produced."""

    trace_path: str
    trace_digest: str
    journal_digest: str
    # Per epoch: machine → semantic verdict key.
    verdicts: List[Dict[str, Tuple]] = field(default_factory=list)
    aggregates: List[FleetAggregator] = field(default_factory=list)
    # Ground truth: every machine the trace infected, cumulatively.
    infected: List[str] = field(default_factory=list)

    @property
    def scan_seconds(self) -> float:
        return sum(agg.summary.scan_seconds for agg in self.aggregates)


def _build_coordinator(fleet_dir: str, workload: FleetWorkload,
                       workers: int, sampling: Optional[SamplingPolicy],
                       fault_seed: Optional[int], fault_rate: float,
                       coordinator_kwargs: Optional[Dict]
                       ) -> FleetCoordinator:
    fault_plan = (FaultPlan.tier1(fault_seed, rate=fault_rate)
                  if fault_seed is not None else None)
    kwargs = dict(coordinator_kwargs or {})
    kwargs.setdefault("console_index", False)
    return FleetCoordinator(fleet_dir, workload.machines.values(),
                            workers=workers, sampling=sampling,
                            fault_plan=fault_plan, **kwargs)


def record_sweep(trace_path: str, profile: FleetProfile, fleet_dir: str,
                 epochs: int, sampling: Optional[SamplingPolicy] = None,
                 workers: int = 2, fault_seed: Optional[int] = None,
                 fault_rate: float = 0.01,
                 coordinator_kwargs: Optional[Dict] = None) -> TraceResult:
    """Generate, run, and record ``epochs`` sweeps as a replayable trace."""
    workload = FleetWorkload(profile)
    coordinator = _build_coordinator(fleet_dir, workload, workers, sampling,
                                     fault_seed, fault_rate,
                                     coordinator_kwargs)
    header = {"type": "trace-header", "version": TRACE_VERSION,
              "profile": profile.to_dict(), "epochs": int(epochs),
              "workers": int(workers),
              "sampling": sampling.to_dict() if sampling else None,
              "fault_seed": fault_seed, "fault_rate": fault_rate}
    append_journal(trace_path, header)
    body = [header]
    result = TraceResult(trace_path=trace_path, trace_digest="",
                         journal_digest="")
    infected = set()
    first = coordinator.next_epoch_number()
    for epoch in range(first, first + int(epochs)):
        events = workload.apply_epoch(epoch)
        record = {"type": "trace-epoch", "epoch": epoch,
                  "ops": events["ops"],
                  "infections": events["infections"]}
        if events.get("stealth"):
            # Only when the adversary moved: stealth-free traces keep
            # their pre-stealth digests.
            record["stealth"] = events["stealth"]
        append_journal(trace_path, record)
        body.append(record)
        infected.update(event["machine"] for event in events["infections"])
        aggregate = coordinator.run_epoch()
        result.aggregates.append(aggregate)
        result.verdicts.append({v.machine: verdict_key(v)
                                for v in aggregate.verdicts})
    result.trace_digest = trace_digest(body)
    append_journal(trace_path, {"type": "trace-footer",
                                "digest": result.trace_digest,
                                "epochs_recorded": int(epochs)})
    result.journal_digest = journal_digest(coordinator.epochs_path)
    result.infected = sorted(infected)
    return result


def load_trace(trace_path: str
               ) -> Tuple[Dict, List[Dict], Optional[Dict]]:
    """(header, epoch records in order, footer-or-None) from a trace file."""
    header: Optional[Dict] = None
    epochs: List[Dict] = []
    footer: Optional[Dict] = None
    for line in iter_journal(trace_path):
        record = line.record
        kind = record.get("type")
        if kind == "trace-header":
            header = record
        elif kind == "trace-epoch":
            epochs.append(record)
        elif kind == "trace-footer":
            footer = record
    if header is None:
        raise FleetError(f"{trace_path!r} has no trace-header record")
    if int(header.get("version", 0)) != TRACE_VERSION:
        raise FleetError(
            f"trace version {header.get('version')!r} unsupported "
            f"(expected {TRACE_VERSION})")
    epochs.sort(key=lambda record: int(record.get("epoch", 0)))
    return header, epochs, footer


def replay_sweep(trace_path: str, fleet_dir: str,
                 coordinator_kwargs: Optional[Dict] = None) -> TraceResult:
    """Re-run a recorded trace's exact workload against a fresh fleet.

    The fleet is rebuilt from the recorded profile (same seeds → same
    disks), each epoch's recorded ops/infections are applied verbatim,
    and the trace digest is verified against the recorded footer.
    """
    header, epoch_records, footer = load_trace(trace_path)
    digest = trace_digest(
        [{key: value for key, value in header.items()}]
        + [{key: value for key, value in record.items()}
           for record in epoch_records])
    if footer is not None and footer.get("digest") not in (None, digest):
        raise FleetError(
            f"trace digest mismatch for {trace_path!r}: recorded "
            f"{footer.get('digest')!r}, recomputed {digest!r}")

    profile = FleetProfile.from_dict(header["profile"])
    workload = FleetWorkload(profile)
    sampling = (SamplingPolicy.from_dict(header["sampling"])
                if header.get("sampling") else None)
    coordinator = _build_coordinator(
        fleet_dir, workload, int(header.get("workers", 2)), sampling,
        header.get("fault_seed"), float(header.get("fault_rate", 0.01)),
        coordinator_kwargs)

    result = TraceResult(trace_path=trace_path, trace_digest=digest,
                         journal_digest="")
    infected = set()
    ghosts: Dict = {}
    for record in epoch_records:
        apply_ops(workload.machines, record.get("ops", []))
        apply_infections(workload.machines, record.get("infections", []),
                         ghosts=ghosts)
        apply_stealth(workload.machines, record.get("stealth", []), ghosts)
        infected.update(event["machine"]
                        for event in record.get("infections", []))
        aggregate = coordinator.run_epoch()
        result.aggregates.append(aggregate)
        result.verdicts.append({v.machine: verdict_key(v)
                                for v in aggregate.verdicts})
    result.journal_digest = journal_digest(coordinator.epochs_path)
    result.infected = sorted(infected)
    return result
