"""The per-machine scan body, shared by coordinator workers and agents.

One epoch's unit of work is the same whether it runs on a thread inside
the coordinator process or inside a remote scan agent: boot if needed,
run the cross-view inside scan (for a sample-tier lease, first over the
seeded directory strata alone), escalate the machines the
:class:`~repro.fleet.policy.EscalationPolicy` picks over the same
resources, and capture the disk generation *after* the scans: the
escalation's reboot writes the disk (and, with processes among the
resources, so does its crash dump), so a generation captured before
the scans would never match the disk again and a confirmed machine
would be rescanned every epoch instead of skipping on its stored
verdict.

Extracting the body here is what makes the distributed mode's
element-identical-verdicts guarantee checkable: the agent executes
byte-for-byte the same scan sequence the in-process worker would, with
the same :class:`ScanSettings` (the coordinator's one copy, which a
forked agent inherits).  Because fault streams are seeded per
``(site, machine)`` — independent of which process draws them — a
machine's first scan in a process draws the same faults wherever it
runs, so a machine scanned by agent 3 after a kill -9 produces the
same verdict the uninterrupted single-process sweep records.  The
position in each stream lives in the process's own copy of the plan:
the single-process plan carries it on across epochs, while a machine
that moves to another (or a respawned) agent starts again at draw
zero, so later epochs under a fault plan can differ.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.anomaly import check_mass_hiding
from repro.core.baseline import MachineBaseline
from repro.core.diff import DetectionReport
from repro.core.ghostbuster import GhostBuster
from repro.core.noise import NoiseFilter
from repro.core.scanners.files import raw_file_view
from repro.faults import context as faults_context
from repro.faults.plan import FaultPlan
from repro.fleet.aggregator import MachineVerdict
from repro.fleet.policy import (EscalationPolicy, campaign_fingerprints,
                                finding_ids)
from repro.machine import Machine
from repro.telemetry import context as telemetry_context


@dataclass(frozen=True)
class ScanSettings:
    """Everything a worker scans with, owned by the coordinator.

    The coordinator builds the one copy from its own arguments and every
    worker scans with it: the in-process drain directly, a forked agent
    through the fork (inherited, never pickled or re-described), so
    what a scan is configured with never depends on the process model.
    """

    policy: EscalationPolicy = field(default_factory=EscalationPolicy)
    noise_filter: NoiseFilter = field(default_factory=NoiseFilter)
    resources: Tuple[str, ...] = ("files", "registry")
    fault_plan: Optional[FaultPlan] = None
    # The sample tier's strata (a repro.workloads.SamplingPolicy).
    sampling: Optional[object] = None
    # Scan-until-stable and the stealth counter-moves (docs/adversary.md).
    stabilize_rounds: int = 1
    flag_unstable: bool = False
    scan_order_jitter: Optional[int] = None


@dataclass
class ScanOutcome:
    """Everything one fresh scan produced, before the checkpoint.

    The caller owns the checkpoint: the coordinator's worker loop hands
    the outcome to ``FleetCoordinator._checkpoint`` directly, while an
    agent ships it over the wire and the controller hands it to the
    same checkpoint — either way the write order (put → journal → ack)
    is enforced in exactly one process.
    """

    report: DetectionReport
    scan_seconds: float
    disk_generation: int
    escalated: bool
    confirmed: bool
    confirmed_by: Optional[str]
    finding_ids: List[str] = field(default_factory=list)
    mass_hiding: bool = False
    sampled: bool = False
    coverage: float = 1.0
    sampling_escalated: bool = False
    # Fuzzy technique+layer fingerprints (rotation-stable); derived from
    # the report, so baseline riders need not store them.
    campaign_fingerprints: List[str] = field(default_factory=list)

    def extra(self, epoch: int) -> Dict:
        """The baseline rider that lets a later skip rehydrate verdicts."""
        return {"escalated": self.escalated, "confirmed": self.confirmed,
                "confirmed_by": self.confirmed_by,
                "finding_ids": list(self.finding_ids),
                "mass_hiding": self.mass_hiding, "epoch": epoch,
                "sampled": self.sampled, "coverage": self.coverage,
                "sampling_escalated": self.sampling_escalated}

    def verdict(self, machine: str, epoch: int) -> MachineVerdict:
        """The scan's verdict; the checkpoint sets its baseline id."""
        report = self.report
        return MachineVerdict(
            machine=machine, epoch=epoch,
            verdict="clean" if report.is_clean else "infected",
            findings=sum(1 for f in report.findings if not f.is_noise),
            noise=sum(1 for f in report.findings if f.is_noise),
            scanned=True, skipped=False,
            escalated=self.escalated, confirmed=self.confirmed,
            confirmed_by=self.confirmed_by,
            scan_seconds=self.scan_seconds,
            finding_ids=list(self.finding_ids),
            mass_hiding=self.mass_hiding,
            sampled=self.sampled, coverage=self.coverage,
            sampling_escalated=self.sampling_escalated,
            campaign_fingerprints=list(self.campaign_fingerprints))


def _sampled_pass(ghostbuster: GhostBuster, epoch: int,
                  settings: ScanSettings) -> Tuple[DetectionReport, float]:
    """The inside scan over the epoch's seeded directory strata.

    The strata are chosen from the raw file view, read in the machine's
    fault scope; the registry stratum is scanned whole, and processes
    and modules are left to the full scans the rotation and escalation
    run.  Returns the report and its coverage: the share of the
    machine's raw file entries and ASEP hooks that a truth view
    checked.  A FAILED layer has no truth view: a FAILED file layer's
    strata count as unchecked, and a FAILED registry layer's hooks,
    never read, drop out of the count.
    """
    machine = ghostbuster.machine
    resources = [r for r in settings.resources
                 if r in ("files", "registry")]
    namespace = 0
    directories = None
    if "files" in resources:
        with faults_context.machine_scope(settings.fault_plan, machine):
            __, entries, __ = raw_file_view(machine.kernel.disk_port,
                                            machine.clock)
        namespace = len(entries)
        strata = {"\\": "\\"}
        strata.update((entry.path.casefold(), entry.path)
                      for entry in entries if entry.is_directory)
        directories = [strata[folded] for folded in
                       settings.sampling.choose_strata(machine.name, epoch,
                                                       list(strata))]
    report = ghostbuster.inside_scan(resources, directories=directories)
    report.mode = "inside-sampled"
    truths = {snapshot.view: len(snapshot) for snapshot in report.snapshots}
    hooks = truths.get("raw-hive", 0)
    scope = namespace + hooks
    checked = truths.get("raw-mft", 0) + hooks
    return report, round(checked / scope, 6) if scope else 1.0


def perform_machine_scan(machine: Machine, epoch: int,
                         settings: ScanSettings,
                         span_clock=None,
                         sampled: bool = False) -> ScanOutcome:
    """Boot-if-needed, inside scan, optional escalation; no writes.

    ``span_clock`` picks which clock the telemetry span charges (the
    coordinator passes the fleet clock; an agent has only the
    machine's own).  The confirmation runs under the scan's own noise
    filter and fault plan.

    A sample-tier lease (``sampled``) first runs the same inside scan
    over the seeded strata of ``settings.sampling``.  A pass with no
    non-noise finding is the verdict, carrying its coverage; any
    finding goes on to the full scan and escalation below, timed on
    the same stopwatch, so escalation is never cheaper than having
    scanned fully in the first place.
    """
    if not machine.powered_on:
        machine.boot()
    stopwatch = machine.clock.stopwatch()
    ghostbuster = GhostBuster(machine, advanced=True,
                              noise_filter=settings.noise_filter,
                              fault_plan=settings.fault_plan,
                              stabilize_rounds=settings.stabilize_rounds,
                              flag_unstable=settings.flag_unstable,
                              scan_order_jitter=settings.scan_order_jitter)
    with telemetry_context.current_tracer().span(
            "fleet.scan", clock=span_clock or machine.clock,
            machine=machine.name, epoch=epoch):
        if sampled:
            report, coverage = _sampled_pass(ghostbuster, epoch, settings)
            if report.is_clean:
                return ScanOutcome(report=report,
                                   scan_seconds=stopwatch.elapsed(),
                                   disk_generation=machine.disk.generation,
                                   escalated=False, confirmed=False,
                                   confirmed_by=None, sampled=True,
                                   coverage=coverage)
        report = ghostbuster.inside_scan(resources=settings.resources)
    escalated = confirmed = False
    confirmed_by = None
    policy = settings.policy
    if policy.should_escalate(report):
        outcome = policy.confirm(machine, report, settings.noise_filter,
                                 settings.fault_plan, settings.resources)
        escalated = True
        confirmed = outcome.confirmed
        confirmed_by = outcome.confirmed_by
        if confirmed and report.is_clean:
            # Only the RIS sweep boots a clean machine: the inside view
            # was blinded, so the outside report carries the verdict.
            report = outcome.outside_report
    # Generation is captured *after* the scans; see module docstring.
    scan_seconds = stopwatch.elapsed()
    return ScanOutcome(report=report, scan_seconds=scan_seconds,
                       disk_generation=machine.disk.generation,
                       escalated=escalated, confirmed=confirmed,
                       confirmed_by=confirmed_by,
                       finding_ids=finding_ids(report),
                       mass_hiding=check_mass_hiding(report) is not None,
                       sampling_escalated=sampled,
                       campaign_fingerprints=campaign_fingerprints(report))


def skip_verdict(baseline: MachineBaseline, epoch: int) -> MachineVerdict:
    """Rehydrate a stored verdict for a generation-matched machine."""
    report = baseline.rehydrate(mode="fleet-skip")
    extra = baseline.extra
    return MachineVerdict(
        machine=baseline.machine, epoch=epoch,
        verdict="clean" if report.is_clean else "infected",
        findings=sum(1 for f in report.findings if not f.is_noise),
        noise=sum(1 for f in report.findings if f.is_noise),
        scanned=False, skipped=True,
        escalated=bool(extra.get("escalated")),
        confirmed=bool(extra.get("confirmed")),
        confirmed_by=extra.get("confirmed_by"),
        baseline_id=baseline.baseline_id,
        scan_seconds=0.0,
        finding_ids=list(extra.get("finding_ids", [])),
        mass_hiding=bool(extra.get("mass_hiding")),
        sampled=bool(extra.get("sampled")),
        coverage=float(extra.get("coverage", 1.0)),
        sampling_escalated=bool(extra.get("sampling_escalated")),
        campaign_fingerprints=campaign_fingerprints(report))
