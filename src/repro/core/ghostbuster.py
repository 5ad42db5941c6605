r"""The GhostBuster tool facade.

Combines the per-resource scanners into the paper's two workflows:

* :meth:`GhostBuster.inside_scan` — high-level vs low-level snapshots of
  files, ASEP hooks, processes, and modules, diffed inside the running
  (possibly compromised) OS.  Fast enough to run daily; defeated only by
  ghostware that interferes with the raw scan paths themselves.
* :meth:`GhostBuster.outside_scan` — the high-level snapshots are taken
  inside, the machine reboots into a clean WinPE environment, the truth
  is scanned from outside, and the diff (plus noise filtering for the
  reboot-window churn) exposes anything hidden.  Volatile state crosses
  the reboot via a forced kernel crash dump.

``advanced=True`` turns on the thread-table traversal that recovers
DKOM-hidden processes (FU), at both the inside and outside levels.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import replace as dc_replace
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.core import costmodel
from repro.core.diff import (DetectionReport, Finding, ScanConfidence,
                             cross_view_diff)
from repro.core.noise import NoiseFilter
from repro.core.scanners import files as file_scans
from repro.core.scanners import modules as module_scans
from repro.core.scanners import processes as process_scans
from repro.core.scanners import registry as registry_scans
from repro.core.snapshot import ResourceType, ScanSnapshot
from repro.errors import (MachineStateError, MachineUnavailable, ReproError)
from repro.faults import context as faults_context
from repro.faults.plan import FaultPlan
from repro.kernel.crashdump import write_dump
from repro.machine import Machine
from repro.telemetry import Telemetry
from repro.telemetry import context as telemetry_context
from repro.telemetry.metrics import global_metrics
from repro.usermode.process import Process

ALL_RESOURCES = ("files", "registry", "processes", "modules")
DUMP_PATH = "\\Windows\\MEMORY.DMP"

# Which resource class a scan layer's findings belong to (used by the
# scan-until-stable merge to intersect per-layer findings).
_LAYER_RESOURCE = {
    "files": ResourceType.FILE,
    "registry": ResourceType.REGISTRY,
    "processes": ResourceType.PROCESS,
    "modules": ResourceType.MODULE,
}


class GhostBuster:
    """One tool instance bound to one machine."""

    def __init__(self, machine: Machine, advanced: bool = False,
                 noise_filter: Optional[NoiseFilter] = None,
                 scanner_process: Optional[Process] = None,
                 interleave_gap: float = 0.0,
                 telemetry: Optional[Telemetry] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 max_retries: int = 2,
                 stabilize_rounds: int = 1,
                 flag_unstable: bool = False,
                 scan_order_jitter: Optional[int] = None):
        self.machine = machine
        self.advanced = advanced
        self.noise_filter = noise_filter or NoiseFilter()
        self._scanner_process = scanner_process
        # A tool built inside a traced scope (a traced fleet epoch)
        # records into that scope's bundle.
        self.telemetry = (telemetry or telemetry_context.current()
                          or Telemetry.disabled())
        # Section 2: "files may be created in the very small time window
        # between when the high- and low-level scans are taken" — this
        # widens that window (with background services running) so the
        # rare inside-the-box race FPs can be studied.
        self.interleave_gap = interleave_gap
        # Robustness knobs: an explicit fault plan scoped to this
        # machine's scans, the per-layer retry budget, and how many
        # inside-scan rounds to run and intersect (scan-until-stable).
        self.fault_plan = fault_plan
        self.max_retries = max(0, int(max_retries))
        self.stabilize_rounds = max(1, int(stabilize_rounds))
        # Counter-moves against scan-aware adversaries: surface the
        # union of disagreeing stable rounds as UNSTABLE findings, and
        # randomize directory visit order so an evasion episode cannot
        # be tuned to a fixed walk.
        self.flag_unstable = bool(flag_unstable)
        self.scan_order_jitter = scan_order_jitter
        self._file_walks = 0

    # -- resilience plumbing ------------------------------------------------------

    @contextmanager
    def _fault_scope(self):
        """Activate this tool's fault plan around a scan, if one is set.

        The plan is scoped to the machine's name (its own deterministic
        draw streams) with backoff charged to the machine's clock, and a
        disk-read injector is attached for the duration.
        """
        if self.fault_plan is None:
            yield
            return
        self.fault_plan.attach(self.machine)
        try:
            with faults_context.scoped(self.fault_plan,
                                       scope=self.machine.name,
                                       clock=self.machine.clock):
                yield
        finally:
            FaultPlan.detach(self.machine)

    def _run_layer(self, report: DetectionReport, layer: str,
                   fn: Callable[[DetectionReport], None]) -> None:
        """Run one scan layer; degrade instead of aborting the whole scan.

        The layer gets ``max_retries`` fresh attempts on top of whatever
        recovery already happened below it (parser re-reads, enumeration
        re-walks).  A layer that still fails is marked FAILED on the
        report — its findings are absent but every other layer's stand —
        rather than raising out of the scan.  Machine-state errors (the
        caller scanned a powered-off box) and machine death (the whole
        box is gone, nothing layer-local about it) still propagate.
        """
        last: Optional[BaseException] = None
        for attempt in range(self.max_retries + 1):
            try:
                fn(report)
                report.confidence.setdefault(layer, ScanConfidence.FULL)
                return
            except (MachineStateError, MachineUnavailable):
                raise
            except ReproError as exc:
                last = exc
                if attempt < self.max_retries:
                    global_metrics().incr("faults.retries")
        report.confidence[layer] = ScanConfidence.FAILED
        report.layer_errors[layer] = f"{type(last).__name__}: {last}"
        metrics = global_metrics()
        metrics.incr("scan.layer.failed")
        metrics.incr(f"scan.layer.failed.{layer}")

    # -- inside-the-box ---------------------------------------------------------

    def inside_scan(self, resources: Iterable[str] = ALL_RESOURCES
                    ) -> DetectionReport:
        """High-level vs low-level cross-view diff, inside the box.

        With ``stabilize_rounds > 1`` the whole scan repeats and each
        layer's findings are intersected across the rounds in which that
        layer succeeded — a phantom produced by one racy round does not
        survive, and a layer that failed in some rounds still reports
        the findings of its good rounds (as DEGRADED).  Rounds stop
        early once two consecutive rounds agree.
        """
        wanted = set(resources)
        rounds: List[DetectionReport] = []
        with self.telemetry.activate():
            with self.telemetry.tracer.span(
                    "ghostbuster.inside_scan", clock=self.machine.clock,
                    machine=self.machine.name,
                    resources=",".join(sorted(wanted))):
                with self._fault_scope():
                    previous = None
                    for __ in range(self.stabilize_rounds):
                        round_report = self._scan_round(wanted)
                        rounds.append(round_report)
                        identities = {
                            (f.resource_type, f.entry.identity)
                            for f in round_report.findings if not f.is_noise}
                        if previous is not None and identities == previous:
                            break   # stable: two consecutive rounds agree
                        previous = identities
        if len(rounds) == 1:
            return rounds[0]
        global_metrics().incr("scan.stabilize.rounds", len(rounds))
        return self._merge_rounds(rounds, wanted)

    def _scan_round(self, wanted) -> DetectionReport:
        """One full pass over the wanted layers, each degrading alone."""
        report = DetectionReport(self.machine.name, mode="inside")
        if "files" in wanted:
            self._run_layer(report, "files", self._inside_files)
        if "registry" in wanted:
            self._run_layer(report, "registry", self._inside_registry)
        if "processes" in wanted:
            self._run_layer(report, "processes", self._inside_processes)
        if "modules" in wanted:
            self._run_layer(report, "modules", self._inside_modules)
        return report

    def _merge_rounds(self, rounds: List[DetectionReport],
                      wanted) -> DetectionReport:
        """Intersect per-layer findings across the rounds that succeeded."""
        merged = DetectionReport(self.machine.name, mode="inside")
        merged.rounds = len(rounds)
        dropped = 0
        for layer in (l for l in ALL_RESOURCES if l in wanted):
            resource = _LAYER_RESOURCE[layer]
            good = [r for r in rounds
                    if r.confidence.get(layer) is not ScanConfidence.FAILED]
            if not good:
                merged.confidence[layer] = ScanConfidence.FAILED
                merged.layer_errors[layer] = rounds[-1].layer_errors.get(
                    layer, "failed in every round")
                continue
            common = None
            for r in good:
                identities = {f.entry.identity for f in r.findings
                              if f.resource_type is resource
                              and not f.is_noise}
                common = identities if common is None \
                    else common & identities
            base = good[-1]
            keep = [f for f in base.findings if f.resource_type is resource
                    and (f.is_noise or f.entry.identity in common)]
            total = sum(1 for f in base.findings
                        if f.resource_type is resource and not f.is_noise)
            dropped += total - sum(1 for f in keep if not f.is_noise)
            merged.add_findings(keep)
            unstable_added = 0
            if self.flag_unstable:
                # A scan-aware hider unhides for one round and hides for
                # the rest: its artifacts appear in *some* rounds only.
                # The intersection above would silently drop them, so
                # surface the union-minus-intersection of FULL rounds as
                # explicitly UNSTABLE findings (phantoms from degraded
                # rounds stay excluded — PR3's guarantees stand).
                candidates = {}
                for r in good:
                    if r.confidence.get(layer) is not ScanConfidence.FULL:
                        continue
                    for f in r.findings:
                        if f.resource_type is resource and not f.is_noise                                 and f.entry.identity not in common:
                            candidates[f.entry.identity] = f
                if candidates:
                    merged.add_findings(
                        [dc_replace(f, unstable=True)
                         for __, f in sorted(candidates.items())])
                    unstable_added = len(candidates)
                    global_metrics().incr("scan.stabilize.unstable",
                                          unstable_added)
            if (len(good) < len(rounds) or unstable_added
                    or any(r.confidence.get(layer) is ScanConfidence.DEGRADED
                           for r in good)):
                merged.confidence[layer] = ScanConfidence.DEGRADED
                merged.layer_errors.setdefault(
                    layer,
                    (f"{unstable_added} finding(s) unstable across rounds"
                     if unstable_added else
                     f"stable across {len(good)}/{len(rounds)} rounds"))
            else:
                merged.confidence[layer] = ScanConfidence.FULL
        for r in rounds:
            for key, value in r.durations.items():
                merged.durations[key] = merged.durations.get(key, 0.0) + value
            merged.snapshots.extend(r.snapshots)
        if dropped:
            global_metrics().incr("scan.stabilize.dropped", dropped)
        return merged

    def _diff_into(self, report: DetectionReport, label: str,
                   lie: ScanSnapshot, truth: ScanSnapshot,
                   filter_noise: bool = False) -> List[Finding]:
        with telemetry_context.current_tracer().span(
                f"diff.{label}", clock=self.machine.clock,
                lie_view=lie.view, truth_view=truth.view) as span:
            findings = cross_view_diff(lie, truth)
            costmodel.charge_diff(self.machine, len(lie) + len(truth))
            raw_count = len(findings)
            if filter_noise:
                findings = self.noise_filter.apply(findings)
            span.set(findings=len(findings),
                     noise_filtered=raw_count - len(findings))
        hidden = sum(1 for f in findings if not f.is_noise)
        metrics = global_metrics()
        if hidden:
            metrics.incr("diff.hidden.found", hidden)
        if raw_count - hidden:
            metrics.incr("diff.noise.filtered", raw_count - hidden)
        self._merge(report, findings)
        report.durations[label] = report.durations.get(label, 0.0) \
            + lie.duration + truth.duration
        report.snapshots.extend([lie, truth])
        lost = (tuple(getattr(lie, "degraded", ()))
                + tuple(getattr(truth, "degraded", ())))
        if lost:
            report.confidence[label] = ScanConfidence.DEGRADED
            report.layer_errors.setdefault(
                label, f"evidence skipped: {', '.join(lost)}")
        return findings

    @staticmethod
    def _merge(report: DetectionReport, findings: List[Finding]) -> None:
        report.add_findings(findings)

    def _inside_files(self, report: DetectionReport) -> None:
        order_rng = None
        if self.scan_order_jitter is not None:
            self._file_walks += 1
            order_rng = random.Random(
                f"{self.scan_order_jitter}:{self.machine.name}"
                f":{self._file_walks}")
        lie = file_scans.high_level_file_scan(self.machine,
                                              self._scanner_process,
                                              order_rng=order_rng)
        if self.interleave_gap > 0:
            self.machine.run_background(self.interleave_gap)
        truth = file_scans.low_level_file_scan(self.machine)
        self._diff_into(report, "files", lie, truth,
                        filter_noise=self.interleave_gap > 0)

    def _inside_registry(self, report: DetectionReport) -> None:
        lie = registry_scans.high_level_asep_scan(self.machine,
                                                  self._scanner_process)
        truth = registry_scans.low_level_asep_scan(self.machine)
        self._diff_into(report, "registry", lie, truth)

    def _inside_processes(self, report: DetectionReport) -> None:
        lie = process_scans.high_level_process_scan(self.machine,
                                                    self._scanner_process)
        truth = process_scans.low_level_process_scan(self.machine)
        self._diff_into(report, "processes", lie, truth)
        if self.advanced:
            deeper_truth = process_scans.advanced_process_scan(self.machine)
            self._diff_into(report, "processes", lie, deeper_truth)

    def _inside_modules(self, report: DetectionReport) -> None:
        """Module diff, scoped to processes both views can enumerate.

        A *hidden process* takes its whole module list with it; reporting
        each of those modules would duplicate the process detector's
        finding, so the module diff covers visible processes only — which
        is exactly how Vanquish's blanked ``vanquish.dll`` shows up in
        many otherwise-visible processes (Figure 6).
        """
        lie = module_scans.high_level_module_scan(self.machine,
                                                  self._scanner_process)
        truth = module_scans.low_level_module_scan(
            self.machine, use_thread_table=self.advanced)
        visible_pids = getattr(lie, "scanned_pids",
                               {entry.pid for entry in lie.entries})
        truth.entries = [entry for entry in truth.entries
                         if entry.pid in visible_pids]
        self._diff_into(report, "modules", lie, truth)

    # -- outside-the-box ---------------------------------------------------------

    def write_crash_dump(self, path: str = DUMP_PATH) -> str:
        """Induce the blue screen: persist kernel memory to a dump file."""
        with telemetry_context.current_tracer().span(
                "ghostbuster.crash_dump", clock=self.machine.clock) as span:
            blob = write_dump(self.machine.kernel)
            span.set(dump_bytes=len(blob))
        volume = self.machine.volume
        if volume.exists(path):
            volume.write_file(path, blob)
        else:
            volume.create_file(path, blob)
        costmodel.charge_crash_dump(self.machine, len(blob))
        return path

    def outside_scan(self, resources: Iterable[str] = ALL_RESOURCES,
                     background_gap: float = 0.0,
                     win32_naming: bool = True,
                     reboot_after: bool = True) -> DetectionReport:
        """Full outside-the-box workflow.

        1. take the inside high-level snapshots (the lie);
        2. if volatile resources are wanted, blue-screen for a dump;
        3. let ``background_gap`` seconds of normal activity pass (the
           churn that causes the paper's outside-the-box FPs);
        4. shut down, boot WinPE, scan the truth from outside;
        5. diff, classify noise, and optionally reboot back.
        """
        wanted = set(resources)
        report = DetectionReport(self.machine.name, mode="outside")

        with self.telemetry.activate():
            with self.telemetry.tracer.span(
                    "ghostbuster.outside_scan", clock=self.machine.clock,
                    machine=self.machine.name,
                    resources=",".join(sorted(wanted))):
                with self._fault_scope():
                    self._outside_scan_body(wanted, report, background_gap,
                                            win32_naming, reboot_after)
        return report

    def _capture_lie(self, report: DetectionReport, lies: Dict,
                     layer: str, fn: Callable[[], ScanSnapshot]) -> None:
        """Take one inside (lie) snapshot with the layer's retries; a
        failure fails just its layer."""
        def capture(__: DetectionReport) -> None:
            lies[layer] = fn()
        self._run_layer(report, layer, capture)

    def _outside_scan_body(self, wanted, report, background_gap,
                           win32_naming, reboot_after) -> None:
        lies: Dict[str, ScanSnapshot] = {}
        if "files" in wanted:
            self._capture_lie(report, lies, "files",
                              lambda: file_scans.high_level_file_scan(
                                  self.machine, self._scanner_process))
        if "registry" in wanted:
            self._capture_lie(report, lies, "registry",
                              lambda: registry_scans.high_level_asep_scan(
                                  self.machine, self._scanner_process))
        if "processes" in wanted or "modules" in wanted:
            self._capture_lie(
                report, lies, "processes",
                lambda: process_scans.high_level_process_scan(
                    self.machine, self._scanner_process))
            if "processes" in lies:
                try:
                    self.write_crash_dump()
                except (MachineStateError, MachineUnavailable):
                    raise
                except ReproError as exc:
                    lies.pop("processes", None)
                    report.confidence["processes"] = ScanConfidence.FAILED
                    report.layer_errors["processes"] = \
                        f"{type(exc).__name__}: {exc}"
                    global_metrics().incr("scan.layer.failed")

        if background_gap > 0:
            self.machine.run_background(background_gap)

        self.machine.shutdown()
        winpe = self._clean_boot(report)

        if "files" in lies:
            self._run_layer(report, "files", lambda rep: self._diff_into(
                rep, "files", lies["files"],
                winpe.file_scan(win32_naming=win32_naming),
                filter_noise=True))
        if "registry" in lies:
            self._run_layer(report, "registry", lambda rep: self._diff_into(
                rep, "registry", lies["registry"],
                winpe.asep_scan(win32_semantics=win32_naming),
                filter_noise=True))
        if "processes" in wanted and "processes" in lies:
            def diff_processes(rep: DetectionReport) -> None:
                self._diff_into(rep, "processes", lies["processes"],
                                winpe.process_scan(advanced=False))
                if self.advanced:
                    self._diff_into(rep, "processes", lies["processes"],
                                    winpe.process_scan(advanced=True))
            self._run_layer(report, "processes", diff_processes)

        if reboot_after:
            self.machine.boot()

    def _clean_boot(self, report: DetectionReport):
        """Boot the powered-down box into the clean scan environment.

        The CD boot; the RIS network boot (:mod:`repro.core.risboot`)
        overrides this and nothing else of the outside-the-box scan.
        """
        from repro.core.winpe import WinPEEnvironment

        winpe = WinPEEnvironment(self.machine)
        winpe.boot()
        report.durations["winpe-boot"] = winpe.boot_seconds
        return winpe

    # -- convenience ---------------------------------------------------------------

    def detect(self) -> DetectionReport:
        """The default daily check: a full inside-the-box scan."""
        return self.inside_scan()
