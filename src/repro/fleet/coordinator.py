r"""Epoch-based continuous fleet sweeps with checkpointed resume.

The coordinator is the service loop the paper's Section 5 gestures at:
keep the whole enterprise fleet under a standing GhostBuster watch,
cheaply, forever.  One *epoch* = every machine in the roster produces a
verdict exactly once.  The coordinator:

1. plans the epoch (:class:`~repro.fleet.scheduler.FleetScheduler` —
   staleness + risk + LPT), deals the roster into shards, and opens it
   on the durable :class:`~repro.fleet.queue.WorkQueue`;
2. drives logical workers through lease → scan → checkpoint → ack;
3. escalates finding-bearing machines through the
   :class:`~repro.fleet.policy.EscalationPolicy` (inside findings buy
   an outside-the-box confirmation with ``confirmed_by`` provenance);
4. streams every verdict into the
   :class:`~repro.fleet.aggregator.FleetAggregator` (outbreak alarms
   fire mid-epoch, not at the end);
5. compacts the baseline store and queue WAL every ``compact_every``
   epochs, and with ``retain_epochs`` the epochs journal too.

**The checkpoint protocol.**  Per machine, the write order is fixed:

====  ==========================================================
 1    ``BaselineStore.put`` — the durable verdict + generation
 2    ``epochs.jsonl`` ``fleet-machine`` record — the epoch's copy
 3    ``WorkQueue.ack`` — the machine leaves the epoch
====  ==========================================================

so any machine the queue says is acked has a durable verdict on disk.
:meth:`FleetCoordinator._checkpoint` is that sequence, and both the
in-process drain and the distributed controller call it.
A coordinator killed between any two steps resumes by replaying the
queue WAL: acked machines keep their recorded verdicts (never
re-scanned), unacked machines are re-leased and re-scanned.  Because
fault streams are seeded per ``(site, machine)`` — independent of
scheduling order — the resumed epoch's verdicts are element-identical
to an uninterrupted run's.

``kill_after_acks`` is the deterministic stand-in for ``SIGKILL`` in
tests: the coordinator raises :class:`~repro.errors.CoordinatorKilled`
immediately *after* the N-th ack completes, i.e. exactly at a
checkpoint boundary, which is the only place the synchronous loop can
die anyway (every step in between is one atomic append).
"""

from __future__ import annotations

import functools
import json
import logging
import os
import threading
import time
from dataclasses import replace
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.clock import SimClock
from repro.core.baseline import BaselineStore, MachineBaseline
from repro.core.costmodel import estimate_scan_seconds
from repro.core.noise import NoiseFilter
from repro.errors import (CircuitOpen, CoordinatorKilled, FleetError,
                          ReproError, TransientIoError)
from repro.faults.plan import FaultPlan
from repro.faults.retry import CircuitBreaker
from repro.fleet.aggregator import (DEFAULT_OUTBREAK_THRESHOLD,
                                    CampaignTracker, FleetAggregator,
                                    MachineVerdict)
from repro.fleet.controller import ScanController
from repro.fleet.policy import EscalationPolicy
from repro.fleet.queue import Lease, WorkQueue
from repro.fleet.scanwork import (ScanSettings, perform_machine_scan,
                                  perform_sampled_machine_scan, skip_verdict)
from repro.fleet.scheduler import (FleetHistory, FleetScheduler,
                                   load_history)
from repro.fleet import transport
from repro.machine import Machine
from repro.telemetry import context as telemetry_context
from repro.telemetry.journal_io import (append_journal, iter_journal,
                                        replace_journal)
from repro.telemetry.metrics import global_metrics

logger = logging.getLogger(__name__)

EPOCHS_FILE = "epochs.jsonl"

# Distributed mode fails an epoch that goes this long without an ack.
STALL_TIMEOUT_S = 60.0


class FleetCoordinator:
    """Runs checkpointed epochs over a fleet of simulated machines."""

    def __init__(self, fleet_dir: str,
                 machines: Iterable[Union[Machine, str]],
                 workers: int = 2,
                 policy: Optional[EscalationPolicy] = None,
                 clock: Optional[SimClock] = None,
                 compact_every: int = 0,
                 fault_plan: Optional[FaultPlan] = None,
                 noise_filter: Optional[NoiseFilter] = None,
                 outbreak_threshold: int = DEFAULT_OUTBREAK_THRESHOLD,
                 resources=("files", "registry"),
                 console_index: bool = True,
                 retain_epochs: int = 0,
                 queue_durable: bool = False,
                 sampling=None,
                 stabilize_rounds: int = 1,
                 flag_unstable: bool = False,
                 scan_order_jitter: Optional[int] = None):
        self.fleet_dir = fleet_dir
        # Distributed mode rosters by *name* (the machines themselves
        # live inside agent processes), so bare strings are accepted;
        # a single-process run of a name-only entry yields the usual
        # "machine not in roster" error verdict.
        self.machines: Dict[str, Optional[Machine]] = {
            (m if isinstance(m, str) else m.name):
            (None if isinstance(m, str) else m)
            for m in machines}
        if not self.machines:
            raise FleetError("a fleet needs at least one machine")
        self.workers = max(1, int(workers))
        # What every worker scans with, in-process or forked.  An
        # optional SamplingPolicy (repro.workloads.sampling) gives the
        # epoch's sample tier the cheap stratified pass instead of the
        # full scan body.
        self.settings = ScanSettings(
            policy=policy or EscalationPolicy(),
            noise_filter=noise_filter or NoiseFilter(),
            resources=tuple(resources), fault_plan=fault_plan,
            sampling=sampling,
            stabilize_rounds=max(1, int(stabilize_rounds)),
            flag_unstable=bool(flag_unstable),
            scan_order_jitter=scan_order_jitter)
        self.compact_every = max(0, int(compact_every))
        self.outbreak_threshold = outbreak_threshold
        self.epochs_path = os.path.join(fleet_dir, EPOCHS_FILE)
        self.store = BaselineStore(fleet_dir)
        self.queue = WorkQueue(fleet_dir, clock=clock,
                               durable=queue_durable)
        self.clock = self.queue.clock
        self.scheduler = FleetScheduler(shards=self.workers)
        self.breaker = CircuitBreaker()
        self._quarantined: List[str] = []   # errored last epoch → risk
        # Opens, closes and distributed checkpoints serialize on this.
        self.lock = threading.RLock()
        self.aggregator: Optional[FleetAggregator] = None  # open epoch's
        self._kill_after_acks: Optional[int] = None
        self._acks = 0
        self._drained = threading.Event()  # set by the epoch's last checkpoint
        # The controller holds lease requests on this while there is
        # nothing to draw; it is notified when leasable work may appear.
        self._work_ready = threading.Condition(self.lock)
        self._epochs_run = 0
        # The epoch's sample tier is journaled in the epoch-start record
        # so a resumed coordinator replays the dead one's assignment
        # instead of recomputing it against drifted history.
        self._sampled_tier: set = set()
        self.retain_epochs = max(0, int(retain_epochs))
        # The operator console's in-memory index, fed at journal-write
        # time so it never re-reads this journal.  Optional: it writes
        # nothing, and any console can open its own from the journals.
        self.index = None
        if console_index:
            from repro.console.index import JournalIndex
            self.index = JournalIndex(fleet_dir)
        # Scheduler history: replayed here once, then folded record by
        # record in _journal(), so steady epochs never re-read the
        # journal.
        self.history = load_history(self.epochs_path)
        # Cross-epoch campaign correlation (fuzzy fingerprints survive
        # per-epoch identity rotation).  Tracker state spans epochs, so
        # a restarted coordinator rebuilds it from the journal: alerts
        # first (duplicate suppression), then every recorded verdict.
        self.campaigns = CampaignTracker(threshold=outbreak_threshold)
        if os.path.exists(self.epochs_path):
            records = [line.record for line in
                       iter_journal(self.epochs_path,
                                    on_torn=lambda *_: None)]
            for record in records:
                if record.get("type") == "fleet-campaign":
                    self.campaigns.mark_alerted(record)
            for record in records:
                if record.get("type") == "fleet-machine":
                    for alert in self.campaigns.observe(
                            MachineVerdict.from_dict(record)):
                        # Crash window: the threshold crossed but the
                        # alert never landed; journal it now.
                        self._journal(alert.to_dict())

    # -- journal -----------------------------------------------------------------

    def _journal(self, record: Dict) -> None:
        record = dict(record, at=round(self.clock.now(), 6))
        start, end = append_journal(self.epochs_path, record)
        self.history.note_record(record)
        if self.index is not None:
            self.index.note_epoch_record(record, start, end)

    def _journaled_verdicts(self, epoch: int) -> Dict[str, MachineVerdict]:
        """This epoch's already-recorded verdicts (the resume path)."""
        verdicts: Dict[str, MachineVerdict] = {}
        for line in iter_journal(self.epochs_path):
            record = line.record
            if (record.get("type") == "fleet-machine"
                    and int(record.get("epoch", -1)) == epoch):
                verdict = MachineVerdict.from_dict(record)
                verdicts[verdict.machine] = verdict
        return verdicts

    # -- epoch lifecycle ---------------------------------------------------------

    def next_epoch_number(self) -> int:
        if self.queue.epoch is not None:
            return self.queue.epoch
        return self.history.last_epoch_no + 1

    def run_epoch(self, kill_after_acks: Optional[int] = None
                  ) -> FleetAggregator:
        """Run (or resume) one epoch to completion; returns its aggregate.

        ``kill_after_acks=N`` raises :class:`CoordinatorKilled` right
        after the N-th checkpoint of *this invocation* commits — the
        test harness's deterministic power cord.
        """
        return self._run_epoch(self._drain_epoch, kill_after_acks)

    def _run_epoch(self, drain: Callable[[int], None],
                   kill_after_acks: Optional[int] = None,
                   **span_fields) -> FleetAggregator:
        """The epoch lifecycle both modes share: open or resume, then
        ``drain(epoch)`` until every machine is acked, then seal."""
        self._kill_after_acks, self._acks = kill_after_acks, 0
        self._drained.clear()
        with self.lock:
            aggregator, resuming = self._open_or_resume()
        epoch = aggregator.summary.epoch
        with telemetry_context.current_tracer().span(
                "fleet.epoch", clock=self.clock, epoch=epoch,
                resumed=resuming, **span_fields):
            drain(epoch)
        with self.lock:
            self._finish_epoch(aggregator)
        return aggregator

    def _open_or_resume(self) -> Tuple[FleetAggregator, bool]:
        """Open the next epoch or resume the one the WAL says is open;
        returns its aggregator (kept as :attr:`aggregator`) and whether
        it resumed."""
        metrics = global_metrics()
        epoch = self.next_epoch_number()
        aggregator = FleetAggregator(
            epoch, outbreak_threshold=self.outbreak_threshold)
        resuming = self.queue.epoch is not None
        if resuming:
            recovered = self.queue.expire_leases()
            if recovered:
                logger.info("epoch %d resume: requeued %d orphaned "
                            "lease(s)", epoch, len(recovered))
            # Re-fold the verdicts the dead coordinator already
            # checkpointed, so the final summary covers the whole
            # roster and outbreak counting sees every sighting.
            journaled = self._journaled_verdicts(epoch)
            for machine in sorted(self.queue.acked_machines()):
                verdict = journaled.get(machine)
                if verdict is not None:
                    aggregator.observe(verdict)
            self._sampled_tier = self._journaled_sampled(epoch)
            metrics.incr("fleet.epoch.resumed")
        else:
            timings: Dict[str, float] = {}
            for name, machine in self.machines.items():
                stored = self.store.scan_seconds(name)
                if stored is not None:
                    timings[name] = stored
                elif machine is not None:
                    # Cold-start LPT: with no stored timing, every
                    # never-scanned machine used to tie at infinite
                    # cost and dispatch alphabetically; an a-priori
                    # estimate from its entity counts restores real
                    # longest-first order on first contact.
                    timings[name] = estimate_scan_seconds(
                        machine, self.settings.resources)
            plan = self.scheduler.plan(
                sorted(self.machines), epoch, self.history,
                scan_seconds=timings,
                quarantined=self._quarantined)
            self.queue.open_epoch(epoch, self.scheduler.assignments(plan))
            start_record = {"type": "epoch-start", "epoch": epoch,
                            "machines": len(plan)}
            self._sampled_tier = set()
            if self.settings.sampling is not None:
                tiers = self.settings.sampling.assign(plan, epoch)
                self._sampled_tier = {name for name, tier in tiers.items()
                                      if tier == "sample"}
                start_record["sampled"] = sorted(self._sampled_tier)
            self._journal(start_record)
            metrics.incr("fleet.epoch.started")
        self.aggregator = aggregator
        self._wake_lease_waiters()
        return aggregator, resuming

    def _wake_lease_waiters(self) -> None:
        """Release held lease requests to redraw (work may have appeared
        or the controller is shutting down)."""
        with self.lock:
            self._work_ready.notify_all()

    def _journaled_sampled(self, epoch: int) -> set:
        """The resumed epoch's journaled sample tier (fixed at open)."""
        for line in iter_journal(self.epochs_path):
            record = line.record
            if (record.get("type") == "epoch-start"
                    and int(record.get("epoch", -1)) == epoch):
                return set(record.get("sampled", []))
        return set()

    def _finish_epoch(self, aggregator: FleetAggregator) -> None:
        """Seal a drained epoch: journal the summary, close, compact."""
        metrics = global_metrics()
        self.aggregator = None
        self._journal(dict(aggregator.summary.to_dict(), type="epoch-end"))
        self.queue.close_epoch()
        self._quarantined = sorted(
            v.machine for v in aggregator.verdicts if v.error is not None)
        metrics.incr("fleet.epoch.completed")
        metrics.incr("fleet.epoch.machines", aggregator.summary.machines)
        metrics.incr("fleet.epoch.scans", aggregator.summary.scanned)
        metrics.incr("fleet.epoch.skipped", aggregator.summary.skipped)

        self._epochs_run += 1
        if self.compact_every and self._epochs_run % self.compact_every == 0:
            self.compact()

    def compact(self) -> None:
        """Rewrite the baseline store and the queue WAL, and with
        ``retain_epochs`` the epochs journal too.

        Retention keeps the records of the newest ``retain_epochs``
        epochs and every record that carries no epoch.  It bounds the
        journal at fleet-years of history: the baseline store keeps the
        durable per-machine verdicts, so dropping old epochs loses
        timeline depth, never current state.
        """
        self.store.compact()
        self.queue.compact()
        if self.retain_epochs:
            cutoff = self.history.last_epoch_no - self.retain_epochs + 1
            before = 0
            # Folded from the records the rewrite keeps, so a restarted
            # coordinator, replaying the rewrite, plans from the same
            # history.
            history = FleetHistory()

            def retained():
                nonlocal before
                for line in iter_journal(self.epochs_path):
                    before += 1
                    epoch = line.record.get("epoch")
                    if epoch is None or int(epoch) >= cutoff:
                        history.note_record(line.record)
                        yield json.dumps(line.record, sort_keys=True)

            after = replace_journal(self.epochs_path, retained())
            self.history = history
            metrics = global_metrics()
            metrics.incr("fleet.journal.compactions")
            metrics.incr("fleet.journal.compacted_records",
                         max(0, before - after))
        if self.index is not None:
            # update() refolds just the journals these rewrites changed.
            self.index.update()

    def run(self, epochs: int,
            kill_after_acks: Optional[int] = None) -> List[FleetAggregator]:
        """``epochs`` back-to-back epochs; the continuous-service loop."""
        return [self.run_epoch(kill_after_acks=kill_after_acks)
                for __ in range(int(epochs))]

    def _drain_epoch(self, epoch: int) -> None:
        """The in-process drain: logical workers lease, scan, checkpoint."""
        while not self.queue.epoch_drained():
            progressed = False
            for worker in range(self.workers):
                if self.queue.epoch_drained():
                    break
                lease = self._lease(worker)
                if lease is None:
                    continue
                self._checkpoint(lease,
                                 *self._scan_machine(epoch, lease.machine))
                progressed = True
            if not progressed and not self.queue.epoch_drained():
                # Resume requeued every lease, so an unacked machine
                # with nothing pending is held by a lease taken outside
                # this drain; only its holder can ack or release it.
                raise FleetError(
                    f"epoch {epoch} stalled with no pending work: "
                    f"{sorted(self.queue.leased_machines())} leased "
                    f"outside the drain")

    # -- the control plane both modes share --------------------------------------

    def _lease(self, worker: int) -> Optional[Lease]:
        """The next machine ``worker`` should scan, or None.

        A fired ``fleet.lease`` fault leaves the machine pending and is
        redrawn; a machine whose circuit breaker is open is quarantined
        (its error verdict self-acked) and the draw goes on.
        """
        metrics = global_metrics()
        while True:
            try:
                lease = self.queue.lease(worker)
            except TransientIoError:
                metrics.incr("fleet.lease.faults")
                continue
            if lease is None:
                return None
            try:
                self.breaker.allow(lease.machine)
            except CircuitOpen as exc:
                metrics.incr("fleet.quarantined")
                self._checkpoint(lease, MachineVerdict(
                    machine=lease.machine, epoch=lease.epoch,
                    verdict="error", error=str(exc)))
                continue
            return lease

    def _checkpoint(self, lease: Lease, verdict: MachineVerdict,
                    fresh: Optional[Dict] = None) -> None:
        """Land one leased machine's verdict under its live lease.

        ``fresh`` holds a new scan's :meth:`BaselineStore.put` arguments
        (skips, failed scans and quarantines have none).  Callers hold a
        live lease: the in-process drain acks the lease it just took,
        and the controller checks the agent's token first (a stale one
        is its late ack, :meth:`_late_ack`).
        """
        if fresh is not None:
            stored = self.store.put(lease.machine, **fresh)
            self.breaker.record_success(lease.machine)
            verdict = replace(verdict, baseline_id=stored.baseline_id)
        self._journal(verdict.to_dict())
        self.queue.ack(lease, verdict=verdict.verdict,
                       scanned=verdict.scanned,
                       confirmed=verdict.confirmed)
        if self.queue.epoch_drained():
            self._drained.set()
        global_metrics().incr("fleet.epoch.checkpoints")
        for alert in (self.aggregator.observe(verdict)
                      + self.campaigns.observe(verdict)):
            self._journal(alert.to_dict())
            logger.warning("%s", alert.describe())
        self._acks += 1
        if (self._kill_after_acks is not None
                and self._acks >= self._kill_after_acks):
            raise CoordinatorKilled(
                f"killed after {self._acks} ack(s) in epoch {lease.epoch}")

    def _late_ack(self, machine: str) -> None:
        """Count a result dropped because its lease was taken back (its
        agent declared dead, or the epoch resumed by a restarted
        coordinator): a whole scan's work wasted, on the metrics and
        the epoch summary."""
        global_metrics().incr("fleet.ack.late")
        if self.aggregator is not None:
            self.aggregator.summary.late_acks += 1
        logger.warning("late ack for %s dropped", machine)

    def _scan_failed(self, name: str, epoch: int,
                     error: str) -> MachineVerdict:
        """A scan that raised: count it against the machine's breaker."""
        self.breaker.record_failure(name)
        global_metrics().incr("fleet.scan.errors")
        logger.warning("epoch %d scan of %s failed: %s", epoch, name, error)
        return MachineVerdict(machine=name, epoch=epoch, verdict="error",
                              error=error)

    def _sampled(self, name: str) -> bool:
        """Whether ``name`` is in the epoch's sample tier."""
        return (self.settings.sampling is not None
                and name in self._sampled_tier)

    def _skip_baseline(self, name: str) -> Optional[MachineBaseline]:
        """The stored baseline ``name`` skips on if its disk still matches.

        A *sampled* baseline only holds at its recorded coverage, so it
        never satisfies a full-tier epoch: the rotation's whole point
        is to periodically re-verify the strata the cheap pass skipped,
        churn or no churn.
        """
        baseline = self.store.get(name)
        if baseline is None or (baseline.extra.get("sampled")
                                and name not in self._sampled_tier):
            return None
        return baseline

    # -- per-machine scan --------------------------------------------------------

    def _scan_machine(self, epoch: int, name: str
                      ) -> Tuple[MachineVerdict, Optional[Dict]]:
        """A leased machine's verdict, and a fresh scan's baseline."""
        machine = self.machines.get(name)
        if machine is None:
            return MachineVerdict(machine=name, epoch=epoch,
                                  verdict="error",
                                  error="machine not in roster"), None
        baseline = self._skip_baseline(name)
        if (baseline is not None
                and machine.disk.generation == baseline.disk_generation):
            # Steady state: the disk has not changed since the stored
            # verdict, so the verdict still holds — rehydrate it (and
            # its escalation provenance) without touching the box.
            return skip_verdict(baseline, epoch), None
        # The scan body itself is shared with the distributed agents
        # (repro.fleet.scanwork); scan costs are charged to the
        # machine's own clock, and the fleet clock mirrors the elapsed
        # time when the two are distinct, so journal and WAL timestamps
        # after a scan stay true.
        scan = (perform_sampled_machine_scan if self._sampled(name)
                else perform_machine_scan)
        try:
            outcome = scan(machine, epoch, self.settings,
                           span_clock=self.clock)
        except ReproError as exc:
            return self._scan_failed(
                name, epoch, f"{type(exc).__name__}: {exc}"), None
        if machine.clock is not self.clock:
            self.clock.advance(outcome.scan_seconds)
        return (outcome.verdict(name, epoch),
                {"report": outcome.report,
                 "disk_generation": outcome.disk_generation,
                 "scan_seconds": outcome.scan_seconds,
                 "extra": outcome.extra(epoch)})

    # -- distributed mode --------------------------------------------------------

    def spawn_agents(self, count: int, address, secret: str,
                     machine_factory,
                     transport_seed: Optional[int] = None,
                     transport_rate: float = 0.0,
                     kill_after_leases: Optional[Dict[int, int]] = None,
                     first_index: int = 0) -> List:
        """Fork ``count`` agent processes against a running controller.

        The ``fork`` context matters three times over: the
        ``machine_factory`` closure and this coordinator's
        :class:`~repro.fleet.scanwork.ScanSettings` are inherited rather
        than pickled, and an expensive golden image built before the
        fork is shared copy-on-write by every agent.  Each child copies
        the fault plan (see :func:`repro.fleet.agent.run_agent_process`)
        so a respawned process's per-machine fault streams start at draw
        zero, same as the reference run.
        """
        import multiprocessing

        from repro.fleet.agent import run_agent_process

        ctx = multiprocessing.get_context("fork")
        kills = kill_after_leases or {}
        processes = []
        for offset in range(count):
            index = first_index + offset
            process = ctx.Process(
                target=run_agent_process,
                kwargs=dict(
                    address=tuple(address), secret=secret,
                    agent_id=f"agent-{index}", worker=index,
                    machine_factory=machine_factory,
                    settings=self.settings,
                    transport_seed=transport_seed,
                    transport_rate=transport_rate,
                    kill_after_leases=kills.get(index)),
                name=f"fleet-agent-{index}", daemon=True)
            process.start()
            processes.append(process)
        return processes

    def run_distributed(self, epochs: int, machine_factory,
                        agents: int = 2, *,
                        secret: Optional[str] = None,
                        host: str = "127.0.0.1", port: int = 0,
                        agent_timeout_seconds: float = 2.0,
                        transport_seed: Optional[int] = None,
                        transport_rate: float = 0.0,
                        kill_after_leases: Optional[Dict[int, int]] = None
                        ) -> List[FleetAggregator]:
        """Run epochs with the scan fan-out in separate agent processes.

        The coordinator process keeps custody of every durable write (it
        hosts the :class:`~repro.fleet.controller.ScanController`); the
        ``agents`` forked children do the GIL-heavy parsing, with this
        coordinator's scan settings and fault plan, and talk the wire
        protocol.  Crash tolerance is the controller's liveness reaper
        plus fresh agents forked whenever the whole pool has died with
        work still pending — ``kill -9`` of any agent mid-lease costs
        wall time, never a machine or a verdict.
        """
        secret = secret or transport.new_secret()
        controller = ScanController(
            self, secret, host=host, port=port,
            agent_timeout_seconds=agent_timeout_seconds)
        controller.start()
        spawn = functools.partial(
            self.spawn_agents, agents, controller.address, secret,
            machine_factory, transport_seed=transport_seed,
            transport_rate=transport_rate)
        processes = spawn(kill_after_leases=kill_after_leases)
        agent_seq = agents

        def wait_for_agents(epoch: int) -> None:
            nonlocal processes, agent_seq
            last_acked, last_progress = -1, time.monotonic()
            while True:
                with self.lock:
                    if self.queue.epoch_drained():
                        return
                    acked = len(self.queue.acked_machines())
                controller.reap()
                if not any(p.is_alive() for p in processes):
                    # Respawn a whole fresh pool under new agent ids (and
                    # without the deterministic kill switch); the dead
                    # agents' leases come back via the reaper.
                    processes = spawn(first_index=agent_seq)
                    agent_seq += agents
                    global_metrics().incr("fleet.agent.respawns", agents)
                if acked != last_acked:
                    last_acked, last_progress = acked, time.monotonic()
                elif time.monotonic() - last_progress > STALL_TIMEOUT_S:
                    raise FleetError(
                        f"epoch {epoch} stalled: no ack for "
                        f"{STALL_TIMEOUT_S:.0f}s with "
                        f"{self.queue.pending_count()} pending")
                self._drained.wait(0.02)

        try:
            return [self._run_epoch(wait_for_agents, distributed=True)
                    for __ in range(int(epochs))]
        finally:
            controller.begin_shutdown()
            for process in processes:
                process.join(timeout=5.0)
            for process in processes:
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=2.0)
            controller.stop()


# -- operator status -----------------------------------------------------------


def fleet_status(fleet_dir: str) -> Dict:
    """What the fleet directory says, from disk alone.

    Safe to call with no coordinator running, mid-epoch, and on a
    directory a coordinator just died in: it is one cold
    :class:`~repro.console.index.JournalIndex` fold of the journals,
    and it writes nothing.
    """
    from repro.console.index import JournalIndex

    return JournalIndex(fleet_dir).status()
