"""Coordinator epochs: checkpointing, resume soundness, escalation.

The chaos-interplay suite lives here too: killing a worker mid-lease,
killing the coordinator mid-epoch (deterministically, at ack
boundaries), and a Hypothesis sweep over every possible kill point —
in all cases the resumed epoch's verdicts must be element-identical to
an uninterrupted run's and no acked machine may be scanned twice.
"""

from __future__ import annotations

import json
import logging
import os
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.clock import SimClock
from repro.core.baseline import BaselineStore
from repro.errors import CoordinatorKilled, StaleLease
from repro.fleet import (EscalationPolicy, FleetCoordinator, WorkQueue,
                         fleet_status, load_history)
from repro.ghostware import Aphex, HackerDefender
from repro.machine import Machine
from repro.telemetry.journal_io import read_journal
from repro.telemetry.metrics import global_metrics


def build_fleet(size=3, infected=(1,), ghost_cls=HackerDefender):
    machines = []
    for index in range(size):
        machine = Machine(f"m{index:02d}", disk_mb=256, max_records=8192)
        machine.boot()
        if index in infected:
            ghost_cls().install(machine)
        machines.append(machine)
    return machines


def verdict_key(aggregate):
    return {v.machine: (v.verdict, v.findings, v.confirmed, v.confirmed_by)
            for v in aggregate.verdicts}


def machine_records(fleet_dir, epoch):
    records = []
    with open(f"{fleet_dir}/epochs.jsonl", encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if (record.get("type") == "fleet-machine"
                    and record.get("epoch") == epoch):
                records.append(record)
    return records


class TestEpochLifecycle:
    def test_epoch_covers_fleet_and_detects(self, tmp_path):
        machines = build_fleet(size=3, infected=(1,))
        coordinator = FleetCoordinator(str(tmp_path), machines, workers=2)
        aggregate = coordinator.run_epoch()
        assert aggregate.summary.machines == 3
        assert aggregate.summary.scanned == 3
        assert aggregate.infected_machines() == ["m01"]
        infected = next(v for v in aggregate.verdicts
                        if v.machine == "m01")
        assert infected.escalated and infected.confirmed
        assert infected.confirmed_by == "winpe"
        assert infected.finding_ids
        assert coordinator.queue.epoch is None   # epoch closed

    def test_steady_state_epoch_skips_unchanged(self, tmp_path):
        machines = build_fleet(size=3, infected=(1,))
        coordinator = FleetCoordinator(str(tmp_path), machines, workers=2)
        first = coordinator.run_epoch()
        second = coordinator.run_epoch()
        assert second.summary.skipped == 3
        assert second.summary.scanned == 0
        assert verdict_key(first) == verdict_key(second)
        # The rehydrated infected verdict keeps its provenance.
        skipped = next(v for v in second.verdicts if v.machine == "m01")
        assert skipped.skipped and skipped.confirmed_by == "winpe"

    def test_changed_machine_is_rescanned(self, tmp_path):
        machines = build_fleet(size=3, infected=())
        coordinator = FleetCoordinator(str(tmp_path), machines)
        coordinator.run_epoch()
        machines[2].volume.create_file("\\Temp\\new.txt", b"payload")
        second = coordinator.run_epoch()
        rescanned = {v.machine for v in second.verdicts if v.scanned}
        assert rescanned == {"m02"}
        assert second.summary.skipped == 2

    def test_vmscan_policy_provenance(self, tmp_path):
        machines = build_fleet(size=2, infected=(0,), ghost_cls=Aphex)
        coordinator = FleetCoordinator(
            str(tmp_path), machines,
            policy=EscalationPolicy(confirm_with="vmscan"))
        aggregate = coordinator.run_epoch()
        infected = next(v for v in aggregate.verdicts if v.confirmed)
        assert infected.confirmed_by == "vmscan"

    def test_no_escalation_when_policy_disabled(self, tmp_path):
        machines = build_fleet(size=2, infected=(0,))
        coordinator = FleetCoordinator(
            str(tmp_path), machines,
            policy=EscalationPolicy(escalate=False))
        aggregate = coordinator.run_epoch()
        assert aggregate.summary.infected == 1
        assert aggregate.summary.escalated == 0

    def test_outbreak_detection_across_machines(self, tmp_path):
        machines = build_fleet(size=4, infected=(0, 1, 2))
        coordinator = FleetCoordinator(str(tmp_path), machines,
                                       outbreak_threshold=3)
        aggregate = coordinator.run_epoch()
        outbreaks = aggregate.outbreaks()
        assert outbreaks, "same ghost on 3 machines must raise an alert"
        assert all(len(alert.machines) >= 3 for alert in outbreaks)
        # Outbreak records land in the journal for fleet-status.
        status = fleet_status(str(tmp_path))
        assert status["outbreaks"]

    def test_compaction_shrinks_stores(self, tmp_path):
        machines = build_fleet(size=2, infected=())
        coordinator = FleetCoordinator(str(tmp_path), machines,
                                       compact_every=2)
        coordinator.run_epoch()
        coordinator.run_epoch()
        # After compaction the baseline file holds one record/machine
        # and the queue WAL is empty (no epoch open).
        with open(coordinator.store.path, encoding="utf-8") as handle:
            assert sum(1 for line in handle if line.strip()) == 2
        with open(coordinator.queue.path, encoding="utf-8") as handle:
            assert handle.read() == ""

    def test_fleet_status_reflects_open_epoch(self, tmp_path):
        machines = build_fleet(size=3, infected=())
        coordinator = FleetCoordinator(str(tmp_path), machines, workers=1)
        with pytest.raises(CoordinatorKilled):
            coordinator.run_epoch(kill_after_acks=1)
        status = fleet_status(str(tmp_path))
        assert status["open_epoch"] == 1
        assert status["acked"] == 1
        assert status["pending"] + status["leased"] == 2
        assert status["epochs_completed"] == 0

    def test_only_the_last_checkpoint_signals_the_drain(self, tmp_path):
        # The distributed drain wakes on this signal instead of on its
        # next poll, so it must fire exactly when the epoch drains.
        machines = build_fleet(size=3, infected=())
        coordinator = FleetCoordinator(str(tmp_path), machines, workers=1)
        with pytest.raises(CoordinatorKilled):
            coordinator.run_epoch(kill_after_acks=2)
        assert not coordinator._drained.is_set()
        coordinator.run_epoch()
        assert coordinator._drained.is_set()


class TestResumeSoundness:
    def test_kill_and_resume_is_element_identical(self, tmp_path):
        reference = FleetCoordinator(
            str(tmp_path / "ref"), build_fleet(size=4, infected=(1, 3)),
            workers=2).run_epoch()

        fleet_dir = str(tmp_path / "chaos")
        machines = build_fleet(size=4, infected=(1, 3))
        with pytest.raises(CoordinatorKilled):
            FleetCoordinator(fleet_dir, machines,
                             workers=2).run_epoch(kill_after_acks=2)
        resumed = FleetCoordinator(fleet_dir, machines,
                                   workers=2).run_epoch()
        assert verdict_key(resumed) == verdict_key(reference)
        records = machine_records(fleet_dir, epoch=1)
        counts = {record["machine"]: 0 for record in records}
        for record in records:
            counts[record["machine"]] += 1
        assert all(count == 1 for count in counts.values()), counts
        assert len(counts) == 4

    def test_double_kill_then_resume(self, tmp_path):
        fleet_dir = str(tmp_path)
        machines = build_fleet(size=4, infected=(2,))
        for __ in range(2):
            with pytest.raises(CoordinatorKilled):
                FleetCoordinator(fleet_dir, machines,
                                 workers=2).run_epoch(kill_after_acks=1)
        aggregate = FleetCoordinator(fleet_dir, machines,
                                     workers=2).run_epoch()
        assert aggregate.summary.machines == 4
        assert len(machine_records(fleet_dir, epoch=1)) == 4

    def test_resume_does_not_rescan_acked_machines(self, tmp_path):
        fleet_dir = str(tmp_path)
        machines = build_fleet(size=3, infected=())
        with pytest.raises(CoordinatorKilled):
            FleetCoordinator(fleet_dir, machines,
                             workers=1).run_epoch(kill_after_acks=2)
        acked_before = set(WorkQueue(fleet_dir).acked_machines())
        assert len(acked_before) == 2
        generations = {name: machines_by_name(machines)[name]
                       .disk.generation for name in acked_before}
        FleetCoordinator(fleet_dir, machines, workers=1).run_epoch()
        # An acked machine's disk was never touched again (a rescan of
        # an infected machine would have rebooted it).
        for name, generation in generations.items():
            assert (machines_by_name(machines)[name].disk.generation
                    == generation)

    def test_worker_death_mid_lease_under_coordinator(self, tmp_path):
        """A lease taken by a worker that dies is reaped by expiry and
        the machine still completes within the same epoch."""
        fleet_dir = str(tmp_path)
        machines = build_fleet(size=2, infected=())
        coordinator = FleetCoordinator(fleet_dir, machines, workers=1,
                                       lease_seconds=50.0)
        # Simulate a dead worker: open the epoch by hand, lease one
        # machine, and never ack it.
        history_epoch = coordinator.next_epoch_number()
        plan = coordinator.scheduler.plan(
            sorted(coordinator.machines), history_epoch,
            __import__("repro.fleet.scheduler",
                       fromlist=["FleetHistory"]).FleetHistory())
        coordinator.queue.open_epoch(
            history_epoch, coordinator.scheduler.assignments(plan))
        orphan = coordinator.queue.lease(worker=9)
        before = global_metrics().snapshot()["counters"].get(
            "fleet.lease_expired", 0)
        aggregate = coordinator.run_epoch()   # resumes the open epoch
        assert aggregate.summary.machines == 2
        assert orphan.machine in {v.machine for v in aggregate.verdicts}
        # recover_leases() requeued the orphan at resume; no expiry wait.
        after = global_metrics().snapshot()["counters"].get(
            "fleet.lease_expired", 0)
        assert after == before


def machines_by_name(machines):
    return {machine.name: machine for machine in machines}


class TestCheckpointProperty:
    """Hypothesis: any kill point yields an identical completed epoch."""

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(kill_after=st.integers(min_value=1, max_value=3),
           infected=st.sets(st.integers(min_value=0, max_value=2),
                            max_size=2),
           kill_in_gap=st.booleans())
    def test_any_kill_point_resumes_identically(self, tmp_path_factory,
                                                kill_after, infected,
                                                kill_in_gap):
        """Die at the N-th ack boundary — or, with ``kill_in_gap``,
        *inside* the checkpoint: after the baseline put and the journal
        record but before the queue ack commits."""
        tmp_path = tmp_path_factory.mktemp("fleet-prop")
        reference = FleetCoordinator(
            str(tmp_path / "ref"),
            build_fleet(size=3, infected=tuple(infected)),
            workers=2).run_epoch()

        fleet_dir = str(tmp_path / "killed")
        machines = build_fleet(size=3, infected=tuple(infected))
        coordinator = FleetCoordinator(fleet_dir, machines, workers=2)
        if kill_in_gap:
            real_ack = coordinator.queue.ack
            calls = {"n": 0}

            def gap_ack(lease, **payload):
                calls["n"] += 1
                if calls["n"] == kill_after:
                    raise CoordinatorKilled("died in the journal→ack gap")
                return real_ack(lease, **payload)

            coordinator.queue.ack = gap_ack
        try:
            coordinator.run_epoch(
                kill_after_acks=None if kill_in_gap else kill_after)
            killed = False
        except CoordinatorKilled:
            killed = True
        if killed:
            resumed = FleetCoordinator(fleet_dir, machines,
                                       workers=2).run_epoch()
        else:
            # kill_after exceeded the roster: the epoch just finished.
            resumed = reference
            fleet_dir = str(tmp_path / "ref")
        assert verdict_key(resumed) == verdict_key(reference)
        records = machine_records(fleet_dir, epoch=1)
        assert len({record["machine"] for record in records}) == 3
        # A gap kill leaves the dying machine journaled twice (the
        # resume re-records it; last wins); every other machine exactly
        # once.
        counts = Counter(record["machine"] for record in records)
        assert sorted(counts.values()) == (
            [1, 1, 2] if killed and kill_in_gap else [1, 1, 1])


class TestChaosInterplay:
    def test_epoch_completes_under_lease_faults(self, tmp_path):
        from repro.faults import context as faults_context
        from repro.faults.plan import (SITE_FLEET_LEASE, FaultPlan,
                                       FaultSpec)

        machines = build_fleet(size=3, infected=(1,))
        coordinator = FleetCoordinator(str(tmp_path), machines, workers=2)
        plan = FaultPlan(seed=99, specs=(
            FaultSpec(SITE_FLEET_LEASE, rate=0.4, kinds=("io_error",)),))
        with faults_context.scoped(plan, clock=coordinator.clock):
            aggregate = coordinator.run_epoch()
        assert aggregate.summary.machines == 3
        assert aggregate.infected_machines() == ["m01"]
        assert plan.fired_count(SITE_FLEET_LEASE) > 0

    def test_chaos_kill_resume_matches_reference(self, tmp_path):
        """The full interplay: scan-site faults active, coordinator
        killed mid-epoch, resumed — verdicts still match the
        uninterrupted chaos run (per-machine fault streams are
        scheduling-independent)."""
        from repro.faults.plan import FaultPlan

        seed = 2026

        def run(fleet_dir, kill_after=None):
            machines = build_fleet(size=3, infected=(0, 2))
            coordinator = FleetCoordinator(
                fleet_dir, machines, workers=2,
                fault_plan=FaultPlan.default(seed, rate=0.02))
            return coordinator.run_epoch(kill_after_acks=kill_after)

        reference = run(str(tmp_path / "ref"))
        chaos_dir = str(tmp_path / "killed")
        with pytest.raises(CoordinatorKilled):
            run(chaos_dir, kill_after=1)
        machines = build_fleet(size=3, infected=(0, 2))
        resumed = FleetCoordinator(
            chaos_dir, machines, workers=2,
            fault_plan=FaultPlan.default(seed, rate=0.02)).run_epoch()
        assert verdict_key(resumed) == verdict_key(reference)
        records = machine_records(chaos_dir, epoch=1)
        assert len(records) == 3


class TestLeaseRecoveryEdgeCases:
    """The queue/checkpoint edge cases distributed mode leans on."""

    def test_ack_after_timeout_is_stale_and_does_not_requeue(
            self, tmp_path):
        clock = SimClock()
        queue = WorkQueue(str(tmp_path), clock=clock, lease_seconds=10.0)
        queue.open_epoch(1, {"m00": 0})
        lease = queue.lease(0)
        clock.advance(10.0)
        with pytest.raises(StaleLease):
            queue.ack(lease, verdict="clean")
        # The refusal has no side effects: not acked, and requeueing is
        # expire_leases()'s job, not the failed ack's.
        assert queue.acked_machines() == {}
        assert queue.pending_machines() == []
        assert queue.expire_leases() == ["m00"]
        assert queue.pending_machines() == ["m00"]

    def test_reclaimed_lease_token_cannot_ack(self, tmp_path):
        clock = SimClock()
        queue = WorkQueue(str(tmp_path), clock=clock, lease_seconds=10.0)
        queue.open_epoch(1, {"m00": 0})
        stale = queue.lease(0)
        clock.advance(11.0)
        assert queue.expire_leases() == ["m00"]
        fresh = queue.lease(1)
        assert fresh.token != stale.token
        with pytest.raises(StaleLease):
            queue.ack(stale, verdict="clean")
        assert queue.acked_machines() == {}
        queue.ack(fresh, verdict="clean")
        assert queue.epoch_drained()

    def test_slow_scan_late_ack_is_surfaced_everywhere(
            self, tmp_path, capsys):
        """A lease shorter than the scan: every fresh verdict goes late,
        the machines complete via the durable-baseline skip path, and
        the waste is visible in the summary, the journal, the metrics,
        and the operator report."""
        reference = FleetCoordinator(
            str(tmp_path / "ref"), build_fleet(size=3, infected=(1,)),
            workers=1).run_epoch()

        fleet_dir = str(tmp_path / "slow")
        before = global_metrics().counter("fleet.ack.late")
        aggregate = FleetCoordinator(
            fleet_dir, build_fleet(size=3, infected=(1,)), workers=1,
            lease_seconds=0.01).run_epoch()
        # Scans landed durably (store.put precedes the ack), so the
        # expiry → requeue → re-lease cycle rides each machine's
        # baseline instead of re-scanning; verdicts are unchanged.
        assert verdict_key(aggregate) == verdict_key(reference)
        assert aggregate.summary.machines == 3
        assert aggregate.summary.skipped == 3
        assert aggregate.summary.late_acks == 3
        assert global_metrics().counter("fleet.ack.late") == before + 3
        # The epoch-end journal record carries the count...
        with open(f"{fleet_dir}/epochs.jsonl", encoding="utf-8") as handle:
            ends = [json.loads(line) for line in handle
                    if '"epoch-end"' in line]
        assert ends[-1]["late_acks"] == 3
        # ...and scan_report renders it for the operator.
        import importlib.util
        from pathlib import Path
        spec = importlib.util.spec_from_file_location(
            "scan_report_late", Path(__file__).resolve().parent.parent
            / "scripts" / "scan_report.py")
        scan_report = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(scan_report)
        assert scan_report.main([f"{fleet_dir}/epochs.jsonl"]) == 0
        assert "3 late ack(s) dropped" in capsys.readouterr().out

    def test_kill_between_journal_and_ack_resumes_identically(
            self, tmp_path):
        """The narrowest crash window: baseline stored, verdict
        journaled, queue ack never committed."""
        reference = FleetCoordinator(
            str(tmp_path / "ref"), build_fleet(size=3, infected=(1,)),
            workers=1).run_epoch()

        fleet_dir = str(tmp_path / "gap")
        machines = build_fleet(size=3, infected=(1,))
        coordinator = FleetCoordinator(fleet_dir, machines, workers=1)
        real_ack = coordinator.queue.ack
        state = {"killed": False}

        def gap_ack(lease, **payload):
            if not state["killed"]:
                state["killed"] = True
                raise CoordinatorKilled("died after journal, before ack")
            return real_ack(lease, **payload)

        coordinator.queue.ack = gap_ack
        with pytest.raises(CoordinatorKilled):
            coordinator.run_epoch()
        resumed = FleetCoordinator(fleet_dir, machines,
                                   workers=1).run_epoch()
        assert verdict_key(resumed) == verdict_key(reference)
        counts = Counter(record["machine"]
                         for record in machine_records(fleet_dir, epoch=1))
        assert sorted(counts.values()) == [1, 1, 2]

    def test_durable_knob_fsyncs_every_append(self, tmp_path,
                                              monkeypatch):
        import os

        import repro.fleet.queue as queue_mod

        counts = {"n": 0}
        real_fsync = os.fsync

        def counting_fsync(fd):
            counts["n"] += 1
            return real_fsync(fd)

        monkeypatch.setattr(queue_mod.os, "fsync", counting_fsync)

        def run_epoch_ops(queue):
            queue.open_epoch(1, {"m00": 0})
            queue.ack(queue.lease(0), verdict="clean")
            queue.close_epoch()

        lazy = WorkQueue(str(tmp_path / "lazy"))
        run_epoch_ops(lazy)
        # Only the epoch boundary records are fsynced by default (the
        # console index pins cursors against the WAL prefix).
        assert counts["n"] == 2

        counts["n"] = 0
        durable = WorkQueue(str(tmp_path / "durable"), durable=True)
        run_epoch_ops(durable)
        assert counts["n"] > 2       # every append hits the platter
        per_op = counts["n"]

        # The knob threads through the coordinator too.
        counts["n"] = 0
        coordinator = FleetCoordinator(
            str(tmp_path / "coord"), build_fleet(size=1, infected=()),
            workers=1, queue_durable=True)
        coordinator.run_epoch()
        assert counts["n"] >= per_op


def assert_history_current(coordinator):
    """The in-memory scheduler history equals a replay of the journal."""
    assert coordinator.history == load_history(coordinator.epochs_path)


def next_plan(coordinator):
    """The dispatch order the coordinator would open its next epoch with."""
    timings = {name: coordinator.store.scan_seconds(name)
               for name in coordinator.machines}
    plan = coordinator.scheduler.plan(
        sorted(coordinator.machines), coordinator.next_epoch_number(),
        coordinator.history, scan_seconds=timings)
    return [(entry.machine, entry.score) for entry in plan]


def torn_line_warnings(caplog):
    return sum(1 for record in caplog.records
               if "skipping torn journal line" in record.getMessage())


class TestSchedulerHistory:
    """One in-memory history per coordinator: replayed from the epochs
    journal at open, folded at journal-write time, replayed again after
    retention compaction — and always equal to a fresh replay."""

    def test_late_ack_duplicates_fold_like_a_replay(self, tmp_path):
        fleet_dir = str(tmp_path)
        machines = build_fleet(size=3, infected=(1,))
        # Scans outlast the lease, so every fresh verdict is journaled,
        # acked late, and journaled again by the re-lease.
        coordinator = FleetCoordinator(fleet_dir, machines, workers=1,
                                       lease_seconds=0.01)
        for epoch in range(1, 4):
            aggregate = coordinator.run_epoch()
            assert aggregate.summary.late_acks >= 1
            assert_history_current(coordinator)
            machines[epoch % 3].volume.create_file(
                f"\\Temp\\churn{epoch}.txt", b"payload")
        counts = Counter(record["machine"]
                         for record in machine_records(fleet_dir, epoch=1))
        assert set(counts.values()) == {2}
        assert coordinator.history.detections["m01"] >= 2

    def test_kill_and_resume_keep_history_current(self, tmp_path):
        fleet_dir = str(tmp_path)
        machines = build_fleet(size=4, infected=(1, 3))
        killed = FleetCoordinator(fleet_dir, machines, workers=2)
        with pytest.raises(CoordinatorKilled):
            killed.run_epoch(kill_after_acks=2)
        assert_history_current(killed)

        # Die again inside a checkpoint: journaled, never acked.
        gap = FleetCoordinator(fleet_dir, machines, workers=2)
        assert_history_current(gap)

        def gap_ack(lease, **payload):
            raise CoordinatorKilled("died after journal, before ack")

        gap.queue.ack = gap_ack
        with pytest.raises(CoordinatorKilled):
            gap.run_epoch()
        assert_history_current(gap)

        resumed = FleetCoordinator(fleet_dir, machines, workers=2)
        assert_history_current(resumed)
        for __ in range(3):
            resumed.run_epoch()
            assert_history_current(resumed)
        assert resumed.history.last_epoch_no == 3
        assert Counter(record["machine"] for record
                       in machine_records(fleet_dir, epoch=1)
                       ).most_common(1)[0][1] == 2

    def test_retention_drop_plans_like_a_fresh_open(self, tmp_path):
        """Compaction drops the only epoch holding m01's detection; the
        live coordinator must forget it exactly as a restart would."""
        from repro.core import disinfect

        fleet_dir = str(tmp_path)
        machines = build_fleet(size=3, infected=(1,))
        options = dict(workers=1, compact_every=2, retain_epochs=1)
        coordinator = FleetCoordinator(fleet_dir, machines, **options)
        coordinator.run_epoch()
        assert_history_current(coordinator)
        assert coordinator.history.detections == {"m01": 1}

        disinfect(machines_by_name(machines)["m01"])
        second = coordinator.run_epoch()
        assert "m01" not in second.infected_machines()
        assert_history_current(coordinator)
        assert coordinator.history.detections == {}
        assert coordinator.history.confirmations == {}

        fresh = FleetCoordinator(fleet_dir, machines, **options)
        assert fresh.history == coordinator.history
        assert next_plan(coordinator) == next_plan(fresh)
        coordinator.run_epoch()
        assert_history_current(coordinator)

    def test_steady_epochs_never_replay_the_journal(self, tmp_path,
                                                    monkeypatch):
        import repro.fleet.coordinator as coordinator_mod
        import repro.telemetry.journal_io as journal_io

        fleet_dir = str(tmp_path)
        machines = build_fleet(size=3, infected=(1,))
        FleetCoordinator(fleet_dir, machines, workers=2).run_epoch()

        epochs_path = os.path.abspath(os.path.join(fleet_dir,
                                                   "epochs.jsonl"))
        loads, reads = [], []
        real_load = coordinator_mod.load_history
        real_iter = journal_io.iter_journal

        def counting_load(path):
            loads.append(path)
            return real_load(path)

        def counting_iter(path, start=0, **kwargs):
            if os.path.abspath(path) == epochs_path and not start:
                reads.append(path)
            return real_iter(path, start, **kwargs)

        monkeypatch.setattr(coordinator_mod, "load_history", counting_load)
        monkeypatch.setattr(coordinator_mod, "iter_journal", counting_iter)
        monkeypatch.setattr(journal_io, "iter_journal", counting_iter)
        coordinator = FleetCoordinator(fleet_dir, machines, workers=2)
        assert reads, "opening replays the journal: the counter sees it"
        del loads[:], reads[:]
        for __ in range(3):
            aggregate = coordinator.run_epoch()
            assert aggregate.summary.skipped == 3
        assert loads == [] and reads == []

    def test_torn_journal_line_is_warned_once_at_open(self, tmp_path,
                                                      caplog):
        fleet_dir = str(tmp_path)
        machines = build_fleet(size=2, infected=())
        first = FleetCoordinator(fleet_dir, machines, workers=1)
        first.run_epoch()
        with open(first.epochs_path, "ab") as handle:
            handle.write(b'{"type": "fleet-machine", "trunc\n')
        first.run_epoch()   # the torn line is now mid-journal

        caplog.clear()
        with caplog.at_level(logging.WARNING):
            coordinator = FleetCoordinator(fleet_dir, machines, workers=1)
            assert torn_line_warnings(caplog) == 1
            coordinator.run(3)
        assert torn_line_warnings(caplog) == 1
        assert_history_current(coordinator)

    def test_torn_tails_never_swallow_the_resumed_checkpoint(self,
                                                             tmp_path):
        fleet_dir = str(tmp_path)
        machines = build_fleet(size=4, infected=(1,))
        with pytest.raises(CoordinatorKilled):
            FleetCoordinator(fleet_dir, machines, workers=2).run_epoch(
                kill_after_acks=1)
        # The dead coordinator's last appends were cut mid-line.
        for name, torn in (("epochs.jsonl",
                            b'{"type": "fleet-machine", "tru'),
                           ("baselines.jsonl", b'{"machine": "m0')):
            with open(os.path.join(fleet_dir, name), "ab") as handle:
                handle.write(torn)

        resumed = FleetCoordinator(fleet_dir, machines, workers=2)
        with pytest.raises(CoordinatorKilled):
            resumed.run_epoch(kill_after_acks=1)
        acked = WorkQueue(fleet_dir).acked_machines()
        assert len(acked) == 2
        journaled = {record["machine"] for record
                     in read_journal(resumed.epochs_path,
                                     on_torn=lambda *_: None)
                     if record.get("type") == "fleet-machine"}
        store = BaselineStore(fleet_dir)
        for machine in acked:
            assert machine in journaled
            assert store.get(machine) is not None
        assert_history_current(resumed)


class TestCliAndReport:
    def test_sweep_epochs_and_fleet_status_cli(self, tmp_path, capsys):
        from repro.__main__ import main

        fleet_dir = str(tmp_path / "fleet")
        assert main(["sweep", "--epochs", "2", "--escalate", "winpe",
                     "--fleet-dir", fleet_dir, "--fleet-size", "3",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["epochs"]) == 2
        assert payload["epochs"][1]["skipped"] == 3

        assert main(["fleet-status", "--fleet-dir", fleet_dir,
                     "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["epochs_completed"] == 2
        assert status["open_epoch"] is None

    def test_scan_report_renders_fleet_journal(self, tmp_path, capsys):
        import importlib.util
        from pathlib import Path

        machines = build_fleet(size=3, infected=(1,))
        FleetCoordinator(str(tmp_path), machines, workers=2).run_epoch()

        spec = importlib.util.spec_from_file_location(
            "scan_report", Path(__file__).resolve().parent.parent
            / "scripts" / "scan_report.py")
        scan_report = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spec and scan_report)
        assert scan_report.main([str(tmp_path / "epochs.jsonl")]) == 0
        output = capsys.readouterr().out
        assert "confirmed by winpe" in output
        assert "epoch 1:" in output
        assert "m01" in output
