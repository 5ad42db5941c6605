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
from repro.errors import CoordinatorKilled, FleetError, StaleLease
from repro.fleet import (EscalationPolicy, FleetCoordinator, WorkQueue,
                         clone_fleet, fleet_status, load_history)
from repro.ghostware import (AdsGhost, Aphex, FuRootkit, HackerDefender,
                             LowLevelInterferenceGhost)
from repro.machine import Machine
from repro.telemetry.journal_io import read_journal
from repro.telemetry.metrics import global_metrics
from repro.workloads import STRAINS, populate_machine
from tests.test_fleet_transport import dial, scan_ack, start_controller


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


def golden_image(file_count=120):
    """The golden image clone fleets are imaged from."""
    golden = Machine("golden", disk_mb=512, max_records=8192)
    populate_machine(golden, file_count=file_count, registry_scale=200,
                     seed=7)
    return golden


def checkpoint_failures(coordinator, aggregate):
    """What of ``aggregate``'s checkpoint does not read back from disk.

    Every non-error verdict must name the baseline a reopened store
    holds for its machine, and a replay of the epochs journal must give
    the live coordinator's scheduler history.
    """
    store = BaselineStore(coordinator.fleet_dir)
    failures = []
    for verdict in aggregate.verdicts:
        if verdict.verdict == "error":
            continue
        stored = getattr(store.get(verdict.machine), "baseline_id", None)
        if stored != verdict.baseline_id:
            failures.append(f"{verdict.machine}: verdict names baseline "
                            f"{verdict.baseline_id}, store holds {stored}")
    if load_history(coordinator.epochs_path) != coordinator.history:
        failures.append("epochs.jsonl replays to another history")
    return failures


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
        # The rehydrated infected verdict keeps its provenance, and it
        # names the baseline it was served from.
        skipped = next(v for v in second.verdicts if v.machine == "m01")
        assert skipped.skipped and skipped.confirmed_by == "winpe"
        for verdict in second.verdicts:
            assert verdict.baseline_id == \
                coordinator.store.get(verdict.machine).baseline_id

    def test_changed_machine_is_rescanned(self, tmp_path):
        machines = build_fleet(size=3, infected=(1,))
        coordinator = FleetCoordinator(str(tmp_path), machines)
        coordinator.run_epoch()
        machines[2].volume.create_file("\\Temp\\new.txt", b"payload")
        patched = global_metrics().counter("journal.records_patched")
        second = coordinator.run_epoch()
        rescanned = {v.machine for v in second.verdicts if v.scanned}
        assert rescanned == {"m02"}
        assert second.summary.skipped == 2
        # The rescan repaired its caches through the change journal...
        assert global_metrics().counter("journal.records_patched") > patched
        # ...and advanced its baseline: the next epoch skips every
        # machine.
        assert coordinator.run_epoch().summary.skipped == len(machines)
        # The delta verdicts equal a fresh coordinator's cold epoch.
        cold = FleetCoordinator(str(tmp_path / "cold"),
                                machines).run_epoch()
        assert verdict_key(second) == verdict_key(cold)
        assert ({v.machine: v.finding_ids for v in second.verdicts}
                == {v.machine: v.finding_ids for v in cold.verdicts})

    def test_escalation_precision_over_the_strain_corpus(self, tmp_path):
        """The outside-the-box tier is reserved for real suspects: over
        the twelve-strain corpus plus four clean golden-image clones,
        every escalated machine is infected, and every confirmation
        names WinPE."""
        corpus = (*STRAINS.values(), AdsGhost, FuRootkit)
        assert len(corpus) == 12
        fleet = clone_fleet(golden_image(), len(corpus) + 4)
        for machine, ghost_cls in zip(fleet, corpus):
            ghost = ghost_cls()
            ghost.install(machine)
            if isinstance(ghost, FuRootkit):
                victim = machine.start_process("\\Windows\\explorer.exe",
                                               name="dkom_victim.exe")
                ghost.hide_process(machine, victim.pid)
        infected = {machine.name for machine in fleet[:len(corpus)]}
        aggregate = FleetCoordinator(
            str(tmp_path), fleet, workers=2,
            policy=EscalationPolicy(confirm_with="winpe"),
            resources=("files", "registry", "processes")).run_epoch()
        escalated = {v.machine for v in aggregate.verdicts if v.escalated}
        assert escalated and escalated <= infected   # precision 1.0
        confirmed = [v for v in aggregate.verdicts if v.confirmed]
        assert confirmed
        assert all(v.machine in escalated and v.confirmed_by == "winpe"
                   for v in confirmed)

    @pytest.mark.parametrize("method", ["vmscan", "ris"])
    def test_vmscan_policy_provenance(self, tmp_path, method):
        machines = build_fleet(size=2, infected=(0,), ghost_cls=Aphex)
        coordinator = FleetCoordinator(
            str(tmp_path), machines,
            policy=EscalationPolicy(confirm_with=method))
        aggregate = coordinator.run_epoch()
        infected = next(v for v in aggregate.verdicts if v.confirmed)
        assert infected.confirmed_by == method

    def test_ris_sweep_catches_ghost_blinding_the_inside_scan(
            self, tmp_path):
        # DeepGhost scrubs the raw disk reads the inside scan relies on
        # (ablation A3), so its inside report is clean.  WinPE confirms
        # on demand and never boots it; RIS network-boots every scanned
        # machine and convicts it from outside.
        machines = build_fleet(size=3, infected=(1,),
                               ghost_cls=LowLevelInterferenceGhost)
        on_demand = FleetCoordinator(str(tmp_path / "winpe"),
                                     machines).run_epoch()
        assert on_demand.infected_machines() == []
        assert on_demand.summary.escalated == 0

        coordinator = FleetCoordinator(
            str(tmp_path / "ris"), machines,
            policy=EscalationPolicy(confirm_with="ris"))
        first = coordinator.run_epoch()
        assert first.summary.escalated == len(machines)
        assert first.infected_machines() == ["m01"]
        deep = next(v for v in first.verdicts if v.machine == "m01")
        assert deep.confirmed_by == "ris"
        assert "file:\\windows\\deepghost.exe" in deep.finding_ids
        # The outside verdict is the stored one: the steady epoch skips
        # m01 and keeps it infected.
        second = coordinator.run_epoch()
        assert second.summary.skipped == len(machines)
        assert second.infected_machines() == ["m01"]

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

    def test_retention_without_console_index(self, tmp_path):
        # Retention is the coordinator's own journal rewrite, with or
        # without the console's index.
        coordinator = FleetCoordinator(
            str(tmp_path), build_fleet(size=2, infected=()),
            compact_every=1, retain_epochs=1, console_index=False)
        coordinator.run(3)
        epochs = {record["epoch"]
                  for record in read_journal(coordinator.epochs_path)
                  if record.get("epoch") is not None}
        assert epochs == {3}
        assert coordinator.history == load_history(coordinator.epochs_path)

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
        """A lease taken by a worker that dies is requeued when the
        epoch resumes, and the machine still completes within it."""
        fleet_dir = str(tmp_path)
        machines = build_fleet(size=2, infected=())
        coordinator = FleetCoordinator(fleet_dir, machines, workers=1)
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
        aggregate = coordinator.run_epoch()   # resumes the open epoch
        assert aggregate.summary.machines == 2
        assert orphan.machine in {v.machine for v in aggregate.verdicts}

    def test_drain_refuses_to_wait_on_a_lease_taken_outside_it(
            self, tmp_path):
        """Resume requeues every lease, so a machine the drain finds
        leased with nothing pending is held by a live claim from
        outside it, which only its holder can end: the drain raises."""
        coordinator = FleetCoordinator(
            str(tmp_path), build_fleet(size=2, infected=()), workers=1)
        aggregator, __ = coordinator._open_or_resume()
        foreign = coordinator.queue.lease(worker=9)
        with pytest.raises(FleetError, match="leased outside the drain"):
            coordinator._drain_epoch(aggregator.summary.epoch)
        assert list(coordinator.queue.leased_machines()) == [
            foreign.machine]


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

    def test_reclaimed_lease_token_cannot_ack(self, tmp_path):
        queue = WorkQueue(str(tmp_path))
        queue.open_epoch(1, {"m00": 0})
        stale = queue.lease(0)
        # The holder is declared dead: the machine goes back to its
        # shard, and a new worker re-leases it.
        assert queue.requeue(["m00"]) == ["m00"]
        fresh = queue.lease(1)
        assert fresh.machine == "m00"
        assert fresh.token > stale.token
        # The dead worker wakes up and tries to ack its stale claim.
        with pytest.raises(StaleLease, match="superseded"):
            queue.ack(stale, verdict="clean")
        assert queue.acked_machines() == {}
        queue.ack(fresh, verdict="clean")
        assert queue.epoch_drained()

    def test_slow_scan_late_ack_is_surfaced_everywhere(
            self, tmp_path, capsys):
        """An agent whose scan outlasts its liveness timeout is reaped:
        its verdict is dropped as a late ack, the machine is redone
        under a fresh lease with the verdict unchanged, and the waste is
        visible in the summary, the journal, the metrics, and the
        operator report."""
        reference = FleetCoordinator(
            str(tmp_path / "ref"), build_fleet(size=2, infected=(1,)),
            workers=1).run_epoch()

        machines = machines_by_name(build_fleet(size=2, infected=(1,)))
        clock = SimClock()
        coordinator, controller, secret = start_controller(
            tmp_path / "slow", sorted(machines), agent_timeout_seconds=5.0,
            liveness_clock=clock)
        before = global_metrics().counter("fleet.ack.late")
        try:
            aggregator, __ = coordinator._open_or_resume()
            channel, __ = dial(controller, secret, "agent-a")
            channel.send({"op": "lease"})
            slow = scan_ack(channel.recv(timeout=5.0), machines)
            # The scan outlasts the liveness timeout: the agent is reaped
            # and its lease requeued; it reconnects and acks anyway.
            clock.advance(10.0)
            assert controller.reap() == ["agent-a"]
            rejoin, __ = dial(controller, secret, "agent-a")
            rejoin.send(slow)
            assert rejoin.recv(timeout=5.0)["op"] == "ack-late"
            while True:
                rejoin.send({"op": "lease"})
                reply = rejoin.recv(timeout=5.0)
                if reply["op"] != "lease-ok":
                    break
                rejoin.send(scan_ack(reply, machines))
                assert rejoin.recv(timeout=5.0)["op"] == "ack-ok"
            assert reply["op"] == "lease-none"
            assert reply["state"] == "drained"
            rejoin.close()
            coordinator._finish_epoch(aggregator)
        finally:
            controller.stop()
        assert verdict_key(aggregator) == verdict_key(reference)
        assert aggregator.summary.machines == 2
        assert aggregator.summary.scanned == 2
        assert aggregator.summary.late_acks == 1
        assert global_metrics().counter("fleet.ack.late") == before + 1
        # The epoch-end journal record carries the count...
        ends = [record for record in read_journal(coordinator.epochs_path)
                if record.get("type") == "epoch-end"]
        assert ends[-1]["late_acks"] == 1
        # ...and scan_report renders it for the operator.
        import importlib.util
        from pathlib import Path
        spec = importlib.util.spec_from_file_location(
            "scan_report_late", Path(__file__).resolve().parent.parent
            / "scripts" / "scan_report.py")
        scan_report = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(scan_report)
        assert scan_report.main([coordinator.epochs_path]) == 0
        assert "1 late ack(s) dropped" in capsys.readouterr().out

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

    def test_one_shot_sweep_confirms_with_ris(self, tmp_path, capsys,
                                              monkeypatch):
        import tempfile

        from repro.__main__ import main

        # The one-shot sweep's temp fleet dirs land under tmp_path.
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))

        assert main(["sweep", "--fleet-size", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        # Every client is network-booted, the clean one included.
        assert payload["epochs"][0]["escalated"] == 3
        confirmed = [record for record in machine_records(
            payload["fleet_dir"], epoch=1) if record["confirmed"]]
        assert sorted(r["machine"] for r in confirmed) == [
            "client-01", "client-02"]
        assert all(r["confirmed_by"] == "ris" for r in confirmed)

        assert main(["sweep", "--fleet-size", "3", "--delta",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [e["scanned"] for e in payload["epochs"]] == [3, 1]
        rescanned = [r["machine"] for r in machine_records(
            payload["fleet_dir"], epoch=2) if r["scanned"]]
        assert rescanned == ["client-00"]

        assert main(["sweep", "--fleet-size", "3", "--trace"]) == 0
        output = capsys.readouterr().out
        scans = [line.split("machine=")[1] for line in output.splitlines()
                 if line.strip().startswith("fleet.scan ")]
        assert sorted(scans) == ["client-00", "client-01", "client-02"]
        assert "ris.netboot_scan" in output
        assert "audit: " in output and "Aphex" in output

        # Injected delays stretch every network boot, and the summary
        # still counts the scans that ran: a live worker keeps its lease.
        assert main(["sweep", "--chaos-seed", "7", "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)["epochs"][0]
        assert (summary["scanned"], summary["skipped"],
                summary["late_acks"]) == (6, 0, 0)

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
        # A torn line is reported on stderr and skipped.
        journal = tmp_path / "epochs.jsonl"
        with open(journal, "ab") as handle:
            handle.write(b'{"type": "fleet-machine", "trunc\n')
        assert scan_report.main([str(journal)]) == 0
        captured = capsys.readouterr()
        assert "epoch 1:" in captured.out
        assert "skipping torn line" in captured.err
        # Anything else (a retired sweep-telemetry export) is refused.
        other = tmp_path / "sweep.jsonl"
        other.write_text('{"type": "sweep"}\n{"type": "machine"}\n')
        assert scan_report.main([str(other)]) == 1
        assert "neither a fleet epochs journal" in capsys.readouterr().err

    def test_scan_report_tells_a_one_record_journal_from_a_bench_file(
            self, tmp_path, capsys):
        """A single-line journal is one JSON object too; its ``type``
        marks it a journal, so it renders as one."""
        import importlib.util
        from pathlib import Path

        repo = Path(__file__).resolve().parent.parent
        spec = importlib.util.spec_from_file_location(
            "scan_report", repo / "scripts" / "scan_report.py")
        scan_report = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(scan_report)
        journal = tmp_path / "epochs.jsonl"
        journal.write_text(json.dumps(
            {"epoch": 1, "machine": "m00", "type": "fleet-machine",
             "verdict": "clean"}) + "\n")
        assert scan_report.main([str(journal)]) == 0
        rows = [line.split() for line in
                capsys.readouterr().out.splitlines()]
        assert ["m00", "1", "clean", "scan", "0", "0.0"] in rows
        assert scan_report.main([str(repo / "BENCH_PR10.json")]) == 0
        assert "stealth campaign curve" in capsys.readouterr().out
