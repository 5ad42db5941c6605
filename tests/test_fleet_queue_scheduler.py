"""Unit tests for the fleet work queue, scheduler, policy, aggregator."""

from __future__ import annotations

import json
import os

import pytest

from repro.clock import SimClock
from repro.errors import FleetError, StaleLease
from repro.fleet.aggregator import FleetAggregator, MachineVerdict
from repro.fleet.policy import EscalationPolicy
from repro.fleet.queue import WorkQueue
from repro.fleet.scheduler import (FleetHistory, FleetScheduler,
                                   load_history, stable_shard)


def open_queue(tmp_path, machines, shards=1, **kwargs):
    queue = WorkQueue(str(tmp_path), **kwargs)
    queue.open_epoch(1, {name: stable_shard(name, shards)
                         for name in machines})
    return queue


class TestWorkQueue:
    def test_lease_ack_drains_epoch(self, tmp_path):
        queue = open_queue(tmp_path, ["a", "b"])
        first = queue.lease(worker=0)
        second = queue.lease(worker=0)
        assert {first.machine, second.machine} == {"a", "b"}
        assert queue.lease(worker=0) is None
        queue.ack(first, verdict="clean")
        queue.ack(second, verdict="clean")
        assert queue.epoch_drained()
        queue.close_epoch()
        assert queue.epoch is None

    def test_close_refuses_while_work_outstanding(self, tmp_path):
        queue = open_queue(tmp_path, ["a"])
        with pytest.raises(FleetError, match="pending"):
            queue.close_epoch()

    def test_double_ack_raises_stale_lease(self, tmp_path):
        queue = open_queue(tmp_path, ["a"])
        lease = queue.lease(worker=0)
        queue.ack(lease, verdict="clean")
        with pytest.raises(StaleLease, match="already acked"):
            queue.ack(lease, verdict="clean")

    def test_expired_lease_is_requeued_and_late_ack_rejected(self, tmp_path):
        clock = SimClock()
        queue = open_queue(tmp_path, ["a"], clock=clock, lease_seconds=60.0)
        dead = queue.lease(worker=0)
        clock.advance(61.0)
        assert queue.expire_leases() == ["a"]
        # The machine went back to its shard; a new worker re-leases it.
        fresh = queue.lease(worker=1)
        assert fresh.machine == "a"
        assert fresh.token > dead.token
        # The dead worker wakes up and tries to ack its stale claim.
        with pytest.raises(StaleLease, match="superseded"):
            queue.ack(dead, verdict="clean")
        queue.ack(fresh, verdict="clean")
        assert queue.epoch_drained()

    def test_ack_after_expiry_without_requeue_rejected(self, tmp_path):
        clock = SimClock()
        queue = open_queue(tmp_path, ["a"], clock=clock, lease_seconds=60.0)
        lease = queue.lease(worker=0)
        clock.advance(120.0)
        with pytest.raises(StaleLease, match="expired"):
            queue.ack(lease, verdict="clean")

    def test_renew_extends_expiry(self, tmp_path):
        clock = SimClock()
        queue = open_queue(tmp_path, ["a"], clock=clock, lease_seconds=60.0)
        lease = queue.lease(worker=0)
        clock.advance(50.0)
        renewed = queue.renew(lease)
        assert renewed.expires_at == pytest.approx(110.0)
        clock.advance(50.0)    # 100s: stale for the old, live for the new
        queue.ack(renewed, verdict="clean")

    def test_wal_replay_restores_state(self, tmp_path):
        clock = SimClock()
        queue = open_queue(tmp_path, ["a", "b", "c"], clock=clock)
        leased = queue.lease(worker=0)
        queue.ack(queue.lease(worker=0), verdict="clean", scanned=True)
        del queue

        restarted = WorkQueue(str(tmp_path))
        assert restarted.epoch == 1
        assert len(restarted.acked_machines()) == 1
        assert leased.machine in restarted.leased_machines()
        assert restarted.pending_count() == 1
        # The restarted clock never runs behind the WAL's last record.
        assert restarted.clock.now() >= clock.now() - 1e-6

    def test_recover_leases_requeues_orphans(self, tmp_path):
        queue = open_queue(tmp_path, ["a", "b"])
        queue.lease(worker=0)
        restarted = WorkQueue(str(tmp_path))
        recovered = restarted.recover_leases()
        assert recovered == ["a"] or recovered == ["b"]
        assert restarted.pending_count() == 2
        assert not restarted.leased_machines()

    def test_torn_tail_line_is_skipped(self, tmp_path):
        queue = open_queue(tmp_path, ["a", "b"])
        queue.ack(queue.lease(worker=0), verdict="clean")
        with open(queue.path, "a", encoding="utf-8") as handle:
            handle.write('{"op": "ack", "machine": "b"')   # torn mid-write
        restarted = WorkQueue(str(tmp_path))
        # The torn ack is lost; machine b is simply still pending.
        assert len(restarted.acked_machines()) == 1
        assert restarted.pending_count() == 1

    def test_work_stealing_from_deepest_shard(self, tmp_path):
        queue = WorkQueue(str(tmp_path))
        # Shard 0 holds one machine, shard 1 holds three.
        queue.open_epoch(1, {"a0": 0, "b0": 1, "b1": 1, "b2": 1})
        own = queue.lease(worker=0)
        assert own.machine == "a0" and not own.stolen
        stolen = queue.lease(worker=0)   # own shard drained -> steal
        assert stolen.machine == "b0" and stolen.stolen
        assert stolen.shard == 1

    def test_compact_preserves_mid_epoch_state(self, tmp_path):
        queue = open_queue(tmp_path, ["a", "b", "c"])
        queue.ack(queue.lease(worker=0), verdict="clean")
        queue.lease(worker=0)            # outstanding lease -> requeued
        before = queue.compact()
        assert before["records_after"] < before["records_before"]
        restarted = WorkQueue(str(tmp_path))
        assert restarted.epoch == 1
        assert len(restarted.acked_machines()) == 1
        assert restarted.pending_count() == 2

    def test_compact_between_epochs_empties_wal(self, tmp_path):
        queue = open_queue(tmp_path, ["a"])
        queue.ack(queue.lease(worker=0), verdict="clean")
        queue.close_epoch()
        stats = queue.compact()
        assert stats["records_after"] == 0
        assert os.path.getsize(queue.path) == 0

    def test_fault_at_lease_site_loses_nothing(self, tmp_path):
        from repro.errors import TransientIoError
        from repro.faults import context as faults_context
        from repro.faults.plan import SITE_FLEET_LEASE, FaultPlan, FaultSpec

        plan = FaultPlan(seed=1, specs=(
            FaultSpec(SITE_FLEET_LEASE, mode="one_shot", rate=1.0,
                      kinds=("io_error",)),))
        queue = open_queue(tmp_path, ["a"])
        with faults_context.scoped(plan, clock=queue.clock):
            with pytest.raises(TransientIoError):
                queue.lease(worker=0)
            assert queue.pending_count() == 1   # machine still pending
            retry = queue.lease(worker=0)       # one-shot spent: succeeds
        assert retry.machine == "a"


class TestFleetScheduler:
    def test_stable_shard_is_deterministic_and_in_range(self):
        for shards in (1, 2, 5):
            for name in ("client-00", "client-01", "fleet-42"):
                value = stable_shard(name, shards)
                assert value == stable_shard(name, shards)
                assert 0 <= value < shards

    def test_never_scanned_machines_lead(self):
        history = FleetHistory()
        history.note_verdict(1, "seen", infected=True, confirmed=True,
                             errored=False)
        plan = FleetScheduler().plan(["seen", "new"], epoch=2,
                                     history=history)
        assert plan[0].machine == "new"

    def test_risk_outranks_staleness(self):
        history = FleetHistory()
        # Both seen last epoch; one was a confirmed detection.
        history.note_verdict(5, "hot", infected=True, confirmed=True,
                             errored=False)
        history.note_verdict(5, "cold", infected=False, confirmed=False,
                             errored=False)
        plan = FleetScheduler().plan(["cold", "hot"], epoch=6,
                                     history=history)
        assert plan[0].machine == "hot"
        assert plan[0].risk == pytest.approx(3.0)   # 1 det + 2x confirm

    def test_quarantine_bumps_risk(self):
        history = FleetHistory()
        history.note_verdict(1, "a", False, False, False)
        history.note_verdict(1, "b", False, False, False)
        plan = FleetScheduler().plan(["a", "b"], epoch=2, history=history,
                                     quarantined=["b"])
        assert plan[0].machine == "b"

    def test_lpt_breaks_score_ties(self):
        history = FleetHistory()
        for name in ("fast", "slow"):
            history.note_verdict(1, name, False, False, False)
        plan = FleetScheduler().plan(
            ["fast", "slow"], epoch=2, history=history,
            scan_seconds={"fast": 1.0, "slow": 300.0})
        assert plan[0].machine == "slow"

    def test_load_history_replays_journal(self, tmp_path):
        path = tmp_path / "epochs.jsonl"
        records = [
            {"type": "fleet-machine", "epoch": 1, "machine": "a",
             "verdict": "infected", "confirmed": True, "error": None},
            {"type": "fleet-machine", "epoch": 1, "machine": "b",
             "verdict": "error", "error": "boom"},
            {"type": "epoch-end", "epoch": 1},
        ]
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")
            handle.write("{torn")
        history = load_history(str(path))
        assert history.last_epoch_no == 1
        assert history.detections["a"] == 1
        assert history.confirmations["a"] == 1
        assert history.failures["b"] == 1


class TestEscalationPolicy:
    def test_unknown_method_rejected(self):
        with pytest.raises(FleetError, match="unknown confirmation"):
            EscalationPolicy(confirm_with="prayer")

    def test_should_escalate_only_on_findings(self, booted):
        from repro.core.ghostbuster import GhostBuster

        policy = EscalationPolicy()
        clean = GhostBuster(booted).inside_scan(
            resources=("files",))
        assert not policy.should_escalate(clean)
        assert not EscalationPolicy(escalate=False).should_escalate(clean)

    @pytest.mark.parametrize("method", ["winpe", "vmscan"])
    def test_confirm_stamps_provenance(self, method, booted):
        from repro.core.ghostbuster import GhostBuster
        from repro.ghostware import HackerDefender

        HackerDefender().install(booted)
        inside = GhostBuster(booted, advanced=True).inside_scan(
            resources=("files", "registry"))
        policy = EscalationPolicy(confirm_with=method)
        assert policy.should_escalate(inside)
        outcome = policy.confirm(booted, inside)
        assert outcome.escalated and outcome.confirmed
        assert outcome.confirmed_by == method
        assert outcome.outside_report.confirmed_by == method
        assert outcome.outside_findings > 0
        assert booted.powered_on   # confirmation reboots the box


class TestFleetAggregator:
    @staticmethod
    def verdict(machine, epoch=1, verdict="clean", **kwargs):
        defaults = dict(machine=machine, epoch=epoch, verdict=verdict,
                        scanned=True)
        defaults.update(kwargs)
        return MachineVerdict(**defaults)

    def test_summary_counts(self):
        aggregator = FleetAggregator(epoch=1)
        aggregator.observe(self.verdict("a"))
        aggregator.observe(self.verdict("b", verdict="infected",
                                        findings=2, escalated=True,
                                        confirmed=True,
                                        confirmed_by="winpe"))
        aggregator.observe(self.verdict("c", verdict="error",
                                        scanned=False, error="boom"))
        summary = aggregator.summary
        assert (summary.machines, summary.clean, summary.infected,
                summary.errors) == (3, 1, 1, 1)
        assert summary.escalated == 1 and summary.confirmed == 1

    def test_outbreak_fires_at_threshold_once(self):
        aggregator = FleetAggregator(epoch=1, outbreak_threshold=3)
        ghost = ["file:\\windows\\hxdef100.exe"]
        assert not aggregator.observe(
            self.verdict("m1", verdict="infected", finding_ids=ghost))
        assert not aggregator.observe(
            self.verdict("m2", verdict="infected", finding_ids=ghost))
        alerts = aggregator.observe(
            self.verdict("m3", verdict="infected", finding_ids=ghost))
        assert len(alerts) == 1
        assert alerts[0].machines == ["m1", "m2", "m3"]
        # A fourth sighting does not re-alert.
        assert not aggregator.observe(
            self.verdict("m4", verdict="infected", finding_ids=ghost))
        assert aggregator.summary.outbreaks == 1

    def test_distinct_ghosts_alert_independently(self):
        aggregator = FleetAggregator(epoch=1, outbreak_threshold=2)
        fired = []
        for index, identity in enumerate(["g1", "g2"] * 2):
            fired += aggregator.observe(self.verdict(
                f"m{index}", verdict="infected", finding_ids=[identity]))
        assert sorted(alert.identity for alert in fired) == ["g1", "g2"]

    def test_verdict_round_trips_through_dict(self):
        """to_dict() is asdict()'s record, key order included; its lists
        are the caller's own copies; from_dict() inverts it."""
        from dataclasses import asdict

        partial = self.verdict("a", verdict="infected", findings=3,
                               escalated=True, confirmed=True,
                               confirmed_by="vmscan",
                               finding_ids=["x"], mass_hiding=True)
        full = self.verdict(
            "b", epoch=4, verdict="infected", findings=2, noise=1,
            skipped=True, escalated=True, confirmed=True,
            confirmed_by="winpe", baseline_id="b-000007",
            scan_seconds=12.5, error="transient", mass_hiding=True,
            finding_ids=["file:\\windows\\hxdef100.exe", "asep:hxdef"],
            sampled=True, coverage=0.375, sampling_escalated=True,
            campaign_fingerprints=["file:\\windows\\*.exe"])
        for original in (partial, full):
            record = original.to_dict()
            assert record["type"] == "fleet-machine"
            assert list(record.items()) == list(
                dict(asdict(original), type="fleet-machine").items())
            assert MachineVerdict.from_dict(record) == original
            lists = (list(original.finding_ids),
                     list(original.campaign_fingerprints))
            record["finding_ids"].append("file:\\extra")
            record["campaign_fingerprints"].clear()
            assert (original.finding_ids,
                    original.campaign_fingerprints) == lists
