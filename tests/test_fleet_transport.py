"""The fleet wire protocol and the controller/agent split, in-process.

Framing, HMAC auth, seq dedup, and the four transport chaos kinds get
unit coverage on socket pairs; the controller is then exercised against
both hand-driven protocol exchanges (idempotent acks, late acks after
reclaim, liveness reaping on a SimClock, flap detection, controller
restart between acks) and real :class:`ScanAgent` loops running in
threads — whose epoch verdicts must be element-identical to a
single-process coordinator run over the same fleet.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.clock import SimClock
from repro.core.noise import NoiseFilter
from repro.core.reporting import report_to_dict
from repro.errors import TransportError, TransportTimeout
from repro.faults.plan import (SITE_FLEET_RECV, SITE_FLEET_SEND, FaultPlan,
                               FaultSpec)
from repro.fleet import (EscalationPolicy, FleetCoordinator, ScanAgent,
                         fleet_status, transport)
from repro.fleet.controller import (AGENT_DEAD, AGENT_FLAPPING,
                                    ScanController, fold_agent_records)
from repro.fleet.scanwork import perform_machine_scan, skip_verdict
from repro.ghostware import HackerDefender
from repro.machine import Machine
from repro.telemetry.journal_io import read_journal
from repro.telemetry.metrics import global_metrics


def channel_pair():
    left, right = socket.socketpair()
    return transport.FrameChannel(left), transport.FrameChannel(right)


def build_machine(name, infected=False):
    machine = Machine(name, disk_mb=256, max_records=8192)
    machine.boot()
    if infected:
        HackerDefender().install(machine)
    return machine


def make_factory(infected=()):
    def factory(name):
        return build_machine(name, infected=name in infected)
    return factory


def verdict_key(aggregate):
    return {v.machine: (v.verdict, v.findings, v.confirmed, v.confirmed_by)
            for v in aggregate.verdicts}


class TestFraming:
    def test_round_trip(self):
        sender, receiver = channel_pair()
        sender.send({"op": "hello", "payload": [1, 2, {"deep": True}]})
        message = receiver.recv(timeout=2.0)
        assert message["op"] == "hello"
        assert message["payload"] == [1, 2, {"deep": True}]
        assert message["seq"] == 1
        sender.close()
        receiver.close()

    def test_recv_timeout_is_distinguishable(self):
        sender, receiver = channel_pair()
        with pytest.raises(TransportTimeout):
            receiver.recv(timeout=0.05)
        # Timeout subclasses TransportError, so "any wire failure"
        # handlers still catch it.
        assert issubclass(TransportTimeout, TransportError)
        sender.close()
        receiver.close()

    def test_torn_frame_raises(self):
        sender, receiver = channel_pair()
        sender.send({"op": "first"})
        assert receiver.recv(timeout=2.0)["op"] == "first"
        # Half a frame, then the writer dies.
        import json
        import struct
        payload = json.dumps({"op": "second"}).encode()
        frame = struct.pack("!I", len(payload)) + payload
        sender.sock.sendall(frame[:len(frame) // 2])
        sender.sock.close()
        with pytest.raises(TransportError):
            receiver.recv(timeout=2.0)
        receiver.close()

    def test_oversized_frame_rejected(self):
        sender, receiver = channel_pair()
        import struct
        sender.sock.sendall(struct.pack(
            "!I", transport.MAX_FRAME_BYTES + 1))
        with pytest.raises(TransportError, match="oversized"):
            receiver.recv(timeout=2.0)
        sender.close()
        receiver.close()

    def test_seq_dedup_drops_replayed_frames(self):
        plan = FaultPlan(7, (FaultSpec(SITE_FLEET_SEND, rate=1.0,
                                       kinds=("duplicate",)),))
        left, right = socket.socketpair()
        sender = transport.FrameChannel(left, plan=plan, scope="t")
        receiver = transport.FrameChannel(right)
        sender.send({"op": "one"})
        sender.send({"op": "two"})
        assert receiver.recv(timeout=2.0)["op"] == "one"
        # The duplicate of "one" is silently skipped.
        assert receiver.recv(timeout=2.0)["op"] == "two"
        with pytest.raises(TransportTimeout):
            receiver.recv(timeout=0.05)     # dup of "two": skipped too
        sender.close()
        receiver.close()


class TestChaosKinds:
    def test_injected_drop_raises_on_send(self):
        plan = FaultPlan(3, (FaultSpec(SITE_FLEET_SEND, rate=1.0,
                                       kinds=("drop",)),))
        left, right = socket.socketpair()
        sender = transport.FrameChannel(left, plan=plan, scope="t")
        with pytest.raises(TransportError, match="drop"):
            sender.send({"op": "lease"})
        sender.close()
        right.close()

    def test_injected_torn_frame_breaks_both_sides(self):
        plan = FaultPlan(3, (FaultSpec(SITE_FLEET_SEND, rate=1.0,
                                       kinds=("torn_frame",)),))
        left, right = socket.socketpair()
        sender = transport.FrameChannel(left, plan=plan, scope="t")
        receiver = transport.FrameChannel(right)
        with pytest.raises(TransportError):
            sender.send({"op": "ack"})
        with pytest.raises(TransportError):
            receiver.recv(timeout=2.0)
        sender.close()
        receiver.close()

    def test_injected_delay_is_absorbed(self):
        plan = FaultPlan(3, (FaultSpec(SITE_FLEET_SEND, rate=1.0,
                                       kinds=("delay",),
                                       mean_delay_s=0.001),))
        sender_raw, receiver_raw = socket.socketpair()
        sender = transport.FrameChannel(sender_raw, plan=plan, scope="t")
        receiver = transport.FrameChannel(receiver_raw)
        sender.send({"op": "heartbeat"})
        assert receiver.recv(timeout=2.0)["op"] == "heartbeat"
        sender.close()
        receiver.close()

    def test_chaos_plan_touches_only_wire_sites(self):
        plan = transport.chaos_plan(11, rate=0.5)
        sites = {spec.site for spec in plan.specs}
        assert sites == {SITE_FLEET_SEND, SITE_FLEET_RECV}


class TestAuth:
    def test_hello_mac_round_trip(self):
        secret = transport.new_secret()
        hello = transport.make_hello(secret, "agent-0", worker=3)
        assert transport.verify_hello(secret, hello)

    def test_wrong_secret_rejected(self):
        hello = transport.make_hello(transport.new_secret(), "agent-0")
        assert not transport.verify_hello(transport.new_secret(), hello)

    def test_tampered_agent_id_rejected(self):
        secret = transport.new_secret()
        hello = dict(transport.make_hello(secret, "agent-0"),
                     agent="agent-evil")
        assert not transport.verify_hello(secret, hello)

    def test_version_mismatch_rejected(self):
        secret = transport.new_secret()
        hello = dict(transport.make_hello(secret, "agent-0"), v=99)
        assert not transport.verify_hello(secret, hello)


# -- controller harness --------------------------------------------------------


def start_controller(tmp_path, roster, **kwargs):
    coordinator = FleetCoordinator(str(tmp_path), roster, workers=1)
    secret = transport.new_secret()
    kwargs.setdefault("agent_timeout_seconds", 30.0)
    controller = ScanController(coordinator, secret, **kwargs)
    controller.start()
    return coordinator, controller, secret


def dial(controller, secret, agent_id="agent-x", worker=0, role="work"):
    channel = transport.connect(controller.address)
    channel.send(transport.make_hello(secret, agent_id, worker=worker,
                                      role=role))
    reply = channel.recv(timeout=5.0)
    return channel, reply


def scan_ack(lease_reply, machines):
    """Scan a leased machine locally and build its ack frame."""
    lease = lease_reply["lease"]
    name = lease["machine"]
    machine = machines.setdefault(name, build_machine(name))
    outcome = perform_machine_scan(
        machine, lease["epoch"], EscalationPolicy(), NoiseFilter(),
        ("files", "registry"), None)
    verdict = outcome.verdict(name, lease["epoch"])
    return {"op": "ack", "machine": name, "epoch": lease["epoch"],
            "token": lease["token"], "verdict": verdict.to_dict(),
            "report": report_to_dict(outcome.report),
            "disk_generation": outcome.disk_generation,
            "scan_seconds": outcome.scan_seconds,
            "extra": outcome.extra(lease["epoch"])}


class TestControllerProtocol:
    def test_bad_hello_is_rejected(self, tmp_path):
        __, controller, __secret = start_controller(tmp_path, ["m00"])
        try:
            channel, reply = dial(controller, transport.new_secret())
            assert reply == {"op": "error", "error": "auth", "seq": 1}
            channel.close()
        finally:
            controller.stop()

    def test_lease_scan_ack_and_idempotent_replay(self, tmp_path):
        coordinator, controller, secret = start_controller(
            tmp_path, ["m00"])
        try:
            aggregator, __ = coordinator._open_or_resume()
            channel, hello = dial(controller, secret, "agent-a")
            assert hello["op"] == "hello-ok"
            assert hello["outstanding"] == []
            channel.send({"op": "lease"})
            lease_reply = channel.recv(timeout=5.0)
            assert lease_reply["op"] == "lease-ok"
            ack = scan_ack(lease_reply, {})
            channel.send(ack)
            first = channel.recv(timeout=5.0)
            assert first["op"] == "ack-ok" and not first["duplicate"]
            # Blind replay after a "lost reply": nothing lands twice.
            channel.send(ack)
            replay = channel.recv(timeout=5.0)
            assert replay["op"] == "ack-ok" and replay["duplicate"]
            with open(coordinator.queue.path, encoding="utf-8") as handle:
                assert sum(1 for line in handle
                           if '"op": "ack"' in line) == 1
            assert coordinator.queue.epoch_drained()
            coordinator._finish_epoch(aggregator)
            assert aggregator.summary.machines == 1
            assert aggregator.summary.late_acks == 0
            channel.close()
        finally:
            controller.stop()

    def test_outstanding_leases_resurface_on_reconnect(self, tmp_path):
        coordinator, controller, secret = start_controller(
            tmp_path, ["m00", "m01"])
        try:
            coordinator._open_or_resume()
            channel, __ = dial(controller, secret, "agent-a")
            channel.send({"op": "lease"})
            lease_reply = channel.recv(timeout=5.0)
            leased = lease_reply["lease"]["machine"]
            channel.close()    # the lease-ok might as well have been lost
            rejoin, hello = dial(controller, secret, "agent-a")
            outstanding = hello["outstanding"]
            assert [item["lease"]["machine"]
                    for item in outstanding] == [leased]
            assert (outstanding[0]["lease"]["token"]
                    == lease_reply["lease"]["token"])
            rejoin.close()
        finally:
            controller.stop()

    def test_renew_extends_and_stale_renew_refused(self, tmp_path):
        coordinator, controller, secret = start_controller(
            tmp_path, ["m00"])
        try:
            coordinator._open_or_resume()
            channel, __ = dial(controller, secret, "agent-a")
            channel.send({"op": "lease"})
            lease = channel.recv(timeout=5.0)["lease"]
            channel.send({"op": "renew", "machine": lease["machine"],
                          "token": lease["token"]})
            renewed = channel.recv(timeout=5.0)
            assert renewed["op"] == "renew-ok"
            assert renewed["expires_at"] >= lease["expires_at"]
            channel.send({"op": "renew", "machine": lease["machine"],
                          "token": lease["token"] + 7})
            assert channel.recv(timeout=5.0)["op"] == "renew-stale"
            channel.close()
        finally:
            controller.stop()


class TestSkipOnTheWire:
    def test_skip_offer_is_a_generation_and_lands_like_a_local_skip(
            self, tmp_path):
        coordinator, controller, secret = start_controller(
            tmp_path, ["m00"])
        machines = {}
        try:
            channel, __ = dial(controller, secret, "agent-a")
            aggregator, __ = coordinator._open_or_resume()
            channel.send({"op": "lease"})
            channel.send(scan_ack(channel.recv(timeout=5.0), machines))
            assert channel.recv(timeout=5.0)["op"] == "ack-ok"
            coordinator._finish_epoch(aggregator)

            aggregator, __ = coordinator._open_or_resume()
            channel.send({"op": "lease"})
            offer = channel.recv(timeout=5.0)
            assert offer["op"] == "lease-ok"
            assert (offer["baseline_generation"]
                    == machines["m00"].disk.generation)
            assert "baseline" not in offer and "verdict" not in offer
            lease = offer["lease"]
            channel.send({"op": "ack", "machine": "m00",
                          "epoch": lease["epoch"], "token": lease["token"],
                          "skip": True})
            assert channel.recv(timeout=5.0)["op"] == "ack-ok"
            coordinator._finish_epoch(aggregator)
            assert aggregator.summary.skipped == 1
            landed = [record for record in read_journal(
                          coordinator.epochs_path)
                      if record.get("type") == "fleet-machine"
                      and record["epoch"] == 2]
            local = skip_verdict(coordinator.store.get("m00"), 2)
            assert [dict(record, at=None) for record in landed] == [
                dict(local.to_dict(), at=None)]
            channel.close()
        finally:
            controller.stop()

    def test_sampled_baseline_is_not_offered_outside_its_tier(
            self, tmp_path):
        coordinator, controller, secret = start_controller(
            tmp_path, ["m00"])
        outcome = perform_machine_scan(
            build_machine("m00"), 1, EscalationPolicy(), NoiseFilter(),
            ("files", "registry"), None)
        coordinator.store.put(
            "m00", outcome.report, disk_generation=outcome.disk_generation,
            extra=dict(outcome.extra(1), sampled=True))
        try:
            # No sampling policy: every machine is in the full tier, which
            # a sampled baseline never satisfies.
            coordinator._open_or_resume()
            channel, __ = dial(controller, secret, "agent-a")
            channel.send({"op": "lease"})
            offer = channel.recv(timeout=5.0)
            assert offer["op"] == "lease-ok"
            assert "baseline_generation" not in offer
            assert "baseline" not in offer
            channel.close()
        finally:
            controller.stop()


class TestLivenessAndReclaim:
    def test_reap_marks_dead_and_requeues_exactly_its_leases(
            self, tmp_path):
        clock = SimClock()
        coordinator, controller, secret = start_controller(
            tmp_path, ["m00", "m01"], agent_timeout_seconds=5.0,
            liveness_clock=clock)
        try:
            coordinator._open_or_resume()
            channel_a, __ = dial(controller, secret, "agent-a", worker=0)
            channel_a.send({"op": "lease"})
            leased_a = channel_a.recv(timeout=5.0)["lease"]["machine"]
            clock.advance(2.0)
            channel_b, __ = dial(controller, secret, "agent-b", worker=0)
            channel_b.send({"op": "lease"})
            leased_b = channel_b.recv(timeout=5.0)["lease"]["machine"]
            clock.advance(4.0)   # agent-a silent 6s, agent-b only 4s
            assert controller.reap() == ["agent-a"]
            sessions = controller.session_snapshots()
            assert sessions["agent-a"]["state"] == AGENT_DEAD
            assert sessions["agent-b"]["state"] == "alive"
            assert coordinator.queue.pending_machines() == [leased_a]
            assert leased_b in coordinator.queue.leased_machines()
            # The transition is journaled for offline status tools.
            status = fleet_status(str(tmp_path))
            assert status["agents"]["agent-a"]["state"] == AGENT_DEAD
            assert status["agents"]["agent-a"]["last_event"] == "dead"
            channel_b.close()
        finally:
            controller.stop()

    def test_late_ack_after_reclaim_is_counted_and_dropped(
            self, tmp_path):
        clock = SimClock()
        coordinator, controller, secret = start_controller(
            tmp_path, ["m00"], agent_timeout_seconds=5.0,
            liveness_clock=clock)
        try:
            aggregator, __ = coordinator._open_or_resume()
            channel, __ = dial(controller, secret, "agent-a")
            channel.send({"op": "lease"})
            lease_reply = channel.recv(timeout=5.0)
            ack = scan_ack(lease_reply, {})
            clock.advance(10.0)
            assert controller.reap() == ["agent-a"]
            before = global_metrics().snapshot()["counters"].get(
                "fleet.ack.late", 0)
            # The "dead" agent finishes its scan and acks anyway (reap
            # closed its channel, so it reconnects first — exactly what
            # the real agent loop does).
            rejoin, __ = dial(controller, secret, "agent-a")
            rejoin.send(ack)
            assert rejoin.recv(timeout=5.0)["op"] == "ack-late"
            after = global_metrics().snapshot()["counters"].get(
                "fleet.ack.late", 0)
            assert after == before + 1
            assert aggregator.summary.late_acks == 1
            # The machine is pending again, not lost and not acked.
            assert coordinator.queue.pending_machines() == ["m00"]
            assert coordinator.queue.acked_machines() == {}
            rejoin.close()
        finally:
            controller.stop()

    def test_flapping_agent_is_labelled(self, tmp_path):
        coordinator, controller, secret = start_controller(
            tmp_path, ["m00"], flap_threshold=3)
        try:
            for __ in range(4):
                channel, hello = dial(controller, secret, "agent-a")
                assert hello["op"] == "hello-ok"
                channel.close()
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                snapshot = controller.session_snapshots()["agent-a"]
                if snapshot["reconnects"] >= 3:
                    break
                time.sleep(0.01)
            assert snapshot["state"] == AGENT_FLAPPING
            assert snapshot["reconnects"] == 3
            status = fleet_status(str(tmp_path))
            assert status["agents"]["agent-a"]["state"] == AGENT_FLAPPING
        finally:
            controller.stop()

    def test_heartbeat_channel_refreshes_liveness(self, tmp_path):
        clock = SimClock()
        coordinator, controller, secret = start_controller(
            tmp_path, ["m00"], agent_timeout_seconds=5.0,
            liveness_clock=clock)
        try:
            coordinator._open_or_resume()
            work, __ = dial(controller, secret, "agent-a")
            work.send({"op": "lease"})
            work.recv(timeout=5.0)
            beat, hello = dial(controller, secret, "agent-a",
                               role="heartbeat")
            assert "outstanding" not in hello  # work-channel concern only
            for __ in range(3):
                clock.advance(3.0)
                beat.send({"op": "heartbeat", "leases": ["m00"]})
                assert beat.recv(timeout=5.0)["op"] == "heartbeat-ok"
                assert controller.reap() == []
            work.close()
            beat.close()
        finally:
            controller.stop()


class TestControllerRestart:
    def test_restart_between_acks_recovers_element_identical(
            self, tmp_path):
        roster = ["m00", "m01"]
        reference = FleetCoordinator(
            str(tmp_path / "ref"),
            [build_machine(name) for name in roster]).run_epoch()

        fleet_dir = tmp_path / "dist"
        machines = {}
        coordinator, controller, secret = start_controller(
            fleet_dir, roster)
        coordinator._open_or_resume()
        channel, __ = dial(controller, secret, "agent-a")
        channel.send({"op": "lease"})
        first_reply = channel.recv(timeout=5.0)
        channel.send(scan_ack(first_reply, machines))
        assert channel.recv(timeout=5.0)["op"] == "ack-ok"
        channel.send({"op": "lease"})
        second_reply = channel.recv(timeout=5.0)
        in_flight_ack = scan_ack(second_reply, machines)
        # Power cord: the controller dies with one machine acked and
        # one lease (plus its finished-but-unacked scan) in flight.
        controller.stop()

        restarted = FleetCoordinator(str(fleet_dir), roster, workers=1)
        controller2 = ScanController(restarted, secret,
                                     agent_timeout_seconds=30.0)
        controller2.start()
        try:
            aggregator2, __ = restarted._open_or_resume()
            # Resume requeued the orphaned lease; the acked machine
            # stayed acked.
            assert len(restarted.queue.acked_machines()) == 1
            assert restarted.queue.pending_machines() == [
                second_reply["lease"]["machine"]]
            rejoin, hello = dial(controller2, secret, "agent-a")
            assert hello["outstanding"] == []   # fresh controller state
            # Reconnect replay: the agent blindly replays its unacked
            # result; the lease was reclaimed, so it is dropped late...
            rejoin.send(in_flight_ack)
            assert rejoin.recv(timeout=5.0)["op"] == "ack-late"
            # ...and the machine is simply leased and scanned again.
            rejoin.send({"op": "lease"})
            retry_reply = rejoin.recv(timeout=5.0)
            assert (retry_reply["lease"]["machine"]
                    == second_reply["lease"]["machine"])
            rejoin.send(scan_ack(retry_reply, machines))
            assert rejoin.recv(timeout=5.0)["op"] == "ack-ok"
            restarted._finish_epoch(aggregator2)
            assert verdict_key(aggregator2) == verdict_key(reference)
            assert aggregator2.summary.late_acks == 1
            rejoin.close()
        finally:
            controller2.stop()


# -- real ScanAgent loops (threads) --------------------------------------------


def drive_epochs(coordinator, controller, agents, epochs=1,
                 timeout_s=120.0):
    """Agent threads serve ``epochs`` epochs of the shared lifecycle."""
    def wait_drained(epoch):
        deadline = time.monotonic() + timeout_s
        while True:
            with coordinator.lock:
                if coordinator.queue.epoch_drained():
                    return
            assert time.monotonic() < deadline, f"epoch {epoch} stalled"
            time.sleep(0.01)

    threads = [threading.Thread(target=agent.run, daemon=True)
               for agent in agents]
    for thread in threads:
        thread.start()
    try:
        return [coordinator._run_epoch(wait_drained)
                for __ in range(epochs)]
    finally:
        controller.begin_shutdown()
        for thread in threads:
            thread.join(timeout=10.0)


class TestScanAgentLoop:
    def test_agent_epoch_matches_single_process(self, tmp_path):
        roster = [f"m{i:02d}" for i in range(4)]
        factory = make_factory(infected=("m01",))
        reference = FleetCoordinator(
            str(tmp_path / "ref"),
            [factory(name) for name in roster], workers=2).run_epoch()

        coordinator, controller, secret = start_controller(
            tmp_path / "dist", roster)
        agents = [ScanAgent(controller.address, secret, f"agent-{i}",
                            factory, worker=i, poll_seconds=0.01)
                  for i in range(2)]
        try:
            aggregates = drive_epochs(coordinator, controller, agents)
        finally:
            controller.stop()
        assert verdict_key(aggregates[0]) == verdict_key(reference)
        assert aggregates[0].summary.scanned == 4
        infected = next(v for v in aggregates[0].verdicts
                        if v.machine == "m01")
        assert infected.confirmed and infected.confirmed_by == "winpe"
        # Both index and journal replay agree on agent liveness.
        status = fleet_status(str(tmp_path / "dist"))
        assert set(status["agents"]) == {"agent-0", "agent-1"}
        assert coordinator.index.status()["agents"] == status["agents"]

    def test_second_epoch_skips_via_wire_baselines(self, tmp_path):
        roster = [f"m{i:02d}" for i in range(3)]
        factory = make_factory()
        coordinator, controller, secret = start_controller(
            tmp_path, roster)
        agents = [ScanAgent(controller.address, secret, "agent-0",
                            factory, poll_seconds=0.01)]
        try:
            aggregates = drive_epochs(coordinator, controller, agents,
                                      epochs=2)
        finally:
            controller.stop()
        assert aggregates[0].summary.scanned == 3
        # The agent holds its machines across epochs, so epoch 2 takes
        # every skip offer in lease-ok — zero scans.
        assert aggregates[1].summary.scanned == 0
        assert aggregates[1].summary.skipped == 3
        assert verdict_key(aggregates[0]) == verdict_key(aggregates[1])

    def test_agent_survives_transport_chaos(self, tmp_path):
        roster = [f"m{i:02d}" for i in range(4)]
        factory = make_factory(infected=("m02",))
        reference = FleetCoordinator(
            str(tmp_path / "ref"),
            [factory(name) for name in roster], workers=2).run_epoch()

        coordinator, controller, secret = start_controller(
            tmp_path / "chaos", roster)
        agents = [ScanAgent(controller.address, secret, f"agent-{i}",
                            factory, worker=i, poll_seconds=0.01,
                            transport_plan=transport.chaos_plan(
                                17 + i, rate=0.1),
                            reconnect_base_s=0.01, reconnect_cap_s=0.05)
                  for i in range(2)]
        try:
            aggregates = drive_epochs(coordinator, controller, agents)
        finally:
            controller.stop()
        # Chaos on the wire costs retries, never machines or verdicts.
        assert set(verdict_key(aggregates[0])) == set(roster)
        assert verdict_key(aggregates[0]) == verdict_key(reference)
