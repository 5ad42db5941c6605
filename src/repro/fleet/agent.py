r"""The scan agent: a crash-tolerant worker process for one controller.

An agent is the distributed half of the coordinator's worker loop: it
leases machines over the wire (:mod:`repro.fleet.transport`), builds
them *lazily* from a ``machine_factory`` (COW clones from
:func:`repro.fleet.provision.clone_fleet` — each agent only ever pays
for the machines it actually scans), runs the exact shared scan body
(:func:`repro.fleet.scanwork.perform_machine_scan`), and acks the
outcome — verdict, serialized report, escalation provenance — back to
the controller, which owns every durable write.

The failure story is the point:

* **Reconnect replay.**  The agent keeps its last unacked result in
  memory; after any transport error it re-dials with exponential
  backoff + deterministic jitter and *replays the ack first*.  Acks are
  idempotent server-side, so a reply lost on the wire costs nothing.
* **Outstanding-lease adoption.**  The controller's hello-ok lists the
  leases this worker already holds (a lease-ok frame the agent never
  saw); the agent adopts and scans them, so a dropped reply never
  strands a machine until the liveness reaper.
* **Deterministic death.**  ``kill_after_leases=N`` makes the process
  ``SIGKILL`` itself immediately after taking its N-th lease — the
  distributed analogue of the coordinator's ``kill_after_acks`` power
  cord, used by the kill -9 soak to prove verdicts stay
  element-identical.
* **Generation-gated skips.**  lease-ok carries only the skip offer:
  the ``baseline_generation`` the coordinator's one skip rule accepts
  (stored baseline plus the sampled-tier rule).  A machine whose clone
  is still at that generation is acked ``{"skip": true}`` without
  scanning, and the controller rehydrates the verdict from its own
  store, same as the single-process skip path.

Heartbeats ride a second, chaos-free connection: a partitioned *work*
channel must not look like a dead agent, or every transport fault
would cost a lease reclaim.
"""

from __future__ import annotations

import logging
import os
import random
import signal
import threading
import time
from typing import Callable, Dict, Optional, Sequence

from repro.core.noise import NoiseFilter
from repro.core.reporting import report_to_dict
from repro.errors import ReproError, TransportError
from repro.faults.plan import FaultPlan
from repro.fleet import transport
from repro.fleet.policy import EscalationPolicy
from repro.fleet.scanwork import perform_machine_scan
from repro.machine import Machine
from repro.telemetry.metrics import global_metrics

logger = logging.getLogger(__name__)

# Backed-off reconnect attempts before an agent gives up on its controller.
MAX_RECONNECTS = 60


class ScanAgent:
    """One agent's lease → scan → ack loop against a controller."""

    def __init__(self, address, secret: str, agent_id: str,
                 machine_factory: Callable[[str], Machine],
                 worker: int = 0,
                 heartbeat_seconds: float = 0.25,
                 fault_plan: Optional[FaultPlan] = None,
                 transport_plan: Optional[FaultPlan] = None,
                 policy: Optional[EscalationPolicy] = None,
                 noise_filter: Optional[NoiseFilter] = None,
                 resources: Sequence[str] = ("files", "registry"),
                 reconnect_base_s: float = 0.05,
                 reconnect_cap_s: float = 1.0,
                 poll_seconds: float = 0.02,
                 kill_after_leases: Optional[int] = None,
                 scan_config: Optional[Dict] = None):
        self.address = tuple(address)
        self.secret = secret
        self.agent_id = agent_id
        self.machine_factory = machine_factory
        self.worker = int(worker)
        self.heartbeat_seconds = heartbeat_seconds
        self.fault_plan = fault_plan
        self.transport_plan = transport_plan
        self.noise_filter = noise_filter or NoiseFilter()
        self.policy = policy or EscalationPolicy(
            noise_filter=self.noise_filter, fault_plan=fault_plan)
        self.resources = tuple(resources)
        self.reconnect_base_s = reconnect_base_s
        self.reconnect_cap_s = reconnect_cap_s
        self.poll_seconds = poll_seconds
        self.kill_after_leases = kill_after_leases
        # Stealth counter-move knobs, mirroring the coordinator's
        # single-process scan body (stabilize_rounds / flag_unstable /
        # scan_order_jitter).
        self.scan_config = dict(scan_config or {})
        self._machines: Dict[str, Machine] = {}
        self._channel: Optional[transport.FrameChannel] = None
        self._pending_ack: Optional[Dict] = None
        self._adopted: list = []        # outstanding leases from hello-ok
        self._held: Dict[str, int] = {}  # machine -> token (for heartbeats)
        self._stop = threading.Event()
        self.stats = {"leases": 0, "acks": 0, "skips": 0, "scans": 0,
                      "errors": 0, "reconnects": 0, "late": 0,
                      "duplicates": 0}

    # -- connection --------------------------------------------------------------

    def _connect(self) -> None:
        """Dial, authenticate, adopt outstanding leases, replay the ack."""
        channel = transport.connect(self.address, plan=self.transport_plan,
                                    scope=self.agent_id)
        channel.send(transport.make_hello(
            self.secret, self.agent_id, worker=self.worker,
            reconnects=self.stats["reconnects"]))
        reply = channel.recv(timeout=5.0)
        if reply.get("op") != "hello-ok":
            channel.close()
            raise TransportError(
                f"controller rejected hello: {reply.get('error')!r}")
        self._channel = channel
        for item in reply.get("outstanding", []):
            lease = item["lease"]
            pending = self._pending_ack
            if pending is not None and (
                    pending.get("machine") == lease["machine"]
                    and pending.get("token") == lease["token"]):
                continue        # about to be replayed as an ack anyway
            self._adopted.append(item)

    def _reconnect(self) -> None:
        if self._channel is not None:
            self._channel.close()
            self._channel = None
        for attempt in range(MAX_RECONNECTS):
            self.stats["reconnects"] += 1
            global_metrics().incr("fleet.agent.reconnect_attempts")
            # Deterministic jitter: seeded by (agent, attempt) so two
            # flapping agents never thundering-herd in lockstep, yet a
            # re-run of the same scenario backs off identically.
            rng = random.Random(f"{self.agent_id}:{attempt}")
            delay = min(self.reconnect_base_s * (2 ** attempt),
                        self.reconnect_cap_s) * (0.5 + rng.random())
            time.sleep(delay)
            try:
                self._connect()
                return
            except TransportError:
                continue
        raise TransportError(
            f"agent {self.agent_id} gave up after "
            f"{MAX_RECONNECTS} reconnect attempts")

    def _request(self, message: Dict) -> Dict:
        """One request/reply exchange; reconnects and resends on failure.

        Safe for every op in the protocol: leases and heartbeats are
        read-only until the reply lands (a lease the agent never heard
        about is resurfaced by hello-ok's ``outstanding`` list), and
        acks are idempotent server-side.
        """
        while True:
            if self._channel is None:
                self._reconnect()
            try:
                self._channel.send(message)
                return self._channel.recv(timeout=10.0)
            except TransportError:
                if self._channel is not None:
                    self._channel.close()
                    self._channel = None

    # -- the loop ----------------------------------------------------------------

    def run(self) -> Dict:
        """Serve leases until the controller says shutdown; returns stats."""
        heartbeat_thread = threading.Thread(
            target=self._heartbeat_loop,
            name=f"{self.agent_id}-heartbeat", daemon=True)
        heartbeat_thread.start()
        try:
            while True:
                if self._adopted:
                    self._serve_lease(self._adopted.pop(0))
                    continue
                reply = self._request({"op": "lease"})
                op = reply.get("op")
                if op == "lease-ok":
                    self._note_lease_taken(reply)
                    self._serve_lease(reply)
                elif op == "lease-none":
                    state = reply.get("state")
                    if state == "shutdown":
                        self._request({"op": "bye"})
                        break
                    # drained / waiting / closed: poll until the next
                    # epoch opens or the controller shuts down.
                    time.sleep(self.poll_seconds)
                else:
                    raise TransportError(
                        f"unexpected lease reply: {reply!r}")
        finally:
            self._stop.set()
            heartbeat_thread.join(timeout=2.0)
            if self._channel is not None:
                self._channel.close()
                self._channel = None
        return dict(self.stats)

    def _note_lease_taken(self, reply: Dict) -> None:
        self.stats["leases"] += 1
        if (self.kill_after_leases is not None
                and self.stats["leases"] >= self.kill_after_leases):
            # The deterministic power cord: die mid-lease, no cleanup,
            # no flush — exactly what kill -9 does to a real agent.
            logger.warning("agent %s self-terminating after lease %d",
                           self.agent_id, self.stats["leases"])
            os.kill(os.getpid(), signal.SIGKILL)

    # -- lease service -----------------------------------------------------------

    def _serve_lease(self, reply: Dict) -> None:
        lease = reply["lease"]
        name = lease["machine"]
        epoch = int(lease["epoch"])
        token = int(lease["token"])
        self._held[name] = token
        try:
            ack = self._scan_to_ack(name, epoch, token,
                                    reply.get("baseline_generation"))
        finally:
            self._held.pop(name, None)
        self._pending_ack = ack
        self._flush_pending_ack()

    def _scan_to_ack(self, name: str, epoch: int, token: int,
                     baseline_generation: Optional[int]) -> Dict:
        base = {"op": "ack", "machine": name, "epoch": epoch,
                "token": token}
        try:
            machine = self._machines.get(name)
            if machine is None:
                machine = self.machine_factory(name)
                self._machines[name] = machine
        except Exception as exc:
            self.stats["errors"] += 1
            return dict(base, error=f"machine build failed: {exc}")
        if (baseline_generation is not None
                and machine.disk.generation == int(baseline_generation)):
            self.stats["skips"] += 1
            return dict(base, skip=True)
        try:
            outcome = perform_machine_scan(
                machine, epoch, self.policy, self.noise_filter,
                self.resources, self.fault_plan,
                stabilize_rounds=int(
                    self.scan_config.get("stabilize_rounds", 1)),
                flag_unstable=bool(
                    self.scan_config.get("flag_unstable", False)),
                scan_order_jitter=self.scan_config.get("scan_order_jitter"))
        except ReproError as exc:
            self.stats["errors"] += 1
            logger.warning("agent %s scan of %s failed: %s",
                           self.agent_id, name, exc)
            return dict(base, error=f"{type(exc).__name__}: {exc}")
        self.stats["scans"] += 1
        verdict = outcome.verdict(name, epoch)
        return dict(base, verdict=verdict.to_dict(),
                    report=report_to_dict(outcome.report),
                    disk_generation=outcome.disk_generation,
                    scan_seconds=outcome.scan_seconds,
                    extra=outcome.extra(epoch))

    def _flush_pending_ack(self) -> None:
        """Deliver the held ack; safe to replay across reconnects."""
        while self._pending_ack is not None:
            reply = self._request(self._pending_ack)
            op = reply.get("op")
            if op == "ack-ok":
                self.stats["acks"] += 1
                if reply.get("duplicate"):
                    self.stats["duplicates"] += 1
                self._pending_ack = None
            elif op == "ack-late":
                # The lease was reclaimed while we scanned (or while we
                # were partitioned): someone else redoes the machine.
                self.stats["late"] += 1
                self._pending_ack = None
            else:
                raise TransportError(f"unexpected ack reply: {reply!r}")

    # -- heartbeats --------------------------------------------------------------

    def _heartbeat_loop(self) -> None:
        """Chaos-free liveness channel; one beat per heartbeat_seconds."""
        channel: Optional[transport.FrameChannel] = None
        while not self._stop.is_set():
            try:
                if channel is None:
                    channel = transport.connect(self.address)
                    channel.send(transport.make_hello(
                        self.secret, self.agent_id, worker=self.worker,
                        role="heartbeat"))
                    if channel.recv(timeout=2.0).get("op") != "hello-ok":
                        raise TransportError("heartbeat hello rejected")
                else:
                    channel.send({"op": "heartbeat",
                                  "leases": sorted(self._held)})
                    channel.recv(timeout=2.0)
            except TransportError:
                if channel is not None:
                    channel.close()
                channel = None
            self._stop.wait(self.heartbeat_seconds)
        if channel is not None:
            channel.close()


def run_agent_process(address, secret: str, agent_id: str, worker: int,
                      machine_factory: Callable[[str], Machine],
                      fault_seed: Optional[int] = None,
                      fault_rate: float = 0.0,
                      transport_seed: Optional[int] = None,
                      transport_rate: float = 0.0,
                      heartbeat_seconds: float = 0.25,
                      kill_after_leases: Optional[int] = None,
                      policy_config: Optional[Dict] = None,
                      scan_config: Optional[Dict] = None,
                      resources: Sequence[str] = ("files", "registry"),
                      poll_seconds: float = 0.02) -> Dict:
    """Top-level multiprocessing entry point for one agent.

    Builds fault plans *inside* the child from their seeds: a fresh
    process's per-``(site, machine)`` streams start at draw zero, which
    is exactly where the reference single-process sweep's streams start
    for each machine — the foundation of element-identical verdicts
    across kills and restarts.
    """
    plan = (FaultPlan.default(fault_seed, rate=fault_rate)
            if fault_seed is not None else None)
    wire_plan = (transport.chaos_plan(transport_seed, transport_rate)
                 if transport_seed is not None else None)
    config = dict(policy_config or {})
    policy = EscalationPolicy(
        confirm_with=config.get("confirm_with", "winpe"),
        escalate=config.get("escalate", True),
        resources=config.get("resources", resources),
        fault_plan=plan)
    agent = ScanAgent(address, secret, agent_id, machine_factory,
                      worker=worker, heartbeat_seconds=heartbeat_seconds,
                      fault_plan=plan, transport_plan=wire_plan,
                      policy=policy, resources=resources,
                      poll_seconds=poll_seconds,
                      kill_after_leases=kill_after_leases,
                      scan_config=scan_config)
    return agent.run()
