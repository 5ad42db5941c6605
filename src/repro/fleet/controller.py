r"""The scan controller service: the fleet's single writing authority.

Distributed mode splits the coordinator's worker loop across processes:
scan **agents** (:mod:`repro.fleet.agent`) do the GIL-heavy parsing,
while this controller serves them the coordinator's durable state — the
:class:`~repro.fleet.queue.WorkQueue` WAL, the
:class:`~repro.core.baseline.BaselineStore`, the epochs journal, and
the streaming :class:`~repro.fleet.aggregator.FleetAggregator` — behind
the wire protocol of :mod:`repro.fleet.transport`.  The controller owns
frame decode/encode, agent sessions and liveness; the epoch protocol
itself (lease draw, checkpoint, late acks) is the coordinator's.

Failure-first design decisions, in order of importance:

* **Idempotent acks.**  An ack is deduplicated by ``(epoch, machine,
  lease token)``: replaying the exact ack that already landed returns
  ``ack-ok`` with ``duplicate=true`` and writes nothing, so an agent
  that died between sending an ack and hearing the reply can blindly
  replay it after reconnecting.  An ack bearing a superseded or
  reclaimed lease gets ``ack-late`` (counted as ``fleet.ack.late``) —
  the current lease holder's scan is the one that lands.
* **Checkpoint custody.**  Every ack lands through the coordinator's
  one checkpoint (``BaselineStore.put`` → ``fleet-machine`` journal
  record → ``WorkQueue.ack``), in one process, under the coordinator's
  lock — agents never write.  A skip acks as ``{"skip": true}`` and the
  controller rehydrates its verdict from its own baseline store.
* **Heartbeat liveness.**  A lease has no deadline: it ends when its
  agent acks it or when this controller declares the agent dead.
  Every frame an agent sends (work channel or its dedicated heartbeat
  channel) refreshes its session's ``last_seen`` on the liveness clock
  (wall-monotonic by default, injectable :class:`~repro.clock.SimClock`
  in tests).  :meth:`reap` marks sessions silent past
  ``agent_timeout_seconds`` as ``AGENT_DEAD`` and requeues exactly
  their leases — kill -9 loses a scan in flight, never a machine.
* **Held lease requests.**  A ``lease`` with nothing to draw is held
  (a long poll) until work may have appeared, instead of answered
  ``lease-none`` for the agent to retry on a timer; it is granted only
  on the session's newest work channel (see :meth:`_handle_lease`).
* **Flap detection.**  A session that keeps reconnecting is marked
  ``AGENT_FLAPPING`` (the agent-level analogue of the per-machine
  circuit breaker's taxonomy) so operators can tell a crashy agent
  from a healthy fleet.

Every session transition is journaled as a ``fleet-agent`` record in
``epochs.jsonl``, which is how the operator console and ``repro
fleet-status`` surface agent liveness without talking to the (possibly
dead) controller.
"""

from __future__ import annotations

import logging
import socket
import threading
import time
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.reporting import report_from_dict
from repro.errors import TransportError, TransportTimeout
from repro.fleet import transport
from repro.fleet.aggregator import MachineVerdict
from repro.fleet.queue import Lease
from repro.fleet.scanwork import skip_verdict
from repro.telemetry.metrics import global_metrics

logger = logging.getLogger(__name__)

# Agent-level liveness states (the session analogue of the per-machine
# circuit-breaker/quarantine taxonomy).
AGENT_ALIVE = "alive"
AGENT_FLAPPING = "flapping"
AGENT_DEAD = "dead"
AGENT_DONE = "done"

# Reconnects after which a session is labelled AGENT_FLAPPING.
FLAP_THRESHOLD = 3

# How often an idle connection thread rechecks that the controller runs.
RECV_POLL_SECONDS = 0.25

# Longest a lease request is held with nothing to draw before it is
# answered lease-none (well under the agent's 10 s receive timeout).
LEASE_HOLD_SECONDS = 1.0


def fold_agent_records(records: Iterable[Dict]) -> Dict[str, Dict]:
    """Latest per-agent liveness from ``fleet-agent`` journal records
    (other record types are skipped); the ``agents`` part of
    :func:`repro.fleet.fleet_status`."""
    agents: Dict[str, Dict] = {}
    for record in records:
        if record.get("type") != "fleet-agent":
            continue
        agents[str(record.get("agent"))] = {
            "state": record.get("state", AGENT_ALIVE),
            "worker": int(record.get("worker", 0)),
            "reconnects": int(record.get("reconnects", 0)),
            "leases_held": int(record.get("leases_held", 0)),
            "acks": int(record.get("acks", 0)),
            "last_event": record.get("event"),
            "last_seen": record.get("at"),
        }
    return agents


class AgentSession:
    """One agent's server-side state, across reconnects."""

    def __init__(self, agent_id: str, worker: int, now: float):
        self.agent_id = agent_id
        self.worker = worker
        self.state = AGENT_ALIVE
        self.reconnects = 0
        self.work_hellos = 0
        self.last_seen = now
        self.leases: Dict[str, Lease] = {}
        self.acks = 0
        self.late_acks = 0
        self.channels: List[transport.FrameChannel] = []
        # The newest work channel, the only one a lease is granted on;
        # None once the reaper has closed the session's channels.
        self.work_channel: Optional[transport.FrameChannel] = None

    def snapshot(self) -> Dict:
        return {"agent": self.agent_id, "worker": self.worker,
                "state": self.state, "reconnects": self.reconnects,
                "leases_held": len(self.leases),
                "leases": sorted(self.leases),
                "acks": self.acks, "late_acks": self.late_acks,
                "last_seen": self.last_seen}


class ScanController:
    """Serves the fleet wire protocol over a coordinator's durable state."""

    def __init__(self, coordinator, secret: str,
                 host: str = "127.0.0.1", port: int = 0,
                 agent_timeout_seconds: float = 5.0,
                 liveness_clock=None):
        self.coordinator = coordinator
        self.secret = secret
        self.host = host
        self.port = port
        self.agent_timeout_seconds = agent_timeout_seconds
        self.liveness_clock = liveness_clock or transport.WallClock()
        # Sessions are guarded by coordinator.lock, the lock every
        # durable write of an epoch serializes on.
        self.sessions: Dict[str, AgentSession] = {}
        self._server: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._running = False
        self._shutdown = False
        self.address = None

    # -- lifecycle ---------------------------------------------------------------

    def start(self):
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind((self.host, self.port))
        server.listen(32)
        server.settimeout(0.2)
        self._server = server
        self.address = server.getsockname()
        self._running = True
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="fleet-controller-accept",
            daemon=True)
        self._accept_thread.start()
        logger.info("scan controller listening on %s:%d", *self.address)
        return self.address

    def stop(self) -> None:
        self._running = False
        self.coordinator._wake_lease_waiters()
        if self._server is not None:
            try:
                self._server.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
        with self.coordinator.lock:
            for session in self.sessions.values():
                for channel in session.channels:
                    channel.close()
                session.channels.clear()

    def begin_shutdown(self) -> None:
        """Tell agents (via lease-none state=shutdown) to say bye."""
        self._shutdown = True
        self.coordinator._wake_lease_waiters()

    def session_snapshots(self) -> Dict[str, Dict]:
        with self.coordinator.lock:
            return {agent_id: session.snapshot()
                    for agent_id, session in self.sessions.items()}

    # -- liveness ----------------------------------------------------------------

    def reap(self, now: Optional[float] = None) -> List[str]:
        """Mark silent sessions dead and requeue exactly their leases."""
        now = self.liveness_clock.now() if now is None else now
        dead: List[str] = []
        with self.coordinator.lock:
            for session in self.sessions.values():
                if session.state in (AGENT_DEAD, AGENT_DONE):
                    continue
                if now - session.last_seen < self.agent_timeout_seconds:
                    continue
                session.state = AGENT_DEAD
                reclaimed: List[str] = []
                if (session.leases
                        and self.coordinator.queue.epoch is not None):
                    reclaimed = self.coordinator.queue.requeue(
                        list(session.leases))
                    self.coordinator._wake_lease_waiters()
                session.leases.clear()
                for channel in session.channels:
                    channel.close()
                session.channels.clear()
                session.work_channel = None
                self._journal_agent(session, "dead", reclaimed=reclaimed)
                global_metrics().incr("fleet.agent.dead")
                logger.warning("agent %s declared dead; reclaimed %d "
                               "lease(s)", session.agent_id, len(reclaimed))
                dead.append(session.agent_id)
        return dead

    def _journal_agent(self, session: AgentSession, event: str,
                       reclaimed: Optional[List[str]] = None) -> None:
        record = {"type": "fleet-agent", "agent": session.agent_id,
                  "event": event, "state": session.state,
                  "worker": session.worker,
                  "reconnects": session.reconnects,
                  "leases_held": len(session.leases),
                  "acks": session.acks,
                  "epoch": self.coordinator.queue.epoch}
        if reclaimed:
            record["reclaimed"] = sorted(reclaimed)
        self.coordinator._journal(record)

    # -- connection handling -----------------------------------------------------

    def _accept_loop(self) -> None:
        while self._running:
            try:
                conn, __ = self._server.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            thread = threading.Thread(target=self._serve_connection,
                                      args=(conn,), daemon=True)
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        channel = transport.FrameChannel(conn)
        session: Optional[AgentSession] = None
        try:
            hello = channel.recv(timeout=5.0)
        except TransportError:
            channel.close()
            return
        if (hello.get("op") != "hello"
                or not transport.verify_hello(self.secret, hello)):
            global_metrics().incr("fleet.auth.rejected")
            try:
                channel.send({"op": "error", "error": "auth"})
            except TransportError:
                pass
            channel.close()
            return
        agent_id = str(hello["agent"])
        role = hello.get("role", "work")
        with self.coordinator.lock:
            now = self.liveness_clock.now()
            session = self.sessions.get(agent_id)
            fresh = session is None
            if fresh:
                session = self.sessions[agent_id] = AgentSession(
                    agent_id, int(hello.get("worker", 0)), now)
            session.last_seen = now
            reply = {"op": "hello-ok", "agent": agent_id,
                     "session": session.reconnects}
            if role == "work":
                # "Fresh" for flap accounting means no prior *work*
                # hello: the heartbeat channel often dials first and
                # must not make the first work hello look like a
                # reconnect.
                rejoin = session.work_hellos > 0
                session.work_hellos += 1
                if rejoin:
                    session.reconnects += 1
                    if session.state != AGENT_DONE:
                        session.state = (
                            AGENT_FLAPPING
                            if session.reconnects >= FLAP_THRESHOLD
                            else AGENT_ALIVE)
                        global_metrics().incr("fleet.agent.reconnects")
                # Reconnect replay, server half: hand back the leases
                # this worker already holds (with skip offers), so an
                # agent that lost the lease-ok frame still scans them.
                reply["outstanding"] = [
                    self._lease_reply(lease)
                    for __, lease in sorted(session.leases.items())]
                session.work_channel = channel
                self._journal_agent(session,
                                    "reconnect" if rejoin else "hello")
            session.channels.append(channel)
        try:
            channel.send(reply)
            self._serve_frames(channel, session)
        except TransportError:
            pass
        finally:
            with self.coordinator.lock:
                if channel in session.channels:
                    session.channels.remove(channel)
            channel.close()

    def _serve_frames(self, channel: transport.FrameChannel,
                      session: AgentSession) -> None:
        while self._running:
            try:
                message = channel.recv(timeout=RECV_POLL_SECONDS)
            except TransportTimeout:
                continue
            except TransportError:
                return
            with self.coordinator.lock:
                session.last_seen = self.liveness_clock.now()
                try:
                    reply = self._dispatch(session, channel, message)
                except Exception as exc:          # pragma: no cover
                    logger.exception("controller handler failed")
                    reply = {"op": "error", "error": str(exc)}
            channel.send(reply)
            if message.get("op") == "bye":
                return

    # -- op handlers (all called under coordinator.lock) -------------------------

    def _dispatch(self, session: AgentSession,
                  channel: transport.FrameChannel, message: Dict) -> Dict:
        op = message.get("op")
        if op == "lease":
            return self._handle_lease(session, channel)
        if op == "ack":
            return self._handle_ack(session, message)
        if op == "heartbeat":
            return {"op": "heartbeat-ok"}
        if op == "bye":
            return self._handle_bye(session)
        return {"op": "error", "error": f"unknown op {op!r}"}

    def _handle_lease(self, session: AgentSession,
                      channel: transport.FrameChannel) -> Dict:
        """Draw a lease; with none to draw, hold the request (long poll).

        A held request waits on the coordinator's ``_work_ready`` (an
        epoch opens or resumes, the reaper requeues leases, shutdown
        begins, the controller stops) for at most
        :data:`LEASE_HOLD_SECONDS`, then answers lease-none and the agent
        asks again at once.  Leases go only to the session's newest work
        channel: the hello that replaced this one listed the session's
        outstanding leases without a lease granted here afterwards.
        """
        coordinator = self.coordinator
        deadline = time.monotonic() + LEASE_HOLD_SECONDS
        while True:
            if self._shutdown:
                return {"op": "lease-none", "state": "shutdown"}
            if channel is not session.work_channel:
                return {"op": "lease-none", "state": "replaced"}
            if coordinator.aggregator is None:
                state = "closed"
            else:
                lease = coordinator._lease(session.worker)
                if lease is not None:
                    session.leases[lease.machine] = lease
                    return dict(self._lease_reply(lease), op="lease-ok")
                state = ("drained" if coordinator.queue.epoch_drained()
                         else "waiting")
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not self._running:
                return {"op": "lease-none", "state": state}
            coordinator._work_ready.wait(remaining)

    def _lease_reply(self, lease: Lease) -> Dict:
        reply: Dict = {"lease": {
            "machine": lease.machine, "epoch": lease.epoch,
            "worker": lease.worker, "token": lease.token,
            "shard": lease.shard}}
        baseline = self.coordinator._skip_baseline(lease.machine)
        if baseline is not None:
            # The skip offer: an agent whose clone is still at this
            # generation acks {"skip": true} instead of scanning.
            reply["baseline_generation"] = baseline.disk_generation
        if self.coordinator._sampled(lease.machine):
            # The sample tier: the agent runs the cheap sampled pass.
            reply["sampled"] = True
        return reply

    def _handle_bye(self, session: AgentSession) -> Dict:
        session.state = AGENT_DONE
        self._journal_agent(session, "bye")
        return {"op": "bye-ok"}

    # -- acks --------------------------------------------------------------------

    def _handle_ack(self, session: AgentSession, message: Dict) -> Dict:
        coordinator = self.coordinator
        machine = str(message.get("machine"))
        token = int(message.get("token", -1))
        epoch = int(message.get("epoch", -1))
        session.leases.pop(machine, None)
        acked = coordinator.queue.acked_machines().get(machine)
        if (acked is not None and int(acked.get("token", -2)) == token
                and int(acked.get("epoch", -2)) == epoch):
            # Reconnect replay of an ack that already landed:
            # idempotent, nothing is written twice.
            global_metrics().incr("fleet.ack.duplicates")
            return {"op": "ack-ok", "duplicate": True}
        current = coordinator.queue.leased_machines().get(machine)
        if current is not None and current.token == token:
            coordinator._checkpoint(
                current, *self._acked_verdict(machine, epoch, message))
            session.acks += 1
            return {"op": "ack-ok", "duplicate": False}
        # Acked under another lease, or the lease was reclaimed (agent
        # declared dead, machine re-leased or already redone): the late
        # result is dropped.
        coordinator._late_ack(machine)
        session.late_acks += 1
        return {"op": "ack-late"}

    def _acked_verdict(self, machine: str, epoch: int, message: Dict
                       ) -> Tuple[MachineVerdict, Optional[Dict]]:
        """An ack frame's verdict, and a fresh scan's baseline to store."""
        coordinator = self.coordinator
        if message.get("skip"):
            return skip_verdict(coordinator.store.get(machine), epoch), None
        if "error" in message:
            return coordinator._scan_failed(machine, epoch,
                                            str(message["error"])), None
        verdict = MachineVerdict.from_dict(dict(message["verdict"],
                                                machine=machine,
                                                epoch=epoch))
        return verdict, {
            "report": report_from_dict(message["report"]),
            "disk_generation": int(message["disk_generation"]),
            "scan_seconds": float(message.get("scan_seconds", 0.0)),
            "extra": dict(message.get("extra") or {})}
