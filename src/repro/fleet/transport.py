r"""The fleet wire protocol: length-prefixed JSON frames over TCP.

The controller/agent split (:mod:`repro.fleet.controller`,
:mod:`repro.fleet.agent`) talks a deliberately small protocol:

* **Framing.**  Every message is one UTF-8 JSON object prefixed by a
  4-byte big-endian length (:func:`send_frame` / :func:`recv_frame`).
  A frame also carries a per-connection monotonically increasing
  ``seq``; the receiver drops any frame whose ``seq`` it has already
  seen, which makes duplicated frames (a retransmitting network, or
  the ``duplicate`` chaos kind) harmless.
* **Versioned ops.**  ``hello``/``hello-ok`` (auth), ``lease``,
  ``ack``, ``heartbeat``, ``bye`` and their replies.  The protocol
  version rides in the hello; a mismatch is rejected before anything
  else happens.
* **Auth.**  The hello carries ``mac = HMAC-SHA256(secret,
  "v:agent:nonce")`` and the controller verifies it with
  :func:`hmac.compare_digest` — constant-time, so the wire leaks
  nothing about how close a forged token came.
* **Chaos.**  Both directions pass the ``fleet.transport.send`` /
  ``fleet.transport.recv`` fault sites: a seed-deterministic
  :class:`~repro.faults.plan.FaultPlan` can drop the frame (connection
  error), delay it, duplicate it, or tear it mid-write — the four
  failure shapes a real network shows an agent loop.  Streams are
  scoped by agent id, so transport chaos never perturbs the
  per-machine scan fault streams that verdict identity depends on.

Everything here raises :class:`~repro.errors.TransportError` on wire
failure; callers (the agent's reconnect loop, the controller's session
handler) treat any such error as "the connection is gone" and either
re-dial or reap.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import secrets
import socket
import struct
import time
from typing import Optional

from repro.errors import TransportError, TransportTimeout
from repro.faults.plan import (SITE_FLEET_RECV, SITE_FLEET_SEND, FaultPlan,
                               FaultSpec)
from repro.telemetry.metrics import global_metrics

PROTOCOL_VERSION = 1

# Frames bigger than this are a protocol violation, not a workload: the
# largest legitimate payload is one machine's serialized DetectionReport.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LENGTH = struct.Struct("!I")

# Cap the real-time cost of an injected "delay" fault so chaos runs
# stay fast; the drawn delay is simulated time, not a real SLA.
_MAX_REAL_DELAY_S = 0.05


class WallClock:
    """Monotonic wall time behind the same ``.now()`` face as SimClock.

    Agent liveness is the one place the fleet cannot run on simulated
    time: real agent processes die on the real clock.  Tests still pass
    a :class:`~repro.clock.SimClock` and drive reaping by hand.
    """

    def now(self) -> float:
        return time.monotonic()


# -- auth ----------------------------------------------------------------------


def new_secret() -> str:
    """A fresh shared secret for one controller run."""
    return secrets.token_hex(16)


def hello_mac(secret: str, agent_id: str, nonce: str,
              version: int = PROTOCOL_VERSION) -> str:
    """HMAC-SHA256 over ``version:agent:nonce`` with the shared secret."""
    message = f"{version}:{agent_id}:{nonce}".encode("utf-8")
    return hmac.new(secret.encode("utf-8"), message,
                    hashlib.sha256).hexdigest()


def verify_hello(secret: str, message: dict) -> bool:
    """Constant-time check of a hello frame's MAC and version."""
    if int(message.get("v", -1)) != PROTOCOL_VERSION:
        return False
    agent_id = str(message.get("agent", ""))
    nonce = str(message.get("nonce", ""))
    if not agent_id or not nonce:
        return False
    expected = hello_mac(secret, agent_id, nonce)
    return hmac.compare_digest(expected, str(message.get("mac", "")))


def make_hello(secret: str, agent_id: str, *, worker: int = 0,
               role: str = "work", reconnects: int = 0) -> dict:
    """An authenticated hello frame (fresh nonce, MAC'd identity)."""
    nonce = secrets.token_hex(8)
    return {"op": "hello", "v": PROTOCOL_VERSION, "agent": agent_id,
            "worker": int(worker), "role": role,
            "reconnects": int(reconnects), "nonce": nonce,
            "mac": hello_mac(secret, agent_id, nonce)}


# -- chaos ---------------------------------------------------------------------


def _transport_fault(plan: Optional[FaultPlan], site: str, scope: str,
                     sock: socket.socket, payload: Optional[bytes]
                     ) -> Optional[str]:
    """Draw at a transport site; applies delay faults, returns the kind.

    ``drop`` and ``torn_frame`` are returned to the caller (they need
    the frame in hand); ``delay`` sleeps here and is absorbed;
    ``duplicate`` is returned so the sender can write the frame twice.
    """
    if plan is None:
        return None
    fault = plan.draw(site, scope=scope)
    if fault is None:
        return None
    global_metrics().incr(f"fleet.transport.faults.{fault.kind}")
    if fault.kind == "delay":
        time.sleep(min(fault.delay_s, _MAX_REAL_DELAY_S))
        return None
    if fault.kind == "torn_frame" and payload is not None:
        # Half a frame goes out, then the "connection" dies: the peer's
        # recv sees a short read and both sides abandon the socket.
        try:
            sock.sendall(payload[:max(1, len(payload) // 2)])
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
    return fault.kind


# -- framing -------------------------------------------------------------------


class FrameChannel:
    """One connection's framed, deduplicated, chaos-instrumented pipe."""

    def __init__(self, sock: socket.socket, *,
                 plan: Optional[FaultPlan] = None, scope: str = "global"):
        self.sock = sock
        self.plan = plan
        self.scope = scope
        self._send_seq = 0
        self._recv_seq = 0

    def send(self, message: dict) -> None:
        self._send_seq += 1
        payload = json.dumps(dict(message, seq=self._send_seq),
                             sort_keys=True).encode("utf-8")
        frame = _LENGTH.pack(len(payload)) + payload
        kind = _transport_fault(self.plan, SITE_FLEET_SEND, self.scope,
                                self.sock, frame)
        if kind == "drop":
            raise TransportError(
                f"injected drop sending {message.get('op')!r}")
        if kind == "torn_frame":
            raise TransportError(
                f"injected torn frame sending {message.get('op')!r}")
        try:
            self.sock.sendall(frame)
            if kind == "duplicate":
                self.sock.sendall(frame)
        except OSError as exc:
            raise TransportError(f"send failed: {exc}") from exc

    def recv(self, timeout: Optional[float] = None) -> dict:
        """The next fresh frame (duplicates silently skipped)."""
        while True:
            kind = _transport_fault(self.plan, SITE_FLEET_RECV, self.scope,
                                    self.sock, None)
            if kind in ("drop", "torn_frame"):
                try:
                    self.sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                raise TransportError(f"injected {kind} on receive")
            message = self._read_frame(timeout)
            seq = int(message.get("seq", 0))
            if seq and seq <= self._recv_seq:
                global_metrics().incr("fleet.transport.duplicates_dropped")
                continue
            if seq:
                self._recv_seq = seq
            return message

    def _read_frame(self, timeout: Optional[float]) -> dict:
        try:
            self.sock.settimeout(timeout)
            header = self._read_exact(_LENGTH.size)
            (length,) = _LENGTH.unpack(header)
            if length > MAX_FRAME_BYTES:
                raise TransportError(f"oversized frame: {length} bytes")
            payload = self._read_exact(length)
        except socket.timeout as exc:
            raise TransportTimeout("receive timed out") from exc
        except OSError as exc:
            raise TransportError(f"receive failed: {exc}") from exc
        try:
            message = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise TransportError(f"malformed frame: {exc}") from exc
        if not isinstance(message, dict):
            raise TransportError("frame is not a JSON object")
        return message

    def _read_exact(self, count: int) -> bytes:
        chunks = []
        remaining = count
        while remaining:
            chunk = self.sock.recv(remaining)
            if not chunk:
                raise TransportError(
                    f"connection closed mid-frame "
                    f"({count - remaining}/{count} bytes)")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


def chaos_plan(seed: int, rate: float,
               mean_delay_s: float = 0.01) -> FaultPlan:
    """A plan that exercises *only* the wire (partition-chaos runs).

    Scan-site streams stay untouched, so a chaos run's verdicts must be
    element-identical to a quiet run's — the partition-chaos gate.
    """
    return FaultPlan(int(seed), (
        FaultSpec(SITE_FLEET_SEND, rate=rate,
                  kinds=("drop", "delay", "duplicate", "torn_frame"),
                  mean_delay_s=mean_delay_s),
        FaultSpec(SITE_FLEET_RECV, rate=rate,
                  kinds=("drop", "delay", "torn_frame"),
                  mean_delay_s=mean_delay_s),
    ))


def connect(address, *, plan: Optional[FaultPlan] = None,
            scope: str = "global", timeout: float = 5.0) -> FrameChannel:
    """Dial the controller; returns an authenticated-ready channel."""
    host, port = address
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
        sock.settimeout(None)
    except OSError as exc:
        raise TransportError(f"connect to {host}:{port} failed: {exc}"
                             ) from exc
    return FrameChannel(sock, plan=plan, scope=scope)
