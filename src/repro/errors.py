"""Exception hierarchy for the GhostBuster reproduction.

Every subsystem raises exceptions derived from :class:`ReproError` so that
callers can distinguish simulation faults from programming errors.  The
Windows-flavoured subclasses mirror the NTSTATUS / Win32 error conditions
that the real GhostBuster tool would encounter.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the reproduction."""


class DiskError(ReproError):
    """Raised for out-of-range or malformed disk accesses."""


class VolumeError(ReproError):
    """Raised for filesystem-level failures on the simulated NTFS volume."""


class FileNotFound(VolumeError):
    """The requested path does not exist on the volume."""


class FileExists(VolumeError):
    """A file or directory already exists at the requested path."""


class NotADirectory(VolumeError):
    """A path component that must be a directory is a regular file."""


class DirectoryNotEmpty(VolumeError):
    """Attempted to delete a directory that still has children."""


class InvalidWin32Name(VolumeError):
    """The name violates Win32 naming restrictions (but may be NT-legal)."""


class TransientIoError(ReproError):
    """A read failed in a way that may succeed if simply retried.

    The transient/permanent split is the heart of the recovery policy:
    :class:`TransientIoError` is the *retryable* branch (media glitches,
    injected chaos, timeouts), while :class:`CorruptRecord` and its
    subclasses are *permanent* — the bytes themselves are wrong, and
    re-reading them yields the same garbage.
    """


class RetryExhausted(TransientIoError):
    """A retry budget ran out while the underlying fault stayed transient.

    Subclasses :class:`TransientIoError` on purpose: a caller one level
    up (say, the sweep scheduler re-dispatching a whole machine) may
    legitimately retry the operation with a fresh budget.
    """

    def __init__(self, operation: str, attempts: int, last_error: Exception):
        super().__init__(
            f"{operation} still failing after {attempts} attempts: "
            f"{type(last_error).__name__}: {last_error}")
        self.operation = operation
        self.attempts = attempts
        self.last_error = last_error


class CorruptRecord(ReproError):
    """A low-level parser found a structurally invalid on-disk record."""


class PermanentCorruption(CorruptRecord):
    """Structurally hopeless input: retrying can never help.

    Raised where a parser has positively established that the bytes are
    garbage (as opposed to the read having failed) — typically wrapping
    a leaked ``struct.error`` / ``IndexError`` / ``UnicodeDecodeError``
    from hostile input.
    """


class RegistryError(ReproError):
    """Raised for registry-level failures."""


class KeyNotFound(RegistryError):
    """The requested registry key does not exist."""


class ValueNotFound(RegistryError):
    """The requested registry value does not exist."""


class HiveFormatError(RegistryError, PermanentCorruption):
    """A raw hive parse encountered malformed cells."""


class KernelError(ReproError):
    """Raised for simulated-kernel failures."""


class NoSuchProcess(KernelError):
    """The referenced process does not exist (or is terminated)."""

    def __init__(self, pid: int):
        super().__init__(f"no such process: pid {pid}")
        self.pid = pid


class AccessDenied(ReproError):
    """The caller lacks the privilege required for the operation."""


class ApiError(ReproError):
    """A simulated Win32/Native API call failed."""


class ServiceError(ReproError):
    """Service Control Manager failure (bad image path, duplicate name...)."""


class MachineStateError(ReproError):
    """Operation invalid for the machine's current power/boot state."""


class ScanError(ReproError):
    """A GhostBuster scan could not be completed."""


class CircuitOpen(ReproError):
    """A circuit breaker refused the call without attempting it."""

    def __init__(self, scope: str, failures: int):
        super().__init__(
            f"circuit open for {scope!r} after {failures} consecutive "
            f"failures")
        self.scope = scope
        self.failures = failures


class MachineUnavailable(ReproError):
    """The target machine died or dropped off the network mid-scan.

    Retryable at the fleet level: the coordinator records an error
    verdict and the next epoch boots the machine and scans it again,
    subject to the circuit breaker.
    """


class FleetError(ReproError):
    """Raised by the fleet orchestration service (repro.fleet)."""


class StaleLease(FleetError):
    """A worker acked a lease that was superseded or already acked.

    Its holder was declared dead and the machine requeued (and perhaps
    re-leased), or the machine was already acked this epoch; honouring
    the stale ack would double-count the machine.  The late worker
    drops its result — the current lease holder's scan is the one that
    lands.
    """

    def __init__(self, machine: str, token: int, reason: str):
        super().__init__(
            f"stale lease #{token} for {machine!r}: {reason}")
        self.machine = machine
        self.token = token


class TransportError(FleetError):
    """A fleet wire-protocol exchange failed mid-flight.

    Covers the whole family a real network shows the agent loop: the
    peer closed the connection, a frame arrived torn, or an injected
    ``fleet.transport.*`` fault dropped the exchange.  Always retryable
    at the connection level — the agent's reconnect loop re-dials and
    replays its last unacked work (acks are idempotent server-side).
    """


class TransportTimeout(TransportError):
    """A framed receive hit its deadline with the peer still connected.

    Distinct from :class:`TransportError` proper so a server loop can
    treat it as "poll again" rather than "the connection died".
    """


class AgentAuthError(TransportError):
    """The controller rejected an agent's HMAC hello.

    Not retryable with the same credentials: the agent's shared secret
    does not match the controller's, so backing off and re-dialling
    would only produce the same rejection.
    """


class CoordinatorKilled(FleetError):
    """Deterministic SIGKILL stand-in for checkpoint-soundness tests.

    Raised by the coordinator at an ack boundary when a test asked for
    ``kill_after_acks``; nothing is flushed beyond what the WAL already
    made durable, exactly like a real kill -9.
    """


class UnixError(ReproError):
    """Raised by the Unix substrate (repro.unixsim)."""
