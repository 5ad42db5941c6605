"""Seed-deterministic fault plans.

A :class:`FaultPlan` is the single source of chaos for a run: every
instrumented site asks it ("should this read fail?") and the plan
answers from a seeded RNG.  Two properties make the answers usable in
tests and benchmarks:

* **Determinism under parallelism.**  Draws come from a per-``(site,
  scope)`` stream — ``random.Random(f"{seed}:{site}:{scope}")`` — so a
  machine's fault sequence depends only on the seed and on *its own*
  draw order, never on how workers or agents interleaved other machines.
  :meth:`FaultPlan.sequence_digest` canonicalizes the fired-fault log
  (sorted by stream, not by wall-clock arrival) so two runs of the same
  workload compare byte-identical.
* **Observability.**  Every fired fault is appended to ``plan.log``,
  counted in the global metrics registry (``faults.injected`` and
  ``faults.injected.<site>``), and recorded to the active telemetry
  audit log under the ``fault-injection`` layer — tests assert exactly
  what fired, and the CI chaos job uploads the log as an artifact.
"""

from __future__ import annotations

import hashlib
import random
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.telemetry import context as telemetry_context
from repro.telemetry.audit import LAYER_FAULT
from repro.telemetry.metrics import global_metrics

# The instrumented sites.
SITE_DISK_READ = "disk.read"          # Disk.read_bytes (via DiskFaultInjector)
SITE_HIVE_READ = "hive.read"          # hive blob reads in the ASEP scanners
SITE_WINAPI_ENUM = "winapi.enum"      # high-level enumeration walks
SITE_RIS_TRANSPORT = "ris.transport"  # the RIS network-boot transport
SITE_MFT_PARSE = "mft.parse"          # raw namespace build (self-healing)
SITE_HIVE_PARSE = "hive.parse"        # raw hive parse (self-healing)
SITE_FLEET_LEASE = "fleet.lease"      # work-queue lease acquisition
SITE_FLEET_SEND = "fleet.transport.send"  # controller/agent frame send
SITE_FLEET_RECV = "fleet.transport.recv"  # controller/agent frame receive

MODES = ("rate", "burst", "one_shot", "always")

# Kinds whose fault carries a simulated-time delay.
_DELAY_KINDS = frozenset({"slow_read", "hang", "timeout", "delay"})

_FAULT_OWNER = "fault-plan"


@dataclass(frozen=True)
class FaultSpec:
    """One site's fault behaviour.

    ``mode`` selects when draws fire: ``rate`` (independent Bernoulli at
    ``rate``), ``burst`` (Bernoulli entry, then ``burst_length``
    consecutive fires), ``one_shot`` (first draw only), ``always``
    (every draw).  ``max_fires`` caps total fires per ``(site, scope)``
    stream; ``scopes`` restricts the spec to named machines (empty =
    all).  ``mean_delay_s`` sizes the simulated delay of slow/hang/
    timeout kinds.
    """

    site: str
    rate: float = 0.0
    mode: str = "rate"
    kinds: Tuple[str, ...] = ("io_error",)
    burst_length: int = 3
    max_fires: Optional[int] = None
    mean_delay_s: float = 0.2
    scopes: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown fault mode {self.mode!r}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {self.rate}")
        if not self.kinds:
            raise ValueError("a fault spec needs at least one kind")

    def applies_to(self, scope: str) -> bool:
        return not self.scopes or scope in self.scopes


@dataclass(frozen=True)
class InjectedFault:
    """One fault that fired."""

    site: str
    kind: str
    scope: str
    stream_seq: int            # 1-based sequence within the (site, scope) stream
    delay_s: float = 0.0
    detail: str = ""

    def key(self) -> Tuple:
        """Scheduling-independent identity, for the sequence digest."""
        return (self.site, self.scope, self.stream_seq, self.kind,
                f"{self.delay_s:.9f}", self.detail)

    def to_dict(self) -> dict:
        return {"site": self.site, "kind": self.kind, "scope": self.scope,
                "seq": self.stream_seq, "delay_s": round(self.delay_s, 9),
                "detail": self.detail}


class _Stream:
    """Mutable per-(site, scope) draw state."""

    __slots__ = ("rng", "draws", "fires", "burst_left")

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.draws = 0
        self.fires = 0
        self.burst_left = 0


class FaultPlan:
    """A seeded set of fault specs plus the log of what fired."""

    def __init__(self, seed: int, specs: Sequence[FaultSpec]):
        self.seed = int(seed)
        self.specs = tuple(specs)
        self._by_site: Dict[str, List[FaultSpec]] = {}
        for spec in self.specs:
            self._by_site.setdefault(spec.site, []).append(spec)
        self._streams: Dict[Tuple[str, str], _Stream] = {}
        self._lock = threading.Lock()
        self.log: List[InjectedFault] = []

    # -- construction shorthands -------------------------------------------------

    @classmethod
    def default(cls, seed: int, rate: float = 0.05,
                scopes: Tuple[str, ...] = (),
                mean_delay_s: float = 0.2) -> "FaultPlan":
        """The standard chaos mix: transient faults at every scan site.

        Every kind here is either detectable-and-retryable (io_error,
        torn_read, truncate, corrupt, status_failure, drop, timeout) or
        purely latency (slow_read, hang), so a resilient pipeline must
        produce the same findings as a fault-free run.
        """
        return cls(seed, (
            FaultSpec(SITE_DISK_READ, rate=rate, scopes=scopes,
                      kinds=("io_error", "slow_read", "torn_read"),
                      mean_delay_s=mean_delay_s),
            FaultSpec(SITE_HIVE_READ, rate=rate, scopes=scopes,
                      kinds=("truncate", "corrupt")),
            FaultSpec(SITE_WINAPI_ENUM, rate=rate, scopes=scopes,
                      kinds=("status_failure", "hang"),
                      mean_delay_s=mean_delay_s),
            FaultSpec(SITE_RIS_TRANSPORT, rate=rate, scopes=scopes,
                      kinds=("drop", "timeout"),
                      mean_delay_s=mean_delay_s),
            FaultSpec(SITE_FLEET_LEASE, rate=rate, scopes=scopes,
                      kinds=("io_error",), mean_delay_s=0.0),
            # The fleet wire: partitions, latency, replayed and torn
            # frames.  Only the distributed agent/controller path draws
            # here, and its streams are keyed by agent id, so adding
            # these specs never perturbs the per-machine scan streams.
            FaultSpec(SITE_FLEET_SEND, rate=rate, scopes=scopes,
                      kinds=("drop", "delay", "duplicate", "torn_frame"),
                      mean_delay_s=mean_delay_s),
            FaultSpec(SITE_FLEET_RECV, rate=rate, scopes=scopes,
                      kinds=("drop", "delay", "torn_frame"),
                      mean_delay_s=mean_delay_s),
        ))

    @classmethod
    def tier1(cls, seed: int, rate: float = 0.01) -> "FaultPlan":
        """The CI chaos profile: low-rate faults at the self-healing
        parser sites only, with no simulated delay, so the tier-1 suite
        (which asserts timings, cache counters, and exact findings) must
        pass unchanged with the plan installed globally."""
        return cls(seed, (
            FaultSpec(SITE_MFT_PARSE, rate=rate, kinds=("transient",),
                      mean_delay_s=0.0),
            FaultSpec(SITE_HIVE_PARSE, rate=rate, kinds=("transient",),
                      mean_delay_s=0.0),
        ))

    # -- drawing ------------------------------------------------------------------

    def sites(self) -> List[str]:
        return sorted(self._by_site)

    def draw(self, site: str, scope: str = "global"
             ) -> Optional[InjectedFault]:
        """One draw at ``site`` for ``scope``; the fired fault or None."""
        specs = self._by_site.get(site)
        if not specs:
            return None
        fault = None
        with self._lock:
            key = (site, scope)
            stream = self._streams.get(key)
            if stream is None:
                stream = self._streams[key] = _Stream(
                    random.Random(f"{self.seed}:{site}:{scope}"))
            stream.draws += 1
            for spec in specs:
                if not spec.applies_to(scope):
                    continue
                fault = self._fire(spec, stream, site, scope)
                if fault is not None:
                    self.log.append(fault)
                    break
        if fault is not None:
            metrics = global_metrics()
            metrics.incr("faults.injected")
            metrics.incr(f"faults.injected.{site}")
            audit = telemetry_context.current_audit()
            if audit is not None:
                audit.record(LAYER_FAULT, api=site, kind=fault.kind,
                             owner=_FAULT_OWNER,
                             detail=f"scope={scope} seq={fault.stream_seq}"
                                    + (f" delay={fault.delay_s:.3f}s"
                                       if fault.delay_s else ""))
        return fault

    @staticmethod
    def _fire(spec: FaultSpec, stream: _Stream, site: str,
              scope: str) -> Optional[InjectedFault]:
        if spec.max_fires is not None and stream.fires >= spec.max_fires:
            return None
        if spec.mode == "always":
            fires = True
        elif spec.mode == "one_shot":
            fires = stream.fires == 0
        elif spec.mode == "burst":
            if stream.burst_left > 0:
                stream.burst_left -= 1
                fires = True
            elif stream.rng.random() < spec.rate:
                stream.burst_left = max(spec.burst_length - 1, 0)
                fires = True
            else:
                fires = False
        else:
            fires = stream.rng.random() < spec.rate
        if not fires:
            return None
        stream.fires += 1
        kind = stream.rng.choice(spec.kinds)
        delay = 0.0
        if kind in _DELAY_KINDS and spec.mean_delay_s > 0:
            delay = spec.mean_delay_s * (0.5 + stream.rng.random())
        return InjectedFault(site=site, kind=kind, scope=scope,
                             stream_seq=stream.fires, delay_s=delay,
                             detail=f"draw#{stream.draws}")

    # -- wiring -------------------------------------------------------------------

    def attach(self, machine):
        """Install a disk-read injector on the machine's physical disk."""
        from repro.faults.injectors import DiskFaultInjector
        injector = DiskFaultInjector(self, machine.disk, clock=machine.clock,
                                     scope=machine.name)
        machine.disk.fault_injector = injector
        return injector

    @staticmethod
    def detach(machine) -> None:
        machine.disk.fault_injector = None

    # -- inspection ---------------------------------------------------------------

    def fired(self, site: Optional[str] = None,
              scope: Optional[str] = None) -> List[InjectedFault]:
        with self._lock:
            return [fault for fault in self.log
                    if (site is None or fault.site == site)
                    and (scope is None or fault.scope == scope)]

    def fired_count(self, site: Optional[str] = None,
                    scope: Optional[str] = None) -> int:
        return len(self.fired(site, scope))

    def sequence_digest(self) -> str:
        """A scheduling-independent digest of every fault that fired.

        Entries are sorted by their per-stream identity before hashing,
        so parallel runs whose workers interleave differently still
        produce the same digest when the same faults fired.
        """
        with self._lock:
            keys = sorted(fault.key() for fault in self.log)
        digest = hashlib.sha256()
        for key in keys:
            digest.update(repr(key).encode("utf-8"))
        return digest.hexdigest()

    def log_dicts(self) -> List[dict]:
        """The fired-fault log in canonical (stream-sorted) order."""
        with self._lock:
            faults = sorted(self.log, key=InjectedFault.key)
        return [fault.to_dict() for fault in faults]
