"""End-to-end markers taken in every repetition, traced or not.

The end-to-end metrics need a few timestamps the program does not
expose: when each machine was first leased in an epoch and when its ack
landed (verdict latency), where each epoch starts and ends (in
distributed mode the epochs run inside one ``run_distributed`` call),
how long the epoch waited after its last ack before closing, and when
forked agents came up.  :class:`EpochProbe` wraps exactly those
boundaries — two ``perf_counter`` reads per machine — and takes the
host-speed reference samples (``hostspeed.py``) beside them, cutting
their time from every interval; nothing else is wrapped, so the
untraced runs stay untraced.
"""

from __future__ import annotations

import functools
import os
import time
from typing import Dict, List, Optional, Tuple

from hostspeed import reference_sample, speed_factor

GROUP_SAMPLES = 5
INSIDE_INTERVAL_S = 0.05


class EpochProbe:
    """Lease/ack latency, epoch walls, drain lag, agent start-up and
    the host-speed samples that scale them."""

    def __init__(self) -> None:
        self.first_lease: Dict[Tuple[int, str], float] = {}
        self.verdict_ms: List[List[float]] = []     # per epoch
        self.last_ack: Optional[float] = None
        self.epoch_walls: List[float] = []
        self.drain_lag_ms: List[float] = []
        self.epoch_started: Optional[float] = None
        self.first_epoch_entered: Optional[float] = None
        self.spawn_started: Optional[float] = None
        self.hellos: List[float] = []
        self.queue_bytes_appended = 0
        # Host-speed reference groups (see hostspeed.py), and for each
        # epoch the (before, after) group indices bracketing it, taken
        # by the caller: single-process runs take them between run_epoch
        # calls, outside every span.  Distributed runs take none inside
        # run_distributed: its epochs' work runs in the agents, which a
        # sample in this process does not time (beside running agents it
        # times their contention with it instead), so run.py reports
        # those epochs as timed.  Long intervals (fleet
        # synthesis, single-process epochs, lookups) also sample inside
        # — after a machine build, an ack or a lookup, at most every
        # INSIDE_INTERVAL_S — and that time is cut from the interval.
        self.reference_groups: List[List[float]] = []
        self.epoch_groups: List[Tuple[int, int]] = []
        self.epoch_inside: List[List[float]] = []
        self.distributed = False
        self.tracer = None
        self._before_group = -1
        self._sampling = False
        self._inside: List[float] = []
        self._last_inside = 0.0
        self._queue_bytes_at_start = 0
        self._patches: List[Tuple[object, str, object]] = []
        self._pid = os.getpid()

    def install(self) -> "EpochProbe":
        from repro.fleet.controller import ScanController
        from repro.fleet.coordinator import FleetCoordinator
        from repro.fleet.queue import WorkQueue
        from repro.workloads import fleetgen

        probe = self
        perf = time.perf_counter

        def lease(original, queue, *args, **kwargs):
            granted = original(queue, *args, **kwargs)
            if granted is not None:
                probe.first_lease.setdefault(
                    (granted.epoch, granted.machine), perf())
            return granted

        def ack(original, queue, lease_, *args, **kwargs):
            original(queue, lease_, *args, **kwargs)
            now = perf()
            started = probe.first_lease.get((lease_.epoch, lease_.machine))
            if started is not None and probe.verdict_ms:
                probe.verdict_ms[-1].append((now - started) * 1000.0)
            if probe.maybe_sample_inside():
                now = perf()
            probe.last_ack = now

        def next_epoch_number(original, coordinator):
            if probe.epoch_started is None:
                if probe.first_epoch_entered is None:
                    probe.first_epoch_entered = perf()
                probe._before_group = len(probe.reference_groups) - 1
                probe.verdict_ms.append([])
                probe.open_interval(sample_inside=not probe.distributed)
                probe.epoch_started = perf()
                probe._queue_bytes_at_start = _size(coordinator.queue.path)
            return original(coordinator)

        def finish_epoch(original, coordinator, aggregator):
            now = perf()
            if probe.last_ack is not None:
                probe.drain_lag_ms.append((now - probe.last_ack) * 1000.0)
            probe.queue_bytes_appended += max(
                0, _size(coordinator.queue.path)
                - probe._queue_bytes_at_start)
            original(coordinator, aggregator)
            if probe.epoch_started is not None:
                inside = probe.close_interval()
                probe.epoch_walls.append(perf() - probe.epoch_started
                                         - sum(inside))
                probe.epoch_inside.append(inside)
            probe.epoch_started = None
            probe.last_ack = None
            probe.epoch_groups.append(
                (probe._before_group, len(probe.reference_groups)))

        def spawn_agents(original, coordinator, *args, **kwargs):
            if probe.spawn_started is None:
                probe.spawn_started = perf()
            return original(coordinator, *args, **kwargs)

        def journal_agent(original, controller, session, event, *args,
                          **kwargs):
            if event == "hello":
                probe.hellos.append(perf())
            return original(controller, session, event, *args, **kwargs)

        def build_machine(original, *args, **kwargs):
            machine = original(*args, **kwargs)
            probe.maybe_sample_inside()
            return machine

        self._patch(fleetgen, "build_profiled_machine", build_machine)
        self._patch(WorkQueue, "lease", lease)
        self._patch(WorkQueue, "ack", ack)
        self._patch(FleetCoordinator, "next_epoch_number", next_epoch_number)
        self._patch(FleetCoordinator, "_finish_epoch", finish_epoch)
        self._patch(FleetCoordinator, "spawn_agents", spawn_agents)
        self._patch(ScanController, "_journal_agent", journal_agent)
        return self

    def open_interval(self, sample_inside: bool = True) -> None:
        self._sampling = sample_inside
        self._inside = []
        self._last_inside = time.perf_counter()

    def close_interval(self) -> List[float]:
        """The samples taken inside; their sum is the time to cut."""
        self._sampling = False
        return self._inside

    def maybe_sample_inside(self) -> bool:
        if (not self._sampling or time.perf_counter() - self._last_inside
                < INSIDE_INTERVAL_S):
            return False
        self._inside.append(self._timed_sample())
        self._last_inside = time.perf_counter()
        return True

    def _timed_sample(self) -> float:
        if self.tracer is None:
            return reference_sample()
        with self.tracer.span("hostspeed.reference"):
            return reference_sample()

    def reference_group(self) -> int:
        """Take one group of host-speed samples; returns its index."""
        self.reference_groups.append(
            [self._timed_sample() for __ in range(GROUP_SAMPLES)])
        return len(self.reference_groups) - 1

    def speed(self, *groups: int, inside=()) -> float:
        """The host-speed factor over the given reference groups."""
        return speed_factor([sample for group in groups
                             for sample in self.reference_groups[group]]
                            + list(inside))

    def epoch_speeds(self) -> List[float]:
        return [self.speed(before, after, inside=inside)
                for (before, after), inside
                in zip(self.epoch_groups, self.epoch_inside)]

    def _patch(self, cls, attr: str, hook) -> None:
        original = cls.__dict__[attr]
        pid = self._pid

        @functools.wraps(original)
        def probed(*args, **kwargs):
            if os.getpid() != pid:
                return original(*args, **kwargs)
            return hook(original, *args, **kwargs)

        self._patches.append((cls, attr, original))
        setattr(cls, attr, probed)

    def uninstall(self) -> None:
        for cls, attr, original in reversed(self._patches):
            setattr(cls, attr, original)
        self._patches.clear()

    def agent_spawn_s(self, agents: int) -> Optional[float]:
        """Fork of the agent pool until its last work-channel hello."""
        if self.spawn_started is None or len(self.hellos) < agents:
            return None
        return sorted(self.hellos)[agents - 1] - self.spawn_started


def _size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0
