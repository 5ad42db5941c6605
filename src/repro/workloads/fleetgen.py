"""Seeded fleet population synthesis: profiles, churn, infection waves.

Benchmarks and soak tests kept hand-building fleets (``build_fleet``,
ad-hoc loops over :class:`~repro.machine.Machine`).  A
:class:`FleetProfile` replaces that with one declarative, seeded
description of a whole population — per-machine file-count / hive-size /
perf distributions, per-epoch churn rates that feed the disk change
journal between sweeps, and deterministic infection waves (strain, onset
epoch, spread rate).

Everything is derived from per-stream ``random.Random(f"{seed}:...")``
generators — never the global ``random`` module, never dict order — so
the same profile reproduces byte-identical disks and the same epoch
schedule in every process.  That determinism is what the sweep-trace
record/replay layer (:mod:`repro.workloads.traces`) and the
seed-stability regression tests build on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Type

from repro.ghostware import (Aphex, Berbew, CmCallbackGhost, HackerDefender,
                             Mersting, NamingExploitGhost, ProBotSE,
                             RegistryNamingGhost, Urbin, Vanquish)
from repro.ghostware.base import Ghostware
from repro.machine import Machine, PerfModel
from repro.stealth import StealthCampaign, apply_stealth_event, attach_stealth
from repro.workloads.population import _word, populate_machine

# Strain registry: trace records carry strain *names*, never pickled
# classes, so a recorded workload replays across processes and PRs.
STRAINS: Dict[str, Type[Ghostware]] = {
    "hackerdefender": HackerDefender,
    "urbin": Urbin,
    "mersting": Mersting,
    "vanquish": Vanquish,
    "aphex": Aphex,
    "probot": ProBotSE,
    "berbew": Berbew,
    "naming": NamingExploitGhost,
    "regnaming": RegistryNamingGhost,
    "cmcallback": CmCallbackGhost,
}

# Directories churn writes into (all created by populate_machine).
_CHURN_DIRS = ("\\Temp\\work", "\\Documents and Settings\\user",
               "\\Windows\\Temp", "\\Program Files")
_CHURN_EXTENSIONS = (".tmp", ".log", ".dat", ".txt")


@dataclass(frozen=True)
class InfectionWave:
    """One strain's deterministic spread through the fleet.

    ``initial`` machines are infected at ``onset_epoch``; every later
    epoch infects ``round(spread * currently_infected)`` additional
    machines (chosen seeded, from the not-yet-infected remainder) until
    the fleet is saturated or the run ends.

    ``level`` (see :mod:`repro.stealth.levels`) arms the wave's strain
    with counter-detection behaviors, clamped to what the strain can
    actually do; ``conceal_budget`` caps how many members hide per
    epoch under cross-machine coordination (``maximum`` only).
    """

    strain: str
    onset_epoch: int = 1
    initial: int = 1
    spread: float = 0.0
    level: str = "off"
    conceal_budget: int = 2

    def to_dict(self) -> Dict:
        record = {"strain": self.strain, "onset_epoch": self.onset_epoch,
                  "initial": self.initial, "spread": self.spread}
        if self.level != "off":
            # Emitted only when armed: pre-stealth profile digests (and
            # their recorded traces) stay byte-stable.
            record["level"] = self.level
            record["conceal_budget"] = self.conceal_budget
        return record

    @classmethod
    def from_dict(cls, record: Dict) -> "InfectionWave":
        return cls(strain=record["strain"],
                   onset_epoch=int(record.get("onset_epoch", 1)),
                   initial=int(record.get("initial", 1)),
                   spread=float(record.get("spread", 0.0)),
                   level=str(record.get("level", "off")),
                   conceal_budget=int(record.get("conceal_budget", 2)))


@dataclass(frozen=True)
class FleetProfile:
    """A seeded description of a whole fleet population.

    Ranges are inclusive ``(low, high)`` bounds sampled per machine from
    that machine's own derived stream.  ``virtual_files`` drives the
    cost model's ``entity_scale`` (how many real files each simulated
    one stands for) while ``file_count`` bounds the affordable simulated
    population, mirroring :class:`~repro.workloads.machines
    .MachineProfile`.
    """

    name: str = "fleet"
    size: int = 20
    seed: int = 1
    file_count: Tuple[int, int] = (60, 140)
    virtual_files: Tuple[int, int] = (20_000, 150_000)
    registry_kb: Tuple[int, int] = (200, 600)
    cpu_mhz: Tuple[float, float] = (550.0, 2200.0)
    churn_files: Tuple[int, int] = (2, 6)
    churn_registry: Tuple[int, int] = (0, 2)
    waves: Tuple[InfectionWave, ...] = ()
    disk_mb: int = 256
    max_records: int = 8192

    def machine_names(self) -> List[str]:
        return [f"{self.name}-{index:03d}" for index in range(self.size)]

    def to_dict(self) -> Dict:
        return {
            "name": self.name, "size": self.size, "seed": self.seed,
            "file_count": list(self.file_count),
            "virtual_files": list(self.virtual_files),
            "registry_kb": list(self.registry_kb),
            "cpu_mhz": list(self.cpu_mhz),
            "churn_files": list(self.churn_files),
            "churn_registry": list(self.churn_registry),
            "waves": [wave.to_dict() for wave in self.waves],
            "disk_mb": self.disk_mb, "max_records": self.max_records,
        }

    @classmethod
    def from_dict(cls, record: Dict) -> "FleetProfile":
        def pair(key, default):
            value = record.get(key, default)
            return (value[0], value[1])

        return cls(
            name=record.get("name", "fleet"),
            size=int(record.get("size", 20)),
            seed=int(record.get("seed", 1)),
            file_count=pair("file_count", (60, 140)),
            virtual_files=pair("virtual_files", (20_000, 150_000)),
            registry_kb=pair("registry_kb", (200, 600)),
            cpu_mhz=pair("cpu_mhz", (550.0, 2200.0)),
            churn_files=pair("churn_files", (2, 6)),
            churn_registry=pair("churn_registry", (0, 2)),
            waves=tuple(InfectionWave.from_dict(wave)
                        for wave in record.get("waves", [])),
            disk_mb=int(record.get("disk_mb", 256)),
            max_records=int(record.get("max_records", 8192)),
        )


def _stream(profile: FleetProfile, *parts) -> random.Random:
    """A derived, order-independent random stream."""
    return random.Random(":".join([str(profile.seed)]
                                  + [str(part) for part in parts]))


def build_profiled_machine(profile: FleetProfile, name: str,
                           boot: bool = True) -> Machine:
    """One machine drawn from the profile's distributions, seeded by name."""
    rng = _stream(profile, name, "hardware")
    files = rng.randint(*profile.file_count)
    virtual = rng.randint(*profile.virtual_files)
    registry_kb = rng.randint(*profile.registry_kb)
    cpu_mhz = rng.uniform(*profile.cpu_mhz)
    perf = PerfModel(cpu_scale=cpu_mhz / 2200.0,
                     disk_mbps=30.0 + cpu_mhz / 100.0,
                     entity_scale=max(1.0, virtual / files),
                     ram_mb=rng.choice((128, 192, 256, 384, 512)))
    machine = Machine(name, disk_mb=profile.disk_mb,
                      max_records=max(profile.max_records, files * 3),
                      perf=perf)
    # The *population* stream is separate from the hardware stream so
    # adding a distribution knob never perturbs existing disks.
    populate_machine(machine, file_count=files, registry_scale=registry_kb,
                     seed=_stream(profile, name, "populate").randrange(2**31))
    if boot:
        machine.boot()
    return machine


class FleetWorkload:
    """A profile's materialized fleet plus its epoch-by-epoch schedule.

    The workload owns the machines and generates, per epoch, the exact
    churn operations and infection events as plain dicts — the same
    dicts the sweep trace records verbatim, and the same dicts
    :func:`apply_ops` / :func:`apply_infections` consume, so record and
    replay apply literally identical mutations.

    Epoch schedules are generated in order and memoized; churn deletes
    only touch files churn itself created, so every generated op is
    valid against the fleet state its epoch sees.
    """

    def __init__(self, profile: FleetProfile, boot: bool = True):
        self.profile = profile
        self.machines: Dict[str, Machine] = {
            name: build_profiled_machine(profile, name, boot=boot)
            for name in profile.machine_names()}
        self._epochs: Dict[int, Dict] = {}
        self._churn_files: Dict[str, List[str]] = {
            name: [] for name in self.machines}
        self._infected: Dict[str, Set[str]] = {
            wave.strain: set() for wave in profile.waves}
        self._generated_to = 0
        # The adversary controller for leveled waves, plus the live
        # ghost registry stealth events are applied against.
        self._campaign = StealthCampaign(
            f"{profile.seed}:stealth",
            {name: cls.stealth_capabilities
             for name, cls in STRAINS.items()})
        self._ghosts: Dict[Tuple[str, str], Ghostware] = {}

    # -- schedule generation -----------------------------------------------------

    def epoch_events(self, epoch: int) -> Dict:
        """The epoch's churn ops and infection events, generated once."""
        while self._generated_to < epoch:
            self._generated_to += 1
            infections = self._generate_infections(self._generated_to)
            self._epochs[self._generated_to] = {
                "epoch": self._generated_to,
                "ops": self._generate_churn(self._generated_to),
                "infections": infections,
                "stealth": self._generate_stealth(self._generated_to,
                                                  infections),
            }
        return self._epochs[epoch]

    def _generate_churn(self, epoch: int) -> List[Dict]:
        profile = self.profile
        ops: List[Dict] = []
        if epoch <= 1:
            return ops   # epoch 1 scans the pristine population
        for name in sorted(self.machines):
            rng = _stream(profile, name, "churn", epoch)
            live = self._churn_files[name]
            for __ in range(rng.randint(*profile.churn_files)):
                kind = rng.choice(("create", "create", "modify", "delete"))
                if kind == "create" or not live:
                    directory = rng.choice(_CHURN_DIRS)
                    path = (f"{directory}\\{_word(rng)}-e{epoch}"
                            f"{rng.choice(_CHURN_EXTENSIONS)}")
                    ops.append({"machine": name, "op": "create",
                                "path": path,
                                "size": rng.choice((0, 64, 512, 4096))})
                    live.append(path)
                elif kind == "modify":
                    ops.append({"machine": name, "op": "modify",
                                "path": rng.choice(live),
                                "size": rng.choice((64, 512, 4096))})
                else:
                    path = live.pop(rng.randrange(len(live)))
                    ops.append({"machine": name, "op": "delete",
                                "path": path})
            for __ in range(rng.randint(*profile.churn_registry)):
                app = _word(rng, 8)
                ops.append({"machine": name, "op": "regset",
                            "key": f"HKLM\\SOFTWARE\\Churn\\{app}",
                            "name": _word(rng), "data": _word(rng, 12)})
        return ops

    def _generate_infections(self, epoch: int) -> List[Dict]:
        events: List[Dict] = []
        already = set().union(*self._infected.values()) \
            if self._infected else set()
        for wave in self.profile.waves:
            if epoch < wave.onset_epoch:
                continue
            infected = self._infected[wave.strain]
            if epoch == wave.onset_epoch:
                count = wave.initial
            else:
                count = int(round(wave.spread * len(infected)))
            if count <= 0:
                continue
            rng = _stream(self.profile, "wave", wave.strain, epoch)
            pool = sorted(set(self.machines) - already - infected)
            for name in rng.sample(pool, min(count, len(pool))):
                event = {"machine": name, "strain": wave.strain}
                if wave.level != "off":
                    # Carried on the event (and thus the trace) so a
                    # replay attaches byte-identical stealth managers.
                    event["level"] = wave.level
                    event["stealth_seed"] = \
                        f"{self.profile.seed}:stealth:{name}"
                events.append(event)
                infected.add(name)
                already.add(name)
        return events

    def _generate_stealth(self, epoch: int,
                          infections: Sequence[Dict]) -> List[Dict]:
        """The epoch's adversary moves against cumulative membership."""
        fresh: Dict[str, Set[str]] = {}
        for event in infections:
            fresh.setdefault(event["strain"], set()).add(event["machine"])
        members = {strain: set(crew)
                   for strain, crew in self._infected.items()}
        return self._campaign.epoch_events(epoch, self.profile.waves,
                                           members, fresh)

    # -- application -------------------------------------------------------------

    def apply_epoch(self, epoch: int) -> Dict:
        """Generate and apply one epoch's events; returns the event dict."""
        events = self.epoch_events(epoch)
        apply_ops(self.machines, events["ops"])
        apply_infections(self.machines, events["infections"],
                         ghosts=self._ghosts)
        apply_stealth(self.machines, events.get("stealth", ()),
                      self._ghosts)
        return events

    # -- ground truth ------------------------------------------------------------

    def infected_machines(self, epoch: int) -> Set[str]:
        """Ground truth: machines carrying any strain as of ``epoch``."""
        self.epoch_events(epoch)
        infected: Set[str] = set()
        for done in range(1, epoch + 1):
            for event in self._epochs[done]["infections"]:
                infected.add(event["machine"])
        return infected


def apply_ops(machines: Dict[str, Machine], ops: Sequence[Dict]) -> int:
    """Apply recorded churn ops verbatim; returns the count applied.

    Content is derived from the op itself (``b"c" * size``) so the op
    list alone fully determines the resulting disk bytes.  Ops against
    vanished paths are skipped (a replayed trace against a hand-edited
    fleet should degrade, not crash).
    """
    applied = 0
    for op in ops:
        machine = machines.get(op.get("machine", ""))
        if machine is None:
            continue
        kind = op.get("op")
        volume = machine.volume
        if kind == "create":
            if not volume.exists(op["path"]):
                volume.create_file(op["path"], b"c" * int(op.get("size", 0)))
                applied += 1
        elif kind == "modify":
            if volume.exists(op["path"]):
                volume.write_file(op["path"],
                                  b"m" * int(op.get("size", 0)))
                applied += 1
        elif kind == "delete":
            if volume.exists(op["path"]):
                volume.delete_file(op["path"])
                applied += 1
        elif kind == "regset":
            machine.registry.create_key(op["key"])
            machine.registry.set_value(op["key"], op["name"], op["data"])
            applied += 1
    return applied


def apply_infections(machines: Dict[str, Machine],
                     events: Sequence[Dict],
                     ghosts: Optional[Dict[Tuple[str, str],
                                           Ghostware]] = None
                     ) -> List[Ghostware]:
    """Install recorded infection events; returns the installed ghosts.

    An event carrying a ``level`` gets a stealth manager attached right
    after install (seeded by the event's ``stealth_seed``); ``ghosts``
    — keyed ``(strain, machine)`` — collects the live instances so
    later stealth events can find their targets.
    """
    installed: List[Ghostware] = []
    for event in events:
        machine = machines.get(event.get("machine", ""))
        strain = STRAINS.get(event.get("strain", ""))
        if machine is None or strain is None:
            continue
        if not machine.powered_on:
            machine.boot()
        ghost = strain()
        ghost.install(machine)
        level = event.get("level", "off")
        if level != "off":
            attach_stealth(ghost, machine, level,
                           seed=event.get("stealth_seed", "0"))
        if ghosts is not None:
            ghosts[(event.get("strain", ""),
                    event.get("machine", ""))] = ghost
        installed.append(ghost)
    return installed


def apply_stealth(machines: Dict[str, Machine], events: Sequence[Dict],
                  ghosts: Dict[Tuple[str, str], Ghostware]) -> int:
    """Apply recorded stealth events to installed ghosts; count applied.

    Events whose ghost or machine is missing are skipped — same
    degrade-don't-crash contract as :func:`apply_ops`.
    """
    applied = 0
    for event in events:
        machine = machines.get(event.get("machine", ""))
        ghost = ghosts.get((event.get("strain", ""),
                            event.get("machine", "")))
        if machine is None or ghost is None:
            continue
        apply_stealth_event(ghost, machine, event)
        applied += 1
    return applied
