"""Fleet-wide stealth campaigns: seeded, leveled, deterministic.

A :class:`StealthCampaign` is the adversary's *controller*: given the
infection waves' stealth levels and the current per-strain membership,
it emits one epoch's worth of **stealth events** — plain JSON dicts that
:func:`repro.workloads.fleetgen.apply_stealth` applies to the installed
ghosts.  Events live alongside ops/infections in
:class:`~repro.workloads.fleetgen.FleetWorkload` epochs and in recorded
sweep traces, so replay re-applies the exact same adversary moves.

Event actions
-------------

``rearm``
    Re-arm a ghost's scan sensor (new epoch, new evasion episode) and
    re-ensure its volatile IAT taps after any reboot.
``rotate``
    Re-randomize the ghost's file/ASEP identity with the event's token.
``conceal`` / ``expose``
    Cross-machine coordination: at ``maximum`` level at most
    ``conceal_budget`` members per strain hide in any one epoch; the
    rest hold their lie in reserve (exposed ghosts are visible in both
    scan views, so they produce no cross-view finding — and no outbreak
    count).

All randomness is drawn from streams keyed on
``{seed}:{purpose}:{strain}:{machine}:{epoch}``, so event lists are
order-independent and identical across runs.
"""

from __future__ import annotations

import random
import string
from typing import Dict, Iterable, List, Sequence, Set

from repro.machine import Machine
from repro.stealth.levels import (AWARE, COORDINATE, ROTATE, behaviors_for,
                                  parse_level)

STEALTH_ACTIONS = ("rearm", "rotate", "conceal", "expose")


def rotation_token(seed: str, strain: str, machine: str, epoch: int,
                   length: int = 8) -> str:
    """The deterministic identity-rotation token for one (strain,
    machine, epoch) — lowercase letters, order-independent stream."""
    rng = random.Random(f"{seed}:rotate:{strain}:{machine}:{epoch}")
    return "".join(rng.choice(string.ascii_lowercase)
                   for _ in range(length))


class StealthCampaign:
    """Generates per-epoch stealth events for leveled infection waves."""

    def __init__(self, seed, capabilities: Dict[str, frozenset]):
        self.seed = str(seed)
        self.capabilities = dict(capabilities)

    def wave_behaviors(self, wave) -> frozenset:
        caps = self.capabilities.get(wave.strain, frozenset())
        return behaviors_for(getattr(wave, "level", "off"), caps)

    def epoch_events(self, epoch: int, waves: Sequence,
                     members: Dict[str, Iterable[str]],
                     new_members: Dict[str, Set[str]]) -> List[dict]:
        """One epoch's stealth events.

        ``members`` is the cumulative per-strain membership *including*
        this epoch's new infections; ``new_members`` the subset infected
        this very epoch (their managers were just attached — no rearm or
        rotation needed yet).
        """
        events: List[dict] = []
        for wave in waves:
            level = parse_level(getattr(wave, "level", "off"))
            if level == "off":
                continue
            behaviors = self.wave_behaviors(wave)
            if not behaviors:
                continue
            crew = sorted(members.get(wave.strain, ()))
            if not crew:
                continue
            fresh = new_members.get(wave.strain, set())
            veterans = [name for name in crew if name not in fresh]
            if AWARE in behaviors:
                for name in veterans:
                    events.append({"machine": name, "strain": wave.strain,
                                   "action": "rearm"})
            if ROTATE in behaviors:
                for name in veterans:
                    events.append({
                        "machine": name, "strain": wave.strain,
                        "action": "rotate",
                        "token": rotation_token(self.seed, wave.strain,
                                                name, epoch)})
            if COORDINATE in behaviors:
                budget = max(0, int(getattr(wave, "conceal_budget", 0)))
                rng = random.Random(
                    f"{self.seed}:coordinate:{wave.strain}:{epoch}")
                concealed = set(rng.sample(crew, min(budget, len(crew))))
                for name in crew:
                    action = "conceal" if name in concealed else "expose"
                    events.append({"machine": name, "strain": wave.strain,
                                   "action": action})
        return events


def apply_stealth_event(ghost, machine: Machine, event: dict) -> None:
    """Apply one stealth event to an installed, stealth-managed ghost."""
    manager = getattr(ghost, "stealth", None)
    if manager is None:
        return
    action = event["action"]
    if action == "rearm":
        manager.rearm(machine)
    elif action == "rotate":
        manager.rotate(machine, event["token"])
    elif action == "conceal":
        manager.conceal()
    elif action == "expose":
        manager.expose()
    else:
        raise ValueError(f"unknown stealth action {action!r}")
