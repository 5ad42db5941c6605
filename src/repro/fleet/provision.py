"""Fleet machine provisioning from a golden image.

The RIS-style deployments the paper sweeps (Section 5) start every
client from one golden disk image.  :func:`clone_fleet` materializes
that: each machine boots a :meth:`~repro.disk.disk.Disk.clone` of the
golden disk, which is copy-on-write — the whole fleet shares a single
sealed base extent and each clone pays only for the sectors it diverges
(its own registry churn, an infection, ...).

:func:`fleet_storage_stats` is the accounting counterpart: summing
``disk.used_bytes()`` across a COW fleet would multiply the shared base
once per machine, so fleet cost is computed from
:class:`~repro.disk.backends.StorageStats`, counting every distinct
shared base exactly once.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from repro.machine import Machine


def clone_fleet(golden: Machine, count: int,
                infected: Iterable[int] = (),
                infect: Optional[Callable[[Machine], object]] = None,
                name_format: str = "fleet-{index:02d}",
                max_records: Optional[int] = None) -> List[Machine]:
    """Boot ``count`` machines imaged from ``golden``'s disk.

    ``infected`` lists the indices that get ``infect(machine)`` applied
    after boot (the callable installs whatever strain the experiment
    needs); the rest stay byte-identical to the golden image until their
    own OS activity diverges them.
    """
    infected = set(infected)
    if infected and infect is None:
        raise ValueError("infected indices given without an infect callable")
    machines: List[Machine] = []
    for index in range(count):
        machine = Machine(name_format.format(index=index),
                          disk=golden.disk.clone(),
                          max_records=(max_records if max_records is not None
                                       else golden.volume.max_records))
        machine.boot()
        if index in infected:
            infect(machine)
        machines.append(machine)
    return machines


def fleet_storage_stats(machines: Iterable[Machine]) -> Dict[str, int]:
    """Physical bytes a fleet really occupies, shared bases counted once.

    Returns ``{"shared_bytes", "private_bytes", "total_bytes",
    "machines", "shared_bases"}``.
    """
    shared: Dict[int, int] = {}
    private = 0
    count = 0
    for machine in machines:
        stats = machine.disk.storage_stats()
        private += stats.private_bytes
        if stats.base_id is not None:
            shared[stats.base_id] = stats.shared_bytes
        else:
            # No COW base: the machine's storage is all private.
            private += stats.shared_bytes
        count += 1
    shared_total = sum(shared.values())
    return {
        "shared_bytes": shared_total,
        "private_bytes": private,
        "total_bytes": shared_total + private,
        "machines": count,
        "shared_bases": len(shared),
    }
