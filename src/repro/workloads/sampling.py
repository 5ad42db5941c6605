"""Stratified sampled scanning: recall traded for scan-seconds, honestly.

MIMOSA-style covering for the fleet service: at scale, most of every
epoch is spent exhaustively cross-view diffing machines that almost
certainly hide nothing.  A :class:`SamplingPolicy` splits each epoch
two ways:

* **across machines** — risky (prior detections / failures) and
  never-scanned machines always get the full scan; everyone else gets a
  cheap sampled pass, with a deterministic rotation guaranteeing every
  machine a full scan every ``full_every`` epochs so sampling error
  cannot compound forever;
* **within a machine** — the registry (ASEP) stratum is *always*
  scanned in full, because the paper's core persistence argument says
  ghostware that survives a reboot must hook an ASEP, and hive scans
  are cheap next to file scans; the file namespace is stratified by
  parent directory and only a seeded ``file_rate`` share of directories
  is cross-view diffed.

The sampled pass itself is the ordinary inside scan,
:meth:`~repro.core.ghostbuster.GhostBuster.inside_scan` with the chosen
directories, run by :func:`repro.fleet.scanwork.perform_machine_scan`
for a sample-tier lease: the same layer retries, defended settings,
cost charges and finding labels as a full scan, over less of the
namespace.  Any non-noise finding escalates the machine to the full
scan + :class:`~repro.fleet.policy.EscalationPolicy` pipeline.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence

TIER_FULL = "full"
TIER_SAMPLE = "sample"


@dataclass(frozen=True)
class SamplingPolicy:
    """Knobs for the two-level stratified sampling design."""

    seed: int = 0
    file_rate: float = 0.25          # share of directory strata sampled
    full_every: int = 8              # rotation: full scan every N epochs
    full_staleness: float = 1000.0   # ≥ this staleness → always full
    min_strata: int = 1

    def to_dict(self) -> Dict:
        return {"seed": self.seed, "file_rate": self.file_rate,
                "full_every": self.full_every,
                "full_staleness": self.full_staleness,
                "min_strata": self.min_strata}

    @classmethod
    def from_dict(cls, record: Dict) -> "SamplingPolicy":
        return cls(seed=int(record.get("seed", 0)),
                   file_rate=float(record.get("file_rate", 0.25)),
                   full_every=int(record.get("full_every", 8)),
                   full_staleness=float(record.get("full_staleness",
                                                   1000.0)),
                   min_strata=int(record.get("min_strata", 1)))

    # -- machine-level stratification --------------------------------------------

    def _rotation_slot(self, machine: str) -> int:
        digest = hashlib.sha256(
            f"{self.seed}:{machine}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") % max(1, self.full_every)

    def assign(self, plan: Sequence, epoch: int) -> Dict[str, str]:
        """machine → tier for one epoch, from the scheduler's plan.

        Deterministic in (policy seed, epoch, machine name) and the
        plan's score components only — independent of iteration order —
        so a resumed coordinator recomputing tiers from the journaled
        epoch-start record agrees with the dead one.
        """
        tiers: Dict[str, str] = {}
        for entry in plan:
            if (entry.risk > 0
                    or entry.staleness >= self.full_staleness
                    or self._rotation_slot(entry.machine)
                    == epoch % max(1, self.full_every)):
                tiers[entry.machine] = TIER_FULL
            else:
                tiers[entry.machine] = TIER_SAMPLE
        return tiers

    # -- within-machine strata ---------------------------------------------------

    def choose_strata(self, machine: str, epoch: int,
                      directories: Sequence[str]) -> List[str]:
        """The seeded subset of directory strata to cross-view this epoch."""
        ordered = sorted(directories)
        if not ordered:
            return []
        count = max(self.min_strata,
                    int(round(self.file_rate * len(ordered))))
        count = min(count, len(ordered))
        rng = random.Random(f"{self.seed}:{epoch}:{machine}:files")
        return sorted(rng.sample(ordered, count))
