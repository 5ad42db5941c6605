"""The console's index over the fleet journals: one in-memory fold.

The journals stay exactly as the fleet subsystem writes them —
append-only JSONL, torn-tail tolerant, compacted by their owners — and
they are the only files: the index never writes one.  Opening a
:class:`JournalIndex` replays ``epochs.jsonl``, ``queue.jsonl`` and
``baselines.jsonl`` once into memory:

* per-machine verdict history — each ``fleet-machine`` record with the
  ``[start, end)`` byte range it occupies in ``epochs.jsonl``, so the
  journal's own copy is one seek away
  (:func:`~repro.telemetry.journal_io.read_record_at`);
* epoch extents with their ``epoch-end`` summaries;
* the alert and liveness records (outbreaks, campaigns, agents), in
  arrival order;
* machine → byte range of its latest ``baselines.jsonl`` record (the
  stored report is fetched by offset on demand);
* the work-queue state, folded by the queue's own
  :class:`~repro.fleet.queue.QueueState`.

**Tailing.**  :meth:`JournalIndex.update` reads each journal from an
in-memory cursor (``complete_only`` — a torn live tail is retried next
pass, never half-indexed).  The fleet coordinator also feeds every
record it appends straight in (:meth:`~JournalIndex.note_epoch_record`),
so its own index never re-reads the epochs journal.

**Rewrites.**  An owner's compaction rewrites a journal in place
(:func:`~repro.telemetry.journal_io.replace_journal`).  ``update()``
notices a journal that shrank below its cursor, or whose last folded
record no longer reads back at its ``[start, end)``, and refolds that
journal alone from byte 0; the other journals' state stays.

:meth:`JournalIndex.status` is the one fold behind
:func:`repro.fleet.fleet_status`, ``repro fleet-status`` and
``/api/status``.
"""

from __future__ import annotations

import functools
import logging
import os
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.baseline import BASELINE_FILE
from repro.fleet.controller import fold_agent_records
from repro.fleet.coordinator import EPOCHS_FILE
from repro.fleet.queue import QUEUE_FILE, QueueState
from repro.telemetry.journal_io import iter_journal, read_record_at
from repro.telemetry.metrics import global_metrics

logger = logging.getLogger(__name__)

# epochs.jsonl record types kept whole, in arrival order.
_EVENT_TYPES = ("fleet-outbreak", "fleet-campaign", "fleet-agent")

# A journal record with the byte range [start, end) it was read from.
_Located = Tuple[dict, int, int]


def _verdict_entry(located: _Located) -> dict:
    """A ``fleet-machine`` record plus its ``start``/``end`` offsets."""
    record, start, end = located
    return dict(record, start=start, end=end)


class JournalIndex:
    """In-memory index over one fleet directory's journals."""

    def __init__(self, fleet_dir: str):
        self.fleet_dir = fleet_dir
        self._sources = {
            "epochs": os.path.join(fleet_dir, EPOCHS_FILE),
            "queue": os.path.join(fleet_dir, QUEUE_FILE),
            "baselines": os.path.join(fleet_dir, BASELINE_FILE)}
        self._folds = {"epochs": self._fold_epoch_record,
                       "queue": self._fold_queue_record,
                       "baselines": self._fold_baseline_record}
        # Per journal: how far it is folded, the last record folded with
        # its byte range (the rewrite check reads it back), and the torn
        # lines skipped on the way.
        self._cursors: Dict[str, int] = {}
        self._last: Dict[str, _Located] = {}
        self._torn: Dict[str, int] = {}
        self._hooked_counter = global_metrics().counter_handle(
            "console.index.hooked_records")
        for source in self._sources:
            self._reset(source)
        self.update()

    def close(self) -> None:
        """Nothing to release: the index holds no file open."""

    def _reset(self, source: str) -> None:
        """Forget one journal's slice of the index, before a refold."""
        if source == "epochs":
            # machine → (record, start, end) per verdict, journal order.
            self._machine_entries: Dict[str, List[_Located]] = {}
            self._epoch_entries: Dict[int, dict] = {}
            self._events: List[dict] = []
        elif source == "queue":
            self._queue_state = QueueState()
        else:
            self._baseline_entries: Dict[str, dict] = {}
        self._cursors[source] = 0
        self._last.pop(source, None)
        self._torn[source] = 0

    def _torn_line(self, source: str, where, reason: str,
                   end: Optional[int] = None) -> None:
        self._torn[source] += 1
        if end is not None:
            # A terminated line that does not parse: the cursor steps
            # past it, so the next pass does not count it again.
            self._cursors[source] = end
        logger.warning("console index: skipped torn %s line %s: %s",
                       source, where, reason)

    # -- folding journal records -------------------------------------------------

    def _fold_epoch_record(self, record: dict, start: int, end: int) -> None:
        kind = record.get("type")
        if kind == "fleet-machine":
            machine = record.get("machine")
            if machine is not None:
                self._machine_entries.setdefault(machine, []).append(
                    (record, start, end))
        elif kind in ("epoch-start", "epoch-end"):
            epoch = int(record.get("epoch", 0))
            extent = self._epoch_entries.setdefault(epoch, {"epoch": epoch})
            if kind == "epoch-start":
                extent.update(start_at=record.get("at"), start_offset=start,
                              machines=record.get("machines"))
            else:
                extent.update(end_at=record.get("at"), end_offset=end,
                              summary=record)
        elif kind in _EVENT_TYPES:
            self._events.append(record)
        # Unknown record types cost nothing but the cursor advance.

    def _fold_queue_record(self, record: dict, start: int, end: int) -> None:
        try:
            self._queue_state.apply(record)
        except (KeyError, TypeError, ValueError) as exc:
            self._torn_line("queue", "at byte %d" % start, str(exc))

    def _fold_baseline_record(self, record: dict, start: int,
                              end: int) -> None:
        # Latest record per machine wins, the BaselineStore's own rule.
        if "machine" in record and "baseline_id" in record:
            self._baseline_entries[record["machine"]] = {
                "machine": record["machine"],
                "baseline_id": record["baseline_id"],
                "disk_generation": record.get("disk_generation"),
                "scan_seconds": record.get("scan_seconds", 0.0),
                "start": start, "end": end}

    # -- write-time hook ---------------------------------------------------------

    def note_epoch_record(self, record: dict, start: int, end: int) -> None:
        """Fold one freshly appended ``epochs.jsonl`` record in place.

        Called by the fleet coordinator right after its journal append,
        with the byte range the append landed at.  A range that does not
        start at the cursor (this index missed a write) falls back to
        :meth:`update`, which folds the gap and this record.
        """
        if start != self._cursors["epochs"]:
            self.update()
            return
        self._fold_epoch_record(record, start, end)
        self._cursors["epochs"] = end
        self._last["epochs"] = (record, start, end)
        self._hooked_counter.add(1)

    # -- tailing -----------------------------------------------------------------

    def _rewritten(self, source: str) -> bool:
        """Did the journal's owner rewrite it since the last fold?"""
        path = self._sources[source]
        try:
            if os.path.getsize(path) < self._cursors[source]:
                return True
        except OSError:
            return True
        if source not in self._last:
            # Only skipped lines folded so far: nothing to read back.
            return False
        record, start, end = self._last[source]
        return read_record_at(path, start, end) != record

    def update(self) -> dict:
        """Fold what each journal gained since the last pass.

        Returns per-journal counts of newly folded records, plus
        ``reset``: the journals found rewritten and refolded from
        byte 0.
        """
        counts: dict = {"reset": []}
        for source, path in self._sources.items():
            if self._cursors[source] and self._rewritten(source):
                self._reset(source)
                counts["reset"].append(source)
                global_metrics().incr("console.index.resets")
            fold, count = self._folds[source], 0
            for line in iter_journal(
                    path, start=self._cursors[source], complete_only=True,
                    on_torn=functools.partial(self._torn_line, source)):
                fold(line.record, line.start, line.end)
                self._cursors[source] = line.end
                self._last[source] = (line.record, line.start, line.end)
                count += 1
            counts[source] = count
        if any(counts[source] for source in self._sources):
            global_metrics().incr("console.index.updates")
        return counts

    # -- queries -----------------------------------------------------------------

    def machine_names(self) -> List[str]:
        return sorted(set(self._machine_entries)
                      | set(self._baseline_entries))

    def machine_history(self, machine: str) -> List[dict]:
        """Every journaled verdict for one machine, journal order: its
        ``fleet-machine`` record plus the record's ``start``/``end``."""
        return [_verdict_entry(located) for located
                in self._machine_entries.get(machine, [])]

    def latest_verdicts(self) -> Dict[str, dict]:
        """machine → its most recent verdict entry."""
        return {machine: _verdict_entry(entries[-1])
                for machine, entries in self._machine_entries.items()}

    def machine_record(self, entry: dict) -> Optional[dict]:
        """The journal's own copy of one verdict entry, by seek."""
        return read_record_at(self._sources["epochs"],
                              entry.get("start", 0), entry.get("end", 0))

    def baseline_entry(self, machine: str) -> Optional[dict]:
        entry = self._baseline_entries.get(machine)
        return dict(entry) if entry is not None else None

    def baseline_record(self, machine: str) -> Optional[dict]:
        """The machine's stored baseline record, fetched by offset."""
        entry = self._baseline_entries.get(machine)
        if entry is None:
            return None
        return read_record_at(self._sources["baselines"],
                              entry.get("start", 0), entry.get("end", 0))

    def epoch_extents(self) -> List[dict]:
        return [dict(self._epoch_entries[epoch])
                for epoch in sorted(self._epoch_entries)]

    def epoch_summaries(self) -> List[dict]:
        return [dict(extent["summary"])
                for extent in self.epoch_extents()
                if extent.get("summary")]

    def last_summary(self) -> Optional[dict]:
        summaries = self.epoch_summaries()
        return summaries[-1] if summaries else None

    def _records(self, kind: str) -> List[dict]:
        return [dict(record) for record in self._events
                if record.get("type") == kind]

    def outbreaks(self) -> List[dict]:
        """The journaled outbreak alerts, arrival order."""
        return self._records("fleet-outbreak")

    def campaigns(self) -> List[dict]:
        """Cross-epoch campaign alerts (rotation-tolerant), arrival order."""
        return self._records("fleet-campaign")

    def agents(self) -> Dict[str, dict]:
        """agent → latest liveness."""
        return fold_agent_records(self._events)

    def query(self, verdict: Optional[str] = None,
              machine: Optional[str] = None,
              identity: Optional[str] = None,
              epoch_min: Optional[int] = None,
              epoch_max: Optional[int] = None,
              scanned: Optional[bool] = None,
              escalated: Optional[bool] = None,
              limit: Optional[int] = None) -> List[dict]:
        """Filter the verdict entries; every filter is optional (AND)."""
        machines: Iterable[str] = ([machine] if machine is not None
                                   else sorted(self._machine_entries))
        out: List[dict] = []
        for name in machines:
            for located in self._machine_entries.get(name, []):
                entry = located[0]
                if verdict is not None and entry.get("verdict") != verdict:
                    continue
                epoch = int(entry.get("epoch", 0))
                if epoch_min is not None and epoch < epoch_min:
                    continue
                if epoch_max is not None and epoch > epoch_max:
                    continue
                if identity is not None and identity not in entry.get(
                        "finding_ids", []):
                    continue
                if scanned is not None and bool(
                        entry.get("scanned")) is not scanned:
                    continue
                if escalated is not None and bool(
                        entry.get("escalated")) is not escalated:
                    continue
                out.append(_verdict_entry(located))
        out.sort(key=lambda entry: (int(entry.get("epoch", 0)),
                                    entry.get("machine", ""),
                                    entry.get("start", 0)))
        if limit is not None:
            out = out[-limit:] if limit >= 0 else out
        return out

    def status(self) -> dict:
        """The fleet status document: queue state, epochs, alerts."""
        queue = self._queue_state
        summaries = self.epoch_summaries()
        status: dict = {
            "fleet_dir": self.fleet_dir,
            "open_epoch": queue.epoch,
            "pending": queue.pending_count(),
            "leased": len(queue.leases),
            "acked": len(queue.acked),
            "epochs_completed": len(summaries),
            "last_summary": summaries[-1] if summaries else None,
            "outbreaks": self.outbreaks(),
            "campaigns": self.campaigns(),
            "agents": self.agents(),
        }
        if os.path.exists(self._sources["queue"]):
            status["pending_machines"] = queue.pending_machines()
            status["leased_machines"] = sorted(queue.leases)
        return status

    def stats(self) -> dict:
        return {
            "fleet_dir": self.fleet_dir,
            "machines": len(self._machine_entries),
            "verdict_entries": sum(len(entries) for entries
                                   in self._machine_entries.values()),
            "epochs": len(self._epoch_entries),
            "events": len(self._events),
            "baselines": len(self._baseline_entries),
            "cursors": dict(self._cursors),
            "torn_skipped": sum(self._torn.values()),
        }
