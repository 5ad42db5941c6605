"""Sidecar indexes over the fleet journals: the O(changes) read path.

The journals themselves stay exactly as the fleet subsystem writes them
— append-only JSONL, torn-tail tolerant, compacted by their owners.
The index never mutates a journal (except through the explicit
:meth:`JournalIndex.compact` retention policy); it maintains *sidecar*
files under ``<fleet_dir>/index/``:

``machines.idx.jsonl``
    One small entry per ``fleet-machine`` record: the verdict fields an
    operator filters on, plus the byte range of the full record in
    ``epochs.jsonl`` (fetch via
    :func:`repro.telemetry.journal_io.read_record_at`).  Loaded into a
    per-machine offset map, this answers "verdict history of box X"
    without replaying the epochs of every other box.

``epochs.idx.jsonl``
    Epoch extents: where each epoch starts and ends in the journal,
    with the ``epoch-end`` summary embedded — live progress and epoch
    timelines come from here.

``events.idx.jsonl``
    The alert log: outbreak records, in arrival order.

``baselines.idx.jsonl``
    machine → latest baseline record location in ``baselines.jsonl``
    (id, generation, timing); the stored
    :class:`~repro.core.diff.DetectionReport` — confidence, degraded
    layers, escalation provenance — is fetched by offset on demand.

``state.json``
    Cursors (how far into each journal the index has read), head
    digests (so a compacted/rewritten journal triggers a rebuild), and
    the incrementally-replayed work-queue state snapshot.

**Incremental maintenance.**  :meth:`JournalIndex.update` reads only
the bytes past each cursor (``complete_only`` — a torn live tail is
retried next pass, never half-indexed).  The fleet coordinator also
feeds its own journal writes straight into the index at write time
(:meth:`note_epoch_record`), so a console watching a live fleet is
exact without re-reading anything.  If a journal was rewritten under
the index (owner-side compaction) the head digest or a shrunken size
betrays it and that journal's slice of the index is rebuilt.

**Crash-safety.**  Sidecars are append-only JSONL read through the same
torn-tail-tolerant reader as everything else; a torn sidecar tail
merely re-indexes the affected records (entries dedupe by source byte
offset).  ``state.json`` is written atomically.  :meth:`rebuild`
regenerates everything from the journals alone — the index is a cache,
never the system of record.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
from typing import Dict, Iterable, List, Optional

from repro.telemetry.journal_io import (head_digest, iter_journal,
                                        read_record_at, replace_journal)
from repro.telemetry.metrics import global_metrics

logger = logging.getLogger(__name__)

INDEX_DIR = "index"
INDEX_VERSION = 1

EPOCHS_SOURCE = "epochs.jsonl"
QUEUE_SOURCE = "queue.jsonl"
BASELINES_SOURCE = "baselines.jsonl"

# Epoch-end state saves (and the batched sidecar flush they imply)
# fire once this many journal bytes have been hooked since the last
# save.  The tradeoff: a cold console replays at most this much
# journal tail (a few ms of iter_journal), while the coordinator's
# steady epochs only pay the json-encode + write of the pending
# sidecar lines once per ~dozen epochs instead of every epoch.
_STATE_SAVE_BYTES = 262144

# fleet-machine record fields copied into the machine index entries;
# everything else stays in the journal, reachable through the offsets.
_MACHINE_FIELDS = ("machine", "epoch", "verdict", "findings", "noise",
                   "scanned", "skipped", "escalated", "confirmed",
                   "confirmed_by", "error", "mass_hiding",
                   "scan_seconds", "baseline_id", "finding_ids", "at",
                   "sampled", "coverage", "sampling_escalated")


class _QueueState:
    """A pure, side-effect-free replica of ``WorkQueue`` replay state.

    The queue WAL's semantics are append-driven; this mirrors
    :meth:`repro.fleet.queue.WorkQueue._apply` without locks, clocks,
    or write paths, so the console can track queue depth incrementally
    and serialize the snapshot into ``state.json``.
    """

    def __init__(self) -> None:
        self.epoch: Optional[int] = None
        self.shards: Dict[str, int] = {}
        self.pending: Dict[int, List[str]] = {}
        self.leases: Dict[str, dict] = {}
        self.acked: Dict[str, dict] = {}

    def apply(self, record: dict) -> None:
        op = record.get("op")
        if op == "epoch-open":
            self.epoch = int(record["epoch"])
            self.shards = {name: int(shard) for name, shard
                           in record.get("shards", {}).items()}
            self.pending = {}
            for name in record.get("machines", []):
                shard = self.shards.get(name, 0)
                self.pending.setdefault(shard, []).append(name)
            self.leases = {}
            self.acked = {}
        elif op == "lease":
            machine = record["machine"]
            self._drop_pending(machine)
            self.leases[machine] = {
                "worker": int(record.get("worker", 0)),
                "token": int(record.get("token", 0)),
                "expires_at": float(record.get("expires_at", 0.0)),
            }
        elif op == "renew":
            machine = record["machine"]
            lease = self.leases.get(machine)
            if lease is not None and lease["token"] == int(
                    record.get("token", -1)):
                lease["expires_at"] = float(record.get("expires_at", 0.0))
        elif op in ("expire", "requeue"):
            machine = record["machine"]
            self.leases.pop(machine, None)
            if machine not in self.acked:
                shard = self.shards.get(machine, 0)
                queue = self.pending.setdefault(shard, [])
                if machine not in queue:
                    queue.append(machine)
        elif op == "ack":
            machine = record["machine"]
            self.leases.pop(machine, None)
            self._drop_pending(machine)
            self.acked[machine] = {key: value
                                   for key, value in record.items()
                                   if key not in ("op", "machine")}
        elif op == "epoch-close":
            self.__init__()
        # Unknown ops are ignored, same stance as the queue itself.

    def _drop_pending(self, machine: str) -> None:
        shard = self.shards.get(machine, 0)
        queue = self.pending.get(shard, [])
        if machine in queue:
            queue.remove(machine)

    def pending_machines(self) -> List[str]:
        return sorted(machine for queue in self.pending.values()
                      for machine in queue)

    def to_dict(self) -> dict:
        return {"epoch": self.epoch, "shards": self.shards,
                "pending": {str(shard): list(queue) for shard, queue
                            in self.pending.items() if queue},
                "leases": self.leases, "acked": self.acked}

    @classmethod
    def from_dict(cls, payload: dict) -> "_QueueState":
        state = cls()
        state.epoch = payload.get("epoch")
        if state.epoch is not None:
            state.epoch = int(state.epoch)
        state.shards = {name: int(shard) for name, shard
                        in payload.get("shards", {}).items()}
        state.pending = {int(shard): list(queue) for shard, queue
                         in payload.get("pending", {}).items()}
        state.leases = {name: dict(lease) for name, lease
                        in payload.get("leases", {}).items()}
        state.acked = {name: dict(payload_) for name, payload_
                       in payload.get("acked", {}).items()}
        return state


class JournalIndex:
    """Incremental sidecar index over one fleet directory's journals."""

    def __init__(self, fleet_dir: str):
        self.fleet_dir = fleet_dir
        self.index_dir = os.path.join(fleet_dir, INDEX_DIR)
        self.machines_path = os.path.join(self.index_dir,
                                          "machines.idx.jsonl")
        self.epochs_path = os.path.join(self.index_dir, "epochs.idx.jsonl")
        self.events_path = os.path.join(self.index_dir, "events.idx.jsonl")
        self.baselines_path = os.path.join(self.index_dir,
                                           "baselines.idx.jsonl")
        self.state_path = os.path.join(self.index_dir, "state.json")

        self.source_epochs = os.path.join(fleet_dir, EPOCHS_SOURCE)
        self.source_queue = os.path.join(fleet_dir, QUEUE_SOURCE)
        self.source_baselines = os.path.join(fleet_dir, BASELINES_SOURCE)

        # In-memory maps, rebuilt from the sidecars (never the journals)
        # at construction: O(index), not O(history).
        self._machine_entries: Dict[str, List[dict]] = {}
        self._machine_offsets: Dict[str, set] = {}   # dedup by source start
        self._epoch_entries: Dict[int, dict] = {}
        self._extent_offsets: set = set()   # (epoch, event, start) seen
        self._events: List[dict] = []
        self._event_offsets: set = set()
        self._baseline_entries: Dict[str, dict] = {}
        self._queue_state = _QueueState()
        self._cursors = {"epochs": 0, "queue": 0, "baselines": 0}
        self._heads = {"epochs": "", "queue": "", "baselines": ""}
        self._torn_skipped = 0
        # Sidecar appends are deferred: the write-time hook fires once
        # per journal record on the coordinator's epoch path, so it
        # only folds the entry in memory and queues it here; the
        # json.dumps + file write happen batched in _flush_sidecars
        # (before every state.json save, so the recorded cursors never
        # claim records the sidecars don't hold).  Pending entries are
        # bounded by the _STATE_SAVE_BYTES window.
        self._pending_lines: Dict[str, List[dict]] = {}
        self._handles: Dict[str, object] = {}
        # Journal bytes hooked since the last state save; epoch-end
        # saves are throttled on this so steady-state durability work
        # is proportional to journal growth, not epoch count.
        self._unsaved_bytes = 0
        self._hooked_counter = global_metrics().counter_handle(
            "console.index.hooked_records")
        self._load()

    # -- construction ------------------------------------------------------------

    def _load(self) -> None:
        state = {}
        if os.path.exists(self.state_path):
            try:
                with open(self.state_path, "r", encoding="utf-8") as handle:
                    state = json.load(handle)
            except (ValueError, OSError) as exc:
                logger.warning("unreadable console index state %s: %s "
                               "(rebuilding)", self.state_path, exc)
                state = {}
        if state.get("version") != INDEX_VERSION:
            state = {}
        self._cursors.update({key: int(value) for key, value
                              in state.get("cursors", {}).items()
                              if key in self._cursors})
        self._heads.update({key: value for key, value
                            in state.get("heads", {}).items()
                            if key in self._heads})
        self._torn_skipped = int(state.get("torn_skipped", 0))
        if state.get("queue_state"):
            self._queue_state = _QueueState.from_dict(state["queue_state"])

        for line in iter_journal(self.machines_path, on_torn=self._torn):
            self._fold_machine_entry(line.record)
        for line in iter_journal(self.epochs_path, on_torn=self._torn):
            self._fold_epoch_entry(line.record)
        for line in iter_journal(self.events_path, on_torn=self._torn):
            self._fold_event_entry(line.record)
        for line in iter_journal(self.baselines_path, on_torn=self._torn):
            self._fold_baseline_entry(line.record)
        # Cursors come from state.json ONLY: it is the one snapshot
        # written after every sidecar flush, so it never claims bytes a
        # sidecar lacks.  Individual sidecars may run *ahead* of it
        # (hook appends since the last save, flushed independently);
        # the next update() re-reads that journal slice and the
        # idempotent folds skip everything already present.

    def _append_sidecar(self, path: str, entry: dict) -> None:
        self._pending_lines.setdefault(path, []).append(entry)

    def _flush_sidecars(self) -> None:
        for path, entries in self._pending_lines.items():
            if not entries:
                continue
            handle = self._handles.get(path)
            if handle is None or handle.closed:
                os.makedirs(self.index_dir, exist_ok=True)
                handle = open(path, "ab")
                self._handles[path] = handle
            dumps = json.dumps
            handle.write(b"".join(
                (dumps(entry, separators=(",", ":")) + "\n").encode("utf-8")
                for entry in entries))
            handle.flush()
            entries.clear()

    def _close_sidecars(self) -> None:
        for handle in self._handles.values():
            if not handle.closed:
                handle.close()
        self._handles.clear()
        self._pending_lines.clear()

    def close(self) -> None:
        """Persist state and release the sidecar append handles."""
        if self._unsaved_bytes:
            self._save_state()      # flushes the sidecars first
        else:
            self._flush_sidecars()
        self._close_sidecars()

    def _torn(self, line_no: int, reason: str) -> None:
        self._torn_skipped += 1
        logger.warning("console index: skipped torn line %d: %s",
                       line_no, reason)

    # -- folding sidecar entries into the in-memory maps -------------------------

    def _fold_machine_entry(self, entry: dict) -> bool:
        """Fold one machine entry; True if it was new (not a replay)."""
        machine = entry.get("machine")
        if machine is None or "start" not in entry:
            return False
        seen = self._machine_offsets.setdefault(machine, set())
        if entry["start"] in seen:
            return False
        seen.add(entry["start"])
        self._machine_entries.setdefault(machine, []).append(entry)
        return True

    def _fold_epoch_entry(self, entry: dict) -> bool:
        epoch = entry.get("epoch")
        if epoch is None:
            return False
        key = (int(epoch), entry.get("event"), entry.get("start", 0))
        if key in self._extent_offsets:
            return False
        self._extent_offsets.add(key)
        extent = self._epoch_entries.setdefault(
            int(epoch), {"epoch": int(epoch)})
        if entry.get("event") == "start":
            extent["start_at"] = entry.get("at")
            extent["start_offset"] = entry.get("start", 0)
            extent["machines"] = entry.get("record", {}).get("machines")
        elif entry.get("event") == "end":
            extent["end_at"] = entry.get("at")
            extent["end_offset"] = entry.get("end", 0)
            extent["summary"] = entry.get("record", {})
        return True

    def _fold_event_entry(self, entry: dict) -> bool:
        if "start" not in entry or entry["start"] in self._event_offsets:
            return False
        self._event_offsets.add(entry["start"])
        self._events.append(entry)
        return True

    def _fold_baseline_entry(self, entry: dict) -> bool:
        machine = entry.get("machine")
        if machine is None:
            return False
        current = self._baseline_entries.get(machine)
        # Latest record per machine wins, same rule as BaselineStore; a
        # record at or before the current offset is a replay, not news.
        if current is not None and entry.get("start", 0) <= current.get(
                "start", 0):
            return False
        self._baseline_entries[machine] = entry
        return True

    # -- write-time hook ---------------------------------------------------------

    def note_epoch_record(self, record: dict, start: int, end: int) -> None:
        """Index one freshly-appended ``epochs.jsonl`` record in place.

        Called by the fleet coordinator immediately after its journal
        append, with the byte range the append landed at.  If the range
        does not butt up against the cursor (another writer got in
        between, or this index is stale) the hook falls back to an
        incremental :meth:`update`, which covers the gap *and* this
        record.
        """
        if start != self._cursors["epochs"]:
            self.update()
            return
        self._ingest_epoch_record(record, start, end)
        self._cursors["epochs"] = end
        self._unsaved_bytes += end - start
        self._hooked_counter.add(1)
        if (record.get("type") == "epoch-end"
                and self._unsaved_bytes >= _STATE_SAVE_BYTES):
            # An epoch boundary is the natural durability point: flush
            # the sidecar buffers and persist the cursors.  Throttled
            # by bytes hooked since the last save — skipping a save is
            # always safe (a stale cursor just re-reads a journal slice
            # the idempotent folds then discard), so a cold console
            # replays at most ~_STATE_SAVE_BYTES of journal tail.
            self._save_state()

    # -- ingestion ---------------------------------------------------------------

    def _ingest_epoch_record(self, record: dict, start: int,
                             end: int) -> None:
        kind = record.get("type")
        if kind == "fleet-machine":
            entry = {key: record[key] for key in _MACHINE_FIELDS
                     if key in record}
            entry["start"] = start
            entry["end"] = end
            if self._fold_machine_entry(entry):
                self._append_sidecar(self.machines_path, entry)
        elif kind in ("epoch-start", "epoch-end"):
            entry = {"event": "start" if kind == "epoch-start" else "end",
                     "epoch": int(record.get("epoch", 0)),
                     "at": record.get("at"),
                     "start": start, "end": end, "record": record}
            if self._fold_epoch_entry(entry):
                self._append_sidecar(self.epochs_path, entry)
        elif kind == "fleet-outbreak":
            entry = {"kind": "outbreak",
                     "epoch": int(record.get("epoch", 0)),
                     "identity": record.get("identity"),
                     "machines": list(record.get("machines", [])),
                     "threshold": record.get("threshold"),
                     "at": record.get("at"),
                     "start": start, "end": end}
            if self._fold_event_entry(entry):
                self._append_sidecar(self.events_path, entry)
        elif kind == "fleet-campaign":
            entry = {"kind": "campaign",
                     "fingerprint": record.get("fingerprint"),
                     "first_epoch": int(record.get("first_epoch", 0)),
                     "epoch": int(record.get("epoch", 0)),
                     "machines": list(record.get("machines", [])),
                     "identities": list(record.get("identities", [])),
                     "threshold": record.get("threshold"),
                     "at": record.get("at"),
                     "start": start, "end": end}
            if self._fold_event_entry(entry):
                self._append_sidecar(self.events_path, entry)
        elif kind == "fleet-agent":
            # Agent liveness transitions (hello/reconnect/dead/bye from
            # the scan controller) ride the events sidecar; status()
            # folds them latest-per-agent, exactly like fleet_status.
            entry = {"kind": "agent",
                     "agent": record.get("agent"),
                     "event": record.get("event"),
                     "state": record.get("state"),
                     "worker": record.get("worker", 0),
                     "reconnects": record.get("reconnects", 0),
                     "leases_held": record.get("leases_held", 0),
                     "acks": record.get("acks", 0),
                     "at": record.get("at"),
                     "start": start, "end": end}
            if self._fold_event_entry(entry):
                self._append_sidecar(self.events_path, entry)
        # Unknown record types cost nothing but the cursor advance.
        # Fold-before-append keeps re-reads idempotent: a record whose
        # sidecar entry already exists (cursor behind a flushed sidecar)
        # is folded as a no-op and never appended twice.

    def _ingest_baseline_record(self, record: dict, start: int,
                                end: int) -> None:
        if "machine" not in record or "baseline_id" not in record:
            return
        entry = {"machine": record["machine"],
                 "baseline_id": record["baseline_id"],
                 "disk_generation": record.get("disk_generation"),
                 "scan_seconds": record.get("scan_seconds", 0.0),
                 "start": start, "end": end}
        if self._fold_baseline_entry(entry):
            self._append_sidecar(self.baselines_path, entry)

    # -- incremental update / rebuild --------------------------------------------

    @staticmethod
    def _capture_head(source_path: str) -> str:
        """``"<prefix_len>:<digest>"`` of the journal's current head.

        The prefix length is pinned at capture time (at most 4096
        bytes, never past EOF) so later *appends* — which only add
        bytes past the captured prefix — can never perturb the digest;
        only a rewrite of existing bytes can.
        """
        if not os.path.exists(source_path):
            return ""
        prefix = min(4096, os.path.getsize(source_path))
        return "%d:%s" % (prefix, head_digest(source_path, prefix))

    @staticmethod
    def _head_matches(source_path: str, recorded: str) -> bool:
        prefix_text, _, digest = recorded.partition(":")
        try:
            prefix = int(prefix_text)
        except ValueError:
            return False
        return head_digest(source_path, prefix) == digest

    def _source_stale(self, source_path: str, key: str) -> bool:
        """Did someone rewrite this journal under us (compaction)?"""
        size = (os.path.getsize(source_path)
                if os.path.exists(source_path) else 0)
        if size < self._cursors[key]:
            return True
        return bool(self._heads[key]) and not self._head_matches(
            source_path, self._heads[key])

    def update(self) -> dict:
        """Fold journal bytes past the cursors into the index.

        O(changes): only the unread tails are touched.  A journal whose
        head changed (owner-side compaction rewrote it) triggers a full
        rebuild instead.  Returns per-journal counts of newly indexed
        records plus ``rebuilt``.
        """
        if any(self._source_stale(path, key) for path, key in
               ((self.source_epochs, "epochs"),
                (self.source_queue, "queue"),
                (self.source_baselines, "baselines"))):
            stats = self.rebuild()
            stats["rebuilt"] = True
            return stats
        counts = {"epochs": 0, "queue": 0, "baselines": 0,
                  "rebuilt": False}
        for line in iter_journal(self.source_epochs,
                                 start=self._cursors["epochs"],
                                 complete_only=True, on_torn=self._torn):
            self._ingest_epoch_record(line.record, line.start, line.end)
            self._cursors["epochs"] = line.end
            counts["epochs"] += 1
        for line in iter_journal(self.source_queue,
                                 start=self._cursors["queue"],
                                 complete_only=True, on_torn=self._torn):
            try:
                self._queue_state.apply(line.record)
            except (KeyError, TypeError, ValueError) as exc:
                self._torn(line.line_no, str(exc))
            self._cursors["queue"] = line.end
            counts["queue"] += 1
        for line in iter_journal(self.source_baselines,
                                 start=self._cursors["baselines"],
                                 complete_only=True, on_torn=self._torn):
            self._ingest_baseline_record(line.record, line.start,
                                         line.end)
            self._cursors["baselines"] = line.end
            counts["baselines"] += 1
        if any(counts[key] for key in ("epochs", "queue", "baselines")):
            self._save_state()
            global_metrics().incr("console.index.updates")
        return counts

    def rebuild(self) -> dict:
        """Regenerate every sidecar from the journals alone."""
        self._close_sidecars()
        for path in (self.machines_path, self.epochs_path,
                     self.events_path, self.baselines_path):
            if os.path.exists(path):
                os.remove(path)
        self._machine_entries.clear()
        self._machine_offsets.clear()
        self._epoch_entries.clear()
        self._extent_offsets.clear()
        self._events.clear()
        self._event_offsets.clear()
        self._baseline_entries.clear()
        self._queue_state = _QueueState()
        self._cursors = {"epochs": 0, "queue": 0, "baselines": 0}
        self._heads = {key: self._capture_head(path) for key, path in
                       (("epochs", self.source_epochs),
                        ("queue", self.source_queue),
                        ("baselines", self.source_baselines))}
        self._torn_skipped = 0
        counts = self.update()
        self._save_state()
        global_metrics().incr("console.index.rebuilds")
        return counts

    def _save_state(self) -> None:
        os.makedirs(self.index_dir, exist_ok=True)
        self._flush_sidecars()
        # Heads are (re)captured lazily: empty means "journal did not
        # exist when last rebuilt" — fill in once it appears so later
        # rewrites are detectable.
        for key, path in (("epochs", self.source_epochs),
                          ("queue", self.source_queue),
                          ("baselines", self.source_baselines)):
            if not self._heads[key]:
                self._heads[key] = self._capture_head(path)
        payload = {"version": INDEX_VERSION,
                   "cursors": dict(self._cursors),
                   "heads": dict(self._heads),
                   "torn_skipped": self._torn_skipped,
                   "queue_state": self._queue_state.to_dict()}
        # Atomic replace but deliberately no fsync: state.json is a
        # cache checkpoint, and losing it to a power cut costs a
        # rebuild, not correctness.  fsync here would charge every
        # fleet epoch for durability the index does not need.
        fd, tmp_path = tempfile.mkstemp(dir=self.index_dir,
                                        prefix="state.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True)
            os.replace(tmp_path, self.state_path)
        finally:
            if os.path.exists(tmp_path):
                os.remove(tmp_path)
        self._unsaved_bytes = 0

    # -- queries -----------------------------------------------------------------

    def machine_names(self) -> List[str]:
        return sorted(set(self._machine_entries)
                      | set(self._baseline_entries))

    def machine_history(self, machine: str) -> List[dict]:
        """Every indexed verdict for one machine, journal order."""
        return [dict(entry) for entry
                in self._machine_entries.get(machine, [])]

    def latest_verdicts(self) -> Dict[str, dict]:
        """machine → its most recent verdict entry."""
        return {machine: dict(entries[-1]) for machine, entries
                in self._machine_entries.items() if entries}

    def machine_record(self, entry: dict) -> Optional[dict]:
        """The full journal record behind one index entry."""
        return read_record_at(self.source_epochs,
                              entry.get("start", 0), entry.get("end", 0))

    def baseline_entry(self, machine: str) -> Optional[dict]:
        entry = self._baseline_entries.get(machine)
        return dict(entry) if entry is not None else None

    def baseline_record(self, machine: str) -> Optional[dict]:
        """The machine's stored baseline record, fetched by offset."""
        entry = self._baseline_entries.get(machine)
        if entry is None:
            return None
        return read_record_at(self.source_baselines,
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

    def outbreaks(self) -> List[dict]:
        return [dict(event) for event in self._events
                if event.get("kind") == "outbreak"]

    def campaigns(self) -> List[dict]:
        """Cross-epoch campaign alerts (rotation-tolerant), arrival order."""
        return [dict(event) for event in self._events
                if event.get("kind") == "campaign"]

    def agents(self) -> Dict[str, dict]:
        """agent → latest liveness, same fold as ``fleet_status``."""
        from repro.fleet.controller import fold_agent_records
        return fold_agent_records(
            dict(event, type="fleet-agent")
            for event in self._events if event.get("kind") == "agent")

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
            for entry in self._machine_entries.get(name, []):
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
                out.append(dict(entry))
        out.sort(key=lambda entry: (int(entry.get("epoch", 0)),
                                    entry.get("machine", ""),
                                    entry.get("start", 0)))
        if limit is not None:
            out = out[-limit:] if limit >= 0 else out
        return out

    def status(self) -> dict:
        """The ``fleet_status`` document, answered from the index."""
        queue = self._queue_state
        summaries = self.epoch_summaries()
        status: dict = {
            "fleet_dir": self.fleet_dir,
            "open_epoch": queue.epoch,
            "pending": sum(len(q) for q in queue.pending.values()),
            "leased": len(queue.leases),
            "acked": len(queue.acked),
            "epochs_completed": len(summaries),
            "last_summary": summaries[-1] if summaries else None,
            "outbreaks": [self.machine_outbreak_record(event)
                          for event in self._events
                          if event.get("kind") == "outbreak"],
            "campaigns": [self.campaign_record(event)
                          for event in self._events
                          if event.get("kind") == "campaign"],
            "agents": self.agents(),
        }
        if os.path.exists(self.source_queue):
            status["pending_machines"] = queue.pending_machines()
            status["leased_machines"] = sorted(queue.leases)
        return status

    @staticmethod
    def machine_outbreak_record(event: dict) -> dict:
        """Reshape an outbreak index entry as its journal record."""
        return {"type": "fleet-outbreak", "epoch": event.get("epoch"),
                "identity": event.get("identity"),
                "machines": list(event.get("machines", [])),
                "threshold": event.get("threshold"),
                "at": event.get("at")}

    @staticmethod
    def campaign_record(event: dict) -> dict:
        """Reshape a campaign index entry as its journal record."""
        return {"type": "fleet-campaign",
                "fingerprint": event.get("fingerprint"),
                "first_epoch": event.get("first_epoch"),
                "epoch": event.get("epoch"),
                "machines": list(event.get("machines", [])),
                "identities": list(event.get("identities", [])),
                "threshold": event.get("threshold"),
                "at": event.get("at")}

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
            "torn_skipped": self._torn_skipped,
        }

    # -- retention ---------------------------------------------------------------

    def compact(self, retain_epochs: int) -> dict:
        """Retention: drop journal epochs older than the newest N.

        The only path by which the console writes a journal.  Rewrites
        ``epochs.jsonl`` crash-safely (:func:`replace_journal`),
        keeping every record belonging to the newest ``retain_epochs``
        epochs (records carrying no epoch are kept), then rebuilds the
        index against the rewritten journal.  Queries over the retained
        epoch range return exactly what they returned before.  At
        fleet-years of history this is what bounds the journal: the
        baseline store keeps the durable per-machine verdicts, so
        dropping old epochs loses timeline depth, never current state.
        """
        retain = max(1, int(retain_epochs))
        self.update()
        epochs = sorted(self._epoch_entries)
        known = {int(entry.get("epoch", 0))
                 for entries in self._machine_entries.values()
                 for entry in entries} | set(epochs)
        if not known:
            return {"records_before": 0, "records_after": 0,
                    "cutoff_epoch": None}
        cutoff = max(known) - retain + 1
        before = 0

        def retained():
            nonlocal before
            for line in iter_journal(self.source_epochs,
                                     on_torn=self._torn):
                before += 1
                epoch = line.record.get("epoch")
                if epoch is None or int(epoch) >= cutoff:
                    yield json.dumps(line.record, sort_keys=True)

        after = replace_journal(self.source_epochs, retained())
        self.rebuild()
        metrics = global_metrics()
        metrics.incr("console.index.compactions")
        metrics.incr("console.index.compacted_records",
                     max(0, before - after))
        return {"records_before": before, "records_after": after,
                "cutoff_epoch": cutoff}


def fleet_status_from_index(fleet_dir: str,
                            index: Optional[JournalIndex] = None) -> dict:
    """Indexed replacement for :func:`repro.fleet.fleet_status`.

    Opens (or reuses) the directory's :class:`JournalIndex`, folds in
    any journal bytes written since the last update, and answers from
    the index maps — O(changes), not O(history).
    """
    index = index if index is not None else JournalIndex(fleet_dir)
    index.update()
    return index.status()
