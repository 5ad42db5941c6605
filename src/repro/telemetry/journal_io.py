"""The one torn-tail-tolerant JSONL journal reader.

Every durable store in the system — the epochs journal, the work-queue
WAL, the baseline store, the telemetry exports — shares the same
append-only JSONL discipline: one JSON object per line, appended whole,
where a writer killed mid-write loses at most the final line.  Before
this module each reader re-implemented the same defensive loop
(:func:`~repro.telemetry.health.load_jsonl`,
``BaselineStore._load``, ``WorkQueue._replay``, ``load_history``, …);
now they all call :func:`iter_journal`.

Two properties matter beyond "skip bad lines":

* **byte offsets** — each yielded :class:`JournalLine` carries the byte
  range ``[start, end)`` of its source line, which is what the console's
  sidecar indexes (:mod:`repro.console.index`) persist so point lookups
  can ``seek`` straight to a record without replaying the file;
* **completeness** — a final chunk with no trailing newline is the torn
  tail of a live (or killed) writer.  ``complete_only=True`` refuses to
  yield it *or* advance past it, so an incremental indexer resumes at
  exactly that offset and picks the record up once the newline lands.

A newline-*terminated* line that fails to parse (a dead writer's
partial line, which :func:`append_journal` terminates before its next
append) is skipped with a warning and counted, exactly like every
reader always did.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class JournalLine:
    """One parsed journal record plus its provenance in the file."""

    record: dict
    line_no: int                    # 1-based physical line number
    start: int                      # byte offset of the line's first byte
    end: int                        # byte offset just past the newline


def iter_journal(path, start: int = 0, *,
                 complete_only: bool = False,
                 on_torn: Optional[Callable[[int, str], None]] = None
                 ) -> Iterator[JournalLine]:
    """Yield :class:`JournalLine` for every intact record in ``path``.

    ``start`` is the byte offset to resume from (0 = whole file) —
    callers that remember the last ``end`` they consumed get O(changes)
    incremental reads.  ``complete_only`` withholds a final line that
    has no trailing newline (a possibly-in-flight append).  ``on_torn``
    is called with ``(line_no, reason)`` for every skipped line; the
    default logs a warning.  A missing file yields nothing.
    """
    if not os.path.exists(path):
        return
    with open(path, "rb") as handle:
        if start:
            handle.seek(start)
        offset = start
        # Line numbers count from ``start`` — an incremental pass never
        # re-reads the prefix just to report absolute numbers.  Full
        # reads (start=0) see true physical line numbers.
        line_no = 0
        for raw in handle:
            line_no += 1
            end = offset + len(raw)
            terminated = raw.endswith(b"\n")
            if not terminated and complete_only:
                # The torn tail of a live writer: neither yield it nor
                # advance — the next incremental pass retries from here.
                return
            stripped = raw.strip()
            if stripped:
                try:
                    record = json.loads(stripped.decode("utf-8"))
                    if not isinstance(record, dict):
                        raise ValueError("journal records are objects, "
                                         f"got {type(record).__name__}")
                except (ValueError, UnicodeDecodeError) as exc:
                    _note_torn(path, line_no, str(exc), on_torn)
                else:
                    yield JournalLine(record=record, line_no=line_no,
                                      start=offset, end=end)
            offset = end


def _note_torn(path, line_no: int, reason: str,
               on_torn: Optional[Callable[[int, str], None]]) -> None:
    if on_torn is not None:
        on_torn(line_no, reason)
    else:
        logger.warning("skipping torn journal line %d in %s: %s",
                       line_no, path, reason)


def read_journal(path, *, on_torn=None) -> List[dict]:
    """Every intact record in ``path``, in file order."""
    return [line.record for line in iter_journal(path, on_torn=on_torn)]


def read_grouped(path, *, key: str = "type", on_torn=None
                 ) -> Dict[str, List[dict]]:
    """Intact records grouped by ``record[key]`` (telemetry exports)."""
    grouped: Dict[str, List[dict]] = {}
    for line in iter_journal(path, on_torn=on_torn):
        grouped.setdefault(line.record.get(key, "unknown"),
                           []).append(line.record)
    return grouped


def read_record_at(path, start: int, end: int) -> Optional[dict]:
    """Fetch one record by the byte range an index stored for it.

    Returns ``None`` when the bytes no longer hold an intact record
    (the file was compacted since the index was built — the caller
    should rebuild its index).
    """
    try:
        with open(path, "rb") as handle:
            handle.seek(start)
            raw = handle.read(max(0, end - start))
    except OSError:
        return None
    stripped = raw.strip()
    if not stripped:
        return None
    try:
        record = json.loads(stripped.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    return record if isinstance(record, dict) else None


def append_journal(path, record: dict, fsync: bool = False) -> tuple:
    """Append one record; returns its ``(start, end)`` byte range.

    The one append path every writer in the system uses (the epochs
    journal, the work-queue WAL, the baseline store): one
    ``json.dumps(sort_keys=True)`` line per record, parent directory
    created on demand, ``fsync`` forcing the line to stable storage.
    Returning the byte range lets write-time index hooks
    (:class:`repro.console.index.JournalIndex`) note the record's
    location without re-reading the file.

    A file whose last byte is not a newline ends in the torn tail of a
    writer killed mid-line; the tail is terminated first, so it stays
    one skipped line instead of fusing with this record into one.
    """
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    payload = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
    fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
    try:
        start = os.lseek(fd, 0, os.SEEK_END)
        data = payload
        if start and os.pread(fd, 1, start - 1) != b"\n":
            data = b"\n" + payload
            start += 1
        written = 0
        while written < len(data):
            written += os.write(fd, data[written:])
        if fsync:
            os.fsync(fd)
    finally:
        os.close(fd)
    return start, start + len(payload)


def head_digest(path, length: int = 4096) -> str:
    """A cheap identity for "is this still the same journal?".

    Compaction rewrites a journal in place (temp + ``os.replace``);
    an index that remembered byte offsets into the old file must
    notice.  The first ``length`` bytes change on any rewrite that
    drops or reorders records, and appends never touch them.
    """
    if not os.path.exists(path):
        return ""
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read(length)).hexdigest()
