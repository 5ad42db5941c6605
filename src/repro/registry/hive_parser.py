"""Raw hive parsing — GhostBuster's low-level registry view.

Given nothing but hive-file bytes (obtained by reading the backing file
straight off the MFT), rebuild the full key/value tree.  The parser reports
*counted* names and raw data bytes, so entries hidden from the Win32 view by
embedded NULs, over-long names, or API interception all appear here.
"""

from __future__ import annotations

import hashlib
import struct
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import List

from repro.errors import HiveFormatError, RetryExhausted, TransientIoError
from repro.faults import context as faults_context
from repro.faults.plan import SITE_HIVE_PARSE
from repro.registry import cells
from repro.registry.cells import _guarded
from repro.telemetry import context as telemetry_context
from repro.telemetry.metrics import global_metrics

_MAX_DEPTH = 512
_PARSE_ATTEMPTS = 3

# Precompiled cell structs for the absolute-offset walk: the parser
# unpacks fields straight out of the whole hive blob (bytes or one
# memoryview) instead of materializing a payload slice per cell.
_CELL = struct.Struct("<i")
_NK = struct.Struct("<HQIIIIIH")
_VK = struct.Struct("<IIBBH")
_CNT = struct.Struct("<H")
_U32 = struct.Struct("<I")
_NK_FIXED = 2 + _NK.size
_VK_FIXED = 2 + _VK.size

# parse_hive memo: blob digest → ParsedHive.  Hive files are re-read and
# re-parsed constantly (once per scan per hive, across every machine of a
# fleet), and identical bytes parse to an identical tree, so a small
# content-addressed LRU removes the dominant cost.  Guarded by a lock:
# scans on different threads share this table.  Consumers treat the
# parsed tree as read-only.
_HIVE_CACHE_MAX = 64
_hive_cache: "OrderedDict[bytes, ParsedHive]" = OrderedDict()
_hive_cache_lock = threading.Lock()

# Bin memo: digest of one top-level subtree's byte span → its ParsedKey.
# The serializer pins each root-child subtree to its own aligned bin
# (see Hive.serialize), so editing one bin leaves the others
# byte-identical and their parsed subtrees reusable.  Content-addressed
# like the whole-blob memo — and equally safe to share across cloned
# fleet machines — because the span bytes include every absolute offset
# the subtree's cells embed: a shifted or edited subtree can never
# collide with a stale digest.  Subtrees are shared between parses, so
# consumers must keep treating parsed trees as read-only.
_BIN_CACHE_MAX = 2048
_bin_cache: "OrderedDict[bytes, ParsedKey]" = OrderedDict()
_bin_cache_lock = threading.Lock()


def clear_hive_cache() -> None:
    """Drop every memoized hive parse (benchmarks measure cold paths)."""
    with _hive_cache_lock:
        _hive_cache.clear()
    with _bin_cache_lock:
        _bin_cache.clear()


@dataclass(slots=True)
class ParsedValue:
    """A value as the raw parse sees it: counted name + raw bytes."""

    name: str
    reg_type: int
    raw_data: bytes


@dataclass(slots=True)
class ParsedKey:
    """A key as the raw parse sees it."""

    name: str
    timestamp_us: int
    subkeys: List["ParsedKey"] = field(default_factory=list)
    values: List[ParsedValue] = field(default_factory=list)

    def subkey(self, name: str) -> "ParsedKey":
        wanted = name.casefold()
        for child in self.subkeys:
            if child.name.casefold() == wanted:
                return child
        raise HiveFormatError(f"parsed hive has no subkey {name!r}")

    def walk(self, prefix: str = ""):
        """Yield (path, ParsedKey) for this key and every descendant."""
        path = f"{prefix}\\{self.name}" if self.name else prefix
        yield path, self
        for child in self.subkeys:
            yield from child.walk(path)


@dataclass
class ParsedHive:
    hive_name: str
    root: ParsedKey


class HiveParser:
    """Parses one hive blob."""

    def __init__(self, blob: bytes):
        self._blob = blob
        self.root_offset, self.total_length, self.hive_name = \
            cells.unpack_header(blob)
        if self.total_length > len(blob):
            raise HiveFormatError(
                f"hive header claims {self.total_length} bytes but the file "
                f"has {len(blob)}")
        # Touched-byte bounds of the most recent (sub)parse, used by
        # parse_subtree to prove a subtree stayed inside its bin span.
        self._low = len(blob)
        self._high = 0

    @_guarded
    def parse(self) -> ParsedHive:
        root = self._parse_key(self.root_offset, depth=0)
        return ParsedHive(self.hive_name, root)

    @_guarded
    def parse_subtree(self, offset: int, span_start: int,
                      span_end: int) -> ParsedKey:
        """Parse one subtree and verify it never read outside its span.

        The bin cache is only sound if the digested byte span really
        contains everything the subtree's parse depends on; a cell that
        points outside its bin (legal for the format, never produced by
        our serializer) must abort to the cold whole-blob parse.
        """
        self._low, self._high = len(self._blob), 0
        key = self._parse_key(offset, depth=1)
        if self._low < span_start or self._high > span_end:
            raise HiveFormatError(
                f"subtree at {offset} escapes its bin "
                f"[{span_start}, {span_end})")
        return key

    def _cell_bounds(self, offset: int):
        """Bounds-check one cell; return its payload's absolute span.

        Same checks and messages as :func:`repro.registry.cells.read_cell`
        but no payload slice is materialized — the walkers unpack fields
        at absolute offsets into the whole blob.
        """
        blob = self._blob
        if offset < cells.HEADER_SIZE or offset + 4 > len(blob):
            raise HiveFormatError(f"cell offset {offset} out of range")
        size = _CELL.unpack_from(blob, offset)[0]
        if size >= 0:
            raise HiveFormatError(f"cell at {offset} is not allocated")
        end = offset - size
        if end > len(blob):
            raise HiveFormatError(f"cell at {offset} overruns the hive")
        if offset < self._low:
            self._low = offset
        if end > self._high:
            self._high = end
        return offset + 4, end

    def _offset_list(self, offset: int, magic: bytes):
        blob = self._blob
        start, __ = self._cell_bounds(offset)
        if blob[start:start + 2] != magic:
            raise HiveFormatError(f"expected {magic!r} cell")
        count = _CNT.unpack_from(blob, start + 2)[0]
        return struct.unpack_from(f"<{count}I", blob, start + 4)

    def _parse_key(self, offset: int, depth: int) -> ParsedKey:
        if depth > _MAX_DEPTH:
            raise HiveFormatError("key tree deeper than the format allows")
        blob = self._blob
        start, end = self._cell_bounds(offset)
        if blob[start:start + 2] != cells.NK_MAGIC:
            raise HiveFormatError("expected nk cell")
        (__, timestamp_us, __, subkey_count, subkey_list, value_count,
         value_list, name_chars) = _NK.unpack_from(blob, start + 2)
        name_start = start + _NK_FIXED
        name_end = name_start + name_chars * 2
        if name_end > end:
            raise HiveFormatError("nk name truncated")
        key = ParsedKey(
            name=bytes(blob[name_start:name_end]).decode("utf-16-le"),
            timestamp_us=timestamp_us)

        if value_count:
            value_offsets = self._offset_list(value_list, cells.VL_MAGIC)
            if len(value_offsets) != value_count:
                raise HiveFormatError("value list count mismatch")
            values = key.values
            for value_offset in value_offsets:
                values.append(self._parse_value(value_offset))

        if subkey_count:
            subkey_offsets = self._offset_list(subkey_list, cells.LF_MAGIC)
            if len(subkey_offsets) != subkey_count:
                raise HiveFormatError("subkey list count mismatch")
            subkeys = key.subkeys
            for subkey_offset in subkey_offsets:
                subkeys.append(self._parse_key(subkey_offset, depth + 1))
        return key

    @_guarded
    def _parse_value(self, offset: int) -> ParsedValue:
        blob = self._blob
        start, end = self._cell_bounds(offset)
        if blob[start:start + 2] != cells.VK_MAGIC:
            raise HiveFormatError("expected vk cell")
        reg_type, data_length, inline, __, name_chars = _VK.unpack_from(
            blob, start + 2)
        name_start = start + _VK_FIXED
        name_end = name_start + name_chars * 2
        if name_end > end:
            raise HiveFormatError("vk name truncated")
        name = bytes(blob[name_start:name_end]).decode("utf-16-le")
        if inline:
            if name_end + data_length > end:
                raise HiveFormatError("vk inline data truncated")
            raw = bytes(blob[name_end:name_end + data_length])
        else:
            data_cell = _U32.unpack_from(blob, name_end)[0]
            data_start, data_end = self._cell_bounds(data_cell)
            if blob[data_start:data_start + 2] != cells.DB_MAGIC:
                raise HiveFormatError("expected db cell")
            length = _U32.unpack_from(blob, data_start + 2)[0]
            if data_start + 6 + length > data_end:
                raise HiveFormatError("db data truncated")
            if length != data_length:
                raise HiveFormatError("vk data length mismatch")
            raw = bytes(blob[data_start + 6:data_start + 6 + length])
        return ParsedValue(name=name, reg_type=reg_type, raw_data=raw)


def _bin_spans(blob: bytes, nk_offsets: List[int]):
    """Byte span of each top-level subtree bin, or None if unrecognizable.

    Our serializer writes the root's children in subkey-list order, each
    subtree contiguous and ending at its own nk cell, each starting on a
    :data:`~repro.registry.cells.BIN_ALIGNMENT` boundary.  Spans that do
    not advance monotonically mean the blob came from some other writer
    — the caller cold-parses instead.
    """
    spans = []
    cursor = cells.HEADER_SIZE
    for offset in nk_offsets:
        start = -(-cursor // cells.BIN_ALIGNMENT) * cells.BIN_ALIGNMENT
        if offset < start:
            return None
        payload = cells.read_cell(blob, offset)
        end = offset + 4 + len(payload)
        spans.append((start, end))
        cursor = end
    return spans


def _parse_blob_incremental(blob: bytes) -> ParsedHive:
    """Parse, reusing cached subtrees for byte-identical bins.

    Any structural surprise — foreign writer layout, a subtree escaping
    its bin, a malformed cell — falls back to the plain cold parse so
    error behaviour (and the resulting tree) is identical to an
    uncached :class:`HiveParser` run.
    """
    try:
        parser = HiveParser(blob)
        root_nk = cells.unpack_nk(cells.read_cell(blob, parser.root_offset))
        if not root_nk["subkey_count"]:
            return parser.parse()
        offsets = cells.unpack_offset_list(
            cells.read_cell(blob, root_nk["subkey_list"]), cells.LF_MAGIC)
        if len(offsets) != root_nk["subkey_count"]:
            raise HiveFormatError("subkey list count mismatch")
        spans = _bin_spans(blob, offsets)
        if spans is None:
            return parser.parse()
        root = ParsedKey(name=root_nk["name"],
                         timestamp_us=root_nk["timestamp_us"])
        for (start, end), offset in zip(spans, offsets):
            bin_digest = hashlib.sha256(blob[start:end]).digest()
            with _bin_cache_lock:
                subtree = _bin_cache.get(bin_digest)
                if subtree is not None:
                    _bin_cache.move_to_end(bin_digest)
            if subtree is not None:
                global_metrics().incr("hive.delta.bins_reused")
            else:
                global_metrics().incr("hive.delta.bins_reparsed")
                subtree = parser.parse_subtree(offset, start, end)
                with _bin_cache_lock:
                    _bin_cache[bin_digest] = subtree
                    while len(_bin_cache) > _BIN_CACHE_MAX:
                        _bin_cache.popitem(last=False)
            root.subkeys.append(subtree)
        if root_nk["value_count"]:
            value_offsets = cells.unpack_offset_list(
                cells.read_cell(blob, root_nk["value_list"]), cells.VL_MAGIC)
            if len(value_offsets) != root_nk["value_count"]:
                raise HiveFormatError("value list count mismatch")
            for value_offset in value_offsets:
                root.values.append(parser._parse_value(value_offset))
        return ParsedHive(parser.hive_name, root)
    except HiveFormatError:
        global_metrics().incr("hive.delta.fallback")
        return HiveParser(blob).parse()


def parse_hive(blob: bytes) -> ParsedHive:
    """Parse hive bytes into a tree, memoized on the blob's digest.

    A whole-blob digest hit returns the prior tree outright; a miss
    re-parses only the top-level bins whose bytes actually changed (see
    :func:`_parse_blob_incremental`).  Malformed blobs are never cached
    (the parser raises before any entry is stored), so error behaviour
    is identical to an uncached parse.
    """
    digest = hashlib.sha256(blob).digest()
    with _hive_cache_lock:
        cached = _hive_cache.get(digest)
        if cached is not None:
            _hive_cache.move_to_end(digest)
            global_metrics().incr("hive.parse.memo_hit")
            return cached
    global_metrics().incr("hive.parse.memo_miss")
    # Self-healing: the ``hive.parse`` site may inject a transient fault
    # (CI chaos profile); the retry re-parses the same bytes.  The miss
    # above was counted once, so retries leave the memo counters exact.
    last = None
    for attempt in range(1, _PARSE_ATTEMPTS + 1):
        try:
            faults_context.maybe_inject(SITE_HIVE_PARSE)
            with telemetry_context.current_tracer().span(
                    "hive.parse", bytes=len(blob)):
                parsed = _parse_blob_incremental(blob)
            break
        except TransientIoError as exc:
            last = exc
            global_metrics().incr("faults.retries")
    else:
        raise RetryExhausted("hive.parse", _PARSE_ATTEMPTS, last)
    with _hive_cache_lock:
        _hive_cache[digest] = parsed
        while len(_hive_cache) > _HIVE_CACHE_MAX:
            _hive_cache.popitem(last=False)
    return parsed
