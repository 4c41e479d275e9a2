"""Structured event tracing with a bounded, columnar ring buffer.

Every event carries a **simulated-time** timestamp (nanoseconds of
simulated DRAM time, epoch-relative to the run's start), a ``kind``
from the taxonomy in DESIGN.md (``migration``, ``eviction``,
``quarantine_rotation``, ``tracker_install``, ``tracker_evict``,
``refresh_window``, ``throttle``, ...), and free-form attributes.

The tracer is bounded two ways:

* a **ring buffer** (``capacity`` events) so a runaway trace cannot
  exhaust memory -- the oldest events are overwritten and counted in
  ``dropped``;
* an optional **sampling rate**: ``sample_rate=0.1`` keeps a
  deterministic 1-in-10 of offered events (error-diffusion accumulator,
  not RNG, so traces are reproducible run-to-run).

Recorded events live in an :class:`EventLog`: one block of typed
columns per event *schema* (kind, attribute names, value types), plus
one schema-id column that fixes the global order.  A
:class:`TraceEvent` object is built only when the log is iterated, so
recording, pickling to the sweep's parent and holding a run's trace
cost a few bytes per event instead of one object and one dict.

Export formats: JSON Lines (one event object per line) and the Chrome
trace-event format loadable in ``chrome://tracing`` / Perfetto.  Both
writers stream: events are converted one at a time as they are written.
"""

from __future__ import annotations

import json
import zlib
from array import array
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np


@dataclass
class TraceEvent:
    """One structured simulation event."""

    ts_ns: float
    kind: str
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_json_dict(self, extra: Optional[Dict[str, Any]] = None) -> dict:
        record = {"ts_ns": self.ts_ns, "kind": self.kind}
        record.update(self.attrs)
        if extra:
            record.update(extra)
        return record


DEFAULT_CAPACITY = 1 << 18
"""Default ring size (262144 events, comfortably one traced workload)."""

#: Typed column per exact value type; any other type (str, None, ...)
#: is held as-is in a list.  Bools are stored as 0/1 bytes and turned
#: back into ``bool`` on read.
_TYPECODES = {float: "d", int: "q", bool: "b"}

#: Narrowest integer typecodes, tried in order when a log is pickled.
_SIGNED = ("b", "h", "i", "q")
_UNSIGNED = ("B", "H", "I", "q")


def _narrowed(column):
    """``column`` in the smallest integer typecode that holds its values.

    Only integer columns narrow (bool and float columns are left as
    they are); Python ints come back from any typecode unchanged.
    """
    if not isinstance(column, array) or column.typecode in "bd":
        return column
    if not column:
        return column
    values = np.frombuffer(column, dtype=column.typecode)
    low, high = int(values.min()), int(values.max())
    for code in _SIGNED if low < 0 else _UNSIGNED:
        limits = np.iinfo(np.dtype(code))
        if limits.min <= low and high <= limits.max:
            break
    if np.dtype(code).itemsize >= column.itemsize:
        return column
    return array(code, values.astype(code).tobytes())


def _widened(column):
    """A copy of ``column`` that accepts any value of its type.

    Narrow integer arrays widen to int64; int64 arrays (a value at or
    above 2**63) fall back to a list of Python ints.
    """
    if column.typecode != "q":
        return array("q", column)
    return list(column)


#: Rows a block holds as value tuples before moving them into its
#: columns in one ``extend`` per column.
_PENDING_ROWS = 1024


class _Block:
    """The columns of one schema: timestamp first, then attributes."""

    __slots__ = ("sid", "kind", "names", "types", "columns", "pending",
                 "start")

    def __init__(self, sid: int, kind: str, names: Tuple[str, ...], types,
                 columns):
        self.sid = sid
        self.kind = kind
        self.names = names
        self.types = types
        self.columns = columns
        #: Rows recorded since the last :meth:`flush`, as value tuples.
        self.pending: List[tuple] = []
        #: Rows before ``start`` were dropped by the ring.
        self.start = 0

    @property
    def rows(self) -> int:
        return len(self.columns[0]) + len(self.pending)

    def flush(self) -> None:
        """Move the pending rows into the columns."""
        if not self.pending:
            return
        for index, values in enumerate(zip(*self.pending)):
            column = self.columns[index]
            while True:
                try:
                    if isinstance(column, array):
                        # Built whole first, so an overflow leaves the
                        # column as it was.
                        values = array(column.typecode, values)
                    column.extend(values)
                    break
                except OverflowError:
                    column = self.columns[index] = _widened(column)
        self.pending.clear()

    def events(self) -> Iterator[TraceEvent]:
        """Build this block's live events in row order."""
        self.flush()
        kind, names = self.kind, self.names
        columns = [
            map(bool, islice(column, self.start, None))
            if kind_type is bool
            else islice(column, self.start, None)
            for column, kind_type in zip(self.columns, self.types)
        ]
        for ts_ns, *values in zip(*columns):
            yield TraceEvent(ts_ns, kind, dict(zip(names, values)))

    def compact(self) -> None:
        self.flush()
        for column in self.columns:
            del column[:self.start]
        self.start = 0

    def live_columns(self) -> list:
        """Copies of the live rows, integer columns narrowed."""
        self.flush()
        return [_narrowed(column[self.start:]) for column in self.columns]


class EventLog:
    """Recorded events as typed columns, one block per schema.

    A schema is the event kind, its attribute names in order, and the
    exact type of the timestamp and of every attribute value; so a
    value comes back with the type it was recorded with (``True``
    stays a bool, ``None`` stays ``None``).  The k-th event of a schema
    is row k of its block, and one schema-id column keeps the global
    order.  A block takes new rows as value tuples and moves them into
    its columns ``_PENDING_ROWS`` at a time, or before it is read.
    With a ``capacity``, the log keeps the newest ``capacity``
    events: dropping the oldest moves an offset, and a block (or the
    order column) compacts once its dead prefix is as long as its live
    part, so each append is O(1) on average.

    The log reads as a sequence of :class:`TraceEvent` (``len()``,
    lazy iteration, :meth:`kind_counts`).  Pickling ships only the live
    rows, each integer column narrowed to the smallest type that holds
    it.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._schemas: Dict[tuple, _Block] = {}
        self._blocks: List[_Block] = []
        self._order = array("B")
        self._start = 0

    def append(self, kind: str, ts_ns: float, attrs: Dict[str, Any]) -> None:
        """Record one event (the tracer's hot path)."""
        values = (ts_ns, *attrs.values())
        key = (kind, *attrs, *map(type, values))
        block = self._schemas.get(key)
        if block is None:
            block = self._add_schema(key, kind, tuple(attrs), values)
        pending = block.pending
        pending.append(values)
        if len(pending) >= _PENDING_ROWS:
            block.flush()
        try:
            self._order.append(block.sid)
        except OverflowError:
            self._order = _widened(self._order)
            self._order.append(block.sid)
        if (
            self.capacity is not None
            and len(self._order) - self._start > self.capacity
        ):
            self._drop_oldest()

    def _add_schema(self, key, kind, names, values) -> _Block:
        types = tuple(map(type, values))
        columns = [
            array(_TYPECODES[t]) if t in _TYPECODES else [] for t in types
        ]
        block = _Block(len(self._blocks), kind, names, types, columns)
        self._schemas[key] = block
        self._blocks.append(block)
        return block

    def _drop_oldest(self) -> None:
        block = self._blocks[self._order[self._start]]
        self._start += 1
        block.start += 1
        if 2 * block.start >= block.rows:
            block.compact()
        if 2 * self._start >= len(self._order):
            del self._order[:self._start]
            self._start = 0

    # ------------------------------------------------------------ reading

    def __len__(self) -> int:
        return len(self._order) - self._start

    def __iter__(self) -> Iterator[TraceEvent]:
        blocks = [block.events() for block in self._blocks]
        for sid in islice(self._order, self._start, None):
            yield next(blocks[sid])

    def __repr__(self) -> str:
        return (
            f"EventLog({len(self)} events, {len(self._blocks)} schemas)"
        )

    def kind_counts(self) -> Dict[str, int]:
        """Events per kind, in order of each kind's first live event."""
        live: Dict[str, int] = {}
        for block in self._blocks:
            rows = block.rows - block.start
            if rows:
                live[block.kind] = live.get(block.kind, 0) + rows
        if len(live) < 2:
            return live
        counts: Dict[str, int] = {}
        for sid in islice(self._order, self._start, None):
            kind = self._blocks[sid].kind
            if kind not in counts:
                counts[kind] = live[kind]
                if len(counts) == len(live):
                    break
        return counts

    # ----------------------------------------------------------- shipping

    def __getstate__(self) -> dict:
        return {
            "capacity": self.capacity,
            "schemas": [
                (block.kind, block.names, block.types)
                for block in self._blocks
            ],
            "order": _narrowed(self._order[self._start:]),
            "columns": [block.live_columns() for block in self._blocks],
        }

    def __setstate__(self, state: dict) -> None:
        self.capacity = state["capacity"]
        self._order = state["order"]
        self._start = 0
        self._schemas = {}
        self._blocks = []
        for (kind, names, types), columns in zip(
            state["schemas"], state["columns"]
        ):
            block = _Block(len(self._blocks), kind, names, types, columns)
            self._schemas[(kind, *names, *types)] = block
            self._blocks.append(block)


class EventTracer:
    """Bounded, optionally sampled recorder of :class:`TraceEvent`."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        sample_rate: float = 1.0,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if not 0.0 < sample_rate <= 1.0:
            raise ValueError("sample_rate must be in (0, 1]")
        self.capacity = capacity
        self.sample_rate = sample_rate
        self.log = EventLog(capacity)
        self.offered = 0
        self.sampled_out = 0
        self._acc = 0.0

    @property
    def recorded(self) -> int:
        """Events accepted past sampling (may exceed the ring size)."""
        return self.offered - self.sampled_out

    @property
    def dropped(self) -> int:
        """Recorded events lost to ring-buffer wraparound."""
        return self.recorded - len(self.log)

    def emit(self, kind: str, ts_ns: float, **attrs) -> bool:
        """Offer one event; returns whether it was recorded."""
        self.offered += 1
        if self.sample_rate < 1.0:
            self._acc += self.sample_rate
            if self._acc < 1.0:
                self.sampled_out += 1
                return False
            self._acc -= 1.0
        self.log.append(kind, ts_ns, attrs)
        return True

    def events(self) -> List[TraceEvent]:
        return list(self.log)

    def clear(self) -> None:
        # A fresh log: one already handed out stays as it was.
        self.log = EventLog(self.capacity)
        self.offered = 0
        self.sampled_out = 0
        self._acc = 0.0

    def kind_counts(self) -> Dict[str, int]:
        return self.log.kind_counts()

    def export_jsonl(self, path: str, extra: Optional[dict] = None) -> int:
        return write_jsonl(path, tag_events([(self.log, extra)]))

    def export_chrome_trace(
        self, path: str, extra: Optional[dict] = None
    ) -> int:
        return write_chrome_trace(path, tag_events([(self.log, extra)]))


TaggedEvent = Tuple[TraceEvent, Optional[Dict[str, Any]]]


def tag_events(
    sources: Iterable[Tuple[Iterable[TraceEvent], Optional[Dict[str, Any]]]]
) -> Iterator[TaggedEvent]:
    """Chain ``(events, extra)`` sources lazily into tagged events."""
    for events, extra in sources:
        for event in events:
            yield event, extra


def write_jsonl(path: str, tagged_events: Iterable[TaggedEvent]) -> int:
    """Write events (with optional per-event extra fields) as JSONL."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for event, extra in tagged_events:
            fh.write(json.dumps(event.to_json_dict(extra)))
            fh.write("\n")
            count += 1
    return count


def write_chrome_trace(
    path: str, tagged_events: Iterable[TaggedEvent]
) -> int:
    """Write events in the Chrome trace-event ("catapult") format.

    Events become instant events (``ph: "i"``); timestamps convert from
    simulated nanoseconds to the format's microseconds.  The per-event
    extra tag (e.g. the workload name) becomes the track (``tid``) so
    multi-workload traces separate into lanes.  The document is
    streamed one event at a time, in the bytes ``json.dump`` would
    write for ``{"traceEvents": [...], "displayTimeUnit": "ns"}``.
    """
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"traceEvents": [')
        for event, extra in tagged_events:
            args = dict(event.attrs)
            tid = 0
            if extra:
                args.update(extra)
                # crc32 for a run-to-run-stable track id (hash() is
                # salted).
                tag = ",".join(f"{k}={v}" for k, v in sorted(extra.items()))
                tid = zlib.crc32(tag.encode("utf-8")) % 1_000_000
            if count:
                fh.write(", ")
            fh.write(json.dumps({
                "name": event.kind,
                "ph": "i",
                "s": "t",
                "ts": event.ts_ns / 1_000.0,
                "pid": 0,
                "tid": tid,
                "args": args,
            }))
            count += 1
        fh.write('], "displayTimeUnit": "ns"}')
    return count


def _read_records(path: str, strict: bool) -> Tuple[List[dict], int]:
    """Parse a trace file in either export format.

    A Chrome trace-event document (``{"traceEvents": [...]}``) is
    normalised back to the JSONL shape (``ts_ns``/``kind`` + attrs).
    Otherwise each non-blank line is one JSON object; a line that does
    not parse to an object raises ``ValueError`` when ``strict`` and is
    counted in the returned ``skipped`` otherwise.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        document = json.loads(text)
    except ValueError:
        document = None  # more than one line: JSONL
    records: List[dict] = []
    if isinstance(document, dict) and "traceEvents" in document:
        for entry in document["traceEvents"]:
            record = {
                "ts_ns": float(entry.get("ts", 0.0)) * 1_000.0,
                "kind": entry.get("name", "unknown"),
            }
            record.update(entry.get("args", {}))
            records.append(record)
        return records, 0
    skipped = 0
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError:
            if strict:
                raise
            skipped += 1
            continue
        if not isinstance(record, dict):
            if strict:
                raise ValueError(
                    f"{path}:{number}: trace line is not a JSON object"
                )
            skipped += 1
            continue
        records.append(record)
    return records, skipped


def load_trace(path: str) -> List[dict]:
    """Read a trace back as a list of flat event dicts.

    Accepts both export formats: JSONL (one object per line) and the
    Chrome trace-event JSON (``{"traceEvents": [...]}``), which is
    normalised back to the JSONL shape (``ts_ns``/``kind`` + attrs).
    Raises ``ValueError`` on a JSONL line that is not a JSON object.
    """
    return _read_records(path, strict=True)[0]


def load_trace_lenient(path: str) -> Tuple[List[dict], int]:
    """Like :func:`load_trace`, but tolerate corrupt JSONL lines.

    Returns ``(records, skipped)`` where ``skipped`` counts lines that
    failed to parse (truncated trailing writes from a killed run, disk
    corruption, editor damage).  Valid Chrome-trace documents never
    skip; a Chrome-trace file that fails to parse as a whole falls back
    to line-by-line JSONL recovery, salvaging whatever parses.
    """
    return _read_records(path, strict=False)
