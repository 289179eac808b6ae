"""A bounded flight recorder: the last N solver events, always on, O(1) memory.

Span traces and ``--stats-json`` explain a solve *after* it returns; a hung
or crashed solve used to leave nothing.  :class:`FlightRecorder` attaches
to an :class:`~repro.obs.observer.Observer`, which hands it every typed
event and every closed span, keeping only the most recent
:attr:`~FlightRecorder.capacity` entries in a ring buffer — recording
costs one dict append per event, and memory never grows past the ring, no
matter how long the solve runs.

On demand — an exception or an explicit ``--flight-record`` request —
:meth:`dump_jsonl` writes a post-mortem as JSONL, one JSON object per
line:

1. a ``flight-header`` line (schema version, reason, pid, totals);
2. the retained ring entries in order (``event`` / ``span`` kinds, each
   stamped with seconds since the recorder started);
3. a ``counters`` line snapshotting the bound
   :class:`~repro.core.stats.SolveStatistics` (counters + stage summaries);
4. an ``active-spans`` line listing every span still open at dump time —
   the live "stack trace" of where the solve was stuck.

See ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from typing import Any, Dict, IO, List, Union

from .events import SolveEvent
from .trace import write_text

__all__ = ["FlightRecorder"]


class FlightRecorder:
    """Ring-buffered event/span recorder with JSONL post-mortem dumps."""

    #: Bump when the dump line shapes change (checked by tests and any
    #: downstream dump reader).
    SCHEMA_VERSION = 1

    #: Default ring size.  512 entries cover the tail of any realistic
    #: stall (the control loop emits a handful of entries per iteration)
    #: while keeping a dump small.
    DEFAULT_CAPACITY = 512

    #: The dump header's ``recorder`` value.
    NAME = "absolver"

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: deque = deque(maxlen=capacity)
        #: Total entries ever recorded (``recorded - len(ring)`` were evicted).
        self.recorded = 0
        self._epoch = time.monotonic()
        self._observer = None
        self._stats = None

    # -- wiring ---------------------------------------------------------
    def attach(self, observer) -> "FlightRecorder":
        """Record ``observer``'s events and closed spans from now on.

        Dumps list the spans still open on the observer's tracer.  The
        counters are read from the statistics bound by :meth:`bind_stats`.
        """
        self._observer = observer
        observer.subscribe(self)
        observer.recorder = self
        return self

    def detach(self) -> None:
        """Undo :meth:`attach` (keeps the recorded ring)."""
        observer = self._observer
        if observer is not None:
            observer.unsubscribe(self)
            if observer.recorder is self:
                observer.recorder = None
            self._observer = None

    def bind_stats(self, stats) -> None:
        """Set (or replace) the statistics snapshotted into dumps."""
        self._stats = stats

    # -- recording (the hot path) ---------------------------------------
    def _append(self, entry: Dict[str, Any]) -> None:
        self.recorded += 1
        self._entries.append(entry)

    def __call__(self, event: SolveEvent) -> None:
        """Event sink: record one typed solve event."""
        # Payload first so the reserved keys below always win, whatever
        # field names an event declares.
        entry = dict(event.payload())
        entry["t"] = time.monotonic() - self._epoch
        entry["kind"] = "event"
        entry["event"] = type(event).__name__
        self._append(entry)

    def record_span(self, span) -> None:
        """Record one closed span (the observer calls this on every close)."""
        entry = {
            "t": time.monotonic() - self._epoch,
            "kind": "span",
            "name": span.name,
            "dur_us": span.duration_us,
            "depth": span.depth,
        }
        if span.error:
            entry["error"] = True
        if span.args:
            entry["args"] = dict(span.args)
        self._append(entry)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def dropped(self) -> int:
        """Entries evicted from the ring so far."""
        return self.recorded - len(self._entries)

    # -- dumping --------------------------------------------------------
    def snapshot_lines(self, reason: str = "requested") -> List[Dict[str, Any]]:
        """The dump as a list of JSON-ready dicts (one per JSONL line);
        :meth:`dump_jsonl` serializes it."""
        lines: List[Dict[str, Any]] = [
            {
                "kind": "flight-header",
                "schema": self.SCHEMA_VERSION,
                "recorder": self.NAME,
                "reason": reason,
                "pid": os.getpid(),
                "recorded_unix": time.time(),
                "events_recorded": self.recorded,
                "events_dropped": self.dropped,
                "capacity": self.capacity,
            }
        ]
        lines.extend(dict(entry) for entry in self._entries)
        if self._stats is not None:
            lines.append(dict(self._stats.snapshot(), kind="counters"))
        tracer = self._observer.tracer if self._observer is not None else None
        if tracer is not None:
            lines.append({"kind": "active-spans", "spans": tracer.open_spans()})
        return lines

    def dump_jsonl(
        self, target: Union[str, IO[str]], reason: str = "requested"
    ) -> None:
        """Write the post-mortem dump as JSONL: one sorted-key JSON object
        per line."""
        write_text(
            target,
            "".join(
                json.dumps(line, sort_keys=True, default=str) + "\n"
                for line in self.snapshot_lines(reason)
            ),
        )

    def __repr__(self) -> str:
        return (
            f"FlightRecorder({len(self._entries)}/{self.capacity} "
            f"entries, {self.dropped} dropped)"
        )
