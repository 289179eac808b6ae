"""A low-overhead nested span tracer with Chrome ``trace_event`` export.

The solver stack opens a span around every unit of work worth seeing on a
flamegraph: each stage activation of :mod:`repro.core.pipeline`,
each session ``check``/``push``/``pop``, and each call into a linear or
nonlinear backend.  Spans nest (a ``session.check`` span contains
``boolean`` spans, which sit next to ``translate``/``linear``/``nonlinear``
/``refine`` spans), carry a small ``args`` payload (backend name, branch
size, ...), and survive exceptions — the span is closed and flagged, the
stack unwinds correctly.

Two exports:

* :meth:`SpanTracer.export_jsonl` — one JSON object per completed span, in
  completion order; trivially greppable / pandas-loadable.
* :meth:`SpanTracer.export_chrome` — the Chrome ``trace_event`` JSON object
  format (``{"traceEvents": [...]}``, ``ph: "X"`` complete events with
  microsecond ``ts``/``dur``).  Open the file in ``chrome://tracing`` or
  https://ui.perfetto.dev and the solve renders as a flamegraph.

The tracer is a sink of :class:`repro.obs.observer.Observer`: the
observer opens and closes its spans (``observer.span(...)`` and every
stage entry), so an observer without a tracer records nothing and reads
no clock.  ``tests/test_obs.py`` guards the traced overhead with a
dedicated benchmark test.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Dict, IO, Iterator, List, Optional, Tuple, Union

__all__ = ["Span", "SpanTracer", "write_chrome_trace", "write_text"]


def write_text(target: Union[str, IO[str]], text: str) -> None:
    """Write ``text`` to an open text handle, or to a new file at a path."""
    if hasattr(target, "write"):
        target.write(text)  # type: ignore[union-attr]
    else:
        with open(target, "w", encoding="utf-8") as handle:  # type: ignore[arg-type]
            handle.write(text)


def write_chrome_trace(
    target: Union[str, IO[str]], events: List[Dict[str, Any]], producer: str
) -> None:
    """Write ``events`` in the Chrome ``trace_event`` JSON object format."""
    payload = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"producer": producer},
    }
    write_text(target, json.dumps(payload))


class Span:
    """One completed (or still-open) span: a named, timed, nested interval.

    Timestamps are microseconds relative to the owning tracer's epoch, the
    unit the Chrome ``trace_event`` format uses natively.
    """

    __slots__ = ("name", "category", "start_us", "duration_us", "depth", "tid", "args", "error")

    def __init__(
        self,
        name: str,
        category: str,
        start_us: float,
        depth: int,
        tid: int,
        args: Optional[Dict[str, Any]],
    ):
        self.name = name
        self.category = category
        self.start_us = start_us
        self.duration_us = 0.0
        self.depth = depth
        self.tid = tid
        self.args = args
        self.error = False

    @property
    def end_us(self) -> float:
        return self.start_us + self.duration_us

    def as_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "name": self.name,
            "cat": self.category,
            "ts": self.start_us,
            "dur": self.duration_us,
            "depth": self.depth,
            "tid": self.tid,
        }
        if self.args:
            payload["args"] = self.args
        if self.error:
            payload["error"] = True
        return payload

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, depth={self.depth}, "
            f"ts={self.start_us:.1f}us, dur={self.duration_us:.1f}us)"
        )


class SpanTracer:
    """Records nested spans; exports JSONL and Chrome ``trace_event`` JSON.

    Thread-compatible: spans carry the recording thread's id (mapped to a
    small ``tid``), and per-thread stacks keep nesting depths correct when
    a future backend solves on a worker thread.  All bookkeeping is plain
    ``list.append`` — tracing a solve costs two clock reads and one small
    allocation per span.  Spans are opened and closed by an
    :class:`~repro.obs.observer.Observer` (``with observer.span(...)``).
    """

    def __init__(self, process_name: str = "absolver"):
        self.process_name = process_name
        self.spans: List[Span] = []
        self.instants: List[Span] = []
        self._epoch = time.perf_counter()
        self._stacks: Dict[int, List[Span]] = {}
        self._tids: Dict[int, int] = {}

    # -- recording ------------------------------------------------------
    def _now_us(self) -> float:
        return (time.perf_counter() - self._epoch) * 1e6

    def _tid(self, ident: int) -> int:
        tid = self._tids.get(ident)
        if tid is None:
            tid = len(self._tids)
            self._tids[ident] = tid
        return tid

    def open(
        self, name: str, category: str = "solver", args: Optional[Dict[str, Any]] = None
    ) -> Span:
        """Start a nested span on the calling thread; end it with :meth:`close`."""
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            stack = self._stacks[ident] = []
        span = Span(
            name, category, self._now_us(), len(stack), self._tid(ident), args or None
        )
        stack.append(span)
        return span

    def close(self, span: Span, errored: bool = False) -> None:
        """End ``span`` (and any span left open inside it) and keep it."""
        span.duration_us = self._now_us() - span.start_us
        span.error = errored
        stack = self._stacks[threading.get_ident()]
        # Exception-safe unwinding: drop everything above the closing span
        # (a span abandoned by a non-local exit must not corrupt depths).
        while stack and stack[-1] is not span:
            stack.pop()
        if stack:
            stack.pop()
        self.spans.append(span)

    def instant(self, name: str, category: str = "event", **args: Any) -> None:
        """Record a zero-duration marker (rendered as an arrow in Perfetto)."""
        ident = threading.get_ident()
        depth = len(self._stacks.get(ident, ()))
        self.instants.append(
            Span(name, category, self._now_us(), depth, self._tid(ident), args or None)
        )

    @property
    def open_depth(self) -> int:
        """Nesting depth of the calling thread (0 = no open span)."""
        return len(self._stacks.get(threading.get_ident(), ()))

    def open_spans(self) -> List[Dict[str, Any]]:
        """Every still-open span across threads, outermost first per thread.

        This is the flight recorder's "where was the solve stuck" stack:
        each entry carries the span's name, category, depth, tid, and its
        age in microseconds at snapshot time.
        """
        now = self._now_us()
        snapshot: List[Dict[str, Any]] = []
        for stack in self._stacks.values():
            for span in stack:
                entry: Dict[str, Any] = {
                    "name": span.name,
                    "cat": span.category,
                    "depth": span.depth,
                    "tid": span.tid,
                    "age_us": now - span.start_us,
                }
                if span.args:
                    entry["args"] = dict(span.args)
                snapshot.append(entry)
        return snapshot

    def clear(self) -> None:
        self.spans.clear()
        self.instants.clear()
        self._stacks.clear()

    # -- export ---------------------------------------------------------
    def to_chrome_events(self) -> List[Dict[str, Any]]:
        """The ``traceEvents`` list: complete ("X") + instant ("i") events.

        Events are sorted by timestamp, so ``ts`` is monotonic in the file
        (the viewer does not require it, but diffing two traces does).
        """
        pid = os.getpid()
        events: List[Tuple[float, Dict[str, Any]]] = []
        for span in self.spans:
            events.append(
                (
                    span.start_us,
                    {
                        "name": span.name,
                        "cat": span.category,
                        "ph": "X",
                        "ts": span.start_us,
                        "dur": span.duration_us,
                        "pid": pid,
                        "tid": span.tid,
                        "args": dict(span.args or {}, **({"error": True} if span.error else {})),
                    },
                )
            )
        for mark in self.instants:
            events.append(
                (
                    mark.start_us,
                    {
                        "name": mark.name,
                        "cat": mark.category,
                        "ph": "i",
                        "s": "t",
                        "ts": mark.start_us,
                        "pid": pid,
                        "tid": mark.tid,
                        "args": dict(mark.args or {}),
                    },
                )
            )
        ordered = [event for _, event in sorted(events, key=lambda pair: pair[0])]
        metadata: Dict[str, Any] = {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "ts": 0,
            "args": {"name": self.process_name},
        }
        return [metadata] + ordered

    def export_chrome(self, target: Union[str, IO[str]]) -> None:
        """Write the Chrome ``trace_event`` JSON object format."""
        write_chrome_trace(target, self.to_chrome_events(), f"repro.obs {self.process_name}")

    def iter_jsonl(self) -> Iterator[str]:
        for span in self.spans:
            yield json.dumps(span.as_dict(), sort_keys=True)
        for mark in self.instants:
            yield json.dumps(dict(mark.as_dict(), ph="i"), sort_keys=True)

    def export_jsonl(self, target: Union[str, IO[str]]) -> None:
        """Write one JSON object per span, in completion order."""
        write_text(target, "".join(line + "\n" for line in self.iter_jsonl()))
