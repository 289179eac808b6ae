"""The observer: the one instrumentation surface of a solve.

``ABSolverConfig(observer=...)`` is the only observability setting.  Every
instrumentation point of the solver goes through one :class:`Observer`,
and every diagnostic is a sink attached to it:

* **stage entries** — ``with pipeline.stage("linear", backend=...)`` times
  the stage into the query's :class:`~repro.core.stats.SolveStatistics`
  histogram; only when a :class:`~repro.obs.trace.SpanTracer` or a
  :class:`~repro.obs.profile.MemoryProfiler` is attached does it also open
  a span and take a (sampled) memory reading;
* **spans** — session ``check`` and ``pop`` open spans with
  :meth:`Observer.span`; closed spans also reach the attached
  :class:`~repro.obs.recorder.FlightRecorder`;
* **events** — typed :mod:`repro.obs.events` are published to subscribed
  sinks (``--verbose``, ``--progress`` rendering, the flight recorder);
* **progress** — :meth:`Observer.tick` feeds the attached
  :class:`~repro.obs.progress.ProgressMonitor`, which publishes its
  heartbeats back through the observer.

With nothing attached every path is a fast path: :attr:`Observer.active`
is False, so publishers build no event; a stage entry only times its
histogram; a span is a shared no-op context manager.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, Callable, Dict, List, Type

from .events import SolveEvent

__all__ = ["Observer"]

Sink = Callable[[SolveEvent], None]

#: What an observer hands out where it has nothing to record (stateless,
#: so one instance serves every caller).
_NOTHING = nullcontext()


class _Span:
    """One live span of an observer's tracer."""

    __slots__ = ("_observer", "_tracer", "_span")

    def __init__(self, observer: "Observer", tracer, span):
        self._observer = observer
        self._tracer = tracer
        self._span = span

    def __enter__(self):
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer.close(self._span, exc_type is not None)
        recorder = self._observer.recorder
        if recorder is not None:
            recorder.record_span(self._span)


class _Stage:
    """A stage entry with sinks attached: histogram, span, memory reading."""

    __slots__ = ("_timer", "_span", "_memory")

    def __init__(self, timer, span, memory):
        self._timer = timer
        self._span = span
        self._memory = memory

    def __enter__(self) -> None:
        self._timer.__enter__()
        self._span.__enter__()
        self._memory.__enter__()

    def __exit__(self, exc_type, exc, tb) -> None:
        self._memory.__exit__(exc_type, exc, tb)
        self._span.__exit__(exc_type, exc, tb)
        self._timer.__exit__(exc_type, exc, tb)


class Observer:
    """Routes a solve's stage timings, spans, events and ticks to its sinks.

    ``tracer`` and ``profiler`` (started by the caller) are read at every
    stage entry.  Event sinks :meth:`subscribe`; a flight recorder attaches
    with :meth:`FlightRecorder.attach <repro.obs.recorder.FlightRecorder.attach>`
    and a progress monitor attaches when it is built on the observer.
    One observer may serve many sessions and pipelines at once: the
    per-query statistics stay with each pipeline and are handed to
    :meth:`stage` per entry.
    """

    __slots__ = ("tracer", "profiler", "recorder", "progress", "_all", "_typed")

    def __init__(self, tracer=None, profiler=None):
        #: :class:`~repro.obs.trace.SpanTracer` receiving every span.
        self.tracer = tracer
        #: :class:`~repro.obs.profile.MemoryProfiler` sampling stage entries.
        self.profiler = profiler
        #: :class:`~repro.obs.recorder.FlightRecorder` receiving every event
        #: and every closed span (set by its ``attach``).
        self.recorder = None
        #: :class:`~repro.obs.progress.ProgressMonitor` fed by :meth:`tick`
        #: (set when the monitor is built on this observer).
        self.progress = None
        self._all: List[Sink] = []
        self._typed: Dict[Type[SolveEvent], List[Sink]] = {}

    # -- events ----------------------------------------------------------
    @property
    def active(self) -> bool:
        """Whether any event sink is attached (publishers fast-path on False)."""
        return bool(self._all or self._typed)

    def subscribe(self, sink: Sink, *event_types: Type[SolveEvent]) -> Sink:
        """Attach ``sink`` to every event, or only to the exact ``event_types``.

        There is no subclass matching: the event taxonomy is flat.  Returns
        the sink (handy for decorator-style use).
        """
        if event_types:
            for event_type in event_types:
                self._typed.setdefault(event_type, []).append(sink)
        else:
            self._all.append(sink)
        return sink

    def unsubscribe(self, sink: Sink) -> None:
        """Detach ``sink`` from every subscription it appears in."""
        if sink in self._all:
            self._all.remove(sink)
        for sinks in list(self._typed.values()):
            if sink in sinks:
                sinks.remove(sink)
        self._typed = {t: s for t, s in self._typed.items() if s}

    def publish(self, event: SolveEvent) -> None:
        for sink in self._all:
            sink(event)
        typed = self._typed.get(type(event))
        if typed:
            for sink in typed:
                sink(event)

    # -- spans and stages --------------------------------------------------
    def span(self, name: str, category: str = "solver", **args: Any):
        """A nested span around a ``with`` block (a no-op without a tracer)."""
        tracer = self.tracer
        if tracer is None:
            return _NOTHING
        return _Span(self, tracer, tracer.open(name, category, args))

    def instant(self, name: str, category: str = "event", **args: Any) -> None:
        """A zero-duration trace marker (a no-op without a tracer)."""
        if self.tracer is not None:
            self.tracer.instant(name, category, **args)

    def stage(self, stats, name: str, args: Dict[str, Any]):
        """One stage entry: ``stats.timed(name)``, plus a span named ``name``
        carrying ``args`` and a memory reading when those sinks are attached.
        """
        timer = stats.timed(name)
        profiler = self.profiler
        if self.tracer is None and profiler is None:
            return timer
        return _Stage(
            timer,
            self.span(name, **args),
            profiler.measure(name) if profiler is not None else _NOTHING,
        )

    # -- progress --------------------------------------------------------
    def tick(self, stage: str, stats=None, **gauges: int) -> None:
        """Report liveness to the progress monitor (a no-op without one).

        ``stats`` fills the heartbeat's loop counters (Boolean queries,
        blocking clauses, presolve units); ``gauges`` carries the rest
        (the loop iteration).
        """
        progress = self.progress
        if progress is None:
            return
        if stats is not None:
            gauges["boolean_queries"] = stats.boolean_queries
            gauges["blocking_clauses"] = stats.blocking_clauses
            gauges["presolve_units"] = stats.presolve_units_emitted
        progress.tick(stage, **gauges)
