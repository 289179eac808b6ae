"""repro.obs — the solver observability layer.

The paper explains ABsolver's performance anecdotally ("many Boolean
solutions need to be examined first", Sec. 5.2).  This subsystem makes the
same diagnosis mechanical.  It has one instrumentation surface,
:class:`~repro.obs.observer.Observer` — ``ABSolverConfig(observer=...)``
is the only observability setting — and every diagnostic is a sink
attached to it.  The staged pipeline (:mod:`repro.core.pipeline`) enters
each stage with one ``with pipeline.stage(...)``, publishes typed events,
and ticks progress through the observer; with no sink attached all of it
is a fast path.

The sinks:

* :mod:`repro.obs.trace` — a low-overhead nested span tracer.  Every
  pipeline stage, session ``check``/``push``/``pop``, and backend call
  opens a span; a recorded solve exports as JSONL or as the Chrome
  ``trace_event`` format, so it renders as a flamegraph in
  ``chrome://tracing`` / Perfetto.
* :mod:`repro.obs.events` — typed dataclass events
  (:class:`~repro.obs.events.CandidateFound`,
  :class:`~repro.obs.events.ConflictRefined`,
  :class:`~repro.obs.events.BlockingClauseAdded`, ...) and the
  :class:`~repro.obs.events.VerboseSink` / ``CollectingSink`` consumers.
* :mod:`repro.obs.recorder` — a bounded ring-buffer
  :class:`~repro.obs.recorder.FlightRecorder` of the observer's events
  and span closes, dumped as JSONL post-mortems on exception or
  ``--flight-record`` request.
* :mod:`repro.obs.progress` — periodic
  :class:`~repro.obs.progress.ProgressSnapshot` heartbeats plus a
  wall-clock stall watchdog (:class:`~repro.obs.progress.StageStalled`),
  rendered live by ``--progress``.
* :mod:`repro.obs.profile` — per-stage memory attribution via sampled
  ``tracemalloc`` (``--profile-memory``).

:mod:`repro.obs.metrics` holds the latency histograms that
:class:`repro.core.stats.SolveStatistics` keeps per stage next to its
plain counters, which is how per-stage p50/p95 summaries reach
``--stats-json``.  :mod:`repro.obs.bench_record` writes per-run
``BENCH_<name>.json`` trajectory records (wall time, per-stage breakdown,
counter snapshot, git SHA) from the benchmark harness.  See
``docs/OBSERVABILITY.md``.
"""

from .observer import Observer
from .trace import Span, SpanTracer
from .events import (
    BlockingClauseAdded,
    CandidateFound,
    CheckStarted,
    CollectingSink,
    ConflictRefined,
    FramePopped,
    FramePushed,
    IntervalRefuted,
    LemmaReused,
    LemmasRetracted,
    NonlinearFallback,
    SolveEvent,
    TheoryFeasible,
    VerboseSink,
    VerdictReached,
)
from .metrics import Histogram, RESERVOIR_SIZE
from .bench_record import (
    bench_record_payload,
    latest_record,
    load_trajectory,
    write_bench_record,
)
from .recorder import FlightRecorder
from .progress import ProgressMonitor, ProgressRenderer, ProgressSnapshot, StageStalled
from .profile import MemoryProfiler

__all__ = [
    "Observer",
    "Span",
    "SpanTracer",
    "SolveEvent",
    "CheckStarted",
    "CandidateFound",
    "TheoryFeasible",
    "BlockingClauseAdded",
    "ConflictRefined",
    "IntervalRefuted",
    "NonlinearFallback",
    "LemmaReused",
    "LemmasRetracted",
    "FramePushed",
    "FramePopped",
    "VerdictReached",
    "CollectingSink",
    "VerboseSink",
    "Histogram",
    "RESERVOIR_SIZE",
    "bench_record_payload",
    "write_bench_record",
    "load_trajectory",
    "latest_record",
    "FlightRecorder",
    "ProgressMonitor",
    "ProgressRenderer",
    "ProgressSnapshot",
    "StageStalled",
    "MemoryProfiler",
]
