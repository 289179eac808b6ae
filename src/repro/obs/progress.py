"""Live progress heartbeats and a wall-clock stall watchdog.

A long solve used to be silent until the verdict.  This module adds two
typed events to the event taxonomy and a small state machine emitting them:

* :class:`ProgressSnapshot` — a periodic heartbeat carrying the counters a
  human watches while waiting: Boolean queries done, blocking clauses
  learned, presolve units, the current stage, and (for parallel solves)
  the cube queue depth and lemmas shared so far.
* :class:`StageStalled` — the watchdog's alarm: no progress tick arrived
  for longer than the configured budget, i.e. the named stage is sitting
  inside one long backend call.

:class:`ProgressMonitor` attaches to an
:class:`~repro.obs.observer.Observer` and is fed by cheap
:meth:`Observer.tick <repro.obs.observer.Observer.tick>` calls from the hot
loop — :meth:`repro.core.pipeline.SolvePipeline.run_query` ticks once per
control-loop iteration (the same cadence as the ``poll`` cancellation
hook) and the parallel coordinator ticks from its collect loop.  The
*first* tick always emits a snapshot (so even sub-interval solves produce
at least one heartbeat); later ticks emit at most one snapshot per
``interval`` seconds.  Stalls are detected two ways: at tick
time (the gap since the previous tick exceeded the budget) and, when
:meth:`~ProgressMonitor.start_watchdog` is running, from a daemon thread —
the tick-time check alone cannot fire while a stage never returns.

:class:`ProgressRenderer` is the CLI ``--progress`` sink: one line per
heartbeat on stderr, flushed immediately.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass
from typing import IO, Optional

from .events import SolveEvent

__all__ = ["ProgressSnapshot", "StageStalled", "ProgressMonitor", "ProgressRenderer"]


@dataclass(frozen=True)
class ProgressSnapshot(SolveEvent):
    """Periodic heartbeat: where the solve is and how much it has done.

    ``cube_queue_depth`` and ``lemmas_shared`` are zero for in-process
    solves; the parallel coordinator fills them from its collect loop.
    """

    elapsed: float
    stage: str
    iteration: int
    boolean_queries: int
    blocking_clauses: int
    presolve_units: int
    cube_queue_depth: int
    lemmas_shared: int

    legacy_name = "progress"


@dataclass(frozen=True)
class StageStalled(SolveEvent):
    """No progress tick for longer than the stall budget."""

    stage: str
    stalled_for: float
    budget: float

    legacy_name = "stage-stalled"


class ProgressMonitor:
    """Turns hot-loop ticks into rate-limited heartbeats + stall alarms.

    Building a monitor on an observer attaches it: the observer's ticks
    reach :meth:`tick`, and heartbeats and alarms are published to the
    observer.  Thread-safe: the watchdog thread and the ticking solve loop
    share the last-tick timestamp under a lock.  One :class:`StageStalled`
    is published per stall episode (the flag resets on the next tick), so
    a stage stuck for minutes does not flood the sinks.
    """

    def __init__(
        self,
        observer,
        interval: float = 1.0,
        stall_budget: Optional[float] = None,
        clock=time.monotonic,
    ):
        if interval < 0:
            raise ValueError("interval must be >= 0")
        if stall_budget is not None and stall_budget <= 0:
            raise ValueError("stall_budget must be positive")
        self.observer = observer
        observer.progress = self
        self.interval = interval
        self.stall_budget = stall_budget
        self._clock = clock
        self._epoch = clock()
        self._lock = threading.Lock()
        self._last_emit: Optional[float] = None
        self._last_tick = self._epoch
        self._stage = "start"
        self._stall_flagged = False
        self._stop = threading.Event()
        self._watchdog: Optional[threading.Thread] = None
        #: Heartbeats emitted so far (tests and the CLI epilogue read it).
        self.snapshots = 0
        #: Stall alarms emitted so far.
        self.stalls = 0

    # -- the hot-loop entry point ---------------------------------------
    def tick(
        self,
        stage: str,
        iteration: int = 0,
        boolean_queries: int = 0,
        blocking_clauses: int = 0,
        presolve_units: int = 0,
        cube_queue_depth: int = 0,
        lemmas_shared: int = 0,
    ) -> None:
        """Report liveness from the solve loop; emits at most one snapshot
        per :attr:`interval` (the first tick always emits)."""
        now = self._clock()
        with self._lock:
            budget = self.stall_budget
            gap = now - self._last_tick
            stalled_stage = self._stage if (
                budget is not None and not self._stall_flagged and gap > budget
            ) else None
            self._stage = stage
            self._last_tick = now
            self._stall_flagged = False
            emit = self._last_emit is None or now - self._last_emit >= self.interval
            if emit:
                self._last_emit = now
                self.snapshots += 1
        if stalled_stage is not None:
            self._publish_stall(stalled_stage, gap, budget)
        if emit:
            self.observer.publish(
                ProgressSnapshot(
                    elapsed=now - self._epoch,
                    stage=stage,
                    iteration=iteration,
                    boolean_queries=boolean_queries,
                    blocking_clauses=blocking_clauses,
                    presolve_units=presolve_units,
                    cube_queue_depth=cube_queue_depth,
                    lemmas_shared=lemmas_shared,
                )
            )

    def _publish_stall(self, stage: str, stalled_for: float, budget: float) -> None:
        self.stalls += 1
        self.observer.publish(
            StageStalled(stage=stage, stalled_for=stalled_for, budget=budget)
        )

    # -- the watchdog ----------------------------------------------------
    def start_watchdog(self, poll_interval: Optional[float] = None) -> None:
        """Spawn the daemon thread that detects in-call stalls.

        Without it, a stall is only noticed at the *next* tick — which
        never comes while a backend call is stuck.  ``poll_interval``
        defaults to a quarter of the budget (floored at 50 ms): the alarm
        fires at most ~1.25 budgets after progress actually stopped.
        No-op when no ``stall_budget`` is configured.
        """
        if self.stall_budget is None or self._watchdog is not None:
            return
        period = poll_interval if poll_interval is not None else max(
            0.05, self.stall_budget / 4
        )

        def run() -> None:
            while not self._stop.wait(period):
                now = self._clock()
                with self._lock:
                    gap = now - self._last_tick
                    if self._stall_flagged or gap <= self.stall_budget:
                        continue
                    self._stall_flagged = True
                    stage = self._stage
                self._publish_stall(stage, gap, self.stall_budget)

        self._watchdog = threading.Thread(
            target=run, daemon=True, name="absolver-progress-watchdog"
        )
        self._watchdog.start()

    def stop_watchdog(self) -> None:
        """Stop (and join) the watchdog thread, if running."""
        if self._watchdog is None:
            return
        self._stop.set()
        self._watchdog.join(timeout=2.0)
        self._watchdog = None
        self._stop = threading.Event()


class ProgressRenderer:
    """CLI ``--progress`` sink: one heartbeat/alarm line per event.

    Writes to stderr by default, so heartbeats never corrupt piped stdout
    (verdicts, ``--stats-json -``); each line is flushed immediately.
    """

    def __init__(self, stream: Optional[IO[str]] = None):
        self._stream = stream

    def attach(self, observer) -> "ProgressRenderer":
        observer.subscribe(self, ProgressSnapshot, StageStalled)
        return self

    def __call__(self, event: SolveEvent) -> None:
        stream = self._stream if self._stream is not None else sys.stderr
        if isinstance(event, ProgressSnapshot):
            line = (
                f"[progress +{event.elapsed:.1f}s] stage={event.stage} "
                f"iter={event.iteration} boolean={event.boolean_queries} "
                f"blocked={event.blocking_clauses} "
                f"presolve_units={event.presolve_units} "
                f"queue={event.cube_queue_depth} lemmas={event.lemmas_shared}"
            )
        else:
            line = (
                f"[stalled] stage={event.stage} no progress for "
                f"{event.stalled_for:.1f}s (budget {event.budget:.1f}s)"
            )
        print(line, file=stream, flush=True)
