"""Typed solver events and the sinks that consume them.

The control loop publishes frozen dataclass events to its
:class:`~repro.obs.observer.Observer`; sinks subscribe there, either to
every event or to specific event types.  :class:`VerboseSink` renders the
``--verbose`` log and :class:`CollectingSink` keeps events for tests and
programmatic analysis.

Publishing is near-free with no sinks attached: the pipeline checks
:attr:`Observer.active <repro.obs.observer.Observer.active>` before even
constructing an event object.
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass
from typing import Any, Dict, IO, List, Optional, Type

__all__ = [
    "SolveEvent",
    "CheckStarted",
    "BoundTightened",
    "PresolveFixedVar",
    "PresolveInfeasible",
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
]


@dataclass(frozen=True)
class SolveEvent:
    """Base class of every solver event.

    ``legacy_name`` is the tag ``--verbose`` prints for this occurrence
    (the event names of the original ad-hoc trace log); :meth:`payload`
    is the dataclass fields as a dict, verbatim.
    """

    legacy_name = "event"

    def payload(self) -> Dict[str, Any]:
        return {
            field.name: getattr(self, field.name)
            for field in dataclasses.fields(self)
        }


@dataclass(frozen=True)
class CheckStarted(SolveEvent):
    """A session ``check`` began (depth = assertion-stack depth)."""

    depth: int
    assumptions: int

    legacy_name = "check-started"


@dataclass(frozen=True)
class BoundTightened(SolveEvent):
    """Formula-level presolve narrowed a variable beyond its declared box.

    ``lower``/``upper`` are the tightened endpoints as floats (None when
    that side stayed unbounded); ``source`` records the deduction that
    produced the tightening (``"propagation"`` or ``"contraction"``).
    """

    variable: str
    lower: Optional[float]
    upper: Optional[float]
    source: str

    legacy_name = "bound-tightened"


@dataclass(frozen=True)
class PresolveFixedVar(SolveEvent):
    """Presolve pinned a theory variable to a single value."""

    variable: str
    value: float

    legacy_name = "presolve-fixed-var"


@dataclass(frozen=True)
class PresolveInfeasible(SolveEvent):
    """Presolve proved the asserted stack infeasible before any candidate."""

    reason: str

    legacy_name = "presolve-infeasible"


@dataclass(frozen=True)
class CandidateFound(SolveEvent):
    """The Boolean solver produced the next candidate assignment."""

    iteration: int
    defined_true: int

    legacy_name = "boolean-model"


@dataclass(frozen=True)
class TheoryFeasible(SolveEvent):
    """A candidate survived every theory check: the solve is SAT."""

    iteration: int

    legacy_name = "theory-feasible"


@dataclass(frozen=True)
class BlockingClauseAdded(SolveEvent):
    """A candidate failed theory checking; its blocking clause was learned."""

    iteration: int
    blocking_size: int
    definite: bool

    legacy_name = "theory-conflict"


@dataclass(frozen=True)
class ConflictRefined(SolveEvent):
    """The linear backend explained an infeasibility (IIS when minimal)."""

    minimal: bool
    core_size: int

    legacy_name = "conflict-refined"


@dataclass(frozen=True)
class IntervalRefuted(SolveEvent):
    """The interval branch-and-prune refuter certified a nonlinear conflict."""

    branch_size: int

    legacy_name = "interval-refuted"


@dataclass(frozen=True)
class NonlinearFallback(SolveEvent):
    """A nonlinear solver in the chain failed; the loop moves to the next.

    This is the paper's "if ... the preceding solvers thereof failed to
    provide a decent result" (Sec. 4) made visible.
    """

    solver: str
    status: str

    legacy_name = "nonlinear-fallback"


@dataclass(frozen=True)
class LemmaReused(SolveEvent):
    """A ``check`` started with theory lemmas still active from earlier ones."""

    count: int

    legacy_name = "lemma-reused"


@dataclass(frozen=True)
class LemmasRetracted(SolveEvent):
    """A ``pop`` retracted theory lemmas guarded by the dropped frame."""

    count: int
    depth: int

    legacy_name = "lemmas-retracted"


@dataclass(frozen=True)
class FramePushed(SolveEvent):
    """A session opened a new assertion frame."""

    depth: int

    legacy_name = "frame-pushed"


@dataclass(frozen=True)
class FramePopped(SolveEvent):
    """A session retracted its deepest assertion frame."""

    depth: int

    legacy_name = "frame-popped"


@dataclass(frozen=True)
class VerdictReached(SolveEvent):
    """The query finished: sat / unsat / unknown after N iterations."""

    status: str
    iterations: int

    legacy_name = "verdict"


class CollectingSink:
    """Keeps every delivered event in order (tests, programmatic analysis)."""

    def __init__(self) -> None:
        self.events: List[SolveEvent] = []

    def __call__(self, event: SolveEvent) -> None:
        self.events.append(event)

    def of_type(self, *event_types: Type[SolveEvent]) -> List[SolveEvent]:
        return [event for event in self.events if type(event) in event_types]

    def clear(self) -> None:
        self.events.clear()


class VerboseSink:
    """Human-readable event log — the engine behind ``absolver --verbose``.

    The line format is the one the old ad-hoc callback printed
    (``  [boolean-model] iteration=0 defined_true=3``), so existing
    workflows that grep the verbose output keep working.
    """

    def __init__(self, stream: Optional[IO[str]] = None):
        self._stream = stream

    def __call__(self, event: SolveEvent) -> None:
        details = " ".join(
            f"{key}={value}" for key, value in event.payload().items()
        )
        stream = self._stream if self._stream is not None else sys.stdout
        print(f"  [{event.legacy_name}] {details}", file=stream)
