"""Per-stage memory attribution via sampled ``tracemalloc``.

Latency histograms say where the *time* goes; this module says where the
*allocations* go.  :class:`MemoryProfiler` wraps every pipeline stage call
in a ``measure(name)`` context: on sampled entries it reads
``tracemalloc.get_traced_memory()`` before and after (and the traced peak
in between, via ``reset_peak``), attributing net growth and peak usage to
the stage name.  Full tracemalloc on every call would blow the repo's 5%
overhead budget on micro-stages (a ``boolean`` call can be tens of
microseconds), so only every ``sample_every``-th entry per stage pays for
the snapshots — the exact entry count is still kept, and the sampled
net/peak figures scale understandably (``net_kb`` is the summed growth
over the sampled entries, not an extrapolation).

The profiler is a sink of :class:`repro.obs.observer.Observer`: an
observer without one takes no memory readings at all, and unsampled
entries cost one dict increment.

Opt in with ``absolver --profile-memory``: the summary lands in the
``memory`` key of ``--stats-json`` and of benchmark trajectory records
(:func:`repro.obs.bench_record.bench_record_payload`).
"""

from __future__ import annotations

import tracemalloc
from contextlib import nullcontext
from typing import Any, Dict

__all__ = ["MemoryProfiler"]

#: The handle of an unsampled stage entry (stateless, shared).
_UNSAMPLED = nullcontext()


class _StageHandle:
    """One sampled stage entry: snapshot on enter, attribute on exit."""

    __slots__ = ("_profiler", "_name", "_before")

    def __init__(self, profiler: "MemoryProfiler", name: str):
        self._profiler = profiler
        self._name = name
        self._before = 0

    def __enter__(self) -> "_StageHandle":
        self._before = tracemalloc.get_traced_memory()[0]
        reset_peak = getattr(tracemalloc, "reset_peak", None)
        if reset_peak is not None:  # 3.9+
            reset_peak()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        current, peak = tracemalloc.get_traced_memory()
        self._profiler._record(self._name, current - self._before, peak)


class MemoryProfiler:
    """Sampled per-stage tracemalloc attribution (opt-in, ``--profile-memory``).

    ``sample_every=1`` measures every stage entry (exact, slow);
    the default 8 keeps the tracemalloc cost off most entries.  ``start``
    begins tracing (owning the tracemalloc session only if nothing else
    started it); ``stop`` ends an owned session.  ``measure(name)`` is the
    observer's per-stage-entry hook; unsampled entries get the shared
    no-op handle, so their cost is one dict increment.
    """

    def __init__(self, sample_every: int = 8):
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.sample_every = sample_every
        #: Exact per-stage entry counts (every call, sampled or not).
        self._entries: Dict[str, int] = {}
        #: Per-stage sampled figures: samples, net bytes, peak bytes.
        self._sampled: Dict[str, Dict[str, float]] = {}
        self._started = False
        self._owns_tracing = False

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        if not tracemalloc.is_tracing():
            tracemalloc.start()
            self._owns_tracing = True

    def stop(self) -> None:
        if self._started and self._owns_tracing and tracemalloc.is_tracing():
            tracemalloc.stop()
        self._started = False
        self._owns_tracing = False

    # -- the stage-entry hook -------------------------------------------
    def measure(self, name: str):
        """Count one entry of stage ``name``; measure it when it is sampled."""
        count = self._entries.get(name, 0)
        self._entries[name] = count + 1
        if not self._started or count % self.sample_every:
            return _UNSAMPLED
        return _StageHandle(self, name)

    def _record(self, name: str, net_bytes: int, peak_bytes: int) -> None:
        record = self._sampled.get(name)
        if record is None:
            record = self._sampled[name] = {"samples": 0, "net": 0.0, "peak": 0.0}
        record["samples"] += 1
        record["net"] += net_bytes
        if peak_bytes > record["peak"]:
            record["peak"] = peak_bytes

    # -- reporting ------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """JSON-ready attribution: per-stage entries/samples/net/peak (KiB).

        ``net_kb`` is the summed allocation growth over the *sampled*
        entries of the stage (compare it with ``samples``, not
        ``entries``); ``peak_kb`` is the largest traced peak observed
        inside any sampled entry.
        """
        stages: Dict[str, Any] = {}
        for name in sorted(self._entries):
            record = self._sampled.get(name, {"samples": 0, "net": 0.0, "peak": 0.0})
            stages[name] = {
                "entries": self._entries[name],
                "samples": int(record["samples"]),
                "net_kb": round(record["net"] / 1024.0, 3),
                "peak_kb": round(record["peak"] / 1024.0, 3),
            }
        out: Dict[str, Any] = {"sample_every": self.sample_every, "stages": stages}
        if tracemalloc.is_tracing():
            current, peak = tracemalloc.get_traced_memory()
            out["current_kb"] = round(current / 1024.0, 3)
            out["traced_peak_kb"] = round(peak / 1024.0, 3)
        return out
