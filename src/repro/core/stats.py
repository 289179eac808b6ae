"""Solve-run statistics: plain counters plus per-stage latency histograms.

Every counter the program sets is declared once, in
:attr:`SolveStatistics._COUNTERS`, and is a plain ``int`` attribute; the
class uses ``__slots__``, so a misspelt counter raises ``AttributeError``
instead of becoming an attribute that ``merge`` and ``as_dict`` ignore.
Each ``timed(key)`` context records one wall-clock observation in the
``key`` :class:`~repro.obs.metrics.Histogram`, so per-stage p50/p95
summaries (``stage_summaries``) sit next to the accumulated totals that
``timers`` and ``as_dict`` expose.  :meth:`SolveStatistics.snapshot` is the
one serialisation bench records and flight dumps write.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator

from ..obs.metrics import Histogram

__all__ = ["SolveStatistics"]


class SolveStatistics:
    """Counters and per-domain wall-clock accumulated during one solve.

    The benchmark harness prints these next to each table row, which is how
    we explain *why* a configuration is fast or slow (e.g. the SMT-LIB
    discussion in Sec. 5.2: "many Boolean solutions need to be examined
    first").

    Since the staged-pipeline refactor the counters also cover incremental
    reuse: ``clauses_reused`` (theory lemmas learned in an earlier query of
    a :class:`~repro.core.session.SolverSession` that were still active when
    a later ``check`` started), ``translation_cache_hits`` /
    ``translation_cache_misses`` (memoized definition-literal -> linear-row
    translations), ``warm_start_hits`` (simplex checks answered from a
    cached feasible point), and ``lemmas_retracted`` (lemmas dropped because
    a ``pop`` retracted the frame they depended on).  Per-stage wall clock
    lands in ``timers`` under the stage names (``boolean``, ``translate``,
    ``linear``, ``nonlinear``, ``refine``).
    """

    #: Every counter, in the key order of :meth:`as_dict`.
    _COUNTERS = (
        "boolean_queries",
        "linear_checks",
        "nonlinear_calls",
        "interval_refutations",
        "conflicts_refined",
        "blocking_clauses",
        "equality_splits",
        "models_enumerated",
        "queries",
        "clauses_reused",
        "translation_cache_hits",
        "translation_cache_misses",
        "warm_start_hits",
        "lemmas_retracted",
        "bound_rows_cache_hits",
        # No longer incremented: kept because perfbench reads it.
        "blocking_template_hits",
        "numpy_accepts",
        "numpy_fallbacks",
        "cubes_split",
        "presolve_rows_dropped",
        "presolve_units_emitted",
        "contractor_presolve_calls",
        "intern_hits",
        "verdict_cache_hits",
        "verdict_cache_misses",
        "verdict_cache_stores",
        "heap_decisions",
        "clauses_reduced",
        "clauses_minimized_lits",
        "lemmas_imported",
        # Set by the parallel coordinator on the stats of one parallel solve.
        "parallel_tasks",
        "cubes_dispatched",
        "parallel_workers",
        "lemmas_shared",
        "lemmas_deduped",
        "parallel_cancellations",
    )

    __slots__ = _COUNTERS + ("histograms",)

    def __init__(self) -> None:
        for name in self._COUNTERS:
            setattr(self, name, 0)
        #: Stage name -> wall-clock seconds of each ``timed`` entry.
        self.histograms: Dict[str, Histogram] = {}

    def _histogram(self, key: str) -> Histogram:
        histogram = self.histograms.get(key)
        if histogram is None:
            histogram = self.histograms[key] = Histogram(key)
        return histogram

    # -- timing ---------------------------------------------------------
    @contextmanager
    def timed(self, key: str) -> Iterator[None]:
        """Record one wall-clock observation in the ``key`` histogram."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self._histogram(key).observe(time.perf_counter() - started)

    @property
    def timers(self) -> Dict[str, float]:
        """Accumulated wall-clock per key (histogram totals), as a dict."""
        return {name: histogram.total for name, histogram in self.histograms.items()}

    def stage_summaries(self) -> Dict[str, Dict[str, float]]:
        """Per-key latency summaries (count/total/mean/p50/p95/max)."""
        return {name: histogram.summary() for name, histogram in self.histograms.items()}

    # -- aggregation ----------------------------------------------------
    def merge(self, other: "SolveStatistics") -> "SolveStatistics":
        """Fold another run's counters and timers into this one.

        Sessions use this for cross-query aggregation: each ``check`` fills
        a fresh :class:`SolveStatistics`, which is then merged into the
        session's cumulative record.  Returns ``self`` for chaining.
        """
        for name in self._COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for name, histogram in other.histograms.items():
            self._histogram(name).merge(histogram)
        return self

    # -- serialisation --------------------------------------------------
    def as_dict(self) -> Dict[str, float]:
        """Counters in declaration order plus ``time_<key>`` totals."""
        result: Dict[str, float] = {name: getattr(self, name) for name in self._COUNTERS}
        for name, histogram in self.histograms.items():
            result[f"time_{name}"] = histogram.total
        return result

    def snapshot(self) -> Dict[str, Any]:
        """Counter values and per-stage summaries, JSON-ready, keys sorted."""
        return {
            "counters": {name: getattr(self, name) for name in sorted(self._COUNTERS)},
            "stages": {
                name: self.histograms[name].summary() for name in sorted(self.histograms)
            },
        }

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"SolveStatistics({fields})"
