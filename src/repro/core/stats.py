"""Solve-run statistics: a facade over the observability metrics registry.

:class:`SolveStatistics` keeps its historical surface — named counter
attributes, ``timed``/``timers``, ``merge``, ``as_dict`` — but the storage
now lives in a :class:`repro.obs.metrics.MetricsRegistry` of counters and
latency histograms.  That buys two things the flat object could not do:

* lossless aggregation — ``merge`` folds *every* registered counter and
  histogram, including ones newer components register outside the
  historical ``_COUNTERS`` tuple (which used to vanish silently);
* latency distributions — each ``timed(key)`` context records one
  observation in the ``key`` histogram, so per-stage p50/p95 summaries are
  available (``stage_summaries``) next to the accumulated totals that
  ``timers`` and ``as_dict`` keep exposing.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

from ..obs.metrics import MetricsRegistry

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

    Counter reads and writes go through :attr:`registry`; accessing an
    attribute named like a registered counter returns its current value,
    and assigning one sets it, so ``stats.boolean_queries += 1`` behaves
    exactly as it did when these were plain ints.
    """

    #: The historical counter set, kept for attribute pre-registration and
    #: for the stable leading key order of :meth:`as_dict`.  Counters
    #: registered beyond this tuple are first-class citizens everywhere
    #: (attribute access, ``merge``, ``as_dict``).
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
        # No longer incremented: registered because perfbench reads it.
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
    )

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        object.__setattr__(self, "registry", registry or MetricsRegistry())
        for field in self._COUNTERS:
            self.registry.counter(field)

    # -- counter attribute facade --------------------------------------
    def __getattr__(self, name: str):
        # Only reached when normal attribute lookup fails: route reads of
        # registered counters to the registry.
        if name.startswith("__"):
            raise AttributeError(name)
        registry = self.__dict__.get("registry")
        if registry is not None:
            counter = registry.counters.get(name)
            if counter is not None:
                return counter.value
        raise AttributeError(
            f"{type(self).__name__!s} object has no attribute {name!r}"
        )

    def __setattr__(self, name: str, value) -> None:
        registry = self.__dict__.get("registry")
        if registry is not None and isinstance(value, int) and not name.startswith("_"):
            counter = registry.counters.get(name)
            if counter is not None or name in self._COUNTERS:
                registry.counter(name).value = value
                return
        object.__setattr__(self, name, value)

    # -- timing ---------------------------------------------------------
    @contextmanager
    def timed(self, key: str) -> Iterator[None]:
        """Record one wall-clock observation in the ``key`` histogram."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.registry.histogram(key).observe(time.perf_counter() - started)

    @property
    def timers(self) -> Dict[str, float]:
        """Accumulated wall-clock per key (histogram totals), as a dict."""
        return {
            name: histogram.total
            for name, histogram in self.registry.histograms.items()
        }

    def stage_summaries(self) -> Dict[str, Dict[str, float]]:
        """Per-key latency summaries (count/total/mean/p50/p95/max)."""
        return {
            name: histogram.summary()
            for name, histogram in self.registry.histograms.items()
        }

    # -- aggregation ----------------------------------------------------
    def merge(self, other: "SolveStatistics") -> "SolveStatistics":
        """Fold another run's counters and timers into this one.

        Sessions use this for cross-query aggregation: each ``check`` fills
        a fresh :class:`SolveStatistics`, which is then merged into the
        session's cumulative record.  The merge is registry-level, so every
        counter registered on either side aggregates — including counters a
        newer component added outside :attr:`_COUNTERS`.  Returns ``self``
        for chaining.
        """
        self.registry.merge(other.registry)
        return self

    def as_dict(self) -> Dict[str, float]:
        """Counters (historical ones first) plus ``time_<key>`` totals."""
        result: Dict[str, float] = {
            field: self.registry.counter_value(field) for field in self._COUNTERS
        }
        for name in sorted(self.registry.counters):
            if name not in result:
                result[name] = self.registry.counters[name].value
        for name, histogram in self.registry.histograms.items():
            result[f"time_{name}"] = histogram.total
        return result

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"SolveStatistics({fields})"
