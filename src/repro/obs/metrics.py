"""Latency histograms behind the stage timers of :class:`~repro.core.stats.SolveStatistics`.

A :class:`Histogram` keeps a stage's observations (seconds), not just their
total, so ``--stats-json`` can report p50/p95 latency summaries and the
benchmark trajectory records a real per-stage breakdown.

Histograms are **bounded**: up to :data:`RESERVOIR_SIZE` observations are
kept verbatim (percentiles are then exact); beyond that, new observations
replace stored ones via reservoir sampling (Vitter's Algorithm R with a
deterministic per-name RNG), so a histogram's memory stays O(1) no matter
how long a session — or the future serve mode — runs.  ``count``, ``total``
(and therefore ``mean``) remain exact at any scale; only the percentile
estimates degrade to sampling error past the cutoff, which
:meth:`Histogram.summary` makes visible by reporting ``samples`` (retained
observations backing the percentiles) next to the exact ``count``.
"""

from __future__ import annotations

import math
import random
import zlib
from typing import Dict, List, Optional

__all__ = ["Histogram", "RESERVOIR_SIZE"]

#: Observations kept verbatim per histogram before reservoir sampling
#: kicks in.  Below this count percentiles are exact; above it they are
#: estimates over a uniform sample of this size.  Solver stage timers of a
#: single query sit well below the cutoff; the bound exists for long-lived
#: sessions and serve-mode processes that observe forever.
RESERVOIR_SIZE = 1024


class Histogram:
    """A named latency histogram over a bounded observation reservoir.

    Observations are wall-clock seconds (the solver's use), but nothing
    here assumes a unit.  Quantiles use the nearest-rank method on the
    sorted retained observations — exact while ``count`` is at most
    :data:`RESERVOIR_SIZE` (every observation is retained), an unbiased
    estimate over a uniform sample afterwards.  ``count``/``total``/
    ``mean``/``max`` stay exact at any scale.

    The replacement RNG is seeded from the histogram name (CRC32), so two
    runs observing the same stream retain the same sample — reproducible
    seeding is a repo-wide invariant the metrics layer must not break.
    """

    __slots__ = ("name", "values", "_count", "_total", "_max", "_rng")

    def __init__(self, name: str):
        self.name = name
        #: The retained observations (all of them until the reservoir
        #: fills; a uniform sample afterwards).
        self.values: List[float] = []
        self._count = 0
        self._total = 0.0
        self._max = 0.0
        self._rng: Optional[random.Random] = None

    def observe(self, value: float) -> None:
        self._count += 1
        self._total += value
        if value > self._max:
            self._max = value
        if len(self.values) < RESERVOIR_SIZE:
            self.values.append(value)
            return
        # Algorithm R: the new observation displaces a uniformly random
        # retained one with probability RESERVOIR_SIZE / count.
        if self._rng is None:
            self._rng = random.Random(zlib.crc32(self.name.encode("utf-8")))
        slot = self._rng.randrange(self._count)
        if slot < RESERVOIR_SIZE:
            self.values[slot] = value

    @property
    def count(self) -> int:
        """Exact number of observations (may exceed ``len(values)``)."""
        return self._count

    @property
    def samples(self) -> int:
        """Retained observations backing the percentile estimates."""
        return len(self.values)

    @property
    def total(self) -> float:
        return self._total

    @property
    def mean(self) -> float:
        return self._total / self._count if self._count else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile, ``q`` in [0, 100]; 0.0 when empty.

        Exact while every observation is retained (``count <= RESERVOIR_SIZE``),
        a reservoir-sample estimate beyond that.
        """
        if not self.values:
            return 0.0
        ordered = sorted(self.values)
        rank = max(1, math.ceil(q / 100.0 * len(ordered)))
        return ordered[min(rank, len(ordered)) - 1]

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram in, keeping the reservoir bounded.

        ``count``/``total``/``max`` aggregate exactly.  The retained lists
        are concatenated and, past :data:`RESERVOIR_SIZE`, uniformly
        down-sampled (deterministic shuffle + truncate) — an approximation
        that is exact until either side was thinned, and close enough for
        cross-worker stage-latency percentiles after.
        """
        self._count += other._count
        self._total += other._total
        if other._max > self._max:
            self._max = other._max
        self.values.extend(other.values)
        if len(self.values) > RESERVOIR_SIZE:
            if self._rng is None:
                self._rng = random.Random(zlib.crc32(self.name.encode("utf-8")))
            self._rng.shuffle(self.values)
            del self.values[RESERVOIR_SIZE:]

    def summary(self) -> Dict[str, float]:
        """The fixed summary shape used by ``--stats-json`` and BENCH records.

        ``count`` is the exact observation count; ``samples`` is how many
        retained observations back the ``p50``/``p95`` estimates (equal to
        ``count`` until the reservoir cutoff, :data:`RESERVOIR_SIZE`), so
        downstream tooling can weight percentiles correctly.
        """
        return {
            "count": self.count,
            "samples": self.samples,
            "total": self.total,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "max": self._max if self._count else 0.0,
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name}, n={self.count}, total={self.total:.6f})"
