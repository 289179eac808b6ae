"""Host speed, gauged by a fixed reference kernel run between timed spans.

On a shared host the speed of this interpreter-bound code drifts: on the
2-core Xeon VM where the benchmark was written it switched between two
speeds about 1.6x apart, each held for seconds to minutes, so wall-clock
medians of 20-second runs moved by up to a quarter from run to run.  The
drift slows the program and a fixed loop of Python arithmetic alike: over
10-second windows of a 150-second FISCHER stream, the mean query time
spread 0.40 (quartile distance over median), its ratio to the loop's time
0.08.

So the timing metrics are given at a fixed reference speed: a timed span
is multiplied by a factor that is 1 when the kernel's median time across
samples taken around it is ``REFERENCE_S``, and that follows the kernel's
speed as the program's time does (``QUERY_EXPONENT``).  The kernel is
benchmark code and runs outside every timed span, so a change to the
program moves scaled times as it moves wall times at a steady host speed.
The kernel allocates no container objects, so the program's heap cannot
trigger a garbage collection inside it.
"""

from __future__ import annotations

import statistics
import time
from collections import deque
from typing import Callable, Deque, List, Tuple, TypeVar

T = TypeVar("T")

#: Loop steps of one kernel sample: about 0.25 ms on the VM above at its
#: faster speed.
KERNEL_STEPS = 4000

#: The kernel time the scaled figures refer to: a scaled millisecond is a
#: millisecond on a host where one kernel sample takes this long.
REFERENCE_S = 250e-6

#: The solving loop slows more than the kernel when the host slows: on the
#: VM above, over thirty 20-second runs per workload, wall-clock queries
#: per second followed the kernel's speed (time-weighted over each run) to
#: the power 1.27 to 1.38 on all four workloads, with r^2 of 0.95 to 0.98.
#: A query's factor is therefore the kernel's speed relative to the
#: reference raised to this power.  A fresh set-up process (mostly the
#: import) follows it to about the power 0.9, so set-ups are scaled by the
#: plain ratio.
QUERY_EXPONENT = 1.3

#: Samples older than this are forgotten.
WINDOW_S = 1.0

#: A new sample is taken when the newest is older than this ...
SPACING_S = 0.05

#: ... or when the window holds fewer samples than this.
MIN_SAMPLES = 5

#: Around a span of a second or so, samples are taken this often on each
#: side, this far apart, so that they stand for the speed over a stretch
#: of time rather than over the few milliseconds of back-to-back samples.
SPREAD_SAMPLES = 10
SPREAD_GAP_S = 0.02


def kernel() -> int:
    """The fixed reference work: small-integer arithmetic, no containers."""
    total = 0
    for step in range(KERNEL_STEPS):
        total += (step * step) % 7
    return total


class SpeedGauge:
    """Samples the kernel between timed spans; gives their scale factor."""

    def __init__(self) -> None:
        #: ``(taken at, kernel seconds)``, oldest first.
        self.samples: Deque[Tuple[float, float]] = deque()
        self.taken = 0
        kernel()  # the first run of the loop is slower; it is not a sample

    def sample(self) -> None:
        started = time.perf_counter()
        kernel()
        ended = time.perf_counter()
        self.samples.append((ended, ended - started))
        self.taken += 1

    def factor(self) -> float:
        """Sample as needed; the scale factor of a query that starts now:
        ``REFERENCE_S`` over the recent median kernel time, to the power
        ``QUERY_EXPONENT``.
        """
        samples = self.samples
        now = time.perf_counter()
        while samples and samples[0][0] < now - WINDOW_S:
            samples.popleft()
        if not samples or samples[-1][0] < now - SPACING_S:
            self.sample()
        while len(samples) < MIN_SAMPLES:
            self.sample()
        return (REFERENCE_S / statistics.median(seconds for _, seconds in samples)) ** QUERY_EXPONENT

    def around(self, function: Callable[[], T]) -> Tuple[T, float]:
        """Call ``function()`` between two spread sets of samples; return
        its result and its scale factor, ``REFERENCE_S`` over the median
        kernel time of both sets."""
        before = self._spread()
        result = function()
        after = self._spread()
        return result, REFERENCE_S / statistics.median(before + after)

    def _spread(self) -> List[float]:
        seconds = []
        for _ in range(SPREAD_SAMPLES):
            started = time.perf_counter()
            kernel()
            seconds.append(time.perf_counter() - started)
            time.sleep(SPREAD_GAP_S)
        self.taken += SPREAD_SAMPLES
        return seconds
