"""Host speed, sampled while the jobs run, for timing in reference units.

The host is shared: the same job can run up to 2x slower for seconds or
minutes at a time while other tenants load it, and its CPU time slows as
much as its wall time, so neither a median over a run nor CPU time removes
the swing.  A Sampler times a fixed computation of the benchmark's own
(WORK: a brute-force Berge-C4 search over 8 hyperedges of the q=2 blow-up,
pure Python that calls nothing of the package, about 0.5 ms on a quiet
host) every INTERVAL seconds from a SIGALRM handler, so samples fall inside
the jobs as well as between them.  `Sampler.measure` takes the handler's
time out of a job's seconds and divides what is left by the trimmed mean
of the samples taken during the job and the NEAR samples on either side.
A slowdown that hits the job and the samples alike cancels; a change to the
program moves the result as it moves seconds.
"""

from __future__ import annotations

import bisect
import signal
import time

from .checks import has_berge_c4
from .inputs import blow_up

WORK = blow_up(2)[1][:8]   # Berge-C4-free, so the search runs to the end
INTERVAL = 0.01
NEAR = 2
TRIM = 5                   # drop the lowest and highest 1/TRIM of the samples


class Sampler:
    """Use as a context manager around the jobs; the timer runs only inside."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        has_berge_c4(WORK)
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()   # so that even a batch shorter than INTERVAL has one
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def measure(self, start: float, end: float) -> tuple[float, float]:
        """(seconds of [start, end] not spent in the handler, the same in
        reference units) for a span inside the sampled period."""
        lo = bisect.bisect_right(self.ends, start)    # first sample ending after start
        hi = bisect.bisect_left(self.starts, end)     # first sample starting at or after end
        handler = sum(min(e, end) - max(s, start)
                      for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]))
        seconds = end - start - handler
        first, last = max(0, lo - NEAR), hi + NEAR
        near = sorted(e - s for s, e in zip(self.starts[first:last], self.ends[first:last]))
        cut = len(near) // TRIM
        kept = near[cut:len(near) - cut]
        return seconds, seconds * len(kept) / sum(kept)
