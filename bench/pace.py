"""Times at a fixed machine pace.

The benchmark shares a few vCPUs of a host with other tenants.  A fixed
Python loop takes between one and two times its fastest time, and the
pace changes within a fraction of a second, so raw wall times of the same
work spread by a third from one run to the next.  ``Pace`` samples the
pace while the benchmark runs: a timer signal interrupts the process every
``INTERVAL`` seconds and times ``reference_work``, a fixed bit of
interpreter work of the kind dx does.  ``seconds(start, end)`` then turns a
raw interval into the seconds it would have taken at the reference pace:
the raw time less the time spent in the samples, scaled by the mean of
``REF_SECONDS / sample`` over the samples around the interval.

The samples run inside the measured process and need no other thread or
process.  They cost about 2% of the time; that share is the same for every
version of dx, and it is taken out of every interval.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from typing import List

INTERVAL = 0.02
# reference_work's fastest time on the 2.0 GHz Xeon vCPU the benchmark was
# tuned on; any constant would do, this one makes paced times read as the
# seconds of an unloaded core of that machine
REF_SECONDS = 0.00031
WINDOW = 0.05


def reference_work(rounds: int = 400) -> int:
    """Small tuples and frozensets hashed into a dict and a set, then a
    sort.  It frees what it allocates."""
    seen = {}
    acc = set()
    for i in range(rounds):
        key = (i % 7, i % 11, i % 13)
        seen[key] = seen.get(key, 0) + 1
        acc.add(frozenset(key[:2]))
    return len(sorted(seen)) + len(acc)


def pace_factor(samples: List[float], ref: float = REF_SECONDS) -> float:
    """Mean of ref/sample: the share of the reference pace the machine ran
    at, averaged over time (samples are evenly spaced in time)."""
    if not samples:
        raise ValueError("no pace samples")
    return sum(ref / s for s in samples) / len(samples)


class Pace:
    """Samples the machine's pace on a timer signal between ``start`` and
    ``stop``; ``seconds`` converts raw intervals measured meanwhile."""

    def __init__(self, interval: float = INTERVAL) -> None:
        self.interval = interval
        self.at: List[float] = []     # when each sample started
        self.took: List[float] = []   # how long the reference work took
        self.spent: List[float] = []  # how long the handler held the process
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        reference_work()
        t1 = time.perf_counter()
        if enabled:
            gc.enable()
        self.at.append(t0)
        self.took.append(t1 - t0)
        self.spent.append(time.perf_counter() - t0)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def seconds(self, start: float, end: float) -> float:
        """Seconds that [start, end] would have taken at the reference pace,
        without the samples taken inside it."""
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_left(self.at, end)
        raw = end - start - sum(self.spent[lo:hi])
        wlo = bisect.bisect_left(self.at, start - WINDOW)
        whi = bisect.bisect_left(self.at, end + WINDOW)
        # a short interval far from any sample takes the nearest few
        while whi - wlo < 3 and (wlo > 0 or whi < len(self.at)):
            wlo, whi = max(0, wlo - 1), min(len(self.at), whi + 1)
        return raw * pace_factor(self.took[wlo:whi])

    def factor(self) -> float:
        """The pace over every sample so far."""
        return pace_factor(self.took)
