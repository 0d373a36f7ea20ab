"""Speed probe: converts wall time on a shared CPU into reference seconds.

The benchmark runs on a few virtual CPUs of a shared host.  How fast such a
CPU runs the same code changes by up to 1.8x from one second to the next
and can stay slow for minutes at a time, with no steal time reported and
the other CPU idle, most likely because other tenants share its physical
core.  A timing taken in a slow
stretch is not comparable with one taken in a fast stretch.

So while a process works, a profiling timer (SIGPROF, every ``INTERVAL_S``
of CPU time) interrupts it to run ``probe()``, a fixed piece of interpreter
and integer work that does not touch bernkit.  Each stretch of work between
two probes is rescaled by how slow the probes around it ran compared with
``REF_PROBE_S``, and the probes' own time is left out.  The sum is the
work's duration in *reference seconds*: the time it would have taken had
the CPU run the probe at ``REF_PROBE_S`` throughout.  Code that does more
work still takes more reference seconds, so a change to bernkit moves the
figure as it moves wall time; only the host's speed swings drop out.

``REF_PROBE_S`` is a fixed constant, not measured per run, so a run made
while the whole host is slow still reads the same as one made while it is
fast.
"""

from __future__ import annotations

import signal
import time
from array import array

# probe()'s duration on the 2-vCPU Xeon host the benchmark was defined on,
# in its fast spells (35-37 us; the slow spells read 50-75 us).
REF_PROBE_S = 36e-6
INTERVAL_S = 0.005
WINDOW = 21  # probes (about 0.1 s) whose median gives the speed of a stretch


def _median(xs) -> float:
    s = sorted(xs)
    return (s[(len(s) - 1) // 2] + s[len(s) // 2]) / 2


_TABLE = {i: i * 2654435761 for i in range(64)}
_BIG = 3 ** 2000
_BIG2 = 7 ** 1500


def probe() -> int:
    """Fixed work: dict lookups, small-integer arithmetic, calls and one
    multiplication of two integers of a few thousand bits."""
    x = 0
    get = _TABLE.get
    for i in range(150):
        x = (x + get(i & 63) * 7919) % 1000003
    return x + (_BIG * _BIG2 & 0xFFFF)


class Sampler:
    """Runs probe() every INTERVAL_S of CPU time while active."""

    def __init__(self) -> None:
        # One flat array, so that recording allocates no Python objects that
        # outlive the handler and the work's memory use (peak_rss_mb) stays
        # as it is without the probe.
        self._flat = array("d")
        self.t0 = self.t1 = 0.0

    def _handler(self, signum, frame) -> None:
        # The first pass brings the probe back into the caches the work
        # evicted it from; only the second is timed as the CPU's speed.
        perf = time.perf_counter
        t = perf()
        probe()
        t1 = perf()
        probe()
        t2 = perf()
        self._flat.extend((t, t2 - t, t2 - t1))

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._handler)
        self.t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        self.t1 = time.perf_counter()
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    @property
    def samples(self) -> list[tuple[float, float, float]]:
        """(start, handler duration, timed probe duration) per probe."""
        f = self._flat
        return list(zip(f[0::3], f[1::3], f[2::3]))

    def result(self) -> dict:
        samples = self.samples
        probe_s = [p for _, _, p in samples]
        return {"span_s": self.t1 - self.t0,
                "wall_s": self.t1 - self.t0 - sum(h for _, h, _ in samples),
                "ref_s": reference_seconds(self.t0, self.t1, samples),
                "probe_median_s": _median(probe_s) if probe_s else None}


def reference_seconds(t0: float, t1: float,
                      samples: list[tuple[float, float, float]]) -> float:
    """Work between t0 and t1 in reference seconds.  ``samples`` are, in
    order, the start of each probe handler, the handler's duration (left
    out of the work) and the timed probe's duration."""
    if not samples:  # too short to be probed: count it at face value
        return t1 - t0
    probe_s = [p for _, _, p in samples]
    half = WINDOW // 2
    speed = [_median(probe_s[max(0, i - half):i + half + 1]) / REF_PROBE_S
             for i in range(len(probe_s))]
    total = (samples[0][0] - t0) / speed[0]
    ends = [t for t, _, _ in samples[1:]] + [t1]
    for (start, handler_s, _), end, s in zip(samples, ends, speed):
        total += (end - start - handler_s) / s
    return total
