"""Machine-speed probe sampled inside a timed invocation.

On a shared host the same invocation's wall time moves by up to 2x within
seconds and by 30% over minutes, with CPU time moving alongside it: the
vCPU itself runs slower while a neighbour is busy.  The benchmark therefore
samples the current speed of the vCPU while the program runs.  Every
``INTERVAL_S`` of wall time a SIGALRM handler times ``SPIN`` iterations of a
fixed integer loop, which allocates nothing the garbage collector tracks.
The median sample time over a window, against ``REF_PROBE_S``, is how much
slower than the reference the machine ran during that window, and

    scaled_s = (wall_s - time spent in the probe) * REF_PROBE_S / median sample

is the window's wall time at the reference speed.  On a machine where the
probe's median is ``REF_PROBE_S`` it equals the wall time less the probe.
The constant only sets the scale: it is the probe's median on a 2-vCPU
Intel Xeon VM during its fast phases, and both sides of a comparison use it.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.005    # one probe per 5 ms: under 1% of the run, about 200 samples a second
SPIN = 400            # loop iterations per probe, about 35 us
BURST = 20            # probes taken at once when a window opens, so short windows have samples
REF_PROBE_S = 35e-6


def _spin(n: int = SPIN) -> int:
    x = 0
    for i in range(n):
        x = (x * 31 + i) & 0xFFFF
    return x


class SpeedProbe:
    """Samples the probe on a timer, into the window that is open."""

    def __init__(self) -> None:
        self._samples: list[float] = []
        self._t0 = 0.0
        self._previous = None

    def _sample(self, *_) -> None:
        t0 = perf_counter()
        _spin()
        self._samples.append(perf_counter() - t0)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def open(self) -> None:
        """Open a window and take a burst of samples in it."""
        self._samples = []
        self._t0 = perf_counter()
        for _ in range(BURST):
            self._sample()

    def close(self, wall_s: float | None = None) -> dict:
        """Close the window; ``wall_s`` overrides its wall time when it began earlier."""
        if wall_s is None:
            wall_s = perf_counter() - self._t0
        samples = self._samples
        net_s = wall_s - sum(samples)
        median = statistics.median(samples)
        return {
            "wall_s": net_s,
            "scaled_s": net_s * REF_PROBE_S / median,
            "probe_median_s": median,
            "probe_samples": len(samples),
        }
