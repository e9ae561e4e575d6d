"""Machine-speed calibration.

The benchmark shares its host with other load, and on the 2-core Xeon
machine it was written on the speed of everything drifted by up to 2x
within an hour, uniformly across commands, and by several percent from
one second to the next.  Timings are therefore reported scaled to a
nominal machine, by the time of a fixed kernel run next to them on the
same CPU (run.py pins itself and its children to one).  The kernel does
the same kinds of work as cavqed (numpy FFTs, float formatting, an
interpreter loop, unmarshalling code objects as imports do) but none of
cavqed's code:

* in-process loops run it at most every INTERVAL_S, and each pass is
  scaled by the median of the NEAREST kernel runs in time;
* each fresh interpreter (a cold-cli operation, a set-up) is preceded by
  three kernel runs and scaled by their median.

reported time = measured time * NOMINAL_S / kernel median; throughputs
are scaled by the inverse.  A change to cavqed cannot move the kernel,
so the scaling cancels host drift and nothing else.  The report line
gives the values as measured too.
"""

import marshal
import statistics
import time

import numpy as np

NOMINAL_S = 0.020
INTERVAL_S = 0.5  # at most one kernel run per half second of a timed loop
NEAREST = 5

_SOURCE = "\n".join(
    f"def f{i}(a, b=({i}, 'x{i}')):\n    return [a * k + {i} for k in range(b[0])]\n"
    for i in range(200))
_CODE = marshal.dumps(compile(_SOURCE, "<calibration>", "exec"))
_X = np.sin(np.linspace(0.0, 50.0, 3001))
_E = np.linspace(-6000.0, 6000.0, 3001)


def kernel_seconds():
    """Time one run of the calibration kernel."""
    t0 = time.perf_counter()
    spectrum = np.fft.rfft(_X, 8192)
    for _ in range(8):
        np.fft.irfft(spectrum * np.fft.rfft(_X, 8192), 8192)
    "".join(map("{:.17g},{:.17g}\n".format, _E.tolist(), _X.tolist()))
    " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(_E, _X))
    total = 0
    for i in range(30000):
        total += i * i
    for _ in range(5):
        marshal.loads(_CODE)
    return time.perf_counter() - t0


def paired_kernel_seconds():
    """Median of three kernel runs, taken right before a fresh interpreter."""
    return statistics.median(kernel_seconds() for _ in range(3))


class Sampler:
    """Runs the kernel at most once per INTERVAL_S when `maybe` is called;
    `samples` holds (start time, kernel seconds) pairs."""

    def __init__(self):
        self.samples = []
        self._last = None

    def maybe(self):
        now = time.perf_counter()
        if self._last is None or now - self._last >= INTERVAL_S:
            self.samples.append((now, kernel_seconds()))
            self._last = time.perf_counter()


def speed(samples, t):
    """Machine slowness at time t relative to nominal (2.0 = twice as slow)."""
    nearest = sorted(samples, key=lambda sample: abs(sample[0] - t))[:NEAREST]
    return statistics.median(seconds for _, seconds in nearest) / NOMINAL_S
