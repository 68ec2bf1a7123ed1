"""The machine's speed, sampled with a fixed reference kernel.

The CPUs the benchmark runs on change speed by up to 2x within seconds
when other tenants of the host load them, so raw times of the same code
spread widely between runs.  The benchmark therefore also reports times
rescaled to a nominal machine speed: each stretch of a measured interval
is divided by the duration of the reference kernel run next to it and
multiplied by the kernel's duration on the nominal machine.  The kernel
lives here, outside the package, so that no change to the package
changes the yardstick.
"""

import signal
import statistics
import time
from fractions import Fraction

# The reference kernel: a fixed exact product of two small sparse
# polynomials (tuple monomials, Fraction coefficients, dict accumulation),
# the kind of work the package does, written here so that no change to
# the package changes it.  It takes about 0.5 ms on a 2.0 GHz Xeon.
_REF_A = {(i, (i * 3) % 5, (i * 7) % 4): Fraction(2 * i + 1, 3 + i % 4)
          for i in range(6)}
_REF_B = {((i * 5) % 3, i, (i * 2) % 5): Fraction(-(i + 2), 5 + i % 3)
          for i in range(6)}
REF_NOMINAL_S = 0.0005   # the kernel's time on the nominal machine
SAMPLE_EVERY_S = 0.02    # one kernel run per 20 ms of job time
SMOOTH = 2               # local speed: median of 2 * SMOOTH + 1 samples


def reference_kernel() -> dict:
    out: dict = {}
    for _ in range(3):
        for ma, ca in _REF_A.items():
            for mb, cb in _REF_B.items():
                m = tuple(x + y for x, y in zip(ma, mb))
                out[m] = out.get(m, 0) + ca * cb
    return out


def kernel_s(runs: int) -> float:
    """Median duration of ``runs`` back-to-back reference kernel runs."""
    times = []
    for _ in range(runs):
        t = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


class SpeedProbe:
    """Measures a job's time and the machine's speed while it runs.

    A timer signal runs the reference kernel every ``SAMPLE_EVERY_S``
    seconds; its duration is the machine's local speed.
    ``norm_s`` is the job time with each stretch between samples
    rescaled by the local speed: the time the job would take on the
    nominal machine, where the kernel takes ``REF_NOMINAL_S``.  The
    kernel's own time is left out of both ``job_s`` and ``norm_s``.
    """

    def __enter__(self):
        self.samples: list = []   # (start, duration)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.t1 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:   # a job shorter than one interval
            self._sample()
        return False

    def _sample(self, *_):
        t = time.perf_counter()
        reference_kernel()
        self.samples.append((t, time.perf_counter() - t))

    def probe_s(self) -> float:
        return sum(d for t, d in self.samples if t < self.t1)

    def job_s(self) -> float:
        return self.t1 - self.t0 - self.probe_s()

    def norm_s(self) -> float:
        ds = [d for _, d in self.samples]
        total, prev = 0.0, self.t0
        for i, (t, d) in enumerate(self.samples):
            local = statistics.median(ds[max(0, i - SMOOTH):i + SMOOTH + 1])
            total += (min(t, self.t1) - prev) / local
            prev = t + d
        tail = statistics.median(ds[-SMOOTH - 1:])
        total += max(self.t1 - prev, 0.0) / tail
        return total * REF_NOMINAL_S

    def kernel_s(self) -> float:
        return statistics.median(d for _, d in self.samples)
