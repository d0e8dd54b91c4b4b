"""Reference-speed sampler for the timed phase.

On a shared host the speed of one core drifts by up to ~40% over phases
of 2 to 20 seconds, as co-tenants load the sibling hardware thread. A
run of 20 to 40 seconds cannot average that out, so raw op times spread
widely from seed to seed. While ops run, `SpeedSampler` times a fixed
reference kernel on SIGALRM every `INTERVAL_S` seconds, in this same
thread. Each op's latency, minus the sampler's own time, is then scaled
to reference speed: `raw * REF_KERNEL_S / median(kernel times around the op)`.
Each set-up process runs its own sampler, and its time is scaled by the
median of all its kernel times. A sampler in the parent process would
time another core than the one running the set-up.
The kernel mixes interpreter work and small numpy calls, like the
program's hot paths. Raw times are printed next to the scaled ones.
"""

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.1
# Kernel time at reference speed: the median on the 2-vCPU Xeon host the
# benchmark was tuned on, when no co-tenant loaded it.
REF_KERNEL_S = 0.00075
# Kernel samples up to this far outside an op still describe its speed.
PAD_S = 0.5

_DATA = np.random.default_rng(0).random(4096)


def kernel():
    s = 0
    for k in range(4000):
        s += k * k
    for _ in range(4):
        np.argsort(_DATA)
    return s


class SpeedSampler:
    """Context manager that samples the kernel while it is entered."""

    def __init__(self):
        self.samples = []   # (perf_counter at start, kernel seconds)
        self.busy_s = 0.0   # total time spent in the kernel
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        self.samples.append((t0, dt))
        self.busy_s += dt

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, t0, t1):
        """Factor that converts a time spent over [t0, t1] to reference speed."""
        near = [dt for t, dt in self.samples if t0 - PAD_S <= t <= t1 + PAD_S]
        near = near or [dt for _, dt in self.samples]
        return REF_KERNEL_S / statistics.median(near) if near else 1.0
