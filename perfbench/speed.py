"""Host-speed probe: turns measured seconds into seconds at a fixed
reference CPU speed.

The benchmark runs on a few vCPUs of a shared host.  A neighbour loading the
same physical core slows a vCPU by up to 2x for seconds at a time, on one
vCPU independently of the other, with no steal time and no hardware counter
to show it.  Raw wall times of one workload then spread by a quarter of
their median from run to run.

``SpeedProbe`` times a fixed pure-Python kernel every ``INTERVAL_S`` seconds
of a timed section, from a ``SIGALRM`` handler, so each sample runs in the
measured process on the CPU it is using at that moment.  A sample's speed is
``REFERENCE_KERNEL_S / sample``; the section's time at reference speed is its
wall time, less the time spent in the probe, times the mean speed of its
samples.  ``reference_scale`` does the same for a child process measured
from the parent, from kernels timed right before and right after it on the
same pinned CPU.

The kernel does what the package's group code does most: it composes
permutations stored as tuples and hashes them into a set.  Of the kernels
tried, its slowdowns tracked the workloads' most closely (see README.md).
It runs with the garbage collector off, so it never collects the
workload's objects.
"""

from __future__ import annotations

import gc
import random
import signal
from time import perf_counter

# Time of one kernel call on an unloaded core of the machine the benchmark
# was written on (Intel Xeon, 2 vCPUs, Python 3.11.7).  It only sets the
# scale of the normalised figures, close to raw seconds on a quiet host.
REFERENCE_KERNEL_S = 330e-6
INTERVAL_S = 0.02

_PERMUTATIONS = tuple(tuple(random.Random(seed).sample(range(24), 24))
                      for seed in range(64))


def kernel(rounds: int = 320) -> int:
    """Composes permutations of degree 24 and hashes them into a set."""
    perms = _PERMUTATIONS
    seen = set()
    p = perms[0]
    for k in range(rounds):
        q = perms[k % 64]
        p = tuple([p[x] for x in q])
        seen.add(p)
    return len(seen)


def sample() -> float:
    """Seconds one kernel call takes now, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        kernel()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def reference_scale(samples: list[float]) -> float:
    """Mean speed of the samples relative to the reference core."""
    return sum(REFERENCE_KERNEL_S / s for s in samples) / len(samples)


class SpeedProbe:
    """Samples the kernel every ``INTERVAL_S`` between ``start`` and ``stop``."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _handler(self, _signum, _frame) -> None:
        start = perf_counter()
        self.samples.append(sample())
        self.spent += perf_counter() - start

    def start(self) -> None:
        self.samples.append(sample())
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(sample())

    def scale(self) -> float:
        return reference_scale(self.samples)

    def normalise(self, elapsed: float) -> float:
        """``elapsed`` (which contained the handler calls) at reference speed."""
        return (elapsed - self.spent) * self.scale()
