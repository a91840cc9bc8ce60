"""Correction of timings for the speed of a shared machine.

On a host shared with other tenants the same pure-Python code runs up
to 50% slower for spells of seconds to minutes.  A timing taken in a
slow spell says more about the neighbours than about dbsrc.  A
``SpeedProbe`` therefore times a fixed reference computation, which
does not use dbsrc, while the block it guards runs, and rescales the
block's time to the speed at which one reference sample takes
``NOMINAL_S``:

    with SpeedProbe() as probe:
        start = time.perf_counter()
        work()
        elapsed = time.perf_counter() - start
    seconds = probe.corrected(elapsed)

The probe samples on entry, on exit and, from a ``SIGALRM`` handler,
every ``PERIOD_S`` while the block runs.  The handler runs in the main
thread between bytecodes, so the block runs alone in between, and the
time the samples take is taken out of the block's time.  A change that
makes dbsrc faster leaves the reference as it is, so the corrected time
falls by the same share as the raw one.
"""

import math
import signal
import statistics
import time

PERIOD_S = 0.2        # between samples inside the block
EDGE_SAMPLES = 5      # samples on entry and on exit
LOOPS = 10_000        # reference loops per sample, about 2 ms
# Seconds one sample takes at the reference speed, measured on an Intel
# Xeon at 2.1 GHz with Python 3.11 in its fast spells.  It sets only
# the scale of corrected times.
NOMINAL_S = 2.0e-3


def reference() -> float:
    """Seconds taken by a fixed mix of float arithmetic, calls and small
    allocations, like that of the scenario loop."""
    start = time.perf_counter()
    acc = 0.0
    items = []
    for i in range(LOOPS):
        x = math.sin(i * 1e-3)
        items.append((x, i))
        acc += x * x
        if len(items) == 64:
            items.clear()
    return time.perf_counter() - start


class SpeedProbe:
    """Samples ``reference`` around and during a ``with`` block."""

    def __init__(self):
        self.samples = []
        self.inside_s = 0.0   # time the samples took inside the block
        self._handler = None

    def __enter__(self):
        self.samples += [reference() for _ in range(EDGE_SAMPLES)]
        self._handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._handler)
        self.samples += [reference() for _ in range(EDGE_SAMPLES)]
        return False

    def _tick(self, _signum, _frame):
        sample = reference()
        self.samples.append(sample)
        self.inside_s += sample

    def factor(self) -> float:
        """How much slower than the reference speed the machine ran.

        Samples come at equal steps of wall time, and the work the block
        does in a step is inversely proportional to the sample's time.
        The block's time at the reference speed is therefore its wall
        time times the mean of ``NOMINAL_S / sample``, which makes the
        factor the harmonic mean of the samples over ``NOMINAL_S``.
        """
        return statistics.harmonic_mean(self.samples) / NOMINAL_S

    def corrected(self, elapsed: float) -> float:
        """``elapsed``, measured inside the block, without the samples
        and at the reference speed."""
        return (elapsed - self.inside_s) / self.factor()
