"""Step timing scaled by the machine's speed at the time.

On a shared machine the interpreter's speed drifts by up to 2x within
seconds, and that drift swamps the program's own run-to-run spread. So
while a step runs, a timer signal interrupts it every `PERIOD_S` to run a
calibration slice: a fixed interpreter-bound loop that does not touch
xistep. The slices sample the machine's speed across the step. A step's
work time is its wall time minus the slices, and its scaled time is the work
time times `REFERENCE_SLICE_S` over the mean slice time during that step: it
reads as seconds on a machine where one slice takes `REFERENCE_SLICE_S`. A
change to xistep moves it; the machine's load much less. Raw work seconds
are kept as well.
"""

import math
import signal
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction

# a typical slice time on the 2-vCPU Intel Xeon (2.0 GHz) on which the
# benchmark was defined; the slice time there ranged over 3-6 ms
REFERENCE_SLICE_S = 0.0045
PERIOD_S = 0.1
# the first slice of a step comes at once, so every step has one
FIRST_SLICE_S = 0.001


def calibration_slice():
    """Tuple and dict churn, float math and small Fraction arithmetic: the
    mix the dual loop and the exact engine spend their time on."""
    table = {}
    total = 0.0
    acc = Fraction(0)
    for i in range(1, 3000):
        t = (i, i + 1, i * 3 % 7)
        table[t[2]] = t
        total += math.exp(-(i % 13) * 0.1) * t[1]
        if i % 10 == 0:
            acc = (Fraction(i % 89 + 1, i % 97 + 2) * Fraction(3, 7)
                   + Fraction(1, i % 50 + 1))
    return total, acc


def timed_slice():
    t0 = time.perf_counter()
    calibration_slice()
    return time.perf_counter() - t0


def bracket(slices=10):
    """Median seconds of consecutive calibration slices, for work too
    short to sample."""
    return statistics.median(timed_slice() for _ in range(slices))


class Stopwatch:
    """Times named steps with calibration slices sampled during each. With
    a tracer, each step is also a span `bench.<name>`."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.steps = []      # (name, work seconds, slice seconds)

    @contextmanager
    def step(self, name):
        slices = []

        def sample(signum, frame):
            slices.append(timed_slice())

        previous = signal.signal(signal.SIGALRM, sample)
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, FIRST_SLICE_S, PERIOD_S)
        try:
            if self.tracer is None:
                yield
            else:
                with self.tracer.span(f"bench.{name}"):
                    yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            wall = time.perf_counter() - t0
            signal.signal(signal.SIGALRM, previous)
        work = wall - sum(slices)
        if not slices:      # a step shorter than the first slice's delay
            slices.append(timed_slice())
        self.steps.append((name, work, slices))

    def raw(self, names=None):
        """Work seconds of the named steps (all when None)."""
        return sum(w for n, w, _ in self.steps
                   if names is None or n in names)

    def scaled(self, names=None):
        """Work seconds of the named steps at reference speed."""
        return sum(w * REFERENCE_SLICE_S / statistics.fmean(s)
                   for n, w, s in self.steps
                   if names is None or n in names)
