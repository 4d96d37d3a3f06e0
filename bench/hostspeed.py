"""Host-speed samples for normalizing timings on a host whose speed drifts.

A sample is the time of SAMPLE_LOOPS turns of a fixed reference loop that
calls no sbtkit code: Python method calls with float arithmetic, the kind
of work the per-sample and per-evaluation loops of sbtkit do.
``HostSampler`` takes one sample when timed work starts, one every
PERIOD_S while it runs (from a SIGALRM handler, between two bytecodes of
the work) and one when it ends.  The work's time, less the samples taken
inside it, divided by the mean sample and scaled to SAMPLE_NOMINAL_MS, is
its normalized time.

Standard library only, so a fresh interpreter can start sampling before
it imports numpy.
"""

from __future__ import annotations

import signal
import time

SAMPLE_LOOPS = 1500
PERIOD_S = 0.02
# Median sample on the host the benchmark was written on (2-core x86-64
# VM, Python 3.11).  Normalized times read as times on a host that runs a
# sample in this long.
SAMPLE_NOMINAL_MS = 0.25


class _RefState:
    __slots__ = ("acc",)

    def __init__(self):
        self.acc = 0.0

    def add(self, x: float) -> None:
        self.acc = self.acc * 0.5 + x


def sample_ms() -> float:
    """Time (ms) of one run of the reference loop."""
    start = time.perf_counter()
    state = _RefState()
    for i in range(SAMPLE_LOOPS):
        state.add(i * 0.25)
    return (time.perf_counter() - start) * 1e3


def scale(samples: list[float]) -> float:
    """Factor from wall time to normalized time for work these samples
    were taken around and during."""
    return SAMPLE_NOMINAL_MS * len(samples) / sum(samples)


class HostSampler:
    """Context manager that samples host speed around and during the work
    it encloses.

    ``samples`` holds every sample of the last use; ``inside_ms`` is the
    part of them taken inside the work, to be subtracted from its time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.inside_ms = 0.0
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        ms = sample_ms()
        self.samples.append(ms)
        self.inside_ms += ms

    def __enter__(self):
        self.samples = [sample_ms()]
        self.inside_ms = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(sample_ms())
