"""A fixed reference computation, timed beside the workload: the unit ``ref``.

On a small shared host the CPU a process gets runs at one of two speeds,
about 1.6x apart, for stretches of seconds to minutes, and every operation
of a workload slows with it.  The calls child therefore times this kernel,
which does not touch chshkit, right after the operations it measures (once
at least ``EVERY_S`` seconds of operations have gone by, and at the end of
each pass), and each operation's time is divided by the sample that follows
it.  The ratio moves when chshkit gets faster or slower, not when the host
does.

The kernel is the kind of work chshkit's calls are made of: small complex
matrix products, element-wise numpy arithmetic and small SVDs, and rows of
numpy integers formatted into text, about a millisecond in all.  Over 200 s
of 5 s windows on a 2-vCPU Intel Xeon VM this mix tracked the slow phases
of simulate, optimize and dilation calls better than either half alone (the
spread of the ratio was a half to a third of the spread of the raw time);
pure interpreter arithmetic slowed less than chshkit's calls, so it is left
out.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Operation seconds after which a reference sample is taken.
EVERY_S = 0.05

#: Kernel runs per sample; the sample is their median.
RUNS = 3

_SQUARE = np.random.default_rng(0).standard_normal((4, 4)) + 0j
_SVD = np.random.default_rng(1).standard_normal((6, 6)) * (1 + 0.5j)
_BITS = np.random.default_rng(2).integers(0, 2, (5, 300))


def kernel() -> None:
    for _ in range(30):
        product = _SQUARE @ _SQUARE
        (np.abs(product) ** 2).sum()
        np.exp(1j * np.angle(product))
    for _ in range(15):
        np.linalg.svd(_SVD)
    x, y, q, r, win = _BITS
    "\n".join([f"{i},{x[i]},{y[i]},{q[i]},{r[i]},{win[i]}" for i in range(len(x))])


def sample() -> float:
    """Seconds one kernel run takes now: the median of ``RUNS`` runs."""
    times = []
    for _ in range(RUNS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Refs:
    """Reference samples for a sequence of timed operations, one per operation.

    ``add`` records an operation's seconds and takes a sample once ``EVERY_S``
    seconds of operations have gone by without one; ``flush`` takes one for
    the operations still waiting.  Each operation gets the first sample taken
    after it, in ``refs``.
    """

    def __init__(self) -> None:
        self.refs: list[float | None] = []
        self._since = 0.0

    def add(self, seconds: float) -> None:
        self.refs.append(None)
        self._since += seconds
        if self._since >= EVERY_S:
            self.flush()

    def flush(self) -> None:
        if not self.refs or self.refs[-1] is not None:
            return
        ref = sample()
        i = len(self.refs)
        while i and self.refs[i - 1] is None:
            i -= 1
            self.refs[i] = ref
        self._since = 0.0
