"""How fast this machine runs right now, sampled on the benchmark's own thread.

A shared virtual machine does not run at one speed. On the 2-core machine
this benchmark was built on, a fixed loop ran at one speed or at about half
of it, switching many times a second, and whole minutes ran slower than
others. A wall time alone then measures the neighbours as much as the
program.

``SpeedProbe`` runs a fixed reference kernel every ``INTERVAL`` seconds
from a SIGALRM handler, on the thread that runs the program, so each
sample sees the core as the program sees it. The kernel uses only the
standard library and numpy, never the package under test, so a change to
the program cannot move it. ``speed`` is ``NOMINAL_S`` over a sample's
duration: 1.0 at the speed the machine had when it was fast, about 0.5
when it was slow. Samples come at even steps of wall time, so their mean
speed is the share of nominal work the machine could do per second, and a
program that ran for ``t`` seconds did ``t * mean speed`` seconds of work
at nominal speed. ``nominal_s`` returns that, with the probe's own time
taken out of ``t`` first.

The kernel and the program do not slow by exactly the same factor, so
nominal seconds still vary a little with the machine's state; NOTES.md
gives the spreads measured with and without the probe.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL = 0.04     # seconds between samples
NOMINAL_S = 4.5e-4  # the kernel's duration on the fast machine
MIN_SAMPLES = 12    # samples behind a speed, about half a second of them

# The kernel's inputs are fixed and small (about 150 KB), so a sample takes
# 0.5-0.9 ms, about 2% of the interval.
_rng = np.random.default_rng(0)
_a = _rng.standard_normal((6, 6))
_SPD = _a @ _a.T + 6 * np.eye(6)
_VEC = _rng.standard_normal(6)
_ROWS = _rng.standard_normal((2000, 6))
_IDX = _rng.integers(0, 2000, 4000)
_TEXT = ",".join(f"{x:.6g}" for x in _rng.standard_normal(400))


def kernel() -> float:
    """Interpreter loop, small LAPACK calls, a gather, float parsing and formatting.

    The same mix as the pipeline: the Gibbs sweep makes many small numpy
    calls and gathers, and the CSV readers and writers parse and format floats.
    """
    s = 0.0
    for i in range(900):
        s += i * 0.5
    for _ in range(8):
        s += float(np.linalg.solve(np.linalg.cholesky(_SPD), _VEC)[0])
    s += float(_ROWS[_IDX].sum())
    s += sum(float(t) for t in _TEXT.split(","))
    s += len(",".join(f"{x:.6g}" for x in _ROWS[:120, 0]))
    return s


class SpeedProbe:
    """Samples the kernel between ``start`` and ``stop``."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (start, duration)
        self._previous = None
        kernel()    # warm up before the first timed sample

    def _sample(self, _signum, _frame) -> None:
        start = time.perf_counter()
        kernel()
        self.samples.append((start, time.perf_counter() - start))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def window(self, a: float, b: float) -> list[tuple[float, float]]:
        return [s for s in self.samples if a <= s[0] < b]

    def mean_speed(self, a: float = float("-inf"), b: float = float("inf")) -> float:
        """Mean of NOMINAL_S / duration over the samples that started in [a, b).

        An interval too short to hold ``MIN_SAMPLES`` samples is widened
        about its middle until it does, or until it holds all of them.
        """
        if not self.samples:
            self._sample(None, None)
        inside = self.window(a, b)
        half = (b - a) / 2
        while len(inside) < min(MIN_SAMPLES, len(self.samples)):
            half = max(2 * half, INTERVAL)
            inside = self.window((a + b) / 2 - half, (a + b) / 2 + half)
        return sum(NOMINAL_S / d for _s, d in inside) / len(inside)

    def nominal_s(self, a: float, b: float) -> float:
        """Seconds of work at nominal speed done in the wall interval [a, b)."""
        probe_s = sum(d for _s, d in self.window(a, b))
        return (b - a - probe_s) * self.mean_speed(a, b)
