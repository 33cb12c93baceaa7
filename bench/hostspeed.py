"""Operation time in units of a fixed reference kernel, measured while the
operation runs.

The benchmark runs on virtual CPUs shared with other tenants, whose speed
switches between a fast and a slow state for stretches of a fraction of a
second to minutes (1.0x to 2.2x the fastest time per iteration on the
2-vCPU host described in README.md).  A wall time of one run then reads
how long the host stayed slow, and two sets of runs of the same code
disagree by more than any useful regression bound.  The two vCPUs slow
down independently, so a probe on the other core cannot track it; only
work on the same core, at the same moment, can.

While an operation runs, a ``SIGALRM`` timer interrupts it every
``INTERVAL_S`` seconds and the handler times a reference kernel, a fixed
mix of the work the workload's hot path does: ``reference_kernel()``
(small complex matrix exponentials, matrix products and
eigendecompositions, and interpreted Python loops) for the integrator, and
``design_kernel()``, which adds JSON round trips, scalar math and numpy
calls on matrices of dimension 4 to 64, for the closed-form design scan.
Different kinds of work slow down by different factors when the host
does, so a kernel that does other work than the operation tracks it
less well.  Each stretch of operation time between two samples is
divided by the kernel time measured right after it, and the quotients are
summed: the operation's work in kernel units, ``ref``.  On a steady host
this is the wall time over one kernel time; when the host slows, both
slow together and the quotient stays.  The kernel time is excluded from
the operation's time.  The kernel is part of the benchmark, so a change
to the package cannot change it.
"""

from __future__ import annotations

import bisect
import json
import math
import signal
import statistics
import time

import numpy as np
import scipy.linalg

#: Seconds between samples.  A sample costs about 3 ms with
#: ``reference_kernel()`` and 8 ms with ``design_kernel()`` on the host in
#: README.md, so the operation is interrupted for 5 % or 13 % of its time.
INTERVAL_S = 0.06

_RNG = np.random.default_rng(20_24)
_M = _RNG.standard_normal((24, 24)) + 1j * _RNG.standard_normal((24, 24))
_H = 0.05 * (_M + _M.conj().T)


def reference_kernel() -> None:
    """Fixed work, about 1 ms each of: scipy matrix exponentials of a 24x24
    Hermitian matrix, 24x24 products with a 1-norm, and an interpreted
    dictionary loop.  Never changes between commits."""
    for _ in range(8):
        scipy.linalg.expm(-1j * _H)
    x = _H
    for _ in range(16):
        x = (_H @ x) * 0.1
        np.linalg.norm(x, 1)
    np.linalg.eigh(_H)
    acc, table = 0, {}
    for i in range(6000):
        table[i & 255] = acc
        acc += i * 3 % 7


_DOC = {
    "steps": [
        {"name": f"s{i}", "duration": 1.234e-7 * i,
         "drives": [{"q": j, "amp": 0.1 * j, "phase": math.pi / (j + 1)} for j in range(4)]}
        for i in range(6)
    ],
    "meta": {"n": 3, "k": 1},
}
_SQUARES = [_RNG.standard_normal((d, d)) + 1j * _RNG.standard_normal((d, d))
            for d in (4, 8, 16, 32, 64)]


def design_kernel() -> None:
    """``reference_kernel()`` plus about 2 ms each of: JSON dumps/loads of
    a small schedule-like document with interpreted scalar math, and
    Kronecker products, matrix products, traces and elementwise calls on
    complex matrices of dimension 4 to 64.  Never changes between commits."""
    reference_kernel()
    for _ in range(12):
        json.loads(json.dumps(_DOC, sort_keys=True))
    acc = 0.0
    for i in range(3000):
        acc += math.sqrt(i) * math.cos(i * 1e-3)
    for _ in range(4):
        for m in _SQUARES:
            u = np.kron(np.eye(2), m) if m.shape[0] <= 16 else m
            x = u @ u.conj().T
            np.trace(x)
            np.abs(np.diag(x)).sum()
            np.exp(1j * np.angle(np.diag(x)))


class Sampler:
    """Times ``kernel()`` from a ``SIGALRM`` handler inside
    ``with sampler:`` blocks; ``samples`` holds the (start, end)
    ``perf_counter`` times of every kernel run, in order."""

    def __init__(self, interval: float = INTERVAL_S, kernel=reference_kernel):
        self.interval = interval
        self.kernel = kernel
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def _handler(self, signum, frame) -> None:
        start = time.perf_counter()
        self.kernel()
        self.samples.append((start, time.perf_counter()))

    def sample_now(self) -> None:
        self._handler(None, None)

    def __enter__(self) -> Sampler:
        """Arm the timer; the first time, warm the kernel's caches and
        take one sample, so every later operation has an earlier one."""
        if not self.samples:
            self.kernel()
            self.sample_now()
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def in_reference_units(t0: float, t1: float, samples: list[tuple[float, float]]) -> float:
    """Work of the operation that ran from ``t0`` to ``t1``, in kernel
    units: each stretch of operation time up to a sample, divided by that
    sample's kernel time; the stretch after the last sample is divided by
    the last kernel time.  With no sample inside the interval the nearest
    earlier one (else the first) stands in."""
    starts = [s for s, _ in samples]
    lo = bisect.bisect_left(starts, t0)
    hi = bisect.bisect_right(starts, t1)
    inside = [(s, e) for s, e in samples[lo:hi] if e <= t1]
    if not inside:
        s, e = samples[max(lo - 1, 0)]
        return (t1 - t0) / (e - s)
    units, edge = 0.0, t0
    for s, e in inside:
        units += (s - edge) / (e - s)
        edge = e
    s, e = inside[-1]
    return units + (t1 - edge) / (e - s)


def kernel_time(t0: float, t1: float, samples: list[tuple[float, float]]) -> float:
    """Seconds of ``[t0, t1]`` spent in the kernel."""
    return sum(e - s for s, e in samples if t0 <= s and e <= t1)


def median_kernel_s(samples: list[tuple[float, float]]) -> float:
    return statistics.median(e - s for s, e in samples)
