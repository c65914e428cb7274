"""A host-speed yardstick that rescales measured times to a fixed speed.

The benchmark runs on shared virtual machines whose speed drifts by
tens of percent within minutes, because of other tenants on the same
physical host; the drift shows in user time as much as in wall time,
so neither can be compared across runs as it is.  The yardstick is a
fixed slice of work owned by the benchmark and shaped like the
program's own -- random draws, small-array distance tests and a toy
flood on a random geometric graph -- and it is timed around and, on a
timer, during every operation.  An operation's *scaled* time is its
wall time, less the yardstick's own time, multiplied by
``REFERENCE_S`` over the yardstick's mean time across the operation:
the seconds the operation would have taken at the speed at which one
yardstick takes ``REFERENCE_S``.

Nothing here calls the measured program, so a change to the program
moves scaled times exactly as it moves wall times on a steady host.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np

#: Seconds one yardstick took on a quiet 2-vCPU Xeon (Sapphire Rapids)
#: virtual machine; scaled times are seconds at that speed.
REFERENCE_S = 0.0053
#: Seconds between yardsticks run on a timer during long operations.
PERIOD_S = 0.5

_POINTS = np.random.default_rng(1).random((400, 2))


def yardstick() -> int:
    """One fixed slice of numpy-and-interpreter work."""
    rng = np.random.default_rng(11)
    found = 0
    for _ in range(160):
        found += int((rng.random(2000) < 0.3).sum())
        found += int(rng.integers(0, 100, 500).sum() & 1)
    for i in range(96):
        delta = _POINTS - _POINTS[i]
        near = np.flatnonzero(np.einsum("ij,ij->i", delta, delta) < 0.01)
        found += len(set(near.tolist()))
    pos = rng.random((200, 2))
    informed = np.zeros(200, dtype=bool)
    informed[0] = True
    for _ in range(10):
        pos = (pos + rng.normal(0.0, 0.02, pos.shape)) % 1.0
        gap = ((pos[:, None, :] - pos[informed][None, :, :]) ** 2).sum(-1)
        informed |= (gap < 0.0036).any(1)
    return found + int(informed.sum())


def timed_yardsticks(count: int) -> list[float]:
    """Seconds spent here, then the seconds of each of *count*
    yardsticks run after an untimed one."""
    start = time.perf_counter()
    yardstick()
    samples = []
    for _ in range(count):
        begin = time.perf_counter()
        yardstick()
        samples.append(time.perf_counter() - begin)
    return [time.perf_counter() - start] + samples


@dataclass
class Timing:
    """One operation: *raw* wall seconds less yardstick time, *scaled*
    seconds at reference speed, and the yardsticks that scaled it."""

    raw: float = 0.0
    scaled: float = 0.0
    probes: int = 0


class HostClock:
    """Times operations in wall seconds and in reference seconds.

    Use it as a context manager; inside, :meth:`op` times one
    operation.  A ``SIGALRM`` handler runs a yardstick every
    :data:`PERIOD_S` seconds during an operation, and the handler's time
    is left out of the operation's time.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0  # seconds of yardsticks run by the timer
        self._busy = False
        self._previous = None

    def __enter__(self) -> "HostClock":
        for _ in range(3):  # warm caches and the allocator
            yardstick()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _probe(self) -> None:
        start = time.perf_counter()
        yardstick()
        self.samples.append(time.perf_counter() - start)

    def _on_alarm(self, _signum, _frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            start = time.perf_counter()
            self._probe()
            self.spent += time.perf_counter() - start
        finally:
            self._busy = False

    @contextmanager
    def op(self) -> Iterator[Timing]:
        """Time the block; the yielded :class:`Timing` is filled in
        when the block ends, also when it raises."""
        timing = Timing()
        first = len(self.samples)
        self._probe()
        spent = self.spent
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        start = time.perf_counter()
        try:
            yield timing
        finally:
            wall = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            timing.raw = wall - (self.spent - spent)
            self._probe()
            probes = self.samples[first:]
            timing.probes = len(probes)
            timing.scaled = timing.raw * REFERENCE_S / statistics.fmean(probes)


class WallClock:
    """The :class:`HostClock` interface without the yardstick: scaled
    times equal wall times.  The traced run uses it, since its spans
    must not contain yardsticks."""

    @contextmanager
    def op(self) -> Iterator[Timing]:
        timing = Timing()
        start = time.perf_counter()
        try:
            yield timing
        finally:
            timing.raw = timing.scaled = time.perf_counter() - start
