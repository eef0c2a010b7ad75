"""Spans, field-evaluation counts and the machine-speed meter.

Spans are recorded in memory around the benchmark's own calls into the
library (the library itself carries no instrumentation yet).  Each span
stores the evaluation counts of the counted base field at its two
boundaries, so ratios are taken where the work happens.
"""

from __future__ import annotations

import dataclasses
import signal
import time
from contextlib import contextmanager

import numpy as np


class CountingField:
    """Wraps a field's ``func`` and counts calls and points.

    ``dataclasses.replace`` keeps the descriptor, so certificates built on
    the wrapped field are byte-identical to those built on the original.
    """

    def __init__(self, field):
        self.calls = 0
        self.points = 0
        inner = field.func

        def func(x):
            self.calls += 1
            self.points += 1 if np.ndim(x) == 1 else len(x)
            return inner(x)

        self.field = dataclasses.replace(field, func=func)


class Tracer:
    """Span recorder; ``counter`` is the CountingField read at boundaries."""

    def __init__(self, counter: CountingField):
        self.counter = counter
        self.spans: list[dict] = []
        self._open: list[int] = []

    def _counts(self):
        return self.counter.calls, self.counter.points

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        calls0, points0 = self._counts()
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            calls1, points1 = self._counts()
            rec["calls"], rec["points"] = calls1 - calls0, points1 - points0
            self._open.pop()


@contextmanager
def stopwatch(name: str):
    """Untraced timing with the same record shape as ``Tracer.span``."""
    rec = {"name": name, "start": time.perf_counter()}
    try:
        yield rec
    finally:
        rec["end"] = time.perf_counter()


def seconds(rec: dict) -> float:
    return rec["end"] - rec["start"]


# A fixed slice of interpreter and small-array work, the same mix as the
# integrator's inner loop (classical RK4 on the cellular field, written here
# so that no change to flowsteer moves it), and its duration at the
# reference speed (2-core Xeon KVM guest at 2.0 GHz).
REF_KERNEL_S = 220e-6


def _field(y):
    s, c = np.sin(y), np.cos(y)
    return np.array([s[0] * c[1], -c[0] * s[1]])


def _kernel() -> None:
    y, h = np.array([0.2, 0.3]), 0.05
    for _ in range(10):
        k1 = _field(y)
        k2 = _field(y + 0.5 * h * k1)
        k3 = _field(y + 0.5 * h * k2)
        k4 = _field(y + h * k3)
        y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


class SpeedMeter:
    """Samples the machine's speed every ``period`` seconds while active.

    The shared host runs the same code 1.5-3 times slower for seconds at a
    time.  A SIGALRM handler times the calibration kernel at each tick;
    ``reference_seconds`` rescales each stretch of an interval by the kernel
    time of the tick that ends it (the last stretch by the last tick), after
    removing the ticks' own time.
    """

    def __init__(self, period: float = 0.05):
        self.period = period
        self.ticks: list[tuple[float, float]] = []

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        _kernel()
        self.ticks.append((t0, time.perf_counter() - t0))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def reference_seconds(self, rec: dict) -> float:
        inside = [(t, d) for t, d in self.ticks if rec["start"] <= t < rec["end"]]
        if not inside:
            return seconds(rec)
        total, edge = 0.0, rec["start"]
        for t, d in inside:
            total += (t - edge) * REF_KERNEL_S / d
            edge = t + d
        return total + max(rec["end"] - edge, 0.0) * REF_KERNEL_S / inside[-1][1]
