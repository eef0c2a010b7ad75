"""Adaptive ODE integration and piecewise control schedules.

The stepper is an embedded Dormand-Prince 5(4) pair over an (N, d) state:
N trajectories advance together, each row with its own span [t0, t1], step
size, acceptance, control segment and optional stop test, and a single (d,)
start is a batch of one.  Stage sums accumulate one stage at a time,
elementwise, never through a BLAS product, so a row's nodes are bitwise the
same whatever batch it runs in.  Accepted steps keep the right-hand side
at both endpoints so trajectories carry cubic Hermite dense output.
Controls are closed-form segment descriptors evaluated inside the stepper,
on all rows in a segment at once; at a segment boundary the step is clamped
to the boundary and the new segment's formula is used from that node on
(the jump happens at the right limit, so a control supported on
(s - tau, s] is still exactly zero at s - tau when sampled pointwise).
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass, field as dc_field, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import FieldConstructionError, IntegrationError, ScheduleError
from .fields import _reversed
from . import jsonio

__all__ = [
    "IntegratorSettings",
    "Trajectory",
    "ControlSchedule",
    "Segment",
    "ZeroControl",
    "ConstantControl",
    "SteerControl",
    "FieldDifferenceControl",
    "SumControl",
    "integrate",
    "integrate_controlled",
    "integrate_backward",
    "sup_norm",
    "zero_schedule",
]


@dataclass(frozen=True)
class IntegratorSettings:
    """Tolerances and guards for the adaptive stepper."""

    rtol: float = 1e-9
    atol: float = 1e-9
    h_init: Optional[float] = None
    h_max: float = np.inf
    max_steps: int = 20_000_000

    def refined(self) -> "IntegratorSettings":
        """Both tolerances ten times tighter."""
        return replace(self, rtol=self.rtol / 10.0, atol=self.atol / 10.0)

    def resolving(self, radius: float, speed: float) -> "IntegratorSettings":
        """Cap steps at one eighth of the time to cross ``radius`` at ``speed``.

        A feature of that radius, such as a surgery ball, is far smaller than
        the natural step on a smooth field, and the error estimator cannot
        flag what its stages never sample, so the cap must resolve it.
        """
        return replace(self, h_max=min(self.h_max, radius / (8 * max(speed, 1e-12))))


# Dormand-Prince 5(4) tableau (FSAL).
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_E = _B5 - np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                     -92097 / 339200, 187 / 2100, 1 / 40])


@dataclass(frozen=True)
class Trajectory:
    """Solution curve with node-exact cubic Hermite dense output.

    The stepper's nodes, and ``d_left[i]`` and ``d_right[i]``, the right-hand
    side at the two ends of [times[i], times[i+1]] as seen by that interval
    (they can differ across control-segment boundaries).
    """

    times: np.ndarray
    states: np.ndarray
    d_left: np.ndarray
    d_right: np.ndarray

    @property
    def t0(self) -> float:
        return float(self.times[0])

    @property
    def t1(self) -> float:
        return float(self.times[-1])

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def at(self, t: float) -> np.ndarray:
        """Dense-output state at time t; exact at stored nodes."""
        times = self.times
        if t <= times[0]:
            if t < times[0] - 1e-12 * max(1.0, abs(times[0])):
                raise ValueError(f"time {t} before trajectory start {times[0]}")
            return self.states[0].copy()
        if t >= times[-1]:
            if t > times[-1] + 1e-12 * max(1.0, abs(times[-1])):
                raise ValueError(f"time {t} after trajectory end {times[-1]}")
            return self.states[-1].copy()
        i = int(np.searchsorted(times, t, side="right") - 1)
        if times[i] == t:
            return self.states[i].copy()
        h = times[i + 1] - times[i]
        s = (t - times[i]) / h
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s * s * (3 - 2 * s)
        h11 = s * s * (s - 1)
        return (h00 * self.states[i] + h01 * self.states[i + 1]
                + h * (h10 * self.d_left[i] + h11 * self.d_right[i]))

    def piece(self, i: int, j: int) -> "Trajectory":
        """The part from node i to node j."""
        return Trajectory(self.times[i:j + 1], self.states[i:j + 1],
                          self.d_left[i:j], self.d_right[i:j])

    @staticmethod
    def join(pieces) -> "Trajectory":
        """Concatenate consecutive trajectories sharing their junction nodes."""
        pieces = list(pieces)
        if len(pieces) == 1:
            return pieces[0]
        times = [pieces[0].times]
        states = [pieces[0].states]
        d_left = [p.d_left for p in pieces]
        d_right = [p.d_right for p in pieces]
        for prev, nxt in zip(pieces, pieces[1:]):
            if abs(prev.t1 - nxt.t0) > 1e-12 * max(1.0, abs(prev.t1)):
                raise ValueError("pieces do not meet in time")
            times.append(nxt.times[1:])
            states.append(nxt.states[1:])
        return Trajectory(np.concatenate(times), np.concatenate(states),
                          np.concatenate(d_left), np.concatenate(d_right))

    def to_csv(self) -> str:
        d = self.dim
        lines = ["t," + ",".join(f"x{i + 1}" for i in range(d))]
        for t, x in zip(self.times, self.states):
            lines.append(",".join([repr(float(t))] + [repr(float(v)) for v in x]))
        return "\n".join(lines) + "\n"


def _landing_tol(y) -> float:
    """How far a state integrated onto a known point ``y`` may land from it."""
    return 1e-9 * max(1.0, float(np.linalg.norm(y)))


def _row_sums(a):
    """Sum over the last axis, left to right, so that a row's sum is
    bitwise the same in any batch."""
    out = a[..., 0]
    for c in range(1, a.shape[-1]):
        out = out + a[..., c]
    return out


class _Nodes:
    """Accepted nodes of a batched solve, logged in the order they are taken.

    Entry e holds a node's time and state and, for every node after a row's
    first, the right-hand sides at the two ends of the interval that ends
    there.  Appending a step is a slice write whatever rows took it; a row's
    trajectory is gathered from the log when it is asked for.
    """

    def __init__(self, t0s, y):
        n, d = y.shape
        cap = 64 * n
        self.row = np.empty(cap, dtype=np.intp)
        self.times = np.empty(cap)
        self.states = np.empty((cap, d))
        self.d_left = np.empty((cap, d))
        self.d_right = np.empty((cap, d))
        self.size = 0
        self.push(range(n), t0s, y, y, y)

    def push(self, rows, t, y, left, right):
        lo, hi = self.size, self.size + len(t)
        if hi > len(self.times):
            for name in ("row", "times", "states", "d_left", "d_right"):
                old = getattr(self, name)
                new = np.empty((2 * len(old) + len(t),) + old.shape[1:], old.dtype)
                new[:lo] = old[:lo]
                setattr(self, name, new)
        self.row[lo:hi] = rows
        self.times[lo:hi] = t
        self.states[lo:hi] = y
        self.d_left[lo:hi] = left
        self.d_right[lo:hi] = right
        self.size = hi

    def trajectory(self, row: int) -> Trajectory:
        idx = np.flatnonzero(self.row[:self.size] == row)
        return Trajectory(self.times[idx], self.states[idx], self.d_left[idx[1:]],
                          self.d_right[idx[1:]])


# Stage-sum weights: row i - 1 collects stage i (i = 1..6), row 6 the
# fifth-order update and row 7 the error estimate; column j weighs k_(j+1).
_W = np.zeros((8, 7))
for _i in range(1, 7):
    _W[_i - 1, :_i] = _A[_i]
_W[6], _W[7] = _B5, _E
_WCOL = [_W[j:, j, None].copy() for j in range(7)]


def _adaptive_solve(rhs, x0, t0, t1, settings, edges=(), stop=None):
    """Core stepper over an (N, d) state; a (d,) start is a batch of one.

    ``t0`` and ``t1`` are scalars or one span per row.  Each row takes its
    own steps: step size, acceptance and the current edge interval are per
    row, and no step straddles an edge.  ``edges`` is one sorted list for all
    rows.  A row keeps one global interval index g, the number of edges at
    or before its interval's start; that interval ends at ``edges[g]`` when
    it lies strictly inside the row's span, else at the span's end, where
    the row ends.  At an edge g advances and the right-hand side is
    re-evaluated with the next interval's formula (the right limit).
    ``rhs(t, y, k)`` sees k = g: for a lone running row a scalar t, a (d,)
    state and an int k, for more the running rows as (n,) times, (n, d)
    states and (n,) intervals.  The state is kept flat, stage sums
    accumulate one stage at a time, elementwise, and the step control is
    per-row scalar arithmetic, so a row's nodes are bitwise the same in any
    batch.

    ``stop(rows, t, y, nodes)``, when given, sees after every accepted step
    the indices of the rows that took it, their new times and (n, d) states,
    and the node log (``nodes.trajectory(row)``); the rows it flags end
    there.  Returns a Trajectory for a (d,) start, else a list of N.
    """
    x0 = np.asarray(x0, dtype=float)
    single = x0.ndim == 1
    n, d = (1, x0.size) if single else x0.shape
    t0s = np.broadcast_to(np.asarray(t0, dtype=float), (n,)).tolist()
    t1s = np.broadcast_to(np.asarray(t1, dtype=float), (n,)).tolist()
    if not all(b > a for a, b in zip(t0s, t1s)):
        raise ValueError("need t1 > t0")
    t_big = [1e-14 * max(1.0, abs(a), abs(b)) for a, b in zip(t0s, t1s)]
    nodes = _Nodes(t0s, x0.reshape(n, d))

    def f(c, t, h, y, k):
        """Right-hand side at stage node c of the running rows, flat; a lone
        running row takes the single-point form."""
        if len(t) == 1:
            return np.asarray(rhs(t[0] + c * h[0], y, k[0]), dtype=float)
        tc = np.array(t) + c * np.array(h)
        return np.asarray(rhs(tc, y.reshape(-1, d), np.array(k)), dtype=float).reshape(-1)

    def interval_end(g, b):
        return edges[g] if g < len(edges) and edges[g] < b else b

    # per-row scalars of the running rows, in the order of ``rows``: the
    # global interval index g and where that interval ends
    rows = list(range(n))
    t = list(t0s)
    g = [bisect.bisect_right(edges, a) for a in t0s]
    end = [interval_end(gj, b) for gj, b in zip(g, t1s)]
    steps = [0] * n
    y = x0.reshape(-1).copy()
    k1 = f(0.0, t, [0.0] * n, y, g)
    spans = [b - a for a, b in zip(t0s, t1s)]
    if settings.h_init:
        h = [float(settings.h_init)] * n
    else:
        ny = np.sqrt(_row_sums((y * y).reshape(n, d)))
        nk = np.sqrt(_row_sums((k1 * k1).reshape(n, d)))
        h = [min(span / 100.0, v) for span, v in
             zip(spans, (0.1 * (1.0 + ny) / (1.0 + nk)).tolist())]
    h = [min(v, settings.h_max, span) for v, span in zip(h, spans)]
    iterations = 0
    while rows:
        iterations += 1
        for j, tj in enumerate(t):
            r = rows[j]
            if iterations > settings.max_steps and steps[j] >= settings.max_steps:
                raise IntegrationError("step limit exceeded", t=tj,
                                       state=y[j * d:(j + 1) * d].copy())
            hj = h[j] = min(h[j], settings.h_max, end[j] - tj)
            if hj <= t_big[r] and hj <= 1e-14 * max(1.0, abs(tj)):
                raise IntegrationError("step underflow (stiffness or blowup)",
                                       t=tj, state=y[j * d:(j + 1) * d].copy())
        hv = h[0] if len(h) == 1 else np.repeat(h, d)
        S = _WCOL[0] * k1
        for i in range(1, 7):
            ki = f(_C[i], t, h, y + hv * S[i - 1], g)
            S[i:] += _WCOL[i] * ki
        y_new = y + hv * S[6]
        err = hv * S[7]
        q = err / (settings.atol + settings.rtol * np.maximum(np.abs(y), np.abs(y_new)))
        en = np.sqrt(_row_sums((q * q).reshape(-1, d)) / d).tolist()

        acc, ended, moving = [], [], []
        for j, e in enumerate(en):
            if e <= 1.0:
                acc.append(j)
                t_new = t[j] + h[j]
                edge = end[j]
                if abs(t_new - edge) <= 1e-14 * max(1.0, abs(edge)):
                    t_new = edge
                    if edge == t1s[rows[j]]:
                        ended.append(j)
                    else:
                        # entering the next edge interval: drop FSAL and
                        # re-evaluate with its formula (the right limit)
                        g[j] += 1
                        end[j] = interval_end(g[j], t1s[rows[j]])
                        moving.append(j)
                t[j] = t_new
                steps[j] += 1
            h[j] = h[j] * min(5.0, max(0.2, 0.9 * e ** -0.2 if e > 0 else 5.0))
        if acc:
            if len(acc) == len(rows):
                nodes.push(rows, t, y_new.reshape(-1, d), k1.reshape(-1, d),
                           ki.reshape(-1, d))
                y, k1 = y_new, ki
            else:
                a = np.array(acc)
                y2, k2 = y.reshape(-1, d).copy(), k1.reshape(-1, d).copy()
                y2[a] = y_new.reshape(-1, d)[a]
                nodes.push([rows[j] for j in acc], [t[j] for j in acc], y2[a], k2[a],
                           ki.reshape(-1, d)[a])
                k2[a] = ki.reshape(-1, d)[a]
                y, k1 = y2.reshape(-1), k2.reshape(-1)
            if moving:
                k2 = k1.reshape(-1, d).copy()
                for j in moving:
                    k2[j] = f(0.0, [t[j]], [0.0], y[j * d:(j + 1) * d], [g[j]])
                k1 = k2.reshape(-1)
            if stop is not None:
                a = np.array(acc)
                flags = stop(np.array([rows[j] for j in acc]), np.array([t[j] for j in acc]),
                             y.reshape(-1, d)[a], nodes)
                ended += [j for j, flag in zip(acc, flags) if flag and j not in ended]
        if ended:
            keep = [j for j in range(len(rows)) if j not in ended]
            rows, t, h, g, end, steps = ([v[j] for j in keep] for v in (rows, t, h, g, end, steps))
            y = y.reshape(-1, d)[keep].reshape(-1)
            k1 = k1.reshape(-1, d)[keep].reshape(-1)
    if single:
        return nodes.trajectory(0)
    return [nodes.trajectory(r) for r in range(n)]


def integrate(V, x0, t0, t1, settings: IntegratorSettings = IntegratorSettings(),
              stop=None, edges=()):
    """Solve dx/dt = V(x) on [t0, t1] with dense output.

    ``x0`` is one start of shape (d,), which gives one Trajectory, or N
    starts of shape (N, d), which give a list of N; ``t0`` and ``t1`` are
    scalars or one span end per row.  Every row's trajectory is bitwise the
    one its start and span give alone.  ``stop`` ends rows early and every
    time in the sorted ``edges`` inside a row's span is one of its nodes
    (see :func:`_adaptive_solve`).
    """

    def rhs(t, y, seg):
        return V.eval(y)

    return _adaptive_solve(rhs, x0, t0, t1, settings, edges=edges, stop=stop)


def integrate_backward(V, x_end, t0: float, t1: float,
                       settings: IntegratorSettings = IntegratorSettings()) -> Trajectory:
    """Solve dx/dt = V(x) on [t0, t1] given the terminal state x(t1): the
    reversed field's forward solve on [-t1, -t0], flipped."""
    back = integrate(_reversed(V), x_end, -t1, -t0, settings)
    return Trajectory(-back.times[::-1], back.states[::-1].copy(),
                      -back.d_right[::-1].copy(), -back.d_left[::-1].copy())


# ---------------------------------------------------------------------------
# control descriptors
#
# Every descriptor evaluates ``value(t, x)`` on (m,) times and (m, d) states,
# and a scalar t gives (d,); None stands for zero.  ``fields`` names the
# fields it references, in order, and ``params`` serializes it by their ids.


@dataclass(frozen=True)
class ZeroControl:
    kind = "zero"
    fields = ()

    def value(self, t, x=None):
        return None

    def analytic_sup(self):
        return 0.0

    def params(self, field_ids):
        return {}


@dataclass(frozen=True)
class ConstantControl:
    alpha: np.ndarray
    kind = "constant"
    fields = ()

    def value(self, t, x=None):
        return self.alpha

    def analytic_sup(self):
        return float(np.linalg.norm(self.alpha))

    def params(self, field_ids):
        return {"alpha": jsonio.vec(self.alpha)}


def _steer_sup(field, alpha, tau) -> float:
    """A steering window's sup bound |alpha| + Lip (2 sup + |alpha|) tau."""
    a = float(np.linalg.norm(alpha))
    return a + field.lip_bound * (2.0 * field.sup_bound * tau + a * tau)


@dataclass(frozen=True)
class SteerControl:
    """u(t) = F(z) - F(x_corr(t)) + alpha on its segment.

    ``x_corr`` is the stored corrected path, a straight line from ``anchor``
    with velocity F(z) + alpha; the control is evaluated from it, never from
    a re-integration.
    """

    field: object
    z: np.ndarray
    alpha: np.ndarray
    s: float
    tau: float
    anchor: np.ndarray
    fz: np.ndarray

    kind = "steer"

    @property
    def fields(self):
        return (self.field,)

    def path(self, t):
        """The corrected path at t, or at each of (m,) times as (m, d)."""
        return self.anchor + np.multiply.outer(t - (self.s - self.tau), self.fz + self.alpha)

    def value(self, t, x=None):
        return self.fz - self.field.eval(self.path(t)) + self.alpha

    def analytic_sup(self):
        return _steer_sup(self.field, self.alpha, self.tau)

    def params(self, field_ids):
        return {
            "field": field_ids[id(self.field)],
            "z": jsonio.vec(self.z),
            "alpha": jsonio.vec(self.alpha),
            "s": float(self.s),
            "tau": float(self.tau),
            "anchor": jsonio.vec(self.anchor),
        }


@dataclass(frozen=True)
class FieldDifferenceControl:
    """u(t) = A(x(t)) - B(x(t)) along the concurrently integrated state."""

    field_a: object
    field_b: object
    sup_hint: float = np.inf

    kind = "field_difference"

    @property
    def fields(self):
        return (self.field_a, self.field_b)

    def value(self, t, x=None):
        if x is None:
            raise ValueError("field-difference control needs the current state")
        return self.field_a.eval(x) - self.field_b.eval(x)

    def analytic_sup(self):
        return float(self.sup_hint)

    def params(self, field_ids):
        return {
            "a": field_ids[id(self.field_a)],
            "b": field_ids[id(self.field_b)],
            "sup_hint": float(self.sup_hint),
        }


@dataclass(frozen=True)
class SumControl:
    parts: tuple

    kind = "sum"

    @property
    def fields(self):
        return tuple(f for p in self.parts for f in p.fields)

    def value(self, t, x=None):
        total = None
        for p in self.parts:
            v = p.value(t, x)
            if v is not None:
                total = v if total is None else total + v
        return total

    def analytic_sup(self):
        return float(sum(p.analytic_sup() for p in self.parts))

    def params(self, field_ids):
        return {"parts": [{"kind": p.kind, "params": p.params(field_ids)}
                          for p in self.parts]}


@dataclass(frozen=True)
class Segment:
    t0: float
    t1: float
    u: object

    def __post_init__(self):
        if not self.t1 > self.t0:
            raise ScheduleError(f"segment must have t1 > t0, got [{self.t0}, {self.t1}]")


@dataclass(frozen=True)
class ControlSchedule:
    """Contiguous control segments with a certified sup bound.

    Pointwise, a segment owns the half-open interval (t0, t1]; the value at
    the global start is taken from the first segment.  The stepper instead
    applies each segment's formula on the closed span it integrates, which
    realizes the jump at a boundary as the right limit.  ``dim`` is the
    state dimension, the shape of a value taken without a state.
    """

    segments: tuple
    sup_cert: float = 0.0
    dim: int = dc_field(kw_only=True)

    def __post_init__(self):
        segs = self.segments
        for a, b in zip(segs, segs[1:]):
            if a.t1 != b.t0:
                raise ScheduleError(
                    f"segments must be contiguous: [{a.t0},{a.t1}] then [{b.t0},{b.t1}]")

    @property
    def t0(self) -> float:
        return self.segments[0].t0 if self.segments else 0.0

    @property
    def t1(self) -> float:
        return self.segments[-1].t1 if self.segments else 0.0

    def value(self, t: float, x=None) -> np.ndarray:
        """Control value at time t, and at state x if given: :meth:`values`
        on one row."""
        return self.values([t], None if x is None else [x])[0]

    def values(self, ts, xs) -> np.ndarray:
        """Control values at (m,) times and (m, d) states, or at the times
        alone when ``xs`` is None (zero then has the schedule's dimension);
        the samples that fall in segments sharing a descriptor are evaluated
        together, as the stepper does."""
        if not self.segments:
            raise ScheduleError("empty schedule has no values")
        ts = np.asarray(ts, dtype=float)
        lo, hi = self.segments[0].t0, self.segments[-1].t1
        if ts.size and (ts.min() < lo or ts.max() > hi):
            raise ScheduleError(f"times outside schedule span [{lo}, {hi}]")
        # a segment owns (t0, t1]; the first one also owns lo
        seg = np.maximum(np.searchsorted(self._starts, ts, side="left") - 1, 0)
        g = self._owner[seg]
        if xs is not None:
            xs = np.asarray(xs, dtype=float)
        out = np.zeros((ts.size, self.dim) if xs is None else xs.shape)
        for i in set(g.tolist()):
            m = g == i
            v = self.segments[i].u.value(ts[m], None if xs is None else xs[m])
            if v is not None:
                out[m] = v
        return out

    @cached_property
    def _starts(self) -> np.ndarray:
        return np.array([s.t0 for s in self.segments])

    @cached_property
    def _owner(self) -> np.ndarray:
        """Per segment, the first segment that shares its descriptor."""
        first = {}
        return np.array([first.setdefault(id(s.u), i) for i, s in enumerate(self.segments)],
                        dtype=int)

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        fields = {}  # the referenced fields by id, in first-appearance order
        for s in self.segments:
            for f in s.u.fields:
                fields.setdefault(id(f), f)
        if any(f.descriptor is None for f in fields.values()):
            raise FieldConstructionError(
                "field has no serializable descriptor (built from a raw callable)")
        field_ids = {key: f"f{i}" for i, key in enumerate(fields)}
        return {
            "dim": int(self.dim),
            "fields": {field_ids[key]: jsonio.packed(f.descriptor)
                       for key, f in fields.items()},
            "segments": [
                {"t0": float(s.t0), "t1": float(s.t1), "kind": s.u.kind,
                 "params": s.u.params(field_ids)}
                for s in self.segments
            ],
            "sup_cert": float(self.sup_cert),
        }

    @staticmethod
    def from_json(obj: dict) -> "ControlSchedule":
        from .fieldstore import field_from_descriptor

        if "dim" not in obj:
            raise ScheduleError("control has no 'dim', the state dimension")
        fields = {key: field_from_descriptor(d) for key, d in obj.get("fields", {}).items()}
        # segments with equal kind and params share one descriptor object, so
        # the stepper evaluates them together as it did the planned schedule
        shared = {}
        segs = []
        for s in obj["segments"]:
            key = json.dumps([s["kind"], s["params"]], sort_keys=True)
            if key not in shared:
                shared[key] = _descriptor_from_json(s["kind"], s["params"], fields)
            segs.append(Segment(s["t0"], s["t1"], shared[key]))
        return ControlSchedule(tuple(segs), float(obj["sup_cert"]), dim=int(obj["dim"]))


def _descriptor_from_json(kind, params, fields):
    if kind == "zero":
        return ZeroControl()
    if kind == "constant":
        return ConstantControl(np.asarray(params["alpha"], dtype=float))
    if kind == "steer":
        f = fields[params["field"]]
        z = np.asarray(params["z"], dtype=float)
        return SteerControl(f, z, np.asarray(params["alpha"], dtype=float),
                            float(params["s"]), float(params["tau"]),
                            np.asarray(params["anchor"], dtype=float), f.eval(z))
    if kind == "field_difference":
        return FieldDifferenceControl(fields[params["a"]], fields[params["b"]],
                                      float(params["sup_hint"]))
    if kind == "sum":
        return SumControl(tuple(_descriptor_from_json(p["kind"], p["params"], fields)
                                for p in params["parts"]))
    raise ScheduleError(f"unknown control kind {kind!r}")


def zero_schedule(t0: float, t1: float, dim: int) -> ControlSchedule:
    return ControlSchedule((Segment(t0, t1, ZeroControl()),), 0.0, dim=dim)


def _same_field(a, b) -> bool:
    """True when a and b are one field: the same object, or rebuilt from
    equal descriptors, which evaluate bitwise alike."""
    return a is b or (a.descriptor is not None
                      and jsonio.packed(a.descriptor) == jsonio.packed(b.descriptor))


def _driven(V, u):
    """(field, rest) with V(y) + u = field(y) + rest, rest None when zero.

    ``u = A - B`` with ``B`` the base field V realizes A itself, alone or as
    a part of a sum, so the right-hand side evaluates A once instead of V,
    A and B; zero parts drop out.  Any other descriptor keeps V(y) + u.
    The two forms round alike wherever |A - V| <= |V| componentwise, where
    (A - V) is exact (Fast2Sum), so V + (A - V) is A bit for bit.
    """
    parts = u.parts if isinstance(u, SumControl) else (u,)
    parts = [p for p in parts if not isinstance(p, ZeroControl)]
    field = V
    for i, p in enumerate(parts):
        if isinstance(p, FieldDifferenceControl) and _same_field(p.field_b, V):
            field = p.field_a
            del parts[i]
            break
    if not parts:
        return field, None
    return field, parts[0] if len(parts) == 1 else SumControl(tuple(parts))


def integrate_controlled(V, u: ControlSchedule, x0, t0, t1,
                         settings: IntegratorSettings = IntegratorSettings()):
    """Solve dx/dt = V(x) + u(t) with u evaluated per segment descriptor.

    Takes starts and spans as :func:`integrate` does: a (d,) start gives a
    Trajectory, (N, d) starts give a list of N, each row bitwise its solo
    run.  Each distinct driven field is evaluated once over all rows it
    drives, whatever their segments, and then rows whose segments share a
    descriptor add the rest of it together, with (m,) times and (m, d)
    states.  A zero segment adds nothing to the right-hand side, so on
    shared step grids the result is bitwise identical to :func:`integrate`;
    a segment ``A - V`` drives its rows by ``A`` alone (see :func:`_driven`).
    """
    segs = u.segments
    if segs and (np.min(t0) < u.t0 - 1e-12 or np.max(t1) > u.t1 + 1e-12):
        raise ScheduleError(f"integration window [{t0},{t1}] outside schedule span")
    # the stepper's global interval k lies inside segment k; rows in
    # segments that share a descriptor object evaluate it together
    last = len(segs) - 1
    owner = u._owner
    driven = {i: _driven(V, segs[i].u) for i in set(owner.tolist())}
    # per segment, the index of its driven field among the distinct ones
    index = {}
    field_of = np.array([index.setdefault(id(driven[i][0]), len(index))
                         for i in owner.tolist()], dtype=int)
    fields = {index[id(f)]: f for f, _ in driven.values()}

    def drive(i, t, y):
        field, rest = driven[i]
        b = field.eval(y)
        v = None if rest is None else rest.value(t, y)
        return b if v is None else b + v

    def rhs(t, y, k):
        if not segs:
            return V.eval(y)
        if not isinstance(k, np.ndarray):
            return drive(owner[min(k, last)], t, y)
        k = np.minimum(k, last)
        g = owner[k]
        groups = set(g.tolist())
        if len(groups) == 1:
            return drive(groups.pop(), t, y)
        out = np.empty_like(y)
        f = field_of[k]
        for i in set(f.tolist()):
            m = f == i
            out[m] = fields[i].eval(y[m])
        for i in groups:
            rest = driven[i][1]
            if rest is not None:
                m = g == i
                out[m] += rest.value(t[m], y[m])
        return out

    return _adaptive_solve(rhs, x0, t0, t1, settings, edges=[s.t0 for s in segs[1:]])


def sup_norm(u: ControlSchedule, samples_per_segment: int = 1000) -> float:
    """Max of densely sampled |u| and the descriptors' analytic bounds.

    Each segment is sampled in one ``value`` call; a descriptor that needs
    the state raises ``ValueError`` there, and its analytic bound stands in.
    """
    if not u.segments:
        raise ScheduleError("empty schedule")
    worst = 0.0
    for s in u.segments:
        worst = max(worst, s.u.analytic_sup())
        ts = s.t0 + (np.arange(1, samples_per_segment + 1) / samples_per_segment) * (s.t1 - s.t0)
        try:
            v = s.u.value(ts, None)
        except ValueError:
            continue  # no state available; analytic bound already counted
        if v is not None:
            worst = max(worst, float(np.max(np.linalg.norm(v, axis=-1))))
    return worst
