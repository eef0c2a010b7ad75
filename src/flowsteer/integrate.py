"""Adaptive ODE integration and piecewise control schedules.

The stepper is an embedded Dormand-Prince 5(4) pair over an (N, d) state:
N trajectories advance together, each row with its own step size,
acceptance and optional stop test, and a single (d,) start is a batch of
one.  Stage sums accumulate one stage at a time, elementwise, never through
a BLAS product, so a row's nodes are bitwise the same whatever batch it
runs in.  Accepted steps keep the right-hand side at both endpoints so
trajectories carry cubic Hermite dense output.  Controls are closed-form
segment descriptors evaluated inside the stepper; at a segment boundary the
step is clamped to the boundary and the new segment's formula is used from
that node on (the jump happens at the right limit, so a control supported
on (s - tau, s] is still exactly zero at s - tau when sampled pointwise).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import IntegrationError, ScheduleError
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
    "concat",
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

    def refined(self, factor: float = 10.0) -> "IntegratorSettings":
        return replace(self, rtol=self.rtol / factor, atol=self.atol / factor)

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

    ``d_left[i]`` and ``d_right[i]`` are the right-hand side at the two ends
    of the interval [times[i], times[i+1]] as seen by that interval (they can
    differ across control-segment boundaries).
    """

    times: np.ndarray
    states: np.ndarray
    d_left: np.ndarray
    d_right: np.ndarray
    tol_budget: float = 0.0

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

    def sample(self, ts) -> np.ndarray:
        """Vectorized dense output at many times (clipped to the span)."""
        ts = np.asarray(ts, dtype=float)
        times = self.times
        t = np.clip(ts, times[0], times[-1])
        i = np.clip(np.searchsorted(times, t, side="right") - 1, 0, len(times) - 2)
        h = times[i + 1] - times[i]
        s = (t - times[i]) / h
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s * s * (3 - 2 * s)
        h11 = s * s * (s - 1)
        return (h00[:, None] * self.states[i] + h01[:, None] * self.states[i + 1]
                + (h * h10)[:, None] * self.d_left[i]
                + (h * h11)[:, None] * self.d_right[i])

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
        budget = pieces[0].tol_budget
        for prev, nxt in zip(pieces, pieces[1:]):
            if abs(prev.t1 - nxt.t0) > 1e-12 * max(1.0, abs(prev.t1)):
                raise ValueError("pieces do not meet in time")
            times.append(nxt.times[1:])
            states.append(nxt.states[1:])
            budget += nxt.tol_budget
        return Trajectory(np.concatenate(times), np.concatenate(states),
                          np.concatenate(d_left), np.concatenate(d_right),
                          budget)

    def to_csv(self) -> str:
        d = self.dim
        lines = ["t," + ",".join(f"x{i + 1}" for i in range(d))]
        for t, x in zip(self.times, self.states):
            lines.append(",".join([repr(float(t))] + [repr(float(v)) for v in x]))
        return "\n".join(lines) + "\n"


def _row_sums(a):
    """Sum over the columns of each row, left to right."""
    out = a[:, 0]
    for c in range(1, a.shape[1]):
        out = out + a[:, c]
    return out


class _Nodes:
    """Accepted nodes of a batched solve, logged in the order they are taken.

    Entry e holds a node's time and state and, for every node after a row's
    first, the right-hand sides at the two ends of the interval that ends
    there.  Appending a step is a slice write whatever rows took it; a row's
    trajectory is gathered from the log when it is asked for.
    """

    def __init__(self, t0, y):
        n, d = y.shape
        cap = 64 * n
        self.row = np.empty(cap, dtype=np.intp)
        self.times = np.empty(cap)
        self.states = np.empty((cap, d))
        self.d_left = np.empty((cap, d))
        self.d_right = np.empty((cap, d))
        self.budget = [0.0] * n
        self.size = 0
        self.push(range(n), [float(t0)] * n, y, y, y)

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
                          self.d_right[idx[1:]], self.budget[row])


# Stage-sum weights: row i - 1 collects stage i (i = 1..6), row 6 the
# fifth-order update and row 7 the error estimate; column j weighs k_(j+1).
_W = np.zeros((8, 7))
for _i in range(1, 7):
    _W[_i - 1, :_i] = _A[_i]
_W[6], _W[7] = _B5, _E
_WCOL = [_W[j:, j, None].copy() for j in range(7)]


def _adaptive_solve(rhs, x0, t0, t1, settings, edges=(), stop=None):
    """Core stepper over an (N, d) state; a (d,) start is a batch of one.

    Each row takes its own steps: step size, acceptance and the current edge
    interval are per row, and no step straddles an edge.  ``rhs(t, y, k)``
    sees the active edge interval k, which advances when a row reaches an
    edge, where the interval's formula is re-evaluated (the right limit).
    For a (d,) start ``rhs`` gets a scalar t, a (d,) state and an int k; for
    an (N, d) start it gets the running rows as (n,) times, (n, d) states
    and (n,) intervals.  The state is kept flat, stage sums accumulate one
    stage at a time, elementwise, and the step control is per-row scalar
    arithmetic, so a row's nodes are bitwise the same in any batch.

    ``stop(rows, t, y, nodes)``, when given, sees after every accepted step
    the indices of the rows that took it, their new times and (n, d) states,
    and the node log (``nodes.trajectory(row)``); the rows it flags end
    there.  Returns a Trajectory for a (d,) start, else a list of N.
    """
    if not t1 > t0:
        raise ValueError("need t1 > t0")
    x0 = np.asarray(x0, dtype=float)
    single = x0.ndim == 1
    n, d = (1, x0.size) if single else x0.shape
    span = t1 - t0
    edges = [e for e in edges if t0 < e < t1] + [t1]
    last = len(edges) - 1
    t_big = 1e-14 * max(1.0, abs(t0), abs(t1))
    nodes = _Nodes(t0, x0.reshape(n, d))

    def f(c, t, h, y, k):
        """Right-hand side at stage node c of the running rows, flat."""
        if single:
            return np.asarray(rhs(t[0] + c * h[0], y, k[0]), dtype=float)
        tc = np.array(t) + c * np.array(h)
        return np.asarray(rhs(tc, y.reshape(-1, d), np.array(k)), dtype=float).reshape(-1)

    # per-row scalars of the running rows, in the order of ``rows``
    rows = list(range(n))
    t = [float(t0)] * n
    k = [0] * n
    steps = [0] * n
    y = x0.reshape(-1).copy()
    k1 = f(0.0, t, [0.0] * n, y, k)
    if settings.h_init:
        h = [float(settings.h_init)] * n
    else:
        ny = np.sqrt(_row_sums((y * y).reshape(n, d)))
        nk = np.sqrt(_row_sums((k1 * k1).reshape(n, d)))
        h = [min(span / 100.0, v) for v in (0.1 * (1.0 + ny) / (1.0 + nk)).tolist()]
    h = [min(v, settings.h_max, span) for v in h]
    iterations = 0
    while rows:
        iterations += 1
        for j, tj in enumerate(t):
            if iterations > settings.max_steps and steps[j] >= settings.max_steps:
                raise IntegrationError("step limit exceeded", t=tj,
                                       state=y[j * d:(j + 1) * d].copy())
            hj = h[j] = min(h[j], settings.h_max, edges[k[j]] - tj)
            if hj <= t_big and hj <= 1e-14 * max(1.0, abs(tj)):
                raise IntegrationError("step underflow (stiffness or blowup)",
                                       t=tj, state=y[j * d:(j + 1) * d].copy())
        hv = h[0] if single else np.repeat(h, d)
        S = _WCOL[0] * k1
        for i in range(1, 7):
            ki = f(_C[i], t, h, y + hv * S[i - 1], k)
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
                edge = edges[k[j]]
                if abs(t_new - edge) <= 1e-14 * max(1.0, abs(edge)):
                    t_new = edge
                    if k[j] == last:
                        ended.append(j)
                    else:
                        # entering the next edge interval: drop FSAL and
                        # re-evaluate with its formula (the right limit)
                        k[j] += 1
                        moving.append(j)
                t[j] = t_new
                steps[j] += 1
            h[j] = h[j] * min(5.0, max(0.2, 0.9 * e ** -0.2 if e > 0 else 5.0))
        if acc:
            err_max = np.maximum.reduce(np.abs(err).reshape(-1, d), axis=1).tolist()
            for j in acc:
                nodes.budget[rows[j]] += err_max[j]
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
                    k2[j] = f(0.0, [t[j]], [0.0], y[j * d:(j + 1) * d], [k[j]])
                k1 = k2.reshape(-1)
            if stop is not None:
                a = np.array(acc)
                flags = stop(np.array([rows[j] for j in acc]), np.array([t[j] for j in acc]),
                             y.reshape(-1, d)[a], nodes)
                ended += [j for j, flag in zip(acc, flags) if flag and j not in ended]
        if ended:
            keep = [j for j in range(len(rows)) if j not in ended]
            rows, t, h, k, steps = ([v[j] for j in keep] for v in (rows, t, h, k, steps))
            y = y.reshape(-1, d)[keep].reshape(-1)
            k1 = k1.reshape(-1, d)[keep].reshape(-1)
    if single:
        return nodes.trajectory(0)
    return [nodes.trajectory(r) for r in range(n)]


def integrate(V, x0, t0: float, t1: float,
              settings: IntegratorSettings = IntegratorSettings(),
              stop=None):
    """Solve dx/dt = V(x) on [t0, t1] with dense output.

    ``x0`` is one start of shape (d,), which gives one Trajectory, or N
    starts of shape (N, d), which give a list of N; every row's trajectory
    is bitwise the one its start gives alone.  ``stop`` ends rows early (see
    :func:`_adaptive_solve`).
    """

    def rhs(t, y, seg):
        return V.eval(y)

    return _adaptive_solve(rhs, x0, t0, t1, settings, stop=stop)


def integrate_backward(V, x_end, t0: float, t1: float,
                       settings: IntegratorSettings = IntegratorSettings()) -> Trajectory:
    """Solve dx/dt = V(x) on [t0, t1] given the terminal state x(t1)."""

    def rhs(t, y, seg):
        return -V.eval(y)

    back = _adaptive_solve(rhs, x_end, -t1, -t0, settings)
    return Trajectory(-back.times[::-1], back.states[::-1].copy(),
                      -back.d_right[::-1].copy(), -back.d_left[::-1].copy(),
                      back.tol_budget)


# ---------------------------------------------------------------------------
# control descriptors


@dataclass(frozen=True)
class ZeroControl:
    kind = "zero"

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

    def value(self, t, x=None):
        return self.alpha

    def analytic_sup(self):
        return float(np.linalg.norm(self.alpha))

    def params(self, field_ids):
        return {"alpha": jsonio.vec(self.alpha)}


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

    def path(self, t):
        return self.anchor + (t - (self.s - self.tau)) * (self.fz + self.alpha)

    def value(self, t, x=None):
        return self.fz - self.field.eval(self.path(t)) + self.alpha

    def analytic_sup(self):
        r = 2.0 * self.field.sup_bound * self.tau + float(np.linalg.norm(self.alpha)) * self.tau
        return float(np.linalg.norm(self.alpha)) + self.field.lip_bound * r

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
    realizes the jump at a boundary as the right limit.
    """

    segments: tuple
    sup_cert: float = 0.0

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
        """Control value at time t (zero vector when the descriptor is zero)."""
        if not self.segments:
            raise ScheduleError("empty schedule has no values")
        seg = self.segment_at(t)
        v = seg.u.value(t, x)
        if v is None:
            d = _schedule_dim(self)
            return np.zeros(d)
        return np.asarray(v, dtype=float)

    def segment_at(self, t: float) -> Segment:
        segs = self.segments
        if t < segs[0].t0 or t > segs[-1].t1:
            raise ScheduleError(f"time {t} outside schedule span [{segs[0].t0}, {segs[-1].t1}]")
        if t == segs[0].t0:
            return segs[0]
        starts = [s.t0 for s in segs]
        i = bisect.bisect_left(starts, t)
        if i == len(segs) or starts[i] >= t:
            i -= 1
        return segs[i]

    def boundaries(self):
        if not self.segments:
            return []
        return [s.t0 for s in self.segments] + [self.segments[-1].t1]

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        from .fieldstore import collect_fields, field_to_descriptor

        fields = collect_fields(self)
        field_ids = {id(f): f"f{i}" for i, f in enumerate(fields)}
        return {
            "fields": {field_ids[id(f)]: field_to_descriptor(f) for f in fields},
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

        fields = {key: field_from_descriptor(d) for key, d in obj.get("fields", {}).items()}
        segs = tuple(
            Segment(s["t0"], s["t1"], _descriptor_from_json(s["kind"], s["params"], fields))
            for s in obj["segments"]
        )
        return ControlSchedule(segs, float(obj["sup_cert"]))


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


def _schedule_dim(schedule: ControlSchedule) -> int:
    for s in schedule.segments:
        u = s.u
        for attr in ("alpha", "z"):
            if hasattr(u, attr):
                return np.asarray(getattr(u, attr)).size
        if isinstance(u, SumControl):
            for p in u.parts:
                if hasattr(p, "alpha"):
                    return np.asarray(p.alpha).size
    return 2


def zero_schedule(t0: float, t1: float) -> ControlSchedule:
    return ControlSchedule((Segment(t0, t1, ZeroControl()),), 0.0)


def integrate_controlled(V, u: ControlSchedule, x0, t0: float, t1: float,
                         settings: IntegratorSettings = IntegratorSettings()) -> Trajectory:
    """Solve dx/dt = V(x) + u(t) with u evaluated per segment descriptor.

    A zero segment adds nothing to the right-hand side, so on shared step
    grids the result is bitwise identical to :func:`integrate`.
    """
    if np.ndim(x0) != 1:
        raise ValueError("integrate_controlled takes a single start of shape (d,)")
    if u.segments and (t0 < u.t0 - 1e-12 or t1 > u.t1 + 1e-12):
        raise ScheduleError(f"integration window [{t0},{t1}] outside schedule span")
    segs = u.segments
    # edges are the segment starts inside the window; interval k of the
    # stepper then lies inside segment base + k
    inner = [s.t0 for s in segs[1:] if t0 < s.t0 < t1]
    base = 0
    for s in segs[1:]:
        if s.t0 <= t0:
            base += 1

    def rhs(t, y, k):
        b = V.eval(y)
        if not segs:
            return b
        v = segs[min(base + k, len(segs) - 1)].u.value(t, y)
        if v is None:
            return b
        return b + v

    return _adaptive_solve(rhs, x0, t0, t1, settings, edges=inner)


def sup_norm(u: ControlSchedule, samples_per_segment: int = 1000,
             trajectory: Optional[Trajectory] = None) -> float:
    """Max of densely sampled |u| and the descriptors' analytic bounds.

    Field-difference descriptors need a state to evaluate at; when a
    trajectory is supplied the sample uses it, otherwise the analytic hint
    stands in for those segments.
    """
    if not u.segments:
        raise ScheduleError("empty schedule")
    worst = 0.0
    for s in u.segments:
        worst = max(worst, s.u.analytic_sup())
        ts = s.t0 + (np.arange(1, samples_per_segment + 1) / samples_per_segment) * (s.t1 - s.t0)
        needs_state = s.u.kind in ("field_difference", "sum")
        for t in ts:
            x = trajectory.at(float(t)) if (trajectory is not None and needs_state) else None
            try:
                v = s.u.value(float(t), x)
            except ValueError:
                continue  # no state available; analytic bound already counted
            if v is not None:
                worst = max(worst, float(np.linalg.norm(v)))
    return worst


def concat(u1: ControlSchedule, u2: ControlSchedule) -> ControlSchedule:
    """Join two schedules meeting end-to-start; sup_cert is the max."""
    if not u1.segments:
        return u2
    if not u2.segments:
        return u1
    if u1.t1 != u2.t0:
        raise ScheduleError(f"schedules do not meet: first ends {u1.t1}, second starts {u2.t0}")
    return ControlSchedule(u1.segments + u2.segments, max(u1.sup_cert, u2.sup_cert))
