"""Endpoint steering: a small control on a trailing window (s - tau, s].

Given a trajectory of dx/dt = F(x) on [a, s] and a target y close to x(s),
the construction freezes the field at z = x(s), runs the frozen flow from
x(s - tau), and adds the constant drift alpha = (y - xbar(s)) / tau.  The
resulting control

    u(t) = F(z) - F(x_corr(t)) + alpha   on (s - tau, s],   zero before,

moves the endpoint exactly onto y while staying below the requested bound:
|alpha| < eps/2 and the field-difference term is Lipschitz-small on the
visited ball.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import FieldConstructionError, TargetOutOfRange
from .integrate import (ControlSchedule, IntegratorSettings, Segment,
                        SteerControl, Trajectory, ZeroControl, _landing_tol,
                        _steer_sup, integrate)

__all__ = ["LocalSteerParams", "SteerSegment", "TimeDependentField",
           "compute_tau_rho", "steer_endpoint", "steer_from_states"]


@dataclass(frozen=True)
class TimeDependentField:
    """Bounded field F(t, x) with declared space-Lipschitz and sup bounds."""

    dim: int
    func: object  # callable (t, x) -> vector
    sup_bound: float
    lip_bound: float

    def eval(self, t, x):
        return np.asarray(self.func(t, np.asarray(x, dtype=float)), dtype=float)


# 10-point Gauss-Legendre nodes/weights on [0, 1]
_GL_X, _GL_W = np.polynomial.legendre.leggauss(10)
_GL_X = (_GL_X + 1.0) / 2.0
_GL_W = _GL_W / 2.0


def _frozen_flow_integral(F: TimeDependentField, z, t_lo: float, t_hi: float,
                         panels: int = 8) -> np.ndarray:
    """integral of F(sigma, z) over [t_lo, t_hi] by composite Gauss-Legendre."""
    total = np.zeros(F.dim)
    width = (t_hi - t_lo) / panels
    for k in range(panels):
        a = t_lo + k * width
        for xi, wi in zip(_GL_X, _GL_W):
            total += wi * width * F.eval(a + xi * width, z)
    return total


@dataclass(frozen=True)
class TimedSteerControl:
    """Nonautonomous analogue of SteerControl; not serializable."""

    field: TimeDependentField
    z: np.ndarray
    alpha: np.ndarray
    s: float
    tau: float
    anchor: np.ndarray

    kind = "steer_timed"
    fields = ()

    def path(self, t):
        drift = _frozen_flow_integral(self.field, self.z, self.s - self.tau, float(t))
        return self.anchor + drift + self.alpha * (t - (self.s - self.tau))

    def value(self, t, x=None):
        """u at t, or at each of (m,) times as (m, d), one time at a time
        since F(t, x) takes one t."""
        if np.ndim(t):
            return np.array([self.value(float(ti)) for ti in t])
        return self.field.eval(t, self.z) - self.field.eval(t, self.path(t)) + self.alpha

    def sweep(self, ts):
        """u at increasing (m,) times in one pass: the frozen flow is
        integrated cumulatively, one Gauss panel per gap added to the
        previous time's integral, where :meth:`value` integrates from
        s - tau for each time."""
        F, t0 = self.field, self.s - self.tau
        drift, prev, out = np.zeros(F.dim), t0, []
        for t in map(float, ts):
            drift = drift + _frozen_flow_integral(F, self.z, prev, t, panels=1)
            prev = t
            path = self.anchor + drift + self.alpha * (t - t0)
            out.append(F.eval(t, self.z) - F.eval(t, path) + self.alpha)
        return np.array(out)

    def analytic_sup(self):
        return _steer_sup(self.field, self.alpha, self.tau)

    def params(self, field_ids):
        raise FieldConstructionError("time-dependent steering controls are not serializable")


def compute_tau_rho(L: float, F_sup: float, span: float, eps: float,
                    safety: float = 0.9):
    """Window length and target radius for endpoint steering.

    tau = safety * min(span, eps/(4L), eps/(8*L*F_sup)) with vanishing
    denominators dropping their terms; rho = tau * eps / 4.  With safety < 1
    every constraint is satisfied strictly.
    """
    if span <= 0 or eps <= 0:
        raise ValueError("span and eps must be positive")
    if L < 0 or F_sup < 0:
        raise ValueError("bounds must be nonnegative")
    if not 0 < safety <= 1:
        raise ValueError("safety must lie in (0, 1]")
    tau = safety * min(_window_limits(L, F_sup, span, eps))
    rho = tau * eps / 4.0
    return tau, rho


def _window_limits(L: float, F_sup: float, span: float, eps: float) -> list:
    """The bounds tau stays below: span, eps/(4L) and eps/(8 L F_sup), each
    of the last two dropped when its denominator vanishes."""
    limits = [span]
    if L > 0:
        limits.append(eps / (4.0 * L))
    if L * F_sup > 0:
        limits.append(eps / (8.0 * L * F_sup))
    return limits


@dataclass(frozen=True)
class LocalSteerParams:
    epsilon: float
    tau: float
    rho: float
    L: float
    F_sup: float
    span: float

    def __post_init__(self):
        limits = _window_limits(self.L, self.F_sup, self.span, self.epsilon)
        if not self.tau < min(limits):
            raise ValueError(f"tau={self.tau} violates window constraints {limits}")
        if self.rho != self.tau * self.epsilon / 4.0:
            raise ValueError("rho must equal tau*eps/4 exactly")

    @staticmethod
    def auto(F, span: float, eps: float) -> "LocalSteerParams":
        tau, rho = compute_tau_rho(F.lip_bound, F.sup_bound, span, eps)
        return LocalSteerParams(eps, tau, rho, F.lip_bound, F.sup_bound, span)


@dataclass(frozen=True)
class SteerSegment:
    """One steering hop: schedule on [a, s], analytic corrected path, target."""

    schedule: ControlSchedule
    target: np.ndarray
    alpha: np.ndarray
    params: LocalSteerParams
    control: SteerControl
    sup_cert: float

    def corrected_path(self, t: float) -> np.ndarray:
        return self.control.path(t)


def steer_from_states(F, a: float, s: float, z, anchor, y, eps: float,
                      params: Optional[LocalSteerParams] = None) -> SteerSegment:
    """Build the steering hop from precomputed states.

    ``z`` is the uncontrolled endpoint x(s) and ``anchor`` the state
    x(s - tau); both must come from the trajectory being corrected.
    """
    if params is None:
        params = LocalSteerParams.auto(F, s - a, eps)
    tau, rho = params.tau, params.rho
    z = np.asarray(z, dtype=float)
    y = np.asarray(y, dtype=float)
    anchor = np.asarray(anchor, dtype=float)

    dist = float(np.linalg.norm(z - y))
    if not dist < rho:
        raise TargetOutOfRange(dist, rho)

    timed = isinstance(F, TimeDependentField)
    if timed:
        drift = _frozen_flow_integral(F, z, s - tau, s)
        xbar_s = anchor + drift
    else:
        fz = F.eval(z)
        xbar_s = anchor + tau * fz
    alpha = (y - xbar_s) / tau
    a_norm = float(np.linalg.norm(alpha))
    if not a_norm < eps / 2.0:
        raise TargetOutOfRange(dist, rho)

    if timed:
        ctrl = TimedSteerControl(F, z, alpha, s, tau, anchor)
    else:
        ctrl = SteerControl(F, z, alpha, s, tau, anchor, fz)
    # endpoint identity is algebraic; fail loudly if arithmetic disagrees
    land = float(np.linalg.norm(ctrl.path(s) - y))
    if land > _landing_tol(y):
        raise AssertionError(f"corrected path misses target by {land}")

    segs = []
    if s - tau > a:
        segs.append(Segment(a, s - tau, ZeroControl()))
    segs.append(Segment(s - tau, s, ctrl))
    cert = min(ctrl.analytic_sup(), _sampled_window_sup(ctrl, s, tau))
    cert = max(cert, a_norm)
    schedule = ControlSchedule(tuple(segs), cert, dim=F.dim)
    return SteerSegment(schedule, y, alpha, params, ctrl, cert)


def _sampled_window_sup(ctrl, s: float, tau: float) -> float:
    n = 1000
    ts = s - tau + (np.arange(1, n + 1) / n) * tau
    u = ctrl.sweep(ts) if isinstance(ctrl, TimedSteerControl) else ctrl.value(ts)
    worst = float(np.max(np.linalg.norm(u, axis=-1)))
    # sampled max can undershoot; pad by the modulus over one sample gap
    speed = ctrl.field.sup_bound + float(np.linalg.norm(ctrl.alpha))
    pad = ctrl.field.lip_bound * (speed * tau / n)
    return worst + pad


def steer_endpoint(F, traj: Trajectory, y, eps: float,
                   params: Optional[LocalSteerParams] = None) -> SteerSegment:
    """Steer the endpoint of ``traj`` onto y with a control below eps.

    Requires |traj(s) - y| < rho for the window parameters in use; on
    violation the raised error carries the admissible radius so callers can
    densify their targets.

    The window anchor x(s - tau) usually falls between trajectory nodes,
    where dense-output interpolation error would leak straight into the
    realized landing point, so an autonomous field's anchor is re-integrated
    over the short gap from the nearest node and is as accurate as the
    nodes are.
    """
    a, s = traj.t0, traj.t1
    if params is None:
        params = LocalSteerParams.auto(F, s - a, eps)
    z = traj.at(s)
    t_anchor = s - params.tau
    anchor = traj.at(t_anchor)
    i = int(np.searchsorted(traj.times, t_anchor, side="right") - 1)
    t_node = float(traj.times[i])
    if t_node < t_anchor and not isinstance(F, TimeDependentField):
        anchor = integrate(F, traj.states[i], t_node, t_anchor,
                           IntegratorSettings(rtol=1e-12, atol=1e-12)).states[-1]
    return steer_from_states(F, a, s, z, anchor, y, eps, params)
