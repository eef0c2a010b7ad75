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

from .errors import TargetOutOfRange
from .integrate import (ControlSchedule, IntegratorSettings, Segment,
                        SteerControl, Trajectory, ZeroControl, _landings,
                        integrate)

__all__ = ["LocalSteerParams", "SteerSegment", "compute_tau_rho", "steer_endpoint",
           "steer_from_states"]


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

    @property
    def rho_local(self) -> float:
        """The gap radius min(window limits) * eps / 4: ``rho`` before safety."""
        limits = _window_limits(self.L, self.F_sup, self.span, self.epsilon)
        return min(limits) * self.epsilon / 4.0


@dataclass(frozen=True)
class SteerSegment:
    """One steering hop: its schedule on [a, s] and its window's control."""

    schedule: ControlSchedule
    control: SteerControl


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

    fz = F.eval(z)
    xbar_s = anchor + tau * fz
    alpha = (y - xbar_s) / tau
    a_norm = float(np.linalg.norm(alpha))
    if not a_norm < eps / 2.0:
        raise TargetOutOfRange(dist, rho)

    ctrl = SteerControl(F, z, alpha, s, tau, anchor, fz)
    # endpoint identity is algebraic; fail loudly if arithmetic disagrees
    land, off = _landings(ctrl.path(s), y)
    if off.size:
        raise AssertionError(f"corrected path misses target by {float(land)}")

    segs = []
    if s - tau > a:
        segs.append(Segment(a, s - tau, ZeroControl()))
    segs.append(Segment(s - tau, s, ctrl))
    cert = min(ctrl.analytic_sup(), _sampled_window_sup(ctrl, s, tau))
    cert = max(cert, a_norm)
    schedule = ControlSchedule(tuple(segs), cert, dim=F.dim)
    return SteerSegment(schedule, ctrl)


def _sampled_window_sup(ctrl, s: float, tau: float) -> float:
    n = 1000
    ts = s - tau + (np.arange(1, n + 1) / n) * tau
    worst = float(np.max(np.linalg.norm(ctrl.value(ts), axis=-1)))
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
    realized landing point, so the anchor is re-integrated over the short
    gap from the nearest node and is as accurate as the nodes are.
    """
    a, s = traj.t0, traj.t1
    if params is None:
        params = LocalSteerParams.auto(F, s - a, eps)
    z = traj.at(s)
    t_anchor = s - params.tau
    i = int(np.searchsorted(traj.times, t_anchor, side="right") - 1)
    t_node = float(traj.times[i])
    anchor = traj.states[i].copy()
    if t_node < t_anchor:
        anchor = integrate(F, anchor, t_node, t_anchor,
                           IntegratorSettings(tol=1e-12)).states[-1]
    return steer_from_states(F, a, s, z, anchor, y, eps, params)
