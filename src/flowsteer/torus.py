"""Connecting orbits on the flat torus by two local field surgeries.

Given a transitive field on T^d = [0, 2pi)^d, a trajectory that starts near
p and later passes near q is deformed at both ends: a forward bump surgery
moves its start onto p exactly, a backward one moves the passage point onto
q.  The two supports are disjoint balls, so outside them the field (and the
connecting trajectory) is untouched: only the short windows where the orbit
passes a ball need the deformed field, and they are integrated together.
Charts are the identity here, which is what makes the flat-torus case fully
constructive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .deform import (_chord_bow, _surgery_windows, build_phi_map, pushforward_field,
                     surgery_delta, surgery_orbit)
from .errors import BudgetExceeded, NoTransitFound, SupportOverlap
from .fields import VectorField
from .integrate import IntegratorSettings, Trajectory, integrate
from .recurrence import _chord_minima, _wrap, golden_min
from .sampling import ball_points

__all__ = ["TWO_PI", "wrap_point", "torus_delta", "torus_distance",
           "find_transit", "connect", "TransitResult", "ConnectBudgets"]

TWO_PI = 2.0 * np.pi


def wrap_point(x, period: float = TWO_PI) -> np.ndarray:
    """Canonical representative in [0, period)^d.  ``np.mod`` rounds a tiny
    negative component (-1e-17, say) up to ``period`` itself, which is
    folded to 0."""
    w = np.mod(np.asarray(x, dtype=float), period)
    return np.where(w == period, 0.0, w)


def torus_delta(a, b, period: float = TWO_PI) -> np.ndarray:
    """Wrapped difference a - b, componentwise in [-period/2, period/2)."""
    return _wrap(np.asarray(a, dtype=float) - np.asarray(b, dtype=float), period)


def torus_distance(a, b, period: float = TWO_PI) -> float:
    return float(np.linalg.norm(torus_delta(a, b, period)))


@dataclass(frozen=True)
class TransitResult:
    x1: np.ndarray          # start near p (canonical representative)
    x2: np.ndarray          # passage point near q
    T: float
    trajectory: Trajectory  # lifted to the covering space


def _closest_approach_scan(traj: Trajectory, target, period: float,
                           t_lo: float, curvature: float = 0.0,
                           accept: float = np.inf):
    """(t*, d*) minimizing the wrapped distance to ``target`` on [t_lo, t1].

    A vectorized chord scan finds candidate steps (the chord understates the
    true path by at most ``curvature``); candidates are polished by golden
    section on the dense output, within a quarter period of where the
    step's chord comes nearest, so that a long step spanning many lattice
    images is polished near the image that won.  ``accept`` short-circuits
    at the first polished distance at or below it.
    """
    target = np.asarray(target, dtype=float)
    chord, where = _chord_minima(traj, target, period, t_lo)
    reach = 0.25 * period / np.maximum(np.linalg.norm(np.diff(traj.states, axis=0), axis=1),
                                       1e-300)
    order = np.argsort(chord)

    def g(tt):
        return float(np.linalg.norm(torus_delta(traj.at(tt), target, period)))

    best_t, best_d = None, np.inf
    threshold = min(accept + curvature, np.inf)
    for idx in order[: max(32, int(np.sum(chord <= threshold)))]:
        if not np.isfinite(chord[idx]):
            break
        if chord[idx] > best_d + curvature and chord[idx] > threshold:
            break
        a, b = float(traj.times[idx]), float(traj.times[idx + 1])
        s_lo, s_hi = where[idx] - reach[idx], where[idx] + reach[idx]
        lo = a if s_lo <= 0.0 else a + s_lo * (b - a)
        hi = b if s_hi >= 1.0 else a + s_hi * (b - a)
        tt, dd = golden_min(g, max(lo, t_lo), hi, 1e-12 * max(1.0, abs(b)))
        if dd < best_d:
            best_t, best_d = tt, dd
            if best_d <= accept:
                break
    return best_t, best_d


def _default_settings(V: VectorField) -> IntegratorSettings:
    # straight-line flows are represented exactly at any step size; bent
    # ones need steps the chord curvature bound can account for
    h_max = 1.0 if V.lip_bound > 0 else 50.0
    return IntegratorSettings(tol=1e-10, h_max=h_max)


def find_transit(V: VectorField, p, q, delta: float, T_max: float = 1e4,
                 n_starts: int = 16, seed: int = 0, period: float = TWO_PI) -> TransitResult:
    """Shoot from starts near p until an orbit enters B_{delta^3/2}(q).

    Starts are a low-discrepancy set in the ball of radius delta^3/2 around
    p (transitivity of V is the caller's assertion), ridden as rows of one
    batched integration and scanned in order.  Approaches are located by an
    exact per-step chord scan padded by a curvature bound, then polished on
    the dense output.  Raises ``NoTransitFound`` with closest-approach
    diagnostics when the horizon is exhausted.
    """
    settings = _default_settings(V)
    p = wrap_point(p, period)
    q = wrap_point(q, period)
    r = delta ** 3 / 2.0
    starts = ball_points(p, r, n_starts, seed)
    best = (np.inf, None, None)
    for x1, traj in zip(starts, integrate(V, starts, 0.0, T_max, settings)):
        t_star, d_star = _closest_approach_scan(traj, q, period, 1e-9,
                                                _chord_bow(settings.h_max, V), accept=r)
        if d_star <= r:
            x2 = wrap_point(traj.at(t_star), period)
            return TransitResult(wrap_point(x1, period), x2, t_star, traj)
        if d_star < best[0]:
            best = (d_star, float(t_star), x1.copy())
    raise NoTransitFound(
        f"no orbit from B_{r:.3g}(p) reached B_{r:.3g}(q) within T={T_max:.3g}; "
        f"closest approach {best[0]:.3g}",
        closest=best[0], at_time=best[1], from_start=best[2])


@dataclass(frozen=True)
class ConnectBudgets:
    T_max: float = 1e4
    n_starts: int = 16
    seed: int = 0
    need_c1: bool = True


_SHRINK_ATTEMPTS = 8  # halvings of delta to separate connect's two supports
_EXTEND_ATTEMPTS = 8  # doublings of V's orbit past a window that reaches its end


def connect(V: VectorField, p, q, eps: float,
            budgets: ConnectBudgets = ConnectBudgets(),
            period: float = TWO_PI):
    """Deform V inside two small balls so the trajectory from p passes q.

    Returns (field, trajectory, certificate); the field is one pushforward
    over both surgery maps, and its descriptor lists them.  The supports
    B_2delta(x1) and B_2delta(x2) are kept disjoint, shrinking delta when
    necessary; if they cannot be separated, ``SupportOverlap`` is raised.

    The connecting orbit is :func:`~flowsteer.deform.surgery_orbit`'s
    through the transit's, step-capped only in the windows where it passes
    a ball.  It ends at T + 2, or at the end of the window that holds T + 2
    when that lies later; the transit's orbit is run on past T_max when it
    ends before that, or inside a window, so every window lands back on
    V's orbit.
    """
    settings = _default_settings(V)
    p = wrap_point(p, period)
    q = wrap_point(q, period)
    delta = surgery_delta(V, p, eps / 2.0, budgets.need_c1)

    transit = find_transit(V, p, q, delta, budgets.T_max, budgets.n_starts,
                           budgets.seed, period)
    x1, x2, T = transit.x1, transit.x2, transit.T

    gap = torus_distance(x1, x2, period)
    for _ in range(_SHRINK_ATTEMPTS):
        if gap > 4.0 * delta:
            break
        delta *= 0.5
        if max(torus_distance(x1, p, period), torus_distance(x2, q, period)) > delta ** 3:
            raise SupportOverlap(
                f"correction balls of radius 2*{delta:.3g} cannot separate "
                f"x1, x2 at distance {gap:.3g}")
    else:
        raise SupportOverlap(
            f"correction balls overlap after {_SHRINK_ATTEMPTS} shrinks "
            f"(|x1 - x2| = {gap:.3g})")

    # the transit trajectory lives on the covering space; anchor the bumps at
    # the lift representatives it actually visits
    lift_x1 = transit.trajectory.states[0]
    lift_x2 = transit.trajectory.at(T)
    map1 = build_phi_map(lift_x1, lift_x1 + torus_delta(p, x1, period), delta,
                         period=period)
    map2 = build_phi_map(lift_x2, lift_x2 + torus_delta(q, x2, period), delta,
                         period=period)
    glued = pushforward_field(V, (map1, map2))

    # Phi = Phi2 o Phi1 is the identity outside the balls, so there the
    # connecting orbit is V's orbit from lift_x1.  A window cut inside a ball
    # would not land back on it, so V's orbit runs on past the transit's end
    # until it covers T + 2 and leaves the last window; the horizon t1 is
    # T + 2 or that window's end.  The transit ran on to T_max; its nodes
    # past the first at or after T + 2 hold no window that starts by then
    guide, t_end = transit.trajectory, T + 2.0
    guide = guide.piece(0, min(int(np.searchsorted(guide.times, t_end)),
                               len(guide.times) - 1))
    for _ in range(_EXTEND_ATTEMPTS):
        if guide.t1 < t_end:
            tail, = integrate(V, guide.states[-1:], guide.t1, t_end, settings)
            guide = Trajectory.join([guide, tail])
        windows = _surgery_windows(guide, (lift_x1, lift_x2), delta, period,
                                   _chord_bow(float(np.max(np.diff(guide.times))), V),
                                   T + 2.0)
        if windows[-1][1] < guide.t1 - 1e-12 * max(1.0, guide.t1):
            break
        t_end = guide.t1 + max(2.0, guide.t1 - windows[-1][0])
    else:
        raise BudgetExceeded(f"V's orbit stays in a surgery ball from t = "
                             f"{windows[-1][0]:.6g} to {guide.t1:.6g}")
    t1 = max(T + 2.0, windows[-1][1])
    traj = surgery_orbit(V, glued, guide, map1.y0, windows, t1, delta, settings)

    # only steps ending in [T - 2, t1] are scanned for the hit
    t_lo = max(1e-9, T - 2.0)
    tail = traj.piece(max(0, int(np.searchsorted(traj.times, t_lo)) - 1),
                      len(traj.times) - 1)
    t_hit, d_hit = _closest_approach_scan(
        tail, q, period, t_lo, _chord_bow(float(np.max(np.diff(tail.times))), glued))
    cert = {
        "delta": float(delta),
        "T_transit": float(T),
        "t_hit": float(t_hit),
        "hit_error": float(d_hit),
        "x1": [float(v) for v in x1],
        "x2": [float(v) for v in x2],
        "support_radius": float(2.0 * delta),
    }
    return glued, traj, cert
