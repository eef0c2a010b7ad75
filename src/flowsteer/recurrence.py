"""Near-return search: locating recurrent starting points numerically.

A candidate point qualifies when its forward orbit re-enters a small ball
around it inside a time window.  Candidates are drawn from a low-discrepancy
set so coverage of the search ball is even at small counts, and the whole
search is a deterministic function of its seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoReturnFound
from .fields import VectorField
from .integrate import IntegratorSettings, Trajectory, integrate
from .sampling import Box, ball_points

__all__ = ["RecurrenceResult", "find_poisson_stable", "near_returns",
           "nonwandering_fraction"]

_GOLD = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class RecurrenceResult:
    """A start whose orbit returns: |x(T) - point| = return_error."""

    point: np.ndarray
    return_time: float
    return_error: float
    direction: str = "forward"
    trajectory: Trajectory | None = None

    def to_json(self) -> dict:
        return {
            "point": [float(v) for v in self.point],
            "T": float(self.return_time),
            "error": float(self.return_error),
            "direction": self.direction,
        }


def golden_min(g, lo: float, hi: float, tol: float):
    """Golden-section minimum of the scalar function ``g`` on [lo, hi].

    Shrinks the bracket until it is at most ``tol`` wide and returns
    (t, g(t)) at its midpoint.
    """
    a, b = lo, hi
    c = b - _GOLD * (b - a)
    d = a + _GOLD * (b - a)
    gc, gd = g(c), g(d)
    while b - a > tol:
        if gc < gd:
            b, d, gd = d, c, gc
            c = b - _GOLD * (b - a)
            gc = g(c)
        else:
            a, c, gc = c, d, gd
            d = a + _GOLD * (b - a)
            gd = g(d)
    t = (a + b) / 2.0
    return t, g(t)


def _local_minima(traj: Trajectory, target, t_from: float, radius: float):
    """Refined local minima of the distance to ``target`` with value <= radius.

    Candidate brackets come from two scans: discrete node minima whose
    adjacent chord lengths allow a dip to ``radius``, and single steps whose
    point-to-chord distance already reaches it (a dip can hide entirely
    inside one step).  Each bracket is refined on the dense output and
    near-duplicate minima are merged.
    """
    target = np.asarray(target, dtype=float)
    d = np.linalg.norm(traj.states - target, axis=1)
    t = traj.times
    n = len(t)
    steps = np.diff(traj.states, axis=0)
    chord = np.linalg.norm(steps, axis=1)

    brackets = []
    for i in range(1, n - 1):
        if t[i] < t_from:
            continue
        slack = max(chord[i - 1], chord[i])
        if d[i] > radius + slack:
            continue
        if d[i] <= d[i - 1] and d[i] <= d[i + 1]:
            brackets.append((t[i - 1], t[i + 1]))

    # per-step chord minima catch dips inside a single step; the Hermite path
    # bows away from its chord by a bounded fraction of the step length
    w = traj.states[:-1] - target
    uu = np.maximum(np.sum(steps * steps, axis=1), 1e-300)
    s = np.clip(-np.sum(w * steps, axis=1) / uu, 0.0, 1.0)
    segdist = np.linalg.norm(w + s[:, None] * steps, axis=1)
    interior = (s > 0.0) & (s < 1.0) & (t[1:] >= t_from)
    for i in np.nonzero(interior & (segdist <= radius + 0.25 * chord))[0]:
        lo = t[i - 1] if i > 0 else t[i]
        hi = t[i + 2] if i + 2 < n else t[i + 1]
        brackets.append((lo, hi))

    def dist(tt):
        return float(np.linalg.norm(traj.at(tt) - target))

    out = []
    span_tol = 1e-8 * max(1.0, abs(float(t[-1])))
    for lo, hi in sorted(brackets):
        tt, val = golden_min(dist, lo, hi, 1e-10)
        if tt < t_from or val > radius:
            continue
        if out and abs(tt - out[-1][0]) <= span_tol:
            if val < out[-1][1]:
                out[-1] = (tt, val)
            continue
        out.append((tt, val))
    return sorted(out)


def find_poisson_stable(V: VectorField, center, delta: float,
                        return_radius: float, T_min: float, T_max: float,
                        n_candidates: int = 8, seed: int = 0,
                        direction: str = "forward",
                        settings: IntegratorSettings = IntegratorSettings(),
                        keep_trajectory: bool = False) -> RecurrenceResult:
    """Search B_delta(center) for a point whose orbit nearly returns.

    Returns the first candidate (in deterministic low-discrepancy order)
    whose forward orbit satisfies |x(T) - x(0)| <= return_radius for some
    T in [T_min, T_max]; T is the first qualifying near-return found by
    dense-output refinement.  ``direction="backward"`` searches the
    time-reversed field instead.
    """
    if delta <= 0 or return_radius <= 0:
        raise ValueError("delta and return_radius must be positive")
    if not 0 < T_min < T_max:
        raise ValueError("need 0 < T_min < T_max")
    center = np.asarray(center, dtype=float)
    field = V if direction == "forward" else _reversed(V)

    candidates = ball_points(center, delta, n_candidates, seed)
    chunk = min(T_max, max(2.0 * T_min, 50.0))
    best = (np.inf, None, None)  # miss, candidate, time
    for cand in candidates:
        # grow the orbit in chunks so a first-period return exits early
        pieces = []
        t = 0.0
        state = cand
        traj = None
        hit = None
        while t < T_max:
            t2 = min(t + chunk, T_max)
            pieces.append(integrate(field, state, t, t2, settings))
            state = pieces[-1].states[-1]
            t = t2
            traj = Trajectory.join(pieces) if len(pieces) > 1 else pieces[0]
            hits = _local_minima(traj, cand, T_min, return_radius)
            if hits:
                hit = hits[0]
                break
        if hit is not None:
            tt, val = hit
            return RecurrenceResult(cand.copy(), tt, val, direction,
                                    traj if keep_trajectory else None)
        # track the best miss for diagnostics
        d = np.linalg.norm(traj.states - cand, axis=1)
        late = traj.times >= T_min
        if np.any(late):
            i = int(np.argmin(np.where(late, d, np.inf)))
            if d[i] < best[0]:
                best = (float(d[i]), cand.copy(), float(traj.times[i]))
    raise NoReturnFound(
        f"no return within radius {return_radius:.3g} and horizon {T_max:.3g}; "
        f"best miss {best[0]:.3g}",
        best_miss=best[0], best_candidate=best[1], best_time=best[2])


def _reversed(V: VectorField) -> VectorField:
    return VectorField(V.dim, lambda x: -V.func(np.asarray(x, dtype=float)),
                       V.sup_bound, V.lip_bound, None, V.provenance, None,
                       V.domain_box)


def near_returns(traj: Trajectory, point, radius: float) -> list:
    """All refined local-minimum times of t -> |x(t) - point| with value <= radius."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    return [t for t, _ in _local_minima(traj, point, traj.t0, radius)]


def nonwandering_fraction(V: VectorField, box: Box, n_points: int,
                          radius: float, T_max: float, seed: int = 0,
                          settings: IntegratorSettings = IntegratorSettings(rtol=1e-8, atol=1e-8)) -> float:
    """Fraction of sampled points whose orbit exits B_radius and re-enters.

    A statistical proxy for recurrence of almost every point; deterministic
    given the seed.
    """
    pts = box.uniform(n_points, seed)
    hits = 0
    chunk = max(25.0, min(T_max, 50.0))
    for x0 in pts:
        if _returns(V, x0, radius, T_max, chunk, settings):
            hits += 1
    return hits / n_points


def _returns(V, x0, radius, T_max, chunk, settings) -> bool:
    x0 = np.asarray(x0, dtype=float)
    t = 0.0
    state = x0
    exited_at = None
    while t < T_max:
        t_next = min(t + chunk, T_max)
        traj = integrate(V, state, t, t_next, settings)
        d = np.linalg.norm(traj.states - x0, axis=1)
        if exited_at is None:
            outside = np.nonzero(d > radius)[0]
            if outside.size:
                exited_at = float(traj.times[outside[0]])
        if exited_at is not None:
            if _local_minima(traj, x0, exited_at, radius):
                return True
            # re-entry without an interior minimum node still counts
            after = traj.times >= exited_at
            if np.any(d[after] <= radius):
                return True
        t = t_next
        state = traj.states[-1]
    return False
