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
    near-duplicate minima are merged.  Every bracket needs only the nodes
    up to two after its own, so on a longer ride of the same orbit a minimum
    keeps its bracket and its refined value.
    """
    target = np.asarray(target, dtype=float)
    d = np.linalg.norm(traj.states - target, axis=1)
    t = traj.times
    n = len(t)
    steps = np.diff(traj.states, axis=0)
    chord = np.linalg.norm(steps, axis=1)

    # node minima i = 1 .. n-2
    mid = d[1:-1]
    node_min = ((t[1:-1] >= t_from) & (mid <= radius + np.maximum(chord[:-1], chord[1:]))
                & (mid <= d[:-2]) & (mid <= d[2:]))
    brackets = [(t[i - 1], t[i + 1]) for i in np.flatnonzero(node_min) + 1]

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
    for lo, hi in sorted(brackets):
        tt, val = golden_min(dist, lo, hi, 1e-10)
        if tt < t_from or val > radius:
            continue
        if out and abs(tt - out[-1][0]) <= 1e-8 * max(1.0, abs(tt)):
            if val < out[-1][1]:
                out[-1] = (tt, val)
            continue
        out.append((tt, val))
    return sorted(out)


def _row_norms(a):
    return np.sqrt(np.sum(a * a, axis=1))


class _NearStart:
    """Per-row stop test of a batched ride, watching the distance to the
    ride's start.

    After each accepted node a row is near when its newest step could hold
    a bracket of :func:`_local_minima`: the step ends at or after the row's
    ``t_from`` and one of its two newest nodes lies within ``radius`` plus
    the longer of its two newest chords.  ``check`` decides whether the row
    stops there.
    """

    def __init__(self, starts, radius: float, t_from: float):
        self.starts = np.asarray(starts, dtype=float)
        self.radius = radius
        n = len(self.starts)
        self.t_from = np.full(n, float(t_from))
        self.count = np.ones(n, dtype=np.intp)  # nodes so far, per row
        self.prev_y = self.starts.copy()
        self.prev_d = np.zeros(n)
        self.prev_chord = np.zeros(n)

    def __call__(self, rows, t, y, nodes):
        dist = _row_norms(y - self.starts[rows])
        chord = _row_norms(y - self.prev_y[rows])
        near = ((t >= self.t_from[rows])
                & (np.minimum(self.prev_d[rows], dist)
                   <= self.radius + np.maximum(self.prev_chord[rows], chord)))
        self.prev_y[rows], self.prev_d[rows], self.prev_chord[rows] = y, dist, chord
        self.count[rows] += 1
        return [self.check(int(r), tt, dd, f, nodes)
                for r, tt, dd, f in zip(rows, t.tolist(), dist.tolist(), near.tolist())]


class _FirstReturn(_NearStart):
    """A ride stops at its first near-return after ``T_min`` once that is
    confirmed: the three nodes after the last one before it exist.  Those
    are all the nodes any bracket that could refine to an earlier time
    needs, so the stopped ride gives the (T, error) of a longer one."""

    def __init__(self, starts, T_min: float, radius: float):
        super().__init__(starts, radius, T_min)
        self.wait = {}  # row -> node count that confirms its pending return
        self.hits = {}

    def check(self, row, t, dist, near, nodes):
        if not (near or self.count[row] >= self.wait.get(row, np.inf)):
            return False
        traj = nodes.trajectory(row)
        hits = _local_minima(traj, self.starts[row], self.t_from[row], self.radius)
        if not hits:
            self.wait.pop(row, None)
            return False
        before = int(np.searchsorted(traj.times, hits[0][0], side="right")) - 1
        if len(traj.times) < before + 4:
            self.wait[row] = before + 4
            return False
        self.hits[row] = hits[0]
        return True


class _ReEntry(_NearStart):
    """A row stops once its orbit has left B_radius(start), at its first
    node outside, and is back: a later node inside the ball, or a refined
    minimum inside it.  ``t_from`` is the time it left."""

    def __init__(self, starts, radius: float):
        super().__init__(starts, radius, np.inf)
        self.back = np.zeros(len(self.starts), dtype=bool)

    def check(self, row, t, dist, near, nodes):
        if np.isinf(self.t_from[row]):
            if dist > self.radius:
                self.t_from[row] = t
            return False
        self.back[row] = dist <= self.radius or (near and bool(_local_minima(
            nodes.trajectory(row), self.starts[row], self.t_from[row], self.radius)))
        return self.back[row]


def _ride(field, starts, t_end, settings, stop):
    """Integrate every start on one batched stepper until ``stop`` ends it
    or ``t_end``; a single start uses the single-point path."""
    if len(starts) == 1:
        return [integrate(field, starts[0], 0.0, t_end, settings, stop=stop)]
    return integrate(field, starts, 0.0, t_end, settings, stop=stop)


def find_poisson_stable(V: VectorField, center, delta: float,
                        return_radius: float, T_min: float, T_max: float,
                        n_candidates: int = 8, seed=0,
                        direction: str = "forward",
                        settings: IntegratorSettings = IntegratorSettings(),
                        keep_trajectory: bool = False):
    """Search B_delta(center) for a point whose orbit nearly returns.

    Returns the first candidate (in deterministic low-discrepancy order)
    whose forward orbit satisfies |x(T) - x(0)| <= return_radius for some
    T in [T_min, T_max]; T is the first qualifying near-return found by
    dense-output refinement, and each ride ends once that return is
    confirmed.  ``direction="backward"`` searches the time-reversed field
    instead.

    ``center`` may also hold M centers, shape (M, d), with ``seed`` one int
    per center.  The k-th candidates of all centers still searching ride
    together on one batched stepper, and the result is a list of M entries:
    what each center gives alone, its RecurrenceResult or the NoReturnFound
    it would raise.
    """
    if delta <= 0 or return_radius <= 0:
        raise ValueError("delta and return_radius must be positive")
    if not 0 < T_min < T_max:
        raise ValueError("need 0 < T_min < T_max")
    centers = np.asarray(center, dtype=float)
    single = centers.ndim == 1
    centers = np.atleast_2d(centers)
    seeds = [seed] if single else [int(s) for s in seed]
    if len(seeds) != len(centers):
        raise ValueError("need one seed per center")
    field = V if direction == "forward" else _reversed(V)

    candidates = [ball_points(c, delta, n_candidates, s) for c, s in zip(centers, seeds)]
    results = [None] * len(centers)
    best = [(np.inf, None, None)] * len(centers)  # miss, candidate, time
    searching = list(range(len(centers)))
    for k in range(n_candidates):
        if not searching:
            break
        starts = np.array([candidates[m][k] for m in searching])
        stop = _FirstReturn(starts, T_min, return_radius)
        rides = _ride(field, starts, T_max, settings, stop)
        missed = []
        for i, (m, traj) in enumerate(zip(searching, rides)):
            hit = stop.hits.get(i)
            if hit is None:
                hits = _local_minima(traj, starts[i], T_min, return_radius)
                hit = hits[0] if hits else None
            if hit is not None:
                results[m] = RecurrenceResult(starts[i].copy(), hit[0], hit[1], direction,
                                              traj if keep_trajectory else None)
                continue
            missed.append(m)
            # track the best miss for diagnostics
            d = np.linalg.norm(traj.states - starts[i], axis=1)
            late = traj.times >= T_min
            if np.any(late):
                j = int(np.argmin(np.where(late, d, np.inf)))
                if d[j] < best[m][0]:
                    best[m] = (float(d[j]), starts[i].copy(), float(traj.times[j]))
        searching = missed
    for m in searching:
        results[m] = NoReturnFound(
            f"no return within radius {return_radius:.3g} and horizon {T_max:.3g}; "
            f"best miss {best[m][0]:.3g}",
            best_miss=best[m][0], best_candidate=best[m][1], best_time=best[m][2])
    if single:
        if isinstance(results[0], NoReturnFound):
            raise results[0]
        return results[0]
    return results


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
    given the seed.  All points ride together on one batched stepper, each
    until its re-entry or ``T_max``.
    """
    pts = box.uniform(n_points, seed)
    stop = _ReEntry(pts, radius)
    rides = _ride(V, pts, T_max, settings, stop)
    # a minimum whose bracket ends at the horizon counts too
    hits = sum(bool(stop.back[i]) or (np.isfinite(stop.t_from[i]) and bool(
        _local_minima(traj, pts[i], stop.t_from[i], radius)))
        for i, traj in enumerate(rides))
    return hits / n_points
