"""Near-return search: locating recurrent starting points numerically.

A candidate point qualifies when its forward orbit re-enters a small ball
around it inside a time window.  Candidates are drawn from a low-discrepancy
set so coverage of the search ball is even at small counts, and the whole
search is a deterministic function of its seed.
"""

from __future__ import annotations

import math
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
    trajectory: Trajectory

    def to_json(self) -> dict:
        return {
            "point": [float(v) for v in self.point],
            "T": float(self.return_time),
            "error": float(self.return_error),
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


# pieces of the lattice chord scan per block: bounds the pairs a block holds
# (at most 4^d lattice images a piece within period/2) whatever the
# trajectory's length
_SCAN_PIECES = 1024


def _wrap(dx, period):
    """Offsets in [-period/2, period/2) per component; unchanged without a period."""
    return dx if period is None else (dx + period / 2.0) % period - period / 2.0


def _lattice_chords(traj: Trajectory, target, period, radius: float = 0.0):
    """Per-step chords of the trajectory against the images of ``target``
    they can reach.

    Yields ``(i, w, u, uu)`` over (step, image) pairs: ``i`` is the step,
    ``w`` its start minus the image, ``u`` the step and ``uu`` its squared
    length.  Without a period the one image is ``target`` itself, one pair
    per step, in one block.  With one, the trajectory is lifted to the
    covering space and each step is cut into pieces at most ``period/2``
    long; a piece pairs with the lattice images within
    ``max(period/2, radius)`` of it per axis, padded by 1e-9 of the block's
    coordinates, far above their rounding, so that rounding cannot drop a
    tie.  The pairs hold every image nearest to some point of a chord and
    every image a chord passes within ``radius`` of; a step can pair with an
    image more than once.  Blocks of whole steps hold at most
    ``_SCAN_PIECES`` pieces, or one step.
    """
    target = np.asarray(target, dtype=float)
    a = traj.states[:-1]
    u = np.diff(traj.states, axis=0)
    d0 = _wrap(a - target, period)
    uu = np.maximum(np.sum(u * u, axis=1), 1e-300)
    if period is None:
        yield np.arange(len(a)), d0, u, uu
        return
    half = 0.5 * period
    reach = max(half, radius)
    pieces = np.maximum(np.ceil(np.sqrt(uu) / half), 1.0).astype(np.intp)
    last = np.cumsum(pieces)
    lo = 0
    while lo < len(a):
        hi = max(lo + 1, int(np.searchsorted(last, last[lo] - pieces[lo] + _SCAN_PIECES,
                                             side="right")))
        k = pieces[lo:hi]
        i = np.repeat(np.arange(lo, hi), k)
        j = np.arange(len(i)) - np.repeat(np.cumsum(k) - k, k)  # piece within its step
        frac = np.stack([j, j + 1], axis=1) / pieces[i, None]
        ends = d0[i, None, :] + frac[:, :, None] * u[i, None, :]
        pad = reach + 1e-9 * max(period, float(np.max(np.abs(ends))))
        n_lo = np.ceil((ends.min(axis=1) - pad) / period).astype(np.intp)
        n_hi = np.floor((ends.max(axis=1) + pad) / period).astype(np.intp)
        width = n_hi - n_lo + 1
        grid = np.stack(np.meshgrid(*map(np.arange, width.max(axis=0)), indexing="ij"),
                        axis=-1).reshape(-1, a.shape[1])
        piece, g = np.nonzero(np.all(grid < width[:, None, :], axis=2))
        i = i[piece]
        yield i, d0[i] - period * (n_lo[piece] + grid[g]), u[i], uu[i]
        lo = hi


def _chord_minima(traj: Trajectory, target, period, t_lo: float):
    """Exact point-to-chord distance for every accepted step.

    Per step the chord from x_i to x_{i+1} is compared against the images of
    :func:`_lattice_chords` and the nearest one counts.  Steps ending before
    ``t_lo`` read infinity.  Also returns where on each chord the nearest
    image's distance is attained: 0 at its start, 1 at its end.
    """
    n = len(traj.times) - 1
    best, where = np.full(n, np.inf), np.zeros(n)
    for i, w, u, uu in _lattice_chords(traj, target, period):
        s = np.clip(-np.sum(w * u, axis=1) / uu, 0.0, 1.0)
        dist = np.linalg.norm(w + s[:, None] * u, axis=1)
        np.minimum.at(best, i, dist)
        win = dist == best[i]
        where[i[win]] = s[win]
    return np.where(traj.times[1:] >= t_lo, best, np.inf), where


def _local_minima(traj: Trajectory, target, t_from: float, radius: float, refined=None):
    """Refined local minima of the distance to ``target`` with value <= radius.

    Candidate brackets come from two scans: discrete node minima whose
    adjacent chord lengths allow a dip to ``radius``, and single steps whose
    point-to-chord distance already reaches it (a dip can hide entirely
    inside one step).  Each bracket is refined on the dense output and
    near-duplicate minima are merged.  Every bracket needs only the nodes
    up to two after its own, so on a longer ride of the same orbit a minimum
    keeps its bracket and its refined value: ``refined``, when given, maps
    each bracket ``(lo, hi)`` already refined on this orbit to its
    ``(t, value)``, is read in place of a second search and gains the
    brackets refined here.
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

    # per-step chord minima catch dips inside a single step.  The dense
    # output follows the orbit, which bows from a step's chord (about
    # h |x'| long) by at most h^2 |x''| / 8: a quarter of the chord while a
    # step turns the orbit by less than two radians.  DOP853's steps on
    # far_chain's rides bow by at most 0.05 of their chords.
    segdist, s = _chord_minima(traj, target, None, t_from)
    interior = (s > 0.0) & (s < 1.0)
    for i in np.nonzero(interior & (segdist <= radius + 0.25 * chord))[0]:
        lo = t[i - 1] if i > 0 else t[i]
        hi = t[i + 2] if i + 2 < n else t[i + 1]
        brackets.append((lo, hi))

    def dist(tt):
        v = traj.at(tt) - target
        return math.sqrt(v.dot(v))  # np.linalg.norm's own arithmetic

    if refined is None:
        refined = {}
    out = []
    for lo, hi in sorted(brackets):
        if (lo, hi) not in refined:
            refined[lo, hi] = golden_min(dist, lo, hi, 1e-10)
        tt, val = refined[lo, hi]
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
    """Per-row stop test of a batched ride on [0, t_end], watching the
    distance to the ride's start.

    After each accepted node a row is near when its newest step could hold
    a bracket of :func:`_local_minima`: the step ends at or after the row's
    ``t_from`` and one of its two newest nodes lies within ``radius`` plus
    the longer of its two newest chords.  ``_due`` picks, in arrays, the
    rows that ``check`` decides one by one; ``end`` marks the rows at
    ``t_end``, onto which the stepper snaps a row's last node.  A row's
    nodes only grow, so ``refined[row]`` keeps the brackets its checks have
    refined (see :func:`_local_minima`) and each is refined once a ride.
    """

    def __init__(self, starts, radius: float, t_from: float, t_end: float):
        self.starts = np.asarray(starts, dtype=float)
        self.radius = radius
        self.t_end = t_end
        n = len(self.starts)
        self.t_from = np.full(n, float(t_from))
        self.count = np.ones(n, dtype=np.intp)  # nodes so far, per row
        self.prev_y = self.starts.copy()
        self.prev_d, self.prev_chord = np.zeros((2, n))
        self.refined = [{} for _ in range(n)]

    def __call__(self, rows, t, y, nodes):
        dist = _row_norms(y - self.starts[rows])
        chord = _row_norms(y - self.prev_y[rows])
        near = ((t >= self.t_from[rows])
                & (np.minimum(self.prev_d[rows], dist)
                   <= self.radius + np.maximum(self.prev_chord[rows], chord)))
        self.prev_y[rows], self.prev_d[rows], self.prev_chord[rows] = y, dist, chord
        self.count[rows] += 1
        end = t == self.t_end
        stop = self._due(rows, t, dist, near, end)
        for i in np.flatnonzero(stop):
            stop[i] = self.check(int(rows[i]), bool(end[i]), nodes)
        return stop


class _FirstReturn(_NearStart):
    """A ride stops at its first near-return after ``T_min`` once that is
    confirmed: the three nodes after the last one before it exist.  Those
    are all the nodes any bracket that could refine to an earlier time
    needs, so the stopped ride gives the (T, error) of a longer one.  At
    the horizon a pending return counts unconfirmed; ``miss`` at ``miss_t``
    is a row's closest late node."""

    def __init__(self, starts, T_min: float, T_max: float, radius: float):
        super().__init__(starts, radius, T_min, T_max)
        # the node count that confirms a pending return; the closest late node
        self.wait, self.miss, self.miss_t = np.full((3, len(self.starts)), np.inf)
        self.hits = {}

    def _due(self, rows, t, dist, near, end):
        closer = (t >= self.t_from[rows]) & (dist < self.miss[rows])
        self.miss[rows[closer]], self.miss_t[rows[closer]] = dist[closer], t[closer]
        return near | (self.count[rows] >= self.wait[rows]) | end

    def check(self, row, end, nodes):
        traj = nodes.trajectory(row)
        hits = _local_minima(traj, self.starts[row], self.t_from[row], self.radius,
                             self.refined[row])
        if not hits:
            self.wait[row] = np.inf
            return False
        before = int(np.searchsorted(traj.times, hits[0][0], side="right")) - 1
        if len(traj.times) < before + 4 and not end:
            self.wait[row] = before + 4
            return False
        self.hits[row] = hits[0]
        return True


class _ReEntry(_NearStart):
    """A row stops once its orbit has left B_radius(start), at its first
    node outside, and is back: a later node inside the ball, or a refined
    minimum inside it, sought when near and at the horizon.  ``t_from`` is
    the time it left."""

    def __init__(self, starts, radius: float, T_max: float):
        super().__init__(starts, radius, np.inf, T_max)
        self.back = np.zeros(len(self.starts), dtype=bool)

    def _due(self, rows, t, dist, near, end):
        out, inside = np.isinf(self.t_from[rows]), dist <= self.radius
        self.t_from[rows[out & ~inside]] = t[out & ~inside]
        return (~out & (inside | near)) | (end & ~inside)

    def check(self, row, end, nodes):
        self.back[row] = self.prev_d[row] <= self.radius or bool(_local_minima(
            nodes.trajectory(row), self.starts[row], self.t_from[row], self.radius,
            self.refined[row]))
        return self.back[row]


def find_poisson_stable(V: VectorField, center, delta: float,
                        return_radius: float, T_min: float, T_max: float,
                        n_candidates: int = 8, seed=0,
                        settings: IntegratorSettings = IntegratorSettings(),
                        keep_trajectory: bool = True):
    """Search B_delta(center) for a point whose orbit nearly returns.

    Returns the first candidate (in deterministic low-discrepancy order)
    whose forward orbit satisfies |x(T) - x(0)| <= return_radius for some
    T in [T_min, T_max]; T is the first qualifying near-return found by
    dense-output refinement, and each ride ends once that return is
    confirmed.  The result keeps its ride; ``keep_trajectory`` is ignored, kept
    for ``perfbench/workloads.py``, which passes it.

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

    candidates = [ball_points(c, delta, n_candidates, s) for c, s in zip(centers, seeds)]
    results = [None] * len(centers)
    best = [(np.inf, None, None)] * len(centers)  # miss, candidate, time
    searching = list(range(len(centers)))
    for k in range(n_candidates):
        if not searching:
            break
        starts = np.array([candidates[m][k] for m in searching])
        stop = _FirstReturn(starts, T_min, T_max, return_radius)
        rides = integrate(V, starts, 0.0, T_max, settings, stop=stop)
        missed = []
        for i, (m, traj) in enumerate(zip(searching, rides)):
            if i in stop.hits:
                results[m] = RecurrenceResult(starts[i].copy(), *stop.hits[i], traj)
                continue
            missed.append(m)
            if stop.miss[i] < best[m][0]:  # the best miss, for diagnostics
                best[m] = (float(stop.miss[i]), starts[i].copy(), float(stop.miss_t[i]))
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


def near_returns(traj: Trajectory, point, radius: float) -> list:
    """All refined local-minimum times of t -> |x(t) - point| with value <= radius."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    return [t for t, _ in _local_minima(traj, point, traj.t0, radius)]


def nonwandering_fraction(V: VectorField, box: Box, n_points: int,
                          radius: float, T_max: float, seed: int = 0) -> float:
    """Fraction of sampled points whose orbit exits B_radius and re-enters.

    A statistical proxy for recurrence of almost every point; deterministic
    given the seed.  All points ride together on one batched stepper, each
    until its re-entry or ``T_max``.
    """
    pts = box.uniform(n_points, seed)
    stop = _ReEntry(pts, radius, T_max)
    integrate(V, pts, 0.0, T_max, IntegratorSettings(tol=1e-8), stop=stop)
    return int(np.count_nonzero(stop.back)) / n_points
