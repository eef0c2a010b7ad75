"""Bump-supported diffeomorphisms that relocate a trajectory endpoint.

The map Phi(x) = x - phi_delta(x) (y0 - x0), with phi_delta a radial bump
equal to 1 on B_delta(x0) and 0 outside B_2delta(x0), translates the start
of a trajectory from x0 to y0 while leaving everything outside B_2delta
untouched.  Transporting the field through Phi,

    Vt(y) = DPhi(y)^{-1} V(Phi(y)),

turns Phi-preimages of old trajectories into new trajectories; all size
estimates flow through the bump's gradient and Hessian suprema and the cube
law |y0 - x0| <= delta^3.  The bump is fixed: the profile ``_eta`` with the
suprema of :func:`bump_constants`, which ``torus-connect --out`` writes to
``bump_constants.json``.  Several maps with disjoint supports are
transported at once, by one vectorized pushforward whose descriptor lists
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import BudgetExceeded, DegenerateBudget, HypothesisViolation, SupportOverlap
from .fields import VectorField, build_field
from .integrate import IntegratorSettings, Trajectory, _landings, _row_sums, integrate
from .recurrence import _lattice_chords, _wrap

__all__ = ["PhiMap", "FieldStats", "bump_constants", "choose_delta", "surgery_delta",
           "build_phi_map", "pushforward_field", "correct_start", "sampled_jacobian_modulus"]


def _glue(t):
    """exp(-1/t) on t > 0, zero elsewhere: the classic smooth glue."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    m = t > 0
    out[m] = np.exp(-1.0 / t[m])
    return out


def _blend(u, v):
    """u / (u + v) for glue values u, v, zero where both vanish: the smooth
    step that is 1 where v's argument is <= 0 and 0 where u's is."""
    return u / (u + v + ((u + v) == 0.0))


def _eta(r, second: bool = True):
    """Smooth step, 1 on [0,1] and 0 on [2,inf), and its first two
    derivatives (the second None unless ``second``): the quotient rule on
    u / (u + v) with u = glue(2 - r) and v = glue(r - 1), formed only where
    1 < r < 2, where both glue arguments are positive."""
    r = np.asarray(r, dtype=float)
    eta, d1 = np.array(r <= 1.0, dtype=float), np.zeros(r.shape)
    d2 = np.zeros(r.shape) if second else None
    m = (r > 1.0) & (r < 2.0)
    rm = r[m]
    a, c = 2.0 - rm, rm - 1.0
    u, v = np.exp(-1.0 / a), np.exp(-1.0 / c)
    up, vp = -(u / a ** 2), v / c ** 2
    s = u + v
    eta[m] = u / s
    w = up * v - u * vp
    d1[m] = w / s ** 2
    if second:
        upp, vpp = u * (1.0 / a ** 4 - 2.0 / a ** 3), v * (1.0 / c ** 4 - 2.0 / c ** 3)
        d2[m] = ((upp * v - u * vpp) * s - 2.0 * w * (up + vp)) / s ** 3
    return eta, d1, d2


@lru_cache(maxsize=1)
def bump_constants() -> dict:
    """Derivative suprema of the standard bump, by dense sampling in
    slices, so that one slice's derivatives are held at a time."""
    rs = np.linspace(1.0, 2.0, 400_001)
    grad_sup = hess_sup = 0.0
    for r in np.array_split(rs, 40):
        _, d1, d2 = _eta(r)
        d1, d2 = np.abs(d1), np.abs(d2)
        grad_sup = max(grad_sup, float(d1.max()))
        # radial Hessian eigenvalues are eta'' and eta'/r
        hess_sup = max(hess_sup, float(np.maximum(d2, d1 / r).max()))
    return {
        "grad_sup": grad_sup * 1.002,
        "hess_sup": hess_sup * 1.002,
        "samples": len(rs),
        "inflation": 1.002,
        "provenance": "dense 1-D sampling of the analytic derivatives",
    }


def _sups():
    """The bump's (grad_sup, hess_sup): bounds on |grad phi| and on the
    operator norm of D^2 phi, computed at the first call."""
    c = bump_constants()
    return c["grad_sup"], c["hess_sup"]


def _delta_cap() -> float:
    """The invertibility cap min(1, grad_sup^{-1/2}): every admissible
    delta lies below it, where |DPhi - I| <= grad_sup delta^2 < 1."""
    return min(1.0, _sups()[0] ** -0.5)


def write_bump_constants(path) -> dict:
    """Write the audited bump constants, their ``provenance`` key included, as JSON."""
    from . import jsonio

    payload = dict(bump_constants())
    jsonio.write_json(path, payload)
    return payload


# ---------------------------------------------------------------------------
# admissible deformation scale


@dataclass(frozen=True)
class FieldStats:
    """Bounds consumed by the scale selection: Lip, sup, and a C^1 modulus."""

    lip: float
    sup: float
    omega: Optional[Callable] = None   # nondecreasing modulus of the Jacobian


def c0_deviation_bound(stats: FieldStats, delta: float) -> float:
    gs = _sups()[0]
    if gs * delta * delta >= 1.0:
        return np.inf
    return stats.lip * delta ** 3 + stats.sup * gs * delta ** 2 / (1.0 - gs * delta ** 2)


def c1_deviation_bound(stats: FieldStats, delta: float) -> float:
    """Bound on |DVt - DV| for a displacement of at most delta^3.

    With e = grad_sup delta^2 >= |DPhi - I| and |D^2 Phi| <= hess_sup delta,
    DVt - DV = D(DPhi^-1) V(Phi) + DPhi^-1 (DV(Phi) - DV) DPhi
    + DPhi^-1 (DV (DPhi - I) - (DPhi - I) DV), whose three terms are at most
    sup hess_sup delta / (1 - e)^2, omega(delta^3) (1 + e) / (1 - e) and
    2 e Lip / (1 - e).
    """
    gs, hs = _sups()
    e = gs * delta * delta
    if e >= 1.0:
        return np.inf
    om = stats.omega(delta ** 3) if stats.omega is not None else 0.0
    return (om * (1.0 + e) / (1.0 - e) + 2.0 * e * stats.lip / (1.0 - e)
            + stats.sup * hs * delta / (1.0 - e) ** 2)


def choose_delta(stats: FieldStats, eps: float, need_c1: bool = False) -> float:
    """Largest bump scale keeping the transported field within eps.

    Bisects for the largest delta up to 0.999 times the invertibility cap
    (:func:`_delta_cap`) whose uniform deviation bound stays below eps/2
    (and, in C^1 mode, whose derivative deviation bound does too).  The
    bounds are monotone in delta so bisection is exact up to grid width.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if need_c1 and stats.omega is None:
        raise ValueError("C1 mode needs a modulus of continuity for the Jacobian")
    cap = 0.999 * _delta_cap()

    def ok(delta):
        if c0_deviation_bound(stats, delta) >= eps / 2.0:
            return False
        if need_c1 and c1_deviation_bound(stats, delta) >= eps / 2.0:
            return False
        return True

    floor = 1e-12
    if not ok(floor):
        raise DegenerateBudget(f"no admissible scale above {floor:.3g} for eps={eps:.3g}")
    if ok(cap):
        return cap
    lo, hi = floor, cap
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# the map


@dataclass(frozen=True)
class PhiMap:
    """Phi(x) = x - phi_delta(x) (y0 - x0); identity outside B_2delta(x0).

    ``period`` enables the same construction on a flat torus: displacements
    from the bump center are taken in the wrapped representative.
    """

    x0: np.ndarray
    y0: np.ndarray
    delta: float
    period: Optional[float] = None

    def __post_init__(self):
        disp = float(np.linalg.norm(self.displacement))
        if disp > self.delta ** 3 * (1.0 + 1e-9):
            raise HypothesisViolation(
                f"displacement {disp:.3g} exceeds delta^3 = {self.delta ** 3:.3g}",
                required=self.delta ** 3)
        cap = _delta_cap()
        if not self.delta < cap:
            raise HypothesisViolation(
                f"delta {self.delta:.3g} reaches the invertibility cap {cap:.3g}",
                required=cap)

    @property
    def displacement(self) -> np.ndarray:
        return _wrap(np.asarray(self.y0, dtype=float) - np.asarray(self.x0, dtype=float),
                     self.period)

    def _offset(self, x):
        return _wrap(np.asarray(x, dtype=float) - self.x0, self.period)

    def bump_value(self, x):
        dx = self._offset(x)
        r = np.linalg.norm(dx, axis=-1) / self.delta
        return _eta(r, False)[0]

    def phi(self, x):
        x = np.asarray(x, dtype=float)
        v = self.bump_value(x)
        return x - np.asarray(v)[..., None] * self.displacement

    def jac(self, x) -> np.ndarray:
        """DPhi(x): identity minus the rank-one term displacement x grad(phi_delta)."""
        x = np.asarray(x, dtype=float)
        dx = self._offset(x)
        r = float(np.linalg.norm(dx))
        d = x.size
        J = np.eye(d)
        if r == 0.0 or r >= 2.0 * self.delta:
            return J
        dphi = float(_eta(r / self.delta, False)[1]) / self.delta
        grad = (dphi / r) * dx
        # Phi_i(x) = x_i - phi_delta(x) disp_i  =>  dPhi_i/dx_j = I - disp_i grad_j
        return J - np.outer(self.displacement, grad)


def build_phi_map(x0, y0, delta: float, period: Optional[float] = None) -> PhiMap:
    return PhiMap(np.asarray(x0, dtype=float), np.asarray(y0, dtype=float),
                  float(delta), period)


def pushforward_field(V: VectorField, maps) -> VectorField:
    """Vt(y) = DPhi(y)^{-1} V(Phi(y)) over k PhiMaps with disjoint supports.

    ``maps`` is one PhiMap or a sequence of them sharing one period; Phi
    is the map whose support holds y, so Vt is bitwise V outside every
    support.  Inside a ball DPhi = I - disp grad^T is inverted in
    closed form (Sherman-Morrison): DPhi^{-1} v = v + disp (grad . v) /
    (1 - grad . disp).  A (d,) point is a batch of one.  One evaluation
    calls V once, on the points and their images Phi(y) stacked, and forms
    the bump profile only for the points inside a support.  Raises
    ``SupportOverlap`` when two supports meet, lattice images included when
    the maps are periodic.
    """
    maps = (maps,) if isinstance(maps, PhiMap) else tuple(maps)
    period = maps[0].period
    if any(pm.period != period for pm in maps):
        raise ValueError("pushforward maps must share one period")
    d = V.dim
    centers = np.array([pm.x0 for pm in maps], dtype=float)
    disps = np.array([pm.displacement for pm in maps])
    deltas = np.array([pm.delta for pm in maps])
    radii = 2.0 * deltas
    radii2 = radii * radii

    for i in range(len(maps)):
        for j in range(i):
            gap = float(np.linalg.norm(_wrap(centers[i] - centers[j], period)))
            if gap < radii[i] + radii[j]:
                raise SupportOverlap(
                    f"supports B_{radii[j]:.3g} and B_{radii[i]:.3g} of maps {j} and {i} "
                    f"overlap: centers {gap:.3g} apart")

    def func(x):
        x = np.asarray(x, dtype=float)
        y = x.reshape(-1, d)
        off = _wrap(y[:, None, :] - centers, period)
        r2 = _row_sums(off * off)
        # f indexes each (point, map) pair in reach in the flattened r2 and
        # off; the supports are disjoint, so each point is in one pair at most
        f = (r2 < radii2).ravel().nonzero()[0]
        if not f.size:
            return V.eval(x)
        pt, k = np.divmod(f, len(maps))
        rk, dk, disp = np.sqrt(r2.take(f)), deltas.take(k), disps.take(k, 0)
        eta, eta1, _ = _eta(rk / dk, False)
        # rk + (rk == 0) is rk, or 1 at a center, where eta1 is 0
        grad = (eta1 / (dk * (rk + (rk == 0.0))))[:, None] * off.reshape(-1, d).take(f, 0)
        # V at the points and at their images Phi(y), in one batch: a row has
        # the same bits in any batch
        n = len(y)
        vals = V.eval(np.concatenate((y, y.take(pt, 0) - eta[:, None] * disp)))
        v = vals[n:]
        gain = _row_sums(grad * v) / (1.0 - _row_sums(grad * disp))
        out = np.array(vals[:n], dtype=float)
        out[pt] = v + gain[:, None] * disp
        return out.reshape(x.shape)

    stats = FieldStats(V.lip_bound, V.sup_bound)
    c0 = max(c0_deviation_bound(stats, pm.delta) for pm in maps)
    # Between the balls Vt is V, so a segment splits into pieces each inside
    # one ball's pushforward: Lip Vt is the largest single-ball bound
    # |DPhi^-1| Lip V |DPhi| + |D(DPhi^-1)| ||V||.
    gs, hs = _sups()
    gs2 = gs * deltas ** 2
    lip = float(np.max(V.lip_bound * (1.0 + gs2) / (1.0 - gs2)
                       + V.sup_bound * hs * deltas / (1.0 - gs2) ** 2))
    desc = None
    if V.descriptor is not None:
        desc = {
            "kind": "pushforward",
            "base": V.descriptor,
            "maps": [{"x0": [float(v) for v in pm.x0],
                      "y0": [float(v) for v in pm.y0],
                      "delta": float(pm.delta),
                      "period": None if pm.period is None else float(pm.period)}
                     for pm in maps],
        }
    return VectorField(V.dim, func, V.sup_bound + c0, lip, None, desc, V.domain_box)


def pushforward_from_descriptor(desc: dict) -> VectorField:
    """Rebuild a pushforward from its base and its ``maps``."""
    base = build_field(desc["base"])
    maps = [build_phi_map(m["x0"], m["y0"], m["delta"], period=m.get("period"))
            for m in desc["maps"]]
    return pushforward_field(base, maps)


# ---------------------------------------------------------------------------
# endpoint relocation and orbits through surgery balls


def sampled_jacobian_modulus(V: VectorField, center) -> Callable:
    """Nondecreasing majorant of |J(a) - J(b)| over |a - b| <= r on B_1(center).

    Sampled at the 8 dyadic radii 2^-7 .. 1, 64 seeded pairs each, and
    monotonized upward; a usable stand-in for a modulus of continuity when
    only pointwise Jacobians are available.
    """
    center = np.asarray(center, dtype=float)
    rng = np.random.default_rng(0)
    radii = [2.0 ** -k for k in range(8)][::-1]
    vals = []
    for r in radii:
        worst = 0.0
        for _ in range(64):
            a = center + rng.uniform(-1.0, 1.0, center.size)
            u = rng.standard_normal(center.size)
            u /= np.linalg.norm(u)
            b = a + r * rng.uniform(0.0, 1.0) * u
            worst = max(worst, float(np.linalg.norm(V.jac(a) - V.jac(b), ord=2)))
        vals.append(worst)
    for i in range(1, len(vals)):
        vals[i] = max(vals[i], vals[i - 1])
    radii_arr = np.array(radii)
    vals_arr = np.array(vals)

    def omega(r):
        if r <= 0:
            return 0.0
        i = int(np.searchsorted(radii_arr, r, side="left"))
        if i >= len(vals_arr):
            return float(vals_arr[-1])
        return float(vals_arr[i])

    return omega


def surgery_delta(V: VectorField, center, eps: float, need_c1: bool = False) -> float:
    """:func:`choose_delta` for a surgery on V within ``eps``; in C^1 mode
    on the Jacobian modulus sampled on B_1(``center``), zero for a constant
    field (``lip_bound`` 0), and ``ValueError`` without an analytic Jacobian."""
    omega = None
    if need_c1:
        if V.jacobian is not None:
            omega = sampled_jacobian_modulus(V, center)
        elif V.lip_bound == 0.0:
            omega = lambda r: 0.0  # noqa: E731
        else:
            raise ValueError("C1 mode needs an analytic Jacobian (or a constant field)")
    return choose_delta(FieldStats(V.lip_bound, V.sup_bound, omega), eps, need_c1)


def _chord_bow(h: float, V: VectorField) -> float:
    """h^2/8 Lip sup: how far a path of V bows off a step's chord of length h."""
    return h ** 2 / 8.0 * V.lip_bound * V.sup_bound


def _chord_windows(guide: Trajectory, target, period: float, radius: float):
    """Time intervals where the per-step chord passes within ``radius``.

    Solves the chord distance quadratic |w + s u|^2 <= radius^2 per pair of
    step and lattice image of :func:`_lattice_chords`, one interval per pair
    (a step can repeat one); exact for straight steps.
    """
    h = np.diff(guide.times)
    out = []
    for i, w, u, uu in _lattice_chords(guide, target, period, radius):
        b = np.sum(w * u, axis=1)
        c = np.sum(w * w, axis=1) - radius * radius
        disc = b * b - uu * c
        hit = disc > 0.0
        sq = np.sqrt(disc[hit])
        s_lo = np.clip((-b[hit] - sq) / uu[hit], 0.0, 1.0)
        s_hi = np.clip((-b[hit] + sq) / uu[hit], 0.0, 1.0)
        keep = s_hi > s_lo
        idx = i[hit][keep]
        t_lo = guide.times[idx] + s_lo[keep] * h[idx]
        t_hi = guide.times[idx] + s_hi[keep] * h[idx]
        out.extend(zip(t_lo.tolist(), t_hi.tolist()))
    return out


def _surgery_windows(guide: Trajectory, anchors, delta, period, curvature, t1):
    """Merged time windows, those that start by ``t1``, where the guide
    passes within ``2.2 delta + curvature`` of an anchor: the chord through
    each ball, which only these spans integrate under the resolving cap.

    The path strays at most ``curvature`` from a step's chord, so at a
    window's ends it lies at least 2.2 delta from the anchor, outside the
    2 delta support; no pad is added.  When the guide starts at an anchor,
    the chord scan of that ball gives the first window, which starts at the
    guide's start.
    """
    radius = 2.2 * delta + curvature
    windows = sorted(w for a in anchors for w in _chord_windows(guide, a, period, radius))
    merged = []
    for w in windows:
        if merged and w[0] <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], w[1]))
        else:
            merged.append(w)
    return [w for w in merged if w[0] <= t1]


def _moving_anchors(maps) -> list:
    """The centers of those of ``maps`` that move, the anchors whose balls
    need surgery windows.  A map of displacement exactly zero is the
    identity, and in its ball the pushforward is V (Sherman-Morrison adds
    disp (grad . v) / (1 - grad . disp) = 0), so V's orbit already is the
    glued orbit there."""
    return [pm.x0 for pm in maps if np.any(pm.displacement)]


def _with_edges(V: VectorField, guide: Trajectory, t1: float, edges,
                settings: IntegratorSettings) -> Trajectory:
    """V's orbit ``guide`` on [t0, t1], ``t1`` within it, with every one of
    ``edges`` as a node.

    The guide's steps that hold an edge, and the one that holds ``t1``, are
    integrated again from their start nodes at ``settings`` with the edges,
    as rows of one batched call; every other step keeps the guide's nodes.
    A row that ends on a guide node must land on it (:func:`_landing_gate`).
    """
    times = guide.times
    # the guide step each edge and t1 lie in
    marks = np.append(edges, t1)
    at = times.searchsorted(marks, side="right") - 1
    rows = np.unique(at[times[at] < marks])
    stop = int(times.searchsorted(t1))
    if not rows.size:
        return guide.piece(0, stop)
    ends = times[rows + 1]
    steps = integrate(V, guide.states[rows], times[rows], np.minimum(ends, t1), settings,
                      edges=edges)
    on = ends <= t1  # the rows that end on the guide's next node
    _landing_gate("guide step", [s for s, g in zip(steps, on) if g], guide.states[rows[on] + 1])
    return _splice(guide, steps, zip(rows, rows + 1), stop)


def _landing_gate(what: str, rows, targets):
    """Raise ``BudgetExceeded`` at the first of ``rows`` whose end misses its
    row of ``targets``, a node of V's orbit (:func:`_landings`, one pass)."""
    if not rows:
        return
    landing, off = _landings([row.states[-1] for row in rows], targets)
    if off.size:
        row = rows[off[0]]
        raise BudgetExceeded(f"{what} [{row.t0:.6g}, {row.t1:.6g}] lands "
                             f"{landing[off[0]]:.3g} from V's orbit")


def _splice(base: Trajectory, rows, spans, stop: int) -> Trajectory:
    """``base`` from its first node to node ``stop``, each span (a, b) of its
    nodes replaced by its row, which starts at node a's time and, unless it
    is the last piece, ends at node b's."""
    pieces, j = [], 0
    for row, (a, b) in zip(rows, spans):
        if a > j:
            pieces.append(base.piece(j, a))
        pieces.append(row)
        j = b
    if j < stop:
        pieces.append(base.piece(j, stop))
    return Trajectory.join(pieces)


def surgery_orbit(V: VectorField, glued: VectorField, guide: Trajectory, y, windows,
                  t1: float, delta: float, settings: IntegratorSettings) -> Trajectory:
    """The orbit of ``glued``, V pushed forward by maps of scale ``delta``,
    from ``y`` on [t0, t1]: V's orbit ``guide`` outside the ``windows``, each
    window edge a node (:func:`_with_edges`), and in each window one row of
    one call on ``glued`` from that orbit (from ``y`` when the first window
    starts at t0) at ``settings.refined()`` (a row at ``settings`` drifts up
    to ~1.5e-9 |y| off V's orbit) under the step cap that resolves the
    balls.  The windows are those of the maps that move
    (:func:`_moving_anchors`); with none, the orbit is the guide's to t1.
    A row must land back on V's orbit (:func:`_landing_gate`) unless it
    ends on the guide's end, inside a ball, where the two orbits differ.
    Raises ``ValueError`` when no window starts at t0 and ``y`` is not the
    guide's first state."""
    from_y = bool(windows) and windows[0][0] == guide.t0
    if not from_y and not np.array_equal(y, guide.states[0]):
        raise ValueError("no surgery window starts at the guide's start, "
                         "so the orbit must start on it")
    edges = [e for w in windows for e in w if guide.t0 < e < t1]
    coarse = _with_edges(V, guide, t1, edges, settings)
    if not windows:
        return coarse
    los, his = (np.array(v) for v in zip(*windows))
    i_lo, i_hi = np.searchsorted(coarse.times, los), np.searchsorted(coarse.times, his)
    starts = coarse.states[i_lo]
    if from_y:
        starts[0] = y
    rows = integrate(glued, starts, los, his, settings.refined().resolving(delta, V.sup_bound))
    on = his < guide.t1
    _landing_gate("surgery window", [r for r, g in zip(rows, on) if g],
                  coarse.states[i_hi[on]])
    return _splice(coarse, rows, zip(i_lo, i_hi), len(coarse.times) - 1)


def correct_start(V: VectorField, traj: Trajectory, y_new, eps: float,
                  need_c1: bool = False, delta: Optional[float] = None,
                  settings: IntegratorSettings = IntegratorSettings()):
    """Move a trajectory's start x(t0) onto ``y_new`` by a local field change.

    The returned field coincides with V outside B_2delta(x(t0)) and deviates
    from it by less than eps in sup norm (and in Lipschitz norm when
    ``need_c1``); the returned trajectory is its :func:`surgery_orbit` from
    ``y_new`` through ``traj`` over [t0, t1], which is ``traj`` itself when
    ``y_new`` is x(t0): that map moves nothing, so it opens no window.
    ``traj`` must be V's orbit at ``settings``: its steps that hold a window
    edge are integrated again there and must land on its nodes, or
    ``BudgetExceeded`` is raised.
    ``delta`` defaults to :func:`surgery_delta` around ``y_new``.  Raises
    ``HypothesisViolation`` (carrying the required bound, from
    :class:`PhiMap`) when |y_new - x(t0)| exceeds delta^3.
    """
    if delta is None:
        delta = surgery_delta(V, y_new, eps, need_c1)
    pm = build_phi_map(traj.states[0], y_new, delta)
    vt = pushforward_field(V, pm)
    windows = _surgery_windows(traj, _moving_anchors((pm,)), delta, None,
                               _chord_bow(float(np.max(np.diff(traj.times))), V), traj.t1)
    return vt, surgery_orbit(V, vt, traj, y_new, windows, traj.t1, delta, settings), pm
