"""Global point-to-point steering for divergence-free fields with small drift.

The pipeline: correct the field so a radial weight makes almost every point
recurrent; lay waypoints from p to q with spacing tied to the admissible
steering radius; for each waypoint find a nearby recurrent start and ride
its orbit until it nearly returns; bend each return onto the next recurrent
start with a small trailing control; and move the very first orbit start
onto p itself by a bump surgery of the field, expressed as part of the
control (skipped when that start is p).  Each orbit is integrated once:
the ride is the hop's trajectory up to its trailing window.  The corrected
field is a C^2 spline, so rides, coasts and windows run at the request's
own integrator settings (DOP853 at tol 1e-11 by default); only a real
bridge's first coast, which crosses the surgery ball, caps its steps to
resolve it.  Every constant is chosen by the printed formulas and every
audited bound is checked; a failed bound aborts the plan rather than
shipping an uncertified result.

``verify_plan`` audits the serialized plan hop by hop: each hop is one row
of a batched stepper from its certified start, and hops after the first
add d rows whose forward differences give their monodromies.  Composing
the hops' landing defects through those monodromies predicts, to first
order, the terminal error of a serial replay from p; like that replay, it
is a numerical audit at the integrator's tolerance, not a rigorous bound.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field, replace
from typing import Optional

import numpy as np

from . import jsonio
from .correction import CorrectionResult, CorrectionSettings, correct
from .deform import FieldStats, c0_deviation_bound, correct_start, surgery_delta
from .errors import BudgetExceeded, NoReturnFound, ScheduleError, VMDViolation
from .fields import VectorField, check_vmd
from .integrate import (ControlSchedule, FieldDifferenceControl,
                        IntegratorSettings, Segment, SumControl, Trajectory,
                        ZeroControl, _landings, integrate,
                        integrate_controlled)
from .recurrence import find_poisson_stable
from .sampling import Box
from .steer_local import LocalSteerParams, steer_from_states

__all__ = ["PlanRequest", "PlanResult", "VerifyReport", "choose_rho_tau",
           "waypoints", "plan", "verify_plan"]

TWO_PI = 2.0 * np.pi


def choose_rho_tau(V: VectorField, eps: float):
    """Global waypoint scale rho and its companion window tau = rho*eps/12.

    rho is 90% of min(1/4, eps^2/(144(L+eps)), eps^2/(288(L+eps)(S+eps)))
    for the declared bounds L, S of V; with any return horizon above 3/eps
    the derived pair stays inside every per-hop constraint.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    L, S = V.lip_bound, V.sup_bound
    rho = 0.9 * min(0.25,
                    eps * eps / (144.0 * (L + eps)),
                    eps * eps / (288.0 * (L + eps) * (S + eps)))
    tau = rho * eps / 12.0
    return rho, tau


def waypoints(p, q, rho: float) -> np.ndarray:
    """Uniform points on the segment pq with spacing <= 0.9 * rho / 4.

    Identical endpoints short-circuit to a single point; distinct endpoints
    always yield at least the pair [p, q] exactly (the distance norm can
    underflow for subnormal gaps).
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if np.array_equal(p, q):
        return p[None, :].copy()
    dist = float(np.linalg.norm(q - p))
    n = max(2, int(np.ceil(dist / (0.9 * rho / 4.0))) + 1)
    ts = np.linspace(0.0, 1.0, n)
    pts = p[None, :] + ts[:, None] * (q - p)[None, :]
    pts[0] = p
    pts[-1] = q
    return pts


@dataclass(frozen=True)
class PlanRequest:
    """Inputs for the global planner; p = q short-circuits to a zero control."""

    p: tuple
    q: tuple
    epsilon: float
    T_max_per_hop: float = 200.0
    n_candidates: int = 6
    seed: int = 0
    terminal_tol: float = 1e-3
    correction_resolution: int = 512
    correction_box: Optional[Box] = None
    orbit_margin: float = float(np.pi + 1.0)
    vmd_schedule: tuple = (TWO_PI, 2 * TWO_PI, 4 * TWO_PI)
    vmd_threshold: Optional[float] = None
    wall_budget_s: Optional[float] = None
    # rides, coasts and windows: the corrected field is smooth, so they take
    # no step cap and so run on DOP853, whose seventh-order dense output
    # refines near-returns at its natural steps
    integrator: IntegratorSettings = dc_field(
        default_factory=lambda: IntegratorSettings(tol=1e-11))

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")


@dataclass(frozen=True)
class PlanResult:
    control: ControlSchedule
    trajectory: Trajectory
    terminal_error: float
    certificate: dict
    corrected: Optional[CorrectionResult] = None
    bridge_field: Optional[VectorField] = None

    @property
    def T(self) -> float:
        return self.control.t1 if self.control.segments else 0.0

    def plot_rows(self):
        """(t, |u|, distance to q) rows for plotting, at 2000 times."""
        q = np.asarray(self.certificate["q"], dtype=float)
        if not self.control.segments:
            return [(0.0, 0.0, float(np.linalg.norm(self.trajectory.states[0] - q)))]
        ts = np.linspace(self.control.t0, self.control.t1, 2000)
        # the scalar ``at`` per time: numpy's array power rounds differently
        xs = np.array([self.trajectory.at(float(t)) for t in ts])
        us, dq = self.control.values(ts, xs), xs - q
        return list(zip(ts.tolist(), np.sqrt(np.vecdot(us, us)).tolist(),
                        np.sqrt(np.vecdot(dq, dq)).tolist()))

    def write_files(self, outdir):
        import os

        os.makedirs(outdir, exist_ok=True)
        jsonio.write_json(os.path.join(outdir, "control.json"), self.control.to_json())
        jsonio.write_text(os.path.join(outdir, "trajectory.csv"), self.trajectory.to_csv())
        jsonio.write_json(os.path.join(outdir, "certificate.json"), self.certificate)
        rows = self.plot_rows()
        lines = ["t,u_norm,dist_to_q"]
        lines += [f"{repr(t)},{repr(u)},{repr(d)}" for t, u, d in rows]
        jsonio.write_text(os.path.join(outdir, "plotdata.csv"), "\n".join(lines) + "\n")


# Waypoints ride to their first returns in blocks of this many, on one
# batched stepper per block, and each ride is its hop's coast.  On the
# 64-hop far-target prefix, blocks of 32 planned in half the time of blocks
# of 8 and as fast as blocks of 64.  The benchmark's far_chain (8 hops) is
# one block at any size of 8 or more.
_RIDE_BLOCK = 32
# verify_plan replays hops in blocks of this many, one stepper call each; a
# block only pays the stepper's per-step Python once, and the block size
# moves no bit of the report
_VERIFY_BLOCK = 64
# trajectory nodes the certificate's budget decomposition samples
_AUDIT_SAMPLES = 2000


class _WallClock:
    def __init__(self, budget):
        self.budget = budget
        self.start = self.stage_start = time.monotonic()

    def stage(self):
        """Start the stage that later projections extrapolate."""
        self.stage_start = time.monotonic()

    def project(self, done: int, total: int, stage: str):
        """Abort when extrapolated cost exceeds the budget.

        The time before the current stage counts once; the stage's own time
        is scaled by ``total / done``.  The projection only ever aborts; it
        never alters computed values, so completed plans remain
        bit-deterministic.
        """
        if self.budget is None or done == 0:
            return
        now = time.monotonic()
        spent = now - self.stage_start
        projected = (self.stage_start - self.start) + spent * (total / done)
        if projected > self.budget and now - self.start > min(5.0, 0.25 * self.budget):
            raise BudgetExceeded(
                f"wall budget {self.budget:.0f}s exhausted during {stage}: "
                f"{done}/{total} units took {spent:.1f}s, projected "
                f"{projected:.0f}s for the full plan")


def plan(V: VectorField, req: PlanRequest) -> PlanResult:
    """Construct a certified control steering x(0)=p to x(T)=q with |u| < eps.

    A first recurrent start off p is bridged by ``deform.correct_start``:
    the first coast is its ride, step-capped only where it passes the ball.
    Raises ``VMDViolation`` when the drift gate fails, ``NoReturnFound`` when
    a waypoint has no near-return inside the horizon, and ``BudgetExceeded``
    when an audited inequality (or the wall budget) fails.
    """
    p = np.asarray(req.p, dtype=float)
    q = np.asarray(req.q, dtype=float)
    eps = req.epsilon
    clock = _WallClock(req.wall_budget_s)

    if np.array_equal(p, q):
        return _trivial_plan(p, q)

    # gate: vanishing mean drift
    threshold = req.vmd_threshold if req.vmd_threshold is not None else eps / 10.0
    drift = check_vmd(V, req.vmd_schedule, threshold)
    if drift.verdict != "vanishing":
        raise VMDViolation(
            f"mean-drift verdict is {drift.verdict!r} at threshold {threshold:.3g}",
            report=drift)

    # corrected field with budget eps/3
    box = req.correction_box or Box.bounding([p, q], margin=req.orbit_margin)
    corr = correct(V, eps / 3.0, settings=CorrectionSettings(
        box=box, resolution=req.correction_resolution, seed=req.seed))
    vt = corr.field

    rho, tau_global = choose_rho_tau(V, eps)
    wps = waypoints(p, q, rho)
    n = len(wps)

    delta_bridge = surgery_delta(vt, p, eps / 3.0)
    delta_search = 0.9 * min(rho / 8.0, delta_bridge ** 3)
    T_min = 3.0 / eps

    # u = Vt - V realizes the corrected field; the bridge replaces it on the
    # first coast
    fd = FieldDifferenceControl(vt, V, sup_hint=float(corr.sup_bound))
    coast = SumControl((fd, ZeroControl()))
    v_bar, bridge, first_coast = vt, fd, coast

    # Plan a block of waypoints at a time.  Their rides to the first return
    # share one batched stepper at the request's settings, and each ride is
    # its hop's coast on dx/dt = V(x) + u(t): the ride's orbit from the
    # hop's start (the recurrent start x_j') up to its window at s - tau.
    # Each window is anchored on its coast's end and integrated once its
    # target, the next start, is known.  A window lands on its target up to
    # rounding, and the landing is gated, so the next hop may start at the
    # target itself: the hops are independent, and integration errors are
    # absorbed hop by hop instead of compounding along the chain.
    hops, hop_checks, coasts, pieces, segments = [], [], [], [], []
    stable_pts = np.empty_like(wps)
    stable_pts[-1] = q
    t_hop = [0.0]  # start time of every hop, then the plan's end
    hop_sup = 0.0  # the largest window's certified sup
    clock.stage()
    for j0 in range(0, n - 1, _RIDE_BLOCK):
        block = range(j0, min(j0 + _RIDE_BLOCK, n - 1))
        recs = find_poisson_stable(vt, wps[block.start:block.stop], delta_search,
                                   rho / 2.0, T_min, req.T_max_per_hop,
                                   req.n_candidates, [req.seed + j for j in block],
                                   settings=req.integrator)
        for j, rec in zip(block, recs):
            if isinstance(rec, NoReturnFound):
                raise rec
            T = rec.return_time
            params = LocalSteerParams.auto(vt, T, eps / 3.0)
            hops.append({
                "T": T,
                "return_error": rec.return_error,
                "z": rec.trajectory.at(T),
                "params": params,
            })
            stable_pts[j] = rec.point
            t_hop.append(t_hop[-1] + T)
        coasts += _coasts(vt, [rec.trajectory for rec in recs], t_hop[block.start:block.stop],
                          [t_hop[j + 1] - hops[j]["params"].tau for j in block],
                          req.integrator)
        if j0 == 0 and not np.array_equal(stable_pts[0], p):
            # bridge the true start: a bump surgery moves x_1' onto p, so the
            # first coast runs from p, is x_1''s ride outside the ball and
            # resolves the ball under the step cap only where it passes it;
            # it is the ride itself when the first candidate, p, returned
            v_bar, coasts[0], pm = correct_start(vt, coasts[0], p, eps / 3.0,
                                                 delta=delta_bridge, settings=req.integrator)
            bridge = FieldDifferenceControl(v_bar, V, sup_hint=float(
                corr.sup_bound + c0_deviation_bound(FieldStats(vt.lip_bound, vt.sup_bound),
                                                    pm.delta)))
            first_coast = SumControl((bridge, ZeroControl()))

        # the windows whose targets, the next starts, are known by now: each
        # gap is gated, then every window is a row of one stepper call over
        # the hops' contiguous segments, from its coast's end over its
        # steering span, and each landing is gated
        ready = range(len(hop_checks), block.stop if block.stop == n - 1 else block.stop - 1)
        hop_segs, anchors = [], []
        for j in ready:
            h, target = hops[j], stable_pts[j + 1]
            rho_local = h["params"].rho_local
            gap = float(np.linalg.norm(h["z"] - target))
            if not gap < rho_local:
                raise BudgetExceeded(
                    f"hop {j + 1}: |x_j(T_j) - x_(j+1)'| = {gap:.3g} >= rho_local "
                    f"= {rho_local:.3g}")
            anchors.append(coasts[j].states[-1])
            seg = steer_from_states(vt, t_hop[j], t_hop[j + 1], h["z"], anchors[-1], target,
                                    eps / 3.0, h["params"])
            # the window steers on Vt, where its landing is exact algebra
            zero, steer = seg.schedule.segments
            hop_segs += [Segment(zero.t0, zero.t1, first_coast if j == 0 else coast),
                         Segment(steer.t0, steer.t1, SumControl((fd, steer.u)))]
            hop_checks.append({"gap": gap, "rho_local": rho_local})
            hop_sup = max(hop_sup, seg.schedule.sup_cert)
        if ready:
            windows = integrate_controlled(
                V, ControlSchedule(tuple(hop_segs), dim=V.dim), np.array(anchors),
                [w.t0 for w in hop_segs[1::2]], [w.t1 for w in hop_segs[1::2]], req.integrator)
            for j, window in zip(ready, windows):
                landing, off = _landings(window.states[-1], stable_pts[j + 1])
                if off.size:
                    raise BudgetExceeded(f"hop {j + 1} lands {landing:.3g} from the next start")
                hop_checks[j]["landing_defect"] = float(landing)
                pieces += [coasts[j], window]
            segments += hop_segs
        clock.project(block.stop, n - 1, "planning")

    control = ControlSchedule(tuple(segments), hop_sup + bridge.sup_hint, dim=V.dim)
    traj = Trajectory.join(pieces)
    terminal_error = float(np.linalg.norm(traj.states[-1] - q))
    if terminal_error > req.terminal_tol:
        raise BudgetExceeded(
            f"terminal error {terminal_error:.3g} > tolerance {req.terminal_tol:.3g}")

    certificate = _build_certificate(V, vt, v_bar, corr, control, hop_sup, traj,
                                     p, q, eps, rho, tau_global, delta_search,
                                     delta_bridge, wps, stable_pts, hops,
                                     hop_checks, req)
    return PlanResult(control, traj, terminal_error, certificate, corr, v_bar)


def _coasts(vt: VectorField, rides, t0s, t1s, settings: IntegratorSettings) -> list:
    """Each ride's orbit on its [t0, t1], times shifted by t0: its nodes
    before t1, then one step onto t1 at the rides' own settings (``h_init``
    at the widest gap spans every gap at once), every ride's closing step a
    row of one batched call."""
    heads = []
    for ride, t0, t1 in zip(rides, t0s, t1s):
        times = ride.times + t0
        # the last node before t1 by more than the stepper's snap to a span end
        i = int(np.searchsorted(times, t1 - 1e-14 * max(1.0, abs(t1)))) - 1
        heads.append(replace(ride.piece(0, i), times=times[:i + 1]))
    gap = max(t1 - h.t1 for h, t1 in zip(heads, t1s))
    closes = integrate(vt, np.array([h.states[-1] for h in heads]), [h.t1 for h in heads],
                       t1s, replace(settings, h_init=gap))
    return [Trajectory.join([h, c]) for h, c in zip(heads, closes)]


def _at_rest(p) -> Trajectory:
    """The one-node trajectory at p, time 0."""
    p = np.asarray(p, dtype=float)
    return Trajectory(np.array([0.0]), p[None, :].copy(),
                      np.zeros((0, p.size)), np.zeros((0, p.size)))


def _audit_nodes(traj: Trajectory, n: int):
    """(times, states) of at most n nodes of traj, spread evenly."""
    idx = np.unique(np.linspace(0, len(traj.times) - 1,
                                min(n, len(traj.times))).astype(int))
    return traj.times[idx], traj.states[idx]


def _sampled_sup(control: ControlSchedule, ts, xs) -> float:
    """Largest |u| over the control's values at the given times and states;
    each row's norm is bitwise ``np.linalg.norm`` of that row alone."""
    v = control.values(ts, xs)
    return float(np.max(np.sqrt(np.vecdot(v, v))))


def _trivial_plan(p, q) -> PlanResult:
    cert = {
        "p": jsonio.vec(p), "q": jsonio.vec(q),
        "epsilon": None, "sup_u_sampled": 0.0, "sup_u_analytic": 0.0,
        "terminal_error": 0.0, "T": 0.0, "n_waypoints": 1, "hops": [],
        "note": "p equals q; zero control of length zero",
    }
    return PlanResult(ControlSchedule((), 0.0, dim=len(p)), _at_rest(p), 0.0, cert)


def _build_certificate(V, vt, v_bar, corr, control, hop_sup, traj, p, q, eps,
                       rho, tau_global, delta_search, delta_bridge, wps,
                       stable_pts, hops, hop_checks, req) -> dict:
    # budget decomposition sampled along the realized trajectory
    ts, pts = _audit_nodes(traj, _AUDIT_SAMPLES)
    a1 = (0.0 if v_bar is vt else
          float(np.max(np.linalg.norm(v_bar.eval(pts) - vt.eval(pts), axis=1))))
    a2 = float(np.max(np.linalg.norm(vt.eval(pts) - V.eval(pts), axis=1)))
    a3 = float(hop_sup)
    sup_sampled = _sampled_sup(control, ts, pts)
    budget = {
        "bridge_minus_corrected": a1,
        "corrected_minus_original": a2,
        "hop_control_sup": a3,
        "bound_each": eps / 3.0,
        "sum": a1 + a2 + a3,
    }
    for name, val in (("bridge_minus_corrected", a1),
                      ("corrected_minus_original", a2),
                      ("hop_control_sup", a3)):
        if val >= eps / 3.0:
            raise BudgetExceeded(f"budget term {name} = {val:.3g} >= eps/3 = {eps / 3.0:.3g}")
    if sup_sampled >= eps:
        raise BudgetExceeded(f"sampled sup|u| = {sup_sampled:.3g} >= eps = {eps:.3g}")

    spacing = float(np.max(np.linalg.norm(np.diff(wps, axis=0), axis=1))) if len(wps) > 1 else 0.0
    return {
        "p": jsonio.vec(p),
        "q": jsonio.vec(q),
        "epsilon": float(eps),
        "rho": float(rho),
        "tau": float(tau_global),
        "delta": float(delta_search),
        "delta_bridge": float(delta_bridge),
        "waypoint_spacing": spacing,
        "n_waypoints": int(len(wps)),
        "T": float(traj.times[-1]),
        "terminal_error": float(np.linalg.norm(traj.states[-1] - q)),
        "terminal_tol": float(req.terminal_tol),
        "sup_u_sampled": sup_sampled,
        "sup_u_analytic": float(control.sup_cert),
        "budget_decomposition": budget,
        "waypoints": [jsonio.vec(w) for w in wps],
        "stable_points": [jsonio.vec(s) for s in stable_pts],
        "return_times": [float(h["T"]) for h in hops],
        "return_errors": [float(h["return_error"]) for h in hops],
        "hop_windows": [float(h["params"].tau) for h in hops],
        "hop_checks": hop_checks,
        "correction": corr.to_json(),
        "seeds": {"base": int(req.seed)},
        "T_min": 3.0 / eps,
    }


@dataclass(frozen=True)
class VerifyReport:
    checks: list
    terminal_error: float
    sup_u_sampled: float
    passed: bool
    landing_defects: list
    monodromy_gains: list

    def to_json(self) -> dict:
        return {
            "checks": self.checks,
            "terminal_error": float(self.terminal_error),
            "sup_u_sampled": float(self.sup_u_sampled),
            "passed": bool(self.passed),
            "landing_defects": [float(e) for e in self.landing_defects],
            "monodromy_gains": [float(g) for g in self.monodromy_gains],
        }


# forward-difference step of the monodromy rows
_MONODROMY_H = 1e-6
# verify_plan's replay: without a step cap, so on DOP853, at a tenth of the
# rides' default tol, so it takes steps of its own.  On quickstart, far_chain
# and a resolution-256 chain it lands within 1.7e-10 of a Dormand-Prince
# 5(4) solve at tol 1e-14, where a Dormand-Prince 5(4) replay at 1e-10 is
# about 2e-9 off it, over the landing gate.
_AUDIT = IntegratorSettings(tol=1e-12)


class _Certificate(dict):
    """A certificate (or a hop's entry) whose missing key is a ScheduleError."""

    def __missing__(self, key):
        raise ScheduleError(f"certificate has no key {key!r}")


def verify_plan(V: VectorField, result: PlanResult) -> VerifyReport:
    """Independent audit: re-integrate the serialized schedule hop by hop and
    re-check every certificate invariant.

    The schedule is rebuilt from its document, ``ControlSchedule._document()``,
    whose arrays stay arrays: every field is a new ``VectorField`` (a
    corrected field a new spline, its bounds recomputed from the shared,
    read-only coefficients and non-finite ones refused), every descriptor
    and segment is new, and each steering ``fz`` is evaluated again.  The
    base64 text of ``to_json`` belongs to the file writer and reader;
    ``flowsteer plan --out`` audits the ``control.json`` it wrote.

    Every hop claims to take its certified start x_j' (p for hop 0) to the
    next one, x_(j+1)' (q after the last hop), so each claim is replayed on
    its own: hop j is one row of a batched stepper from x_j' over its two
    segments, landing at y_j with defect e_j = y_j - x_(j+1)'.  Hops ride in
    blocks of ``_VERIFY_BLOCK``, one stepper call each.  Each hop j >= 1 also
    has d rows from x_j' + h e_i (h = 1e-6), whose forward differences give
    its monodromy M_j.  A serial replay from p enters hop j off x_j' by
    E_(j-1) and so, to first order, ends it off x_(j+1)' by
    E_j = M_j E_(j-1) + e_j, from E_0 = e_0; ``terminal_error`` is |E_last|.
    That holds for a serial replay that restarts its stepper at every hop;
    one that carries its step size across hop boundaries makes integration
    errors of its own, of the defects' size.  This is a first-order
    numerical audit, as the serial replay is, not a rigorous bound on the
    plan's error.  A one-hop plan is one row from p, bitwise the serial
    replay.  Every hop must land within ``1e-9 max(1, |x_(j+1)'|)`` of the
    next start, the plan's own landing gate, and the check names the hops
    that do not.  A certificate that states no ``terminal_tol`` fails; one
    that lacks another key read here is a ScheduleError naming the key.

    The replay, ``_AUDIT``, runs DOP853 at tol 1e-12, ten times tighter
    than ``PlanRequest``'s default, without a step cap (the corrected field
    is smooth): its steps are its own, not the rides', and its error stays
    well below the landing gate.  Only a segment whose control references a
    pushed-forward field, the first coast of a real bridge, is replayed on
    its own from p, whole under a cap that resolves the bridge ball at speed
    ``V.sup + eps`` (the replay is blind to where the coast passes the
    ball); hop 0's row continues from its end.
    """
    cert = _Certificate(result.certificate)
    q = np.asarray(cert["q"], dtype=float)
    p = np.asarray(cert["p"], dtype=float)
    checks = []

    def check(name, ok, detail):
        checks.append({"name": name, "pass": bool(ok), "detail": detail})

    if not result.control.segments:
        ok = bool(np.array_equal(p, q))
        check("trivial_plan", ok, "p == q with empty control")
        return VerifyReport(checks, 0.0, 0.0, ok, [], [])

    reloaded = ControlSchedule.from_json(result.control._document())
    eps = float(cert["epsilon"])
    starts = np.asarray(cert["stable_points"], dtype=float)
    n = len(starts) - 1
    if len(reloaded.segments) != 2 * n:
        raise ScheduleError(f"control has {len(reloaded.segments)} segments for {n} hops, "
                            "not a coast and a window each")
    starts[0] = p
    traj, ends, gains = _replay_hops(V, reloaded, starts, float(cert["delta_bridge"]), eps)
    targets = np.concatenate([starts[1:n], q[None, :]])
    defects = ends - targets
    landing, off = _landings(ends, targets)
    E = defects[0]
    for M, e in zip(gains, defects[1:]):
        E = M @ E + e
    terminal = float(np.linalg.norm(E))
    tol = cert.get("terminal_tol")
    if tol is None:
        check("terminal_tol", False, "the certificate states no terminal_tol")
    else:
        tol = float(tol)
        check("terminal_error", terminal <= tol,
              f"composed |x(T) - q| = {terminal:.3g} vs {tol:.3g}")
    check("hop_landings", not off.size,
          "; ".join(f"hop {j + 1} lands {landing[j]:.3g} from the next start" for j in off)
          or "every hop lands within 1e-9 max(1, |x_(j+1)'|) of the next start")

    sup_u = _sampled_sup(reloaded, *_audit_nodes(traj, 4000))
    check("control_bound", sup_u < eps, f"sampled sup|u| = {sup_u:.3g} vs eps = {eps:.3g}")

    rho, tau = cert["rho"], cert["tau"]
    check("rho_bound", rho < 0.25, f"rho = {rho:.3g}")
    check("tau_formula", abs(tau - rho * eps / 12.0) <= 1e-15 * max(1.0, tau),
          "tau = rho*eps/12")
    check("delta_bound", cert["delta"] < rho / 8.0,
          f"delta = {cert['delta']:.3g} vs rho/8 = {rho / 8.0:.3g}")
    check("spacing_bound", cert["waypoint_spacing"] < rho / 4.0,
          f"spacing = {cert['waypoint_spacing']:.3g} vs rho/4 = {rho / 4.0:.3g}")
    t_min = cert["T_min"]
    check("return_horizons", all(T > t_min for T in cert["return_times"]),
          f"all T_j > {t_min:.3g}")
    check("stable_point_radii",
          all(np.linalg.norm(np.asarray(s) - np.asarray(w)) < cert["delta"] * (1 + 1e-9)
              for s, w in zip(cert["stable_points"][:-1], cert["waypoints"][:-1])),
          "|x_j' - x_j| < delta")
    check("hop_preconditions",
          all(h["gap"] < h["rho_local"] for h in map(_Certificate, cert["hop_checks"])),
          "per-hop |x_j(T_j) - x_(j+1)'| < rho_local")

    passed = all(c["pass"] for c in checks)
    return VerifyReport(checks, terminal, sup_u, passed, landing.tolist(),
                        [float(np.linalg.norm(M, 2)) for M in gains])


def _replay_hops(V: VectorField, u: ControlSchedule, starts, delta_bridge: float,
                 eps: float):
    """Replay hop j of u, its segments 2j and 2j + 1, from ``starts[j]``.

    Returns the hops' trajectories joined in time (the junction states
    differ by the landing defects), every hop's end state as an (n, d)
    array, and the monodromy M_j of each hop j >= 1: its end's forward
    differences over d more rows from ``starts[j] + h e_i``, column i.  A
    bridged first segment is integrated alone from ``starts[0]`` under a
    step cap that resolves a ball of radius ``delta_bridge`` at speed
    ``V.sup + eps``, and hop 0's row starts where it ends.  Each stepper
    call is handed only the segments its rows cross, a block's hops (less
    the bridged head) or the head alone, so its set-up grows with the block,
    not the plan.  A block whose own segments reference a pushed-forward
    field runs under the cap too.
    """
    fine = _AUDIT
    capped = fine.resolving(delta_bridge, V.sup_bound + eps)
    segs = u.segments
    n, d = len(starts) - 1, u.dim
    x0 = np.array(starts[:n], dtype=float)
    t0 = [segs[2 * j].t0 for j in range(n)]
    t1 = [segs[2 * j + 1].t1 for j in range(n)]
    head = []
    if _bridged(segs[0]):
        head = [integrate_controlled(V, ControlSchedule(segs[:1], dim=d), x0[0], t0[0],
                                     segs[0].t1, capped)]
        x0[0], t0[0] = head[0].states[-1], segs[0].t1
    hops, gains = [], []
    step = _MONODROMY_H * np.eye(d)
    for j0 in range(0, n, _VERIFY_BLOCK):
        block = range(j0, min(j0 + _VERIFY_BLOCK, n))
        probed = [j for j in block if j > 0]
        rows = list(block) + [j for j in probed for _ in range(d)]
        xs = np.concatenate([x0[list(block)]] + [x0[j] + step for j in probed])
        own = segs[max(2 * j0, len(head)):2 * block.stop]
        out = integrate_controlled(V, ControlSchedule(own, dim=d), xs, [t0[j] for j in rows],
                                   [t1[j] for j in rows],
                                   capped if any(map(_bridged, own)) else fine)
        hops += out[:len(block)]
        for i, j in enumerate(probed):
            lo = len(block) + i * d
            ys = np.array([r.states[-1] for r in out[lo:lo + d]])
            gains.append(((ys - out[j - j0].states[-1]) / _MONODROMY_H).T)
    ends = np.array([h.states[-1] for h in hops])
    return Trajectory.join(head + hops), ends, gains


def _bridged(segment: Segment) -> bool:
    """Whether the segment's control references a pushed-forward field."""
    return any(f.descriptor["kind"] == "pushforward" for f in segment.u.fields)
