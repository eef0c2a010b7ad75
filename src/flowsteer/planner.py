"""Global point-to-point steering for divergence-free fields with small drift.

The pipeline: correct the field so a radial weight makes almost every point
recurrent; lay waypoints from p to q with spacing tied to the admissible
steering radius; for each waypoint find a nearby recurrent start and ride
its orbit until it nearly returns; bend each return onto the next recurrent
start with a small trailing control; finally move the very first orbit start
onto p itself by a bump surgery of the field, and express that surgery as
part of the control.  Every constant is chosen by the printed formulas and
every audited bound is checked; a failed bound aborts the plan rather than
shipping an uncertified result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from . import jsonio
from .correction import CorrectionResult, CorrectionSettings, correct
from .deform import FieldStats, build_phi_map, choose_delta, pushforward_field
from .errors import BudgetExceeded, VMDViolation
from .fields import VectorField, check_vmd
from .integrate import (ControlSchedule, FieldDifferenceControl,
                        IntegratorSettings, Segment, SumControl, Trajectory,
                        concat, integrate_controlled)
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
    # consistency with the per-hop windows: rho < T (eps/3)/4 for T > 3/eps
    assert rho < (3.0 / eps) * (eps / 3.0) / 4.0 + 1e-300
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
    audit_samples: int = 2000
    correction_resolution: int = 512
    correction_box: Optional[Box] = None
    orbit_margin: float = float(np.pi + 1.0)
    vmd_schedule: tuple = (TWO_PI, 2 * TWO_PI, 4 * TWO_PI)
    vmd_threshold: Optional[float] = None
    wall_budget_s: Optional[float] = None
    # near-return certification rides on dense output quality, so keep the
    # node spacing short enough for the cubic interpolant to stay below the
    # return radii in play
    integrator: IntegratorSettings = dc_field(
        default_factory=lambda: IntegratorSettings(rtol=1e-10, atol=1e-10, h_max=0.1))

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

    def plot_rows(self, n: int = 2000):
        """(t, |u|, distance to q) rows for plotting."""
        q = np.asarray(self.certificate["q"], dtype=float)
        if not self.control.segments:
            return [(0.0, 0.0, float(np.linalg.norm(self.trajectory.states[0] - q)))]
        ts = np.linspace(self.control.t0, self.control.t1, n)
        rows = []
        for t in ts:
            x = self.trajectory.at(float(t))
            u = self.control.value(float(t), x)
            rows.append((float(t), float(np.linalg.norm(u)),
                         float(np.linalg.norm(x - q))))
        return rows

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


class _WallClock:
    def __init__(self, budget):
        self.budget = budget
        self.start = time.monotonic()

    @property
    def elapsed(self):
        return time.monotonic() - self.start

    def project(self, done: int, total: int, passes: float, stage: str):
        """Abort when extrapolated cost exceeds the budget.

        The projection only ever aborts; it never alters computed values, so
        completed plans remain bit-deterministic.
        """
        if self.budget is None or done == 0:
            return
        projected = self.elapsed * (total / done) * passes
        if projected > self.budget and self.elapsed > min(5.0, 0.25 * self.budget):
            raise BudgetExceeded(
                f"wall budget {self.budget:.0f}s exhausted during {stage}: "
                f"{done}/{total} units took {self.elapsed:.1f}s, projected "
                f"{projected:.0f}s for the full plan")


def plan(V: VectorField, req: PlanRequest) -> PlanResult:
    """Construct a certified control steering x(0)=p to x(T)=q with |u| < eps.

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

    delta_bridge = choose_delta(FieldStats(vt.lip_bound, vt.sup_bound), eps / 3.0,
                                need_c1=False)
    delta_search = 0.9 * min(rho / 8.0, delta_bridge ** 3)
    T_min = 3.0 / eps

    # per-waypoint recurrent starts and their near-return data
    hops = []
    stable_pts = np.empty_like(wps)
    stable_pts[-1] = q
    for j in range(n - 1):
        rec = find_poisson_stable(vt, wps[j], delta_search, rho / 2.0,
                                  T_min, req.T_max_per_hop,
                                  req.n_candidates, req.seed + j,
                                  settings=req.integrator,
                                  keep_trajectory=True)
        params = LocalSteerParams.auto(vt, rec.return_time, eps / 3.0)
        orbit = rec.trajectory
        hops.append({
            "start": rec.point,
            "T": rec.return_time,
            "return_error": rec.return_error,
            "z": orbit.at(rec.return_time),
            "anchor": orbit.at(rec.return_time - params.tau),
            "params": params,
        })
        stable_pts[j] = rec.point
        clock.project(j + 1, n - 1, 3.0, "recurrence search")

    # chain the steering hops
    u_n = ControlSchedule((), 0.0)
    t_cursor = 0.0
    hop_checks = []
    for j in range(n - 1):
        h = hops[j]
        target = stable_pts[j + 1]
        params: LocalSteerParams = h["params"]
        rho_local = min(h["T"] * (eps / 3.0) / 4.0,
                        (eps / 3.0) ** 2 / (16.0 * vt.lip_bound),
                        (eps / 3.0) ** 2 / (32.0 * vt.lip_bound * vt.sup_bound))
        gap = float(np.linalg.norm(h["z"] - target))
        if not gap < rho_local:
            raise BudgetExceeded(
                f"hop {j + 1}: |x_j(T_j) - x_(j+1)'| = {gap:.3g} >= rho_local "
                f"= {rho_local:.3g}")
        hop_checks.append({"gap": gap, "rho_local": rho_local})
        s = t_cursor + h["T"]
        seg = steer_from_states(vt, t_cursor, s, h["z"], h["anchor"], target,
                                eps / 3.0, params)
        u_n = concat(u_n, seg.schedule)
        t_cursor = s
    T_total = t_cursor

    # bridge the true start: move x_1' onto p through a bump surgery
    bump_map = build_phi_map(stable_pts[0], p, delta_bridge)
    v_bar = pushforward_field(vt, bump_map)

    fd = FieldDifferenceControl(v_bar, V, sup_hint=float(
        corr.sup_delta + _c0_bound(vt, delta_bridge)))
    full_segments = tuple(Segment(s.t0, s.t1, SumControl((fd, s.u)))
                           for s in u_n.segments)
    control = ControlSchedule(full_segments, u_n.sup_cert + fd.sup_hint)

    # realize the plan: integrate dx/dt = V(x) + u(t) from p; the final pass
    # costs about as much as the searches did (one traversal of [0, T])
    clock.project(1, 2, 2.0, "final integration")
    final_settings = req.integrator.resolving(delta_bridge, vt.sup_bound)
    traj = integrate_controlled(V, control, p, 0.0, T_total, final_settings)
    terminal_error = float(np.linalg.norm(traj.states[-1] - q))
    if terminal_error > req.terminal_tol:
        raise BudgetExceeded(
            f"terminal error {terminal_error:.3g} > tolerance {req.terminal_tol:.3g}")

    certificate = _build_certificate(V, vt, v_bar, corr, control, u_n, traj,
                                     p, q, eps, rho, tau_global, delta_search,
                                     delta_bridge, wps, stable_pts, hops,
                                     hop_checks, req)
    return PlanResult(control, traj, terminal_error, certificate, corr, v_bar)


def _c0_bound(V: VectorField, delta: float) -> float:
    from .deform import c0_deviation_bound, default_bump

    return c0_deviation_bound(FieldStats(V.lip_bound, V.sup_bound), delta,
                              default_bump())


def _trivial_plan(p, q) -> PlanResult:
    traj = Trajectory(np.array([0.0]), p[None, :].copy(),
                      np.zeros((0, p.size)), np.zeros((0, p.size)), 0.0)
    cert = {
        "p": jsonio.vec(p), "q": jsonio.vec(q),
        "epsilon": None, "sup_u_sampled": 0.0, "sup_u_analytic": 0.0,
        "terminal_error": 0.0, "T": 0.0, "n_waypoints": 1, "hops": [],
        "note": "p equals q; zero control of length zero",
    }
    return PlanResult(ControlSchedule((), 0.0), traj, 0.0, cert)


def _build_certificate(V, vt, v_bar, corr, control, u_n, traj, p, q, eps,
                       rho, tau_global, delta_search, delta_bridge, wps,
                       stable_pts, hops, hop_checks, req) -> dict:
    # budget decomposition sampled along the realized trajectory
    idx = np.unique(np.linspace(0, len(traj.times) - 1,
                                min(req.audit_samples, len(traj.times))).astype(int))
    pts = traj.states[idx]
    ts = traj.times[idx]
    a1 = float(np.max(np.linalg.norm(v_bar.eval(pts) - vt.eval(pts), axis=1)))
    a2 = float(np.max(np.linalg.norm(vt.eval(pts) - V.eval(pts), axis=1)))
    a3 = float(u_n.sup_cert)
    sup_sampled = 0.0
    for t, x in zip(ts, pts):
        u = control.value(float(t), x)
        sup_sampled = max(sup_sampled, float(np.linalg.norm(u)))
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

    def to_json(self) -> dict:
        return {
            "checks": self.checks,
            "terminal_error": float(self.terminal_error),
            "sup_u_sampled": float(self.sup_u_sampled),
            "passed": bool(self.passed),
        }


def verify_plan(V: VectorField, result: PlanResult,
                settings: Optional[IntegratorSettings] = None) -> VerifyReport:
    """Independent audit: re-integrate the serialized schedule at finer
    tolerance and re-check every certificate invariant."""
    cert = result.certificate
    q = np.asarray(cert["q"], dtype=float)
    p = np.asarray(cert["p"], dtype=float)
    checks = []

    def check(name, ok, detail):
        checks.append({"name": name, "pass": bool(ok), "detail": detail})

    if not result.control.segments:
        ok = bool(np.array_equal(p, q))
        check("trivial_plan", ok, "p == q with empty control")
        return VerifyReport(checks, 0.0, 0.0, ok)

    # serialization round trip, then integrate the reloaded schedule
    reloaded = ControlSchedule.from_json(result.control.to_json())
    base = settings or IntegratorSettings()
    fine = base.refined(10.0)
    if "delta_bridge" in cert:
        fine = fine.resolving(float(cert["delta_bridge"]),
                              V.sup_bound + float(cert["epsilon"]))
    traj = integrate_controlled(V, reloaded, p, reloaded.t0, reloaded.t1, fine)
    terminal = float(np.linalg.norm(traj.states[-1] - q))
    eps = float(cert["epsilon"])
    tol = float(cert.get("terminal_tol", 1e-3))
    check("terminal_error", terminal <= tol, f"|x(T) - q| = {terminal:.3g} vs {tol:.3g}")

    idx = np.unique(np.linspace(0, len(traj.times) - 1,
                                min(4000, len(traj.times))).astype(int))
    sup_u = 0.0
    for i in idx:
        u = reloaded.value(float(traj.times[i]), traj.states[i])
        sup_u = max(sup_u, float(np.linalg.norm(u)))
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
          all(h["gap"] < h["rho_local"] for h in cert["hop_checks"]),
          "per-hop |x_j(T_j) - x_(j+1)'| < rho_local")

    passed = all(c["pass"] for c in checks)
    return VerifyReport(checks, terminal, sup_u, passed)
