"""One timed operation per workload, its correctness gate, and the layer probes.

An operation is what a user waits for: ``fs.plan`` then ``fs.verify_plan``
on the planner workloads, ``fs.connect`` then the hit and start checks on
``torus_connect``.  ``timer(name)`` is either ``spans.stopwatch`` (untraced)
or ``Tracer.span`` (traced); both yield a record with ``start`` and ``end``.

The layer probes call each module's public entry point again on the inputs
and outputs of a traced operation, one span per call.  Layers a workload
does not exercise are probed on a companion operation from the other
workload family, built from the same seed, so every traced run reports
every per-layer metric.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

import flowsteer as fs
from flowsteer import jsonio
from flowsteer.sampling import Box, ball_points

import inputs
from spans import CountingField, SpeedMeter, Tracer, seconds, stopwatch

PLANNERS = ("quickstart", "far_chain")


@dataclass
class Outcome:
    solve: dict | None = None           # timer records of the two calls
    check: dict | None = None
    error: float | None = None          # terminal error / hit error
    check_error: float | None = None    # verify_plan's terminal error
    digest: str | None = None           # sha256 of the certificate bytes
    failures: list = dc_field(default_factory=list)
    result: object = None

    @property
    def solve_s(self) -> float:
        return seconds(self.solve)

    @property
    def check_s(self) -> float:
        return seconds(self.check) if self.check is not None else 0.0


def _digest(cert: dict) -> str:
    return hashlib.sha256(jsonio.dumps(cert).encode()).hexdigest()


def run_once(workload: str, V, case, timer: Callable) -> Outcome:
    if workload in PLANNERS:
        return _plan_and_verify(V, case, timer)
    return _connect(V, case, timer)


def _plan_and_verify(V, case: inputs.PlannerCase, timer) -> Outcome:
    out = Outcome()
    req = case.request
    with timer("plan") as out.solve:
        try:
            res = fs.plan(V, req)
        except fs.FlowsteerError as err:
            res = None
            out.failures.append(f"plan: {type(err).__name__}: {err}")
    if res is None:
        return out
    with timer("verify") as out.check:
        audit = fs.verify_plan(V, res)
    cert = res.certificate
    out.result, out.digest = res, _digest(cert)
    out.error, out.check_error = res.terminal_error, audit.terminal_error
    gate = [
        ("verify_plan passed", audit.passed),
        ("terminal_error <= terminal_tol", res.terminal_error <= req.terminal_tol),
        ("sup_u_sampled < eps", cert["sup_u_sampled"] < req.epsilon),
        (f"{case.n_hops} hops", len(cert["return_times"]) == case.n_hops),
    ]
    if case.far_request is not None:
        grid = cert["correction"]["grid"]
        box = req.correction_box
        gate.append(("correction box as pinned",
                     tuple(grid["box_lo"]) == tuple(map(float, box.lo))
                     and tuple(grid["box_hi"]) == tuple(map(float, box.hi))))
        gate.append(("waypoints of the far-target plan",
                     inputs.far_chain_mismatch(case, cert["waypoints"]) is None))
    out.failures += [f"gate: {name}" for name, ok in gate if not ok]
    return out


def _connect(V, case: inputs.TorusCase, timer) -> Outcome:
    out = Outcome()
    with timer("connect") as out.solve:
        try:
            glued, traj, cert = fs.connect(V, case.p, case.q, case.eps, case.budgets)
        except fs.FlowsteerError as err:
            cert = None
            out.failures.append(f"connect: {type(err).__name__}: {err}")
    if cert is None:
        return out
    with timer("gate") as out.check:
        hit = float(cert["hit_error"])
        start_gap = fs.torus_distance(traj.states[0], case.p)
    out.result, out.digest = (glued, traj, cert), _digest(cert)
    out.error = hit
    if not hit < inputs.TORUS_HIT_TOL:
        out.failures.append(f"gate: hit_error {hit:.3g} >= {inputs.TORUS_HIT_TOL:g}")
    if not start_gap < 1e-12:
        out.failures.append(f"gate: trajectory starts {start_gap:.3g} from p")
    return out


# ---------------------------------------------------------------------------
# layer probes: every timing is a span, reported at the reference speed


class Probe:
    """Spans of the traced run and their reference-speed seconds."""

    def __init__(self, tr: Tracer, meter: SpeedMeter):
        self.tr, self.meter = tr, meter

    def span(self, name: str):
        return self.tr.span(name)

    def ref_s(self, rec: dict) -> float:
        return self.meter.reference_seconds(rec)

    def per_call(self, name: str, fn, args, reps: int = 3) -> float:
        """Reference-speed seconds per call of ``fn`` over ``args``."""
        with self.tr.span(name) as rec:
            for _ in range(reps):
                for a in args:
                    fn(a)
        return self.ref_s(rec) / (reps * len(args))


def _batch(points, n: int = 2048) -> np.ndarray:
    reps = -(-n // len(points))
    return np.tile(points, (reps, 1))[:n]


def planner_layers(V, case: inputs.PlannerCase, res, plan_s: float,
                   probe: Probe) -> dict:
    """Correction, integrate, recurrence, steer_local and planner probes on a
    completed plan, plus the corrected field's evaluation cost."""
    req, cert = case.request, res.certificate
    vt = res.corrected.field
    eps = req.epsilon
    n_hops = len(cert["return_times"])
    wps = np.asarray(cert["waypoints"])
    stable = np.asarray(cert["stable_points"])
    m = {}

    states = res.trajectory.states
    m["fields.corrected_single_us"] = probe.per_call(
        "fields.corrected_single", vt.eval, states[:200]) * 1e6
    batch = _batch(states)
    m["fields.corrected_batch_ns"] = probe.per_call(
        "fields.corrected_batch", vt.eval, [batch], reps=5) / len(batch) * 1e9

    grid = cert["correction"]["grid"]
    box = Box(tuple(grid["box_lo"]), tuple(grid["box_hi"]))
    with probe.span("correction.correct") as rec:
        corr = fs.correct(V, eps / 3.0, settings=fs.CorrectionSettings(
            box=box, resolution=req.correction_resolution, seed=req.seed))
    m["correction.correct_s"] = probe.ref_s(rec)
    m["correction.alpha_steps"] = len(corr.grid_meta["alpha_history"])

    rides, overshoot = [], []
    for j in sorted({0, n_hops // 2, n_hops - 1}):  # first, middle, last hop
        with probe.span("recurrence.ride") as rec:
            ride = fs.find_poisson_stable(
                vt, wps[j], cert["delta"], cert["rho"] / 2.0, cert["T_min"],
                req.T_max_per_hop, req.n_candidates, req.seed + j,
                settings=req.integrator, keep_trajectory=True)
        rides.append(probe.ref_s(rec))
        overshoot.append(ride.trajectory.t1 / ride.return_time)
        if j == 0:
            first = ride
    m["recurrence.ride_s"] = float(np.median(rides))
    m["recurrence.overshoot"] = float(np.median(overshoot))
    tried = 0
    for j in range(n_hops):
        cands = ball_points(wps[j], cert["delta"], req.n_candidates, req.seed + j)
        hit = [i for i, c in enumerate(cands) if np.array_equal(c, stable[j])]
        tried += hit[0] + 1 if hit else req.n_candidates
    m["recurrence.candidates_tried"] = tried

    # one ride again on a counted field: DP5 with FSAL spends one evaluation
    # up front and six per attempted step
    counted = CountingField(vt)
    with probe.span("integrate.ride") as rec:
        orbit = fs.integrate(counted.field, first.point, 0.0, first.trajectory.t1,
                             req.integrator)
    accepted = len(orbit.times) - 1
    m["integrate.step_us"] = probe.ref_s(rec) / accepted * 1e6
    m["integrate.accepted_steps"] = accepted
    m["integrate.rejected_steps"] = (counted.calls - 1) / 6.0 - accepted

    T0 = first.return_time
    params = fs.LocalSteerParams.auto(vt, T0, eps / 3.0)
    z, anchor = first.trajectory.at(T0), first.trajectory.at(T0 - params.tau)
    hop_s = probe.per_call("steer_local.hop_build", lambda _: fs.steer_from_states(
        vt, 0.0, T0, z, anchor, stable[1], eps / 3.0, params), range(5), reps=1)
    m["steer_local.hop_build_ms"] = hop_s * 1e3

    # the final realization pass, with the planner's step cap over the
    # bridge ball (h <= delta_bridge / (8 |Vt|))
    h_cap = cert["delta_bridge"] / (8.0 * max(vt.sup_bound, 1e-12))
    final = dataclasses.replace(req.integrator, h_max=min(req.integrator.h_max, h_cap))
    with probe.span("integrate.realize") as rec:
        fs.integrate_controlled(V, res.control, np.asarray(req.p), 0.0, res.T, final)
    m["integrate.realize_s"] = probe.ref_s(rec)

    bounds = np.cumsum(cert["return_times"])
    m["planner.hop_defect_max"] = max(
        float(np.linalg.norm(res.trajectory.at(float(t)) - stable[j + 1]))
        for j, t in enumerate(bounds))
    m["planner.roundtrip_s"] = probe.per_call(
        "planner.roundtrip", lambda c: fs.ControlSchedule.from_json(c.to_json()),
        [res.control])
    # derived: what plan spends outside the stages probed above
    m["planner.other_s"] = plan_s - (m["correction.correct_s"]
                                     + n_hops * (m["recurrence.ride_s"] + hop_s)
                                     + m["integrate.realize_s"])
    return m


def deform_layer(field, centers, radius: float, away, probe: Probe,
                 period=None) -> dict:
    """Pushforward cost inside a surgery ball, outside it, and batched."""
    inside = np.concatenate([ball_points(c, 0.99 * radius, 101, seed=1)[1:]
                             for c in centers])
    if period is not None:
        inside = np.mod(inside, period)
    mixed = _batch(np.concatenate([inside, away[: len(inside)]]))
    return {"deform.pushforward_in_us":
            probe.per_call("deform.pushforward_in", field.eval, inside[:200]) * 1e6,
            "deform.pushforward_out_us":
            probe.per_call("deform.pushforward_out", field.eval, away[:200]) * 1e6,
            "deform.pushforward_batch_ns":
            probe.per_call("deform.pushforward_batch", field.eval, [mixed], reps=1)
            / len(mixed) * 1e9}


def planner_deform(res, probe: Probe) -> dict:
    cert = res.certificate
    x0 = np.asarray(cert["stable_points"][0])
    radius = 2.0 * cert["delta_bridge"]
    states = res.trajectory.states
    away = states[np.linalg.norm(states - x0, axis=1) > radius]
    return deform_layer(res.bridge_field, [x0], radius, away, probe)


def torus_layers(V, case: inputs.TorusCase, connect_s: float, result,
                 probe: Probe) -> dict:
    _, traj, cert = result
    delta = fs.choose_delta(fs.FieldStats(V.lip_bound, V.sup_bound), case.eps / 2.0,
                            need_c1=case.budgets.need_c1)
    b = case.budgets
    with probe.span("torus.find_transit") as rec:
        fs.find_transit(V, case.p, case.q, delta, b.T_max, b.n_starts, b.seed)
    transit_s = probe.ref_s(rec)
    return {"torus.find_transit_s": transit_s,
            # derived: the rest of connect, resolving the two surgery balls
            "torus.resolve_s": connect_s - transit_s,
            "torus.nodes": len(traj.times)}


def torus_deform(result, probe: Probe) -> dict:
    glued, _, cert = result
    centers = [np.asarray(cert["x1"]), np.asarray(cert["x2"])]
    radius = cert["support_radius"]
    grid = np.random.default_rng(0).uniform(0.0, fs.torus.TWO_PI, (2000, 2))
    away = np.array([z for z in grid
                     if min(fs.torus_distance(z, c) for c in centers) > radius])
    return deform_layer(glued, centers, radius, away, probe, period=fs.torus.TWO_PI)


def traced_run(workload: str, seed: int):
    """Untraced reference, traced repeat on a counted field, then every
    layer probe, all under one SpeedMeter.  Returns (metrics, reference
    outcome, traced outcome, tracer)."""
    plain = inputs.base_field(workload)
    tr = Tracer(CountingField(plain))
    case = inputs.CASES[workload](seed, 0)
    with SpeedMeter() as meter:
        probe = Probe(tr, meter)
        ref = run_once(workload, plain, case, stopwatch)
        with tr.span("traced"):
            out = run_once(workload, tr.counter.field, case, tr.span)
        m = _layers(workload, seed, plain, case, ref, out, probe)
    return m, ref, out, tr


def _layers(workload, seed, plain, case, ref, out, probe: Probe) -> dict:
    own = [s for s in probe.tr.spans if s is out.solve or s is out.check]
    solve_s = probe.ref_s(out.solve)
    m = {"fields.eval_calls": sum(s["calls"] for s in own),
         "fields.eval_points": sum(s["points"] for s in own),
         "trace.solve_overhead_s": solve_s - probe.ref_s(ref.solve),
         "trace.check_overhead_s": ((probe.ref_s(out.check) if out.check else 0.0)
                                    - (probe.ref_s(ref.check) if ref.check else 0.0))}
    if out.result is None:
        return m
    with probe.span("layers"):
        if workload in PLANNERS:
            m |= planner_layers(plain, case, out.result, solve_s, probe)
            m |= planner_deform(out.result, probe)
            tcase, tfield = inputs.torus_connect(seed, 0), inputs.base_field("torus_connect")
            with probe.span("companion.connect"):
                comp = run_once("torus_connect", tfield, tcase, probe.span)
            if comp.result is not None:
                m |= torus_layers(tfield, tcase, probe.ref_s(comp.solve), comp.result, probe)
        else:
            m |= torus_layers(plain, case, solve_s, out.result, probe)
            m |= torus_deform(out.result, probe)
            pcase, pfield = inputs.quickstart(seed, 0), inputs.base_field("quickstart")
            with probe.span("companion.plan"):
                comp = run_once("quickstart", pfield, pcase, probe.span)
            if comp.result is not None:
                m |= planner_layers(pfield, pcase, comp.result, probe.ref_s(comp.solve), probe)
    out.failures += [f"companion {f}" for f in comp.failures]
    return m
