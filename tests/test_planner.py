from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import flowsteer as fs
from flowsteer import jsonio
from flowsteer.integrate import ControlSchedule
from flowsteer.planner import _AUDIT, _audit_nodes, _bridged, _sampled_sup
from flowsteer.sampling import Box
from flowsteer.steer_local import _window_limits


class TestChooseRhoTau:
    def test_worked_example(self, rng):
        V = fs.builtin_field("cellular")  # Lip = sup = 1
        rho, tau = fs.choose_rho_tau(V, 0.3)
        terms = (0.25, 0.09 / (144 * 1.3), 0.09 / (288 * 1.3 * 1.3))
        assert terms[1] == pytest.approx(4.8077e-4, rel=1e-4)
        assert terms[2] == pytest.approx(1.8491e-4, rel=1e-4)
        assert rho == pytest.approx(0.9 * min(terms), abs=1e-15)
        assert tau == pytest.approx(rho * 0.3 / 12.0, abs=1e-18)

    def test_quadratic_scaling_in_eps(self):
        # while the third term is active, doubling eps scales rho by ~4
        # and tau by ~8 (one extra eps factor)
        V = fs.builtin_field("cellular")
        r1, t1 = fs.choose_rho_tau(V, 0.05)
        r2, t2 = fs.choose_rho_tau(V, 0.1)
        assert r2 / r1 == pytest.approx(4.0, rel=0.15)
        assert t2 / t1 == pytest.approx(8.0, rel=0.15)

    def test_degenerate_bounds_still_compute(self):
        V = fs.builtin_field("zero", dim=2)
        rho, tau = fs.choose_rho_tau(V, 0.3)
        want = 0.9 * min(0.25, 0.09 / (144 * 0.3), 0.09 / (288 * 0.09))
        assert rho == pytest.approx(want, abs=1e-15)

    def test_eps_positive(self):
        with pytest.raises(ValueError):
            fs.choose_rho_tau(fs.builtin_field("cellular"), 0.0)


class TestWaypoints:
    def test_identical_endpoints(self):
        pts = fs.waypoints([1.0, 2.0], [1.0, 2.0], 0.1)
        assert pts.shape == (1, 2)

    def test_spec_count(self):
        pts = fs.waypoints([0.0, 0.0], [1.0, 0.0], 0.2)
        assert len(pts) == 24
        gaps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        assert np.max(gaps) <= 0.045 + 1e-12
        assert np.array_equal(pts[0], [0.0, 0.0])
        assert np.array_equal(pts[-1], [1.0, 0.0])

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3),
           st.floats(0.01, 1.0))
    def test_collinear_and_spaced(self, p1, p2, q1, q2, rho):
        p = np.array([p1, p2])
        q = np.array([q1, q2])
        pts = fs.waypoints(p, q, rho)
        assert np.array_equal(pts[0], p) and np.array_equal(pts[-1], q)
        gaps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        if len(pts) > 1:
            assert np.max(gaps) < rho / 4.0
        d = q - p
        if np.linalg.norm(d) > 1e-9:
            n = d / np.linalg.norm(d)
            for w in pts:
                off = (w - p) - np.dot(w - p, n) * n
                assert np.linalg.norm(off) < 1e-12


@pytest.fixture(scope="module")
def short_plan():
    """A three-quarter-spacing hop on the cellular flow; real pipeline."""
    V = fs.builtin_field("cellular")
    rho, _ = fs.choose_rho_tau(V, 0.2)
    req = fs.PlanRequest(p=(0.2, 0.3), q=(0.2 + 0.85 * rho / 4.0, 0.3),
                         epsilon=0.2, seed=3, correction_resolution=512,
                         n_candidates=4)
    V_ref = V
    return V_ref, req, fs.plan(V, req)


class TestPlan:
    def test_trivial_when_p_equals_q(self):
        V = fs.builtin_field("cellular")
        res = fs.plan(V, fs.PlanRequest(p=(1.0, 1.0), q=(1.0, 1.0), epsilon=0.2))
        assert res.T == 0.0
        assert res.terminal_error == 0.0
        assert not res.control.segments

    def test_vmd_violation_for_constant_field(self, unit_constant):
        with pytest.raises(fs.VMDViolation) as err:
            fs.plan(unit_constant, fs.PlanRequest(p=(0.0, 0.0), q=(1.0, 1.0),
                                                  epsilon=0.2))
        assert err.value.report.verdict == "nonvanishing"

    def test_short_plan_contract(self, short_plan):
        V, req, res = short_plan
        cert = res.certificate
        assert res.terminal_error < 1e-3
        assert cert["sup_u_sampled"] < 0.2
        # the certified bound dominates dense sampling along the trajectory
        assert cert["sup_u_sampled"] <= res.control.sup_cert
        for seg in res.control.segments:
            ts = np.linspace(seg.t0, seg.t1, 1000)[1:]
            for t in ts[::50]:
                u = seg.u.value(float(t), res.trajectory.at(float(t)))
                assert np.linalg.norm(u) <= res.control.sup_cert
        b = cert["budget_decomposition"]
        for key in ("bridge_minus_corrected", "corrected_minus_original",
                    "hop_control_sup"):
            assert b[key] < 0.2 / 3.0
        assert cert["rho"] < 0.25
        assert cert["tau"] == cert["rho"] * 0.2 / 12.0
        assert cert["delta"] < cert["rho"] / 8.0
        assert cert["waypoint_spacing"] < cert["rho"] / 4.0
        assert all(T > 15.0 for T in cert["return_times"])

    def test_sampled_norms_are_the_row_loop(self, short_plan):
        # one pass over all rows gives np.linalg.norm of each row, bit for bit
        V, req, res = short_plan
        for n in (2000, 4000):
            ts, xs = _audit_nodes(res.trajectory, n)
            loop = max(float(np.linalg.norm(u)) for u in res.control.values(ts, xs))
            assert _sampled_sup(res.control, ts, xs) == loop
        q = np.asarray(res.certificate["q"], dtype=float)
        ts = np.linspace(res.control.t0, res.control.t1, 2000)
        xs = np.array([res.trajectory.at(float(t)) for t in ts])
        loop = [(float(t), float(np.linalg.norm(u)), float(np.linalg.norm(x - q)))
                for t, x, u in zip(ts, xs, res.control.values(ts, xs))]
        assert res.plot_rows() == loop

    def test_support_structure(self, short_plan):
        V, req, res = short_plan
        # the hop control vanishes outside the trailing windows
        cert = res.certificate
        T = res.T
        tau_hop = cert["hop_windows"][0]
        for t in np.linspace(1e-6, T - tau_hop - 1e-9, 29):
            u = res.control.value(float(t), res.trajectory.at(float(t)))
            inner = next(s for s in res.control.segments if s.t0 < t <= s.t1).u.parts[1]
            assert inner.kind == "zero" or t > T - tau_hop

    def test_verify_passes(self, short_plan):
        V, req, res = short_plan
        report = fs.verify_plan(V, res)
        assert report.passed, [c for c in report.checks if not c["pass"]]
        assert report.terminal_error < 1e-3
        assert report.sup_u_sampled < 0.2

    def test_determinism(self, short_plan):
        V, req, res = short_plan
        res2 = fs.plan(V, req)
        assert jsonio.dumps(res2.certificate) == jsonio.dumps(res.certificate)
        assert (jsonio.dumps(res2.control.to_json())
                == jsonio.dumps(res.control.to_json()))

    def test_control_roundtrip_bit_exact(self, short_plan):
        V, req, res = short_plan
        js = res.control.to_json()
        back = ControlSchedule.from_json(js)
        assert jsonio.dumps(back.to_json()) == jsonio.dumps(js)

    def test_reloaded_corrected_field_is_the_planned_one(self, short_plan, correction_nodes):
        """The schedule's JSON holds the correction's B-spline coefficients,
        and the field rebuilt from them interpolates the correction's nodes
        and evaluates bitwise as the planned one."""
        V, req, res = short_plan
        vt = res.corrected.field
        back = ControlSchedule.from_json(json.loads(jsonio.dumps(res.control.to_json())))
        rebuilt = back.segments[0].u.fields[0]
        assert rebuilt.descriptor["kind"] == "corrected" and rebuilt is not vt
        coefs = vt.descriptor["coefs"]
        assert coefs.shape == (2, 512, 512)
        assert np.array_equal(rebuilt.descriptor["coefs"], coefs)
        axes, W = correction_nodes(V, res.corrected)
        nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)[::37, ::41].reshape(-1, 2)
        err = rebuilt.eval(nodes) - V.eval(nodes) - W[::37, ::41].reshape(-1, 2)
        assert np.max(np.abs(err)) <= 1e-13 * np.max(np.abs(W))
        pts = np.random.default_rng(9).uniform(-4.0, 4.0, (300, 2))
        assert np.array_equal(rebuilt.eval(pts), vt.eval(pts))
        assert np.array_equal(rebuilt.eval(pts[7]), vt.eval(pts[7]))

    def test_reload_runs_no_prefilter(self, short_plan, monkeypatch):
        """Reloading a schedule evaluates the stored coefficients: with
        scipy's spline prefilters made to raise, the reloaded corrected field
        still evaluates bitwise as the planned one."""
        from scipy import ndimage
        from scipy.ndimage import _interpolation

        def refuse(*args, **kw):
            raise AssertionError("spline prefilter ran on reload")

        for module in (ndimage, _interpolation):
            monkeypatch.setattr(module, "spline_filter", refuse)
            monkeypatch.setattr(module, "spline_filter1d", refuse)
        V, req, res = short_plan
        back = ControlSchedule.from_json(json.loads(jsonio.dumps(res.control.to_json())))
        rebuilt, vt = back.segments[0].u.fields[0], res.corrected.field
        pts = np.random.default_rng(10).uniform(-4.0, 4.0, (200, 2))
        assert np.array_equal(rebuilt.eval(pts), vt.eval(pts))
        assert np.array_equal(rebuilt.eval(pts[3]), vt.eval(pts[3]))

    def test_tampered_schedule_flagged(self, short_plan):
        # bending a steer drift moves the landing by |d alpha| * tau, so the
        # tamper must be large enough for the terminal gate to see it
        V, req, res = short_plan
        js = res.control.to_json()
        tampered = ControlSchedule.from_json(js)
        import dataclasses

        segs = list(tampered.segments)
        for i, s in enumerate(segs):
            inner = s.u.parts[1]
            if inner.kind == "steer":
                tau = inner.tau
                scale = 1.0 + 2.0 * 1e-3 / (float(np.linalg.norm(inner.alpha)) * tau)
                bent = dataclasses.replace(inner, alpha=scale * inner.alpha)
                segs[i] = dataclasses.replace(
                    s, u=dataclasses.replace(s.u, parts=(s.u.parts[0], bent)))
                break
        bad = dataclasses.replace(res, control=ControlSchedule(
            tuple(segs), tampered.sup_cert, dim=tampered.dim))
        report = fs.verify_plan(V, bad)
        assert not report.passed
        failed = {c["name"] for c in report.checks if not c["pass"]}
        assert "terminal_error" in failed

    def test_wall_budget_aborts_with_projection(self):
        V = fs.builtin_field("cellular")
        req = fs.PlanRequest(p=(0.2, 0.3), q=(5.0, 4.1), epsilon=0.2, seed=0,
                             correction_resolution=256, wall_budget_s=2.0)
        with pytest.raises(fs.BudgetExceeded) as err:
            fs.plan(V, req)
        assert "projected" in str(err.value) or "wall budget" in str(err.value)

    def test_files_written(self, short_plan, tmp_path):
        V, req, res = short_plan
        res.write_files(tmp_path)
        for name in ("control.json", "trajectory.csv", "certificate.json",
                     "plotdata.csv"):
            assert (tmp_path / name).exists()
        rows = (tmp_path / "plotdata.csv").read_text().strip().split("\n")
        assert rows[0] == "t,u_norm,dist_to_q"
        last = rows[-1].split(",")
        assert float(last[2]) < 1e-3  # ends near q


def _chain(spacings):
    """A cellular-flow plan from (0.2, 0.3) over ``spacings`` waypoint gaps."""
    V = fs.builtin_field("cellular")
    rho, _ = fs.choose_rho_tau(V, 0.2)
    p = np.array([0.2, 0.3])
    q = p + spacings * 0.9 * rho / 4.0 * np.array([0.6, 0.8])
    req = fs.PlanRequest(p=tuple(p), q=tuple(q), epsilon=0.2, seed=2,
                         correction_resolution=256, n_candidates=4)
    return V, p, req


def _far_prefix(hops):
    """The first ``hops`` hops of the far-target plan (0.2, 0.3) -> (5.0, 4.1)
    at eps 0.2: its waypoints and correction box, ending at waypoint
    ``hops``."""
    V = fs.builtin_field("cellular")
    far = fs.PlanRequest(p=(0.2, 0.3), q=(5.0, 4.1), epsilon=0.2, seed=0,
                         correction_resolution=512)
    rho, _ = fs.choose_rho_tau(V, 0.2)
    q = fs.waypoints(far.p, far.q, rho)[hops]
    box = Box.bounding([far.p, far.q], margin=far.orbit_margin)
    return V, fs.PlanRequest(p=far.p, q=tuple(map(float, q)), epsilon=0.2, seed=0,
                             correction_resolution=512, correction_box=box)


def _serial_replay(V, res):
    """A serial replay of the reloaded schedule from p at the audit's
    settings: one ``integrate_controlled`` call per hop, each from where the
    previous one ended; a bridged first coast runs alone, under the audit's
    step cap."""
    cert = res.certificate
    u = ControlSchedule.from_json(res.control.to_json())
    fine = _AUDIT
    capped = fine.resolving(cert["delta_bridge"], V.sup_bound + cert["epsilon"])
    segs = u.segments
    runs = [segs[j:j + 2] for j in range(0, len(segs), 2)]
    if _bridged(segs[0]):
        runs[:1] = [runs[0][:1], runs[0][1:]]
    pieces, x = [], np.asarray(cert["p"], dtype=float)
    for run in runs:
        pieces.append(fs.integrate_controlled(V, u, x, run[0].t0, run[-1].t1,
                                              capped if _bridged(run[0]) else fine))
        x = pieces[-1].states[-1]
    return fs.Trajectory.join(pieces)


def _serial_error(V, res):
    traj = _serial_replay(V, res)
    return float(np.linalg.norm(traj.states[-1] - np.asarray(res.certificate["q"])))


def _bend_window(control, hop, change):
    """``control`` with hop ``hop``'s (1-based) window moved by ``change`` at
    its landing, through its steer drift alpha."""
    segs = list(control.segments)
    s = segs[2 * hop - 1]
    steer = s.u.parts[1]
    assert steer.kind == "steer"
    scale = 1.0 + change / (float(np.linalg.norm(steer.alpha)) * steer.tau)
    bent = dataclasses.replace(steer, alpha=scale * steer.alpha)
    segs[2 * hop - 1] = dataclasses.replace(
        s, u=dataclasses.replace(s.u, parts=(s.u.parts[0], bent)))
    return ControlSchedule(tuple(segs), control.sup_cert, dim=control.dim)


@pytest.fixture(scope="module")
def far_chain():
    V, req = _far_prefix(8)
    return V, fs.plan(V, req)


@pytest.fixture(scope="module")
def bridged_chain():
    """A 4-hop cellular chain whose first start is moved off p, so the plan
    has a real bridge; with hop 0's ride and the guide, orbit and map of
    its ``correct_start``."""
    from flowsteer import planner

    real, real_correct = planner.find_poisson_stable, planner.correct_start
    V, p, req = _chain(3.4)
    bridge = {}

    def moved_first_center(V, centers, delta, *args, **kw):
        centers = np.array(centers, dtype=float)
        if np.array_equal(centers[0], p):
            centers[0] = p + 0.5 * delta * np.array([0.6, -0.8])
            recs = real(V, centers, delta, *args, **kw)
            bridge["ride"] = recs[0].trajectory
            return recs
        return real(V, centers, delta, *args, **kw)

    def recorded(vt, guide, *args, **kw):
        out = real_correct(vt, guide, *args, **kw)
        bridge.update(field=vt, guide=guide, orbit=out[1], map=out[2])
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(planner, "find_poisson_stable", moved_first_center)
        mp.setattr(planner, "correct_start", recorded)
        res = fs.plan(V, req)
    assert len(res.control.segments) == 8 and _bridged(res.control.segments[0])
    return V, bridge, res


class TestHopParallelVerify:
    @pytest.mark.parametrize("case", ["chain", "far_chain", "prefix16"])
    def test_composed_error_predicts_the_serial_replay(self, case, far_chain):
        """The hops' landing defects composed through their monodromies
        predict the serial replay's terminal error within 2x, with the same
        verdict."""
        if case == "far_chain":
            V, res = far_chain
        elif case == "chain":
            V, _, req = _chain(3.4)
            res = fs.plan(V, req)
        else:
            V, req = _far_prefix(16)
            res = fs.plan(V, req)
        n = len(res.certificate["return_times"])
        assert n == {"chain": 4, "far_chain": 8, "prefix16": 16}[case]
        report = fs.verify_plan(V, res)
        serial = _serial_error(V, res)
        assert 0.5 * serial <= report.terminal_error <= 2.0 * serial
        tol = res.certificate["terminal_tol"]
        assert report.passed and serial <= tol
        assert len(report.landing_defects) == n
        assert len(report.monodromy_gains) == n - 1

    def test_replay_takes_its_own_steps_and_resolves_the_gate(self, short_plan):
        """The audit shares almost no node with the plan's ride, and its
        terminal error is within 3e-10 of a Dormand-Prince 5(4) replay at
        tol 1e-13 (a step cap it never reaches picks that tableau), which
        puts the plan within the landing gate."""
        V, req, res = short_plan
        report = fs.verify_plan(V, res)
        replay = _serial_replay(V, res)
        assert len(np.intersect1d(replay.times, res.trajectory.times)) < 0.1 * len(replay.times)
        u = ControlSchedule.from_json(res.control.to_json())
        tight = fs.integrate_controlled(V, u, np.asarray(req.p), 0.0, res.T,
                                        fs.IntegratorSettings(tol=1e-13, h_max=1.0))
        truth = float(np.linalg.norm(tight.states[-1] - np.asarray(req.q)))
        assert truth < 1e-9
        assert abs(report.terminal_error - truth) < 3e-10

    def test_one_hop_is_the_serial_replay(self, short_plan):
        V, req, res = short_plan
        report = fs.verify_plan(V, res)
        assert report.terminal_error == _serial_error(V, res)
        assert report.landing_defects == [report.terminal_error]
        assert report.monodromy_gains == []

    def test_bent_window_names_its_hop(self):
        V, p, req = _chain(3.4)
        res = fs.plan(V, req)
        bad = dataclasses.replace(res, control=_bend_window(res.control, 2, 2e-3))
        report = fs.verify_plan(V, bad)
        assert not report.passed
        failed = {c["name"]: c["detail"] for c in report.checks if not c["pass"]}
        assert "hop 2 lands" in failed["hop_landings"]
        assert [f"hop {j} " in failed["hop_landings"] for j in (1, 2, 3, 4)] == [
            False, True, False, False]
        assert report.landing_defects[1] > 1e-3

    def test_moved_start_fails(self, far_chain):
        V, res = far_chain
        cert = json.loads(jsonio.dumps(res.certificate))
        cert["stable_points"][3][0] += 1e-6
        report = fs.verify_plan(V, dataclasses.replace(res, certificate=cert))
        assert not report.passed
        failed = {c["name"]: c["detail"] for c in report.checks if not c["pass"]}
        assert "hop 3 lands" in failed["hop_landings"]

    def test_unstated_terminal_tol_fails(self, short_plan):
        V, req, res = short_plan
        cert = dict(res.certificate)
        del cert["terminal_tol"]
        report = fs.verify_plan(V, dataclasses.replace(res, certificate=cert))
        assert not report.passed
        assert [c["name"] for c in report.checks if not c["pass"]] == ["terminal_tol"]

    def test_schedule_without_a_window_per_hop_is_refused(self, short_plan):
        V, req, res = short_plan
        cut = ControlSchedule(res.control.segments[:1], res.control.sup_cert,
                              dim=res.control.dim)
        with pytest.raises(fs.ScheduleError, match="1 segments for 1 hops"):
            fs.verify_plan(V, dataclasses.replace(res, control=cut))

    def test_verify_blocks_do_not_change_the_report(self, monkeypatch):
        """Hops replay in blocks of ``_VERIFY_BLOCK``, one stepper call each;
        the block size moves no bit of the report."""
        from flowsteer import planner

        V, _, req = _chain(3.4)
        res = fs.plan(V, req)
        reports = []
        for block in (64, 3, 1):
            monkeypatch.setattr(planner, "_VERIFY_BLOCK", block)
            reports.append(jsonio.dumps(fs.verify_plan(V, res).to_json()))
        assert len(res.certificate["return_times"]) == 4
        assert reports[0] == reports[1] == reports[2]

    def test_reload_replays_the_planned_rows(self, far_chain, monkeypatch):
        """The planned schedule shares one coast descriptor between its hops
        and the reload builds one per segment; rows group by segment and
        driven field, so both replay bitwise the same rows with the same
        number of field calls."""
        from flowsteer import planner

        V, res = far_chain
        cert = res.certificate
        back = ControlSchedule.from_json(res.control.to_json())
        assert len({id(s.u) for s in res.control.segments}) < len(res.control.segments)
        assert len({id(s.u) for s in back.segments}) == len(back.segments)
        starts = np.asarray(cert["stable_points"], dtype=float)
        starts[0] = cert["p"]
        real = fs.VectorField.eval
        runs = []
        for u in (res.control, back):
            calls = []

            def counted(self, x):
                calls.append(1)
                return real(self, x)

            monkeypatch.setattr(fs.VectorField, "eval", counted)
            traj, ends, gains = planner._replay_hops(V, u, starts, float(cert["delta_bridge"]),
                                                     float(cert["epsilon"]))
            monkeypatch.undo()
            runs.append((traj, ends, gains, len(calls)))
        (a, ends_a, gains_a, calls_a), (b, ends_b, gains_b, calls_b) = runs
        assert np.array_equal(a.times, b.times) and np.array_equal(a.states, b.states)
        assert np.array_equal(ends_a, ends_b)
        assert all(np.array_equal(x, y) for x, y in zip(gains_a, gains_b))
        assert calls_a == calls_b > 0

    def test_reloaded_values_stack_the_windows(self, far_chain, monkeypatch):
        """The certificate's samples of the reloaded schedule are bitwise one
        ``value`` call per sampled segment.  The reload builds a field
        difference per segment, all of vt and V, so the samples take one
        call per field: vt on the differences' states and every window's
        path points together, and V, never a window's own ``value``."""
        from flowsteer.integrate import FieldDifferenceControl, SteerControl

        V, res = far_chain
        back = ControlSchedule.from_json(res.control.to_json())
        parts = [p for s in back.segments for p in s.u.parts]
        assert len({id(p) for p in parts if isinstance(p, FieldDifferenceControl)}) == len(parts) // 2
        ts = np.linspace(back.t0, back.t1, 4000)
        xs = np.array([res.trajectory.at(float(t)) for t in ts])
        seg = np.maximum(np.searchsorted([s.t0 for s in back.segments], ts) - 1, 0)
        want = np.empty_like(xs)
        for i in set(seg.tolist()):
            m = seg == i
            want[m] = back.segments[i].u.value(ts[m], xs[m])
        real, calls = fs.VectorField.eval, []

        def counted(self, x):
            calls.append(self.descriptor["kind"])
            return real(self, x)

        monkeypatch.setattr(fs.VectorField, "eval", counted)
        monkeypatch.setattr(SteerControl, "value", None)
        got = back.values(ts, xs)
        assert got.tobytes() == want.tobytes()
        # vt evaluates V inside each of its own calls
        assert calls.count("corrected") == 1 and calls.count("builtin") == 1 + 1

    def test_values_without_a_state_need_one(self, far_chain):
        """Every segment of a plan holds the field difference Vt - V, so
        its values without a state raise ``ValueError``, and ``sup_norm``,
        which samples without one, takes the segments' largest analytic
        bound."""
        V, res = far_chain
        u = res.control
        with pytest.raises(ValueError, match="state"):
            u.values(np.linspace(u.t0, u.t1, 50), None)
        assert fs.sup_norm(u) == max(s.u.analytic_sup() for s in u.segments)

    def test_each_block_sees_only_its_segments(self, bridged_chain, monkeypatch):
        """Every stepper call of the replay is handed its own hops'
        segments, at most 2 * _VERIFY_BLOCK of them: the bridged first coast
        alone, then each block's, each segment once; the report does not
        move."""
        from flowsteer import planner

        V, _, res = bridged_chain
        segs = res.control.segments
        want = jsonio.dumps(fs.verify_plan(V, res).to_json())
        real = planner.integrate_controlled
        seen = []

        def spy(V, u, x0, t0, t1, settings):
            seen.append((u.segments, np.min(t0), np.max(t1)))
            return real(V, u, x0, t0, t1, settings)

        monkeypatch.setattr(planner, "integrate_controlled", spy)
        for block in (64, 3, 1):
            monkeypatch.setattr(planner, "_VERIFY_BLOCK", block)
            seen.clear()
            assert jsonio.dumps(fs.verify_plan(V, res).to_json()) == want
            assert [len(own) for own, _, _ in seen] == [1] + [
                2 * min(block, 4 - j) - (j == 0) for j in range(0, 4, block)]
            assert all(len(own) <= 2 * block for own, _, _ in seen)
            # verify replays its reload, so the segments are compared by span
            assert [(s.t0, s.t1) for own, _, _ in seen for s in own] == [
                (s.t0, s.t1) for s in segs]
            for own, lo, hi in seen:
                assert own[0].t0 <= lo and hi <= own[-1].t1


class TestDocumentReload:
    """verify_plan rebuilds the schedule from its document, with arrays kept
    as arrays; the base64 text belongs to the file writer and reader."""

    def test_verify_encodes_no_base64(self, short_plan, monkeypatch):
        def refuse(*args, **kw):
            raise AssertionError("base64 in verify_plan")

        monkeypatch.setattr(jsonio.base64, "b64encode", refuse)
        monkeypatch.setattr(jsonio.base64, "b64decode", refuse)
        V, req, res = short_plan
        report = fs.verify_plan(V, res)
        assert report.passed, [c for c in report.checks if not c["pass"]]

    @pytest.mark.parametrize("case", ["short_plan", "bridged_chain"])
    def test_text_path_equals_document_path(self, case, request):
        got = request.getfixturevalue(case)
        V, res = got[0], got[-1]
        text = json.loads(jsonio.dumps(res.control.to_json()))
        from_text = dataclasses.replace(res, control=ControlSchedule.from_json(text))
        assert (jsonio.dumps(fs.verify_plan(V, res).to_json())
                == jsonio.dumps(fs.verify_plan(V, from_text).to_json()))

    @pytest.mark.parametrize("case", ["short_plan", "bridged_chain"])
    def test_only_a_reloaded_bridge_head_is_bridged(self, case, request):
        """A segment is bridged, by its fields' descriptor kinds, exactly when
        it is a reloaded plan's first coast and the plan has a real bridge."""
        got = request.getfixturevalue(case)
        control = got[-1].control
        for back in (ControlSchedule.from_json(control._document()),
                     ControlSchedule.from_json(json.loads(jsonio.dumps(control.to_json())))):
            flags = [_bridged(s) for s in back.segments]
            assert flags == [case == "bridged_chain"] + [False] * (len(flags) - 1)

    def test_verify_leaves_the_planned_schedule_alone(self, short_plan):
        V, req, res = short_plan
        coefs = res.corrected.field.descriptor["coefs"]
        before_coefs = coefs.copy()
        before = jsonio.dumps(res.control.to_json())
        fs.verify_plan(V, res)
        assert not coefs.flags.writeable
        assert np.array_equal(coefs, before_coefs)
        assert jsonio.dumps(res.control.to_json()) == before

    def test_rebuilt_spline_shares_the_read_only_coefficients(self, short_plan):
        V, req, res = short_plan
        back = ControlSchedule.from_json(res.control._document())
        rebuilt, vt = back.segments[0].u.fields[0], res.corrected.field
        assert rebuilt is not vt
        assert rebuilt.descriptor["coefs"] is vt.descriptor["coefs"]
        with pytest.raises(ValueError):
            rebuilt.descriptor["coefs"][0, 0, 0] = 1.0


class TestMultiHop:
    def test_four_hop_chain(self):
        """Several recurrence rides chained by steering hops, then verified."""
        V = fs.builtin_field("cellular")
        rho, _ = fs.choose_rho_tau(V, 0.2)
        p = np.array([0.2, 0.3])
        q = p + 3.4 * 0.9 * rho / 4.0 * np.array([0.8, 0.6])
        req = fs.PlanRequest(p=tuple(p), q=tuple(q), epsilon=0.2, seed=5,
                             correction_resolution=512, n_candidates=4)
        res = fs.plan(V, req)
        cert = res.certificate
        assert len(cert["return_times"]) == 4
        assert res.terminal_error < 1e-3
        # hop windows partition [0, T]
        assert res.T == pytest.approx(sum(cert["return_times"]), abs=1e-9)
        # per-hop preconditions hold with margin
        for chk in cert["hop_checks"]:
            assert chk["gap"] < chk["rho_local"]
        rep = fs.verify_plan(V, res)
        assert rep.passed
        assert rep.terminal_error < 1e-3

    def test_ride_blocks_do_not_change_the_plan(self, monkeypatch, tmp_path):
        """Waypoints ride, and their hops are realized, in blocks on one
        batched stepper each; the block size moves no bit of the certificate,
        the control or the trajectory."""
        from flowsteer import planner

        V, _, req = _chain(3.4)
        files = []
        for block in (8, 3, 1):
            monkeypatch.setattr(planner, "_RIDE_BLOCK", block)
            res = fs.plan(V, req)
            res.write_files(tmp_path / str(block))
            files.append([(tmp_path / str(block) / name).read_bytes() for name in
                          ("certificate.json", "control.json", "trajectory.csv")])
        cert = json.loads(files[0][0])
        assert len(cert["return_times"]) == 4
        starts = cert["stable_points"][1:]
        for chk, y in zip(cert["hop_checks"], starts):
            assert chk["landing_defect"] <= 1e-9 * max(1.0, float(np.linalg.norm(y)))
        assert files[0] == files[1] == files[2]

    def test_a_blocks_windows_are_one_stepper_call(self, monkeypatch):
        """The four windows of a one-block plan are the rows of one
        ``integrate_controlled`` call over the hops' contiguous segments,
        each from its coast's end over its steering span."""
        from flowsteer import planner

        V, _, req = _chain(3.4)
        real, calls = planner.integrate_controlled, []

        def recorded(V, u, x0, t0, t1, settings):
            calls.append((u, np.array(x0), t0, t1))
            return real(V, u, x0, t0, t1, settings)

        monkeypatch.setattr(planner, "integrate_controlled", recorded)
        res = fs.plan(V, req)
        assert len(calls) == 1
        u, x0, t0, t1 = calls[0]
        assert x0.shape == (4, 2)
        assert len(u.segments) == 4 * 2 and u.t1 == res.T
        assert t0 == [s.t0 for s in u.segments[1::2]]
        assert t1 == [s.t1 for s in u.segments[1::2]]

    def test_coast_is_the_ride(self, monkeypatch):
        """Each hop's orbit is integrated once: up to its window at s - tau
        the realized trajectory is the hop's ride, node for node, shifted by
        the hop's start time.  Checked at the default settings (DOP853, steps
        of about 0.23) and on Dormand-Prince 5(4) under a 0.1 cap."""
        from flowsteer import planner

        real = planner.find_poisson_stable
        rides = []

        def captured(*args, **kw):
            recs = real(*args, **kw)
            rides.extend(rec.trajectory for rec in recs)
            return recs

        monkeypatch.setattr(planner, "find_poisson_stable", captured)
        V, p, req = _chain(3.4)
        capped = fs.IntegratorSettings(tol=1e-10, h_max=0.1)
        for run, least in ((req, 60), (dataclasses.replace(req, integrator=capped), 100)):
            rides.clear()
            res = fs.plan(V, run)
            cert = res.certificate
            assert cert["stable_points"][0] == list(p)  # no bridge: hop 0 is a ride too
            assert len(rides) == len(cert["return_times"]) == 4
            times, states = res.trajectory.times, res.trajectory.states
            t_j = 0.0
            for ride, T, tau in zip(rides, cert["return_times"], cert["hop_windows"]):
                s_j = t_j + T
                shifted = ride.times + t_j
                want = shifted < s_j - tau
                got = (times >= t_j) & (times < s_j - tau)
                assert np.count_nonzero(want) > least
                assert np.array_equal(times[got], shifted[want])
                # the node at t_j is where the previous hop landed, on the
                # ride's start up to rounding (test_landing_gate)
                assert np.array_equal(states[got][1:], ride.states[want][1:])
                assert np.linalg.norm(states[got][0] - ride.states[0]) < 1e-12
                t_j = s_j

    def test_hops_steer_the_realized_trajectory(self):
        """Each hop's window is anchored on the realized trajectory, so the
        rides' integration errors do not carry over: every hop ends on the
        next start up to rounding."""
        V, _, req = _chain(1.6)
        res = fs.plan(V, req)
        cert = res.certificate
        ends = np.cumsum(cert["return_times"])
        starts = np.array(cert["stable_points"][1:])
        assert len(ends) == 2
        for s, y in zip(ends, starts):
            assert np.linalg.norm(res.trajectory.at(float(s)) - y) < 1e-12
        assert res.terminal_error < 1e-12
        assert fs.verify_plan(V, res).passed

    def test_plan_through_a_real_bridge(self, monkeypatch):
        """When the first recurrent start is not p, the bump surgery moves it
        onto p: the plan starts at p on the pushed-forward field and verifies."""
        from flowsteer import planner

        real = planner.find_poisson_stable

        def moved_first_center(V, centers, delta, *args, **kw):
            centers = np.array(centers, dtype=float)
            if np.array_equal(centers[0], p):
                centers[0] = p + 0.5 * delta * np.array([0.6, -0.8])
            return real(V, centers, delta, *args, **kw)

        monkeypatch.setattr(planner, "find_poisson_stable", moved_first_center)
        V, p, req = _chain(1.6)
        res = fs.plan(V, req)
        cert = res.certificate
        assert not np.array_equal(cert["stable_points"][0], p)
        assert res.bridge_field.descriptor["kind"] == "pushforward"
        assert np.array_equal(res.trajectory.states[0], p)
        assert 0.0 < cert["budget_decomposition"]["bridge_minus_corrected"] < 0.2 / 3.0
        assert res.terminal_error < 1e-12
        report = fs.verify_plan(V, res)
        assert report.passed, [c for c in report.checks if not c["pass"]]
        # the audit caps the first coast, which crosses the surgery ball, and
        # only that segment: hop 0's row continues from the capped call's end
        segs = res.control.segments
        assert [_bridged(s) for s in segs] == [True] + [False] * (len(segs) - 1)
        cap = (fs.IntegratorSettings().refined()
               .resolving(cert["delta_bridge"], V.sup_bound + 0.2).h_max)
        calls = []
        real = planner.integrate_controlled

        def recorded(*args, **kw):
            out = real(*args, **kw)
            calls.append(out)
            return out

        monkeypatch.setattr(planner, "integrate_controlled", recorded)
        assert fs.verify_plan(V, res).terminal_error == report.terminal_error
        head, rows = calls
        assert head.t0 == segs[0].t0 and head.t1 == segs[0].t1
        assert np.array_equal(head.states[0], p)
        assert np.max(np.diff(head.times)) <= cap * (1 + 1e-12)
        assert rows[0].t0 == segs[0].t1
        assert np.array_equal(rows[0].states[0], head.states[-1])
        # hop 0's row is its window alone; the later rows run whole coasts
        assert all(np.max(np.diff(r.times)) > 4 * cap for r in rows[1:])
        serial = _serial_error(V, res)
        assert 0.5 * serial <= report.terminal_error <= 2.0 * serial

    def test_bridged_coast_is_the_ride_outside_the_ball(self, bridged_chain):
        """The bridge re-integrates only its windows through the ball: every
        step of hop 0's ride that lies outside them and holds no window edge
        is a step of the plan, its end node bitwise the ride's."""
        from flowsteer import deform

        V, bridge, res = bridged_chain
        guide, ride, pm = bridge["guide"], bridge["ride"], bridge["map"]
        n = len(guide.times) - 2  # the guide is the ride, then its closing step
        assert np.array_equal(guide.times[:n + 1], ride.times[:n + 1])
        assert np.array_equal(guide.states[:n + 1], ride.states[:n + 1])
        windows = deform._surgery_windows(
            guide, (pm.x0,), pm.delta, None,
            deform._chord_bow(float(np.max(np.diff(guide.times))), bridge["field"]), guide.t1)
        edges = np.ravel(windows)
        times, states = res.trajectory.times, res.trajectory.states
        assert times[len(bridge["orbit"].times) - 1] == guide.t1
        kept = 0
        for i in range(n):
            a, b = guide.times[i], guide.times[i + 1]
            if (any(lo <= a and b <= hi for lo, hi in windows)
                    or np.any((edges > a) & (edges < b))):
                continue
            j = int(np.searchsorted(times, a))
            assert times[j] == a and times[j + 1] == b
            assert np.array_equal(states[j + 1], ride.states[i + 1])
            kept += 1
        assert kept > 0.9 * n

    def test_identity_bridge_is_skipped(self, short_plan):
        V, req, res = short_plan
        cert = res.certificate
        assert cert["stable_points"][0] == cert["p"]
        assert res.bridge_field is res.corrected.field
        assert cert["budget_decomposition"]["bridge_minus_corrected"] == 0.0
        # so verify_plan replays the whole schedule without a step cap
        assert not any(_bridged(s) for s in res.control.segments)

    def test_gap_gate(self, monkeypatch):
        """A hop whose return ends rho_local or more from the next start,
        here the second start moved by 2 rho_local, aborts the plan, and
        the error names the hop and states its rho_local."""
        from flowsteer import planner

        real = planner.find_poisson_stable
        radius = []

        def moved_second_start(F, centers, *args, **kw):
            recs = real(F, centers, *args, **kw)
            eps = 0.2 / 3.0
            radius.append(min(_window_limits(F.lip_bound, F.sup_bound, recs[0].return_time,
                                             eps)) * eps / 4.0)
            recs[1] = dataclasses.replace(recs[1], point=recs[1].point + [2.0 * radius[0], 0.0])
            return recs

        monkeypatch.setattr(planner, "find_poisson_stable", moved_second_start)
        V, _, req = _chain(1.6)
        with pytest.raises(fs.BudgetExceeded, match="hop 1: ") as e:
            fs.plan(V, req)
        assert f"rho_local = {radius[0]:.3g}" in str(e.value)

    def test_landing_gate(self, monkeypatch):
        """A hop that lands off the next start, which the next hop starts
        from, aborts the plan."""
        from flowsteer import planner

        real = planner.steer_from_states

        def off_target(F, a, s, z, anchor, y, *args):
            return real(F, a, s, z, anchor, np.asarray(y) + 1e-7, *args)

        monkeypatch.setattr(planner, "steer_from_states", off_target)
        V, _, req = _chain(1.6)
        with pytest.raises(fs.BudgetExceeded, match="hop 1 lands"):
            fs.plan(V, req)

    def test_nan_landing_fails_the_gate(self, monkeypatch):
        """A window whose end is NaN lands nowhere, and aborts the plan."""
        from flowsteer import planner

        real = planner.integrate_controlled

        def nan_window(*args):
            windows = real(*args)
            windows[-1].states[-1, 0] = np.nan
            return windows

        monkeypatch.setattr(planner, "integrate_controlled", nan_window)
        V, _, req = _chain(1.6)
        with pytest.raises(fs.BudgetExceeded, match="hop 2 lands nan from the next start"):
            fs.plan(V, req)

    def test_nan_landing_fails_the_audit(self, short_plan, monkeypatch):
        from flowsteer import planner

        real = planner._replay_hops

        def nan_end(*args):
            traj, ends, gains = real(*args)
            ends[0, 0] = np.nan
            return traj, ends, gains

        monkeypatch.setattr(planner, "_replay_hops", nan_end)
        V, req, res = short_plan
        report = fs.verify_plan(V, res)
        failed = {c["name"]: c["detail"] for c in report.checks if not c["pass"]}
        assert failed["hop_landings"] == "hop 1 lands nan from the next start"
        assert not report.passed
