from __future__ import annotations

import json
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import flowsteer as fs
from flowsteer import jsonio
from flowsteer.integrate import ControlSchedule


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

    def test_support_structure(self, short_plan):
        V, req, res = short_plan
        # the hop control vanishes outside the trailing windows
        cert = res.certificate
        T = res.T
        tau_hop = cert["hop_windows"][0]
        for t in np.linspace(1e-6, T - tau_hop - 1e-9, 29):
            u = res.control.value(float(t), res.trajectory.at(float(t)))
            inner = res.control.segment_at(float(t)).u.parts[1]
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
        bad = dataclasses.replace(res, control=ControlSchedule(tuple(segs),
                                                               tampered.sup_cert))
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

    def test_ride_blocks_do_not_change_the_plan(self, monkeypatch):
        """Waypoints ride in blocks on one batched stepper; the block size
        moves no bit of the certificate."""
        from flowsteer import planner

        V = fs.builtin_field("cellular")
        rho, _ = fs.choose_rho_tau(V, 0.2)
        p = np.array([0.2, 0.3])
        q = p + 1.6 * 0.9 * rho / 4.0 * np.array([0.6, 0.8])
        req = fs.PlanRequest(p=tuple(p), q=tuple(q), epsilon=0.2, seed=2,
                             correction_resolution=256, n_candidates=4)
        certs = []
        for block in (planner._RIDE_BLOCK, 1):
            monkeypatch.setattr(planner, "_RIDE_BLOCK", block)
            certs.append(jsonio.dumps(fs.plan(V, req).certificate))
        assert len(json.loads(certs[0])["return_times"]) == 2
        assert certs[0] == certs[1]

    def test_hops_steer_the_realized_trajectory(self):
        """Each hop's window is anchored on the realized trajectory, so the
        rides' integration errors do not carry over: every hop ends on the
        next start up to rounding."""
        V = fs.builtin_field("cellular")
        rho, _ = fs.choose_rho_tau(V, 0.2)
        p = np.array([0.2, 0.3])
        q = p + 1.6 * 0.9 * rho / 4.0 * np.array([0.6, 0.8])
        req = fs.PlanRequest(p=tuple(p), q=tuple(q), epsilon=0.2, seed=2,
                             correction_resolution=256, n_candidates=4)
        res = fs.plan(V, req)
        cert = res.certificate
        ends = np.cumsum(cert["return_times"])
        starts = np.array(cert["stable_points"][1:])
        assert len(ends) == 2
        for s, y in zip(ends, starts):
            assert np.linalg.norm(res.trajectory.at(float(s)) - y) < 1e-12
        assert res.terminal_error < 1e-12
        assert fs.verify_plan(V, res).passed
