from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import flowsteer as fs
from flowsteer.steer_local import TimeDependentField


class TestComputeTauRho:
    def test_all_constraints_vacuous(self):
        tau, rho = fs.compute_tau_rho(0.0, 0.0, 1.0, 0.1, 0.9)
        assert tau == pytest.approx(0.9, abs=1e-15)
        assert rho == pytest.approx(0.0225, abs=1e-15)

    def test_unit_bounds(self):
        tau, rho = fs.compute_tau_rho(1.0, 1.0, 1.0, 0.1, 0.9)
        assert tau == pytest.approx(0.9 * 0.0125, abs=1e-15)
        assert rho == pytest.approx(2.8125e-4, abs=1e-15)

    def test_third_example(self):
        tau, rho = fs.compute_tau_rho(2.0, 1.0, 10.0, 0.4, 0.9)
        assert tau == pytest.approx(0.9 * 0.025, abs=1e-15)
        assert rho == pytest.approx(2.25e-3, abs=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.0, 10.0), st.floats(0.0, 10.0),
           st.floats(0.01, 100.0), st.floats(0.001, 2.0))
    def test_inequalities_strict_and_rho_formula(self, L, F, span, eps):
        tau, rho = fs.compute_tau_rho(L, F, span, eps)
        assert rho == tau * eps / 4.0  # exact arithmetic identity
        assert tau < span
        if L > 0:
            assert tau < eps / (4 * L)
            if L * F > 0:
                assert tau < eps / (8 * L * F)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            fs.compute_tau_rho(1.0, 1.0, 0.0, 0.1)
        with pytest.raises(ValueError):
            fs.compute_tau_rho(1.0, 1.0, 1.0, -0.1)
        with pytest.raises(ValueError):
            fs.compute_tau_rho(1.0, 1.0, 1.0, 0.1, safety=1.5)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            fs.LocalSteerParams(0.1, 0.95, 0.95 * 0.1 / 4, 0.0, 0.0, 0.9)
        with pytest.raises(ValueError):
            fs.LocalSteerParams(0.1, 0.5, 0.01, 0.0, 0.0, 1.0)  # rho mismatch


class TestSteerEndpoint:
    def test_zero_field(self):
        V = fs.builtin_field("zero", dim=2)
        p = np.array([0.5, -0.5])
        traj = fs.integrate(V, p, 0.0, 1.0)
        params = fs.LocalSteerParams.auto(V, 1.0, 0.1)
        y = p + (params.rho / 2) * np.array([1.0, 0.0])
        seg = fs.steer_endpoint(V, traj, y, 0.1, params)
        # alpha = (y - p)/tau; the control is constant on the window
        assert np.allclose(seg.alpha, (y - p) / params.tau, atol=1e-15)
        for t in np.linspace(1.0 - params.tau + 1e-9, 1.0, 7):
            assert np.allclose(seg.schedule.value(t), seg.alpha, atol=1e-15)
        assert np.allclose(seg.corrected_path(1.0), y, atol=1e-15)

    def test_constant_field_control_is_alpha(self):
        V = fs.builtin_field("constant", c=[0.7, 0.1])
        p = np.array([0.0, 0.0])
        traj = fs.integrate(V, p, 0.0, 2.0)
        params = fs.LocalSteerParams.auto(V, 2.0, 0.2)
        y = traj.states[-1] + 0.5 * params.rho * np.array([0.0, 1.0])
        seg = fs.steer_endpoint(V, traj, y, 0.2, params)
        # translation invariance: the field-difference term vanishes
        for t in np.linspace(2.0 - params.tau + 1e-9, 2.0, 9):
            assert np.allclose(seg.schedule.value(t), seg.alpha, atol=1e-12)

    def test_cellular_reintegration_oracle(self, cellular):
        traj = fs.integrate(cellular, [0.7, 1.1], 0.0, 1.0)
        params = fs.LocalSteerParams.auto(cellular, 1.0, 0.1)
        y = traj.states[-1] + 0.5 * params.rho * np.array([np.cos(0.3), np.sin(0.3)])
        seg = fs.steer_endpoint(cellular, traj, y, 0.1, params)
        fine = fs.IntegratorSettings(rtol=1e-12, atol=1e-12)
        redo = fs.integrate_controlled(cellular, seg.schedule, traj.states[0],
                                       0.0, 1.0, fine)
        assert np.linalg.norm(redo.states[-1] - y) < 1e-7

    def test_support_exact(self, cellular):
        traj = fs.integrate(cellular, [0.7, 1.1], 0.0, 1.0)
        params = fs.LocalSteerParams.auto(cellular, 1.0, 0.1)
        y = traj.states[-1] + 0.3 * params.rho * np.array([1.0, 0.0])
        seg = fs.steer_endpoint(cellular, traj, y, 0.1, params)
        for t in np.linspace(0.0, 1.0 - params.tau, 23):
            assert np.all(seg.schedule.value(t) == 0.0)

    def test_alpha_below_half_eps(self, cellular):
        traj = fs.integrate(cellular, [0.7, 1.1], 0.0, 1.0)
        params = fs.LocalSteerParams.auto(cellular, 1.0, 0.1)
        y = traj.states[-1] + 0.9 * params.rho * np.array([0.0, -1.0])
        seg = fs.steer_endpoint(cellular, traj, y, 0.1, params)
        assert np.linalg.norm(seg.alpha) < 0.05
        assert seg.sup_cert < 0.1

    def test_target_out_of_range(self, cellular):
        traj = fs.integrate(cellular, [0.7, 1.1], 0.0, 1.0)
        params = fs.LocalSteerParams.auto(cellular, 1.0, 0.1)
        y = traj.states[-1] + 2.0 * params.rho * np.array([1.0, 0.0])
        with pytest.raises(fs.TargetOutOfRange) as err:
            fs.steer_endpoint(cellular, traj, y, 0.1, params)
        assert err.value.rho == params.rho

    def test_window_values_at_many_times_match_one_at_a_time(self, cellular):
        # the hop's sampled sup evaluates its window at all sample times at
        # once; each row is the single-time value, and the maximum norm
        # agrees with the loop to rounding
        from flowsteer.steer_local import _sampled_window_sup

        traj = fs.integrate(cellular, [0.7, 1.1], 0.0, 1.0)
        params = fs.LocalSteerParams.auto(cellular, 1.0, 0.1)
        y = traj.states[-1] + 0.5 * params.rho * np.array([0.6, -0.8])
        ctrl = fs.steer_endpoint(cellular, traj, y, 0.1, params).control
        ts = 1.0 - params.tau + (np.arange(1, 1001) / 1000) * params.tau
        ones = np.array([ctrl.value(float(t)) for t in ts])
        assert np.array_equal(ctrl.value(ts), ones)
        pad = _sampled_window_sup(ctrl, 1.0, params.tau) - max(
            float(np.linalg.norm(v)) for v in ones)
        speed = cellular.sup_bound + float(np.linalg.norm(ctrl.alpha))
        assert pad == pytest.approx(cellular.lip_bound * speed * params.tau / 1000,
                                    rel=1e-9, abs=1e-16)

    def test_sampled_sup_below_eps(self, cellular):
        traj = fs.integrate(cellular, [0.7, 1.1], 0.0, 1.0)
        params = fs.LocalSteerParams.auto(cellular, 1.0, 0.1)
        y = traj.states[-1] + 0.5 * params.rho * np.array([1.0, 1.0]) / np.sqrt(2)
        seg = fs.steer_endpoint(cellular, traj, y, 0.1, params)
        assert fs.sup_norm(seg.schedule, 2000) < 0.1


class TestNonautonomous:
    def test_time_dependent_steering(self):
        # F(t, x) = (0.3 cos t, 0.3 sin t): bounded, zero space-Lipschitz
        F = TimeDependentField(2, lambda t, x: np.array([0.3 * np.cos(t),
                                                         0.3 * np.sin(t)]),
                               sup_bound=0.3, lip_bound=0.0)

        def rhs_traj(x0, t0, t1):
            # exact trajectory of the time-dependent field
            return np.asarray(x0) + 0.3 * np.array([np.sin(t1) - np.sin(t0),
                                                    np.cos(t0) - np.cos(t1)])

        # build a Trajectory by integrating the equivalent autonomous check
        x0 = np.array([0.1, 0.2])
        ts = np.linspace(0.0, 2.0, 200)
        states = np.stack([rhs_traj(x0, 0.0, t) for t in ts])
        derivs = np.stack([[0.3 * np.cos(t), 0.3 * np.sin(t)] for t in ts])
        traj = fs.Trajectory(ts, states, derivs[:-1], derivs[1:])

        tau, rho = fs.compute_tau_rho(F.lip_bound, F.sup_bound, 2.0, 0.1)
        params = fs.LocalSteerParams(0.1, tau, rho, F.lip_bound, F.sup_bound, 2.0)
        y = traj.states[-1] + 0.5 * rho * np.array([1.0, 0.0])
        seg = fs.steer_from_states(F, 0.0, 2.0, traj.states[-1],
                                   traj.at(2.0 - tau), y, 0.1, params)
        assert np.linalg.norm(seg.corrected_path(2.0) - y) < 1e-9
        assert np.linalg.norm(seg.alpha) < 0.05
        # endpoint via re-integration of dx/dt = F(t,x) + u(t)
        from scipy.integrate import solve_ivp

        def rhs(t, x):
            u = seg.schedule.value(float(t), x)
            return F.eval(t, x) + u

        sol = solve_ivp(rhs, (0.0, 2.0), x0, rtol=1e-12, atol=1e-12,
                        max_step=tau / 4)
        assert np.linalg.norm(sol.y[:, -1] - y) < 1e-7

    def test_sampled_sup_sweeps_the_window_once(self):
        # the hop's sampled sup integrates the frozen flow once across its
        # samples instead of from s - tau for each one
        from flowsteer.steer_local import _sampled_window_sup

        calls = []

        def func(t, x):
            calls.append(t)
            return np.array([0.3 * np.cos(t), 0.3 * np.sin(t)])

        F = TimeDependentField(2, func, sup_bound=0.3, lip_bound=0.0)
        x0, s = np.array([0.1, 0.2]), 2.0

        def exact(t):
            return x0 + 0.3 * np.array([np.sin(t), 1.0 - np.cos(t)])

        tau, rho = fs.compute_tau_rho(F.lip_bound, F.sup_bound, s, 0.1)
        params = fs.LocalSteerParams(0.1, tau, rho, F.lip_bound, F.sup_bound, s)
        seg = fs.steer_from_states(F, 0.0, s, exact(s), exact(s - tau),
                                   exact(s) + 0.5 * rho * np.array([1.0, 0.0]), 0.1, params)
        ctrl = seg.control
        ts = s - tau + (np.arange(1, 1001) / 1000) * tau
        calls.clear()
        swept = _sampled_window_sup(ctrl, s, tau)
        n_swept = len(calls)
        calls.clear()
        per_sample = float(np.max(np.linalg.norm(ctrl.value(ts), axis=-1)))
        assert swept == pytest.approx(per_sample, rel=1e-12)
        assert len(calls) >= 5 * n_swept

    def test_sweep_matches_value_on_a_state_dependent_field(self):
        from flowsteer.steer_local import TimedSteerControl

        F = TimeDependentField(2, lambda t, x: 0.3 * np.array([np.cos(t + x[1]),
                                                               np.sin(t - x[0])]),
                               sup_bound=0.3, lip_bound=0.3)
        ctrl = TimedSteerControl(F, np.array([0.4, 0.2]), np.array([0.01, -0.02]),
                                 1.0, 0.5, np.array([0.35, 0.1]))
        ts = 0.5 + (np.arange(1, 201) / 200) * 0.5
        want = ctrl.value(ts)
        assert np.allclose(ctrl.sweep(ts), want, rtol=0.0, atol=1e-12 * np.max(np.abs(want)))

    def test_sup_norm_samples_timed_window(self):
        # F depends on x, but its declared Lipschitz bound of zero makes the
        # analytic bound |alpha|, so the samples decide the sup
        from flowsteer.integrate import ZeroControl
        from flowsteer.steer_local import TimedSteerControl

        F = TimeDependentField(2, lambda t, x: 0.3 * np.array([np.cos(t + x[1]),
                                                               np.sin(t - x[0])]),
                               sup_bound=0.3, lip_bound=0.0)
        ctrl = TimedSteerControl(F, np.array([0.4, 0.2]), np.array([0.01, -0.02]),
                                 1.0, 0.5, np.array([0.35, 0.1]))
        u = fs.ControlSchedule((fs.Segment(0.0, 0.5, ZeroControl()),
                                fs.Segment(0.5, 1.0, ctrl)), 0.0, dim=2)
        n = 200
        want = 0.0
        for seg in u.segments:
            want = max(want, seg.u.analytic_sup())
            for t in seg.t0 + (np.arange(1, n + 1) / n) * (seg.t1 - seg.t0):
                v = seg.u.value(float(t))
                if v is not None:
                    want = max(want, float(np.linalg.norm(v)))
        assert want > ctrl.analytic_sup()
        assert fs.sup_norm(u, n) == want

    def test_timed_control_not_serializable(self):
        F = TimeDependentField(2, lambda t, x: np.zeros(2), 0.0, 0.0)
        ts = np.linspace(0.0, 1.0, 10)
        states = np.tile([0.0, 0.0], (10, 1))
        zeros = np.zeros((9, 2))
        traj = fs.Trajectory(ts, states, zeros, zeros)
        params = fs.LocalSteerParams.auto(
            fs.builtin_field("zero", dim=2), 1.0, 0.1)
        y = np.array([0.5 * params.rho, 0.0])
        seg = fs.steer_from_states(F, 0.0, 1.0, [0.0, 0.0], [0.0, 0.0], y, 0.1, params)
        with pytest.raises(fs.FieldConstructionError):
            seg.schedule.to_json()
