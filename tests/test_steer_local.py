from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import flowsteer as fs
from flowsteer.integrate import SteerControl


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

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.0, 10.0), st.floats(0.0, 10.0),
           st.floats(0.01, 100.0), st.floats(0.001, 2.0))
    def test_rho_local_is_rho_before_the_safety_factor(self, L, F, span, eps):
        V = fs.VectorField(2, lambda x: x, sup_bound=F, lip_bound=L)
        params = fs.LocalSteerParams.auto(V, span, eps)
        limits = [span] + ([eps / (4.0 * L)] if L > 0 else []) + (
            [eps / (8.0 * L * F)] if L * F > 0 else [])
        assert params.rho_local == min(limits) * eps / 4.0
        assert fs.compute_tau_rho(L, F, span, eps, safety=1.0)[1] == params.rho_local
        assert params.rho < params.rho_local

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
        assert np.allclose(seg.control.alpha, (y - p) / params.tau, atol=1e-15)
        for t in np.linspace(1.0 - params.tau + 1e-9, 1.0, 7):
            assert np.allclose(seg.schedule.value(t), seg.control.alpha, atol=1e-15)
        assert np.allclose(seg.control.path(1.0), y, atol=1e-15)

    def test_constant_field_control_is_alpha(self):
        V = fs.builtin_field("constant", c=[0.7, 0.1])
        p = np.array([0.0, 0.0])
        traj = fs.integrate(V, p, 0.0, 2.0)
        params = fs.LocalSteerParams.auto(V, 2.0, 0.2)
        y = traj.states[-1] + 0.5 * params.rho * np.array([0.0, 1.0])
        seg = fs.steer_endpoint(V, traj, y, 0.2, params)
        # translation invariance: the field-difference term vanishes
        for t in np.linspace(2.0 - params.tau + 1e-9, 2.0, 9):
            assert np.allclose(seg.schedule.value(t), seg.control.alpha, atol=1e-12)

    def test_nan_landing_is_refused(self, monkeypatch):
        # the corrected path lands on y by algebra; a NaN landing is no landing
        V = fs.builtin_field("zero", dim=2)
        params = fs.LocalSteerParams.auto(V, 1.0, 0.1)
        y = np.array([0.5 + params.rho / 2, -0.5])
        monkeypatch.setattr(SteerControl, "path",
                            lambda self, t: np.full(2, np.nan))
        with pytest.raises(AssertionError, match="misses target by nan"):
            fs.steer_from_states(V, 0.0, 1.0, [0.5, -0.5], [0.5, -0.5], y, 0.1, params)

    def test_cellular_reintegration_oracle(self, cellular):
        traj = fs.integrate(cellular, [0.7, 1.1], 0.0, 1.0)
        params = fs.LocalSteerParams.auto(cellular, 1.0, 0.1)
        y = traj.states[-1] + 0.5 * params.rho * np.array([np.cos(0.3), np.sin(0.3)])
        seg = fs.steer_endpoint(cellular, traj, y, 0.1, params)
        fine = fs.IntegratorSettings(tol=1e-12)
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
        assert np.linalg.norm(seg.control.alpha) < 0.05
        assert seg.schedule.sup_cert < 0.1

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

