from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

import flowsteer as fs
from flowsteer import jsonio
from flowsteer.fields import cellular_stream
from flowsteer.integrate import (ConstantControl, ControlSchedule, Segment,
                                 ZeroControl)


class TestIntegrate:
    def test_zero_field_is_constant(self):
        V = fs.builtin_field("zero", dim=2)
        traj = fs.integrate(V, [1.0, -2.0], 0.0, 5.0)
        assert np.all(traj.states == [1.0, -2.0])

    def test_rotation_period(self, rotation):
        traj = fs.integrate(rotation, [1.0, 0.0], 0.0, 2 * np.pi)
        assert np.linalg.norm(traj.states[-1] - [1.0, 0.0]) < 1e-6

    def test_cellular_stream_conservation(self, cellular):
        traj = fs.integrate(cellular, [0.7, 1.1], 0.0, 50.0)
        h0 = cellular_stream(np.array([0.7, 1.1]))
        assert np.max(np.abs(cellular_stream(traj.states) - h0)) < 1e-6

    def test_matches_scipy_oracle(self, cellular):
        traj = fs.integrate(cellular, [0.7, 1.1], 0.0, 20.0)
        ref = solve_ivp(lambda t, y: cellular.eval(y), (0.0, 20.0), [0.7, 1.1],
                        method="DOP853", rtol=1e-12, atol=1e-12)
        assert np.linalg.norm(traj.states[-1] - ref.y[:, -1]) < 1e-7

    def test_determinism(self, cellular):
        a = fs.integrate(cellular, [0.7, 1.1], 0.0, 10.0)
        b = fs.integrate(cellular, [0.7, 1.1], 0.0, 10.0)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.states, b.states)

    def test_convergence_order(self, rotation):
        x0 = [1.0, 0.0]
        oracle = fs.integrate(rotation, x0, 0.0, 2 * np.pi,
                              fs.IntegratorSettings(rtol=1e-13, atol=1e-13)).states[-1]

        def endpoint_error(tol):
            s = fs.IntegratorSettings(rtol=tol, atol=tol)
            return np.linalg.norm(fs.integrate(rotation, x0, 0.0, 2 * np.pi, s).states[-1] - oracle)

        e1, e2 = endpoint_error(1e-7), endpoint_error(5e-8)
        assert e2 < e1 / 2.0

    def test_dense_output_exact_at_nodes(self, cellular):
        traj = fs.integrate(cellular, [0.7, 1.1], 0.0, 5.0)
        for i in range(len(traj.times)):
            assert np.array_equal(traj.at(float(traj.times[i])), traj.states[i])

    def test_dense_output_between_nodes(self, rotation):
        traj = fs.integrate(rotation, [1.0, 0.0], 0.0, np.pi)
        for t in np.linspace(0.1, 3.0, 17):
            want = [np.cos(t), -np.sin(t)]
            assert np.linalg.norm(traj.at(t) - want) < 1e-7

    def test_sample_matches_at(self, rotation):
        traj = fs.integrate(rotation, [1.0, 0.0], 0.0, np.pi)
        ts = np.linspace(0.0, np.pi, 100)
        many = traj.sample(ts)
        ones = np.stack([traj.at(float(t)) for t in ts])
        assert np.allclose(many, ones, atol=1e-14)

    def test_rejects_bad_window(self, rotation):
        with pytest.raises(ValueError):
            fs.integrate(rotation, [1.0, 0.0], 1.0, 1.0)

    def test_backward_integration(self, rotation):
        fwd = fs.integrate(rotation, [1.0, 0.0], 0.0, 1.5)
        back = fs.integrate_backward(rotation, fwd.states[-1], 0.0, 1.5)
        assert np.linalg.norm(back.states[0] - [1.0, 0.0]) < 1e-8
        assert back.t0 == 0.0 and back.t1 == 1.5

    def test_join(self, rotation):
        a = fs.integrate(rotation, [1.0, 0.0], 0.0, 1.0)
        b = fs.integrate(rotation, a.states[-1], 1.0, 2.0)
        j = fs.Trajectory.join([a, b])
        assert j.t0 == 0.0 and j.t1 == 2.0
        assert np.linalg.norm(j.at(1.7) - [np.cos(1.7), -np.sin(1.7)]) < 1e-7


def _kinked_cellular():
    """The cellular field through a coarse bilinear grid: its kinks make the
    stepper reject steps."""
    cellular = fs.builtin_field("cellular")
    ax = np.linspace(0.0, 2 * np.pi, 33)
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    return fs.grid_field((ax, ax), cellular.eval(np.stack([X, Y], axis=-1)))


def _corrected_cellular():
    box = fs.Box((-np.pi, -np.pi), (3 * np.pi, 3 * np.pi))
    return fs.correct(fs.builtin_field("cellular"), 0.1,
                      settings=fs.CorrectionSettings(box=box, resolution=512)).field


def _same(a, b):
    return (np.array_equal(a.times, b.times) and np.array_equal(a.states, b.states)
            and np.array_equal(a.d_left, b.d_left) and np.array_equal(a.d_right, b.d_right)
            and a.tol_budget == b.tol_budget)


class TestBatchedStepper:
    @pytest.mark.parametrize("name", ["rotation", "cellular", "corrected", "abc"])
    def test_rows_equal_solo_integrations_bitwise(self, name):
        V = {"rotation": lambda: fs.builtin_field("rotation"),
             "cellular": lambda: fs.builtin_field("cellular"),
             "corrected": _corrected_cellular,
             "abc": lambda: fs.builtin_field("abc")}[name]()
        starts = np.random.default_rng(3).uniform(0.3, 1.3, (5, V.dim))
        settings = fs.IntegratorSettings(rtol=1e-10, atol=1e-10, h_max=0.1)
        rows = fs.integrate(V, starts, 0.0, 7.0, settings)
        assert len(rows) == len(starts)
        for x0, row in zip(starts, rows):
            assert _same(row, fs.integrate(V, x0, 0.0, 7.0, settings))
        # a row's bits do not depend on its batch either
        assert _same(fs.integrate(V, starts[2:4], 0.0, 7.0, settings)[1], rows[3])

    def test_stop_ends_only_its_rows(self, cellular):
        starts = np.array([[0.7, 1.1], [1.0, 1.2], [0.4, 0.9]])
        settings = fs.IntegratorSettings(rtol=1e-10, atol=1e-10)
        full = fs.integrate(cellular, starts, 0.0, 5.0, settings)

        def stop(rows, t, y, nodes):
            assert y.shape == (len(rows), 2)
            return [r == 1 and tt >= 2.0 for r, tt in zip(rows, t)]

        rows = fs.integrate(cellular, starts, 0.0, 5.0, settings, stop=stop)
        assert _same(rows[0], full[0]) and _same(rows[2], full[2])
        cut = rows[1]
        n = len(cut.times)
        assert cut.times[-2] < 2.0 <= cut.t1 < 5.0
        assert np.array_equal(cut.times, full[1].times[:n])
        assert np.array_equal(cut.states, full[1].states[:n])

    def test_rejected_step_keeps_first_stage(self):
        # every interval's left slope is the field at its left node, also
        # after rejected attempts (which once leaked their last stage into
        # the next attempt's first)
        V = _kinked_cellular()
        traj = fs.integrate(V, [0.7, 1.1], 0.0, 20.0,
                            fs.IntegratorSettings(rtol=1e-10, atol=1e-10))
        assert np.array_equal(traj.d_left, V.eval(traj.states[:-1]))
        assert np.array_equal(traj.d_right, V.eval(traj.states[1:]))


class TestControlledIntegration:
    def test_zero_schedule_bitwise_equal(self, cellular):
        u = fs.zero_schedule(0.0, 3.0)
        a = fs.integrate(cellular, [0.7, 1.1], 0.0, 3.0)
        b = fs.integrate_controlled(cellular, u, [0.7, 1.1], 0.0, 3.0)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.states, b.states)

    def test_constant_control_on_zero_field(self):
        V = fs.builtin_field("zero", dim=2)
        alpha = np.array([0.25, -0.5])
        u = ControlSchedule((Segment(0.0, 1.0, ConstantControl(alpha)),),
                            float(np.linalg.norm(alpha)))
        traj = fs.integrate_controlled(V, u, [1.0, 1.0], 0.0, 1.0)
        assert np.linalg.norm(traj.states[-1] - [1.25, 0.5]) < 1e-12

    def test_segment_boundary_forces_node(self, cellular):
        u = ControlSchedule((Segment(0.0, 1.0, ZeroControl()),
                             Segment(1.0, 2.0, ConstantControl(np.array([0.1, 0.0])))),
                            0.1)
        traj = fs.integrate_controlled(cellular, u, [0.7, 1.1], 0.0, 2.0)
        assert np.any(traj.times == 1.0)

    def test_window_outside_schedule_rejected(self, cellular):
        u = fs.zero_schedule(0.0, 1.0)
        with pytest.raises(fs.ScheduleError):
            fs.integrate_controlled(cellular, u, [0.7, 1.1], 0.0, 2.0)


class TestScheduleSemantics:
    def test_value_has_left_closed_jump(self):
        alpha = np.array([1.0, 0.0])
        u = ControlSchedule((Segment(0.0, 1.0, ZeroControl()),
                             Segment(1.0, 2.0, ConstantControl(alpha))), 1.0)
        # pointwise support: the constant segment owns (1, 2]
        assert np.all(u.value(1.0) == 0.0)
        assert np.all(u.value(1.0 + 1e-12) == alpha)
        assert np.all(u.value(2.0) == alpha)
        assert np.all(u.value(0.0) == 0.0)

    def test_segments_must_be_contiguous(self):
        with pytest.raises(fs.ScheduleError):
            ControlSchedule((Segment(0.0, 1.0, ZeroControl()),
                             Segment(1.5, 2.0, ZeroControl())), 0.0)

    def test_degenerate_segment_rejected(self):
        with pytest.raises(fs.ScheduleError):
            Segment(1.0, 1.0, ZeroControl())


class TestSupNorm:
    def test_constant_exact(self):
        u = ControlSchedule((Segment(0.0, 1.0, ConstantControl(np.array([3.0, 4.0]))),), 5.0)
        assert fs.sup_norm(u, 100) == pytest.approx(5.0, abs=1e-12)

    def test_zero_schedule(self):
        assert fs.sup_norm(fs.zero_schedule(0.0, 2.0)) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(fs.ScheduleError):
            fs.sup_norm(ControlSchedule((), 0.0))


class TestConcat:
    def test_zero_zero(self):
        u = fs.concat(fs.zero_schedule(0.0, 1.0), fs.zero_schedule(1.0, 2.0))
        assert u.t0 == 0.0 and u.t1 == 2.0

    def test_empty_identity(self):
        u = fs.zero_schedule(0.0, 1.0)
        assert fs.concat(u, ControlSchedule((), 0.0)) is u
        assert fs.concat(ControlSchedule((), 0.0), u) is u

    def test_three_hops_sup_cert_is_max(self):
        def seg(t0, t1, a):
            c = ConstantControl(np.array([a, 0.0]))
            return ControlSchedule((Segment(t0, t1, c),), abs(a))

        u = fs.concat(fs.concat(seg(0, 1, 0.1), seg(1, 2, 0.3)), seg(2, 3, 0.2))
        assert u.sup_cert == pytest.approx(0.3)
        assert fs.sup_norm(u, 500) == pytest.approx(0.3, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.01, 2.0), st.floats(0.01, 2.0))
    def test_gap_or_overlap_rejected(self, gap, w):
        u1 = fs.zero_schedule(0.0, 1.0)
        u2 = fs.zero_schedule(1.0 + gap, 1.0 + gap + w)
        with pytest.raises(fs.ScheduleError):
            fs.concat(u1, u2)


class TestSerialization:
    def test_zero_constant_roundtrip_bit_exact(self):
        alpha = np.array([0.1234567890123456789, -np.pi])
        u = ControlSchedule((Segment(0.0, 1.0, ZeroControl()),
                             Segment(1.0, 2.5, ConstantControl(alpha))),
                            float(np.linalg.norm(alpha)))
        js = u.to_json()
        back = ControlSchedule.from_json(js)
        assert jsonio.dumps(back.to_json()) == jsonio.dumps(js)
        assert np.array_equal(back.segments[1].u.alpha, alpha)

    def test_steer_roundtrip_preserves_values(self, cellular):
        traj = fs.integrate(cellular, [0.7, 1.1], 0.0, 1.0)
        params = fs.LocalSteerParams.auto(cellular, 1.0, 0.1)
        y = traj.states[-1] + 0.4 * params.rho * np.array([0.0, 1.0])
        seg = fs.steer_endpoint(cellular, traj, y, 0.1, params)
        js = seg.schedule.to_json()
        back = ControlSchedule.from_json(js)
        assert jsonio.dumps(back.to_json()) == jsonio.dumps(js)
        for t in np.linspace(1.0 - params.tau + 1e-9, 1.0, 37):
            assert np.array_equal(back.value(t), seg.schedule.value(t))

    def test_csv_export_shape(self, rotation):
        traj = fs.integrate(rotation, [1.0, 0.0], 0.0, 1.0)
        lines = traj.to_csv().strip().split("\n")
        assert lines[0] == "t,x1,x2"
        assert len(lines) == len(traj.times) + 1
        # csv floats round-trip
        t, x1, x2 = map(float, lines[-1].split(","))
        assert t == traj.times[-1] and x1 == traj.states[-1][0]


class TestFailurePaths:
    def test_blowup_reports_last_valid_state(self):
        # dx/dt = x^2 from x=1 blows up at t=1
        V = fs.expression_field(["x^2", "0"], region=fs.Box((0.5, -1), (3.0, 1)))
        with pytest.raises(fs.IntegrationError) as err:
            fs.integrate(V, [1.0, 0.0], 0.0, 2.0,
                         fs.IntegratorSettings(max_steps=100_000))
        assert err.value.t is not None and err.value.t < 1.01
        assert err.value.state is not None


class TestSubWindowIntegration:
    def test_segment_alignment_from_interior_start(self):
        # integrating a window that starts inside a later segment must pick
        # that segment's formula, not the first one's
        V = fs.builtin_field("zero", dim=2)
        a1 = np.array([0.1, 0.0])
        a2 = np.array([0.0, 0.2])
        u = ControlSchedule(
            (Segment(0.0, 1.0, ConstantControl(a1)),
             Segment(1.0, 2.0, ConstantControl(a2)),
             Segment(2.0, 3.0, ZeroControl())), 0.3)
        traj = fs.integrate_controlled(V, u, [0.0, 0.0], 1.5, 2.5)
        # half a unit under a2, then half a unit of nothing
        assert np.allclose(traj.states[-1], 0.5 * a2, atol=1e-12)
        mid = fs.integrate_controlled(V, u, [0.0, 0.0], 0.5, 2.0)
        assert np.allclose(mid.states[-1], 0.5 * a1 + 1.0 * a2, atol=1e-12)
