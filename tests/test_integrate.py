from __future__ import annotations

import copy
import dataclasses
import importlib
import json
import signal

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import flowsteer as fs
from flowsteer import jsonio
from flowsteer.fields import cellular_stream
from flowsteer.integrate import (ConstantControl, ControlSchedule,
                                 FieldDifferenceControl, Segment, SteerControl,
                                 SumControl, ZeroControl, _basis, _landing_tol,
                                 _landings)


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
                              fs.IntegratorSettings(tol=1e-13)).states[-1]

        def endpoint_error(tol):
            s = fs.IntegratorSettings(tol=tol)
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

    def test_rejects_bad_window(self, rotation):
        with pytest.raises(ValueError):
            fs.integrate(rotation, [1.0, 0.0], 1.0, 1.0)

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
            and np.array_equal(a.d_left, b.d_left) and np.array_equal(a.d_right, b.d_right))


def _bits(traj):
    return b"".join(a.tobytes() for a in (traj.times, traj.states, traj.d_left, traj.d_right))


def _steer(F, s, anchor, alpha, tau=0.5):
    """A window on F over [s - tau, s] from ``anchor``, with z = anchor + 0.1."""
    anchor = np.asarray(anchor, dtype=float)
    z = anchor + 0.1
    return SteerControl(F, z, np.asarray(alpha, dtype=float), s, tau, anchor, F.eval(z))


class TestBatchedStepper:
    @pytest.mark.parametrize("name", ["rotation", "cellular", "corrected", "abc"])
    def test_rows_equal_solo_integrations_bitwise(self, name):
        V = {"rotation": lambda: fs.builtin_field("rotation"),
             "cellular": lambda: fs.builtin_field("cellular"),
             "corrected": _corrected_cellular,
             "abc": lambda: fs.builtin_field("abc")}[name]()
        starts = np.random.default_rng(3).uniform(0.3, 1.3, (5, V.dim))
        settings = fs.IntegratorSettings(tol=1e-10, h_max=0.1)
        rows = fs.integrate(V, starts, 0.0, 7.0, settings)
        assert len(rows) == len(starts)
        for x0, row in zip(starts, rows):
            assert _same(row, fs.integrate(V, x0, 0.0, 7.0, settings))
        # a row's bits do not depend on its batch either
        assert _same(fs.integrate(V, starts[2:4], 0.0, 7.0, settings)[1], rows[3])

    def test_stop_ends_only_its_rows(self, cellular):
        starts = np.array([[0.7, 1.1], [1.0, 1.2], [0.4, 0.9]])
        settings = fs.IntegratorSettings(tol=1e-10)
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

    @pytest.mark.parametrize("name", ["cellular", "corrected"])
    def test_rows_with_their_own_spans_equal_solo_runs(self, name):
        V = fs.builtin_field("cellular") if name == "cellular" else _corrected_cellular()
        starts = np.random.default_rng(5).uniform(0.3, 1.3, (4, 2))
        t0s = [0.0, 0.5, 1.3, -2.0]
        t1s = [3.0, 7.0, 4.2, 0.25]
        settings = fs.IntegratorSettings(tol=1e-10, h_max=0.1)
        rows = fs.integrate(V, starts, t0s, t1s, settings)
        for x0, a, b, row in zip(starts, t0s, t1s, rows):
            assert row.t0 == a and row.t1 == b
            assert _same(row, fs.integrate(V, x0, a, b, settings))

    def test_batched_controlled_rows_equal_solo_calls(self):
        # rows cross the segment edges at different times, so one stage
        # evaluates several segments' descriptors, each on its own rows
        V = _corrected_cellular()
        cellular = fs.builtin_field("cellular")
        z = np.array([0.9, 1.0])
        steer = SteerControl(cellular, z, np.array([0.01, -0.02]), 3.5, 0.5,
                             np.array([0.8, 1.2]), cellular.eval(z))
        u = ControlSchedule((
            Segment(0.0, 1.0, ZeroControl()),
            Segment(1.0, 2.0, ConstantControl(np.array([0.05, -0.03]))),
            Segment(2.0, 3.0, SumControl((FieldDifferenceControl(V, cellular),
                                          ZeroControl()))),
            Segment(3.0, 3.5, steer)), 0.1, dim=2)
        starts = np.random.default_rng(7).uniform(0.3, 1.3, (5, 2))
        t0s = [0.0, 0.5, 1.5, 2.2, 1.0]
        t1s = [3.5, 2.5, 3.2, 3.4, 2.0]
        settings = fs.IntegratorSettings(tol=1e-10, h_max=0.1)
        rows = fs.integrate_controlled(V, u, starts, t0s, t1s, settings)
        assert len(rows) == len(starts)
        for x0, a, b, row in zip(starts, t0s, t1s, rows):
            solo = fs.integrate_controlled(V, u, x0, a, b, settings)
            assert _same(row, solo)
            inner = [e for e in (1.0, 2.0, 3.0) if a < e < b]
            assert [e for e in inner if e in row.times] == inner
        # the same spans in one scalar call
        same = fs.integrate_controlled(V, u, starts[1:3], 1.5, 3.2, settings)
        assert _same(same[1], rows[2])

    def test_coast_and_window_rows_share_one_field_call(self, monkeypatch):
        # three hops, each a coast (even segments, one shared descriptor)
        # and a window of its own, all driven by A through u = A - V; rows
        # of different hops sit in coasts and windows at once, and every
        # stage evaluates A once over all of them, then adds each window's
        # steer on its rows
        integ = importlib.import_module("flowsteer.integrate")
        V = fs.builtin_field("cellular")
        W = _corrected_cellular()
        calls = []

        def counted_func(x):
            calls.append(len(x))
            return W.func(x)

        A = dataclasses.replace(W, func=counted_func)
        fd = FieldDifferenceControl(A, V)
        coast = SumControl((fd, ZeroControl()))

        def window(s, anchor, alpha, F=V):
            return SumControl((fd, _steer(F, s, anchor, alpha)))

        u = ControlSchedule((
            Segment(0.0, 1.0, coast),
            Segment(1.0, 1.5, window(1.5, [0.8, 1.2], [0.01, -0.02])),
            Segment(1.5, 2.5, coast),
            Segment(2.5, 3.0, window(3.0, [0.9, 1.1], [-0.02, 0.01])),
            Segment(3.0, 4.0, coast),
            Segment(4.0, 4.5, window(4.5, [0.7, 1.3], [0.015, 0.005]))), 0.1, dim=2)
        starts = np.random.default_rng(11).uniform(0.3, 1.3, (6, 2))
        t0s = [0.0, 1.5, 3.0, 0.3, 1.9, 3.7]
        t1s = [1.5, 3.0, 4.5, 1.5, 3.0, 4.5]
        settings = fs.IntegratorSettings(tol=1e-10, h_max=0.1)

        real = integ._adaptive_solve
        stages, mixed = [], []

        def counted_solve(rhs, *args, **kw):
            def counted_rhs(t, y, k):
                stages.append(1)
                parity = {i % 2 for i in k.tolist()}
                mixed.append(parity == {0, 1})
                return rhs(t, y, k)
            return real(counted_rhs, *args, **kw)

        monkeypatch.setattr(integ, "_adaptive_solve", counted_solve)
        rows = fs.integrate_controlled(V, u, starts, t0s, t1s, settings)
        assert len(calls) == len(stages)
        assert sum(mixed) > 10  # stages with rows in a coast and a window
        monkeypatch.undo()
        for x0, a, b, row in zip(starts, t0s, t1s, rows):
            assert _same(row, fs.integrate_controlled(V, u, x0, a, b, settings))

        # the planner's window pass: eight windows that steer on A itself,
        # a row each from its anchor over its span; every stage evaluates A
        # once, on the running rows and their path points stacked, and no
        # window's own value is called
        segs = []
        for i in range(8):
            a, anchor = 1.0 * i, starts[i % 6]
            segs += [Segment(a, a + 0.5, coast),
                     Segment(a + 0.5, a + 1.0, window(a + 1.0, anchor, [0.01, -0.02], A))]
        u8 = ControlSchedule(tuple(segs), 0.1, dim=2)
        anchors = np.array([s.u.parts[1].anchor for s in segs[1::2]])
        ref = [fs.integrate_controlled(V, u8, x0, w.t0, w.t1, settings)
               for x0, w in zip(anchors, segs[1::2])]
        running = []

        def counted_rows(rhs, *args, **kw):
            def counted_rhs(t, y, k):
                running.append(len(k))
                return rhs(t, y, k)
            return real(counted_rhs, *args, **kw)

        monkeypatch.setattr(integ, "_adaptive_solve", counted_rows)
        monkeypatch.setattr(SteerControl, "value", None)
        del calls[:]
        rows = fs.integrate_controlled(V, u8, anchors, [w.t0 for w in segs[1::2]],
                                       [w.t1 for w in segs[1::2]], settings)
        assert calls == [2 * n for n in running] and max(running) == 8
        monkeypatch.undo()
        assert all(_same(a, b) for a, b in zip(rows, ref))

    def test_rejected_step_keeps_first_stage(self):
        # every interval's left slope is the field at its left node, also
        # after rejected attempts (which once leaked their last stage into
        # the next attempt's first)
        V = _kinked_cellular()
        traj = fs.integrate(V, [0.7, 1.1], 0.0, 20.0,
                            fs.IntegratorSettings(tol=1e-10))
        assert np.array_equal(traj.d_left, V.eval(traj.states[:-1]))
        assert np.array_equal(traj.d_right, V.eval(traj.states[1:]))

    @pytest.mark.parametrize("uncapped", [False, True])
    def test_large_batches_are_bitwise(self, uncapped):
        # 128 rows with their own spans across shared edges, rejecting steps
        # at different iterations, and a stop that ends a third of them
        # mid-solve: every row is its solo run and a sub-batch is the same
        # rows of the full batch
        V = fs.builtin_field("cellular")
        rng = np.random.default_rng(17)
        n = 128
        starts = rng.uniform(0.3, 2.8, (n, 2))
        t0s = rng.uniform(-1.0, 1.0, n)
        t1s = t0s + rng.uniform(0.5, 3.0, n)
        cut = np.where(rng.random(n) < 0.3, t0s + 0.4 * (t1s - t0s), np.inf)
        edges = np.arange(-1.0, 4.0, 0.37).tolist()
        settings = fs.IntegratorSettings(tol=1e-10, h_max=np.inf if uncapped else 0.5)

        def run(ids, log=None):
            def stop(rows, t, y, nodes):
                if log is not None:
                    log.append(ids[rows])
                flags = t >= cut[ids[rows]]
                for r, tr, yr in zip(rows[flags], t[flags], y[flags]):
                    node = nodes.trajectory(int(r))
                    assert node.times[-1] == tr and np.array_equal(node.states[-1], yr)
                return flags
            x0 = starts[ids[0]] if len(ids) == 1 else starts[ids]
            return fs.integrate(V, x0, t0s[ids], t1s[ids], settings, stop=stop, edges=edges)

        log = []
        rows = run(np.arange(n), log)
        stopped = [i for i in range(n) if rows[i].t1 < t1s[i]]
        assert 0 < len(stopped) < n
        assert all(rows[i].t1 >= cut[i] > rows[i].times[-2] for i in stopped)
        # a running row that is missing from a stop call was rejected there
        first, last, seen = {}, {}, {}
        for k, ids in enumerate(log):
            for i in ids.tolist():
                first.setdefault(i, k)
                last[i] = k
                seen[i] = seen.get(i, 0) + 1
        assert sum(last[i] - first[i] + 1 > seen[i] for i in seen) > 3
        for i in range(n):
            assert _same(rows[i], run(np.array([i])))
        sub = np.arange(3, n, 3)
        for i, row in zip(sub, run(sub)):
            assert _same(row, rows[i])


def _reference_rhs(V, u):
    """``integrate_controlled``'s right-hand side as one ``value`` call per
    segment present: each segment's rows take its driven field, then its
    rest."""
    integ = importlib.import_module("flowsteer.integrate")
    driven = [integ._driven(V, s.u) for s in u.segments]

    def rhs(t, y, k):
        out = np.empty_like(y)
        for i in set(k.tolist()):
            m = k == i
            field, rest = driven[i]
            out[m] = field.eval(y[m])
            if rest is not None:
                out[m] += rest.value(t[m], y[m])
        return out

    return rhs


class TestStackedSteering:
    """A stage evaluates its window rows' steering stacked with its rows,
    one call per field, bitwise one ``value`` call per segment."""

    # the segments that hold a window, the constant segment, and the window
    # whose sum holds a constant between its difference and its steering
    WINDOWS, CONSTANT, MIXED = {1, 2, 4, 6, 7}, 3, 7

    @pytest.fixture(scope="class")
    def plan(self):
        """Coasts and windows on W as a plan lays them out, the first coast
        bridged by another field Wb; two windows back to back, a constant
        segment between windows, a bare window on W whose rows V drives,
        and a window whose sum adds a constant between its difference and
        its steering.  Every field call is logged by the field's name."""
        log = []

        def counted(name, F):
            def func(x):
                log.append(name)
                return F.func(x)
            return dataclasses.replace(F, func=func)

        cellular = fs.builtin_field("cellular")
        corrected = _corrected_cellular()
        V, W = counted("V", cellular), counted("W", corrected)
        Wb = counted("Wb", fs.VectorField(2, lambda x: 1.001 * corrected.eval(x),
                                          corrected.sup_bound, corrected.lip_bound))
        fd = FieldDifferenceControl(W, V)
        u = ControlSchedule((
            Segment(0.0, 1.0, SumControl((FieldDifferenceControl(Wb, V), ZeroControl()))),
            Segment(1.0, 1.5, SumControl((fd, _steer(W, 1.5, [0.8, 1.2], [0.01, -0.02])))),
            Segment(1.5, 2.0, SumControl((fd, _steer(W, 2.0, [0.9, 1.1], [-0.02, 0.01])))),
            Segment(2.0, 2.5, ConstantControl(np.array([0.03, -0.01]))),
            Segment(2.5, 3.0, SumControl((fd, _steer(W, 3.0, [0.7, 1.3], [0.015, 0.005])))),
            Segment(3.0, 3.5, SumControl((fd, ZeroControl()))),
            Segment(3.5, 4.0, _steer(W, 4.0, [1.0, 0.9], [0.005, 0.01])),
            Segment(4.0, 4.5, SumControl((fd, ConstantControl(np.array([-0.01, 0.02])),
                                          _steer(W, 4.5, [0.95, 1.0], [0.01, 0.005]))))),
            0.1, dim=2)
        starts = np.random.default_rng(23).uniform(0.3, 1.3, (9, 2))
        t0s = [0.0, 1.0, 1.5, 1.2, 2.0, 1.8, 3.0, 2.6, 3.7]
        t1s = [1.5, 1.5, 2.0, 2.0, 3.0, 2.7, 4.0, 4.0, 4.5]
        return V, u, starts, t0s, t1s, log

    @staticmethod
    def _recorded(monkeypatch, run):
        """``run()`` with every stage's (t, y, k) and result recorded."""
        integ = importlib.import_module("flowsteer.integrate")
        real, seen = integ._adaptive_solve, []

        def recording(rhs, *args, **kw):
            def rec(t, y, k):
                out = rhs(t, y, k)
                seen.append((t.copy(), y.copy(), k.copy(), out.copy()))
                return out
            return real(rec, *args, **kw)

        monkeypatch.setattr(integ, "_adaptive_solve", recording)
        try:
            return run(), seen
        finally:
            monkeypatch.undo()

    @pytest.mark.parametrize("capped", [False, True])
    def test_stages_and_rows_equal_per_segment_values(self, plan, capped, monkeypatch):
        V, u, starts, t0s, t1s, _ = plan
        integ = importlib.import_module("flowsteer.integrate")
        settings = fs.IntegratorSettings(tol=1e-10, h_max=0.1 if capped else np.inf)
        edges = [s.t0 for s in u.segments[1:]]
        reference = _reference_rhs(V, u)
        mids = [0.5 * (a + b) for a, b in zip(t0s, t1s)]

        def run():
            rows = fs.integrate_controlled(V, u, starts, t0s, t1s, settings)
            lone = fs.integrate_controlled(V, u, starts[1], t0s[1], t1s[1], settings)
            # dense reads evaluate their extra stages on one-row stages
            return rows, lone, [r.at(t) for r, t in zip(rows + [lone], mids + mids[1:2])]

        (rows, lone, dense), seen = self._recorded(monkeypatch, run)
        for t, y, k, out in seen:
            assert out.tobytes() == reference(t, y, k).tobytes()
        present = [set(k.tolist()) for _, _, k, _ in seen]
        assert any(len(ks & self.WINDOWS) > 1 for ks in present)
        assert any(ks & self.WINDOWS and ks - self.WINDOWS for ks in present)
        assert any(self.CONSTANT in ks and ks & self.WINDOWS for ks in present)
        assert any(self.MIXED in ks and len(ks) > 1 for ks in present)
        assert any(len(k) == 1 and k[0] in self.WINDOWS for _, _, k, _ in seen)
        ref = integ._adaptive_solve(reference, starts, t0s, t1s, settings, edges=edges)
        solo = integ._adaptive_solve(reference, starts[1], t0s[1], t1s[1], settings,
                                     edges=edges)
        assert [_bits(r) for r in rows + [lone]] == [_bits(r) for r in ref + [solo]]
        want = [r.at(t) for r, t in zip(ref + [solo], mids + mids[1:2])]
        assert [v.tobytes() for v in dense] == [v.tobytes() for v in want]

    def test_one_call_per_field_a_stage(self, plan, monkeypatch):
        # the bridged coast's rows call Wb, the windows' rows and every path
        # point call W, the bare window's rows call V, each once a stage
        V, u, starts, t0s, t1s, log = plan
        drives = ["Wb", "W", "W", "V", "W", "W", "V", "W"]
        integ = importlib.import_module("flowsteer.integrate")
        real, marks = integ._adaptive_solve, []
        del log[:]

        def marking(rhs, *args, **kw):
            def rhs_marked(t, y, k):
                marks.append(len(log))
                out = rhs(t, y, k)
                want = {drives[i] for i in k.tolist()}
                if set(k.tolist()) & self.WINDOWS:
                    want.add("W")
                assert sorted(log[marks[-1]:]) == sorted(want)
                return out
            return real(rhs_marked, *args, **kw)

        monkeypatch.setattr(integ, "_adaptive_solve", marking)
        monkeypatch.setattr(SteerControl, "value", None)
        fs.integrate_controlled(V, u, starts, t0s, t1s, fs.IntegratorSettings(tol=1e-10))
        assert len(marks) > 100 and set(log) == {"V", "W", "Wb"}


class TestControlledIntegration:
    def test_zero_schedule_bitwise_equal(self, cellular):
        u = ControlSchedule((Segment(0.0, 3.0, ZeroControl()),), 0.0, dim=2)
        a = fs.integrate(cellular, [0.7, 1.1], 0.0, 3.0)
        b = fs.integrate_controlled(cellular, u, [0.7, 1.1], 0.0, 3.0)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.states, b.states)

    def test_sum_of_zeros_drives_by_the_field(self, cellular):
        # a sum whose parts are all zeros, nested or not, adds nothing
        u = ControlSchedule((Segment(0.0, 3.0, SumControl((
            ZeroControl(), SumControl((ZeroControl(),))))),), 0.0, dim=2)
        assert _same(fs.integrate_controlled(cellular, u, [0.7, 1.1], 0.0, 3.0),
                     fs.integrate(cellular, [0.7, 1.1], 0.0, 3.0))
        assert np.array_equal(u.values([0.0, 1.5], None), np.zeros((2, 2)))

    def test_empty_schedule_drives_by_the_field(self, cellular):
        # an empty schedule is one zero segment without a span: any window
        starts = np.array([[0.7, 1.1], [1.2, 0.4]])
        u = ControlSchedule((), 0.0, dim=2)
        for got, want in zip(fs.integrate_controlled(cellular, u, starts, 0.0, 3.0),
                             fs.integrate(cellular, starts, 0.0, 3.0)):
            assert _same(got, want)

    def test_constant_control_on_zero_field(self):
        V = fs.builtin_field("zero", dim=2)
        alpha = np.array([0.25, -0.5])
        u = ControlSchedule((Segment(0.0, 1.0, ConstantControl(alpha)),),
                            float(np.linalg.norm(alpha)), dim=2)
        traj = fs.integrate_controlled(V, u, [1.0, 1.0], 0.0, 1.0)
        assert np.linalg.norm(traj.states[-1] - [1.25, 0.5]) < 1e-12

    def test_segment_boundary_forces_node(self, cellular):
        u = ControlSchedule((Segment(0.0, 1.0, ZeroControl()),
                             Segment(1.0, 2.0, ConstantControl(np.array([0.1, 0.0])))),
                            0.1, dim=2)
        traj = fs.integrate_controlled(cellular, u, [0.7, 1.1], 0.0, 2.0)
        assert np.any(traj.times == 1.0)

    def test_window_outside_schedule_rejected(self, cellular):
        u = ControlSchedule((Segment(0.0, 1.0, ZeroControl()),), 0.0, dim=2)
        with pytest.raises(fs.ScheduleError):
            fs.integrate_controlled(cellular, u, [0.7, 1.1], 0.0, 2.0)


class TestCorrectedFieldDrive:
    """A segment u = A - V realizes the field A: its rows evaluate A alone."""

    @staticmethod
    def _fields():
        cellular = fs.builtin_field("cellular")
        calls = []

        def counted(x):
            calls.append(1)
            return cellular.func(x)

        V = dataclasses.replace(cellular, func=counted)
        ax = np.linspace(-1.0, 3.0, 41)
        W = 0.01 * np.random.default_rng(2).normal(size=(41, 41, 2))
        grid = fs.grid_field((ax, ax), W)
        A = fs.VectorField(2, lambda x: cellular.eval(x) + grid.eval(x), 1.1, 1.1)
        return V, A, calls

    @pytest.mark.parametrize("form", ["bare", "sum", "rebuilt"])
    def test_field_difference_integrates_a_alone(self, form):
        V, A, calls = self._fields()
        B = fs.builtin_field("cellular") if form == "rebuilt" else V
        fd = FieldDifferenceControl(A, B)
        u = SumControl((fd, ZeroControl())) if form == "sum" else fd
        settings = fs.IntegratorSettings(tol=1e-10, h_max=0.1)
        starts = np.array([[0.7, 1.1], [0.4, 0.5]])
        ref = fs.integrate(A, starts, 0.0, 4.0, settings)
        del calls[:]
        rows = fs.integrate_controlled(V, ControlSchedule((Segment(0.0, 4.0, u),), dim=2),
                                       starts, 0.0, 4.0, settings)
        assert calls == []
        assert all(_same(a, b) for a, b in zip(rows, ref))

    def test_other_base_keeps_the_difference(self):
        V, A, calls = self._fields()
        B = fs.builtin_field("shear")
        settings = fs.IntegratorSettings(tol=1e-10, h_max=0.1)
        summed = fs.VectorField(2, lambda x: V.eval(x) + (A.eval(x) - B.eval(x)), 2.0, 2.0)
        ref = fs.integrate(summed, [0.7, 1.1], 0.0, 4.0, settings)
        u = ControlSchedule((Segment(0.0, 4.0, FieldDifferenceControl(A, B)),), dim=2)
        assert _same(fs.integrate_controlled(V, u, [0.7, 1.1], 0.0, 4.0, settings), ref)
        assert calls


class TestScheduleSemantics:
    def test_value_has_left_closed_jump(self):
        alpha = np.array([1.0, 0.0])
        u = ControlSchedule((Segment(0.0, 1.0, ZeroControl()),
                             Segment(1.0, 2.0, ConstantControl(alpha))), 1.0, dim=2)
        # pointwise support: the constant segment owns (1, 2]
        assert np.all(u.value(1.0) == 0.0)
        assert np.all(u.value(1.0 + 1e-12) == alpha)
        assert np.all(u.value(2.0) == alpha)
        assert np.all(u.value(0.0) == 0.0)

    @staticmethod
    def _hops(bounds):
        """Segments alternating zero and constant, two per hop as in a plan."""
        alpha = np.array([1.0, 0.0])
        return ControlSchedule(tuple(
            Segment(a, b, ZeroControl() if i % 2 == 0 else ConstantControl(alpha))
            for i, (a, b) in enumerate(zip(bounds, bounds[1:]))), 1.0, dim=2)

    def test_values_match_linear_scan(self):
        bounds = np.cumsum(np.random.default_rng(0).uniform(0.01, 1.0, 40)).tolist()
        # a distinct constant per segment, so a value names its segment
        u = ControlSchedule(tuple(
            Segment(a, b, ConstantControl(np.array([i + 1.0, -(i + 1.0)])))
            for i, (a, b) in enumerate(zip(bounds, bounds[1:]))), 1.0, dim=2)
        segs = u.segments

        def scan(t):
            if t == segs[0].t0:
                return segs[0]
            return next(s for s in segs if s.t0 < t <= s.t1)

        mids = [(a + b) / 2.0 for a, b in zip(bounds, bounds[1:])]
        after = [float(np.nextafter(b, np.inf)) for b in bounds[:-1]]
        ts = bounds + mids + after
        want = np.stack([scan(t).u.alpha for t in ts])
        assert np.array_equal(u.values(ts, None), want)
        assert np.array_equal(u.values(ts, np.zeros((len(ts), 2))), want)
        for t, w in zip(ts, want):
            assert np.array_equal(u.value(t), w)

    def test_value_cost_does_not_grow_with_segments(self):
        # a plan has two segments per hop and its certificate samples
        # thousands of values, so a value must not rebuild per-segment state
        import timeit

        costs = []
        for n in (1024, 65536):
            u = self._hops(np.arange(n + 1, dtype=float).tolist())
            ts = np.random.default_rng(1).uniform(0.0, n, 500).tolist()
            u.value(ts[0])
            costs.append(min(timeit.repeat(lambda: [u.value(t) for t in ts],
                                           number=1, repeat=5)))
        assert costs[1] < 4.0 * costs[0]

    def test_values_equal_value_row_by_row(self, cellular):
        z = np.array([0.9, 1.0])
        steer = SteerControl(cellular, z, np.array([0.01, -0.02]), 3.5, 0.5,
                             np.array([0.8, 1.2]), cellular.eval(z))
        zero = ZeroControl()
        shear = FieldDifferenceControl(fs.builtin_field("shear"), cellular)
        u = ControlSchedule((
            Segment(0.0, 1.0, zero),
            Segment(1.0, 2.0, ConstantControl(np.array([0.05, -0.03]))),
            Segment(2.0, 3.0, shear),
            Segment(3.0, 3.5, SumControl((shear, steer))),
            Segment(3.5, 4.0, zero)), 0.1, dim=2)
        rng = np.random.default_rng(4)
        ts = np.concatenate([[0.0, 1.0, 2.0, 3.0, 3.5, 4.0], rng.uniform(0.0, 4.0, 300)])
        xs = rng.uniform(0.3, 1.3, (len(ts), 2))
        rows = np.stack([u.value(float(t), x) for t, x in zip(ts, xs)])
        assert np.array_equal(u.values(ts, xs), rows)
        with pytest.raises(fs.ScheduleError):
            u.values([4.5], xs[:1])
        # a zero segment takes its shape from the state, in any dimension
        zero3 = ControlSchedule((Segment(0.0, 1.0, ZeroControl()),), 0.0, dim=3)
        x3 = rng.uniform(0.3, 1.3, (4, 3))
        rows3 = np.stack([zero3.value(t, x) for t, x in zip([0.0, 0.25, 0.5, 1.0], x3)])
        assert np.array_equal(zero3.values([0.0, 0.25, 0.5, 1.0], x3), rows3)

    def test_shared_descriptors_are_values(self, cellular):
        # segments that share one descriptor object evaluate bitwise as
        # segments that each hold a copy of their own
        z = np.array([0.9, 1.0])
        steer = SteerControl(cellular, z, np.array([0.01, -0.02]), 3.5, 0.5,
                             np.array([0.8, 1.2]), cellular.eval(z))
        shear = FieldDifferenceControl(fs.builtin_field("shear"), cellular)
        coast, window = SumControl((shear, ZeroControl())), SumControl((shear, steer))
        bounds = [0.0, 1.0, 1.5, 2.5, 3.0, 4.0, 4.5]
        shared = ControlSchedule(tuple(
            Segment(a, b, coast if i % 2 == 0 else window)
            for i, (a, b) in enumerate(zip(bounds, bounds[1:]))), 0.1, dim=2)
        own = ControlSchedule(tuple(Segment(s.t0, s.t1, copy.copy(s.u))
                                    for s in shared.segments), 0.1, dim=2)
        assert len({id(s.u) for s in shared.segments}) == 2
        assert len({id(s.u) for s in own.segments}) == len(bounds) - 1
        rng = np.random.default_rng(8)
        ts = np.concatenate([bounds, rng.uniform(0.0, 4.5, 400)])
        xs = rng.uniform(0.3, 1.3, (len(ts), 2))
        assert np.array_equal(shared.values(ts, xs), own.values(ts, xs))

    def test_segments_must_be_contiguous(self):
        with pytest.raises(fs.ScheduleError):
            ControlSchedule((Segment(0.0, 1.0, ZeroControl()),
                             Segment(1.5, 2.0, ZeroControl())), 0.0, dim=2)

    def test_degenerate_segment_rejected(self):
        with pytest.raises(fs.ScheduleError):
            Segment(1.0, 1.0, ZeroControl())


class TestSupNorm:
    def test_constant_exact(self):
        u = ControlSchedule((Segment(0.0, 1.0, ConstantControl(np.array([3.0, 4.0]))),), 5.0,
                            dim=2)
        assert fs.sup_norm(u, 100) == pytest.approx(5.0, abs=1e-12)

    def test_zero_schedule(self):
        u = ControlSchedule((Segment(0.0, 2.0, ZeroControl()),), 0.0, dim=2)
        assert fs.sup_norm(u) == 0.0

    def test_samples_above_the_analytic_bound_count(self, cellular):
        # a field that declares a zero Lipschitz bound makes a steering
        # window's analytic bound |alpha|, so the samples decide the sup
        V = dataclasses.replace(cellular, lip_bound=0.0)
        z = np.array([0.7, 1.1])
        ctrl = SteerControl(V, z, np.array([0.01, -0.02]), 1.0, 0.5, z - 0.5 * V.eval(z),
                            V.eval(z))
        u = ControlSchedule((Segment(0.0, 0.5, ZeroControl()), Segment(0.5, 1.0, ctrl)), 0.0,
                            dim=2)
        ts = 0.5 + (np.arange(1, 201) / 200) * 0.5
        want = float(np.max(np.linalg.norm(ctrl.value(ts), axis=-1)))
        assert want > ctrl.analytic_sup()
        assert fs.sup_norm(u, 200) == want

    def test_empty_rejected(self):
        with pytest.raises(fs.ScheduleError):
            fs.sup_norm(ControlSchedule((), 0.0, dim=2))


class TestSerialization:
    def test_fields_named_in_first_appearance_order(self, cellular):
        shear, rotation = fs.builtin_field("shear"), fs.builtin_field("rotation")
        zero = fs.builtin_field("zero", dim=2)
        z = np.array([0.9, 1.0])
        steer = SteerControl(cellular, z, np.array([0.01, -0.02]), 2.0, 0.5,
                             np.array([0.8, 1.2]), cellular.eval(z))
        steer_zero = SteerControl(zero, z, np.array([0.01, 0.0]), 3.0, 0.5,
                                  np.array([0.8, 1.2]), zero.eval(z))
        u = ControlSchedule((
            Segment(0.0, 1.0, FieldDifferenceControl(shear, cellular)),
            Segment(1.0, 2.0, steer),
            Segment(2.0, 3.0, SumControl((FieldDifferenceControl(rotation, shear),
                                          steer_zero, ZeroControl())))), 0.1, dim=2)
        obj = u.to_json()
        assert list(obj["fields"].items()) == [
            ("f0", {"kind": "builtin", "name": "shear", "params": {}}),
            ("f1", {"kind": "builtin", "name": "cellular", "params": {"amplitude": 1.0}}),
            ("f2", {"kind": "builtin", "name": "rotation", "params": {"box_radius": 2.0}}),
            ("f3", {"kind": "builtin", "name": "zero", "params": {"dim": 2}}),
        ]
        fd, st, total = (s["params"] for s in obj["segments"])
        assert (fd["a"], fd["b"], st["field"]) == ("f0", "f1", "f1")
        diff, steer_part, nothing = (p["params"] for p in total["parts"])
        assert (diff["a"], diff["b"], steer_part["field"], nothing) == ("f2", "f0", "f3", {})

    def test_zero_constant_roundtrip_bit_exact(self):
        alpha = np.array([0.1234567890123456789, -np.pi])
        u = ControlSchedule((Segment(0.0, 1.0, ZeroControl()),
                             Segment(1.0, 2.5, ConstantControl(alpha))),
                            float(np.linalg.norm(alpha)), dim=2)
        js = u.to_json()
        back = ControlSchedule.from_json(js)
        assert jsonio.dumps(back.to_json()) == jsonio.dumps(js)
        assert np.array_equal(back.segments[1].u.alpha, alpha)

    def _difference_schedule(self, cellular):
        u = ControlSchedule((Segment(0.0, 1.0, ZeroControl()),
                             Segment(1.0, 2.0, FieldDifferenceControl(
                                 fs.builtin_field("shear"), cellular))), 0.0, dim=2)
        return u.to_json()

    def test_unknown_field_id_is_a_schedule_error(self, cellular):
        js = self._difference_schedule(cellular)
        js["segments"][1]["params"]["a"] = "f9"
        with pytest.raises(fs.ScheduleError, match="'f9'"):
            ControlSchedule.from_json(js)

    def test_segment_without_t0_is_a_schedule_error(self, cellular):
        js = self._difference_schedule(cellular)
        del js["segments"][1]["t0"]
        with pytest.raises(fs.ScheduleError, match="'t0'"):
            ControlSchedule.from_json(js)

    def test_to_json_packs_the_document(self, cellular):
        """``to_json`` is ``_document`` with the field table packed; the
        document's table holds the fields' own descriptors."""
        vt = fs.correct(cellular, 0.1, settings=fs.CorrectionSettings(
            box=fs.Box((-4.0, -4.0), (4.0, 4.0)), resolution=32, strict=False)).field
        u = ControlSchedule((Segment(0.0, 1.0, FieldDifferenceControl(vt, cellular, 0.1)),),
                            0.0, dim=2)
        doc = u._document()
        assert [d for d in doc["fields"].values()] == [vt.descriptor, cellular.descriptor]
        assert doc["fields"]["f0"] is vt.descriptor
        js = u.to_json()
        assert js == {**doc, "fields": {k: jsonio.packed(d) for k, d in doc["fields"].items()}}
        assert isinstance(js["fields"]["f0"]["coefs"]["data"], str)
        back = ControlSchedule.from_json(doc)
        assert jsonio.dumps(back.to_json()) == jsonio.dumps(js)

    def test_difference_without_a_hint_is_written(self, cellular):
        """Without a hint a field difference is bounded by its fields' sups,
        so its schedule goes through ``jsonio.dumps`` and back."""
        shear = fs.builtin_field("shear")
        fd = FieldDifferenceControl(shear, cellular)
        assert fd.sup_hint == shear.sup_bound + cellular.sup_bound
        u = ControlSchedule((Segment(0.0, 1.0, fd),), 0.0, dim=2)
        back = ControlSchedule.from_json(json.loads(jsonio.dumps(u.to_json())))
        assert back.segments[0].u.analytic_sup() == fd.analytic_sup() < np.inf

    def test_dim_is_stored_not_guessed(self):
        # a schedule of zero segments has no alpha or z to read a dimension
        # from; its values without a state still have the stored one
        u = ControlSchedule((Segment(0.0, 1.0, ZeroControl()),), 0.0, dim=3)
        assert u.value(0.5).shape == (3,)
        js = u.to_json()
        assert js["dim"] == 3
        back = ControlSchedule.from_json(js)
        assert back.dim == 3 and back.values([0.2, 0.7], None).shape == (2, 3)
        del js["dim"]
        with pytest.raises(fs.ScheduleError, match="dim"):
            ControlSchedule.from_json(js)

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
            fs.integrate(V, [1.0, 0.0], 0.0, 2.0)
        assert err.value.t is not None and err.value.t < 1.01
        assert err.value.state is not None

    def _failing_row(self, V, starts, t1s, settings):
        """The IntegrationError of a 3-row batch and of its row 1 alone, and
        the last time each row reached before the batch raised."""
        reached = {}

        def stop(rows, t, y, nodes):
            reached.update(zip(rows.tolist(), t.tolist()))
            return np.zeros(len(rows), dtype=bool)

        with pytest.raises(fs.IntegrationError) as batch:
            fs.integrate(V, starts, 0.0, t1s, settings, stop=stop)
        with pytest.raises(fs.IntegrationError) as solo:
            fs.integrate(V, starts[1], 0.0, t1s[1], settings)
        return batch.value, solo.value, reached

    @staticmethod
    def _as_solo(batch, solo):
        return (str(batch) == str(solo) and batch.t == solo.t
                and np.array_equal(batch.state, solo.state))

    def test_underflow_names_its_row(self):
        # row 1 blows up at t = 1; rows 0 and 2 are still running then
        V = fs.expression_field(["x^2", "0"], region=fs.Box((0.0, -1), (3.0, 1)))
        starts = np.array([[0.05, 0.0], [1.0, 0.0], [0.1, 0.0]])
        t1s = [9.0, 2.0, 9.0]
        batch, solo, reached = self._failing_row(V, starts, t1s,
                                                 fs.IntegratorSettings(h_max=0.01))
        assert "underflow" in str(batch) and self._as_solo(batch, solo)
        assert reached[0] < t1s[0] and reached[2] < t1s[2]

    def test_step_limit_names_its_row(self, monkeypatch):
        # rows 1 and 2 stay on y = 0, where a step has no error, so they take
        # every step and reach the limit together, and the first of them is
        # named; row 0 rejects its first steps and is behind them.  The
        # module, not the function the package re-exports under its name
        monkeypatch.setattr(importlib.import_module("flowsteer.integrate"), "_MAX_STEPS", 10)
        V = fs.expression_field(["1", "0.5*y^2"])
        starts = np.array([[0.0, -2.0], [0.5, 0.0], [1.0, 0.0]])
        settings = fs.IntegratorSettings(tol=1e-10, h_init=1.0, h_max=1.0)
        batch, solo, reached = self._failing_row(V, starts, [100.0] * 3, settings)
        assert "step limit" in str(batch) and self._as_solo(batch, solo)
        assert batch.t == reached[1] == reached[2] == 10.0 and reached[0] < 10.0


    @staticmethod
    def _within(seconds, call):
        """``call()``, or a TimeoutError when it runs longer than ``seconds``:
        a stepper that never stops fails the test instead of hanging it."""
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")

        old = signal.signal(signal.SIGALRM, expire)
        signal.alarm(seconds)
        try:
            return call()
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)

    def test_nan_field_raises(self):
        V = fs.VectorField(2, lambda x: np.full(np.shape(x), np.nan), 1.0, 1.0)
        with pytest.raises(fs.IntegrationError, match="NaN") as err:
            self._within(5, lambda: fs.integrate(V, [0.0, 0.0], 0.0, 1.0))
        assert err.value.t == 0.0 and np.array_equal(err.value.state, [0.0, 0.0])

    def test_nan_step_names_its_row(self):
        # the field is NaN from x = 0.5 on, which row 1 reaches at t = 0.5
        # and rows 0 and 2 never reach
        def func(x):
            x = np.asarray(x, dtype=float)
            out = np.zeros_like(x)
            out[..., 0] = np.where(x[..., 0] < 0.5, 1.0, np.nan)
            return out

        V = fs.VectorField(2, func, 1.0, 0.0)
        starts = np.array([[-5.0, 0.0], [0.0, 0.0], [-6.0, 1.0]])
        batch, solo, reached = self._within(5, lambda: self._failing_row(
            V, starts, [2.0] * 3, fs.IntegratorSettings()))
        assert "NaN" in str(batch) and self._as_solo(batch, solo)
        assert batch.t < 0.5 and batch.state[0] < 0.5
        assert reached[0] > batch.t and reached[2] > batch.t


class TestLandings:
    def test_landing_is_the_row_norm_and_nan_misses(self):
        rng = np.random.default_rng(5)
        y = rng.standard_normal((400, 3)) * np.logspace(-3.0, 4.0, 400)[:, None]
        ends = y + rng.standard_normal(y.shape) * 1e-9 * np.logspace(-1.0, 1.0, 400)[:, None]
        ends[7] = np.nan
        landing, off = _landings(ends, y)
        want = np.array([np.linalg.norm(e - r) for e, r in zip(ends, y)])
        assert landing.tobytes() == want.tobytes()
        tol = _landing_tol(y)
        assert off.tolist() == [j for j in range(400) if not want[j] <= tol[j]]
        assert 7 in off.tolist() and 0 < len(off) < 400
        # a landing exactly at the tolerance is on
        y1 = np.array([[2.0, 0.0]])
        assert _landings(y1 + [[0.0, 2e-9]], y1)[1].size == 0

    def test_one_pair(self):
        y = np.array([3.0, 4.0])
        end = y + [1e-8, 0.0]
        landing, off = _landings(end, y)
        assert landing == np.linalg.norm(end - y) and off.tolist() == [0]
        assert _landings(y, y)[1].size == 0
        assert _landings([np.nan, 4.0], y)[1].tolist() == [0]


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
             Segment(2.0, 3.0, ZeroControl())), 0.3, dim=2)
        traj = fs.integrate_controlled(V, u, [0.0, 0.0], 1.5, 2.5)
        # half a unit under a2, then half a unit of nothing
        assert np.allclose(traj.states[-1], 0.5 * a2, atol=1e-12)
        mid = fs.integrate_controlled(V, u, [0.0, 0.0], 0.5, 2.0)
        assert np.allclose(mid.states[-1], 0.5 * a1 + 1.0 * a2, atol=1e-12)
        # one row starts on an edge, taking the later segment's formula, and
        # another ends on one, keeping the earlier formula up to it
        t0s, t1s = [1.0, 0.5], [1.5, 1.0]
        rows = fs.integrate_controlled(V, u, np.zeros((2, 2)), t0s, t1s)
        assert np.allclose(rows[0].states[-1], 0.5 * a2, atol=1e-12)
        assert np.allclose(rows[1].states[-1], 0.5 * a1, atol=1e-12)
        for a, b, row in zip(t0s, t1s, rows):
            assert row.t0 == a and row.t1 == b
            assert _same(row, fs.integrate_controlled(V, u, [0.0, 0.0], a, b))


def _counted(V):
    """V with a list that grows by one per evaluation call."""
    calls = []

    def func(x):
        calls.append(1)
        return V.func(x)

    return dataclasses.replace(V, func=func), calls


_HIGH = fs.IntegratorSettings(tol=1e-10)


class TestDOP853:
    """The stepper of solves without a step cap, and its dense output."""

    def test_tableau_matches_scipy(self):
        # scipy's table is a test oracle only; the stepper writes its own
        ref = importlib.import_module("scipy.integrate._ivp.dop853_coefficients")
        integ = importlib.import_module("flowsteer.integrate")
        assert np.array_equal(integ._C, ref.C)
        assert np.array_equal(integ._A, ref.A)
        assert np.array_equal(integ._B, ref.B)
        # both error estimates leave the derivative at the step's end out
        assert ref.E3[12] == ref.E5[12] == 0.0
        assert np.array_equal(integ._E3, ref.E3[:12])
        assert np.array_equal(integ._E5, ref.E5[:12])
        assert np.array_equal(integ._D, ref.D)

    def test_eighth_order_step(self, cellular):
        # one step of size H from x0, against a tight solve: the local error
        # falls like H^9
        x0 = np.array([0.7, 1.1])
        tight = fs.IntegratorSettings(tol=1e-14)
        loose = fs.IntegratorSettings(tol=1e3, h_init=1.0)

        def step_error(H):
            one = fs.integrate(cellular, x0, 0.0, H, loose)
            assert len(one.times) == 2
            return np.linalg.norm(one.states[-1] - fs.integrate(cellular, x0, 0.0, H,
                                                                tight).states[-1])

        e1, e2 = step_error(0.8), step_error(0.4)
        assert e1 / e2 > 2.0 ** 8

    def test_dense_output_is_seventh_order_accurate(self, cellular):
        traj = fs.integrate(cellular, [0.7, 1.1], 0.0, 20.0, _HIGH)
        ref = solve_ivp(lambda t, y: cellular.eval(y), (0.0, 20.0), [0.7, 1.1],
                        method="DOP853", rtol=1e-13, atol=1e-13, dense_output=True)
        ts = np.linspace(0.05, 19.95, 401)
        err = max(np.linalg.norm(traj.at(float(t)) - ref.sol(t)) for t in ts)
        hermite = fs.Trajectory(traj.times, traj.states, traj.d_left, traj.d_right)
        err3 = max(np.linalg.norm(hermite.at(float(t)) - ref.sol(t)) for t in ts)
        assert err < 1e-8 < 1e-3 * err3

    def test_extra_stages_only_for_steps_read(self, cellular):
        V, calls = _counted(cellular)
        traj = fs.integrate(V, [0.7, 1.1], 0.0, 10.0, _HIGH)
        n = len(calls)
        mid = 0.5 * (traj.times[3] + traj.times[4])
        first = traj.at(mid)
        assert len(calls) == n + 3
        assert np.array_equal(traj.at(mid), first)
        traj.at(0.25 * traj.times[3] + 0.75 * traj.times[4])
        assert len(calls) == n + 3

    def test_pieces_and_joins_keep_the_dense_output(self, cellular):
        traj = fs.integrate(cellular, [0.7, 1.1], 0.0, 8.0, _HIGH)
        m = len(traj.times) - 1
        joined = fs.Trajectory.join([traj.piece(0, 3), traj.piece(3, m - 2),
                                     traj.piece(m - 2, m)])
        ts = np.linspace(0.01, 7.99, 113)
        assert all(np.array_equal(joined.at(float(t)), traj.at(float(t))) for t in ts)

    def test_at_picks_the_block_of_the_reversed_scan(self, cellular):
        """``at`` bisects for the last dense block that starts by the
        interval: bitwise the reversed linear scan it replaces, on a join of
        DOP853 pieces and capped pieces, which read the cubic Hermite."""
        def scanned(traj, t):
            i = int(traj.times.searchsorted(t, side="right")) - 1
            h = traj.times[i + 1] - traj.times[i]
            x = (t - traj.times[i]) / h
            for first, store, entries in reversed(traj.dense):
                if i >= first:
                    if i - first < len(entries):
                        return np.dot(_basis(x),
                                      store.coeffs(int(entries[i - first])))
                    break
            return None

        free = fs.integrate(cellular, [0.7, 1.1], 0.0, 8.0, _HIGH)
        capped = fs.integrate(cellular, free.states[-1], 8.0, 9.0,
                              dataclasses.replace(_HIGH, h_max=0.05))
        m = len(free.times) - 1
        pieces = [free.piece(0, 3), free.piece(3, 4), free.piece(4, m - 2),
                  free.piece(m - 2, m), capped]
        joined = fs.Trajectory.join(pieces)
        joined = fs.Trajectory.join([joined, dataclasses.replace(
            free, times=free.times + 9.0)])
        assert len(joined.dense) == 5
        ts = np.random.default_rng(4).uniform(joined.t0, joined.t1, 400)
        hermite = 0
        for t in ts:
            want = scanned(joined, float(t))
            hermite += want is None
            if want is not None:
                assert np.array_equal(joined.at(float(t)), want)
        assert 0 < hermite < len(ts)

    def test_the_step_cap_picks_the_tableau(self, cellular):
        # six evaluations per step (FSAL) and the cubic Hermite under a cap,
        # twelve and DOP853's dense output without one, as by default
        loose = fs.IntegratorSettings(tol=1e3, h_init=0.05)
        for settings, per_step in ((dataclasses.replace(loose, h_max=0.05), 6), (loose, 12)):
            V, calls = _counted(cellular)
            traj = fs.integrate(V, [0.7, 1.1], 0.0, 2.0, settings)
            assert len(calls) == 1 + per_step * (len(traj.times) - 1)
            assert bool(traj.dense) == (per_step == 12)
        assert fs.integrate(cellular, [0.7, 1.1], 0.0, 2.0).dense

    def test_resolving_cap(self):
        # capped solves run Dormand-Prince 5(4), whose stage nodes are at
        # most half a step apart
        radius, speed = 3e-3, 1.7
        assert fs.IntegratorSettings().resolving(radius, speed).h_max == radius / (8 * speed)

    @pytest.mark.parametrize("name", ["cellular", "corrected"])
    def test_rows_equal_solo_integrations_bitwise(self, name):
        V = fs.builtin_field("cellular") if name == "cellular" else _corrected_cellular()
        starts = np.random.default_rng(3).uniform(0.3, 1.3, (5, 2))
        t0s, t1s = [0.0, 0.5, 1.3, -2.0, 0.0], [7.0, 7.0, 4.2, 0.25, 3.0]
        rows = fs.integrate(V, starts, t0s, t1s, _HIGH)
        for x0, a, b, row in zip(starts, t0s, t1s, rows):
            solo = fs.integrate(V, x0, a, b, _HIGH)
            assert _same(row, solo)
            ts = np.linspace(a, b, 37)
            assert all(np.array_equal(row.at(float(t)), solo.at(float(t))) for t in ts)


class TestOneRhsForm:
    """The stepper calls its right-hand side in one form, (n,) float times,
    (n, d) states and (n,) int interval indices, a lone row as a batch of
    one: in its steps and in the dense output's extra stages."""

    @pytest.fixture
    def seen(self, monkeypatch):
        integ = importlib.import_module("flowsteer.integrate")
        real = integ._adaptive_solve
        seen = []

        def solve(rhs, *args, **kw):
            def recorded(t, y, k):
                seen.append((t, y, k))
                return rhs(t, y, k)
            return real(recorded, *args, **kw)

        monkeypatch.setattr(integ, "_adaptive_solve", solve)
        return seen

    @staticmethod
    def _rows(seen, d=2):
        """The row count of every call, each checked for the one form."""
        rows = []
        for t, y, k in seen:
            assert isinstance(y, np.ndarray) and y.ndim == 2 and y.shape[1] == d
            n = len(y)
            assert isinstance(t, np.ndarray) and t.dtype == float and t.shape == (n,)
            assert isinstance(k, np.ndarray) and k.dtype.kind == "i" and k.shape == (n,)
            rows.append(n)
        return rows

    @pytest.mark.parametrize("capped", [False, True])
    def test_lone_start(self, cellular, seen, capped):
        settings = dataclasses.replace(_HIGH, h_max=0.05 if capped else np.inf)
        traj = fs.integrate(cellular, [0.7, 1.1], 0.0, 3.0, settings, edges=[1.0, 2.0])
        assert isinstance(traj, fs.Trajectory)
        u = ControlSchedule((Segment(0.0, 1.0, ZeroControl()),
                             Segment(1.0, 3.0, ConstantControl(np.array([0.01, 0.0])))),
                            dim=2)
        fs.integrate_controlled(cellular, u, [0.7, 1.1], 0.0, 3.0, settings)
        assert set(self._rows(seen)) == {1}

    def test_last_row_runs_alone(self, cellular, seen):
        starts = np.array([[0.7, 1.1], [0.4, 0.9], [1.2, 0.3]])
        rows = fs.integrate(cellular, starts, 0.0, [0.5, 1.5, 6.0], _HIGH)
        assert [r.t1 for r in rows] == [0.5, 1.5, 6.0]
        counts = self._rows(seen)
        assert counts[0] == 3 and counts[-1] == 1 and 2 in counts

    def test_dense_reads_between_nodes(self, cellular, seen):
        traj = fs.integrate(cellular, [0.7, 1.1], 0.0, 10.0, _HIGH)
        assert traj.dense
        seen.clear()
        for i in range(3, 7):
            traj.at(0.5 * (traj.times[i] + traj.times[i + 1]))
        # three extra stages a step read, each a batch of one
        assert self._rows(seen) == [1] * 12
