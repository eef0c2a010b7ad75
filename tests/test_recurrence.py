from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import flowsteer as fs
from flowsteer import recurrence
from flowsteer.sampling import Box


def refined_period_oracle(field, x0, guess_lo, guess_hi):
    """Closed-orbit period by fine integration and golden-section refinement."""
    settings = fs.IntegratorSettings(tol=1e-12, h_max=0.05)
    traj = fs.integrate(field, x0, 0.0, guess_hi, settings)
    gold = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = guess_lo, guess_hi

    def g(t):
        return float(np.linalg.norm(traj.at(t) - np.asarray(x0)))

    c = b - gold * (b - a)
    d = a + gold * (b - a)
    gc, gd = g(c), g(d)
    while b - a > 1e-12:
        if gc < gd:
            b, d, gd = d, c, gc
            c = b - gold * (b - a)
            gc = g(c)
        else:
            a, c, gc = c, d, gd
            d = a + gold * (b - a)
            gd = g(d)
    return (a + b) / 2.0


class TestFindPoissonStable:
    def test_rotation_returns_at_2pi(self, rotation):
        res = fs.find_poisson_stable(rotation, [1.0, 0.0], 0.1, 1e-6, 1.0, 10.0, seed=5)
        assert res.return_time == pytest.approx(2 * np.pi, abs=1e-6)
        assert res.return_error < 1e-6
        assert np.linalg.norm(res.point - [1.0, 0.0]) <= 0.1

    def test_cellular_period_matches_oracle(self, cellular):
        x0 = [np.pi / 2 + 0.3, np.pi / 2]
        period = refined_period_oracle(cellular, x0, 5.0, 9.0)
        res = fs.find_poisson_stable(cellular, x0, 0.05, 1e-4, 1.0, 20.0, seed=2,
                                     settings=fs.IntegratorSettings(tol=1e-10, h_max=0.1))
        assert res.return_time == pytest.approx(period, abs=1e-4)

    def test_constant_field_no_return(self, unit_constant):
        T_min, delta = 1.0, 0.1
        with pytest.raises(fs.NoReturnFound) as err:
            fs.find_poisson_stable(unit_constant, [0.0, 0.0], delta, 1e-3, T_min, 100.0)
        assert err.value.best_miss >= T_min * 1.0 - 2 * delta

    def test_result_revalidates_by_reintegration(self, rotation):
        res = fs.find_poisson_stable(rotation, [1.0, 0.0], 0.1, 1e-6, 1.0, 10.0, seed=5)
        traj = fs.integrate(rotation, res.point, 0.0, res.return_time)
        err = np.linalg.norm(traj.states[-1] - res.point)
        assert err <= res.return_error + 1e-9

    def test_deterministic_given_seed(self, rotation):
        a = fs.find_poisson_stable(rotation, [1.0, 0.0], 0.1, 1e-6, 1.0, 10.0, seed=7)
        b = fs.find_poisson_stable(rotation, [1.0, 0.0], 0.1, 1e-6, 1.0, 10.0, seed=7)
        assert np.array_equal(a.point, b.point) and a.return_time == b.return_time

    def test_validates_arguments(self, rotation):
        with pytest.raises(ValueError):
            fs.find_poisson_stable(rotation, [1, 0], -0.1, 1e-6, 1.0, 10.0)
        with pytest.raises(ValueError):
            fs.find_poisson_stable(rotation, [1, 0], 0.1, 1e-6, 10.0, 1.0)

    def test_json_shape(self, rotation):
        res = fs.find_poisson_stable(rotation, [1.0, 0.0], 0.1, 1e-6, 1.0, 10.0)
        js = res.to_json()
        assert set(js) == {"point", "T", "error"}


class TestStreamedRides:
    SETTINGS = fs.IntegratorSettings(tol=1e-10, h_max=0.1)

    def test_ride_matches_scan_of_a_long_chunk(self, cellular):
        # the ride ends at its first confirmed return with the (T, error) a
        # scan of a 50-unit integration of the same start gives
        x0 = [np.pi / 2 + 0.3, np.pi / 2]
        res = fs.find_poisson_stable(cellular, x0, 0.05, 1e-4, 1.0, 50.0, seed=2,
                                     settings=self.SETTINGS)
        ref = fs.integrate(cellular, res.point, 0.0, 50.0, self.SETTINGS)
        first = [t for t in fs.near_returns(ref, res.point, 1e-4) if t >= 1.0][0]
        assert res.return_time == first
        assert res.return_error == float(np.linalg.norm(ref.at(first) - res.point))

    def test_kept_trajectory_stops_near_the_return(self, cellular):
        res = fs.find_poisson_stable(cellular, [np.pi / 2 + 0.3, np.pi / 2], 0.05, 1e-4,
                                     1.0, 50.0, seed=2, settings=self.SETTINGS)
        traj = res.trajectory
        assert res.return_time <= traj.t1 <= res.return_time + 3 * self.SETTINGS.h_max
        assert np.array_equal(traj.states[0], res.point)

    def test_many_centers_equal_one_at_a_time(self, cellular):
        # (1.0, pi/2) returns at its first candidate, (0.15, pi/2) only at its
        # fourth (the orbit through the center takes longer than T_max), and
        # every orbit near the separatrix x = 0 misses the horizon
        centers = np.array([[1.0, np.pi / 2], [0.15, np.pi / 2], [0.02, np.pi / 2]])
        seeds = [0, 0, 3]
        args = (0.1, 1e-4, 1.0, 12.0, 6)
        many = fs.find_poisson_stable(cellular, centers, *args, seed=seeds,
                                      settings=self.SETTINGS)
        assert len(many) == 3
        cands = fs.sampling.ball_points(centers[1], 0.1, 6, 0)
        assert np.array_equal(many[1].point, cands[3])
        for c, s, got in zip(centers[:2], seeds, many):
            alone = fs.find_poisson_stable(cellular, c, *args, seed=s,
                                           settings=self.SETTINGS)
            assert np.array_equal(got.point, alone.point)
            assert (got.return_time, got.return_error) == (alone.return_time,
                                                           alone.return_error)
            assert np.array_equal(got.trajectory.states, alone.trajectory.states)
        with pytest.raises(fs.NoReturnFound) as err:
            fs.find_poisson_stable(cellular, centers[2], *args, seed=seeds[2],
                                   settings=self.SETTINGS)
        assert isinstance(many[2], fs.NoReturnFound)
        assert str(many[2]) == str(err.value)
        assert many[2].best_miss == err.value.best_miss
        assert np.array_equal(many[2].best_candidate, err.value.best_candidate)

    def test_return_unconfirmed_at_the_horizon(self, cellular):
        # T_max falls fewer than three nodes after the first return, so the
        # ride never confirms it; the horizon verdict still reports it
        x0 = [np.pi / 2 + 0.3, np.pi / 2]
        args = (0.05, 1e-4, 1.0)
        T = fs.find_poisson_stable(cellular, x0, *args, 50.0, seed=2,
                                   settings=self.SETTINGS).return_time
        T_max = float(T + 0.05)
        res = fs.find_poisson_stable(cellular, x0, *args, T_max, seed=2,
                                     settings=self.SETTINGS)
        times = res.trajectory.times
        before = int(np.searchsorted(times, res.return_time, side="right")) - 1
        assert times[-1] == T_max and len(times) - 1 - before < 3
        ref = fs.integrate(cellular, res.point, 0.0, T_max, self.SETTINGS)
        assert np.array_equal(ref.times, times)
        first = [t for t in fs.near_returns(ref, res.point, 1e-4) if t >= 1.0][0]
        assert res.return_time == first
        assert res.return_error == float(np.linalg.norm(ref.at(first) - res.point))

    def test_one_seed_per_center(self, cellular):
        with pytest.raises(ValueError):
            fs.find_poisson_stable(cellular, [[1.0, 1.0], [1.2, 1.0]], 0.1, 1e-4,
                                   1.0, 12.0, seed=[0])


class TestNearReturns:
    def test_rotation_multiples_of_2pi(self, rotation):
        traj = fs.integrate(rotation, [1.0, 0.0], 0.0, 20.0,
                            fs.IntegratorSettings(tol=1e-10, h_max=0.2))
        times = fs.near_returns(traj, [1.0, 0.0], 1e-5)
        assert len(times) == 3
        for k, t in enumerate(times, start=1):
            assert t == pytest.approx(2 * np.pi * k, abs=1e-5)

    def test_constant_field_empty(self, unit_constant):
        traj = fs.integrate(unit_constant, [0.0, 0.0], 0.0, 10.0)
        assert fs.near_returns(traj, [0.0, 0.0], 1e-3) == []

    def test_cellular_arithmetic_progression(self, cellular):
        x0 = [np.pi / 2 + 0.4, np.pi / 2]
        period = refined_period_oracle(cellular, x0, 5.0, 9.0)
        traj = fs.integrate(cellular, x0, 0.0, 3.5 * period,
                            fs.IntegratorSettings(tol=1e-11, h_max=0.1))
        times = fs.near_returns(traj, x0, 1e-4)
        assert len(times) == 3
        for k, t in enumerate(times, start=1):
            assert t == pytest.approx(k * period, abs=1e-4)

    def test_cellular_returns_at_natural_steps(self, cellular):
        # a solve without a cap runs DOP853, and the refinement reads its
        # seventh-order dense output between nodes about 0.3 apart
        x0 = [np.pi / 2 + 0.4, np.pi / 2]
        period = refined_period_oracle(cellular, x0, 5.0, 9.0)
        traj = fs.integrate(cellular, x0, 0.0, 3.5 * period,
                            fs.IntegratorSettings(tol=1e-11))
        assert np.median(np.diff(traj.times)) > 0.2
        times = fs.near_returns(traj, x0, 1e-4)
        assert len(times) == 3
        for k, t in enumerate(times, start=1):
            assert t == pytest.approx(k * period, abs=1e-6)

    def test_dense_output_bows_within_a_quarter_chord(self, cellular):
        # the single-step scan's bound on how far a step's path leaves its
        # chord, checked on DOP853's long steps
        traj = fs.integrate(cellular, [0.7, 1.1], 0.0, 20.0,
                            fs.IntegratorSettings(tol=1e-10))
        xs = np.linspace(0.0, 1.0, 33)[1:-1]
        worst = 0.0
        for i in range(len(traj.times) - 1):
            a, u = traj.states[i], traj.states[i + 1] - traj.states[i]
            h = traj.times[i + 1] - traj.times[i]
            w = np.array([traj.at(float(traj.times[i] + x * h)) for x in xs]) - a
            s = np.clip(w @ u / (u @ u), 0.0, 1.0)
            bow = np.max(np.linalg.norm(w - s[:, None] * u, axis=1))
            worst = max(worst, bow / np.linalg.norm(u))
        assert worst < 0.25


class TestNonwanderingFraction:
    def test_rotation_all_return(self, rotation):
        frac = fs.nonwandering_fraction(rotation, Box((-1, -1), (1, 1)), 20, 1e-3,
                                        10.0, seed=3)
        assert frac == 1.0

    def test_constant_none_return(self, unit_constant):
        frac = fs.nonwandering_fraction(unit_constant, Box((-1, -1), (1, 1)), 10,
                                        1e-3, 10.0, seed=3)
        assert frac == 0.0

    def test_minimum_bracketed_at_the_horizon_counts(self, rotation):
        # every orbit is back at 2 pi, inside its last step, and no node
        # lies in its ball: each row's only minimum has a bracket ending at
        # the horizon (DOP853's steps are long, so the horizon sits within
        # a few 1e-4 of 2 pi for the last step to straddle it)
        box, settings = Box((-1, -1), (1, 1)), fs.IntegratorSettings(tol=1e-8)
        T_max = 2 * np.pi + 2e-4
        pts = box.uniform(20, 3)
        for x, ride in zip(pts, fs.integrate(rotation, pts, 0.0, T_max, settings)):
            assert ride.times[-2] < 2 * np.pi
            assert np.min(np.linalg.norm(ride.states[1:] - x, axis=1)) > 1e-5
        assert fs.nonwandering_fraction(rotation, box, 20, 1e-5, T_max, seed=3) == 1.0
        assert fs.nonwandering_fraction(rotation, box, 20, 1e-5, 2 * np.pi - 1e-3,
                                        seed=3) == 0.0

    def test_deterministic(self, cellular):
        box = Box((0.5, 0.5), (2.5, 2.5))
        a = fs.nonwandering_fraction(cellular, box, 8, 1e-2, 30.0, seed=11)
        b = fs.nonwandering_fraction(cellular, box, 8, 1e-2, 30.0, seed=11)
        assert a == b
        assert a >= 0.9  # interior cellular orbits are closed


class TestStopTest:
    def test_check_runs_only_on_due_rows(self, cellular, monkeypatch):
        # a row is due when near, when its pending return is confirmable or
        # at its span end; the conditions are re-derived here from each
        # node, before the stop test updates its state
        radius, T_min, T_max = 1e-4, 1.0, 12.0
        log = {"rows": 0, "checks": 0}

        class Counted(recurrence._FirstReturn):
            def __call__(self, rows, t, y, nodes):
                dist = np.linalg.norm(y - self.starts[rows], axis=1)
                chord = np.linalg.norm(y - self.prev_y[rows], axis=1)
                near = (t >= T_min) & (np.minimum(self.prev_d[rows], dist)
                                       <= radius + np.maximum(self.prev_chord[rows], chord))
                pending = self.count[rows] + 1 >= self.wait[rows]
                self.due = set(rows[near | pending | (t == T_max)].tolist())
                log["rows"] += len(rows)
                return super().__call__(rows, t, y, nodes)

            def check(self, row, end, nodes):
                assert row in self.due
                log["checks"] += 1
                return super().check(row, end, nodes)

        centers = np.array([[1.0, np.pi / 2], [0.15, np.pi / 2], [0.02, np.pi / 2]])
        args = (centers, 0.1, radius, T_min, T_max, 6)
        kw = dict(seed=[0, 0, 3], settings=TestStreamedRides.SETTINGS)
        plain = fs.find_poisson_stable(cellular, *args, **kw)
        monkeypatch.setattr(recurrence, "_FirstReturn", Counted)
        counted = fs.find_poisson_stable(cellular, *args, **kw)
        assert 0 < log["checks"] < log["rows"] / 20
        assert str(counted[2]) == str(plain[2])
        for a, b in zip(counted[:2], plain[:2]):
            assert (a.return_time, a.return_error) == (b.return_time, b.return_error)


class TestRefineOnce:
    def test_a_ride_refines_each_bracket_and_step_once(self, cellular, monkeypatch):
        # a ride is checked when near its return and again to confirm it,
        # each time on a freshly gathered trajectory: the second check reuses
        # the brackets the first refined, and both read the steps' dense
        # output from the solve's one store
        from flowsteer.integrate import _Nodes

        searches, checks, read, stage_evals = [], [0], {}, [0]
        reading = [False]

        def func(x):
            stage_evals[0] += reading[0]
            return cellular.func(x)

        V = dataclasses.replace(cellular, func=func)
        golden, local_minima, coeffs = (recurrence.golden_min, recurrence._local_minima,
                                        _Nodes.coeffs)

        def search(g, lo, hi, tol):
            searches.append((lo, hi))
            return golden(g, lo, hi, tol)

        def minima(*args):
            checks[0] += 1
            return local_minima(*args)

        def dense(self, e):
            read.setdefault((id(self), e), self)  # keeps the log, so its id stays unique
            reading[0] = True
            try:
                return coeffs(self, e)
            finally:
                reading[0] = False

        centers = np.array([[1.0, np.pi / 2], [0.15, np.pi / 2], [0.6, 1.2]])
        args = (centers, 0.1, 1e-4, 1.0, 12.0, 6)
        kw = dict(seed=[0, 0, 3], settings=fs.IntegratorSettings(tol=1e-10))
        plain = fs.find_poisson_stable(V, *args, **kw)
        monkeypatch.setattr(recurrence, "golden_min", search)
        monkeypatch.setattr(recurrence, "_local_minima", minima)
        monkeypatch.setattr(_Nodes, "coeffs", dense)
        counted = fs.find_poisson_stable(V, *args, **kw)
        for a, b in zip(counted, plain):
            assert (a.return_time, a.return_error) == (b.return_time, b.return_error)
        assert checks[0] > 2 * len(centers)
        assert searches and len(set(searches)) == len(searches)
        assert read and stage_evals[0] == 3 * len(read)


class TestValidation:
    def test_near_returns_radius_positive(self, rotation):
        traj = fs.integrate(rotation, [1.0, 0.0], 0.0, 1.0)
        with pytest.raises(ValueError):
            fs.near_returns(traj, [1.0, 0.0], 0.0)
