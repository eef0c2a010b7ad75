from __future__ import annotations

import numpy as np
import pytest

import flowsteer as fs
from flowsteer.sampling import Box


def refined_period_oracle(field, x0, guess_lo, guess_hi):
    """Closed-orbit period by fine integration and golden-section refinement."""
    settings = fs.IntegratorSettings(rtol=1e-12, atol=1e-12, h_max=0.05)
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
                                     settings=fs.IntegratorSettings(rtol=1e-10, atol=1e-10, h_max=0.1))
        assert res.return_time == pytest.approx(period, abs=1e-4)

    def test_constant_field_no_return(self, unit_constant):
        T_min, delta = 1.0, 0.1
        with pytest.raises(fs.NoReturnFound) as err:
            fs.find_poisson_stable(unit_constant, [0.0, 0.0], delta, 1e-3, T_min, 100.0)
        assert err.value.best_miss >= T_min * 1.0 - 2 * delta

    def test_backward_agrees_with_forward_on_rotation(self, rotation):
        fwd = fs.find_poisson_stable(rotation, [0.5, 0.5], 0.05, 1e-6, 1.0, 10.0, seed=1)
        bwd = fs.find_poisson_stable(rotation, [0.5, 0.5], 0.05, 1e-6, 1.0, 10.0, seed=1,
                                     direction="backward")
        assert bwd.direction == "backward"
        assert bwd.return_time == pytest.approx(fwd.return_time, abs=1e-6)

    def test_result_revalidates_by_reintegration(self, rotation):
        res = fs.find_poisson_stable(rotation, [1.0, 0.0], 0.1, 1e-6, 1.0, 10.0, seed=5)
        traj = fs.integrate(rotation, res.point, 0.0, res.return_time)
        err = np.linalg.norm(traj.states[-1] - res.point)
        assert err <= res.return_error + 2 * traj.tol_budget + 1e-9

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
        assert set(js) == {"point", "T", "error", "direction"}


class TestStreamedRides:
    SETTINGS = fs.IntegratorSettings(rtol=1e-10, atol=1e-10, h_max=0.1)

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
                                     1.0, 50.0, seed=2, settings=self.SETTINGS,
                                     keep_trajectory=True)
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
                                      settings=self.SETTINGS, keep_trajectory=True)
        assert len(many) == 3
        cands = fs.sampling.ball_points(centers[1], 0.1, 6, 0)
        assert np.array_equal(many[1].point, cands[3])
        for c, s, got in zip(centers[:2], seeds, many):
            alone = fs.find_poisson_stable(cellular, c, *args, seed=s,
                                           settings=self.SETTINGS, keep_trajectory=True)
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

    def test_one_seed_per_center(self, cellular):
        with pytest.raises(ValueError):
            fs.find_poisson_stable(cellular, [[1.0, 1.0], [1.2, 1.0]], 0.1, 1e-4,
                                   1.0, 12.0, seed=[0])


class TestNearReturns:
    def test_rotation_multiples_of_2pi(self, rotation):
        traj = fs.integrate(rotation, [1.0, 0.0], 0.0, 20.0,
                            fs.IntegratorSettings(rtol=1e-10, atol=1e-10, h_max=0.2))
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
                            fs.IntegratorSettings(rtol=1e-11, atol=1e-11, h_max=0.1))
        times = fs.near_returns(traj, x0, 1e-4)
        assert len(times) == 3
        for k, t in enumerate(times, start=1):
            assert t == pytest.approx(k * period, abs=1e-4)


class TestNonwanderingFraction:
    def test_rotation_all_return(self, rotation):
        frac = fs.nonwandering_fraction(rotation, Box((-1, -1), (1, 1)), 20, 1e-3,
                                        10.0, seed=3)
        assert frac == 1.0

    def test_constant_none_return(self, unit_constant):
        frac = fs.nonwandering_fraction(unit_constant, Box((-1, -1), (1, 1)), 10,
                                        1e-3, 10.0, seed=3)
        assert frac == 0.0

    def test_deterministic(self, cellular):
        box = Box((0.5, 0.5), (2.5, 2.5))
        a = fs.nonwandering_fraction(cellular, box, 8, 1e-2, 30.0, seed=11)
        b = fs.nonwandering_fraction(cellular, box, 8, 1e-2, 30.0, seed=11)
        assert a == b
        assert a >= 0.9  # interior cellular orbits are closed


class TestValidation:
    def test_near_returns_radius_positive(self, rotation):
        traj = fs.integrate(rotation, [1.0, 0.0], 0.0, 1.0)
        with pytest.raises(ValueError):
            fs.near_returns(traj, [1.0, 0.0], 0.0)
