from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import flowsteer as fs
from flowsteer.deform import FieldStats, bump_constants, c0_deviation_bound
from flowsteer.integrate import Trajectory
from flowsteer.sampling import Box, ball_points
from flowsteer import deform, recurrence, torus
from flowsteer.recurrence import _wrap
from flowsteer.torus import (_closest_approach_scan, torus_delta, torus_distance,
                             wrap_point)

angles = st.floats(-20.0, 20.0)


class TestWrapMetric:
    def test_canonical_representative(self):
        assert np.allclose(wrap_point([2 * np.pi + 0.5, -0.5]),
                           [0.5, 2 * np.pi - 0.5])

    @settings(max_examples=50, deadline=None)
    @given(angles, angles, angles, angles)
    def test_symmetry(self, a1, a2, b1, b2):
        a, b = np.array([a1, a2]), np.array([b1, b2])
        assert torus_distance(a, b) == pytest.approx(torus_distance(b, a), abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(angles, angles, angles, angles, angles, angles)
    def test_triangle_inequality(self, a1, a2, b1, b2, c1, c2):
        a, b, c = np.array([a1, a2]), np.array([b1, b2]), np.array([c1, c2])
        assert torus_distance(a, c) <= (torus_distance(a, b)
                                        + torus_distance(b, c) + 1e-9)

    def test_wrap_invariance(self):
        a = np.array([0.1, 6.0])
        b = np.array([6.2, 0.1])
        assert torus_distance(a, b) == pytest.approx(
            torus_distance(a + 2 * np.pi, b - 4 * np.pi), abs=1e-9)

    def test_componentwise_range(self):
        d = torus_delta([0.1, 0.1], [6.2, 6.2])
        assert np.all(d >= -np.pi) and np.all(d < np.pi)

    def test_tiny_negative_wraps_to_zero(self):
        # np.mod rounds each of these up to 2 pi itself, outside [0, 2 pi);
        # -0.0 gives +0.0
        x = np.array([-1e-17, -1e-300, -4e-16, -0.0])
        assert np.all(np.mod(x[:3], 2 * np.pi) == 2 * np.pi)
        assert wrap_point(x).tobytes() == np.zeros(4).tobytes()
        assert np.all(np.mod(x[:2], 1.0) == 1.0)
        assert wrap_point(x[:2], 1.0).tobytes() == np.zeros(2).tobytes()
        # every other value keeps np.mod's bits
        y = np.concatenate([np.random.default_rng(0).uniform(-50.0, 50.0, 2000),
                            [2 * np.pi, -2 * np.pi, 4e-16, np.nextafter(2 * np.pi, 0.0)]])
        m = np.mod(y, 2 * np.pi)
        w = wrap_point(y)
        assert np.all((w >= 0.0) & (w < 2 * np.pi))
        assert w[m < 2 * np.pi].tobytes() == m[m < 2 * np.pi].tobytes()


class TestFindTransit:
    def test_exact_hit_on_own_orbit(self):
        V = fs.builtin_field("winding", velocity=[1.0, np.sqrt(2.0)])
        p = np.array([0.2, 0.4])
        t_true = 7.3
        q = wrap_point(p + t_true * np.array([1.0, np.sqrt(2.0)]))
        res = fs.find_transit(V, p, q, delta=0.126, T_max=100.0, n_starts=4)
        assert res.T == pytest.approx(t_true, abs=1e-6)
        assert torus_distance(res.x1, p) < 1e-12

    def test_irrational_winding_dense(self):
        # delta^3/2 = 1e-3: density reaches the ball, though the first
        # qualifying approach for this (p, q) pair lies past t = 1e4
        V = fs.builtin_field("winding", velocity=[1.0, np.sqrt(2.0)])
        delta = (2e-3) ** (1.0 / 3.0)
        res = fs.find_transit(V, [0.0, 0.0], [np.pi, np.pi], delta,
                              T_max=2e4, n_starts=8)
        assert res.T <= 2e4
        assert torus_distance(res.x2, [np.pi, np.pi]) <= delta ** 3 / 2

    def test_rational_winding_fails_off_orbit(self):
        V = fs.builtin_field("winding", velocity=[1.0, 1.0])
        with pytest.raises(fs.NoTransitFound) as err:
            fs.find_transit(V, [0.0, 0.0], [np.pi, 0.0], delta=0.126,
                            T_max=200.0, n_starts=4)
        assert err.value.closest > 0.1  # diagonal orbit stays far from (pi, 0)

    @pytest.mark.parametrize("case", [
        # winding, hit by the first start (its exact line passes within the
        # target ball near t = 91)
        ("winding", [0.0, 0.0], [3.0, 3.0], 0.3, 2e3, 16, 4, True),
        # cellular (bent: h_max 1), rows of different step counts, no hit
        ("cellular", [0.3, 0.2], [2.0, 2.5], 0.2, 40.0, 5, 1, None),
        # winding, hit by a later start (the exact lines of the first two
        # stay 4.2e-3 and 6.6e-3 from q, outside the 4e-3 ball, to T_max)
        ("winding", [0.0, 0.0], [3.0, 3.0], 0.2, 2e3, 16, 4, False),
    ])
    def test_batched_starts_equal_serial_rides(self, case):
        name, p, q, delta, T_max, n_starts, seed, first_hits = case
        V = (fs.builtin_field(name, velocity=[1.0, np.sqrt(2.0)]) if name == "winding"
             else fs.builtin_field(name))
        settings = torus._default_settings(V)
        r = delta ** 3 / 2.0
        want, best = None, (np.inf, None, None)
        for x1 in ball_points(wrap_point(p), r, n_starts, seed):
            traj = fs.integrate(V, x1, 0.0, T_max, settings)
            t, d = _closest_approach_scan(traj, wrap_point(q), 2 * np.pi, 1e-9,
                                          deform._chord_bow(settings.h_max, V), accept=r)
            if d <= r:
                want = (x1, traj.at(t), t, traj)
                break
            best = min(best, (d, t, x1), key=lambda b: b[0])
        if want is None:
            with pytest.raises(fs.NoTransitFound) as err:
                fs.find_transit(V, p, q, delta, T_max, n_starts, seed)
            assert (err.value.closest, err.value.at_time) == best[:2]
            assert np.array_equal(err.value.from_start, best[2])
            return
        got = fs.find_transit(V, p, q, delta, T_max, n_starts, seed)
        first = ball_points(wrap_point(p), r, n_starts, seed)[0]
        assert np.array_equal(want[0], first) == first_hits
        assert np.array_equal(got.x1, wrap_point(want[0]))
        assert np.array_equal(got.x2, wrap_point(want[1]))
        assert got.T == want[2]
        assert np.array_equal(got.trajectory.times, want[3].times)
        assert np.array_equal(got.trajectory.states, want[3].states)

    def test_deterministic(self):
        V = fs.builtin_field("winding", velocity=[1.0, np.sqrt(2.0)])
        a = fs.find_transit(V, [0.0, 0.0], [3.0, 3.0], 0.3, T_max=2e3, seed=4)
        b = fs.find_transit(V, [0.0, 0.0], [3.0, 3.0], 0.3, T_max=2e3, seed=4)
        assert a.T == b.T and np.array_equal(a.x1, b.x1)


def _fixture_connect():
    """The benchmark's torus fixture: (0, 0) to (pi, pi) on the winding field."""
    V = fs.builtin_field("winding", velocity=[1.0, np.sqrt(2.0)])
    budgets = fs.ConnectBudgets(T_max=6e3, n_starts=6, need_c1=False, seed=0)
    return V, np.array([np.pi, np.pi]), budgets


@pytest.fixture(scope="module")
def connected():
    V, q, budgets = _fixture_connect()
    field, traj, cert = fs.connect(V, [0.0, 0.0], q, 0.4, budgets)
    return V, field, traj, cert


class TestLongStepPolish:
    def test_finds_a_short_transit_off_the_orbit(self):
        """q sits 3e-3 off the winding orbit of p at t = 12; three of the
        eight starts pass within the 2.25e-3 target ball near t = 12."""
        c = np.array([1.0, np.sqrt(2.0)])
        V = fs.builtin_field("winding", velocity=c)
        q = wrap_point(12.0 * c + 3e-3 * np.array([-c[1], c[0]]) / np.sqrt(3.0))
        delta = (4.5e-3) ** (1.0 / 3.0)
        res = fs.find_transit(V, [0.0, 0.0], q, delta, T_max=50.0, n_starts=8)
        assert res.T == pytest.approx(12.0, abs=0.1)
        assert torus_distance(res.x2, q) <= delta ** 3 / 2


class TestConnect:

    def test_trajectory_passes_target(self, connected):
        V, field, traj, cert = connected
        assert cert["hit_error"] < 1e-6

    def test_starts_at_p(self, connected):
        V, field, traj, cert = connected
        assert torus_distance(traj.states[0], [0.0, 0.0]) < 1e-12

    def test_support_bitwise(self, connected, rng):
        V, field, traj, cert = connected
        x1, x2 = np.array(cert["x1"]), np.array(cert["x2"])
        dd = cert["delta"]
        checked = 0
        for z in rng.uniform(0, 2 * np.pi, (400, 2)):
            if (torus_distance(z, x1) > 2 * dd and torus_distance(z, x2) > 2 * dd):
                assert np.array_equal(field.eval(z), V.eval(z))
                checked += 1
        assert checked > 300

    def test_sup_deviation_within_budget(self, connected, rng):
        V, field, traj, cert = connected
        pts = rng.uniform(0, 2 * np.pi, (800, 2))
        dev = max(np.linalg.norm(field.eval(z) - V.eval(z)) for z in pts)
        assert dev < 0.4

    def test_glued_path_matches_transit_between_balls(self, connected):
        V, field, traj, cert = connected
        # between the surgeries the connecting path rides the original flow:
        # velocity along it equals V exactly away from both balls
        x1, x2 = np.array(cert["x1"]), np.array(cert["x2"])
        dd = cert["delta"]
        T = cert["T_transit"]
        for t in np.linspace(1.0, T - 1.0, 50):
            z = traj.at(float(t))
            if (torus_distance(z, x1) > 2.5 * dd and torus_distance(z, x2) > 2.5 * dd):
                assert np.array_equal(field.eval(z), V.eval(z))

    def test_declared_bounds_dominate_samples_near_balls(self, connected):
        V, field, traj, cert = connected
        # the balls are disjoint, so the bounds are those of one ball's
        # pushforward, not the product of two
        c, dd = bump_constants(), cert["delta"]
        gs2 = c["grad_sup"] * dd ** 2
        lip = (V.lip_bound * (1 + gs2) / (1 - gs2)
               + V.sup_bound * c["hess_sup"] * dd / (1 - gs2) ** 2)
        sup = V.sup_bound + c0_deviation_bound(FieldStats(V.lip_bound, V.sup_bound), dd)
        assert field.lip_bound == pytest.approx(lip, rel=1e-12)
        assert field.sup_bound == pytest.approx(sup, rel=1e-12)
        r = 2.0 * cert["delta"]
        for c in ([0.0, 0.0], [np.pi, np.pi]):
            box = Box(tuple(np.subtract(c, r)), tuple(np.add(c, r)))
            sup_est, lip_est = fs.estimate_norms(field, box, 4000, seed=0)
            assert sup_est <= field.sup_bound
            assert lip_est <= field.lip_bound

    def test_descriptor_rebuilds_field_bitwise(self, connected, rng):
        V, field, traj, cert = connected
        rebuilt = fs.build_field(field.descriptor)
        r = 2.0 * cert["delta"]
        inside = np.concatenate([wrap_point(ball_points(c, 0.99 * r, 200, seed=1))
                                 for c in (cert["x1"], cert["x2"])])
        away = rng.uniform(0, 2 * np.pi, (200, 2))
        # the surgery is live inside the balls, so the comparison is not vacuous
        assert not np.array_equal(field.eval(inside), V.eval(inside))
        for pts in (inside, away):
            assert np.array_equal(rebuilt.eval(pts), field.eval(pts))
            for z in pts[:50]:
                assert np.array_equal(rebuilt.eval(z), field.eval(z))

    def test_support_overlap_detected(self):
        # p and q so close that the two balls cannot be separated
        V = fs.builtin_field("winding", velocity=[1.0, np.sqrt(2.0)])
        with pytest.raises((fs.SupportOverlap, fs.NoTransitFound)):
            fs.connect(V, [0.0, 0.0], [1e-4, 1e-4], 0.4,
                       fs.ConnectBudgets(T_max=500.0, n_starts=4, need_c1=False))

    @pytest.mark.parametrize("seed", range(11, 16))
    def test_other_transit_seeds_hit_q(self, seed):
        V = fs.builtin_field("winding", velocity=[1.0, np.sqrt(2.0)])
        budgets = fs.ConnectBudgets(T_max=6e3, n_starts=6, need_c1=False, seed=seed)
        _, _, cert = fs.connect(V, [0.0, 0.0], [np.pi, np.pi], 0.4, budgets)
        assert cert["hit_error"] < 1e-6


def _short_connect():
    """A transit of T ~ 15 that needs both surgeries: q sits 3e-3 off p's orbit."""
    c = np.array([1.0, np.sqrt(2.0)])
    V = fs.builtin_field("winding", velocity=c)
    q = wrap_point(15.0 * c + 3e-3 * np.array([-c[1], c[0]]) / np.sqrt(3.0))
    budgets = fs.ConnectBudgets(T_max=50.0, n_starts=8, need_c1=False)
    return V, q, budgets


def _slow_winding():
    """The winding at speed 0.1, q 1.4e-4 off p's orbit at t = 100."""
    c = 0.1 * np.array([1.0, np.sqrt(2.0)])
    V = fs.builtin_field("winding", velocity=c)
    return V, wrap_point(100.0 * c + 1.4e-4 * np.array([-c[1], c[0]]) / np.linalg.norm(c))


class TestConnectWindows:
    def test_windows_match_serial_fine_integration(self):
        V, q, budgets = _short_connect()
        field, traj, cert = fs.connect(V, [0.0, 0.0], q, 0.4, budgets)
        T, dd = cert["T_transit"], cert["delta"]
        assert 10.0 < T < 50.0
        assert torus_distance(cert["x1"], [0.0, 0.0]) > 0.0
        assert torus_distance(cert["x2"], q) > 0.0
        # the glued field integrated serially from p under the windows' cap
        # and tolerance, over the whole span
        fine = fs.IntegratorSettings(tol=1e-11).resolving(dd, V.sup_bound)
        serial = fs.integrate(field, traj.states[0], 0.0, T + 2.0, fine)
        t_hit, d_hit = _closest_approach_scan(serial, q, 2 * np.pi, T - 2.0)
        assert abs(t_hit - cert["t_hit"]) < 1e-8
        assert abs(d_hit - cert["hit_error"]) < 1e-8

    def test_window_off_the_guide_trips_landing_gate(self, monkeypatch):
        from flowsteer import torus

        real = torus.pushforward_field

        def steered(V, maps):
            f = real(V, maps)
            return dataclasses.replace(f, func=lambda x: f.func(x) + 1e-6)

        monkeypatch.setattr(torus, "pushforward_field", steered)
        V, q, budgets = _short_connect()
        with pytest.raises(fs.BudgetExceeded, match="lands"):
            fs.connect(V, [0.0, 0.0], q, 0.4, budgets)

    def test_first_of_two_windows_off_the_guide_is_named(self, monkeypatch):
        """The fixture's second and third window rows both land off V's
        orbit, the third by far more: the one gate pass over the batch
        names the second, as a row-by-row loop would."""
        real, moved = deform.integrate, []

        def steered(F, x0, t0, t1, settings, stop=None, edges=()):
            rows = real(F, x0, t0, t1, settings, stop=stop, edges=edges)
            if not len(edges):  # the window batch, on the glued field
                rows[1].states[-1] += 1e-6
                rows[2].states[-1] += 1e-3
                moved.extend(rows[1:3])
            return rows

        monkeypatch.setattr(deform, "integrate", steered)
        V, q, budgets = _fixture_connect()
        with pytest.raises(fs.BudgetExceeded) as err:
            fs.connect(V, [0.0, 0.0], q, 0.4, budgets)
        row = moved[0]
        assert str(err.value).startswith(
            f"surgery window [{row.t0:.6g}, {row.t1:.6g}] lands 1.41e-06 ")

    def test_guide_is_cut_at_the_horizon(self, monkeypatch):
        """On the fixture the transit runs to T_max = 6000, but the chord
        scan reads its nodes only up to the first at or after T + 2."""
        real_transit, real_windows = torus.find_transit, torus._surgery_windows
        transits, guides = [], []

        def transit(*args, **kw):
            transits.append(real_transit(*args, **kw))
            return transits[-1]

        def windows(guide, *args, **kw):
            guides.append(guide)
            return real_windows(guide, *args, **kw)

        monkeypatch.setattr(torus, "find_transit", transit)
        monkeypatch.setattr(torus, "_surgery_windows", windows)
        V, q, budgets = _fixture_connect()
        fs.connect(V, [0.0, 0.0], q, 0.4, budgets)
        (tr,), guide = transits, guides[0]
        T, full = tr.T, tr.trajectory
        i = int(np.searchsorted(full.times, T + 2.0))
        assert full.t1 > T + 100.0
        assert guide.times[-2] < T + 2.0 <= guide.t1
        assert np.array_equal(guide.times, full.times[:i + 1])
        assert np.array_equal(guide.states, full.states[:i + 1])

    def test_guide_shorter_than_horizon(self):
        """A transit within 2 of T_max: the connecting orbit runs past the
        guide's last node to T + 2 and still hits q."""
        V, q, budgets = _short_connect()
        budgets = dataclasses.replace(budgets, T_max=14.9996 + 0.5)
        field, traj, cert = fs.connect(V, [0.0, 0.0], q, 0.4, budgets)
        assert budgets.T_max < cert["T_transit"] + 2.0
        assert traj.t1 == cert["T_transit"] + 2.0
        assert cert["hit_error"] < 1e-6

    def test_transit_near_the_guide_end(self):
        """A transit 0.05 before T_max, where V's orbit is still inside
        B_2delta(x2): the orbit runs on past the guide's end, and the window
        through x2's ball ends outside it."""
        V, q, budgets = _short_connect()
        budgets = dataclasses.replace(budgets, T_max=14.9996 + 0.05)
        field, traj, cert = fs.connect(V, [0.0, 0.0], q, 0.4, budgets)
        assert budgets.T_max < cert["T_transit"] + 0.1
        assert traj.t1 == cert["T_transit"] + 2.0
        assert torus_distance(traj.states[-1], cert["x2"]) > 2.0 * cert["delta"]
        assert cert["hit_error"] < 1e-6

    @pytest.mark.parametrize("T_max", [150.0, 100.05])
    def test_slow_crossing_extends_the_horizon(self, T_max):
        """At winding speed 0.1 the orbit takes about 5.4 time units to cross
        out of B_2.2delta(x2), longer than T + 2 allows: the horizon runs to
        the end of that window, outside the support.  With T_max just past
        the transit the orbit is run on twice: to T + 2, then past the
        window's end."""
        V, q = _slow_winding()
        budgets = fs.ConnectBudgets(T_max=T_max, n_starts=8, need_c1=False)
        field, traj, cert = fs.connect(V, [0.0, 0.0], q, 0.4, budgets)
        assert traj.t1 > cert["T_transit"] + 2.0
        assert torus_distance(traj.states[-1], cert["x2"]) > 2.0 * cert["delta"]
        assert cert["hit_error"] < 1e-6

    def test_orbit_left_in_a_ball_raises(self, monkeypatch):
        """One run-on that leaves V's orbit inside x2's ball raises."""
        monkeypatch.setattr(torus, "_EXTEND_ATTEMPTS", 1)
        V, q = _slow_winding()
        budgets = fs.ConnectBudgets(T_max=100.05, n_starts=8, need_c1=False)
        with pytest.raises(fs.BudgetExceeded, match="stays in a surgery ball"):
            fs.connect(V, [0.0, 0.0], q, 0.4, budgets)

    def test_guide_step_off_the_guide_trips_landing_gate(self, monkeypatch):
        real = deform.integrate

        def steered(V, x0, t0, t1, settings, stop=None, edges=()):
            off = (dataclasses.replace(V, func=lambda x: V.func(x) + 1e-6) if len(edges)
                   else V)
            return real(off, x0, t0, t1, settings, stop=stop, edges=edges)

        monkeypatch.setattr(deform, "integrate", steered)
        V, q, budgets = _short_connect()
        with pytest.raises(fs.BudgetExceeded, match="guide step .* lands"):
            fs.connect(V, [0.0, 0.0], q, 0.4, budgets)


def _curved_connect():
    """A bent winding, x' = 1 + sin(y)/5 and y' = sqrt 2, minimal on the torus:
    its steps are capped at 1, so most of them pass neither ball.  q sits
    3e-3 off p's orbit at t = 15."""
    V = fs.expression_field(["1 + 0.2*sin(y)", "1.4142135623730951"], sup_bound=1.86,
                            lip_bound=0.2)
    z = fs.integrate(V, np.zeros(2), 0.0, 15.0,
                     fs.IntegratorSettings(tol=1e-13)).states[-1]
    v = V.eval(z)
    q = wrap_point(z + 3e-3 * np.array([-v[1], v[0]]) / np.linalg.norm(v))
    return V, q, fs.ConnectBudgets(T_max=50.0, n_starts=8, need_c1=False)


@pytest.fixture(scope="module", params=[_fixture_connect, _curved_connect])
def recorded(request):
    """A connect from (0, 0), with its stepper calls, its transit and its
    surgery windows recorded."""
    V, q, budgets = request.param()
    out = {"calls": []}

    def spy(name, keep, module=torus):
        real = getattr(module, name)

        def call(*args, **kw):
            result = real(*args, **kw)
            keep(args, kw, result)
            return result
        return call

    with pytest.MonkeyPatch.context() as m:
        # the transit's stepper call is torus's, the coarse pass's and the
        # windows' surgery_orbit's
        for module in (torus, deform):
            m.setattr(module, "integrate", spy("integrate", lambda a, kw, r: out[
                "calls"].append((a[1], a[2], kw.get("edges", ()))), module))
        m.setattr(torus, "find_transit", spy("find_transit", lambda a, kw, r: out.update(
            guide=r.trajectory)))
        m.setattr(torus, "_surgery_windows", spy("_surgery_windows", lambda a, kw, r: out.update(
            windows=r)))
        out["field"], out["traj"], out["cert"] = fs.connect(V, [0.0, 0.0], q, 0.4, budgets)
    out["V"] = V
    return out


class TestConnectOrbitOnce:
    """connect integrates V's orbit once: the transit's, with only its steps
    that hold a window edge integrated again, as rows of one call."""

    def test_no_lone_row_solve(self, recorded):
        calls = recorded["calls"]
        assert len(calls) == 3  # the transit, the coarse pass, the windows
        for x0, _, _ in calls:
            assert np.ndim(x0) == 2
        # the coarse pass: at most one row per guide step, each from its node
        (x0, t0, edges), = [c for c in calls if len(c[2])]
        guide = recorded["guide"]
        assert len(set(np.asarray(t0).tolist())) == len(t0)
        at = np.searchsorted(guide.times, t0)
        assert np.array_equal(guide.times[at], t0)
        assert np.array_equal(guide.states[at], x0)

    def test_window_edges_are_nodes(self, recorded):
        edges = np.array(recorded["windows"]).ravel()
        assert np.all(np.isin(edges, recorded["traj"].times))

    def test_untouched_guide_steps_keep_their_nodes(self, recorded):
        guide, traj, windows = recorded["guide"], recorded["traj"], recorded["windows"]
        edges = np.array(windows).ravel()
        t1 = traj.t1
        kept = 0
        for i in range(len(guide.times) - 1):
            a, b = guide.times[i], guide.times[i + 1]
            if b > t1 or np.any((edges > a) & (edges < b)):
                continue
            if any(lo <= a and b <= hi for lo, hi in windows):
                continue  # inside a window: the glued field's row
            j = int(np.searchsorted(traj.times, a))
            assert traj.times[j] == a and traj.times[j + 1] == b
            # its start node is the row's end when the step before it was
            # integrated again (within the landing gate of the guide's)
            assert np.array_equal(traj.states[j + 1], guide.states[i + 1])
            kept += 1
        assert kept > 0

    def test_first_window_from_the_chord_scan(self, recorded):
        traj, cert, windows = recorded["traj"], recorded["cert"], recorded["windows"]
        lo, hi = windows[0]
        assert lo == 0.0 and hi < 2.0
        end = traj.states[int(np.searchsorted(traj.times, hi))]
        for x in (cert["x1"], cert["x2"]):
            assert torus_distance(end, x) > 2.0 * cert["delta"]

    def test_windows_span_the_chord_through_each_ball(self, recorded):
        """No pad: a window's ends lie outside both supports and, but at 0
        and the horizon, where the chord leaves radius 2.2 delta plus the
        bow, so V's orbit there is at most 2.2 delta plus two bows away."""
        guide, traj, cert = recorded["guide"], recorded["traj"], recorded["cert"]
        dd, anchors = cert["delta"], (cert["x1"], cert["x2"])
        bow = deform._chord_bow(float(np.max(np.diff(guide.times))), recorded["V"])
        ends = [e for w in recorded["windows"] for e in w if e > 0.0]
        assert len(ends) > 2
        for e in ends:
            z = traj.states[int(np.searchsorted(traj.times, e))]
            assert min(torus_distance(z, x) for x in anchors) > 2.0 * dd
            if e < traj.t1:
                near = min(torus_distance(guide.at(e), x) for x in anchors)
                assert near <= 2.2 * dd + 2.0 * bow + 1e-9


def _all_images(traj, target, period):
    """The chord scan before lattice pairing, kept as the oracle: per image
    of every lattice translate the longest step can reach, each step's start
    minus the image, the step and its squared length."""
    target = np.asarray(target, dtype=float)
    a = traj.states[:-1]
    u = np.diff(traj.states, axis=0)
    d0 = _wrap(a - target, period)
    uu = np.maximum(np.sum(u * u, axis=1), 1e-300)
    d = a.shape[1]
    if period is None:
        shifts = np.zeros((1, d))
    else:
        reach = 0.5 * period * np.sqrt(d) + float(np.sqrt(np.max(uu)))
        m = int(np.ceil(reach / period)) + 1
        offs = period * np.arange(-m, m + 1)
        shifts = np.stack(np.meshgrid(*([offs] * d), indexing="ij"),
                          axis=-1).reshape(-1, d)
    for k in shifts:
        yield d0 - k, u, uu


def _oracle_minima(traj, target, period, t_lo):
    best = np.inf
    for w, u, uu in _all_images(traj, target, period):
        s = np.clip(-np.sum(w * u, axis=1) / uu, 0.0, 1.0)
        best = np.minimum(best, np.linalg.norm(w + s[:, None] * u, axis=1))
    return np.where(traj.times[1:] >= t_lo, best, np.inf), s


def _oracle_windows(guide, target, period, radius):
    h = np.diff(guide.times)
    out = []
    for w, u, uu in _all_images(guide, target, period):
        b = np.sum(w * u, axis=1)
        c = np.sum(w * w, axis=1) - radius * radius
        disc = b * b - uu * c
        hit = disc > 0.0
        if not np.any(hit):
            continue
        sq = np.sqrt(disc[hit])
        s_lo = np.clip((-b[hit] - sq) / uu[hit], 0.0, 1.0)
        s_hi = np.clip((-b[hit] + sq) / uu[hit], 0.0, 1.0)
        keep = s_hi > s_lo
        idx = np.nonzero(hit)[0][keep]
        out.extend(zip((guide.times[idx] + s_lo[keep] * h[idx]).tolist(),
                       (guide.times[idx] + s_hi[keep] * h[idx]).tolist()))
    return out


def _path(states):
    states = np.asarray(states, dtype=float)
    times = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(states, axis=0),
                                                            axis=1) + 1e-3)])
    return Trajectory(times, states, np.zeros_like(states[:-1]), np.zeros_like(states[:-1]))


def _random_walk(seed, d, period, n=160):
    """Steps log-uniform from 1e-3 to 90 long at period 2 pi (20 in 3-D, so
    that the oracle's images stay few), scaled with the period; one in eight
    has length zero."""
    rng = np.random.default_rng(seed)
    longest = (90.0 if d == 2 else 20.0) * period / (2 * np.pi)
    lengths = np.exp(rng.uniform(np.log(1e-3), np.log(longest), n))
    lengths[rng.choice(n, n // 8, replace=False)] = 0.0
    dirs = rng.normal(size=(n, d))
    steps = lengths[:, None] * dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    return _path(np.cumsum(np.vstack([rng.uniform(0.0, period, (1, d)), steps]), axis=0))


def _lattice_walk(seed, d, period, n=120):
    """Nodes on the half-period lattice joined by axis and diagonal steps of
    up to 14 periods per axis (2 in 3-D), so chords run along cell edges and
    through corners."""
    rng = np.random.default_rng(seed)
    moves = rng.integers(-1, 2, (n, d)) * rng.integers(0, 29 if d == 2 else 5, (n, 1))
    return _path(0.5 * period * np.cumsum(np.vstack([np.zeros((1, d)), moves]), axis=0))


_SCANS = [(walk, seed, d, period)
          for walk in (_random_walk, _lattice_walk)
          for seed, d in ((0, 2), (2, 3))
          for period in (2 * np.pi, 1.0)]


def _targets(d, period, seed):
    """A random target, one on a cell edge and one on a cell corner."""
    edge = np.zeros(d)
    edge[0] = 0.5 * period
    return [np.random.default_rng(seed).uniform(0.0, period, d), edge,
            np.full(d, 0.5 * period)]


class TestLatticeScan:
    """The scan pairs each chord only with the lattice images it can reach;
    every value is bitwise the all-images oracle's, in one block of pieces
    or in blocks of three."""

    @pytest.mark.parametrize("walk, seed, d, period", _SCANS)
    def test_chord_minima_match_all_images(self, monkeypatch, walk, seed, d, period):
        traj = walk(seed, d, period)
        t_lo = traj.times[len(traj.times) // 4]
        a, u = traj.states[:-1], np.diff(traj.states, axis=0)
        for target in _targets(d, period, seed):
            want, _ = _oracle_minima(traj, target, period, t_lo)
            for pieces in (1024, 3):
                monkeypatch.setattr(recurrence, "_SCAN_PIECES", pieces)
                got, where = recurrence._chord_minima(traj, target, period, t_lo)
                assert got.tobytes() == want.tobytes()
                # the parameter returned is where the winning image's
                # distance is attained, up to the point's rounding
                near = np.linalg.norm(torus_delta(a + where[:, None] * u, target, period),
                                      axis=1)
                ok = np.isfinite(got)
                assert np.allclose(near[ok], got[ok], rtol=0.0, atol=1e-9 * max(1.0, period))

    @pytest.mark.parametrize("walk, seed, d, period", _SCANS)
    def test_pairs_per_piece(self, walk, seed, d, period):
        """Within period/2, a piece of at most period/2 pairs with at most 4
        images per axis, and every step pairs at least once."""
        traj = walk(seed, d, period)
        u = np.diff(traj.states, axis=0)
        pieces = np.maximum(np.ceil(np.sqrt(np.sum(u * u, axis=1)) / (0.5 * period)), 1.0)
        steps = np.concatenate([i for i, *_ in recurrence._lattice_chords(
            traj, traj.states[0], period, 0.25 * period)])
        assert np.all(np.bincount(steps, minlength=len(pieces)) <= 4 ** d * pieces)
        assert np.all(np.bincount(steps, minlength=len(pieces)) > 0)

    @pytest.mark.parametrize("seed, d", [(0, 2), (2, 3)])
    @pytest.mark.parametrize("period", [2 * np.pi, 1.0])
    def test_ties_at_rounding_scale(self, seed, d, period):
        """Lattice-walk nodes moved by a few units in the last place: chords
        that pass a half period from a target on a cell edge or corner, up
        to rounding, still pair with both nearest images."""
        walk = _lattice_walk(seed, d, period)
        ulps = np.random.default_rng(seed).integers(-4, 5, walk.states.shape)
        nudged = _path(walk.states + ulps * np.spacing(np.maximum(np.abs(walk.states),
                                                                  period)))
        t_lo = nudged.times[len(nudged.times) // 4]
        for target in _targets(d, period, seed)[1:]:
            want, _ = _oracle_minima(nudged, target, period, t_lo)
            got, _ = recurrence._chord_minima(nudged, target, period, t_lo)
            assert got.tobytes() == want.tobytes()
            windows = [set(f(nudged, target, period, 0.5 * period))
                       for f in (deform._chord_windows, _oracle_windows)]
            assert windows[0] == windows[1]

    @pytest.mark.parametrize("walk, seed, d, period", _SCANS[:4])
    def test_chord_minima_without_a_period(self, walk, seed, d, period):
        traj = walk(seed, d, period)
        for target in _targets(d, period, seed):
            got = recurrence._chord_minima(traj, target, None, 1.0)
            want = _oracle_minima(traj, target, None, 1.0)
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want]

    @pytest.mark.parametrize("walk, seed, d, period", _SCANS)
    @pytest.mark.parametrize("reach", [0.1, 1.1])
    def test_surgery_windows_match_all_images(self, monkeypatch, walk, seed, d, period,
                                              reach):
        """Radii below period/2 and above a whole period (beyond the padding
        image): the same windows, and the same merged surgery windows."""
        guide = walk(seed, d, period)
        radius = reach * period
        anchors = _targets(d, period, seed)[:2]
        delta = 1e-3
        args = (guide, anchors, delta, period, radius - 2.2 * delta, guide.t1)
        want = [set(_oracle_windows(guide, a, period, radius)) for a in anchors]
        with monkeypatch.context() as m:
            m.setattr(deform, "_chord_windows", _oracle_windows)
            want_merged = deform._surgery_windows(*args)
        assert all(want)
        for pieces in (1024, 3):
            monkeypatch.setattr(recurrence, "_SCAN_PIECES", pieces)
            assert [set(deform._chord_windows(guide, a, period, radius))
                    for a in anchors] == want
            assert deform._surgery_windows(*args) == want_merged
