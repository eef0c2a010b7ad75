from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import flowsteer as fs
from flowsteer import deform
from flowsteer.deform import (FieldStats, _eta, bump_constants, c0_deviation_bound,
                              c1_deviation_bound, sampled_jacobian_modulus, surgery_delta)
from flowsteer.integrate import _landing_tol, _row_sums
from flowsteer.recurrence import _wrap


class TestBumpProfile:
    def test_range_and_plateaus(self):
        rs = np.linspace(0.0, 3.0, 4001)
        vals = _eta(rs)[0]
        assert np.all((0.0 <= vals) & (vals <= 1.0))
        assert np.all(vals[rs <= 1.0] == 1.0)
        assert np.all(vals[rs >= 2.0] == 0.0)

    def test_derivative_constants_dominate_fd(self):
        c = bump_constants()
        rs = np.linspace(0.5, 2.5, 200_001)
        vals = _eta(rs)[0]
        fd1 = np.gradient(vals, rs)
        fd2 = np.gradient(fd1, rs)
        assert np.max(np.abs(fd1)) <= c["grad_sup"]
        assert np.max(np.abs(fd2)) <= c["hess_sup"]
        assert np.max(np.abs(fd1) / np.maximum(rs, 1.0)) <= c["hess_sup"]

    def test_constants_are_the_one_shot_maxima(self):
        # the sliced sampling reads the maxima of all 400,001 radii at once
        rs = np.linspace(1.0, 2.0, 400_001)
        _, d1, d2 = _eta(rs)
        d1, d2 = np.abs(d1), np.abs(d2)
        c = bump_constants()
        assert c["grad_sup"] == float(d1.max()) * 1.002
        assert c["hess_sup"] == float(np.maximum(d2, d1 / rs).max()) * 1.002
        assert c["samples"] == len(rs)

    def test_analytic_derivatives_match_fd(self):
        rs = np.linspace(1.01, 1.99, 997)
        h = 1e-6
        fd1 = (_eta(rs + h)[0] - _eta(rs - h)[0]) / (2 * h)
        assert np.max(np.abs(fd1 - _eta(rs)[1])) < 1e-6
        fd2 = (_eta(rs + h)[1] - _eta(rs - h)[1]) / (2 * h)
        assert np.max(np.abs(fd2 - _eta(rs)[2])) < 1e-5

    def test_profile_is_the_quotient_rule(self):
        # eta = u / (u + v) with u = g(2 - r), v = g(r - 1), g(t) = exp(-1/t)
        rs = np.concatenate([np.linspace(0.0, 3.0, 30_001),
                             np.nextafter([1.0, 2.0], [2.0, 1.0])])
        inside = (rs > 1.0) & (rs < 2.0)
        a, c = 2.0 - rs[inside], rs[inside] - 1.0
        u, v = np.exp(-1.0 / a), np.exp(-1.0 / c)
        up, vp = -(u / a ** 2), v / c ** 2
        upp, vpp = u * (1.0 / a ** 4 - 2.0 / a ** 3), v * (1.0 / c ** 4 - 2.0 / c ** 3)
        s = u + v
        want = np.where(rs <= 1.0, 1.0, 0.0)
        want1, want2 = np.zeros_like(rs), np.zeros_like(rs)
        want[inside] = u / s
        want1[inside] = (up * v - u * vp) / s ** 2
        want2[inside] = ((upp * v - u * vpp) * s
                         - 2.0 * (up * v - u * vp) * (up + vp)) / s ** 3
        assert np.array_equal(_eta(rs)[0], want)
        assert np.array_equal(_eta(rs)[1], want1)
        assert np.array_equal(_eta(rs)[2], want2)

    def test_inside_only_profile_is_bitwise_the_old_one(self):
        # the profile evaluated on the whole radius array, as it was before
        # it skipped the plateaus, is the oracle
        def glue(t):
            g, g1, g2 = np.zeros_like(t), np.zeros_like(t), np.zeros_like(t)
            m = t > 0
            tm = t[m]
            e = np.exp(-1.0 / tm)
            g[m], g1[m], g2[m] = e, e / tm ** 2, e * (1.0 / tm ** 4 - 2.0 / tm ** 3)
            return g, g1, g2

        def old_eta(r):
            u, up, upp = glue(2.0 - r)
            v, vp, vpp = glue(r - 1.0)
            up = -up
            s = u + v
            flat = (r <= 1.0) | (r >= 2.0)
            num = (upp * v - u * vpp) * s - 2.0 * (up * v - u * vp) * (up + vp)
            with np.errstate(invalid="ignore"):
                d1 = np.where(s > 0, (up * v - u * vp) / np.where(s > 0, s, 1.0) ** 2, 0.0)
                d2 = np.where(s > 0, num / np.where(s > 0, s, 1.0) ** 3, 0.0)
            return (u / (u + v + ((u + v) == 0.0)), np.where(flat, 0.0, d1),
                    np.where(flat, 0.0, d2))

        rs = np.concatenate([np.linspace(0.0, 3.0, 300_001),
                             np.nextafter([1.0, 1.0, 2.0, 2.0], [0.0, 2.0, 1.0, 3.0]),
                             1.0 + np.geomspace(1e-12, 1e-2, 97)])
        want = old_eta(rs)
        got = _eta(rs)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
        eta, d1, d2 = _eta(rs, False)
        assert d2 is None
        assert eta.tobytes() == want[0].tobytes() and d1.tobytes() == want[1].tobytes()

    def test_constants_payload(self):
        c = bump_constants()
        assert c["grad_sup"] == pytest.approx(2.0, rel=0.02)
        assert {"grad_sup", "hess_sup", "samples", "provenance"} <= set(c)


class TestChooseDelta:
    def test_zero_field_caps_at_invertibility(self):
        gs = bump_constants()["grad_sup"]
        delta = fs.choose_delta(FieldStats(0.0, 0.0), 0.2)
        assert delta == pytest.approx(0.999 * min(1.0, gs ** -0.5), rel=1e-6)

    def test_unit_bounds_bisection_and_substitution(self):
        stats = FieldStats(1.0, 1.0)
        delta = fs.choose_delta(stats, 0.2)
        assert c0_deviation_bound(stats, delta) < 0.1
        # largest admissible: 1% bigger must violate
        assert c0_deviation_bound(stats, 1.01 * delta) >= 0.1 * (1 - 1e-6)

    def test_c1_mode_with_linear_modulus(self):
        stats = FieldStats(1.0, 1.0, omega=lambda r: r)
        delta = fs.choose_delta(stats, 0.2, need_c1=True)
        assert c0_deviation_bound(stats, delta) < 0.1
        assert c1_deviation_bound(stats, delta) < 0.1
        assert c1_deviation_bound(stats, 1.01 * delta) >= 0.1 * (1 - 1e-6)

    def test_c1_needs_modulus(self):
        with pytest.raises(ValueError):
            fs.choose_delta(FieldStats(1.0, 1.0), 0.2, need_c1=True)

    def test_degenerate_budget(self):
        with pytest.raises(fs.DegenerateBudget):
            fs.choose_delta(FieldStats(1e12, 1e12), 1e-12)


class TestPhiMap:
    def setup_method(self):
        self.delta = 0.05
        self.x0 = np.array([1.0, 0.0])
        self.y0 = self.x0 + np.array([self.delta ** 3, 0.0]) * 0.999
        self.pm = fs.build_phi_map(self.x0, self.y0, self.delta)

    def test_identity_when_unmoved(self):
        pm = fs.build_phi_map(self.x0, self.x0, self.delta)
        pts = np.random.default_rng(0).uniform(-2, 2, (50, 2))
        assert np.array_equal(pm.phi(pts), pts)
        assert np.array_equal(pm.jac(pts[0]), np.eye(2))

    def test_pure_translation_inside_inner_ball(self):
        for r in (0.0, 0.3, 0.9):
            x = self.x0 + r * self.delta * np.array([np.cos(1.0), np.sin(1.0)])
            assert np.allclose(self.pm.phi(x), x - self.pm.displacement, atol=1e-18)

    def test_identity_outside_support(self):
        for r in (2.0, 2.5, 10.0):
            x = self.x0 + r * self.delta * np.array([np.cos(2.0), np.sin(2.0)])
            assert np.array_equal(self.pm.phi(x), x)

    def test_estimate_chain_on_dense_sample(self, rng):
        c = bump_constants()
        pts = self.x0 + rng.uniform(-2.5, 2.5, (10_000, 2)) * self.delta
        moved = np.linalg.norm(pts - self.pm.phi(pts), axis=1)
        assert np.all(moved <= self.delta ** 3 * (1 + 1e-12))
        worst_j = 0.0
        worst_d2 = 0.0
        disp = np.linalg.norm(self.pm.displacement)
        for x in pts[:2000]:
            J = self.pm.jac(x)
            worst_j = max(worst_j, np.linalg.norm(J - np.eye(2), ord=2))
            h = 1e-6
            for e in np.eye(2):
                dJ = (self.pm.jac(x + h * e) - self.pm.jac(x - h * e)) / (2 * h)
                worst_d2 = max(worst_d2, np.linalg.norm(dJ, ord=2))
        assert worst_j <= c["grad_sup"] * self.delta ** 2 * disp / self.delta ** 3 + 1e-12
        assert worst_j <= c["grad_sup"] * self.delta ** 2 + 1e-12
        assert worst_d2 <= c["hess_sup"] * self.delta * (1 + 1e-4)

    def test_hypothesis_violation(self):
        with pytest.raises(fs.HypothesisViolation) as err:
            fs.build_phi_map(self.x0, self.x0 + [2 * self.delta ** 3, 0.0], self.delta)
        assert err.value.required == pytest.approx(self.delta ** 3)

    def test_invertibility_cap(self):
        # delta must lie below min(1, grad_sup^{-1/2}), where grad_sup delta^2,
        # the bound on |DPhi - I|, reaches 1; choose_delta's scale for a zero
        # field, 0.999 of the cap, is admitted
        cap = min(1.0, bump_constants()["grad_sup"] ** -0.5)
        with pytest.raises(fs.HypothesisViolation) as err:
            fs.build_phi_map(self.x0, self.x0, cap)
        assert err.value.required == cap
        delta = fs.choose_delta(FieldStats(0.0, 0.0), 0.2)
        assert fs.build_phi_map(self.x0, self.x0, delta).delta == delta


class TestPushforward:
    def test_identity_map_gives_same_field(self, rotation):
        pm = fs.build_phi_map([1.0, 0.0], [1.0, 0.0], 0.05)
        vt = fs.pushforward_field(rotation, pm)
        pts = np.random.default_rng(1).uniform(-2, 2, (100, 2))
        for x in pts:
            assert np.array_equal(vt.eval(x), rotation.eval(x))

    def test_bitwise_outside_support(self, rotation):
        delta = 0.05
        x0 = np.array([1.0, 0.0])
        pm = fs.build_phi_map(x0, x0 + [delta ** 3 * 0.9, 0.0], delta)
        vt = fs.pushforward_field(rotation, pm)
        rng = np.random.default_rng(2)
        count = 0
        for x in rng.uniform(-2, 2, (500, 2)):
            if np.linalg.norm(x - x0) >= 2 * delta:
                assert np.array_equal(vt.eval(x), rotation.eval(x))
                count += 1
        assert count > 400

    def test_deviation_below_printed_bound(self, rotation, rng):
        delta = 0.05
        x0 = np.array([1.0, 0.0])
        pm = fs.build_phi_map(x0, x0 + [delta ** 3, 0.0], delta)
        vt = fs.pushforward_field(rotation, pm)
        gs = bump_constants()["grad_sup"]
        bound = (rotation.lip_bound * delta ** 3
                 + rotation.sup_bound * gs * delta ** 2
                 / (1 - gs * delta ** 2))
        pts = x0 + rng.uniform(-2, 2, (10_000, 2)) * delta
        dev = np.linalg.norm(vt.eval(pts) - rotation.eval(pts), axis=1)
        assert np.max(dev) <= bound
        assert vt.descriptor["kind"] == "pushforward"

    @pytest.mark.parametrize("name, x0, delta", [
        ("winding", [1.0, 0.5], 2.5352e-3),
        ("rotation", [1.0, 0.5], 2e-3),
        ("rotation", [1.0, 0.5], 0.1),
    ])
    def test_derivative_deviation_below_c1_bound(self, name, x0, delta):
        # |D(Vt - V)| by central differences on 20,000 points of the support,
        # at the largest displacement the cube law allows: the bound carries
        # V's speed (through D^2 Phi) and its Lipschitz constant (through
        # the conjugation by DPhi); the rotation's bound is looser, since its
        # speed bound is the sup over the whole field, not over the ball
        V = fs.builtin_field(name)
        x0 = np.array(x0)
        pm = fs.build_phi_map(x0, x0 + 0.999 * delta ** 3 * np.array([0.6, 0.8]), delta)
        vt = fs.pushforward_field(V, pm)
        pts = x0 + np.random.default_rng(5).uniform(-2.0, 2.0, (20_000, 2)) * delta
        h = 1e-3 * delta
        jac = np.stack([((vt.eval(pts + h * e) - V.eval(pts + h * e))
                         - (vt.eval(pts - h * e) - V.eval(pts - h * e))) / (2 * h)
                        for e in np.eye(2)], axis=2)
        sampled = float(np.max(np.linalg.norm(jac, ord=2, axis=(1, 2))))
        bound = c1_deviation_bound(FieldStats(V.lip_bound, V.sup_bound), delta)
        assert 0.3 * bound < sampled <= bound

    def test_descriptor_roundtrip(self, rotation):
        delta = 0.05
        pm = fs.build_phi_map([1.0, 0.0], [1.0 + delta ** 3 / 2, 0.0], delta)
        vt = fs.pushforward_field(rotation, pm)
        back = fs.build_field(vt.descriptor)
        pts = np.random.default_rng(3).uniform(0.8, 1.2, (100, 2))
        for x in pts:
            assert np.array_equal(back.eval(x), vt.eval(x))


class TestPushforwardOverBalls:
    """One pushforward over k disjoint balls, evaluated as one batch."""

    def setup_method(self):
        delta = 0.05
        self.maps = (fs.build_phi_map([1.0, 0.0], [1.0 + 0.9 * delta ** 3, 0.0], delta),
                     fs.build_phi_map([0.0, 1.0], [0.0, 1.0 - 0.5 * delta ** 3], delta))
        rng = np.random.default_rng(4)
        self.inside = [pm.x0 + rng.uniform(-2.0, 2.0, (300, 2)) * delta for pm in self.maps]
        self.points = np.concatenate(self.inside + [rng.uniform(-2, 2, (300, 2))])

    def test_batch_equals_rows_bitwise(self, rotation):
        vt = fs.pushforward_field(rotation, self.maps)
        rows = np.stack([vt.eval(x) for x in self.points])
        assert np.array_equal(vt.eval(self.points), rows)
        assert not np.array_equal(rows, rotation.eval(self.points))

    def test_inside_matches_linear_solve(self, rotation):
        vt = fs.pushforward_field(rotation, self.maps)
        checked = 0
        for pm, pts in zip(self.maps, self.inside):
            got = vt.eval(pts)
            for y, v in zip(pts, got):
                if np.linalg.norm(y - pm.x0) < 2.0 * pm.delta:
                    ref = np.linalg.solve(pm.jac(y), rotation.eval(pm.phi(y)))
                    assert np.linalg.norm(v - ref) <= 1e-14 * np.linalg.norm(ref)
                    checked += 1
        assert checked > 300

    def test_overlapping_supports_raise(self, rotation):
        delta = 0.05
        near = fs.build_phi_map([1.0 + 3.9 * delta, 0.0], [1.0 + 3.9 * delta, 0.0], delta)
        with pytest.raises(fs.SupportOverlap):
            fs.pushforward_field(rotation, (self.maps[0], near))
        # on a torus the supports also meet across the period
        period = 2 * np.pi
        a = fs.build_phi_map([0.05, 1.0], [0.05, 1.0], delta, period=period)
        b = fs.build_phi_map([period - 0.05, 1.0], [period - 0.05, 1.0], delta,
                             period=period)
        with pytest.raises(fs.SupportOverlap):
            fs.pushforward_field(rotation, (a, b))

    def test_descriptor_needs_its_maps(self, rotation):
        # the descriptor as written, with its 'maps', rebuilds bitwise
        vt = fs.pushforward_field(rotation, self.maps)
        rebuilt = fs.build_field(vt.descriptor)
        assert np.array_equal(rebuilt.eval(self.points), vt.eval(self.points))
        assert rebuilt.descriptor == vt.descriptor
        # one map at the top level, with no 'maps', is not read as a map
        pm = self.maps[0]
        stored = {"kind": "pushforward", "base": rotation.descriptor,
                  "x0": [float(v) for v in pm.x0], "y0": [float(v) for v in pm.y0],
                  "delta": float(pm.delta), "period": None}
        doc = {"dim": 2, "fields": {"f0": stored}, "segments": [], "sup_cert": 0.0}
        with pytest.raises(fs.ScheduleError, match="control field 'f0' has no key 'maps'"):
            fs.ControlSchedule.from_json(doc)


def _former_pushforward(V, maps):
    """The pushforward's evaluation as it was formed before the lean pass,
    kept as the oracle: the profile from two masked glue passes, V at the
    points and at their images in two calls, and gathers by (point, map)."""
    def glue(t):
        g, g1 = np.zeros_like(t), np.zeros_like(t)
        m = t > 0
        tm = t[m]
        e = np.exp(-1.0 / tm)
        g[m], g1[m] = e, e / tm ** 2
        return g, g1

    def eta_d1(r):
        eta, d1 = np.where(r <= 1.0, 1.0, 0.0), np.zeros_like(r)
        m = (r > 1.0) & (r < 2.0)
        rm = r[m]
        u, up = glue(2.0 - rm)
        v, vp = glue(rm - 1.0)
        up = -up
        s = u + v
        eta[m] = u / s
        d1[m] = (up * v - u * vp) / s ** 2
        return eta, d1

    period, d = maps[0].period, V.dim
    centers = np.array([pm.x0 for pm in maps], dtype=float)
    disps = np.array([pm.displacement for pm in maps])
    deltas = np.array([pm.delta for pm in maps])
    radii = 2.0 * deltas
    radii2 = radii * radii

    def func(x):
        x = np.asarray(x, dtype=float)
        out = V.eval(x)
        y = x.reshape(-1, d)
        off = _wrap(y[:, None, :] - centers, period)
        r2 = _row_sums(off * off)
        pt, k = (r2 < radii2).nonzero()
        if not pt.size:
            return out
        out = np.array(out, dtype=float)
        rk, dk, disp = np.sqrt(r2[pt, k]), deltas[k], disps[k]
        eta, eta1 = eta_d1(rk / dk)
        dphi = eta1 / (dk * np.where(rk > 0.0, rk, 1.0))
        grad = dphi[:, None] * off[pt, k]
        v = V.eval(y[pt] - eta[:, None] * disp)
        gain = _row_sums(grad * v) / (1.0 - _row_sums(grad * disp))
        out.reshape(-1, d)[pt] = v + gain[:, None] * disp
        return out

    return func


def _around(pm, rng, lift):
    """Points about pm's center: on each axis at 0, delta and 2 delta and
    one ulp either side of the last two, and at random radii up to 3 delta
    in random directions, all shifted by ``lift``."""
    d = pm.x0.size
    edges = np.array([pm.delta, 2.0 * pm.delta])
    radii = np.concatenate([[0.0], edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
    u = rng.standard_normal((150, d))
    u /= np.linalg.norm(u, axis=1)[:, None]
    offsets = np.concatenate([np.kron(np.eye(d), radii).T,
                              rng.uniform(0.0, 3.0, (150, 1)) * pm.delta * u])
    return pm.x0 + offsets + lift


def _one_plain_map(rng):
    # delta a power of two, centered at 0: the axis points' r = |y| / delta
    # are exactly 1 and 2 and the floats either side
    delta = 2.0 ** -4
    pm = fs.build_phi_map([0.0, 0.0], [0.6 * delta ** 3, -0.7 * delta ** 3], delta)
    pts = np.concatenate([_around(pm, rng, 0.0), rng.uniform(-1.0, 1.0, (60, 2))])
    return (pm,), pts


def _two_periodic_maps(rng):
    # the torus fixture's geometry: one center near 0 and one lifted to
    # |x| ~ 5,000, with points lifted to |y| ~ 5,000
    delta, period = 0.165, 2.0 * np.pi
    a = fs.build_phi_map([0.2, 0.1], [0.2, 0.1], delta, period=period)
    b = fs.build_phi_map([3094.46823222, 4376.23894233],
                         [3094.46823222 + 5.3e-4, 4376.23894233 - 3.8e-4], delta, period=period)
    lift = period * np.array([560.0, 560.0])
    pts = np.concatenate([_around(a, rng, lift), _around(b, rng, -lift / 8.0),
                          rng.uniform(-5000.0, 5000.0, (60, 2))])
    return (a, b), pts


class TestPushforwardKernel:
    """The lean evaluation is bitwise the former one, kept above as the
    oracle, in the core, the annulus and outside, for a (d,) point and for
    batches of 1, 6 and 198."""

    @pytest.mark.parametrize("geometry", [_one_plain_map, _two_periodic_maps])
    def test_bitwise_the_former_evaluation(self, cellular, geometry):
        rng = np.random.default_rng(7)
        maps, pts = geometry(rng)
        rng.shuffle(pts)
        r = np.min([np.linalg.norm(_wrap(pts - pm.x0, pm.period), axis=1) / pm.delta
                    for pm in maps], axis=0)
        assert min(np.sum(r < 1.0), np.sum((r > 1.0) & (r < 2.0)), np.sum(r > 2.0)) >= 10
        assert len(pts) >= 198
        func = fs.pushforward_field(cellular, maps).func
        oracle = _former_pushforward(cellular, maps)
        for x in pts:
            assert func(x).shape == (2,)
            assert func(x).tobytes() == oracle(x).tobytes()
        for n in (1, 6, 198):
            assert func(pts[:n]).shape == (n, 2)
            assert func(pts[:n]).tobytes() == oracle(pts[:n]).tobytes()
        vt = fs.pushforward_field(cellular, maps)
        batch = vt.eval(pts[:198])
        assert np.stack([vt.eval(x) for x in pts[:198]]).tobytes() == batch.tobytes()
        assert not np.array_equal(batch, cellular.eval(pts[:198]))

    def test_base_values_are_not_written(self):
        """V's values may be a read-only broadcast: the pushforward writes
        into a copy of its own, as the former evaluation did."""
        c = np.array([1.0, 0.5])
        V = fs.VectorField(2, lambda x: np.broadcast_to(c, np.shape(x)), 1.2, 0.0)
        maps, pts = _one_plain_map(np.random.default_rng(1))
        got = fs.pushforward_field(V, maps).func(pts)
        assert got.flags.writeable and got.dtype == float
        assert got.tobytes() == _former_pushforward(V, maps)(pts).tobytes()
        assert np.array_equal(c, [1.0, 0.5])

    def test_exact_plateau_edges(self, cellular):
        """On the plain map's axes r is exactly 1 and 2 and the floats either
        side: both sides of each edge are evaluated; Vt is V from r = 2 on
        and moves V's value in the core."""
        maps, _ = _one_plain_map(np.random.default_rng(0))
        pm = maps[0]
        r = np.array([1.0, 2.0])
        radii = np.concatenate([r, np.nextafter(r, 0.0), np.nextafter(r, 3.0)]) * pm.delta
        pts = np.stack([radii, np.zeros_like(radii)], axis=1)
        assert np.array_equal(np.linalg.norm(pts, axis=1) / pm.delta, radii / pm.delta)
        got = fs.pushforward_field(cellular, maps).func(pts)
        assert got.tobytes() == _former_pushforward(cellular, maps)(pts).tobytes()
        outside, core = radii >= 2.0 * pm.delta, radii <= pm.delta
        assert np.array_equal(got[outside], cellular.eval(pts[outside]))
        assert not np.any(np.all(got[core] == cellular.eval(pts[core]), axis=1))


class TestCorrectStart:
    def test_unmoved_start_returns_same_orbit(self, rotation):
        traj = fs.integrate(rotation, [1.0, 0.0], 0.0, 2 * np.pi)
        vt, ytraj, pm = fs.correct_start(rotation, traj, traj.states[0], 0.2,
                                         need_c1=True)
        assert np.array_equal(ytraj.states[0], traj.states[0])
        for t in np.linspace(0, 2 * np.pi, 20):
            assert np.linalg.norm(ytraj.at(t) - traj.at(t)) < 1e-7

    def test_forward_relocation_on_rotation(self, rotation):
        from flowsteer.deform import choose_delta

        stats = FieldStats(rotation.lip_bound, rotation.sup_bound, lambda r: r)
        delta = choose_delta(stats, 0.2, True)
        oracle = fs.IntegratorSettings(tol=1e-12, h_max=0.05)
        traj = fs.integrate(rotation, [1.0, 0.0], 0.0, 2 * np.pi, oracle)
        y0 = traj.states[0] + 0.999 * delta ** 3 * np.array([1.0, 0.0])
        vt, ytraj, pm = fs.correct_start(rotation, traj, y0, 0.2, need_c1=True)
        assert np.array_equal(ytraj.states[0], y0)
        # transported curve solves the original flow: Phi(y(t)) = x(t)
        worst = max(np.linalg.norm(pm.phi(ytraj.at(float(t))) - traj.at(float(t)))
                    for t in traj.times)
        assert worst < 1e-7
        # coincidence with the original orbit outside the support ball
        for t in traj.times:
            x, y = traj.at(float(t)), ytraj.at(float(t))
            if (np.linalg.norm(x - pm.x0) > 2 * delta
                    and np.linalg.norm(y - pm.x0) > 2 * delta):
                assert np.linalg.norm(x - y) < 1e-8

    def test_c1_mode_on_a_raw_constant_field(self):
        # lip_bound 0 makes a field constant, so its Jacobian's modulus is
        # zero: C^1 mode needs no analytic Jacobian there, as in connect
        V = fs.VectorField(2, lambda x: np.zeros_like(x) + [1.0, 0.0], 1.0, 0.0)
        traj = fs.integrate(V, [0.0, 0.0], 0.0, 3.0)
        delta = surgery_delta(V, traj.states[0], 0.2, need_c1=True)
        y0 = traj.states[0] + 0.5 * delta ** 3 * np.array([0.0, 1.0])
        vt, ytraj, pm = fs.correct_start(V, traj, y0, 0.2, need_c1=True)
        assert pm.delta == delta
        assert np.array_equal(ytraj.states[0], y0)
        # past the ball the corrected orbit is V's again
        assert np.linalg.norm(ytraj.states[-1] - traj.states[-1]) < 1e-8

    def test_c1_mode_on_the_abc_field(self):
        # the ABC flow on T^3 has an analytic Jacobian, so its C^1 scale is
        # admissible, and smaller than the C^0 one
        V = fs.builtin_field("abc", a=1.0, b=0.7, c=0.4)
        x = [0.3, 1.2, -0.5]
        delta = surgery_delta(V, x, 0.1, need_c1=True)
        assert 0.0 < delta < surgery_delta(V, x, 0.1)

    def test_c1_mode_needs_a_modulus(self, rotation):
        V = dataclasses.replace(rotation, jacobian=None)
        traj = fs.integrate(V, [1.0, 0.0], 0.0, 1.0)
        with pytest.raises(ValueError, match="Jacobian"):
            fs.correct_start(V, traj, traj.states[0], 0.2, need_c1=True)
        with pytest.raises(ValueError, match="Jacobian"):
            surgery_delta(V, traj.states[0], 0.2, need_c1=True)
        assert surgery_delta(V, traj.states[0], 0.2) == surgery_delta(rotation, [5.0, 5.0], 0.2)

    def test_hypothesis_violation_carries_required_bound(self, rotation):
        traj = fs.integrate(rotation, [1.0, 0.0], 0.0, 1.0)
        with pytest.raises(fs.HypothesisViolation) as err:
            fs.correct_start(rotation, traj, traj.states[0] + [0.5, 0.0], 0.2)
        assert err.value.required is not None

    def test_sampled_lip_deviation_below_eps(self, rotation, rng):
        from flowsteer.deform import choose_delta

        eps = 0.2
        stats = FieldStats(rotation.lip_bound, rotation.sup_bound, lambda r: r)
        delta = choose_delta(stats, eps, True)
        traj = fs.integrate(rotation, [1.0, 0.0], 0.0, 2 * np.pi)
        y0 = traj.states[0] + 0.9 * delta ** 3 * np.array([1.0, 0.0])
        vt, ytraj, pm = fs.correct_start(rotation, traj, y0, eps, need_c1=True)
        pts = pm.x0 + rng.uniform(-2.2, 2.2, (2000, 2)) * delta
        sup_dev = float(np.max(np.linalg.norm(vt.eval(pts) - rotation.eval(pts), axis=1)))
        lip_dev = 0.0
        h = 1e-6
        for x in pts[:300]:
            J1 = np.stack([(vt.eval(x + h * e) - vt.eval(x - h * e)) / (2 * h)
                           for e in np.eye(2)], axis=1)
            lip_dev = max(lip_dev, np.linalg.norm(J1 - rotation.jac(x), ord=2))
        assert sup_dev + lip_dev < eps


def _rotation_surgery(rotation, turns, settings=fs.IntegratorSettings()):
    """Criterion 6's geometry: the rotation's orbit from (1, 0) over
    ``turns`` periods as the guide, its start moved by 0.999 delta^3 at the
    C^1 scale for eps = 0.2, and the guide's surgery windows."""
    delta = fs.choose_delta(FieldStats(1.0, 1.0, lambda r: r), 0.2, True)
    traj = fs.integrate(rotation, [1.0, 0.0], 0.0, 2 * np.pi * turns, settings)
    y0 = traj.states[0] + 0.999 * delta ** 3 * np.array([1.0, 0.0])
    windows = deform._surgery_windows(
        traj, (traj.states[0],), delta, None,
        deform._chord_bow(float(np.max(np.diff(traj.times))), rotation), traj.t1)
    return delta, traj, y0, windows


class TestSurgeryOrbit:
    """correct_start integrates only the windows where its guide passes the
    ball under the step cap; elsewhere its orbit is the guide's."""

    def test_guide_nodes_outside_the_windows(self, rotation):
        delta, traj, y0, windows = _rotation_surgery(rotation, 1)
        vt, ytraj, pm = fs.correct_start(rotation, traj, y0, 0.2, need_c1=True, delta=delta)
        assert len(windows) == 2 and windows[0][0] == 0.0 and windows[1][1] == traj.t1
        edges = np.ravel(windows)

        def inside(a, b):
            return any(lo <= a and b <= hi for lo, hi in windows)

        kept = 0
        for i in range(len(traj.times) - 1):
            a, b = traj.times[i], traj.times[i + 1]
            if inside(a, b) or np.any((edges > a) & (edges < b)):
                continue
            j = int(np.searchsorted(ytraj.times, a))
            assert ytraj.times[j] == a and ytraj.times[j + 1] == b
            assert np.array_equal(ytraj.states[j + 1], traj.states[i + 1])
            kept += 1
        assert kept > 0
        # the capped steps are the windows' and lie inside them only: out of
        # them the orbit has the guide's steps, those that hold an edge cut
        # there, and no more
        cap = fs.IntegratorSettings().refined().resolving(delta, rotation.sup_bound).h_max
        h = np.diff(ytraj.times)
        capped = np.array([inside(a, b) for a, b in zip(ytraj.times[:-1], ytraj.times[1:])])
        assert np.all(h[capped] <= cap * (1.0 + 1e-12))
        assert np.count_nonzero(~capped) <= kept + 2 * len(edges)
        assert len(ytraj.times) < 0.1 * traj.t1 / cap

    def test_window_cut_by_the_guide_end_is_not_gated(self, rotation):
        """The guide returns into the ball at its end, where the corrected
        orbit lies off V's by about the displacement."""
        delta, traj, y0, windows = _rotation_surgery(rotation, 1)
        vt, ytraj, pm = fs.correct_start(rotation, traj, y0, 0.2, need_c1=True, delta=delta)
        assert windows[-1][1] == traj.t1
        off = float(np.linalg.norm(ytraj.states[-1] - traj.states[-1]))
        assert off > 1e3 * _landing_tol(traj.states[-1])
        assert np.linalg.norm(pm.phi(ytraj.states[-1]) - traj.states[-1]) < 1e-9

    def test_window_mid_span_is_gated(self, rotation):
        """Over two turns the guide crosses the ball at 2 pi: that window
        lands back on V's orbit, and on a guide moved by 1e-6 from a node
        inside the window on, its row raises."""
        settings = fs.IntegratorSettings(h_max=0.02)
        delta, traj, y0, windows = _rotation_surgery(rotation, 2, settings)
        assert len(windows) == 3
        fs.correct_start(rotation, traj, y0, 0.2, need_c1=True, delta=delta,
                         settings=settings)
        lo, hi = windows[1]
        k = int(np.searchsorted(traj.times, 0.5 * (lo + hi)))
        assert lo < traj.times[k - 1] and traj.times[k] < hi
        moved, = fs.integrate(rotation, traj.states[k:k + 1] + [0.0, 1e-6], traj.times[k],
                              traj.t1, settings)
        guide = fs.Trajectory.join([traj.piece(0, k), moved])
        guide.states[k] = moved.states[0]
        with pytest.raises(fs.BudgetExceeded, match="surgery window .* lands"):
            fs.correct_start(rotation, guide, y0, 0.2, need_c1=True, delta=delta,
                             settings=settings)


class TestLandingGate:
    def test_tolerance_per_row(self):
        y = (np.random.default_rng(3).standard_normal((200, 3))
             * np.logspace(-3.0, 4.0, 200)[:, None])
        want = np.array([1e-9 * max(1.0, float(np.linalg.norm(row))) for row in y])
        assert _landing_tol(y).tobytes() == want.tobytes()
        assert all(_landing_tol(row) == w for row, w in zip(y, want))

    def test_names_the_first_row_that_misses(self, rotation):
        rows = fs.integrate(rotation, [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]], 0.0,
                            [1.0, 2.0, 3.0])
        ends = np.array([row.states[-1] for row in rows])
        deform._landing_gate("step", rows, ends)
        deform._landing_gate("step", [], ends[:0])
        # rows 1 and 2 both miss, row 2 by more
        with pytest.raises(fs.BudgetExceeded, match=r"^step \[0, 2\] lands 0\.001 from"):
            deform._landing_gate("step", rows, ends + [[0.0, 0.0], [1e-3, 0.0], [1.0, 0.0]])

    def test_nan_landing_misses(self, rotation):
        rows = fs.integrate(rotation, [[1.0, 0.0], [0.0, 1.0]], 0.0, [1.0, 2.0])
        ends = np.array([row.states[-1] for row in rows])
        rows[1].states[-1, 0] = np.nan
        with pytest.raises(fs.BudgetExceeded, match=r"^step \[0, 2\] lands nan from"):
            deform._landing_gate("step", rows, ends)


class TestSampledModulus:
    def test_linear_field_modulus_near_zero(self, rotation):
        omega = sampled_jacobian_modulus(rotation, [1.0, 0.0])
        assert omega(0.5) < 1e-9  # constant Jacobian

    def test_monotone(self, cellular):
        omega = sampled_jacobian_modulus(cellular, [1.0, 1.0])
        rs = [1e-3, 1e-2, 1e-1, 0.5, 1.0]
        vals = [omega(r) for r in rs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert omega(0.0) == 0.0


class TestConstantsExport:
    def test_write_bump_constants(self, tmp_path):
        from flowsteer.deform import write_bump_constants
        from flowsteer import jsonio

        path = tmp_path / "bump_constants.json"
        payload = write_bump_constants(path)
        assert jsonio.read_json(path) == payload
        assert payload["grad_sup"] > 0 and "provenance" in payload
