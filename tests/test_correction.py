from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import flowsteer as fs
from flowsteer import correction, jsonio
from flowsteer.correction import (CorrectionSettings, PsiWeight, _audit_grids,
                                  _bspline_coefficients, _CubicSpline, _dot, _grad_psi,
                                  _grid_points, _max_norm, _poisson_gradient,
                                  _radial_factors, refinement_delta)
from flowsteer.sampling import Box

BOX4 = Box((-4 * np.pi, -4 * np.pi), (4 * np.pi, 4 * np.pi))


class TestPsiWeight:
    def test_value_at_zero(self):
        w = PsiWeight(0.75, 1.0, 2)
        assert w.value(np.zeros(2)) == pytest.approx(1.0)
        assert np.all(w.grad(np.zeros(2)) == 0.0)

    def test_hand_value(self):
        w = PsiWeight(0.75, 2.0, 2)
        assert w.value(np.zeros(2)) == pytest.approx(2 ** -1.5, abs=1e-12)

    @pytest.mark.parametrize("p", [0.5, 1.0, 1.2, 0.0])
    def test_exponent_range_validated_2d(self, p):
        with pytest.raises(ValueError):
            PsiWeight(p, 1.0, 2)

    def test_exponent_range_3d(self):
        PsiWeight(1.25, 1.0, 3)  # valid
        with pytest.raises(ValueError):
            PsiWeight(0.75, 1.0, 3)

    def test_alpha_positive(self):
        with pytest.raises(ValueError):
            PsiWeight(0.75, 0.0, 2)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-3, 3), st.floats(-3, 3), st.floats(0.51, 0.99),
           st.floats(0.5, 5.0))
    def test_grad_matches_finite_differences(self, x, y, p, alpha):
        w = PsiWeight(p, alpha, 2)
        pt = np.array([x, y])
        h = 1e-6
        fd = np.array([(w.value(pt + h * e) - w.value(pt - h * e)) / (2 * h)
                       for e in np.eye(2)])
        scale = max(1.0, float(np.linalg.norm(w.grad(pt))))
        assert np.linalg.norm(w.grad(pt) - fd) / scale < 1e-8

    def test_default_p_is_midpoint(self):
        assert PsiWeight.default_p(2) == pytest.approx(0.75)
        assert PsiWeight.default_p(3) == pytest.approx(1.25)


class TestPoissonSolver:
    def test_manufactured_solution(self):
        # h = prod_i sin(k_i pi x_i / L) on [0, L]^d vanishes on the
        # boundary; lap h = -sum_i (k_i pi/L)^2 h, and d h / d x_i swaps the
        # i-th sine for k_i pi/L times its cosine
        L = 2.0
        for n, modes in ((127, (3, 5)), (47, (3, 5, 2))):
            dx = L / (n + 1)
            xs = dx * np.arange(1, n + 1)
            X = np.meshgrid(*[xs] * len(modes), indexing="ij")
            w = [k * np.pi / L for k in modes]
            h = np.prod([np.sin(wk * x) for wk, x in zip(w, X)], axis=0)
            got = _poisson_gradient(-sum(wk ** 2 for wk in w) * h, L)
            assert len(got) == len(modes)
            for i, gi in enumerate(got):
                want = np.prod([wk * np.cos(wk * x) if k == i else np.sin(wk * x)
                                for k, (wk, x) in enumerate(zip(w, X))], axis=0)
                assert np.max(np.abs(gi - want)) < 1e-12

    def test_import_loads_no_scipy(self):
        # scipy is imported where a correction needs it, not with the package
        src = os.path.join(os.path.dirname(fs.__file__), os.pardir)
        env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
        code = ("import sys, flowsteer, flowsteer.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"


# The grid pass as it stood before its trims, kept as references: the
# trimmed pass must give the same bits.


def _ref_psi_value(w, x):
    r2 = np.sum(x * x, axis=-1) + w.alpha ** 2
    return r2 ** (-w.p)


def _ref_psi_grad(w, x):
    r2 = np.sum(x * x, axis=-1) + w.alpha ** 2
    return -2.0 * w.p * x * (r2 ** (-w.p - 1.0))[..., None]


def _ref_poisson_gradient(g, length):
    from scipy import fft

    n, d = g.shape[0], g.ndim
    k = np.pi * np.arange(1, n + 1) / length
    along = [[n if a == ax else 1 for a in range(d)] for ax in range(d)]
    H = -fft.dstn(g, type=1) / sum((k ** 2).reshape(shape) for shape in along)
    grads = []
    for ax in range(d):
        pad = [(1, 1) if a == ax else (0, 0) for a in range(d)]
        dh = fft.dct(np.pad(H * k.reshape(along[ax]), pad), type=1, axis=ax)
        dh = np.take(dh, np.arange(1, n + 1), axis=ax) / (2.0 * (n + 1))
        others = [a for a in range(d) if a != ax]
        grads.append(fft.idstn(dh, type=1, axes=others) if others else dh)
    return grads


def _spanning(rng, shape):
    """Values of both signs whose magnitudes span 1e-3 to 1e3."""
    return rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-3, 3, shape)


@pytest.mark.parametrize("shape", [(48, 48), (14, 14, 14)])
class TestGridPassBitwise:
    """Each trim of the correction's grid pass keeps the bits of the code it
    replaced, on 2-D and 3-D grids."""

    def test_psi_from_one_r2(self, shape):
        d = len(shape)
        x = _spanning(np.random.default_rng(11), shape + (d,)).reshape(-1, d)
        w = PsiWeight(PsiWeight.default_p(d), 1.7, d)
        psi, gpsi = w.value_and_grad(x)
        assert np.array_equal(psi, _ref_psi_value(w, x))
        assert np.array_equal(gpsi, _ref_psi_grad(w, x))
        assert np.array_equal(w.value(x), psi) and np.array_equal(w.grad(x), gpsi)
        assert w.value(x[5]) == _ref_psi_value(w, x[5])
        assert np.array_equal(w.grad(x[5]), _ref_psi_grad(w, x[5]))

    def test_source_and_residual_dots(self, shape):
        d = len(shape)
        rng = np.random.default_rng(12)
        gpsi = _spanning(rng, shape + (d,)).reshape(-1, d)
        vals = _spanning(rng, shape + (d,)).reshape(-1, d)
        assert np.array_equal(-_dot(gpsi.T, vals.T), -(np.sum(gpsi * vals, axis=1)))
        gp, Vt = _spanning(rng, shape + (d,)), _spanning(rng, shape + (d,))
        psi, divc = _spanning(rng, shape), _spanning(rng, shape)
        got = np.abs(_dot(list(np.moveaxis(gp, -1, 0)), list(np.moveaxis(Vt, -1, 0)))
                     + psi * divc)
        assert np.array_equal(got, np.abs(np.sum(gp * Vt, axis=-1) + psi * divc))

    def test_psi_from_the_axes(self, shape):
        # psi, q and grad psi broadcast from the axes, whole and by rows,
        # against value_and_grad on the stacked points
        d = len(shape)
        rng = np.random.default_rng(15)
        axes = [np.sort(_spanning(rng, n)) for n in shape]
        w = PsiWeight(PsiWeight.default_p(d), 1.7, d)
        psi, q = _radial_factors(w, axes)
        want_psi, want_grad = w.value_and_grad(_grid_points(axes))
        assert np.array_equal(psi.ravel(), want_psi)
        want_grad = want_grad.reshape(shape + (d,))
        for rows in (slice(None), slice(3, 9)):
            grad = _grad_psi(w, axes, q, rows)
            assert len(grad) == d
            for k in range(d):
                assert np.array_equal(grad[k], want_grad[rows][..., k])

    def test_audit_residual(self, shape, monkeypatch):
        # the audit's residual and divergence, by blocks of rows (the last
        # one not full) from component arrays, against the stacked form on
        # the whole grid they replaced
        d = len(shape)
        rng = np.random.default_rng(13)
        axes = [-1.0 + 0.1 * np.arange(n) for n in shape]
        box = Box([a[2] for a in axes], [a[-3] for a in axes])
        w = PsiWeight(PsiWeight.default_p(d), 1.7, d)
        vals = _spanning(rng, shape + (d,)).reshape(-1, d)
        psi, q, W = _spanning(rng, shape), _spanning(rng, shape), _spanning(rng, shape + (d,))
        x = _grid_points(axes).reshape(shape + (d,))
        gpsi = -2.0 * w.p * x * q[..., None]
        Vt = (vals + W.reshape(-1, d)).reshape(shape + (d,))
        divc = np.zeros(shape)
        inner = (slice(1, -1),) * d
        for k in range(d):
            up, dn = list(inner), list(inner)
            up[k], dn[k] = slice(2, None), slice(None, -2)
            divc[inner] += (Vt[tuple(up) + (k,)] - Vt[tuple(dn) + (k,)]) / (2.0 * 0.1)
        ok = np.zeros(shape, dtype=bool)
        ok[(slice(2, -2),) * d] = True
        residual = np.abs(np.sum(gpsi * Vt, axis=-1) + psi * divc)
        want = (float(np.max(residual[ok])), float(np.max(np.abs(divc[ok]))))
        vals = np.moveaxis(vals.reshape(shape + (d,)), -1, 0)
        for block in (1, 5, correction._BLOCK):
            monkeypatch.setattr(correction, "_BLOCK", block)
            assert _audit_grids(box, axes, 0.1, vals, w, psi, q, np.moveaxis(W, -1, 0)) == want

    def test_poisson_gradient_in_place(self, shape):
        g = _spanning(np.random.default_rng(14), shape)
        want = _ref_poisson_gradient(g.copy(), 7.3)
        got = _poisson_gradient(g.copy(), 7.3)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


class TestCorrect:
    def test_working_set(self, cellular):
        # correct's traced peak at resolution 256 is at most 10 grid arrays;
        # it was 14.7 while grad psi, the audit's grids and both the nodes and
        # their coefficients were alive at once
        settings = CorrectionSettings(box=BOX4, resolution=256, strict=False)
        fs.correct(cellular, 0.1, settings=CorrectionSettings(box=BOX4, resolution=16,
                                                              strict=False))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fs.correct(cellular, 0.1, settings=settings)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 256 ** 2 * 8

    def test_rotation_correction_is_identity(self, rotation):
        res = fs.correct(rotation, 0.1, settings=CorrectionSettings(
            box=Box((-2, -2), (2, 2)), resolution=64))
        assert res.sup_delta < 1e-14
        assert res.div_residual < 1e-12

    def test_zero_field(self):
        V = fs.builtin_field("zero", dim=2)
        res = fs.correct(V, 0.1, settings=CorrectionSettings(
            box=Box((-1, -1), (1, 1)), resolution=32))
        assert res.sup_delta == 0.0
        pts = np.random.default_rng(0).uniform(-1, 1, (20, 2))
        assert np.all(res.field.eval(pts) == 0.0)

    def test_cellular_contract(self, cellular):
        res = fs.correct(cellular, 0.1, settings=CorrectionSettings(
            box=BOX4, resolution=256))
        assert res.sup_delta < 0.1
        assert res.div_residual < 1e-6
        assert res.div_tilde_sup < 0.1
        assert res.alpha_used >= BOX4.diameter

    def test_non_divergence_free_rejected(self):
        V = fs.expression_field(["x", "y"], region=Box((-1, -1), (1, 1)))
        with pytest.raises(ValueError):
            fs.correct(V, 0.1, settings=CorrectionSettings(
                box=Box((-1, -1), (1, 1)), resolution=32))

    def test_coarse_grid_failure_surfaces_in_report(self, cellular, monkeypatch):
        monkeypatch.setattr(correction, "_RESIDUAL_TOL", 1e-10)
        settings = CorrectionSettings(box=BOX4, resolution=12, strict=False)
        res = fs.correct(cellular, 0.1, None, settings)
        assert not res.passed and "ResidualTooLarge" in res.failure
        report = fs.certify_proposition(cellular, res, 0.1, box=Box((0.5, 0.5), (2.5, 2.5)),
                                        n_points=4, T_max=30.0)
        assert not report.passed
        assert not report.items["weighted_div_residual"]["pass"]

    def test_strict_mode_raises(self, cellular, monkeypatch):
        monkeypatch.setattr(correction, "_RESIDUAL_TOL", 1e-10)
        with pytest.raises(fs.ResidualTooLarge):
            fs.correct(cellular, 0.1, None, CorrectionSettings(box=BOX4, resolution=12))

    def test_descriptor_roundtrip(self, cellular):
        res = fs.correct(cellular, 0.1, settings=CorrectionSettings(
            box=BOX4, resolution=64, strict=False))
        back = fs.build_field(res.field.descriptor)
        pts = np.random.default_rng(1).uniform(-10, 10, (50, 2))
        assert np.array_equal(back.eval(pts), res.field.eval(pts))


@pytest.fixture(scope="module")
def cellular_correction(cellular, correction_nodes):
    res = fs.correct(cellular, 0.1, settings=CorrectionSettings(
        box=BOX4, resolution=128, strict=False))
    desc = res.field.descriptor
    _, W = correction_nodes(cellular, res)
    return res, _CubicSpline(desc["axes"], desc["coefs"]), W


class TestCubicSpline:
    """The corrected field's correction W is the cubic B-spline of its nodes."""

    def test_reproduces_the_nodes(self, cellular_correction):
        res, spline, W = cellular_correction
        axes = res.field.descriptor["axes"]
        nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
        err = np.max(np.abs(spline(nodes) - W.reshape(-1, 2)))
        assert err <= 1e-13 * np.max(np.abs(W))

    def test_field_is_v_plus_spline(self, cellular_correction, cellular):
        res, spline, _ = cellular_correction
        pts = np.random.default_rng(4).uniform(-15, 15, (200, 2))
        assert np.array_equal(res.field.eval(pts), cellular.eval(pts) + spline(pts))

    def test_constant_outside_the_box(self, cellular_correction):
        res, spline, _ = cellular_correction
        lo = np.array(res.grid_meta["padded_lo"])
        hi = np.array(res.grid_meta["padded_hi"])
        y = np.random.default_rng(5).uniform(lo[1], hi[1], 20)
        for x0, x1 in ((lo[0] - 1.0, lo[0] - 7.0), (hi[0] + 0.5, hi[0] + 40.0)):
            near = spline(np.stack([np.full_like(y, x0), y], axis=1))
            far = spline(np.stack([np.full_like(y, x1), y], axis=1))
            assert np.array_equal(near, far)
        corner = spline(np.array([[hi[0] + 3.0, hi[1] + 3.0], [hi[0] + 9.0, hi[1] + 1.0]]))
        assert np.array_equal(corner[0], corner[1])
        # a NaN coordinate clamps to a corner instead of reading out of range
        assert np.all(np.isfinite(spline(np.array([np.nan, 0.0]))))

    def test_samples_stay_under_the_coefficient_bounds(self, cellular_correction):
        res, spline, _ = cellular_correction
        assert res.sup_bound == spline.sup_bound < 0.1
        assert res.sup_delta <= res.sup_bound
        lo = np.array(res.grid_meta["padded_lo"])
        hi = np.array(res.grid_meta["padded_hi"])
        rng = np.random.default_rng(6)
        pts = lo - 1.0 + rng.random((4000, 2)) * (hi - lo + 2.0)
        vals = spline(pts)
        assert np.max(np.linalg.norm(vals, axis=1)) <= spline.sup_bound
        # far pairs and near pairs, whose quotients approach |DW|
        for step in (1.0, 1e-3):
            other = pts + step * rng.standard_normal(pts.shape)
            quot = (np.linalg.norm(spline(other) - vals, axis=1)
                    / np.linalg.norm(other - pts, axis=1))
            assert np.max(quot) <= spline.lip_bound
        assert np.max(quot) > 0.2 * spline.lip_bound
        assert res.field.lip_bound >= fs.builtin_field("cellular").lip_bound + spline.lip_bound

    @pytest.mark.parametrize("shape", [(23, 17), (9, 11, 7)])
    def test_bounds_equal_the_stacked_norms(self, shape, monkeypatch):
        # the per-component sums of squares, by blocks of rows (the last one
        # not full at block 4), have the bits of the norm of the stacked
        # vectors over the whole grid
        d = len(shape)
        rng = np.random.default_rng(8)
        axes = [-1.0 + 0.25 * np.arange(n) for n in shape]
        W = rng.standard_normal(shape + (d,)) * 10.0 ** rng.uniform(-3, 3, shape + (d,))
        # filtered in place in one component-major array, the coefficients
        # keep the bits of one filter per component into a new array
        from scipy import ndimage

        c = np.stack(np.moveaxis(W, -1, 0))
        _bspline_coefficients(c)
        for k in range(d):
            assert np.array_equal(c[k], ndimage.spline_filter(W[..., k], order=3, mode="mirror"))
        c = np.moveaxis(c, 0, -1)
        for block in (1, 4, correction._BLOCK):
            monkeypatch.setattr(correction, "_BLOCK", block)
            spline = _CubicSpline(axes, np.stack(np.moveaxis(c, -1, 0)))
            assert spline.sup_bound == float(np.max(np.linalg.norm(c, axis=-1)))
            step = max(float(np.max(np.linalg.norm(np.diff(c, axis=k), axis=-1)) / spline.dx[k])
                       for k in range(d))
            assert spline.lip_bound == float(np.sqrt(d) * step)
            assert _max_norm(np.moveaxis(W, -1, 0)) == float(
                np.max(np.linalg.norm(W, axis=-1)))

    def test_row_alone_equals_row_in_batch(self, cellular_correction):
        res, spline, _ = cellular_correction
        pts = np.random.default_rng(7).uniform(-14, 14, (33, 2))
        batch = res.field.eval(pts)
        for i in (0, 5, 32):
            assert np.array_equal(res.field.eval(pts[i]), batch[i])
            assert np.array_equal(res.field.eval(pts[i:i + 2])[0], batch[i])

    def test_malformed_grid_rejected(self, cellular_correction):
        res, _, _ = cellular_correction
        axes, c = res.field.descriptor["axes"], res.field.descriptor["coefs"]
        stretched = [axes[0] ** 3, axes[1]]
        reversed_ = [a[::-1] for a in axes]
        node_major = np.moveaxis(c, 0, -1)
        for bad_axes, bad_c in ((axes, c[:, :-1]), (stretched, c), (reversed_, c),
                                (axes, node_major)):
            with pytest.raises(fs.FieldConstructionError):
                _CubicSpline(bad_axes, bad_c)

    def test_correct_does_not_pack_the_nodes(self, cellular, monkeypatch):
        """The descriptor keeps the coefficients as an array; only the JSON
        form of a schedule packs them."""
        def boom(a):
            raise AssertionError("packed during correct")

        monkeypatch.setattr(jsonio, "pack_array", boom)
        res = fs.correct(cellular, 0.1, settings=CorrectionSettings(
            box=BOX4, resolution=64, strict=False))
        assert isinstance(res.field.descriptor["coefs"], np.ndarray)
        with pytest.raises(AssertionError, match="packed"):
            jsonio.packed(res.field.descriptor)


class TestRebuild:
    """A corrected field rebuilds from its descriptor's coefficients, and
    refuses coefficients it cannot bound and the older node form."""

    @pytest.fixture(scope="class")
    def small(self, cellular):
        return fs.correct(cellular, 0.1, settings=CorrectionSettings(
            box=BOX4, resolution=32, strict=False))

    def test_non_finite_coefficient_rejected(self, small):
        desc = small.field.descriptor
        for bad in (np.nan, np.inf, -np.inf):
            coefs = desc["coefs"].copy()
            coefs[1, 5, 7] = bad
            for form in ({**desc, "coefs": coefs}, jsonio.packed({**desc, "coefs": coefs})):
                with pytest.raises(fs.FieldConstructionError, match="finite"):
                    fs.build_field(form)

    @pytest.mark.parametrize("at", [(0, 0, 0), (1, 31, 2), (0, 30, 31)])
    def test_non_finite_coefficient_in_any_block_rejected(self, small, at, monkeypatch):
        # the bound passes run over blocks of 5 rows: a NaN or inf in the
        # first, the last (not full) or an inner block still makes a bound
        # non-finite
        monkeypatch.setattr(correction, "_BLOCK", 5)
        desc = small.field.descriptor
        for bad in (np.nan, np.inf, -np.inf):
            coefs = desc["coefs"].copy()
            coefs[at] = bad
            with pytest.raises(fs.FieldConstructionError, match="finite"):
                correction.corrected_field_from_descriptor({**desc, "coefs": coefs})

    def test_node_form_refused(self, small, cellular, correction_nodes):
        _, W = correction_nodes(cellular, small)
        old = {k: v for k, v in small.field.descriptor.items() if k != "coefs"}
        old["values"] = W
        for form in (old, jsonio.packed(old)):
            with pytest.raises(fs.FieldConstructionError, match="'values'.*format before"):
                fs.build_field(form)


class TestWeightedDivfree:
    def test_rotation_with_radial_weight(self, rotation):
        w = PsiWeight(0.75, 2.0, 2)
        pts = np.random.default_rng(2).uniform(-1.5, 1.5, (100, 2))
        assert fs.check_weighted_divfree(rotation, w, pts, 1e-4) < 1e-9

    def test_constant_field_closed_form(self):
        c = np.array([0.6, -0.8])
        V = fs.builtin_field("constant", c=c)
        w = PsiWeight(0.75, 1.5, 2)
        pts = np.random.default_rng(3).uniform(-2, 2, (200, 2))
        got = fs.check_weighted_divfree(V, w, pts, 1e-4)
        want = float(np.max(np.abs(np.sum(w.grad(pts) * c, axis=1))))
        assert got == pytest.approx(want, abs=1e-6)
        assert got > 0.0

    def test_corrected_field_consistent_with_result(self, cellular):
        res = fs.correct(cellular, 0.1, settings=CorrectionSettings(
            box=BOX4, resolution=256))
        meta = res.grid_meta
        lo = np.asarray(meta["padded_lo"])
        dx = meta["spacing"]
        n = meta["resolution"]
        axes = lo[0] + dx * np.arange(1, n + 1)
        inner = axes[(axes >= -4 * np.pi) & (axes <= 4 * np.pi)][1:-1:7]
        pts = np.stack(np.meshgrid(inner, inner, indexing="ij"), axis=-1).reshape(-1, 2)
        got = fs.check_weighted_divfree(res.field, res.psi, pts, dx)
        assert got <= res.div_residual * (1 + 1e-9)

    def test_rejects_bad_step(self, rotation):
        with pytest.raises(ValueError):
            fs.check_weighted_divfree(rotation, PsiWeight(0.75, 1.0, 2),
                                      np.zeros((1, 2)), 0.0)


class TestRefinement:
    def test_cellular_refinement_stable(self, cellular):
        d = refinement_delta(cellular, 0.1, CorrectionSettings(box=BOX4, resolution=256))
        assert d < 1e-7


class TestCertify:
    def test_rotation_all_items_pass(self, rotation, monkeypatch):
        monkeypatch.setattr(correction, "_RETURN_RADIUS", 1e-3)
        res = fs.correct(rotation, 0.1, settings=CorrectionSettings(
            box=Box((-2, -2), (2, 2)), resolution=64))
        report = fs.certify_proposition(rotation, res, 0.1,
                                        box=Box((-1, -1), (1, 1)),
                                        n_points=10, T_max=10.0)
        assert report.passed
        assert report.items["recurrence_fraction"]["value"] == 1.0
        assert "proxy" in report.items["recurrence_fraction"]["note"]


class TestSymmetry:
    def test_odd_field_gives_odd_correction(self, cellular):
        # the cellular flow is odd under x -> -x; the corrected field
        # inherits that symmetry
        res = fs.correct(cellular, 0.1, settings=CorrectionSettings(
            box=BOX4, resolution=256))
        rng = np.random.default_rng(8)
        pts = rng.uniform(-10, 10, (300, 2))
        left = res.field.eval(pts)
        right = -res.field.eval(-pts)
        assert np.max(np.linalg.norm(left - right, axis=1)) < 1e-8

    def test_alpha_history_recorded_and_monotone(self, cellular):
        res = fs.correct(cellular, 0.1, settings=CorrectionSettings(
            box=BOX4, resolution=64, strict=False))
        hist = res.grid_meta["alpha_history"]
        assert hist[-1]["sup_delta"] == res.sup_delta
        deltas = [h["sup_delta"] for h in hist]
        assert all(b <= a for a, b in zip(deltas, deltas[1:]))


class TestThreeDimensional:
    def test_abc_field_correction(self):
        V = fs.builtin_field("abc", a=1.0, b=1.0, c=1.0)
        box = Box((-2 * np.pi,) * 3, (2 * np.pi,) * 3)
        res = fs.correct(V, 0.5, settings=CorrectionSettings(
            box=box, resolution=48))
        assert res.psi.p == pytest.approx(1.25)  # midpoint of (1, 1.5)
        assert res.sup_delta < 0.5
        assert res.div_residual < 1e-6
        assert res.div_tilde_sup < 0.5
        # corrected field still matches the base away from strong weight
        pts = np.random.default_rng(0).uniform(-3, 3, (50, 3))
        dev = np.linalg.norm(res.field.eval(pts) - V.eval(pts), axis=1)
        assert np.max(dev) <= res.sup_delta * (1 + 1e-9)
