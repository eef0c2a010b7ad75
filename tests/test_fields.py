from __future__ import annotations

import dataclasses
import json
import math
import operator
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import flowsteer as fs
from flowsteer import jsonio
from flowsteer.fields import ScalarField2D, cellular_stream
from flowsteer.sampling import Box


def central_divergence(field, x, h=1e-5):
    """Independent finite-difference divergence oracle."""
    x = np.asarray(x, dtype=float)
    total = 0.0
    for i in range(field.dim):
        e = np.zeros(field.dim)
        e[i] = h
        total += (field.eval(x + e)[i] - field.eval(x - e)[i]) / (2 * h)
    return total


class TestStreamFunction:
    def test_sin_sin_stream(self):
        h = ScalarField2D(
            value=lambda x: np.sin(x[..., 0]) * np.sin(x[..., 1]),
            grad=lambda x: np.stack([np.cos(x[..., 0]) * np.sin(x[..., 1]),
                                     np.sin(x[..., 0]) * np.cos(x[..., 1])], axis=-1))
        V = fs.from_stream_function_2d(h)
        x = np.array([0.4, -1.1])
        want = np.array([np.sin(0.4) * np.cos(-1.1), -np.cos(0.4) * np.sin(-1.1)])
        assert np.allclose(V.eval(x), want, atol=1e-14)

    def test_hessian_gives_the_cellular_jacobian(self, rng):
        def hess(x):
            s = np.sin(x[..., 0]) * np.sin(x[..., 1])
            c = np.cos(x[..., 0]) * np.cos(x[..., 1])
            return np.stack([np.stack([-s, c], axis=-1), np.stack([c, -s], axis=-1)], axis=-2)

        h = ScalarField2D(
            value=lambda x: np.sin(x[..., 0]) * np.sin(x[..., 1]),
            grad=lambda x: np.stack([np.cos(x[..., 0]) * np.sin(x[..., 1]),
                                     np.sin(x[..., 0]) * np.cos(x[..., 1])], axis=-1),
            hess=hess)
        V = fs.from_stream_function_2d(h, sup_bound=1.0, lip_bound=1.0)
        cellular = fs.builtin_field("cellular")
        pts = rng.uniform(-4.0, 4.0, (50, 2))
        assert np.array_equal(V.jac(pts), cellular.jac(pts))
        assert np.array_equal(V.jac(pts[0]), cellular.jac(pts[0]))
        assert np.allclose(V.jac(pts[0]), V.fd_jacobian(pts[0]), atol=1e-9)

    def test_zero_stream_gives_zero_field(self):
        h = ScalarField2D(value=lambda x: 0.0 * x[..., 0],
                          grad=lambda x: np.zeros_like(x))
        V = fs.from_stream_function_2d(h)
        assert np.all(V.eval(np.array([2.0, 3.0])) == 0.0)

    def test_quadratic_stream_is_rotation(self, rng):
        h = ScalarField2D(value=lambda x: (x[..., 0] ** 2 + x[..., 1] ** 2) / 2,
                          grad=lambda x: x.copy())
        V = fs.from_stream_function_2d(h)
        x = np.array([0.3, 0.7])
        assert np.allclose(V.eval(x), [0.7, -0.3], atol=1e-14)
        # divergence oracle at 100 random points
        for p in rng.uniform(-1, 1, (100, 2)):
            assert abs(central_divergence(V, p, 1e-4)) < 1e-10

    def test_missing_gradient_rejected(self):
        with pytest.raises(fs.FieldConstructionError):
            fs.from_stream_function_2d(ScalarField2D(value=lambda x: x[..., 0]))

    def test_builder_fields_divergence_free_on_box(self, cellular, rng):
        for p in rng.uniform(-3, 3, (1000, 2)):
            assert abs(central_divergence(cellular, p, 1e-4)) < 1e-6


class TestVectorPotential:
    def test_hand_curl(self):
        # A = (0, 0, x*y) -> curl A = (x, -y, 0)
        def jac(x):
            J = np.zeros(x.shape[:-1] + (3, 3))
            J[..., 2, 0] = x[..., 1]
            J[..., 2, 1] = x[..., 0]
            return J

        V = fs.from_vector_potential_3d(lambda x: 0, jac)
        out = V.eval(np.array([2.0, 5.0, -1.0]))
        assert np.allclose(out, [2.0, -5.0, 0.0], atol=1e-14)

    def test_zero_potential(self):
        V = fs.from_vector_potential_3d(
            lambda x: 0, lambda x: np.zeros(x.shape[:-1] + (3, 3)))
        assert np.all(V.eval(np.array([1.0, 2.0, 3.0])) == 0.0)

    def test_abc_potential_divergence(self, rng):
        # the ABC field is its own curl: use it as the potential
        abc = fs.builtin_field("abc", a=1.0, b=1.0, c=1.0)

        def jac(x):
            x = np.asarray(x, dtype=float)
            J = np.zeros(x.shape[:-1] + (3, 3))
            J[..., 0, 2] = np.cos(x[..., 2])
            J[..., 0, 1] = -np.sin(x[..., 1])
            J[..., 1, 0] = np.cos(x[..., 0])
            J[..., 1, 2] = -np.sin(x[..., 2])
            J[..., 2, 1] = np.cos(x[..., 1])
            J[..., 2, 0] = -np.sin(x[..., 0])
            return J

        V = fs.from_vector_potential_3d(abc.eval, jac)
        for p in rng.uniform(-2, 2, (100, 3)):
            assert abs(central_divergence(V, p, 1e-4)) < 1e-8
        assert np.allclose(V.eval(np.zeros(3)), abc.eval(np.zeros(3)), atol=1e-12)

    def test_missing_jacobian_rejected(self):
        with pytest.raises(fs.FieldConstructionError):
            fs.from_vector_potential_3d(lambda x: x, None)


class TestEstimateDivergence:
    def test_rotation_solenoidal(self, rotation):
        assert abs(fs.estimate_divergence(rotation, [0.3, -0.2], 1e-3)) < 1e-9

    def test_identity_field_divergence_is_dim(self):
        V = fs.expression_field(["x", "y"])
        assert fs.estimate_divergence(V, [1.3, -0.4], 1e-4) == pytest.approx(2.0, abs=1e-6)

    def test_cellular_at_spec_point(self, cellular, rng):
        assert abs(fs.estimate_divergence(cellular, [0.7, 1.1], 1e-3)) < 1e-8
        # a batch of points gives each point's own value, bitwise
        pts = np.vstack([[0.7, 1.1], rng.uniform(-3.0, 3.0, (50, 2))])
        one_by_one = [fs.estimate_divergence(cellular, x, 1e-3) for x in pts]
        assert np.array_equal(fs.estimate_divergence(cellular, pts, 1e-3), one_by_one)

    def test_rejects_bad_step(self, cellular):
        with pytest.raises(ValueError):
            fs.estimate_divergence(cellular, [0.0, 0.0], 0.0)

    def test_is_the_diagonal_of_the_central_differences(self, rng):
        """The divergence is the fallback Jacobian's diagonal, added to 0.0
        in index order, and each term is the one-component difference
        quotient, bitwise, at a point and in a batch; every component moves
        with its own coordinate, so no term is zero."""
        V = fs.expression_field(["x*y*z + sin(x)", "sin(x*y) + y^2", "y*z + exp(z/3)"],
                                1.0, 1.0)
        pts = rng.uniform(-3.0, 3.0, (40, 3))
        for x in (pts[0], pts):
            J = V.fd_jacobian(x)
            diagonal = 0.0
            for i in range(3):
                diagonal += J[..., i, i]
            own = 0.0
            for i in range(3):
                e = np.zeros(3)
                e[i] = 1e-6
                own += (V.eval(x + e)[..., i] - V.eval(x - e)[..., i]) / 2e-6
            div = fs.estimate_divergence(V, x, 1e-6)
            assert np.array_equal(div, diagonal) and np.array_equal(div, own)
        assert isinstance(fs.estimate_divergence(V, pts[0], 1e-6), float)


class TestEstimateNorms:
    def test_constant_field(self):
        V = fs.builtin_field("constant", c=[3.0, 4.0])
        sup, lip = fs.estimate_norms(V, Box((-1, -1), (1, 1)), 500, seed=1)
        assert sup == pytest.approx(5.0, abs=1e-12)
        assert lip <= 1e-9

    def test_zero_field(self):
        V = fs.builtin_field("zero", dim=2)
        sup, lip = fs.estimate_norms(V, Box((-1, -1), (1, 1)), 100, seed=1)
        assert (sup, lip) == (0.0, 0.0)

    def test_rotation_norms_converge(self, rotation):
        sup, lip = fs.estimate_norms(rotation, Box((-1, -1), (1, 1)), 100_000, seed=0)
        assert sup == pytest.approx(np.sqrt(2.0), rel=0.05)
        assert lip == pytest.approx(1.0, rel=0.05)

    def test_monotone_in_samples(self, cellular):
        box = Box((-2, -2), (2, 2))
        prev = (0.0, 0.0)
        for n in (100, 1000, 5000):
            cur = fs.estimate_norms(cellular, box, n, seed=9)
            assert cur[0] >= prev[0] and cur[1] >= prev[1]
            prev = cur

    def test_declared_bounds_dominate_samples(self, cellular):
        sup, lip = fs.estimate_norms(cellular, Box((-3, -3), (3, 3)), 20_000, seed=2)
        assert sup <= cellular.sup_bound * (1 + 1e-9)
        assert lip <= cellular.lip_bound * (1 + 1e-9)


class TestMeanDrift:
    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.1, 50.0), st.floats(-5, 5), st.floats(-5, 5))
    def test_constant_field_exact(self, ell, c1, c2):
        V = fs.builtin_field("constant", c=[c1, c2])
        got = fs.mean_drift(V, ell, [[0.0, 0.0], [3.0, -1.0]], resolution=8)
        assert got == pytest.approx(np.hypot(c1, c2), abs=1e-12)

    def test_cellular_period_box(self, cellular):
        anchors = [[0.0, 0.0], [1.0, 2.0], [-0.5, 0.3]]
        assert fs.mean_drift(cellular, 2 * np.pi, anchors) < 1e-6

    def test_rotation_closed_form(self, rotation):
        a = np.array([0.7, -0.4])
        want = np.hypot(a[1] + 0.5, -a[0] - 0.5)
        got = fs.mean_drift(rotation, 1.0, [a], resolution=64)
        assert got == pytest.approx(want, abs=1e-6)

    def test_empty_anchors_rejected(self, rotation):
        with pytest.raises(ValueError):
            fs.mean_drift(rotation, 1.0, np.zeros((0, 2)))


class TestCheckVMD:
    def test_constant_nonvanishing(self, unit_constant):
        report = fs.check_vmd(unit_constant, [2 * np.pi, 4 * np.pi], 0.1)
        assert report.verdict == "nonvanishing"

    def test_cellular_vanishing(self, cellular):
        report = fs.check_vmd(cellular, [2 * np.pi, 4 * np.pi, 8 * np.pi], 0.02)
        assert report.verdict == "vanishing"
        assert report.drifts[-1] < 1e-9

    def test_shear_vanishing(self):
        shear = fs.builtin_field("shear")
        report = fs.check_vmd(shear, [2 * np.pi, 4 * np.pi], 0.02)
        assert report.verdict == "vanishing"
        assert max(report.drifts) < 1e-6

    def test_schedule_must_increase(self, cellular):
        with pytest.raises(ValueError):
            fs.check_vmd(cellular, [4.0, 2.0], 0.1)

    def test_report_json_shape(self, cellular):
        report = fs.check_vmd(cellular, [2 * np.pi], 0.1)
        js = report.to_json()
        assert js["verdict"] == "vanishing"
        assert js["entries"][0]["l"] == pytest.approx(2 * np.pi)


class TestExpressionField:
    def test_matches_lambda(self, rng):
        V = fs.expression_field(["sin(x)*cos(y)", "-cos(x)*sin(y)"])
        for p in rng.uniform(-3, 3, (50, 2)):
            want = [np.sin(p[0]) * np.cos(p[1]), -np.cos(p[0]) * np.sin(p[1])]
            assert np.allclose(V.eval(p), want, atol=1e-14)

    def test_powers_and_division(self):
        V = fs.expression_field(["x^2 - y/2", "exp(x) + 1"])
        out = V.eval(np.array([1.0, 4.0]))
        assert out[0] == pytest.approx(-1.0)
        assert out[1] == pytest.approx(np.e + 1.0)

    def test_unary_minus_and_pi(self):
        V = fs.expression_field(["-x + pi", "y"])
        assert V.eval(np.array([1.0, 2.0]))[0] == pytest.approx(np.pi - 1.0)

    @pytest.mark.parametrize("text,want", [
        ("-x^2", -(3.0 ** 2.0)),
        ("-2^2", -(2.0 ** 2.0)),
        ("2^3^2", 2.0 ** (3.0 ** 2.0)),
        ("x^-1", 3.0 ** -1.0),
        ("+x - -y", 3.0 - -2.0),
        ("x^2 - y/2", 3.0 ** 2.0 - 2.0 / 2.0),
    ])
    def test_precedence_without_parentheses(self, text, want):
        # ^ is right-associative and binds tighter than unary minus
        V = fs.expression_field([text, "y"])
        assert V.eval(np.array([3.0, 2.0]))[0] == want
        assert V.eval(np.array([[3.0, 2.0], [3.0, 2.0]]))[1, 0] == want

    @pytest.mark.parametrize("bad", [
        "x +", "foo(x)", "(x", "1.2.3", "1e", "x**2", "x @ y", "x % y", "x # y",
        "sin(x,)", "sin(x, y)", "sin", "x.real", "x[0]", "True", "1j",
        "x if y else 1", "__import__('os')", "x) + (y", "007", "",
    ])
    def test_rejects_bad_expressions(self, bad):
        with pytest.raises(fs.FieldConstructionError):
            fs.expression_field([bad, "y"])

    @pytest.mark.parametrize("text,subexpression", [("x + 1/0", "1 / 0"),
                                                     ("x + 10^400", "10 ^ 400"),
                                                     ("x + (-8)^(1/3)", "(-8) ^ (1 / 3)")])
    def test_failing_constant_refused_at_construction(self, text, subexpression):
        # each used to fail only at evaluation (ZeroDivisionError,
        # OverflowError) or to read the real part of a complex constant
        with pytest.raises(fs.FieldConstructionError, match=re.escape(repr(subexpression))):
            fs.expression_field([text, "y"], sup_bound=1, lip_bound=1)

    @pytest.mark.parametrize("text,plain", [(" x", "x"), ("x +\n y", "x + y"),
                                            ("\tx", "x")])
    def test_whitespace_is_free(self, text, plain):
        pts = np.array([[0.5, -1.5], [2.0, 0.25]])
        assert np.array_equal(fs.expression_field([text, "y"]).eval(pts),
                              fs.expression_field([plain, "y"]).eval(pts))

    @pytest.mark.parametrize("text,want", [("2", 2.0), ("2.", 2.0), (".5", 0.5),
                                           ("1E-3", 1e-3), ("1e+2", 100.0),
                                           ("1_000", 1000.0), ("0x1f", 31.0)])
    def test_number_forms(self, text, want):
        assert fs.expression_field([text, "y"]).eval(np.zeros(2))[0] == want

    def test_rebuild_keeps_bounds_and_box(self, rng):
        V = fs.expression_field(["y", "-x"], region=Box((-5, -5), (5, 5)))
        W = fs.build_field(json.loads(jsonio.dumps(V.descriptor)))
        assert (W.sup_bound, W.lip_bound) == (V.sup_bound, V.lip_bound)
        assert W.domain_box == V.domain_box
        assert V.sup_bound >= np.hypot(4.0, 4.0)
        pts = rng.uniform(-5.0, 5.0, (64, 2))
        assert np.array_equal(W.eval(pts), V.eval(pts))


def _leaf(name):
    i = "xy".index(name)
    return f"({name})", lambda c: c[i], "var"


def _const(v):
    return f"({v!r})", lambda c: v, "const"


def _tree(text, fn, *parts):
    """(text, fn, kind) of a tree built on ``parts``; its kind is "var" when
    it reads a coordinate, else "bad" when its value fails or is not a
    finite real, which the reader refuses to construct, else "const"."""
    kinds = [p[2] for p in parts]
    if "bad" in kinds or "var" in kinds:
        return text, fn, "bad" if "bad" in kinds else "var"
    try:
        with np.errstate(all="ignore"):
            v = fn(None)
    except ArithmeticError:
        return text, fn, "bad"
    return text, fn, "const" if isinstance(v, float) and math.isfinite(v) else "bad"


def _binary(sym, op, a, b):
    return _tree(f"({a[0]} {sym} {b[0]})", lambda c: op(a[1](c), b[1](c)), a, b)


def _negative(a):
    return _tree(f"(-{a[0]})", lambda c: -a[1](c), a)


def _call(name, a):
    f = getattr(np, name)
    return _tree(f"{name}({a[0]})", lambda c: f(a[1](c)), a)


# fully parenthesized trees as (text, the same tree applied with numpy, kind)
_TREES = st.recursive(
    st.one_of(st.sampled_from("xy").map(_leaf),
              st.floats(-8.0, 8.0).map(_const)),
    lambda sub: st.one_of(
        st.builds(lambda t, a, b: _binary(*t, a, b),
                  st.sampled_from([("+", operator.add), ("-", operator.sub),
                                   ("*", operator.mul), ("/", operator.truediv),
                                   ("^", operator.pow)]), sub, sub),
        sub.map(_negative),
        st.builds(_call, st.sampled_from(["sin", "cos", "exp"]), sub)),
    max_leaves=10)


def _outcome(fn):
    """``fn()``'s bytes, or the type of what it raised."""
    try:
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return fn().tobytes()
    except Exception as e:
        return type(e)


class TestExpressionTrees:
    @settings(max_examples=200, deadline=None)
    @given(_TREES, _TREES)
    def test_reader_builds_the_tree(self, t0, t1):
        # a constant subtree is evaluated once, when the field is built, and
        # one that fails refuses the construction
        if "bad" in (t0[2], t1[2]):
            with pytest.raises(fs.FieldConstructionError):
                fs.expression_field([t0[0], t1[0]], sup_bound=1.0, lip_bound=1.0)
            return
        V = fs.expression_field([t0[0], t1[0]], sup_bound=1.0, lip_bound=1.0)
        pts = np.random.default_rng(5).uniform(-3.0, 3.0, (16, 2))

        def direct(x):
            coords = [x[..., 0], x[..., 1]]
            return np.stack([np.broadcast_to(np.asarray(t[1](coords), dtype=float),
                                             x[..., 0].shape) for t in (t0, t1)], axis=-1)

        for x in [pts, *pts[:4]]:
            assert _outcome(lambda: V.eval(x)) == _outcome(lambda: direct(x))


class TestGridField:
    def test_exact_at_nodes_and_linear_between(self):
        ax = np.linspace(0.0, 1.0, 5)
        vals = np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1)  # identity field
        V = fs.grid_field((ax, ax), vals)
        assert np.allclose(V.eval(np.array([0.5, 0.25])), [0.5, 0.25], atol=1e-14)
        assert np.allclose(V.eval(np.array([0.37, 0.91])), [0.37, 0.91], atol=1e-14)

    def test_text_roundtrip_is_bitwise(self, cellular, rng):
        ax = np.linspace(0.0, 2 * np.pi, 41)
        X, Y = np.meshgrid(ax, ax, indexing="ij")
        G = fs.grid_field((ax, ax), cellular.eval(np.stack([X, Y], axis=-1)))
        W = fs.build_field(json.loads(jsonio.dumps(jsonio.packed(G.descriptor))))
        assert (W.sup_bound, W.lip_bound, W.domain_box) == (G.sup_bound, G.lip_bound,
                                                            G.domain_box)
        pts = rng.uniform(-1.0, 7.0, (200, 2))
        assert np.array_equal(W.eval(pts), G.eval(pts))

    def test_constant_extension_outside(self):
        ax = np.linspace(0.0, 1.0, 3)
        vals = np.zeros((3, 3, 2))
        vals[..., 0] = np.linspace(0, 1, 3)[:, None]
        V = fs.grid_field((ax, ax), vals)
        assert V.eval(np.array([5.0, 0.5]))[0] == pytest.approx(1.0)
        assert V.eval(np.array([-5.0, 0.5]))[0] == pytest.approx(0.0)

    def test_shape_mismatch_rejected(self):
        ax = np.linspace(0, 1, 4)
        with pytest.raises(fs.FieldConstructionError):
            fs.grid_field((ax, ax), np.zeros((4, 3, 2)))

    def test_batch_matches_single(self, rng):
        ax = np.linspace(-1, 1, 7)
        vals = rng.normal(size=(7, 7, 2))
        V = fs.grid_field((ax, ax), vals)
        pts = rng.uniform(-1.5, 1.5, (40, 2))
        batch = V.eval(pts)
        singles = np.stack([V.eval(p) for p in pts])
        assert np.array_equal(batch, singles)

    @staticmethod
    def _corner_sum(axes, values, x):
        """One point's multilinear interpolation, written out corner by
        corner: a search on each axis, weights multiplied over the axes in
        order and corners added from zero."""
        idx, frac = [], []
        for a, xk in zip(axes, x):
            j = min(max(int(np.searchsorted(a, xk, side="right")) - 1, 0), len(a) - 2)
            t = (xk - a[j]) / (a[j + 1] - a[j])
            idx.append(j)
            frac.append(min(max(t, 0.0), 1.0))
        d = len(axes)
        out = np.zeros(d)
        for c in range(1 << d):
            w = 1.0
            node = []
            for k in range(d):
                up = c >> k & 1
                w = w * (frac[k] if up else 1.0 - frac[k])
                node.append(idx[k] + up)
            out = out + w * values[tuple(node)]
        return out

    @pytest.mark.parametrize("grid", ["uniform2d", "uniform3d", "stretched2d"])
    def test_kernel_matches_corner_sum(self, grid):
        rng = np.random.default_rng(11)
        axes = {
            "uniform2d": (np.linspace(-1.0, 1.0, 7), np.linspace(0.0, 3.0, 10)),
            "uniform3d": (np.linspace(-1.0, 1.0, 5), np.linspace(0.0, 1.0, 4),
                          np.linspace(-2.0, 0.5, 6)),
            "stretched2d": (np.cumsum(rng.uniform(0.1, 1.0, 8)),
                            np.cumsum(rng.uniform(0.1, 1.0, 6))),
        }[grid]
        values = rng.normal(size=tuple(len(a) for a in axes) + (len(axes),))
        V = fs.grid_field(axes, values)
        lo = np.array([a[0] for a in axes])
        width = np.array([a[-1] - a[0] for a in axes])
        # a third of each axis beyond the box on both sides: clamped points
        pts = lo - 0.3 * width + rng.random((500, len(axes))) * 1.6 * width
        assert np.any(pts < lo) and np.any(pts > lo + width)
        ref = np.stack([self._corner_sum(axes, values, x) for x in pts])
        assert np.array_equal(np.stack([V.eval(x) for x in pts]), ref)
        for n in (1, 3, 500):
            assert np.array_equal(V.eval(pts[:n]), ref[:n])


class TestFieldSpec:
    def test_builtin_roundtrip(self):
        V = fs.build_field({"kind": "builtin", "name": "cellular"})
        assert V.dim == 2 and V.sup_bound == 1.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(fs.FieldConstructionError):
            fs.build_field({"kind": "magic"})

    def test_unknown_builtin_rejected(self):
        with pytest.raises(fs.FieldConstructionError):
            fs.build_field({"kind": "builtin", "name": "nope"})

    @pytest.mark.parametrize("d", [{"kind": "builtin"}, {"kind": "builtin", "params": {}}])
    def test_builtin_without_name_rejected(self, d):
        with pytest.raises(fs.FieldConstructionError):
            fs.build_field(d)

    def test_flat_and_nested_params_agree(self, rng):
        box = {"lo": [-2.0, -1.0], "hi": [2.0, 1.0]}
        flat = fs.build_field({"kind": "builtin", "name": "cellular", "amplitude": 0.5,
                               "domain_box": box})
        nested = fs.build_field({"kind": "builtin", "name": "cellular",
                                 "params": {"amplitude": 0.5}, "domain_box": box})
        assert flat.domain_box == nested.domain_box == Box((-2.0, -1.0), (2.0, 1.0))
        assert flat.descriptor == nested.descriptor
        assert flat.sup_bound == nested.sup_bound == 0.5
        assert flat.lip_bound == nested.lip_bound == 0.5
        pts = rng.uniform(-2.0, 2.0, (64, 2))
        assert np.array_equal(flat.eval(pts), nested.eval(pts))

    @pytest.mark.parametrize("name,key", [("cellular", "box_radius"),
                                          ("winding", "amplitude"), ("shear", "dim")])
    def test_builtin_refuses_a_parameter_it_does_not_take(self, name, key):
        with pytest.raises(fs.FieldConstructionError,
                           match=f"builtin field '{name}' takes no parameter '{key}'"):
            fs.builtin_field(name, **{key: 1.0})
        with pytest.raises(fs.FieldConstructionError, match=f"'{key}'"):
            fs.build_field({"kind": "builtin", "name": name, key: 1.0})
        with pytest.raises(fs.FieldConstructionError, match=f"'{key}'"):
            fs.build_field({"kind": "builtin", "name": name, "params": {key: 1.0}})

    def test_builtin_names_what_it_takes(self):
        with pytest.raises(fs.FieldConstructionError, match=r"it takes \['a', 'b', 'c'\]$"):
            fs.builtin_field("abc", d=1.0)
        with pytest.raises(fs.FieldConstructionError, match="needs parameter 'c'"):
            fs.builtin_field("constant")

    @pytest.mark.parametrize("d", [2, 3])
    def test_zero_is_the_former_kernel_bitwise(self, d):
        V = fs.builtin_field("zero", dim=d)
        assert V.descriptor == {"kind": "builtin", "name": "zero", "params": {"dim": d}}
        assert (V.dim, V.sup_bound, V.lip_bound) == (d, 0.0, 0.0)
        rng = np.random.default_rng(d)
        for x in (rng.normal(size=d), rng.normal(size=(7, d))):
            # the former _zero: zeros_like the point, and a zero (d, d) block
            want = np.zeros_like(np.asarray(x, dtype=float))
            got = V.eval(x)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            jac = V.jacobian(x)
            assert jac.shape == x.shape[:-1] + (d, d)
            assert jac.tobytes() == np.zeros(x.shape[:-1] + (d, d)).tobytes()

    @pytest.mark.parametrize("shape", [(2,), (1, 2), (6, 2), (198, 2)])
    def test_constant_field_fills_a_fresh_array(self, shape):
        c = np.array([0.3, -np.sqrt(2.0)])
        V = fs.builtin_field("constant", c=c.tolist())
        x = np.random.default_rng(0).normal(size=shape)
        a, b = V.func(x), V.func(x)
        assert a.shape == shape and a.flags.writeable and a is not b
        assert not np.shares_memory(a, x) and not np.shares_memory(a, b)
        assert np.broadcast_to(c, shape).tobytes() == a.tobytes()
        a[...] = 0.0
        assert np.broadcast_to(c, shape).tobytes() == V.func(x).tobytes()

    @pytest.mark.parametrize("shape", [(3,), (4, 3), (4, 1)])
    def test_constant_field_rejects_a_mismatched_shape(self, shape):
        V = fs.builtin_field("constant", c=[3.0, 4.0])
        with pytest.raises(ValueError):
            V.func(np.zeros(shape))

    def test_stream_first_integral_along_trajectory(self, cellular):
        traj = fs.integrate(cellular, [0.7, 1.1], 0.0, 50.0)
        drift = np.max(np.abs(cellular_stream(traj.states) - cellular_stream(traj.states[0])))
        assert drift < 1e-6


class TestJacobianConsistency:
    @pytest.mark.parametrize("name,params", [
        ("cellular", {}), ("rotation", {}), ("shear", {}),
        ("constant", {"c": [0.3, -0.7]}), ("zero", {"dim": 2}),
    ])
    def test_builtin_jacobians_match_fd(self, name, params, rng):
        V = fs.builtin_field(name, **params)
        if V.jacobian is None:
            pytest.skip("no analytic jacobian")
        for x in rng.uniform(-2, 2, (25, V.dim)):
            J = V.jac(x)
            Jfd = V.fd_jacobian(x)
            tol = 1e-6 * (1.0 + np.linalg.norm(J))
            assert np.max(np.abs(J - Jfd)) < tol

    def test_abc_jacobian_matches_fd(self, rng):
        V = fs.builtin_field("abc", a=1.0, b=0.7, c=0.4)
        assert V.jacobian is not None  # jac would fall back on fd_jacobian
        for x in [np.array([0.3, 1.2, -0.5])] + list(rng.uniform(-3, 3, (10, 3))):
            assert np.max(np.abs(V.jac(x) - V.fd_jacobian(x))) < 1e-8
        batch = rng.uniform(-3, 3, (50, 3))
        J = V.jac(batch)
        assert J.shape == (50, 3, 3)
        assert np.max(np.abs(J - V.fd_jacobian(batch))) < 1e-8


class TestNonUniformGrid:
    def test_interpolation_on_stretched_axes(self, rng):
        ax = np.array([0.0, 0.5, 0.75, 1.0, 2.0])
        ay = np.array([-1.0, 0.0, 0.25, 1.5])
        grids = np.meshgrid(ax, ay, indexing="ij")
        vals = np.stack(grids, axis=-1)  # identity field sampled on the grid
        V = fs.grid_field((ax, ay), vals)
        for p in rng.uniform([0, -1], [2, 1.5], (60, 2)):
            assert np.allclose(V.eval(p), p, atol=1e-13)


def _batch_of_one_fields():
    cellular = fs.builtin_field("cellular")
    ax = np.linspace(0.0, 2 * np.pi, 17)
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    box = Box((-np.pi, -np.pi), (3 * np.pi, 3 * np.pi))
    return {
        "cellular": (cellular, [0.7, 1.1]),
        "abc": (fs.builtin_field("abc", a=1.0, b=0.7, c=0.4), [0.3, 1.2, -0.5]),
        "expression": (fs.expression_field(["sin(x)*cos(y)", "x^2 - y/2"]), [0.7, 1.1]),
        "grid": (fs.grid_field((ax, ax), cellular.eval(np.stack([X, Y], axis=-1))),
                 [0.7, 1.1]),
        "corrected": (fs.correct(cellular, 0.1, settings=fs.CorrectionSettings(
            box=box, resolution=512)).field, [0.7, 1.1]),
        "pushforward": (fs.pushforward_field(cellular, fs.build_phi_map(
            [0.7, 1.0], [0.7 + 1e-4, 1.0], 0.2)), [0.72, 1.05]),
    }


class TestBatchOfOne:
    """``eval`` of a (1, d) batch is its point's value: ``func`` sees the
    (d,) row, and the bits are those of the (d,) call."""

    @pytest.fixture(scope="class")
    def fields(self):
        return _batch_of_one_fields()

    @pytest.mark.parametrize("name", ["cellular", "abc", "expression", "grid", "corrected",
                                      "pushforward"])
    def test_batch_of_one_is_its_point(self, fields, name):
        V, x = fields[name]
        x = np.asarray(x, dtype=float)
        seen = []

        def func(y):
            seen.append(np.shape(y))
            return V.func(y)

        W = dataclasses.replace(V, func=func)
        one = W.eval(x[None])
        assert one.shape == (1, V.dim)
        assert np.array_equal(one, V.eval(x)[None])
        assert seen == [(V.dim,)]
        # a batch of more rows is still one call on the batch
        assert W.eval(np.stack([x, x])).shape == (2, V.dim)
        assert seen[-1] == (2, V.dim)

    def test_a_point_of_no_dimensions_still_fails(self, fields):
        V, _ = fields["cellular"]
        with pytest.raises(IndexError):
            V.eval(0.5)
