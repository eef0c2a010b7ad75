"""Correct a divergence-free field so a radial weight makes it recurrent.

For the weight psi(x) = (|x|^2 + alpha^2)^(-p) with (d-1)/2 < p < d/2, a
field with div(psi*Vt) = 0 has finite invariant measure psi dx, which forces
near-returns of almost every orbit.  The corrector used here is the ansatz
Vt = V + grad(h)/psi with h solving

    lap h = -grad(psi) . V

on a padded box with decaying (homogeneous Dirichlet) boundary data.  The
solve is a fast sine-transform (DST-I) Poisson solve, and grad h comes
straight from h's sine coefficients: along each axis the derivative of a
sine series is a cosine series of the same coefficients, which one DCT-I
evaluates at the nodes (Martucci, IEEE TSP 1994).  The gradient is thus
spectral, so doubling the resolution leaves the corrector unchanged to
roundoff, and h itself is never formed.  The source is tapered to zero
across the padding ring, which keeps the sine expansion spectrally
convergent; the weighted-divergence identity is therefore enforced on the
interior region of interest and audited there.

The corrected field evaluates W between the nodes as the cubic B-spline
that interpolates them, so Vt is C^2 inside the box and its change from V
is smooth, not kinked at every cell face.  The spline is its coefficients
(Unser, Aldroubi and Eden, IEEE TSP 1993): one prefilter per correction
turns the nodes into them, the field's descriptor stores them, and a
rebuild evaluates them as stored.  They bound the spline rigorously:
|W| <= max |c| (the convex hull of the coefficients) and
Lip W <= sqrt(d) max |c_(i+1) - c_i| / dx; both are stated beside the
sampled audit.

Of the grid arrays only the coefficients outlive a correction.  While it
runs it holds V's values, psi, q = r2^(-p-1) (grad psi = -2p x q is formed
from the axes where it is used), the source and the gradient; the bounds
and the audit run over blocks of rows, and each alpha is audited from its
nodes before the prefilter turns them into the coefficients in place.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import jsonio
from .deform import _blend, _glue
from .errors import EpsilonUnreachable, FieldConstructionError, ResidualTooLarge
from .fields import VectorField, build_field, estimate_divergence
from .sampling import Box
from .recurrence import nonwandering_fraction

__all__ = ["PsiWeight", "CorrectionSettings", "CorrectionResult",
           "correct", "check_weighted_divfree", "certify_proposition"]


@dataclass(frozen=True)
class PsiWeight:
    """Radial weight psi(x) = (|x|^2 + alpha^2)^(-p), validated exponent."""

    p: float
    alpha: float
    dim: int

    def __post_init__(self):
        lo, hi = (self.dim - 1) / 2.0, self.dim / 2.0
        if not lo < self.p < hi:
            raise ValueError(f"exponent p={self.p} outside ({lo}, {hi}) for d={self.dim}")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")

    @staticmethod
    def default_p(dim: int) -> float:
        return (2 * dim - 1) / 4.0

    def value(self, x) -> np.ndarray:
        return self.value_and_grad(x)[0]

    def grad(self, x) -> np.ndarray:
        return self.value_and_grad(x)[1]

    def value_and_grad(self, x):
        """psi and grad psi at x, from one r2 = |x|^2 + alpha^2."""
        x = np.asarray(x, dtype=float)
        xs = np.moveaxis(x, -1, 0)
        r2 = _dot(xs, xs) + self.alpha ** 2
        g = -2.0 * self.p * x
        g *= (r2 ** (-self.p - 1.0))[..., None]
        return r2 ** (-self.p), g


# ---------------------------------------------------------------------------
# fast Poisson solve with spectral gradients


def _poisson_gradient(g: np.ndarray, length: float) -> np.ndarray:
    """grad h at the nodes, component-major (d, n, ..., n), for lap h = g
    with h = 0 on the box boundary, read from h's sine coefficients; ``g``
    is overwritten.

    h's DST-I coefficients are H = -dstn(g) / lam.  Along one axis the
    derivative of a sine series is the cosine series of the same
    coefficients times k pi / length, which a DCT-I of the coefficients,
    zero-padded by one on each side, evaluates at the nodes; the other axes
    stay sine series and are inverted as such.  h itself is never formed.
    """
    # imported here: scipy.fft is most of the cost of importing scipy, and
    # only a correction needs it
    from scipy import fft

    n, d = g.shape[0], g.ndim
    k = np.pi * np.arange(1, n + 1) / length
    H = fft.dstn(g, type=1, overwrite_x=True)
    np.negative(H, out=H)
    H /= sum(_along(k ** 2, ax, d) for ax in range(d))
    grad = np.empty((d,) + g.shape)
    for ax in range(d):
        inner = tuple(slice(1, n + 1) if a == ax else slice(None) for a in range(d))
        dh = np.zeros([n + 2 if a == ax else n for a in range(d)])
        np.multiply(H, _along(k, ax, d), out=dh[inner])
        dh = fft.dct(dh, type=1, axis=ax, overwrite_x=True)[inner]
        dh /= 2.0 * (n + 1)
        others = [a for a in range(d) if a != ax]
        grad[ax] = fft.idstn(dh, type=1, axes=others, overwrite_x=True) if others else dh
        del dh  # before the next axis pads its own copy
    return grad


def _dot(a, b):
    """sum_k a[k] * b[k] over the components of ``a`` and ``b`` (arrays or
    sequences of arrays, component first), the products added in component
    order as ``np.sum(a * b, axis=-1)`` adds them over the last axis, so
    the result has the same bits without the stacked product."""
    s = a[0] * b[0]
    for ak, bk in zip(a[1:], b[1:]):
        s += ak * bk
    return s


def _max_norm(parts, axis: Optional[int] = None) -> float:
    """max over the nodes of the Euclidean norm of the vector whose
    components are ``parts`` (component-major, (d, n, ..., n)), or, given a
    grid ``axis``, of its first differences along it.

    The nodes are taken ``_BLOCK`` rows of the first grid axis at a time
    (one row more for the differences along that axis), so a pass holds
    block-sized temporaries, not grid-sized ones.  Within a block the
    squares are added in component order, as
    ``np.linalg.norm(np.stack(parts, axis=-1), axis=-1)`` adds them; the
    largest sum of every block is kept, ``np.max`` takes the largest of
    those (so a NaN stays NaN and the bound non-finite), and one root is
    taken at the end, so the result has the bits of the whole-array
    formula."""
    n = len(parts[0]) - (axis == 0)
    tops = []
    for rows in _row_blocks(0, n):
        if axis is None:
            block = [c[rows] for c in parts]
        else:
            span = slice(rows.start, rows.stop + 1) if axis == 0 else rows
            block = [np.diff(c[span], axis=axis) for c in parts]
        s = block[0] * block[0]
        for c in block[1:]:
            s += c * c
        tops.append(np.max(s))
    return float(np.sqrt(np.max(tops)))


def _row_blocks(start: int, stop: int):
    """Slices of at most ``_BLOCK`` rows covering rows start..stop-1."""
    return [slice(i, min(i + _BLOCK, stop)) for i in range(start, stop, _BLOCK)]


def _along(v: np.ndarray, k: int, d: int) -> np.ndarray:
    """The 1-D ``v`` shaped to broadcast along axis k of a d-axis grid."""
    return v.reshape([len(v) if a == k else 1 for a in range(d)])


def _taper(t: np.ndarray) -> np.ndarray:
    """C^inf ramp: 1 for t <= 0, 0 for t >= 1."""
    t = np.clip(t, 0.0, 1.0)
    return _blend(_glue(1.0 - t), _glue(t))


# ---------------------------------------------------------------------------
# correction driver


_PAD_FRACTION = 0.25      # padding beyond the region, per side total
_MAX_DOUBLINGS = 10       # of alpha, from the region diameter
_PRECHECK_TOL = 1e-6      # |div V| gate on the input field
_PRECHECK_POINTS = 200
_RESIDUAL_TOL = 1e-6      # weighted-divergence audit tolerance
_RETURN_RADIUS = 1e-2     # of the balls certify_proposition's orbits leave and re-enter
_BLOCK = 32               # rows of the first grid axis per pass of the bounds and the audit


@dataclass(frozen=True)
class CorrectionSettings:
    """Grid and audit policy for the corrector."""

    box: Optional[Box] = None          # region of interest; required
    resolution: int = 256              # interior nodes per axis
    strict: bool = True                # raise on failed audits
    seed: int = 0


@dataclass(frozen=True)
class CorrectionResult:
    field: VectorField
    psi: PsiWeight
    sup_delta: float      # the largest |W| over the nodes
    sup_bound: float      # the spline's rigorous bound on sup |W|
    lip_bound: float      # the spline's rigorous bound on Lip W
    div_residual: float
    div_tilde_sup: float
    alpha_used: float
    grid_meta: dict
    passed: bool = True
    failure: Optional[str] = None

    def to_json(self) -> dict:
        return {
            "p": float(self.psi.p),
            "alpha": float(self.alpha_used),
            "sup_delta": float(self.sup_delta),
            "sup_bound": float(self.sup_bound),
            "lip_bound": float(self.lip_bound),
            "div_residual": float(self.div_residual),
            "div_tilde_sup": float(self.div_tilde_sup),
            "grid": self.grid_meta,
            "passed": bool(self.passed),
            "failure": self.failure,
        }


def _grid_axes(box: Box, resolution: int):
    width = float(np.max(box.widths))
    pad = _PAD_FRACTION * width
    lo = np.asarray(box.lo, dtype=float) - pad / 2.0
    hi = np.asarray(box.hi, dtype=float) + pad / 2.0
    # keep the padded box square so one DST length serves every axis
    c = (lo + hi) / 2.0
    half = float(np.max(hi - lo)) / 2.0
    lo, hi = c - half, c + half
    length = 2.0 * half
    n = resolution
    dx = length / (n + 1)
    axes = tuple(lo[k] + dx * np.arange(1, n + 1) for k in range(box.dim))
    return axes, dx, length, lo, hi


def _grid_points(axes) -> np.ndarray:
    """The grid's nodes as (N, d) points, the first axis slowest."""
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)


def _radial_factors(w: PsiWeight, axes):
    """psi and q = r2^(-p-1) on the grid of ``axes``, with r2 = |x|^2 +
    alpha^2 summed from the squared axes by broadcasting.  grad psi is
    (-2p x_k) q, formed where it is used (``_grad_psi``), so no (N, d) array
    of it is kept; both have the bits ``w.value_and_grad`` gives on
    ``_grid_points(axes)``."""
    d = len(axes)
    sq = [_along(a * a, k, d) for k, a in enumerate(axes)]
    r2 = sum(sq[1:], sq[0]) + w.alpha ** 2
    return r2 ** (-w.p), r2 ** (-w.p - 1.0)


def _grad_psi(w: PsiWeight, axes, q, rows) -> list:
    """The components of grad psi on rows ``rows`` of the grid: (-2p x_k) q
    with q from ``_radial_factors``, the products ``w.value_and_grad``
    forms."""
    d = len(axes)
    c = -2.0 * w.p
    return [_along(c * (a[rows] if k == 0 else a), k, d) * q[rows]
            for k, a in enumerate(axes)]


def _solve_correction(w: PsiWeight, box: Box, axes, length, lo, hi, vals):
    """The correction's nodes W, component-major (d, n, ..., n), with psi
    and q (``_radial_factors``) on the grid of ``axes``, where V is ``vals``,
    component-major too."""
    d = len(axes)
    psi, q = _radial_factors(w, axes)

    # taper the source across the outer 95% of the padding ring so the
    # Dirichlet sine expansion of the source converges spectrally
    ramps = []
    for k in range(d):
        ax = axes[k]
        inner_lo, inner_hi = box.lo[k], box.hi[k]
        edge_lo, edge_hi = lo[k] + 0.05 * (inner_lo - lo[k]), hi[k] - 0.05 * (hi[k] - inner_hi)
        up = _taper((inner_lo - ax) / max(inner_lo - edge_lo, 1e-300))
        dn = _taper((ax - inner_hi) / max(edge_hi - inner_hi, 1e-300))
        ramps.append(up * dn)
    # by blocks of rows, so grad psi and the ramp are never grid-sized
    g = np.empty(psi.shape)
    for rows in _row_blocks(0, len(axes[0])):
        s = _dot(_grad_psi(w, axes, q, rows), [v[rows] for v in vals])
        np.negative(s, out=s)
        ramp = 1.0
        for k, r in enumerate(ramps):
            ramp = ramp * _along(r[rows] if k == 0 else r, k, d)
        s *= ramp
        g[rows] = s

    W = _poisson_gradient(g, length)
    W /= psi
    return W, psi, q


def _bspline_coefficients(W: np.ndarray) -> np.ndarray:
    """The cubic B-spline coefficients of the nodes W, component-major
    (d, n, ..., n), filtered with mirror extension so the spline's normal
    derivative vanishes on the box faces.  W is filtered in place and
    returned: it becomes the coefficients."""
    # imported here: scipy.ndimage costs about 70 ms to import, and only
    # a correction needs it
    from scipy import ndimage

    for w in W:
        ndimage.spline_filter(w, order=3, output=w, mode="mirror")
    return W


def correct(V: VectorField, eps: float, w: Optional[PsiWeight] = None,
            settings: CorrectionSettings = CorrectionSettings()) -> CorrectionResult:
    """Produce Vt = V + grad(h)/psi with div(psi Vt) = 0 on the audit grid.

    Starts from alpha = the region diameter and doubles it until the spline's
    rigorous bound on the correction size drops below eps; larger alpha
    flattens psi and weakens the correction.  Raises ``EpsilonUnreachable``
    when the cap is hit and ``ResidualTooLarge`` when the audit grid is too
    coarse (unless ``settings.strict`` is false, in which case the failure is
    recorded on the result).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    box = settings.box or V.domain_box
    if box is None:
        raise ValueError("correction needs a region of interest box")
    d = V.dim

    _precheck_divergence(V, box, settings)

    axes, dx, length, lo, hi = _grid_axes(box, settings.resolution)
    # V's values, component-major; the points go as soon as they are taken
    vals = V.eval(_grid_points(axes)).T.reshape((d,) + tuple(len(a) for a in axes))

    p = w.p if w is not None else PsiWeight.default_p(d)
    alpha = w.alpha if w is not None else box.diameter

    alpha_history = []
    for _ in range(_MAX_DOUBLINGS + 1):
        weight = PsiWeight(p, alpha, d)
        W, psi, q = _solve_correction(weight, box, axes, length, lo, hi, vals)
        sup_delta = _max_norm(W)
        div_residual, div_sup = _audit_grids(box, axes, dx, vals, weight, psi, q, W)
        # the prefilter turns W into the coefficients in place, so the nodes
        # and the coefficients are never both held
        spline = _CubicSpline(axes, _bspline_coefficients(W))
        alpha_history.append({"alpha": float(alpha), "sup_delta": sup_delta,
                              "sup_bound": spline.sup_bound})
        if spline.sup_bound < eps:
            break
        alpha *= 2.0
        del W, psi, q, spline  # before the next alpha's solve
    else:
        raise EpsilonUnreachable(f"correction size bound {alpha_history[-1]['sup_bound']:.3g} "
                                 f"still >= {eps:.3g} at alpha cap")

    desc = None
    if V.descriptor is not None:
        # the coefficients, not the nodes: a rebuild evaluates them as stored
        desc = {"kind": "corrected", "base": V.descriptor, "axes": list(axes),
                "coefs": spline.coefs, "eps": float(eps)}
    field = _corrected_field(V, spline, eps, desc)

    meta = {
        "resolution": settings.resolution,
        "box_lo": jsonio.vec(box.lo),
        "box_hi": jsonio.vec(box.hi),
        "padded_lo": jsonio.vec(lo),
        "padded_hi": jsonio.vec(hi),
        "spacing": float(dx),
        "alpha_history": alpha_history,
    }
    failure = None
    if div_residual > _RESIDUAL_TOL:
        failure = (f"ResidualTooLarge: weighted-divergence residual "
                   f"{div_residual:.3g} > {_RESIDUAL_TOL:.3g}")
    elif div_sup >= eps:
        failure = f"divergence bound failed: {div_sup:.3g} >= {eps:.3g}"
    result = CorrectionResult(field, weight, sup_delta, spline.sup_bound, spline.lip_bound,
                              div_residual, div_sup, weight.alpha, meta, failure is None,
                              failure)
    if failure and settings.strict:
        raise ResidualTooLarge(failure)
    return result


def _precheck_divergence(V, box, settings):
    pts = box.uniform(_PRECHECK_POINTS, settings.seed)
    h = 1e-4 * max(1.0, float(np.max(box.widths)) / 10.0)
    worst = float(np.max(np.abs(estimate_divergence(V, pts, h))))
    if worst > max(_PRECHECK_TOL, 1e-3 * V.lip_bound * h * h + _PRECHECK_TOL):
        raise ValueError(f"input field is not divergence-free: sampled |div V| = {worst:.3g}")


def _audit_grids(box, axes, dx, vals, w, psi, q, W):
    """Weighted-divergence residual and |div Vt| on interior nodes, for V's
    values ``vals`` and the nodes W (component-major), psi and q at weight w.

    The finite-difference step equals the grid spacing, so every evaluation
    lands on a node where the interpolant is exact.  The nodes are taken
    ``_BLOCK`` rows of the first axis at a time, each block with one row of
    halo on either side for the centred differences along that axis; the
    largest values of the blocks are kept, so the result has the bits of
    the whole-grid pass.
    """
    d = len(axes)
    # audit on region-of-interest nodes where the centered stencil exists
    ok = []
    for k, a in enumerate(axes):
        m = np.logical_and(a >= box.lo[k], a <= box.hi[k])
        m[0] = m[-1] = False
        ok.append(m)
    rows = np.flatnonzero(ok[0])
    inner = (slice(None),) + (slice(1, -1),) * (d - 1)
    residuals, divergences = [], []
    for block in _row_blocks(rows[0], rows[-1] + 1) if len(rows) else ():
        halo = slice(block.start - 1, block.stop + 1)
        Vt = [vk[halo] + wk[halo] for vk, wk in zip(vals, W)]
        divc = np.zeros((block.stop - block.start,) + psi.shape[1:])
        for k in range(d):
            up = [slice(1, -1)] * d
            dn = [slice(1, -1)] * d
            up[k] = slice(2, None)
            dn[k] = slice(None, -2)
            divc[inner] += (Vt[k][tuple(up)] - Vt[k][tuple(dn)]) / (2.0 * dx)
        mask = _along(ok[0][block], 0, d)
        for k in range(1, d):
            mask = mask & _along(ok[k], k, d)
        residual = _dot(_grad_psi(w, axes, q, block), [v[1:-1] for v in Vt])
        residual += psi[block] * divc
        np.abs(residual, out=residual)
        residuals.append(np.max(residual[mask]))
        divergences.append(np.max(np.abs(divc[mask])))
    return float(np.max(residuals)), float(np.max(divergences))


class _CubicSpline:
    """The cubic B-spline with coefficients ``coefs``, component-major
    (d, n_1, ..., n_d), on uniform ``axes``, constant outside their box.

    The coefficients come from ``_bspline_coefficients``, whose mirror
    extension makes the spline's normal derivative vanish on the box faces,
    so the constant extension is C^1 there.  Every point is evaluated on its
    own, so a row gets the same bits alone or in any batch.
    """

    def __init__(self, axes, coefs):
        # imported here: scipy.ndimage costs about 70 ms to import, and only
        # a correction needs it
        from scipy import ndimage

        d = len(axes)
        uniform = all(len(a) > 1 and a[1] > a[0]
                      and np.allclose(np.diff(a), a[1] - a[0], rtol=1e-9, atol=0.0)
                      for a in axes)
        if not uniform or coefs.shape != (d,) + tuple(len(a) for a in axes):
            raise FieldConstructionError(
                "correction grid needs uniform increasing axes and one coefficient "
                "per component and grid point")
        self.lo = np.array([a[0] for a in axes])
        self.dx = np.array([(a[-1] - a[0]) / (len(a) - 1) for a in axes])
        self.top = np.array([len(a) - 1.0 for a in axes])
        self._map = ndimage.map_coordinates
        # a schedule rebuilt from its document shares this array with the
        # planned spline, so neither may write it
        coefs.flags.writeable = False
        self.coefs = coefs
        # convex-hull bounds: the spline and its first differences are
        # weighted means of the coefficients and of their differences
        self.sup_bound = _max_norm(coefs)
        step = max(_max_norm(coefs, k) / self.dx[k] for k in range(d))
        self.lip_bound = float(np.sqrt(d) * step)

    def __call__(self, x):
        """The spline at a (d,) point or at (n, d) points."""
        f = (x - self.lo) / self.dx
        # fmax/fmin clamp to the box and send NaN to a corner, so every
        # coordinate stays in range
        np.fmax(f, 0.0, out=f)
        np.fmin(f, self.top, out=f)
        f = f.reshape(-1, len(self.lo)).T
        out = np.empty(f.shape)
        for c, o in zip(self.coefs, out):
            self._map(c, f, output=o, order=3, mode="mirror", prefilter=False)
        return out.T if x.ndim > 1 else out[:, 0]


def _corrected_field(V: VectorField, spline: _CubicSpline, eps: float, desc) -> VectorField:
    """V plus the spline of the correction; ``desc`` is its descriptor, None
    when V has none."""

    def func(x):
        return V.eval(x) + spline(x)

    return VectorField(V.dim, func, V.sup_bound + max(eps, spline.sup_bound),
                       V.lip_bound + max(eps, spline.lip_bound), None, desc, V.domain_box)


def corrected_field_from_descriptor(desc: dict) -> VectorField:
    """Rebuild a corrected field from its B-spline coefficients, with no
    prefilter; its axes and coefficients may be arrays or their packed JSON
    form, and the rebuilt descriptor holds the arrays."""
    if "coefs" not in desc:
        raise FieldConstructionError(
            "corrected-field descriptor holds the correction's nodes ('values'), the "
            "format before its B-spline coefficients ('coefs'); plan again to rewrite it"
            if "values" in desc else "corrected-field descriptor has no 'coefs'")
    base = build_field(desc["base"])
    axes = [jsonio.unpack_array(a) for a in desc["axes"]]
    coefs = jsonio.unpack_array(desc["coefs"])
    spline = _CubicSpline(axes, coefs)
    # a NaN or inf coefficient makes both bounds non-finite, which the
    # field's max(eps, bound) would otherwise drop
    if not (np.isfinite(spline.sup_bound) and np.isfinite(spline.lip_bound)):
        raise FieldConstructionError("corrected-field coefficients are not all finite")
    desc = {**desc, "axes": axes, "coefs": coefs}
    return _corrected_field(base, spline, float(desc["eps"]), desc)


def refinement_delta(V: VectorField, eps: float,
                     settings: CorrectionSettings) -> float:
    """Sup change of the corrector under an exact halving of the grid spacing.

    Solves at resolution n and 2n+1 (same padded box, spacing halved, so the
    coarse nodes are a subset of the fine ones) and compares the corrected
    field on the shared interior nodes, where both splines interpolate their
    nodes.  This isolates solver movement from the spline's O(dx^4)
    representation error at off-node points.  Kept as the grid-convergence
    check that the correction contract (acceptance criterion 3) asserts.
    """
    coarse = correct(V, eps, settings=settings)
    fine = correct(V, eps, settings=replace(settings,
                                            resolution=2 * settings.resolution + 1))
    axes, _, _, _, _ = _grid_axes(settings.box or V.domain_box, settings.resolution)
    pts = _grid_points(axes)
    d = np.linalg.norm(coarse.field.eval(pts) - fine.field.eval(pts), axis=1)
    return float(np.max(d))


def check_weighted_divfree(field: VectorField, w: PsiWeight, points,
                           h: float) -> float:
    """max over points of |grad(psi).F + psi * div F| by central differences."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    div = estimate_divergence(field, pts, h)
    vals = field.eval(pts)
    psi, gpsi = w.value_and_grad(pts)
    resid = np.abs(_dot(gpsi.T, vals.T) + psi * div)
    return float(np.max(resid))


@dataclass(frozen=True)
class PropositionReport:
    items: dict
    passed: bool

    def to_json(self) -> dict:
        return {"items": self.items, "passed": bool(self.passed)}


def certify_proposition(V: VectorField, result: CorrectionResult, eps: float,
                        box: Optional[Box] = None, n_points: int = 30,
                        T_max: float = 200.0, seed: int = 0) -> PropositionReport:
    """Pass/fail report for the corrected field's contracted properties.

    Recurrence of almost every point cannot be certified numerically; item
    (i) is reported as the sampled nonwandering fraction on the given box and
    labeled a statistical proxy.
    """
    box = box or result.field.domain_box or Box(result.grid_meta["box_lo"],
                                                result.grid_meta["box_hi"])
    items = {}
    frac = nonwandering_fraction(result.field, box, n_points, _RETURN_RADIUS, T_max, seed)
    items["recurrence_fraction"] = {
        "value": float(frac),
        "pass": bool(frac >= 0.9),
        "note": "statistical proxy on sampled points, not a certificate",
    }
    items["sup_deviation"] = {
        "value": float(result.sup_delta),
        "spline_bound": float(result.sup_bound),
        "bound": float(eps),
        "pass": bool(result.sup_bound < eps),
    }
    items["divergence_sup"] = {
        "value": float(result.div_tilde_sup),
        "bound": float(eps),
        "pass": bool(result.div_tilde_sup < eps),
    }
    items["weighted_div_residual"] = {
        "value": float(result.div_residual),
        "pass": bool(result.passed and result.failure is None),
        "note": result.failure or "",
    }
    passed = all(v["pass"] for v in items.values())
    return PropositionReport(items, passed)
