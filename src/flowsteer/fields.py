"""Vector fields: construction, norm estimation, and mean-drift audits.

A :class:`VectorField` bundles an evaluation map with declared bounds and an
optional Jacobian.  Constructors that guarantee incompressibility by design
(stream functions in 2-D, vector potentials in 3-D) live here, together with
the sampled estimators used to audit fields the user supplies directly:
divergence residuals, sup/Lipschitz lower bounds, and box-averaged drift.

A field from a public constructor carries its ``descriptor``, a dict that
:func:`build_field` reads back into the same field.  A config's ``field``
section has the same form, so that one function reads a config and a
``control.json`` field entry alike: one branch per kind (builtin,
expression, grid, and the corrected and pushforward fields that the
correction and the surgery build on a base field), whose ``kind`` is what
a field is.  Central differences give the Jacobian's fallback and, as its
diagonal, the sampled divergence.

Evaluation convention: ``field.eval`` accepts a single point of shape (d,)
or a batch of shape (n, d) and returns the matching shape; a batch of one
is evaluated as its point, numpy's cheap path.
"""

from __future__ import annotations

import ast
import math
import operator
import string
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import jsonio
from .errors import FieldConstructionError
from .sampling import Box, halton, spawn_rngs

__all__ = [
    "VectorField",
    "DriftReport",
    "ScalarField2D",
    "from_stream_function_2d",
    "from_vector_potential_3d",
    "grid_field",
    "expression_field",
    "builtin_field",
    "build_field",
    "estimate_divergence",
    "estimate_norms",
    "mean_drift",
    "check_vmd",
]


@dataclass(frozen=True)
class VectorField:
    """Evaluation map R^d -> R^d with declared sup and Lipschitz bounds.

    ``sup_bound`` and ``lip_bound`` are trusted upper bounds on the working
    region; sampled estimates must never exceed them.  ``descriptor`` is a
    JSON-serializable recipe for rebuilding the field, present whenever the
    field was produced by one of the public constructors; its ``kind`` is
    what the field is.
    """

    dim: int
    func: Callable[[np.ndarray], np.ndarray]
    sup_bound: float
    lip_bound: float
    jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    descriptor: Optional[dict] = None
    domain_box: Optional[Box] = None

    def eval(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 2 and x.shape[0] == 1:  # a batch of one is its point
            return np.asarray(self.func(x[0]))[None]
        return self.func(x)

    __call__ = eval

    def jac(self, x) -> np.ndarray:
        """Jacobian at x: analytic when available, else central differences."""
        x = np.asarray(x, dtype=float)
        if self.jacobian is not None:
            return self.jacobian(x)
        return self.fd_jacobian(x)

    def fd_jacobian(self, x) -> np.ndarray:
        return np.stack(_central_columns(self, np.asarray(x, dtype=float), 1e-6), axis=-1)


def _central_columns(V: VectorField, x: np.ndarray, h: float) -> list:
    """Columns (V(x + h e_i) - V(x - h e_i)) / 2h of the Jacobian at x."""
    return [(V.eval(x + e) - V.eval(x - e)) / (2.0 * h) for e in h * np.eye(V.dim)]


# ---------------------------------------------------------------------------
# divergence-free constructors


@dataclass(frozen=True)
class ScalarField2D:
    """Scalar function on R^2 with a gradient (and optional Hessian)."""

    value: Callable
    grad: Optional[Callable] = None
    hess: Optional[Callable] = None


def from_stream_function_2d(h: ScalarField2D, sup_bound=None, lip_bound=None,
                            region: Optional[Box] = None, descriptor=None) -> VectorField:
    """Field V = (dh/dy, -dh/dx); incompressible by construction.

    The gradient must be supplied; without it the constructor is rejected.
    Declared bounds default to sampled estimates inflated by 10%.
    """
    if h.grad is None:
        raise FieldConstructionError("stream-function field needs an explicit gradient")

    def func(x):
        x = np.asarray(x, dtype=float)
        g = np.asarray(h.grad(x))
        out = np.empty_like(g)
        out[..., 0] = g[..., 1]
        out[..., 1] = -g[..., 0]
        return out

    jacobian = None
    if h.hess is not None:
        def jacobian(x):
            H = np.asarray(h.hess(np.asarray(x, dtype=float)))
            J = np.empty_like(H)
            J[..., 0, 0] = H[..., 1, 0]
            J[..., 0, 1] = H[..., 1, 1]
            J[..., 1, 0] = -H[..., 0, 0]
            J[..., 1, 1] = -H[..., 0, 1]
            return J

    vf = VectorField(2, func, np.inf, np.inf, jacobian, descriptor, region)
    return _with_default_bounds(vf, sup_bound, lip_bound, region)


def from_vector_potential_3d(potential: Callable, potential_jacobian: Callable,
                             sup_bound=None, lip_bound=None,
                             region: Optional[Box] = None, descriptor=None) -> VectorField:
    """Field V = curl A from a differentiable vector potential A on R^3."""
    if potential_jacobian is None:
        raise FieldConstructionError("vector-potential field needs the Jacobian of A")

    def func(x):
        J = np.asarray(potential_jacobian(np.asarray(x, dtype=float)))
        out = np.empty(J.shape[:-2] + (3,))
        out[..., 0] = J[..., 2, 1] - J[..., 1, 2]
        out[..., 1] = J[..., 0, 2] - J[..., 2, 0]
        out[..., 2] = J[..., 1, 0] - J[..., 0, 1]
        return out

    vf = VectorField(3, func, np.inf, np.inf, None, descriptor, region)
    return _with_default_bounds(vf, sup_bound, lip_bound, region)


def _with_default_bounds(vf: VectorField, sup_bound, lip_bound, region) -> VectorField:
    if sup_bound is None or lip_bound is None:
        box = region or Box((-1.0,) * vf.dim, (1.0,) * vf.dim)
        sup_est, lip_est = estimate_norms(vf, box, 4096, seed=0)
        sup_bound = sup_bound if sup_bound is not None else 1.1 * sup_est + 1e-12
        lip_bound = lip_bound if lip_bound is not None else 1.1 * lip_est + 1e-12
    return replace(vf, sup_bound=float(sup_bound), lip_bound=float(lip_bound), domain_box=region)


# ---------------------------------------------------------------------------
# grid-sampled fields


def grid_field(axes, values) -> VectorField:
    """Multilinear interpolation of node values, constant outside the box.

    ``axes`` is a tuple of d strictly increasing 1-D arrays; ``values`` has
    shape (n_1, ..., n_d, d).  The declared bounds are the largest node norm
    and d times the largest difference quotient along an axis.  A point is
    a batch of one, and gets the same bits alone or in any batch.  The
    descriptor holds the axes and values as arrays.
    """
    axes = tuple(np.asarray(a, dtype=float) for a in axes)
    values = np.asarray(values, dtype=float)
    d = len(axes)
    if values.shape != tuple(len(a) for a in axes) + (d,):
        raise FieldConstructionError("grid shape does not match axes")
    for a in axes:
        if len(a) < 2 or np.any(np.diff(a) <= 0):
            raise FieldConstructionError("grid axes must be strictly increasing")

    # per axis, the node index of a point and its fraction, clamped to the
    # box, so the field is constant outside it
    top = [len(a) - 2 for a in axes]
    # bit k of corner c selects the upper node on axis k; the corner sits at
    # flat node offset corner_off[c] from its cell's lowest node
    stride_v = np.array([int(np.prod([len(a) for a in axes[k + 1:]])) for k in range(d)])
    bits = [[c >> k & 1 for k in range(d)] for c in range(1 << d)]
    corner_off = np.array(bits) @ stride_v
    nodes = values.reshape(-1, d)

    def batch(pts):
        j = np.empty(pts.shape, dtype=np.intp)
        t = np.empty(pts.shape)
        for k, a in enumerate(axes):
            jk = np.searchsorted(a, pts[:, k], side="right") - 1
            jk = np.maximum(np.minimum(jk, top[k]), 0)
            j[:, k] = jk
            t[:, k] = (pts[:, k] - a[jk]) / (a[jk + 1] - a[jk])
        t = np.minimum(np.maximum(t, 0.0), 1.0).T.copy()
        lohi = tuple(zip(1.0 - t, t))  # per axis, the lower and upper weights
        # (2^d, n, d); take gathers rows far faster than fancy indexing
        corners = np.take(nodes, j @ stride_v + corner_off[:, None], axis=0)
        # a corner's weight is the product over the axes in order, and the
        # corners add up in order from zero, so a point gets the same bits in
        # any batch
        out = np.zeros((len(pts), d))
        for c, b in enumerate(bits):
            w = lohi[0][b[0]]
            for k in range(1, d):
                w = w * lohi[k][b[k]]
            out += w[:, None] * corners[c]
        return out

    def func(x):
        x = np.asarray(x, dtype=float)
        return batch(x) if x.ndim > 1 else batch(x[None, :])[0]

    box = Box(tuple(a[0] for a in axes), tuple(a[-1] for a in axes))
    sup_bound = float(np.max(np.linalg.norm(values, axis=-1)))
    lip = 0.0
    for k, a in enumerate(axes):
        shp = [1] * d
        shp[k] = len(a) - 1
        da = np.diff(a).reshape(shp)
        step = np.max(np.linalg.norm(np.diff(values, axis=k), axis=-1) / da)
        lip = max(lip, float(step))
    return VectorField(d, func, sup_bound, float(d * lip), None,
                       {"kind": "grid", "axes": list(axes), "values": values}, box)


# ---------------------------------------------------------------------------
# expression fields: + - * / ^, unary + and -, sin cos exp, the constant pi

_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: operator.pow}
_CHARS = frozenset(string.ascii_letters + string.digits + "_. +-*/^()")


def _parse_expression(text: str, names) -> Callable:
    """The evaluator ``coords -> value`` of one expression.

    Python's ``ast`` reads the text with ``^`` as its power, so ``^`` is
    right-associative and binds tighter than unary minus; ``**`` itself and
    every character outside the grammar are rejected first.  The tree is
    only walked, never compiled to code or run; its constant subexpressions
    are evaluated once, here.
    """
    text = " ".join(text.split())
    bad = set(text) - _CHARS
    if bad:
        raise FieldConstructionError(f"bad character {min(bad)!r} in expression {text!r}")
    if "**" in text:
        raise FieldConstructionError(f"expression {text!r}: write powers with ^, not **")
    # too deep a nesting overflows the parser's stack (MemoryError) or the
    # walk (RecursionError); too long an integer overflows a float
    try:
        return _evaluator(ast.parse(text.replace("^", "**"), mode="eval").body, names)
    except (SyntaxError, RecursionError, MemoryError, OverflowError) as e:
        raise FieldConstructionError(f"cannot parse expression {text!r}: {e}") from None


def _evaluator(node, names) -> Callable:
    """``coords -> value`` for one checked node: numpy's operations on the
    coordinate arrays, every constant a Python float.  A node that reads no
    coordinate is evaluated once, here, and must be a finite real number:
    one that fails, such as 1/0, 10^400 or (-8)^(1/3) (a complex number),
    fails the construction and is named."""
    f = _operation(node, names)
    if any(isinstance(n, ast.Name) and n.id in names for n in ast.walk(node)):
        return f
    text = ast.unparse(node).replace("**", "^")
    try:
        with np.errstate(all="ignore"):
            v = f(None)
    except ArithmeticError as e:
        raise FieldConstructionError(f"constant subexpression {text!r} fails: {e}") from None
    if not (isinstance(v, float) and math.isfinite(v)):
        raise FieldConstructionError(
            f"constant subexpression {text!r} is {v!r}, not a finite real number")
    return lambda c: v


def _operation(node, names) -> Callable:
    """``coords -> value`` of the node's own operation on its operands'
    evaluators."""
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        op = _BINOPS[type(node.op)]
        a, b = _evaluator(node.left, names), _evaluator(node.right, names)
        return lambda c: op(a(c), b(c))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        a = _evaluator(node.operand, names)
        return a if isinstance(node.op, ast.UAdd) else lambda c: -a(c)
    if isinstance(node, ast.Name) and node.id == "pi":
        node = ast.Constant(np.pi)
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        v = float(node.value)
        return lambda c: v
    if isinstance(node, ast.Name) and node.id in names:
        i = names.index(node.id)
        return lambda c: c[i]
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _FUNCS and len(node.args) == 1 and not node.keywords):
        f, a = _FUNCS[node.func.id], _evaluator(node.args[0], names)
        return lambda c: f(a(c))
    raise FieldConstructionError(f"{ast.unparse(node)!r} is not in the expression grammar")


def expression_field(exprs, sup_bound=None, lip_bound=None,
                     region: Optional[Box] = None) -> VectorField:
    """Field whose components are arithmetic expressions in x, y, z (or x1..xd).

    The descriptor records the declared bounds and the region, so a rebuild
    declares the same field.
    """
    d = len(exprs)
    names = ["x", "y", "z"][:d] if d <= 3 else [f"x{i + 1}" for i in range(d)]
    comps = [_parse_expression(e, names) for e in exprs]

    def func(x):
        x = np.asarray(x, dtype=float)
        coords = [x[..., i] for i in range(d)]
        return np.stack([np.broadcast_to(np.asarray(f(coords), dtype=float), x[..., 0].shape)
                         for f in comps], axis=-1)

    vf = _with_default_bounds(VectorField(d, func, np.inf, np.inf), sup_bound, lip_bound,
                              region)
    box = None if region is None else {"lo": list(map(float, region.lo)),
                                       "hi": list(map(float, region.hi))}
    desc = {"kind": "expression", "exprs": list(exprs), "sup_bound": vf.sup_bound,
            "lip_bound": vf.lip_bound, "domain_box": box}
    return replace(vf, descriptor=desc)


# ---------------------------------------------------------------------------
# builtin catalog


def _cellular(params):
    amp = float(params["amplitude"])

    def func(x):
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        out[..., 0] = amp * np.sin(x[..., 0]) * np.cos(x[..., 1])
        out[..., 1] = -amp * np.cos(x[..., 0]) * np.sin(x[..., 1])
        return out

    def jacobian(x):
        x = np.asarray(x, dtype=float)
        a, b = x[..., 0], x[..., 1]
        J = np.empty(x.shape[:-1] + (2, 2))
        J[..., 0, 0] = amp * np.cos(a) * np.cos(b)
        J[..., 0, 1] = -amp * np.sin(a) * np.sin(b)
        J[..., 1, 0] = amp * np.sin(a) * np.sin(b)
        J[..., 1, 1] = -amp * np.cos(a) * np.cos(b)
        return J

    return VectorField(2, func, abs(amp), abs(amp), jacobian,
                       {"kind": "builtin", "name": "cellular", "params": {"amplitude": amp}})


def cellular_stream(x, amplitude: float = 1.0):
    """Stream function of the cellular flow; a first integral of its orbits.

    Kept as the oracle that integrator and field tests check conservation
    against: it is constant along every exact orbit."""
    x = np.asarray(x, dtype=float)
    return amplitude * np.sin(x[..., 0]) * np.sin(x[..., 1])


def _rotation(params):
    radius = float(params["box_radius"])

    def func(x):
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        out[..., 0] = x[..., 1]
        out[..., 1] = -x[..., 0]
        return out

    def jacobian(x):
        x = np.asarray(x, dtype=float)
        J = np.zeros(x.shape[:-1] + (2, 2))
        J[..., 0, 1] = 1.0
        J[..., 1, 0] = -1.0
        return J

    box = Box((-radius, -radius), (radius, radius))
    return VectorField(2, func, radius * np.sqrt(2.0), 1.0, jacobian,
                       {"kind": "builtin", "name": "rotation",
                        "params": {"box_radius": radius}}, box)


def _constant(params):
    c = np.asarray(params["c"], dtype=float)
    d = c.size

    def func(x):
        out = np.empty_like(x, dtype=float)
        out[...] = c
        return out

    def jacobian(x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (d, d))

    return VectorField(d, func, float(np.linalg.norm(c)), 0.0, jacobian,
                       {"kind": "builtin", "name": "constant", "params": {"c": list(map(float, c))}})


def _shear(params):
    def func(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        out[..., 0] = np.sin(x[..., 1])
        return out

    def jacobian(x):
        x = np.asarray(x, dtype=float)
        J = np.zeros(x.shape[:-1] + (2, 2))
        J[..., 0, 1] = np.cos(x[..., 1])
        return J

    return VectorField(2, func, 1.0, 1.0, jacobian,
                       {"kind": "builtin", "name": "shear", "params": {}})


def _winding(params):
    c = np.asarray(params["velocity"], dtype=float)
    f = _constant({"c": c})
    desc = {"kind": "builtin", "name": "winding", "params": {"velocity": list(map(float, c))}}
    return VectorField(f.dim, f.func, f.sup_bound, f.lip_bound, f.jacobian, desc)


def _abc(params):
    a, b, c = (float(params[k]) for k in "abc")

    def func(x):
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        out[..., 0] = a * np.sin(x[..., 2]) + c * np.cos(x[..., 1])
        out[..., 1] = b * np.sin(x[..., 0]) + a * np.cos(x[..., 2])
        out[..., 2] = c * np.sin(x[..., 1]) + b * np.cos(x[..., 0])
        return out

    def jacobian(x):
        x = np.asarray(x, dtype=float)
        J = np.zeros(x.shape[:-1] + (3, 3))
        J[..., 0, 1] = -c * np.sin(x[..., 1])
        J[..., 0, 2] = a * np.cos(x[..., 2])
        J[..., 1, 0] = b * np.cos(x[..., 0])
        J[..., 1, 2] = -a * np.sin(x[..., 2])
        J[..., 2, 0] = -b * np.sin(x[..., 0])
        J[..., 2, 1] = c * np.cos(x[..., 1])
        return J

    sup = float(np.sqrt((abs(a) + abs(c)) ** 2 + (abs(a) + abs(b)) ** 2 + (abs(b) + abs(c)) ** 2))
    lip = float(np.sqrt(3.0) * max(abs(a), abs(b), abs(c)))
    return VectorField(3, func, sup, lip, jacobian,
                       {"kind": "builtin", "name": "abc", "params": {"a": a, "b": b, "c": c}})


def _zero(params):
    d = int(params["dim"])
    f = _constant({"c": np.zeros(d)})
    desc = {"kind": "builtin", "name": "zero", "params": {"dim": d}}
    return VectorField(d, f.func, f.sup_bound, f.lip_bound, f.jacobian, desc)


# each builtin's constructor and the parameters it takes, with their
# defaults; a parameter whose default is None must be given
_BUILTINS = {
    "cellular": (_cellular, {"amplitude": 1.0}),
    "rotation": (_rotation, {"box_radius": 2.0}),
    "constant": (_constant, {"c": None}),
    "shear": (_shear, {}),
    "winding": (_winding, {"velocity": [1.0, np.sqrt(2.0)]}),
    "abc": (_abc, {"a": 1.0, "b": 1.0, "c": 1.0}),
    "zero": (_zero, {"dim": 2}),
}


def builtin_field(name: str, **params) -> VectorField:
    """The builtin field ``name`` with ``params``, each one it takes; an
    unknown name or parameter, or a missing required one, is a
    FieldConstructionError."""
    if name not in _BUILTINS:
        raise FieldConstructionError(
            f"unknown builtin field {name!r}; have {sorted(_BUILTINS)}")
    make, takes = _BUILTINS[name]
    for key in params:
        if key not in takes:
            raise FieldConstructionError(
                f"builtin field {name!r} takes no parameter {key!r}; it takes {sorted(takes)}")
    for key, default in takes.items():
        if default is None and key not in params:
            raise FieldConstructionError(f"builtin field {name!r} needs parameter {key!r}")
    return make({**takes, **params})


def build_field(d: dict) -> VectorField:
    """The field a dict describes: a config's ``field`` section (less its
    ``domain`` and ``period``) and a field's ``descriptor``, such as a
    ``control.json`` field entry, are one form, read here.

    A builtin takes its parameters from ``params`` (a descriptor) or from
    its top-level keys (a config).  An expression given neither bound has
    them sampled, given one has the other missing; arrays may be arrays,
    lists or packed JSON.  ``domain_box`` becomes the region of a field
    whose kind sets none.  A missing key is a KeyError; an unknown kind a
    FieldConstructionError.
    """
    kind = d["kind"]
    box = d.get("domain_box")
    box = None if box is None else Box(tuple(box["lo"]), tuple(box["hi"]))
    if kind == "builtin":
        params = d["params"] if "params" in d else {
            k: v for k, v in d.items() if k not in ("kind", "name", "domain_box")}
        f = builtin_field(d.get("name"), **params)
    elif kind == "expression":
        # a config gives neither bound and they are sampled; a descriptor both
        bounds = ((d["sup_bound"], d["lip_bound"])
                  if "sup_bound" in d or "lip_bound" in d else (None, None))
        f = expression_field(d["exprs"], *bounds, box)
    elif kind == "grid":
        f = grid_field([jsonio.unpack_array(a) for a in d["axes"]],
                       jsonio.unpack_array(d["values"]))
    elif kind == "corrected":
        from .correction import corrected_field_from_descriptor

        f = corrected_field_from_descriptor(d)
    elif kind == "pushforward":
        from .deform import pushforward_from_descriptor

        f = pushforward_from_descriptor(d)
    else:
        raise FieldConstructionError(f"unknown field kind {kind!r}")
    if box is not None and f.domain_box is None:
        f = replace(f, domain_box=box)
    return f


# ---------------------------------------------------------------------------
# sampled audits


def estimate_divergence(V: VectorField, x, h: float):
    """Central-difference divergence at x; second order in h for C^2 fields.

    A (d,) point gives a float, (n, d) points give (n,) values, each bitwise
    its point's own.
    """
    if h <= 0:
        raise ValueError("step must be positive")
    x = np.asarray(x, dtype=float)
    div = 0.0  # the trace of the central differences, in index order
    for i, col in enumerate(_central_columns(V, x, h)):
        div += col[..., i]
    return float(div) if x.ndim == 1 else div


def estimate_norms(V: VectorField, region: Box, n_samples: int, seed: int = 0):
    """Sampled lower bounds (sup_est, lip_est) on ||V||_inf and Lip V.

    Points and probe directions come from independent child streams of the
    seed, so extending ``n_samples`` keeps the earlier draws as a prefix and
    both estimates grow monotonically.
    """
    if n_samples < 2:
        raise ValueError("need at least two samples")
    rng_pts, rng_dir = spawn_rngs(seed, 2)
    pts = np.asarray(region.lo) + rng_pts.random((n_samples, region.dim)) * region.widths
    vals = V.eval(pts)
    sup_est = float(np.max(np.linalg.norm(vals, axis=1)))

    lip = 0.0
    m = n_samples // 2
    if m:
        a, b = pts[0:2 * m:2], pts[1:2 * m:2]
        gap = np.linalg.norm(b - a, axis=1)
        ok = gap > 0
        if np.any(ok):
            quot = np.linalg.norm(V.eval(b[ok]) - V.eval(a[ok]), axis=1) / gap[ok]
            lip = float(np.max(quot))
    step = 1e-6 * max(1.0, float(np.max(region.widths)))
    dirs = rng_dir.standard_normal((n_samples, region.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    fd = np.linalg.norm(V.eval(pts + step * dirs) - vals, axis=1) / step
    lip = max(lip, float(np.max(fd)))
    return sup_est, lip


def mean_drift(V: VectorField, ell: float, anchors, resolution: int = 64) -> float:
    """max over anchors of |(1/ell^d) integral of V over anchor + [0, ell]^d|.

    Tensor-grid midpoint rule; error O(resolution^-2) for smooth fields.
    """
    if ell <= 0:
        raise ValueError("box size must be positive")
    anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
    if anchors.size == 0:
        raise ValueError("anchor list must not be empty")
    d = V.dim
    mid = (np.arange(resolution) + 0.5) * (ell / resolution)
    grids = np.meshgrid(*([mid] * d), indexing="ij")
    offsets = np.stack([g.ravel() for g in grids], axis=1)
    worst = 0.0
    for a in anchors:
        avg = V.eval(a + offsets).mean(axis=0)
        worst = max(worst, float(np.linalg.norm(avg)))
    return worst


@dataclass(frozen=True)
class DriftReport:
    """Per-scale drift suprema and the resulting verdict."""

    box_sizes: tuple
    drifts: tuple
    anchors_used: int
    threshold: float
    verdict: str

    def to_json(self) -> dict:
        return {
            "entries": [{"l": float(l), "drift": float(g)}
                        for l, g in zip(self.box_sizes, self.drifts)],
            "anchors_used": self.anchors_used,
            "threshold": float(self.threshold),
            "verdict": self.verdict,
        }


_VMD_ANCHORS = 9          # per scale
_VMD_RESOLUTION = 64      # midpoint-rule nodes per axis of a box


def check_vmd(V: VectorField, l_schedule, threshold: float) -> DriftReport:
    """Vanishing-mean-drift verdict over an increasing schedule of box sizes.

    Verdict policy: ``vanishing`` iff the drift at the largest scale falls
    below the threshold and the sequence is nonincreasing within 10% slack;
    ``nonvanishing`` iff the drift stays at or above the threshold at every
    scale; otherwise ``inconclusive``.  Anchors are a fixed low-discrepancy
    set per scale, so the recorded suprema are lower bounds of the true sup.
    """
    ls = [float(l) for l in l_schedule]
    if not ls or any(b <= a for a, b in zip(ls, ls[1:])):
        raise ValueError("schedule must be nonempty and increasing")
    drifts = []
    for ell in ls:
        anchors = (halton(_VMD_ANCHORS, V.dim, start=1) - 0.5) * ell
        drifts.append(mean_drift(V, ell, anchors, _VMD_RESOLUTION))
    # slack floor keeps roundoff-level drifts from flipping the monotone test
    floor = 1e-13 * max(1.0, V.sup_bound if np.isfinite(V.sup_bound) else 1.0)
    nonincreasing = all(b <= 1.1 * a + floor for a, b in zip(drifts, drifts[1:]))
    if drifts[-1] < threshold and nonincreasing:
        verdict = "vanishing"
    elif all(g >= threshold for g in drifts):
        verdict = "nonvanishing"
    else:
        verdict = "inconclusive"
    return DriftReport(tuple(ls), tuple(drifts), _VMD_ANCHORS, threshold, verdict)
