"""Adaptive ODE integration and piecewise control schedules.

The stepper runs an embedded Runge-Kutta pair over an (N, d) state: N
trajectories advance together, each row with its own span [t0, t1], step
size, acceptance, control segment and optional stop test, and a single (d,)
start is a batch of one.  The step cap picks the pair.  A solve without a
cap (``IntegratorSettings.h_max`` infinite, the default) runs the
Dormand-Prince 8(5,3) pair (DOP853; Hairer, Norsett and Wanner, *Solving
ODEs I*, II.5-II.6): 12 stages a step, the derivative at its end being the
next step's first, about a quarter of the steps of the fifth-order pair at
the tolerances used here, and seventh-order dense output whose three extra
stages are evaluated only for the steps that ``Trajectory.at`` reads, once
per solve.  A capped solve runs Dormand-Prince 5(4), six evaluations a step
with the derivative at its end kept for the next (FSAL), and its
trajectories read the cubic Hermite between nodes: the cap (or its edges)
sets its steps whatever the tableau, so the cheaper step wins.  One
tolerance, ``IntegratorSettings.tol``, weighs every step's error against
``tol + tol max(|y|, |y_new|)``.  The planner rides on DOP853 at tol 1e-11
and ``verify_plan`` replays on it at 1e-12, so the audit takes steps of its
own.  On the spline-corrected field, whose third derivative jumps at every
knot, DOP853's long steps have an error floor of 1e-11 to 1e-9 over a few
periods that its estimates do not see: below 1e-10 its tolerance buys
little accuracy.
Stage sums accumulate one stage at a time, elementwise, never through a
BLAS product, so a row's nodes are bitwise the same whatever batch it runs
in.
Controls are closed-form segment descriptors evaluated inside the stepper,
on all rows in a segment at once; at a segment boundary the step is clamped
to the boundary and the new segment's formula is used from that node on
(the jump happens at the right limit, so a control supported on
(s - tau, s] is still exactly zero at s - tau when sampled pointwise).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field as dc_field, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import FieldConstructionError, IntegrationError, ScheduleError
from .fields import build_field
from . import jsonio

__all__ = [
    "IntegratorSettings",
    "Trajectory",
    "ControlSchedule",
    "Segment",
    "ZeroControl",
    "ConstantControl",
    "SteerControl",
    "FieldDifferenceControl",
    "SumControl",
    "integrate",
    "integrate_controlled",
    "sup_norm",
    "zero_schedule",
]


# DOP853 tableau (Prince and Dormand 1981, as in Hairer's dop853): stages
# 0-11 take a step, row 12 is the eighth-order update and stage 12 the
# derivative at its end, and stages 13-15 are the dense output's extras.
_C = np.array([
    0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142,
    1.0, 1.0, 0.1, 0.2, 0.777777777777777777777777777778])
_A = np.zeros((16, 16))
for _i, _row in enumerate((
        (),
        (5.26001519587677318785587544488e-2,),
        (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
        (2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2),
        (2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
         9.24834003261792003115737966543e-1),
        (3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
         1.25467687566822425016691814123e-1),
        (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
         6.02165389804559606850219397283e-2, -1.7578125e-2),
        (3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
         1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
         8.27378916381402288758473766002e-3),
        (6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
         -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
         2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1),
        (4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
         -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
         1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
         -2.03312017085086261358222928593e-2),
        (-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
         1.09143734899672957818500254654, -8.14978701074692612513997267357,
         -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
         2.49360555267965238987089396762, -3.0467644718982195003823669022),
        (2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
         -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
         2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
         -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
         6.43392746015763530355970484046e-1),
        (5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
         4.45031289275240888144113950566, 1.89151789931450038304281599044,
         -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
         -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
         4.47106157277725905176885569043e-2),
        (5.61675022830479523392909219681e-2, 0.0, 0.0, 0.0, 0.0, 0.0,
         2.53500210216624811088794765333e-1, -2.46239037470802489917441475441e-1,
         -1.24191423263816360469010140626e-1, 1.5329179827876569731206322685e-1,
         8.20105229563468988491666602057e-3, 7.56789766054569976138603589584e-3,
         -8.298e-3),
        (3.18346481635021405060768473261e-2, 0.0, 0.0, 0.0, 0.0,
         2.83009096723667755288322961402e-2, 5.35419883074385676223797384372e-2,
         -5.49237485713909884646569340306e-2, 0.0, 0.0,
         -1.08347328697249322858509316994e-4, 3.82571090835658412954920192323e-4,
         -3.40465008687404560802977114492e-4, 1.41312443674632500278074618366e-1),
        (-4.28896301583791923408573538692e-1, 0.0, 0.0, 0.0, 0.0,
         -4.69762141536116384314449447206, 7.68342119606259904184240953878,
         4.06898981839711007970213554331, 3.56727187455281109270669543021e-1, 0.0, 0.0,
         0.0, -1.39902416515901462129418009734e-3, 2.9475147891527723389556272149,
         -9.15095847217987001081870187138))):
    _A[_i, :len(_row)] = _row
_B = _A[12, :12]
# the fifth- and third-order error estimates' weights
_E5 = np.zeros(12)
_E5[[0, 5, 6, 7, 8, 9, 10, 11]] = (
    0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1)
_E3 = _B.copy()
_E3[0] -= 0.244094488188976377952755905512
_E3[8] -= 0.733846688281611857341361741547
_E3[11] -= 0.220588235294117647058823529412e-1
# the dense output's four higher coefficients, over stages 0-15
_D = np.zeros((4, 16))
_D[:, [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]] = (
    (-0.84289382761090128651353491142e+1, 0.56671495351937776962531783590,
     -0.30689499459498916912797304727e+1, 0.23846676565120698287728149680e+1,
     0.21170345824450282767155149946e+1, -0.87139158377797299206789907490,
     0.22404374302607882758541771650e+1, 0.63157877876946881815570249290,
     -0.88990336451333310820698117400e-1, 0.18148505520854727256656404962e+2,
     -0.91946323924783554000451984436e+1, -0.44360363875948939664310572000e+1),
    (0.10427508642579134603413151009e+2, 0.24228349177525818288430175319e+3,
     0.16520045171727028198505394887e+3, -0.37454675472269020279518312152e+3,
     -0.22113666853125306036270938578e+2, 0.77334326684722638389603898808e+1,
     -0.30674084731089398182061213626e+2, -0.93321305264302278729567221706e+1,
     0.15697238121770843886131091075e+2, -0.31139403219565177677282850411e+2,
     -0.93529243588444783865713862664e+1, 0.35816841486394083752465898540e+2),
    (0.19985053242002433820987653617e+2, -0.38703730874935176555105901742e+3,
     -0.18917813819516756882830838328e+3, 0.52780815920542364900561016686e+3,
     -0.11573902539959630126141871134e+2, 0.68812326946963000169666922661e+1,
     -0.10006050966910838403183860980e+1, 0.77771377980534432092869265740,
     -0.27782057523535084065932004339e+1, -0.60196695231264120758267380846e+2,
     0.84320405506677161018159903784e+2, 0.11992291136182789328035130030e+2),
    (-0.25693933462703749003312586129e+2, -0.15418974869023643374053993627e+3,
     -0.23152937917604549567536039109e+3, 0.35763911791061412378285349910e+3,
     0.93405324183624310003907691704e+2, -0.37458323136451633156875139351e+2,
     0.10409964950896230045147246184e+3, 0.29840293426660503123344363579e+2,
     -0.43533456590011143754432175058e+2, 0.96324553959188282948394950600e+2,
     -0.39177261675615439165231486172e+2, -0.14972683625798562581422125276e+3))


# Dormand-Prince 5(4) (FSAL), the tableau of step-capped solves
_C5 = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A5 = np.zeros((7, 7))
for _i, _row in enumerate(((), (1 / 5,), (3 / 40, 9 / 40), (44 / 45, -56 / 15, 32 / 9),
                           (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
                           (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
                           (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84))):
    _A5[_i, :len(_row)] = _row
_B5 = np.append(_A5[6, :6], 0.0)
_E5_4 = _B5 - np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                        -92097 / 339200, 187 / 2100, 1 / 40])


_MAX_STEPS = 20_000_000  # the steps a row may take before the stepper gives up


@dataclass(frozen=True)
class IntegratorSettings:
    """The stepper's tolerance, first step and step cap.  A step whose error
    is within tol + tol max(|y|, |y_new|) is accepted; a cap also picks the
    tableau, Dormand-Prince 5(4), and no cap DOP853."""

    tol: float = 1e-9
    h_init: Optional[float] = None
    h_max: float = np.inf

    def refined(self) -> "IntegratorSettings":
        """The tolerance ten times tighter."""
        return replace(self, tol=self.tol / 10.0)

    def resolving(self, radius: float, speed: float) -> "IntegratorSettings":
        """Cap steps at one eighth of the time to cross ``radius`` at ``speed``.

        A feature of that radius, such as a surgery ball, is far smaller than
        the natural step on a smooth field, and the error estimator cannot
        flag what its stages never sample, so the cap must resolve it.  A
        surgery's orbit takes the cap only where it passes a ball
        (``deform.surgery_orbit``); ``verify_plan``'s blind replay of a
        bridge's first coast is the one whole-span use.  Capped solves run
        Dormand-Prince 5(4), whose stage nodes are at most half a step apart.
        """
        return replace(self, h_max=min(self.h_max, radius / (8 * max(speed, 1e-12))))


def _basis(x: float):
    """The dense output's basis at x: 1, x, x(1-x), x^2(1-x), x^2(1-x)^2,
    x^3(1-x)^2, x^3(1-x)^3 and x^4(1-x)^3."""
    u = 1.0 - x
    b1 = x * u
    b2 = x * b1
    b3 = b2 * u
    b4 = x * b3
    b5 = b4 * u
    return (1.0, x, b1, b2, b3, b4, b5, x * b5)


@dataclass(frozen=True)
class Trajectory:
    """Solution curve with node-exact dense output.

    The stepper's nodes, and ``d_left[i]`` and ``d_right[i]``, the right-hand
    side at the two ends of [times[i], times[i+1]] as seen by that interval
    (they can differ across control-segment boundaries).  On a step of size
    h from y0, with x = (t - t_i) / h, the state is

        y0 + x (F0 + (1-x) (F1 + x (F2 + (1-x) (F3 + x (F4 + (1-x) (F5 + x F6))))))

    with F0 = dy, F1 = h d_left - dy and F2 = 2 dy - h (d_left + d_right),
    the cubic Hermite, and DOP853's F3 .. F6.  ``dense`` says where a step's
    coefficients come from: blocks ``(first, store, entries)`` give interval
    ``first + j`` the (8, d) rows y0, F0 .. F6 of
    ``store.coeffs(entries[j])``, where ``store`` is the node log of the
    solve that took the step, shared by every trajectory of that solve and
    every piece or join of one.  An interval that no block covers, such as
    a step-capped solve's, reads the cubic Hermite of its own nodes.
    """

    times: np.ndarray
    states: np.ndarray
    d_left: np.ndarray
    d_right: np.ndarray
    dense: tuple = ()

    @property
    def t0(self) -> float:
        return float(self.times[0])

    @property
    def t1(self) -> float:
        return float(self.times[-1])

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @cached_property
    def _firsts(self) -> list:
        return [first for first, _, _ in self.dense]

    def at(self, t: float) -> np.ndarray:
        """Dense-output state at time t; exact at stored nodes."""
        times = self.times
        if t <= times[0]:
            if t < times[0] - 1e-12 * max(1.0, abs(times[0])):
                raise ValueError(f"time {t} before trajectory start {times[0]}")
            return self.states[0].copy()
        if t >= times[-1]:
            if t > times[-1] + 1e-12 * max(1.0, abs(times[-1])):
                raise ValueError(f"time {t} after trajectory end {times[-1]}")
            return self.states[-1].copy()
        i = int(times.searchsorted(t, side="right")) - 1
        if times[i] == t:
            return self.states[i].copy()
        h = times[i + 1] - times[i]
        x = (t - times[i]) / h
        # the last block that starts by interval i; the blocks start in order
        k = bisect_right(self._firsts, i) - 1
        if k >= 0:
            first, store, entries = self.dense[k]
            if i - first < len(entries):
                return np.dot(_basis(x), store.coeffs(int(entries[i - first])))
        h00 = (1 + 2 * x) * (1 - x) ** 2
        h10 = x * (1 - x) ** 2
        h01 = x * x * (3 - 2 * x)
        h11 = x * x * (x - 1)
        return (h00 * self.states[i] + h01 * self.states[i + 1]
                + h * (h10 * self.d_left[i] + h11 * self.d_right[i]))

    def piece(self, i: int, j: int) -> "Trajectory":
        """The part from node i to node j."""
        dense = tuple((max(first - i, 0), store, entries[max(i - first, 0):j - first])
                      for first, store, entries in self.dense
                      if first < j and first + len(entries) > i)
        return Trajectory(self.times[i:j + 1], self.states[i:j + 1],
                          self.d_left[i:j], self.d_right[i:j], dense)

    @staticmethod
    def join(pieces) -> "Trajectory":
        """Concatenate consecutive trajectories sharing their junction nodes."""
        pieces = list(pieces)
        if len(pieces) == 1:
            return pieces[0]
        times = [pieces[0].times]
        states = [pieces[0].states]
        d_left = [p.d_left for p in pieces]
        d_right = [p.d_right for p in pieces]
        for prev, nxt in zip(pieces, pieces[1:]):
            if abs(prev.t1 - nxt.t0) > 1e-12 * max(1.0, abs(prev.t1)):
                raise ValueError("pieces do not meet in time")
            times.append(nxt.times[1:])
            states.append(nxt.states[1:])
        dense, offset = [], 0
        for p in pieces:
            dense += [(first + offset, store, entries) for first, store, entries in p.dense]
            offset += len(p.times) - 1
        return Trajectory(np.concatenate(times), np.concatenate(states),
                          np.concatenate(d_left), np.concatenate(d_right), tuple(dense))

    def to_csv(self) -> str:
        d = self.dim
        lines = ["t," + ",".join(f"x{i + 1}" for i in range(d))]
        for t, x in zip(self.times, self.states):
            lines.append(",".join([repr(float(t))] + [repr(float(v)) for v in x]))
        return "\n".join(lines) + "\n"


def _landing_tol(y):
    """How far a state integrated onto a known point ``y`` may land from it:
    1e-9 max(1, |y|), one value per row of an (n, d) ``y``, each norm
    bitwise ``np.linalg.norm`` of its row."""
    y = np.asarray(y, dtype=float)
    return 1e-9 * np.maximum(1.0, np.sqrt(np.vecdot(y, y)))


def _landings(ends, y):
    """Each (n, d) row's or one (d,) pair's |end - y|, bitwise its norm, and
    the indices of those beyond :func:`_landing_tol` of ``y`` or NaN."""
    miss = np.subtract(ends, y)
    landing = np.sqrt(np.vecdot(miss, miss))
    return landing, np.flatnonzero(~(landing <= _landing_tol(y)))


def _row_sums(a):
    """Sum over the last axis, left to right, so that a row's sum is
    bitwise the same in any batch."""
    out = a[..., 0]
    for c in range(1, a.shape[-1]):
        out = out + a[..., c]
    return out


class _Nodes:
    """Accepted nodes of a batched solve, logged in the order they are taken,
    and the dense output of its steps.

    Entry e holds a node's time and state and, for every node after a row's
    first, the right-hand sides at the two ends of the interval that ends
    there; for DOP853 it also holds what the dense output starts from: the
    step's size h and edge interval g, the sums over its 12 stages that its
    three extra stages and four higher terms start from, and ``prev``, the
    entry of the node the step starts at.  Appending a step is a slice
    write whatever rows took it, and ``index[r, :count[r]]`` lists row r's
    entries in order, in a solve of one row as in any other, so a row's
    trajectory is gathered from its own entries when it is asked for, and
    copies its nodes.  Its dense output stays here: ``coeffs(e)`` are the
    coefficient rows of the step that ends at entry e, evaluated on the
    first read by any trajectory of the solve and kept, so a step's extra
    stages are evaluated at most once per solve however often its row is
    gathered.  ``rhs`` is the solve's right-hand side, which they are
    evaluated on as one-row calls; ``sums`` is the number of dense-output
    sums a step keeps, 0 for a tableau whose trajectories read the cubic
    Hermite.
    """

    def __init__(self, t0s, y, rhs, sums):
        n, d = y.shape
        cap = 64 * n
        self.rhs = rhs
        self.times = np.empty(cap)
        self.states, self.d_left, self.d_right = np.empty((3, cap, d))
        self.columns = ["times", "states", "d_left", "d_right"]
        self.dense = sums > 0
        if self.dense:
            self.g, self.prev = np.empty((2, cap), dtype=np.intp)
            self.h = np.empty(cap)
            self.part = np.empty((cap, sums, d))
            self.columns += ["g", "prev", "h", "part"]
            self.cache = {}
        self.size = n
        self.times[:n], self.states[:n] = t0s, y
        self.count = np.ones(n, dtype=np.intp)
        self.index = np.empty((n, 64), dtype=np.intp)
        self.index[:, 0] = range(n)

    def push(self, rows, t, y, left, right, dense):
        """Log one step of ``rows``; ``dense`` is (g, h, part) when the
        tableau has a dense output, else None."""
        lo, hi = self.size, self.size + len(t)
        if hi > len(self.times):
            for name in self.columns:
                old = getattr(self, name)
                new = np.empty((2 * len(old) + len(t),) + old.shape[1:], old.dtype)
                new[:lo] = old[:lo]
                setattr(self, name, new)
        self.times[lo:hi] = t
        self.states[lo:hi] = y
        self.d_left[lo:hi] = left
        self.d_right[lo:hi] = right
        count = self.count[rows]
        if count.max() == self.index.shape[1]:
            self.index = np.concatenate([self.index, np.empty_like(self.index)], axis=1)
        if dense is not None:
            self.g[lo:hi], self.h[lo:hi], self.part[lo:hi] = dense
            self.prev[lo:hi] = self.index[rows, count - 1]
        self.size = hi
        self.index[rows, count] = np.arange(lo, hi)
        self.count[rows] = count + 1

    def steps(self, rows):
        """The accepted steps of each of ``rows``."""
        return self.count[rows] - 1

    def trajectory(self, row: int) -> Trajectory:
        idx = self.index[row, :self.count[row]]
        steps = idx[1:]
        dense = ((0, self, steps),) if self.dense else ()
        return Trajectory(self.times[idx], self.states[idx], self.d_left[steps],
                          self.d_right[steps], dense)

    def coeffs(self, e: int) -> np.ndarray:
        """y0 and F0 .. F6 of the DOP853 step that ends at entry e, (8, d):
        its three extra stages are evaluated on the first read, from the
        step's start, and kept."""
        out = self.cache.get(e)
        if out is None:
            j = self.prev[e]
            h, g, part = self.h[e], self.g[e:e + 1], self.part[e]
            t0, y0 = self.times[j], self.states[j]
            f0, f1 = self.d_left[e], self.d_right[e]
            k = [f1]  # stage 12, the derivative at the step's end
            for s in range(13, 16):
                acc = part[s - 13]
                for i, ki in enumerate(k, start=12):
                    acc = acc + _A[s, i] * ki
                k.append(self.rhs(t0 + _C[s:s + 1] * h, (y0 + h * acc)[None], g)[0])
            acc = part[3:]
            for i, ki in enumerate(k, start=12):
                acc = acc + _D[:, i, None] * ki
            dy = self.states[e] - y0
            out = self.cache[e] = np.concatenate(
                [[y0, dy, h * f0 - dy, 2.0 * dy - h * (f0 + f1)], h * acc])
        return out


@dataclass(frozen=True)
class _Tableau:
    """An embedded pair as the stepper runs it.  ``cols[j]`` weighs stage j
    into the stage-sum rows from j on: row i - 1 collects stage i's input
    (i = 1 .. stages - 1), row ``stages - 1`` the update, the next
    ``errors`` rows the error estimates and the rest the dense output's
    sums.  ``fsal``: the last stage is the derivative at the step's end."""

    c: np.ndarray
    cols: tuple
    errors: int
    fsal: bool
    exponent: float

    @property
    def stages(self) -> int:
        return len(self.c)


def _tableau(c, w, errors, fsal, exponent) -> _Tableau:
    return _Tableau(c, tuple(w[j:, j, None, None].copy() for j in range(len(c))), errors,
                    fsal, exponent)


# Dormand-Prince 5(4), the tableau of every step-capped solve: six
# evaluations a step against DOP853's twelve, at steps a cap fixes either
# way.  Its trajectories read the cubic Hermite.
_DP5 = _tableau(_C5, np.vstack([_A5[1:], _B5, _E5_4]), 1, True, -0.2)
# DOP853's error rows are its fifth- and third-order estimates; then come
# the inputs of the dense output's three extra stages and its four higher
# terms, both short of the stages after the step's own.
_DOP853 = _tableau(_C[:12], np.vstack([_A[1:13, :12], _E5, _E3, _A[13:16, :12], _D[:, :12]]),
                   2, False, -0.125)


def _adaptive_solve(rhs, x0, t0, t1, settings, edges=(), stop=None):
    """Core stepper over an (N, d) state; a (d,) start is a batch of one.

    The step cap picks the tableau: DOP853 when ``settings.h_max`` is
    infinite, else Dormand-Prince 5(4) with every step at most ``h_max``.
    ``t0`` and ``t1`` are scalars or one span per row.  Each row takes its
    own steps: step size, acceptance and the current edge interval are per
    row, and no step straddles an edge.  ``edges`` is one sorted list for all
    rows.  A row keeps one global interval index g, the number of edges at
    or before its interval's start; that interval ends at ``edges[g]`` when
    it lies strictly inside the row's span, else at the span's end, where
    the row ends.  At an edge g advances and the right-hand side is
    re-evaluated with the next interval's formula (the right limit).
    ``rhs(t, y, k)`` sees the running rows as (n,) times, (n, d) states
    and (n,) intervals k = g, a lone row as a batch of one.  Stage sums
    accumulate one stage at a time, elementwise, and the step control is
    array arithmetic over the running rows, with per-row masks for
    acceptance and edges (for DOP853, Hairer's error norm, which weighs the
    fifth-order estimate against the third, per row in ``_row_sums``' order,
    and the step factor ``0.9 err^(-1/8)``; for Dormand-Prince 5(4), the RMS
    norm and ``0.9 err^(-1/5)``; the power is Python's scalar one, row by
    row, whose bits numpy's vector power does not keep), so a row's nodes
    are bitwise the same in any batch.

    ``stop(rows, t, y, nodes)``, when given, sees after every accepted step
    the indices of the rows that took it, their new times and (n, d) states,
    and the node log (``nodes.trajectory(row)``); the rows it flags end
    there.  Returns a Trajectory for a (d,) start, else a list of N.  A row
    that has taken ``_MAX_STEPS`` steps, whose step underflows or whose
    error estimate is NaN raises IntegrationError with its last accepted
    time and state.
    """
    x0 = np.asarray(x0, dtype=float)
    single = x0.ndim == 1
    n, d = (1, x0.size) if single else x0.shape
    t, t1s = np.empty(n), np.empty(n)
    t[:], t1s[:] = t0, t1
    if np.count_nonzero(t1s > t) < n:
        raise ValueError("need t1 > t0")
    # no row's underflow bound 1e-14 max(1, |t|) exceeds this
    floor = 1e-14 * max(1.0, np.abs(t).max(), np.abs(t1s).max())
    capped = settings.h_max < np.inf
    tab = _DP5 if capped else _DOP853
    stages, cols, c = tab.stages, tab.cols, tab.c[:, None]
    sums = len(cols[0]) - stages - tab.errors
    nodes = _Nodes(t, x0.reshape(n, d), rhs, sums)

    def f(tc, y, k):
        """Right-hand side at (n,) stage times of the running rows."""
        return np.asarray(rhs(tc, y, k), dtype=float)

    # the edges, then +inf for the interval after the last one
    bounds = np.concatenate((np.asarray(edges, dtype=float), [np.inf]))

    def interval(g):
        """Where each running row's interval g ends, and how close a step
        must land to snap onto that end."""
        e = bounds[g]
        end = np.where(e < t1s, e, t1s)
        return end, 1e-14 * np.maximum(1.0, np.abs(end))

    # the running rows and their global interval index g
    rows = np.arange(n)
    g = bounds[:-1].searchsorted(t, side="right")
    end, near = interval(g)
    y = x0.reshape(n, d).copy()
    k1 = f(t + 0.0, y, g)  # a stage time t + c h, with c = h = 0
    spans = t1s - t
    if settings.h_init:
        h = np.full(n, float(settings.h_init))
    else:
        ny = np.sqrt(_row_sums(y * y))
        nk = np.sqrt(_row_sums(k1 * k1))
        h = np.minimum(spans / 100.0, 0.1 * (1.0 + ny) / (1.0 + nk))
    h = np.minimum(np.minimum(h, settings.h_max), spans)
    iterations = 0
    while True:
        iterations += 1
        if capped:
            h = np.minimum(h, settings.h_max)
        h = np.minimum(h, end - t)
        # a NaN step, which a NaN error estimate gives, is not above floor
        if iterations > _MAX_STEPS or np.count_nonzero(h > floor) < len(rows):
            over = (iterations > _MAX_STEPS) & (nodes.steps(rows) >= _MAX_STEPS)
            nan = np.isnan(h)
            bad = over | nan | (h <= 1e-14 * np.maximum(1.0, np.abs(t)))
            if np.count_nonzero(bad):
                j = int(np.argmax(bad))
                raise IntegrationError(
                    "step limit exceeded" if over[j] else
                    "step error is NaN (the field is not finite there)" if nan[j] else
                    "step underflow (stiffness or blowup)", t=float(t[j]), state=y[j].copy())
        tcs = t + c * h
        hv = h[:, None]
        S = cols[0] * k1
        for i in range(1, stages):
            ki = f(tcs[i], y + hv * S[i - 1], g)
            S[i:] += cols[i] * ki
        y_new = y + hv * S[stages - 1]
        scale = settings.tol + settings.tol * np.maximum(np.abs(y), np.abs(y_new))
        if tab.fsal:
            q = hv * S[stages] / scale
            en = np.sqrt(_row_sums(q * q) / d)
        else:
            # Hairer's norm: the fifth-order estimate, damped by the third
            e5, e3 = S[stages] / scale, S[stages + 1] / scale
            s5 = _row_sums(e5 * e5)
            den = s5 + 0.01 * _row_sums(e3 * e3)
            en = h * s5 / np.sqrt(d * np.where(den > 0.0, den, 1.0))
        # an exact step grows fivefold; a NaN error stays NaN, and so does h
        factor = [5.0 if e == 0.0 else 0.9 * e ** tab.exponent for e in en.tolist()]
        h_next = h * np.minimum(5.0, np.maximum(0.2, factor))

        acc = en <= 1.0
        taken = np.count_nonzero(acc)
        ended, done, moved = None, 0, 0
        if taken:
            every = taken == len(rows)
            a = slice(None) if every else acc
            t_step = tcs[-1]  # the last stage's node is c = 1: t + h
            t_new, g_step = t_step, g
            snap = np.abs(t_step - end) <= near
            if not every:
                snap &= acc
            snapped = np.count_nonzero(snap)
            if snapped:
                t_new = end if snapped == len(rows) else np.where(snap, end, t_step)
                ended = snap & (end == t1s)
                moving = snap ^ ended
                moved = np.count_nonzero(moving)
                done = snapped - moved
                if moved:
                    # entering the next edge interval: the next step's first
                    # stage takes its formula (the right limit)
                    g = g + moving
                    end, near = interval(g)
            y_rows = y_new[a]
            k_end = ki[a] if tab.fsal else f(t_step[a], y_rows, g_step[a])
            nodes.push(rows[a], t_new[a], y_rows, k1[a], k_end,
                       (g_step[a], h[a], S[stages + tab.errors:, a].swapaxes(0, 1))
                       if sums else None)
            if every:
                t, y, k1 = t_new, y_new, k_end
            else:
                t = np.where(acc, t_new, t)
                y = np.where(acc[:, None], y_new, y)
                k1 = k1.copy()
                k1[acc] = k_end
            if moved == len(rows):
                k1 = f(t + 0.0, y, g)
            elif moved:
                k1 = k1.copy()
                k1[moving] = f(t[moving] + 0.0, y[moving], g[moving])
            if stop is not None:
                flags = np.zeros(len(rows), dtype=bool)
                flags[a] = stop(rows[a], t[a], y[a], nodes)
                ended = flags if ended is None else ended | flags
                done = np.count_nonzero(ended)
        h = h_next
        if done:
            if done == len(rows):
                break
            keep = ~ended
            rows, t, t1s, h, g, end, near, y, k1 = (
                v[keep] for v in (rows, t, t1s, h, g, end, near, y, k1))
    if single:
        return nodes.trajectory(0)
    return [nodes.trajectory(r) for r in range(n)]


def integrate(V, x0, t0, t1, settings: IntegratorSettings = IntegratorSettings(),
              stop=None, edges=()):
    """Solve dx/dt = V(x) on [t0, t1] with dense output.

    ``x0`` is one start of shape (d,), which gives one Trajectory, or N
    starts of shape (N, d), which give a list of N, a (d,) start running as
    a batch of one that ``V.eval`` takes as its point; ``t0`` and ``t1`` are
    scalars or one span end per row.  Every row's trajectory is bitwise the
    one its start and span give alone.  ``stop`` ends rows early and every
    time in the sorted ``edges`` inside a row's span is one of its nodes
    (see :func:`_adaptive_solve`).
    """

    def rhs(t, y, seg):
        return V.eval(y)

    return _adaptive_solve(rhs, x0, t0, t1, settings, edges=edges, stop=stop)


# ---------------------------------------------------------------------------
# control descriptors
#
# Every descriptor evaluates ``value(t, x)`` on (m,) times and (m, d) states,
# and a scalar t gives (d,); None stands for zero.  ``fields`` names the
# fields it references, in order, and ``params`` serializes it by their ids.


@dataclass(frozen=True)
class ZeroControl:
    kind = "zero"
    fields = ()

    def value(self, t, x=None):
        return None

    def analytic_sup(self):
        return 0.0

    def params(self, field_ids):
        return {}


@dataclass(frozen=True)
class ConstantControl:
    alpha: np.ndarray
    kind = "constant"
    fields = ()

    def value(self, t, x=None):
        return self.alpha

    def analytic_sup(self):
        return float(np.linalg.norm(self.alpha))

    def params(self, field_ids):
        return {"alpha": jsonio.vec(self.alpha)}


@dataclass(frozen=True)
class SteerControl:
    """u(t) = F(z) - F(x_corr(t)) + alpha on its segment.

    ``x_corr`` is the stored corrected path, a straight line from ``anchor``
    with velocity F(z) + alpha; the control is evaluated from it, never from
    a re-integration.
    """

    field: object
    z: np.ndarray
    alpha: np.ndarray
    s: float
    tau: float
    anchor: np.ndarray
    fz: np.ndarray

    kind = "steer"

    @property
    def fields(self):
        return (self.field,)

    def path(self, t):
        """The corrected path at t, or at each of (m,) times as (m, d)."""
        return self.anchor + np.multiply.outer(t - (self.s - self.tau), self.fz + self.alpha)

    def value(self, t, x=None):
        return self.fz - self.field.eval(self.path(t)) + self.alpha

    def analytic_sup(self):
        """The window's sup bound |alpha| + Lip (2 sup + |alpha|) tau."""
        a = float(np.linalg.norm(self.alpha))
        return a + self.field.lip_bound * (2.0 * self.field.sup_bound * self.tau + a * self.tau)

    def params(self, field_ids):
        return {
            "field": field_ids[id(self.field)],
            "z": jsonio.vec(self.z),
            "alpha": jsonio.vec(self.alpha),
            "s": float(self.s),
            "tau": float(self.tau),
            "anchor": jsonio.vec(self.anchor),
        }


@dataclass(frozen=True)
class FieldDifferenceControl:
    """u(t) = A(x(t)) - B(x(t)) along the concurrently integrated state.

    ``sup_hint`` bounds |u|; without one it is ``A.sup_bound + B.sup_bound``.
    """

    field_a: object
    field_b: object
    sup_hint: Optional[float] = None

    kind = "field_difference"

    def __post_init__(self):
        if self.sup_hint is None:
            object.__setattr__(self, "sup_hint",
                               self.field_a.sup_bound + self.field_b.sup_bound)

    @property
    def fields(self):
        return (self.field_a, self.field_b)

    def value(self, t, x=None):
        if x is None:
            raise ValueError("field-difference control needs the current state")
        return self.field_a.eval(x) - self.field_b.eval(x)

    def analytic_sup(self):
        return float(self.sup_hint)

    def params(self, field_ids):
        return {
            "a": field_ids[id(self.field_a)],
            "b": field_ids[id(self.field_b)],
            "sup_hint": float(self.sup_hint),
        }


@dataclass(frozen=True)
class SumControl:
    parts: tuple

    kind = "sum"

    @property
    def fields(self):
        return tuple(f for p in self.parts for f in p.fields)

    def value(self, t, x=None):
        total = None
        for p in self.parts:
            v = p.value(t, x)
            if v is not None:
                total = v if total is None else total + v
        return total

    def analytic_sup(self):
        return float(sum(p.analytic_sup() for p in self.parts))

    def params(self, field_ids):
        return {"parts": [{"kind": p.kind, "params": p.params(field_ids)}
                          for p in self.parts]}


@dataclass(frozen=True)
class Segment:
    t0: float
    t1: float
    u: object

    def __post_init__(self):
        if not self.t1 > self.t0:
            raise ScheduleError(f"segment must have t1 > t0, got [{self.t0}, {self.t1}]")


@dataclass(frozen=True)
class ControlSchedule:
    """Contiguous control segments with a certified sup bound.

    Pointwise, a segment owns the half-open interval (t0, t1]; the value at
    the global start is taken from the first segment.  The stepper instead
    applies each segment's formula on the closed span it integrates, which
    realizes the jump at a boundary as the right limit.  ``dim`` is the
    state dimension, the shape of a value taken without a state.
    """

    segments: tuple
    sup_cert: float = 0.0
    dim: int = dc_field(kw_only=True)

    def __post_init__(self):
        segs = self.segments
        for a, b in zip(segs, segs[1:]):
            if a.t1 != b.t0:
                raise ScheduleError(
                    f"segments must be contiguous: [{a.t0},{a.t1}] then [{b.t0},{b.t1}]")

    @property
    def t0(self) -> float:
        return self.segments[0].t0 if self.segments else 0.0

    @property
    def t1(self) -> float:
        return self.segments[-1].t1 if self.segments else 0.0

    def value(self, t: float, x=None) -> np.ndarray:
        """Control value at time t, and at state x if given: :meth:`values`
        on one row."""
        return self.values([t], None if x is None else [x])[0]

    def values(self, ts, xs) -> np.ndarray:
        """Control values at (m,) times and (m, d) states, or at the times
        alone when ``xs`` is None (zero then has the schedule's dimension);
        the samples that fall in one segment are evaluated together, one
        ``value`` call per segment."""
        if not self.segments:
            raise ScheduleError("empty schedule has no values")
        ts = np.asarray(ts, dtype=float)
        lo, hi = self.segments[0].t0, self.segments[-1].t1
        if ts.size and (ts.min() < lo or ts.max() > hi):
            raise ScheduleError(f"times outside schedule span [{lo}, {hi}]")
        # a segment owns (t0, t1]; the first one also owns lo
        seg = np.maximum(np.searchsorted(self._starts, ts, side="left") - 1, 0)
        if xs is not None:
            xs = np.asarray(xs, dtype=float)
        out = np.zeros((ts.size, self.dim) if xs is None else xs.shape)
        for i in set(seg.tolist()):
            m = seg == i
            v = self.segments[i].u.value(ts[m], None if xs is None else xs[m])
            if v is not None:
                out[m] = v
        return out

    @cached_property
    def _starts(self) -> np.ndarray:
        return np.array([s.t0 for s in self.segments])

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        """The text layer: :meth:`_document` with every array in the field
        table packed as base64, the form ``control.json`` holds."""
        doc = self._document()
        return {**doc, "fields": {k: jsonio.packed(d) for k, d in doc["fields"].items()}}

    def _document(self) -> dict:
        """The document layer: ``dim``, the field table, the segments and
        ``sup_cert``, with each table entry the field's own descriptor, its
        arrays as they are.  :meth:`from_json` rebuilds a schedule from this
        or from :meth:`to_json`; the descriptors are shared, not copied."""
        fields = {}  # the referenced fields by id, in first-appearance order
        for s in self.segments:
            for f in s.u.fields:
                fields.setdefault(id(f), f)
        if any(f.descriptor is None for f in fields.values()):
            raise FieldConstructionError(
                "field has no serializable descriptor (built from a raw callable)")
        field_ids = {key: f"f{i}" for i, key in enumerate(fields)}
        return {
            "dim": int(self.dim),
            "fields": {field_ids[key]: f.descriptor for key, f in fields.items()},
            "segments": [
                {"t0": float(s.t0), "t1": float(s.t1), "kind": s.u.kind,
                 "params": s.u.params(field_ids)}
                for s in self.segments
            ],
            "sup_cert": float(self.sup_cert),
        }

    @staticmethod
    def from_json(obj: dict) -> "ControlSchedule":
        """The schedule that ``to_json`` or ``_document`` wrote: one
        descriptor per segment, and one field object per entry of the
        ``fields`` table, which every descriptor that names it shares.  A
        missing key, in the control or in a field entry (named by its id),
        or a field id the table lacks, is a ScheduleError."""
        if "dim" not in obj:
            raise ScheduleError("control has no 'dim', the state dimension")
        where, fields = "control", {}
        try:
            for key, d in obj.get("fields", {}).items():
                where = f"control field {key!r}"
                fields[key] = build_field(d)
                # bounds are sampled only for a config; a stored entry keeps its own
                lost = [k for k in ("sup_bound", "lip_bound")
                        if k in fields[key].descriptor and k not in d]
                if lost:
                    raise KeyError(lost[0])
            where = "control"
            segs = tuple(Segment(s["t0"], s["t1"],
                                 _descriptor_from_json(s["kind"], s["params"], fields))
                         for s in obj["segments"])
            sup_cert = float(obj["sup_cert"])
        except KeyError as e:
            raise ScheduleError(f"{where} has no key {e.args[0]!r}") from None
        return ControlSchedule(segs, sup_cert, dim=int(obj["dim"]))


def _descriptor_from_json(kind, params, fields):
    def field(key):
        if key not in fields:
            raise ScheduleError(f"control names field {key!r}, which 'fields' lacks")
        return fields[key]

    if kind == "zero":
        return ZeroControl()
    if kind == "constant":
        return ConstantControl(np.asarray(params["alpha"], dtype=float))
    if kind == "steer":
        f = field(params["field"])
        z = np.asarray(params["z"], dtype=float)
        return SteerControl(f, z, np.asarray(params["alpha"], dtype=float),
                            float(params["s"]), float(params["tau"]),
                            np.asarray(params["anchor"], dtype=float), f.eval(z))
    if kind == "field_difference":
        return FieldDifferenceControl(field(params["a"]), field(params["b"]),
                                      float(params["sup_hint"]))
    if kind == "sum":
        return SumControl(tuple(_descriptor_from_json(p["kind"], p["params"], fields)
                                for p in params["parts"]))
    raise ScheduleError(f"unknown control kind {kind!r}")


def zero_schedule(t0: float, t1: float, dim: int) -> ControlSchedule:
    return ControlSchedule((Segment(t0, t1, ZeroControl()),), 0.0, dim=dim)


def _same_field(a, b) -> bool:
    """True when a and b are one field: the same object, or rebuilt from
    equal descriptors, which evaluate bitwise alike."""
    return a is b or (a.descriptor is not None
                      and jsonio.packed(a.descriptor) == jsonio.packed(b.descriptor))


def _driven(V, u):
    """(field, rest) with V(y) + u = field(y) + rest, rest None when zero.

    ``u = A - B`` with ``B`` the base field V realizes A itself, alone or as
    a part of a sum, so the right-hand side evaluates A once instead of V,
    A and B; zero parts drop out.  Any other descriptor keeps V(y) + u.
    The two forms round alike wherever |A - V| <= |V| componentwise, where
    (A - V) is exact (Fast2Sum), so V + (A - V) is A bit for bit.
    """
    parts = u.parts if isinstance(u, SumControl) else (u,)
    parts = [p for p in parts if not isinstance(p, ZeroControl)]
    field = V
    for i, p in enumerate(parts):
        if isinstance(p, FieldDifferenceControl) and _same_field(p.field_b, V):
            field = p.field_a
            del parts[i]
            break
    if not parts:
        return field, None
    return field, parts[0] if len(parts) == 1 else SumControl(tuple(parts))


def integrate_controlled(V, u: ControlSchedule, x0, t0, t1,
                         settings: IntegratorSettings = IntegratorSettings()):
    """Solve dx/dt = V(x) + u(t) with u evaluated per segment descriptor.

    Takes starts and spans as :func:`integrate` does: a (d,) start gives a
    Trajectory, (N, d) starts give a list of N, each row bitwise its solo
    run.  Each segment drives its rows by a field plus a rest (see
    :func:`_driven`).  Each distinct field object is evaluated once a stage
    over all the rows it drives, whatever their segments, and then each
    segment adds its rest over its own rows, with (m,) times and (m, d)
    states; which descriptor objects segments share changes nothing.  A
    zero segment adds nothing, so on shared step grids the result is
    bitwise identical to :func:`integrate`, and an empty schedule drives
    every row by V.
    """
    segs = u.segments
    if segs and (np.min(t0) < u.t0 - 1e-12 or np.max(t1) > u.t1 + 1e-12):
        raise ScheduleError(f"integration window [{t0},{t1}] outside schedule span")
    # the stepper's global interval k (k edges at or before it) lies inside
    # segment k
    driven = [_driven(V, s.u) for s in segs] or [(V, None)]
    # per segment, the index of its driven field among the distinct ones
    index = {}
    field_of = np.array([index.setdefault(id(f), len(index)) for f, _ in driven], dtype=int)
    fields = list({id(f): f for f, _ in driven}.values())

    def rhs(t, y, k):
        out = np.empty_like(y)  # the rests add in place, so not into eval's result
        if len(fields) == 1:
            out[:] = fields[0].eval(y)
        else:
            f = field_of[k]
            for i in set(f.tolist()):
                m = f == i
                out[m] = fields[i].eval(y[m])
        for i in set(k.tolist()):
            rest = driven[i][1]
            if rest is not None:
                m = k == i
                out[m] += rest.value(t[m], y[m])
        return out

    return _adaptive_solve(rhs, x0, t0, t1, settings, edges=[s.t0 for s in segs[1:]])


def sup_norm(u: ControlSchedule, samples_per_segment: int = 1000) -> float:
    """Max of densely sampled |u| and the descriptors' analytic bounds.

    Each segment is sampled in one ``value`` call; a descriptor that needs
    the state raises ``ValueError`` there, and its analytic bound stands in.
    """
    if not u.segments:
        raise ScheduleError("empty schedule")
    worst = 0.0
    for s in u.segments:
        worst = max(worst, s.u.analytic_sup())
        ts = s.t0 + (np.arange(1, samples_per_segment + 1) / samples_per_segment) * (s.t1 - s.t0)
        try:
            v = s.u.value(ts, None)
        except ValueError:
            continue  # no state available; analytic bound already counted
        if v is not None:
            worst = max(worst, float(np.max(np.linalg.norm(v, axis=-1))))
    return worst
