"""Per-layer timings: the cold import, one correction, one plan, one
audit, one corrected-field evaluation, one accepted step, verify's hop
replay, one recurrence ride and the torus connection.

    python3 tools/bench_layers.py [--out BENCH_layers.json] [--repeats 7]
                                  [--prefix-hops 64 [256 ...]]

Plans the first 8 hops of the far-target plan (the benchmark's far_chain,
seed 0), then times

* ``import_s``: a fresh ``python -c "import flowsteer"``, in seconds, the
  median of 5 processes;
* ``correct_s``: one ``fs.correct`` of the README quickstart's field at the
  settings ``fs.plan`` gives it (box, resolution, seed and eps/3), in
  seconds per call;
* ``memory``: the tracemalloc peak of one such ``fs.correct`` (resolution
  512), in MiB and in full-grid float arrays (``grid_arrays``), and
  ``peak_rss_mb``, ``ru_maxrss / 1024`` as perfbench reads it, of a fresh
  process after one ``fs.plan`` plus ``fs.verify_plan`` of the README
  quickstart, the median of 3 processes started before any other work;
* ``plan_s``: ``fs.plan`` of that chain and of the README quickstart (the
  benchmark's quickstart, seed 0), in seconds per call;
* ``verify_s``: ``fs.verify_plan`` of the same two plans, in seconds per
  call;
* ``field_us``: one evaluation of the plan's corrected field ``Vt`` at 1, 8,
  64 and 4096 points drawn from the plan's trajectory, in microseconds per
  call;
* ``pushforward_us``: one evaluation of the torus fixture's glued field
  (the pushforward over its two surgery balls) at 1, 6, 64 and 198 states
  of its window batch inside a ball, and at 198 states of its orbit
  outside both (``out_198``), in microseconds per call;
* ``step_us``: one accepted step, mostly the stepper's own work:
  ``fs.integrate`` of 1, 8, 22, 198 and 512 rows from random starts over
  [0, 50] on the constant winding field, whose evaluation costs about 1 us
  a call, with an edge every 0.5 time units, so that every step ends on an
  edge, for Dormand-Prince 5(4) (``dp5``, ``h_max`` 50) and DOP853
  (``dop853``, ``tol`` 1e-12), in microseconds per accepted step
  summed over the rows;
* ``reload_s``: the chain's schedule written and read back, in seconds per
  call: ``to_json`` and ``from_json`` of its output, the text layer that
  ``control.json`` holds (base64 arrays), timed apart; and ``document``,
  ``from_json`` of ``ControlSchedule._document()``, the arrays as they are,
  which is the rebuild ``verify_plan`` makes before its replay;
* ``verify_replay``: ``verify_plan``'s hop replay of the chain's schedule
  rebuilt from its document, every hop a row from its certified start plus
  d = 2 monodromy rows per hop after the first, at the audit's settings:
  seconds per replay and microseconds per row-step (accepted steps summed
  over all rows), with the row and step counts;
* ``windows_ms``: the chain plan's window pass, the one
  ``integrate_controlled`` call in which every window is a row from its
  coast's end over its steering span, run again on the arguments ``plan``
  gave it, in milliseconds per call, with its rows and its accepted steps
  summed over the rows;
* ``verify_prefix_s``: one entry per count of ``--prefix-hops`` (default
  64; several counts, ``--prefix-hops 64 256``, time each prefix in one
  run): ``fs.plan`` and ``fs.verify_plan`` of the first that many hops of
  the far-target plan (its waypoints and correction box), in seconds, the
  minimum of 3 runs, with the verify report's verdict and composed
  terminal error, and ``values_ms``: one ``ControlSchedule.values`` call
  on 4,000 nodes of the plan's trajectory, spread as ``verify_plan``
  spreads its samples, on a fresh reload of the schedule from its
  document as ``verify_plan`` makes, in milliseconds, the minimum of 3;
* ``ride_ms``: ``find_poisson_stable`` on the far-target waypoints 1000 to
  1511, on the chain's corrected field (the far plan's) with the plan's
  candidates, seeds, radii and integrator settings, in blocks of 8, 64 and
  512 rows, in milliseconds per ride;
* ``ride_floor_ms``: the no-stop floor of ``ride_ms``: every stepper call
  those rides made, its starts integrated again by ``fs.integrate`` at the
  same settings to each row's end, without a stop test, in milliseconds
  per ride;
* ``ride_counts``: per ride, the golden-section searches of its stop test
  (``golden_searches``) and the steps whose three dense extra stages are
  evaluated (``extra_stage_steps``), counted on the 512-row blocks;
* ``connect_s`` and ``find_transit_s``: ``fs.connect`` of the benchmark's
  torus fixture (its torus_connect workload) and the ``fs.find_transit``
  that ``connect`` makes for it, at the same delta, in seconds per call;
* ``connect_stages``: the stages of one such ``fs.connect``, in seconds:
  the whole call (``connect``), its ``find_transit`` (``transit``), the
  coarse pass (``coarse``: the stepper call that integrates again, on V,
  the transit's steps that hold a window edge) and the window batch
  (``windows``: the stepper call on the glued field), with the window
  batch's rows (``window_rows``), its accepted steps summed over the rows
  (``window_row_steps``) and the steps of its longest row
  (``window_longest``);
* ``surgery``: ``fs.correct_start`` on the rotation C^1 case (Criterion
  6's geometry: the orbit from (1, 0) over one turn, its start moved by
  0.999 delta^3, eps 0.2) in seconds per call (``correct_start_s``), with
  its orbit's nodes; and ``fs.plan`` and ``fs.verify_plan`` of the 4-hop
  cellular chain whose first recurrent start is moved off p, so that the
  plan takes a real bridge (``artifact_digests.bridged_chain``),
  in seconds per call, with the audit's hop-1 landing defect and composed
  terminal error;
* ``lone_rows``: the one-row stepper calls (``_adaptive_solve`` of one
  start, run as a batch of one whose right-hand side sees (1, d) states)
  in ``fs.plan`` and in ``fs.verify_plan`` of the benchmark's quickstart
  and far_chain (input 0, seed 0): the calls, their accepted steps, their
  seconds (``lone_s``; dense-output stages a later read evaluates are not
  counted) and the seconds of the whole ``plan`` or ``verify_plan``
  (``total_s``);
* ``rhs_per_unit``: right-hand-side evaluations per integrated time unit
  of the chain's rides (``find_poisson_stable`` on its 8 waypoints, as
  ``plan`` rides them) and of ``verify_plan``'s hop replay, counted by a
  wrapper around every solve's right-hand side: batched ``calls``, the
  ``points`` they evaluate, the ``row_time`` the solves' rows span, and
  ``points / row_time``, dense-output evaluations included;
* ``at_error``: the largest distance of ``Trajectory.at`` on those rides
  from scipy's DOP853 at rtol = atol = 1e-13 with steps of at most 0.004,
  which resolve the corrected field's spline knots, at 400 times per ride
  spread evenly over its span (``dense``) and at its nodes (``nodes``).

Every timing but ``import_s``, ``verify_prefix_s``, ``ride_ms`` and
``ride_floor_ms`` is the median and the minimum over ``--repeats`` runs,
after one untimed call;
each ``ride_ms`` and ``ride_floor_ms`` cell is one pass over its 512 rides
(a few minutes for the whole table).  All but ``import_s`` are
measured in this process with one BLAS thread; the JSON also records the
host.  It imports flowsteer from the ``src/`` of the checkout the script
sits in.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))
# importing the benchmark's inputs must leave its directory as checked in
sys.dont_write_bytecode = True

import numpy as np  # noqa: E402

import flowsteer as fs  # noqa: E402
from flowsteer import deform, planner, recurrence, torus  # noqa: E402
from flowsteer.sampling import Box  # noqa: E402
from perfbench import inputs  # noqa: E402
from tools.artifact_digests import bridged_chain, first_center_moved  # noqa: E402

BATCHES = (1, 8, 64, 4096)
PUSH_BATCHES = (1, 6, 64, 198)
RIDE_FROM, RIDE_BLOCKS = 1000, (8, 64, 512)
STEP_ROWS, STEP_SPAN = (1, 8, 22, 198, 512), 50.0
PREFIX_HOPS, PREFIX_RUNS, VALUES_SAMPLES = 64, 3, 4000


def spread(runs) -> dict:
    return {"median": statistics.median(runs), "min": min(runs)}


def timed(fn, repeats: int, number: int = 1) -> dict:
    """Median and minimum seconds per call over ``repeats`` runs of
    ``number`` calls, after one untimed call that pays any lazy set-up
    (scipy's imports in the first ``fs.correct``, say)."""
    fn()
    runs = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        runs.append((time.perf_counter() - start) / number)
    return spread(runs)


def import_seconds(runs: int = 5) -> float:
    """Median wall seconds of a fresh interpreter that imports flowsteer."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import flowsteer"], env=env, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def correct_call(V, req):
    """``fs.correct`` of V as ``fs.plan`` calls it for ``req``."""
    box = req.correction_box or Box.bounding([req.p, req.q], margin=req.orbit_margin)
    settings = fs.CorrectionSettings(box=box, resolution=req.correction_resolution,
                                     seed=req.seed)
    return lambda: fs.correct(V, req.epsilon / 3.0, settings=settings)


# one quickstart plan plus verify in a fresh process, which prints its peak RSS
_RSS_CODE = """\
import resource
import sys
sys.path[:0] = [{src!r}, {root!r}]
sys.dont_write_bytecode = True
import flowsteer as fs
from perfbench import inputs
V = inputs.base_field("quickstart")
fs.verify_plan(V, fs.plan(V, inputs.quickstart(0, 0).request))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
"""


def fresh_rss(runs: int = 3) -> float:
    """Median peak RSS in MB of ``runs`` fresh quickstart plans plus verify.
    A child's ``ru_maxrss`` starts from the peak of the process that spawns
    it (Linux keeps it across exec), so call this before this process has
    grown past the child's own peak."""
    code = _RSS_CODE.format(src=str(ROOT / "src"), root=str(ROOT))
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                             text=True).stdout.split()[-1]) for _ in range(runs))


def correct_peak(V, req) -> dict:
    """The tracemalloc peak of one ``fs.correct`` of V for ``req``, in MiB
    and in full-grid float arrays."""
    call = correct_call(V, req)
    call()  # scipy's lazy imports are not the correction's working set
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return {"correct_peak_mib": peak / 2 ** 20,
            "grid_arrays": peak / (8 * req.correction_resolution ** len(req.p))}


def ride_table(res) -> dict:
    """Milliseconds per ride of far-target waypoints RIDE_FROM onwards, as
    ``plan`` rides them, per rows per block; the same no-stop floor; and
    the per-ride counts of golden searches and of dense extra-stage
    evaluations."""
    far_req = inputs.far_chain(0, 0).far_request
    cert, vt = res.certificate, res.corrected.field
    n = max(RIDE_BLOCKS)
    wps = fs.waypoints(far_req.p, far_req.q, cert["rho"])[RIDE_FROM:RIDE_FROM + n]

    def ride(rows):
        for j0 in range(0, n, rows):
            fs.find_poisson_stable(
                vt, wps[j0:j0 + rows], cert["delta"], cert["rho"] / 2.0, cert["T_min"],
                far_req.T_max_per_hop, far_req.n_candidates,
                [far_req.seed + RIDE_FROM + j for j in range(j0, min(j0 + rows, n))],
                settings=far_req.integrator)

    real = recurrence.integrate
    table, floor = {}, {}
    for rows in RIDE_BLOCKS:
        solves = []  # every stepper call of the rides: its starts and its rows' ends

        def recorded(V, x0, t0, t1, settings, stop=None):
            out = real(V, x0, t0, t1, settings, stop=stop)
            solves.append((x0, [r.t1 for r in out]))
            return out

        recurrence.integrate = recorded
        try:
            start = time.perf_counter()
            ride(rows)
            table[str(rows)] = (time.perf_counter() - start) / n * 1e3
        finally:
            recurrence.integrate = real
        start = time.perf_counter()
        for x0, t1 in solves:
            fs.integrate(vt, x0, 0.0, t1, far_req.integrator)
        floor[str(rows)] = (time.perf_counter() - start) / n * 1e3
    return {"ride_ms": table, "ride_floor_ms": floor, "ride_counts": ride_counts(ride)}


def ride_counts(ride) -> dict:
    """Golden searches and steps whose dense extra stages are evaluated, per
    ride, in one pass of ``ride`` over RIDE_BLOCKS' largest block; a row's
    stop test reads only its own nodes, so these are the same at every
    block size."""
    integ = sys.modules["flowsteer.integrate"]
    golden, coeffs = recurrence.golden_min, integ._Nodes.coeffs
    searches, stages = [0], [0]

    def search(*args):
        searches[0] += 1
        return golden(*args)

    def read(self, e):
        stages[0] += e not in self.cache
        return coeffs(self, e)

    recurrence.golden_min, integ._Nodes.coeffs = search, read
    try:
        ride(max(RIDE_BLOCKS))
    finally:
        recurrence.golden_min, integ._Nodes.coeffs = golden, coeffs
    n = max(RIDE_BLOCKS)
    return {"golden_searches": searches[0] / n, "extra_stage_steps": stages[0] / n}


def step_table(repeats: int) -> dict:
    """Microseconds per accepted row-step of ``fs.integrate`` on the winding
    field with an edge every 0.5 time units, per tableau and rows."""
    V = inputs.base_field("torus_connect")
    edges = np.arange(0.5, STEP_SPAN, 0.5).tolist()
    tableaus = {"dp5": fs.IntegratorSettings(h_max=50.0),
                "dop853": fs.IntegratorSettings(tol=1e-12)}
    table = {}
    for name, settings in tableaus.items():
        table[name] = {}
        for n in STEP_ROWS:
            x0 = np.random.default_rng(0).uniform(0.0, 2 * np.pi, (n, 2))

            def solve():
                return fs.integrate(V, x0, 0.0, STEP_SPAN, settings, edges=edges)

            steps = sum(len(r.times) - 1 for r in solve())
            t = timed(solve, repeats, number=max(1, 2000 // steps))
            table[name][str(n)] = {k: v / steps * 1e6 for k, v in t.items()}
    return table


def reload_seconds(res, repeats: int) -> dict:
    """Seconds per ``to_json`` and per ``from_json`` of ``res``'s schedule,
    and per ``from_json`` of its document."""
    js = res.control.to_json()
    return {"to_json": timed(res.control.to_json, repeats),
            "from_json": timed(lambda: fs.ControlSchedule.from_json(js), repeats),
            "document": timed(lambda: fs.ControlSchedule.from_json(res.control._document()),
                              repeats)}


def verify_replay(res, repeats: int) -> dict:
    """``verify_plan``'s hop replay of ``res``'s schedule, rebuilt from its
    document as ``verify_plan`` rebuilds it."""
    V, cert = fs.builtin_field("cellular"), res.certificate
    reloaded = fs.ControlSchedule.from_json(res.control._document())
    starts = np.array(cert["stable_points"], dtype=float)
    starts[0] = cert["p"]

    def replay():
        return planner._replay_hops(V, reloaded, starts, cert["delta_bridge"],
                                    cert["epsilon"])

    rows = []
    real = planner.integrate_controlled

    def recorded(*args, **kw):
        out = real(*args, **kw)
        rows.extend(out if isinstance(out, list) else [out])
        return out

    planner.integrate_controlled = recorded
    try:
        replay()
    finally:
        planner.integrate_controlled = real
    steps = sum(len(r.times) - 1 for r in rows)
    t = timed(replay, repeats)
    return {"rows": len(rows), "row_steps": steps,
            "longest_row_steps": max(len(r.times) - 1 for r in rows),
            "us_per_row_step": {k: v / steps * 1e6 for k, v in t.items()},
            "seconds": t}


def window_pass(V, req, repeats: int) -> dict:
    """Milliseconds per call of the window pass of ``fs.plan(V, req)``, its
    one multi-row ``integrate_controlled`` call, with its rows and steps."""
    real, calls = planner.integrate_controlled, []

    def recorded(*args, **kw):
        calls.append((args, kw))
        return real(*args, **kw)

    planner.integrate_controlled = recorded
    try:
        fs.plan(V, req)
    finally:
        planner.integrate_controlled = real
    (args, kw), = calls
    rows = real(*args, **kw)
    t = timed(lambda: real(*args, **kw), repeats)
    return {"rows": len(rows), "row_steps": sum(len(r.times) - 1 for r in rows),
            "ms": {k: v * 1e3 for k, v in t.items()}}


def prefix_seconds(hops: int = PREFIX_HOPS) -> dict:
    """Seconds of ``fs.plan`` and of ``fs.verify_plan`` of the first
    ``hops`` hops of the far-target plan, and milliseconds of one
    ``values`` call on 4,000 samples of its reloaded schedule, each the
    minimum of PREFIX_RUNS runs."""
    far = inputs.far_chain(0, 0).far_request
    V = fs.builtin_field("cellular")
    rho, _ = fs.choose_rho_tau(V, far.epsilon)
    q = fs.waypoints(far.p, far.q, rho)[hops]
    req = fs.PlanRequest(p=far.p, q=tuple(map(float, q)), epsilon=far.epsilon,
                         seed=far.seed, correction_resolution=far.correction_resolution,
                         correction_box=Box.bounding([far.p, far.q], margin=far.orbit_margin))
    plan_s, verify_s, values_s = [], [], []
    for _ in range(PREFIX_RUNS):
        start = time.perf_counter()
        res = fs.plan(V, req)
        plan_s.append(time.perf_counter() - start)
        start = time.perf_counter()
        report = fs.verify_plan(V, res)
        verify_s.append(time.perf_counter() - start)
        ts, xs = planner._audit_nodes(res.trajectory, VALUES_SAMPLES)
        back = fs.ControlSchedule.from_json(res.control._document())
        start = time.perf_counter()
        back.values(ts, xs)
        values_s.append(time.perf_counter() - start)
    return {"hops": hops, "plan_s": min(plan_s), "verify_s": min(verify_s),
            "values_ms": min(values_s) * 1e3,
            "verify_passed": report.passed, "terminal_error": report.terminal_error}


def torus_seconds(repeats: int) -> dict:
    """Seconds per ``fs.connect`` of the benchmark's torus fixture and per
    ``fs.find_transit`` of its transit."""
    case = inputs.torus_connect(0, 0)
    V, b = inputs.base_field("torus_connect"), case.budgets
    delta = fs.choose_delta(fs.FieldStats(V.lip_bound, V.sup_bound), case.eps / 2.0,
                            need_c1=b.need_c1)
    return {"connect_s": timed(lambda: fs.connect(V, case.p, case.q, case.eps, b), repeats),
            "find_transit_s": timed(lambda: fs.find_transit(
                V, case.p, case.q, delta, b.T_max, b.n_starts, b.seed), repeats)}


def pushforward_us(repeats: int) -> dict:
    """Microseconds per evaluation of the torus fixture's glued field at
    1, 6, 64 and 198 in-ball states of its window batch (``"1"`` to
    ``"198"``, one state as a (d,) point) and at 198 states of its orbit
    outside every ball (``"out_198"``)."""
    case = inputs.torus_connect(0, 0)
    V = inputs.base_field("torus_connect")
    integrate, rows = deform.integrate, []

    def solve(F, *args, **kw):
        out = integrate(F, *args, **kw)
        if not len(kw.get("edges", ())):  # the window batch, on the glued field
            rows.extend(out)
        return out

    deform.integrate = solve
    try:
        glued, traj, cert = fs.connect(V, case.p, case.q, case.eps, case.budgets)
    finally:
        deform.integrate = integrate

    def apart(states):
        return np.min([np.linalg.norm(torus.torus_delta(states, cert[c]), axis=1)
                       for c in ("x1", "x2")], axis=0)

    states = np.concatenate([row.states for row in rows])
    inside = states[apart(states) < cert["support_radius"]]
    outside = traj.states[apart(traj.states) > cert["support_radius"]]
    rng = np.random.default_rng(0)
    inside = inside[rng.choice(len(inside), max(PUSH_BATCHES), replace=False)]
    points = {str(n): inside[0] if n == 1 else inside[:n] for n in PUSH_BATCHES}
    points["out_198"] = outside[rng.choice(len(outside), 198, replace=False)]
    table = {}
    for name, x in points.items():
        t = timed(lambda: glued.eval(x), repeats, number=max(5, 2000 // len(np.atleast_2d(x))))
        table[name] = {k: v * 1e6 for k, v in t.items()}
    return table


def connect_stages(repeats: int) -> dict:
    """Seconds of the fixture's ``fs.connect`` and of its transit, coarse
    pass and window batch, per stage over ``repeats`` runs, and the window
    batch's rows, row-steps and longest row."""
    case = inputs.torus_connect(0, 0)
    V = inputs.base_field("torus_connect")
    transit, integrate = torus.find_transit, deform.integrate
    names = ("connect", "transit", "coarse", "windows")
    runs = {name: [] for name in names}
    counts = {}

    def stage(name, fn, args, kw):
        start = time.perf_counter()
        out = fn(*args, **kw)
        if name:
            runs[name][-1] += time.perf_counter() - start
        return out

    def solve(F, *args, **kw):
        # ``surgery_orbit``'s two stepper calls: the coarse pass on V and
        # the window batch on the glued field
        name = "coarse" if len(kw.get("edges", ())) else "windows"
        out = stage(name, integrate, (F,) + args, kw)
        if name == "windows":
            steps = [len(row.times) - 1 for row in out]
            counts.update(window_rows=len(steps), window_row_steps=sum(steps),
                          window_longest=max(steps))
        return out

    torus.find_transit = lambda *a, **kw: stage("transit", transit, a, kw)
    deform.integrate = solve
    try:
        for _ in range(repeats):
            for name in names:
                runs[name].append(0.0)
            stage("connect", fs.connect, (V, case.p, case.q, case.eps, case.budgets), {})
    finally:
        torus.find_transit, deform.integrate = transit, integrate
    return {**{name: spread(runs[name]) for name in names}, **counts}


def surgery(repeats: int) -> dict:
    """Seconds per ``fs.correct_start`` on the rotation C^1 case and per
    ``fs.plan`` and ``fs.verify_plan`` of the bridged 4-hop chain."""
    rotation = fs.builtin_field("rotation")
    delta = fs.choose_delta(fs.FieldStats(1.0, 1.0, lambda r: r), 0.2, need_c1=True)
    traj = fs.integrate(rotation, [1.0, 0.0], 0.0, 2 * np.pi)
    y0 = traj.states[0] + 0.999 * delta ** 3 * np.array([1.0, 0.0])

    def correct():
        return fs.correct_start(rotation, traj, y0, 0.2, need_c1=True, delta=delta)

    V, req = bridged_chain()
    with first_center_moved(np.asarray(req.p)):
        res = fs.plan(V, req)
        plan_s = timed(lambda: fs.plan(V, req), repeats)
    report = fs.verify_plan(V, res)
    return {"correct_start_s": timed(correct, repeats),
            "correct_start_nodes": len(correct()[1].times),
            "bridged_plan_s": plan_s,
            "bridged_verify_s": timed(lambda: fs.verify_plan(V, res), repeats),
            "hop1_landing": report.landing_defects[0],
            "terminal_error": report.terminal_error}


def lone_rows(repeats: int) -> dict:
    """The one-row stepper calls of ``fs.plan`` and ``fs.verify_plan`` on
    quickstart and far_chain, batches of one: calls, accepted steps and
    seconds per run."""
    integ = sys.modules["flowsteer.integrate"]
    real = integ._adaptive_solve
    log = []

    def solve(rhs, x0, *args, **kw):
        if np.ndim(x0) == 2 and len(x0) > 1:
            return real(rhs, x0, *args, **kw)
        start = time.perf_counter()
        out = real(rhs, x0, *args, **kw)
        rows = out if isinstance(out, list) else [out]
        log.append((time.perf_counter() - start, len(rows[0].times) - 1))
        return out

    def measure(into, fn):
        log.clear()
        start = time.perf_counter()
        result = fn()
        into.append((time.perf_counter() - start, list(log)))
        return result

    out = {}
    integ._adaptive_solve = solve
    try:
        for workload in ("quickstart", "far_chain"):
            V = inputs.base_field(workload)
            req = inputs.CASES[workload](0, 0).request
            runs = {"plan": [], "verify_plan": []}
            for _ in range(repeats):
                res = measure(runs["plan"], lambda: fs.plan(V, req))
                measure(runs["verify_plan"], lambda: fs.verify_plan(V, res))
            out[workload] = {
                name: {"solves": len(r[0][1]), "steps": sum(s for _, s in r[0][1]),
                       "lone_s": spread([sum(t for t, _ in solves) for _, solves in r]),
                       "total_s": spread([total for total, _ in r])}
                for name, r in runs.items()}
    finally:
        integ._adaptive_solve = real
    return out


def counted_solves(fn) -> dict:
    """Run ``fn`` with every solve's right-hand side counted: calls, the
    points they evaluate, and the time span of the solves' rows."""
    integ = sys.modules["flowsteer.integrate"]
    real = integ._adaptive_solve
    calls, points, spans = [0], [0], []

    def solve(rhs, x0, t0, t1, *args, **kw):
        def counted(t, y, k):
            calls[0] += 1
            points[0] += len(y)
            return rhs(t, y, k)

        n = 1 if np.ndim(x0) == 1 else len(x0)
        out = real(counted, x0, t0, t1, *args, **kw)
        spans.extend(r.t1 - r.t0 for r in (out if isinstance(out, list) else [out])[:n])
        return out

    integ._adaptive_solve = solve
    try:
        result = fn()
    finally:
        integ._adaptive_solve = real
    row_time = float(sum(spans))
    return {"calls": calls[0], "points": points[0], "row_time": row_time,
            "points_per_unit": points[0] / row_time}, result


def chain_rides(res):
    """``find_poisson_stable`` on the chain's waypoints, as ``plan`` rides
    them, keeping the trajectories."""
    req, cert = inputs.far_chain(0, 0).request, res.certificate
    wps = np.asarray(cert["waypoints"])[:-1]
    return fs.find_poisson_stable(res.corrected.field, wps, cert["delta"], cert["rho"] / 2.0,
                                  cert["T_min"], req.T_max_per_hop, req.n_candidates,
                                  [req.seed + j for j in range(len(wps))],
                                  settings=req.integrator)


def rhs_per_unit(res) -> dict:
    """Counted right-hand-side evaluations of the chain's rides and of
    verify's hop replay."""
    rides, _ = counted_solves(lambda: [rec.trajectory.at(rec.return_time)
                                       for rec in chain_rides(res)])
    V, cert = fs.builtin_field("cellular"), res.certificate
    reloaded = fs.ControlSchedule.from_json(res.control._document())
    starts = np.array(cert["stable_points"], dtype=float)
    starts[0] = cert["p"]
    replay, _ = counted_solves(lambda: planner._replay_hops(
        V, reloaded, starts, cert["delta_bridge"], cert["epsilon"]))
    return {"rides": rides, "verify_replay": replay}


def at_error(res, per_ride: int = 400) -> dict:
    """Largest error of ``Trajectory.at`` on the chain's rides against
    scipy's DOP853 at rtol = atol = 1e-13 and steps of at most 0.004,
    between nodes and at nodes.  Without the cap the reference's long steps
    cross several knots, where the spline's third derivative jumps unseen
    by its error estimates."""
    from scipy.integrate import solve_ivp

    vt = res.corrected.field
    dense = nodes = 0.0
    for rec in chain_rides(res):
        traj = rec.trajectory
        ref = solve_ivp(lambda t, y: vt.eval(y), (traj.t0, traj.t1), traj.states[0],
                        method="DOP853", rtol=1e-13, atol=1e-13, max_step=0.004,
                        dense_output=True)
        ts = np.linspace(traj.t0, traj.t1, per_ride + 2)[1:-1]
        got = np.array([traj.at(float(t)) for t in ts])
        dense = max(dense, float(np.max(np.linalg.norm(got - ref.sol(ts).T, axis=1))))
        nodes = max(nodes, float(np.max(np.linalg.norm(traj.states - ref.sol(traj.times).T,
                                                       axis=1))))
    return {"dense": dense, "nodes": nodes}


def host() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(ROOT / "BENCH_layers.json"))
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--prefix-hops", type=int, nargs="+", default=[PREFIX_HOPS],
                    help="hops of each far-target prefix that verify_prefix_s plans "
                         "and verifies")
    args = ap.parse_args(argv)

    peak_rss_mb = fresh_rss()
    import_s = import_seconds()
    V = fs.builtin_field("cellular")
    quick_req = inputs.quickstart(0, 0).request
    correct_s = timed(correct_call(V, quick_req), args.repeats)
    memory = {**correct_peak(V, quick_req), "peak_rss_mb": peak_rss_mb}
    far_req = inputs.far_chain(0, 0).request
    res = fs.plan(V, far_req)
    plans = {"far_chain": (far_req, res), "quickstart": (quick_req, fs.plan(V, quick_req))}
    plan_s = {name: timed(lambda: fs.plan(V, req), args.repeats)
              for name, (req, _) in plans.items()}
    verify_s = {name: timed(lambda: fs.verify_plan(V, planned), args.repeats)
                for name, (_, planned) in plans.items()}
    vt = res.corrected.field
    states = res.trajectory.states
    pick = np.random.default_rng(0).integers(0, len(states), max(BATCHES))

    field_us = {}
    for n in BATCHES:
        x = states[pick[0]] if n == 1 else states[pick[:n]]
        t = timed(lambda: vt.eval(x), args.repeats, number=max(5, 2000 // n))
        field_us[str(n)] = {k: v * 1e6 for k, v in t.items()}

    out = {
        "import_s": import_s,
        "correct_s": correct_s,
        "memory": memory,
        "plan_s": plan_s,
        "verify_s": verify_s,
        "field_us": field_us,
        "pushforward_us": pushforward_us(args.repeats),
        "step_us": step_table(args.repeats),
        "reload_s": reload_seconds(res, args.repeats),
        "verify_replay": verify_replay(res, max(3, args.repeats // 2)),
        "windows_ms": window_pass(V, far_req, args.repeats),
        "verify_prefix_s": [prefix_seconds(hops) for hops in args.prefix_hops],
        **ride_table(res),
        **torus_seconds(args.repeats),
        "connect_stages": connect_stages(args.repeats),
        "surgery": surgery(args.repeats),
        "lone_rows": lone_rows(args.repeats),
        "rhs_per_unit": rhs_per_unit(res),
        "at_error": at_error(res),
        "host": host(),
    }
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")
    print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
