"""Seeded inputs for the three workloads.

Seed 0 reproduces the fixtures the workloads are named after (the README
quickstart, the first hops of the far-target plan, the torus-connect test
fixture).  Other seeds move the geometry while keeping the work per
operation the same, so run-to-run spread measures the program, not the draw:

planner workloads move ``p`` along the cellular orbit through (0.2, 0.3)
(same stream-function level, so the same return time) and turn the direction
of ``q``.  ``torus_connect`` runs its fixture for every seed (see below).

Input ``k`` of a run is the k-th independent draw for its seed; input 0 of
seed 0 is the fixture.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parents[1]
# measure the checkout's own sources, never an installed copy
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import flowsteer as fs  # noqa: E402
from flowsteer.sampling import Box  # noqa: E402

if Path(fs.__file__).resolve().parent != ROOT / "src" / "flowsteer":
    raise ImportError(f"flowsteer imported from {fs.__file__}, not from {ROOT / 'src'}")

EPS_PLAN = 0.2
EPS_TORUS = 0.4
P_FIXTURE = (0.2, 0.3)
FAR_TARGET = (5.0, 4.1)
FAR_HOPS = 8
# hops of the as-stated far-target plan; far_projected_s scales to it
FAR_TOTAL_HOPS = 313451
TORUS_P = (0.0, 0.0)
TORUS_Q = (np.pi, np.pi)
TORUS_HIT_TOL = 1e-6


@dataclass(frozen=True)
class PlannerCase:
    request: fs.PlanRequest
    n_hops: int
    # as-stated far-target request whose first hops the chain reproduces
    far_request: Optional[fs.PlanRequest] = None


@dataclass(frozen=True)
class TorusCase:
    p: tuple
    q: tuple
    eps: float
    budgets: fs.ConnectBudgets


def _orbit_point(rng) -> np.ndarray:
    """A point of the cellular orbit through P_FIXTURE near that corner."""
    level = np.sin(P_FIXTURE[0]) * np.sin(P_FIXTURE[1])
    x = float(rng.uniform(0.2, 0.3))
    return np.array([x, float(np.arcsin(level / np.sin(x)))])


def quickstart(seed: int, k: int) -> PlannerCase:
    V = fs.builtin_field("cellular")
    rho, _ = fs.choose_rho_tau(V, EPS_PLAN)
    if seed == 0 and k == 0:
        p, theta = np.array(P_FIXTURE), 0.0
    else:
        rng = np.random.default_rng([seed, k])
        p, theta = _orbit_point(rng), float(rng.uniform(0.0, 2.0 * np.pi))
    q = p + 0.85 * rho / 4.0 * np.array([np.cos(theta), np.sin(theta)])
    req = fs.PlanRequest(p=tuple(map(float, p)), q=tuple(map(float, q)),
                         epsilon=EPS_PLAN, seed=3, correction_resolution=512,
                         n_candidates=4)
    return PlannerCase(req, 1)


def far_geometry(seed: int, k: int):
    """(p, far target) of far_chain input ``k``.

    Other than the fixture, draws until the chain's own waypoints coincide
    bit for bit with the far plan's first ones, so the chain is literally
    that plan's start.  The search is input generation, not set-up.
    """
    p, far = np.array(P_FIXTURE), np.array(FAR_TARGET)
    if seed == 0 and k == 0:
        return p, far
    rho, _ = fs.choose_rho_tau(fs.builtin_field("cellular"), EPS_PLAN)
    rng = np.random.default_rng([seed, k])
    reach = far - p
    for _ in range(10_000):
        p = _orbit_point(rng)
        phi = float(rng.uniform(-0.25, 0.25))
        turn = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
        far = p + turn @ reach
        lead = fs.waypoints(p, far, rho)[: FAR_HOPS + 1]
        chain = fs.waypoints(p, lead[-1], rho)
        if chain.shape == lead.shape and np.array_equal(chain, lead):
            return p, far
    raise RuntimeError(f"no far-chain geometry for seed {seed}")


def far_chain(seed: int, k: int, geometry=None) -> PlannerCase:
    p, far = geometry if geometry is not None else far_geometry(seed, k)
    rho, _ = fs.choose_rho_tau(fs.builtin_field("cellular"), EPS_PLAN)
    far_req = fs.PlanRequest(p=tuple(map(float, p)), q=tuple(map(float, far)),
                             epsilon=EPS_PLAN, seed=0, correction_resolution=512)
    box = Box.bounding([p, far], margin=far_req.orbit_margin)
    q = fs.waypoints(p, far, rho)[FAR_HOPS]
    req = fs.PlanRequest(p=far_req.p, q=tuple(map(float, q)), epsilon=EPS_PLAN,
                         seed=0, correction_resolution=512, correction_box=box)
    case = PlannerCase(req, FAR_HOPS, far_req)
    mismatch = far_chain_mismatch(case, fs.waypoints(req.p, req.q, rho))
    if mismatch:
        raise RuntimeError(mismatch)
    return case


def far_chain_mismatch(case: PlannerCase, chain_waypoints) -> Optional[str]:
    """None when the chain's waypoints and correction box are those of the
    as-stated far-target request, bit for bit; else what differs."""
    far = case.far_request
    V = fs.builtin_field("cellular")
    rho, _ = fs.choose_rho_tau(V, far.epsilon)
    lead = fs.waypoints(far.p, far.q, rho)[: case.n_hops + 1]
    box = Box.bounding([far.p, far.q], margin=far.orbit_margin)
    chain = np.asarray(chain_waypoints, dtype=float)
    if chain.shape != lead.shape or not np.array_equal(chain, lead):
        return "far_chain waypoints differ from the far-target plan's"
    if case.request.correction_box != box:
        return "far_chain correction box differs from the far-target plan's"
    return None


def torus_connect(seed: int, k: int) -> TorusCase:
    # The fixture for every seed.  Other transit starts (ConnectBudgets.seed)
    # find the same transit time, but connect then misses q by 1e-6 to 3e-6,
    # above the gate, and its cost moves by 30%.
    budgets = fs.ConnectBudgets(T_max=6e3, n_starts=6, need_c1=False, seed=0)
    return TorusCase(TORUS_P, TORUS_Q, EPS_TORUS, budgets)


CASES = {"quickstart": quickstart, "far_chain": far_chain,
         "torus_connect": torus_connect}


def base_field(workload: str) -> fs.VectorField:
    if workload == "torus_connect":
        return fs.builtin_field("winding", velocity=[1.0, np.sqrt(2.0)])
    return fs.builtin_field("cellular")
