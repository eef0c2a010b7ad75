"""Acceptance gate: one test (or pair) per shipped criterion.

Each criterion prints a single PASS/FAIL line; tolerances are the contract
values, not calibrated ones.  Criteria 5 and 7 carry long-range cases whose
scale analysis lives in the project notes; they are asserted exactly as
stated and report their failure diagnostics when the run cannot reach the
stated targets.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import flowsteer as fs
from flowsteer import jsonio
from flowsteer.deform import FieldStats, default_bump
from flowsteer.sampling import Box


def report(criterion: str, ok: bool, detail: str):
    line = f"[ACCEPTANCE] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    return ok


CELLULAR = fs.builtin_field("cellular")
ROTATION = fs.builtin_field("rotation")


class TestCriterion1LocalSteering:
    def test_local_steering_exactness(self):
        t_start = time.monotonic()
        eps = 0.1
        params = fs.LocalSteerParams.auto(CELLULAR, 1.0, eps)
        rng = np.random.default_rng(1)
        base = fs.IntegratorSettings(rtol=1e-11, atol=1e-11)
        fine = fs.IntegratorSettings(rtol=1e-12, atol=1e-12)
        worst_end = 0.0
        worst_sup = 0.0
        for case in range(100):
            x0 = rng.uniform(0.4, 2.6, 2)
            theta = rng.uniform(0.0, 2 * np.pi)
            traj = fs.integrate(CELLULAR, x0, 0.0, 1.0, base)
            y = traj.states[-1] + 0.5 * params.rho * np.array([np.cos(theta),
                                                               np.sin(theta)])
            seg = fs.steer_endpoint(CELLULAR, traj, y, eps, params)
            # (a) control vanishes on [a, s - tau] exactly
            for t in np.linspace(0.0, 1.0 - params.tau, 9):
                assert np.all(seg.schedule.value(float(t)) == 0.0)
            # (b) sampled sup below eps
            sup = fs.sup_norm(seg.schedule, 1000)
            worst_sup = max(worst_sup, sup)
            # (c) re-integrated endpoint error
            redo = fs.integrate_controlled(CELLULAR, seg.schedule, x0, 0.0, 1.0, fine)
            worst_end = max(worst_end, float(np.linalg.norm(redo.states[-1] - y)))
        elapsed = time.monotonic() - t_start
        ok = worst_sup < eps and worst_end < 1e-7 and elapsed < 30.0
        report("criterion 1 (local steering, 100 cases)", ok,
               f"sup|u|={worst_sup:.3g}, endpoint={worst_end:.3g}, {elapsed:.1f}s")
        assert worst_sup < eps
        assert worst_end < 1e-7
        assert elapsed < 30.0


class TestCriterion2ConstantFormulas:
    def test_printed_formulas(self):
        rng = np.random.default_rng(2)
        ok = True
        for _ in range(20):
            L = rng.uniform(0.0, 5.0)
            F = rng.uniform(0.0, 5.0)
            span = rng.uniform(0.05, 20.0)
            eps = rng.uniform(0.01, 1.0)
            tau, rho = fs.compute_tau_rho(L, F, span, eps)
            terms = [span]
            if L > 0:
                terms.append(eps / (4 * L))
            if L * F > 0:
                terms.append(eps / (8 * L * F))
            ok &= abs(tau - 0.9 * min(terms)) <= 1e-12 * max(1.0, tau)
            ok &= abs(rho - tau * eps / 4.0) <= 1e-12 * max(1.0, rho)
            ok &= tau < min(terms)

            V = fs.VectorField(2, lambda x: x, sup_bound=F, lip_bound=L)
            g_rho, g_tau = fs.choose_rho_tau(V, eps)
            hand = 0.9 * min(0.25, eps * eps / (144 * (L + eps)),
                             eps * eps / (288 * (L + eps) * (F + eps)))
            ok &= abs(g_rho - hand) <= 1e-12 * max(1.0, g_rho)
            ok &= abs(g_tau - g_rho * eps / 12.0) <= 1e-12 * max(1.0, g_tau)
            ok &= g_rho < min(0.25, eps * eps / (144 * (L + eps)),
                              eps * eps / (288 * (L + eps) * (F + eps)))
        # spec worked examples
        tau, rho = fs.compute_tau_rho(1.0, 1.0, 1.0, 0.1, 0.9)
        ok &= (abs(tau - 0.01125) < 1e-12 and abs(rho - 2.8125e-4) < 1e-12)
        g_rho, g_tau = fs.choose_rho_tau(fs.builtin_field("cellular"), 0.3)
        ok &= abs(g_rho - 0.9 * (0.09 / (288 * 1.3 * 1.3))) < 1e-12
        report("criterion 2 (constant formulas, 20 triples)", ok, "1e-12 match")
        assert ok


class TestCriterion3FieldCorrection:
    def test_correction_contract(self):
        t0 = time.monotonic()
        box = Box((-4 * np.pi, -4 * np.pi), (4 * np.pi, 4 * np.pi))
        settings = fs.CorrectionSettings(box=box, resolution=256)
        res = fs.correct(CELLULAR, 0.1, settings=settings)
        from flowsteer.correction import refinement_delta

        refine = refinement_delta(CELLULAR, 0.1, settings)
        elapsed = time.monotonic() - t0
        ok = (res.sup_delta < 0.1 and res.div_residual < 1e-6
              and res.div_tilde_sup < 0.1 and refine < 1e-7 and elapsed < 120.0)
        report("criterion 3 (field correction)", ok,
               f"sup_delta={res.sup_delta:.3g}, wdiv={res.div_residual:.3g}, "
               f"div={res.div_tilde_sup:.3g}, refine={refine:.3g}, {elapsed:.1f}s")
        assert res.sup_delta < 0.1
        assert res.div_residual < 1e-6
        assert res.div_tilde_sup < 0.1
        assert refine < 1e-7
        assert elapsed < 120.0


class TestCriterion4Recurrence:
    def test_rotation_centers(self):
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(50):
            center = rng.uniform(-1.0, 1.0, 2)
            res = fs.find_poisson_stable(ROTATION, center, 0.1, 1e-6, 1.0, 10.0,
                                         seed=int(rng.integers(1 << 16)))
            worst = max(worst, abs(res.return_time - 2 * np.pi))
            assert res.return_error < 1e-6
        ok = worst < 1e-6
        report("criterion 4a (rotation returns)", ok, f"max |T - 2pi| = {worst:.3g}")
        assert ok

    def test_corrected_cellular_fraction(self):
        corr = fs.correct(CELLULAR, 0.1, settings=fs.CorrectionSettings(
            box=Box((-np.pi, -np.pi), (3 * np.pi, 3 * np.pi)), resolution=512))
        frac = fs.nonwandering_fraction(corr.field, Box((0.0, 0.0),
                                                        (2 * np.pi, 2 * np.pi)),
                                        40, 1e-2, 200.0, seed=7)
        const = fs.nonwandering_fraction(fs.builtin_field("constant", c=[1.0, 0.0]),
                                         Box((0.0, 0.0), (2 * np.pi, 2 * np.pi)),
                                         20, 1e-2, 200.0, seed=7)
        ok = frac >= 0.9 and const == 0.0
        report("criterion 4b (recurrence fractions)", ok,
               f"corrected={frac}, constant={const}")
        assert frac >= 0.9
        assert const == 0.0


class TestCriterion5GlobalPlan:
    def test_negative_control_constant_field(self):
        c = fs.builtin_field("constant", c=[1.0, 0.0])
        with pytest.raises(fs.VMDViolation):
            fs.plan(c, fs.PlanRequest(p=(0.2, 0.3), q=(5.0, 4.1), epsilon=0.2))
        report("criterion 5b (VMD negative control)", True, "VMDViolation raised")

    def test_far_target_as_stated(self):
        """p=(0.2,0.3) -> q=(5.0,4.1) at eps=0.2 within 5 minutes.

        The printed constants force ~3.1e5 waypoints and a plan duration of
        ~4.7e6 time units; the run is bounded by the criterion's own wall
        budget and reports the projection when it cannot finish.
        """
        req = fs.PlanRequest(p=(0.2, 0.3), q=(5.0, 4.1), epsilon=0.2, seed=0,
                             correction_resolution=512, wall_budget_s=300.0)
        t0 = time.monotonic()
        try:
            res = fs.plan(CELLULAR, req)
            rep = fs.verify_plan(CELLULAR, res)
            elapsed = time.monotonic() - t0
            ok = (rep.passed and rep.sup_u_sampled < 0.2
                  and rep.terminal_error < 1e-3 and elapsed < 300.0)
            report("criterion 5a (far-target plan)", ok,
                   f"terminal={rep.terminal_error:.3g}, sup_u={rep.sup_u_sampled:.3g}, "
                   f"{elapsed:.0f}s")
            assert ok
        except fs.BudgetExceeded as err:
            report("criterion 5a (far-target plan)", False, str(err))
            pytest.fail(f"far-target plan did not complete: {err}")


class TestCriterion6TrajectoryCorrection:
    def test_estimate_chain(self):
        eps = 0.2
        bump = default_bump()
        delta = fs.choose_delta(FieldStats(1.0, 1.0, lambda r: r), eps,
                                need_c1=True, bump=bump)
        traj = fs.integrate(ROTATION, [1.0, 0.0], 0.0, 2 * np.pi)
        y0 = traj.states[0] + 0.999 * delta ** 3 * np.array([1.0, 0.0])
        vt, ytraj, pm = fs.correct_start(ROTATION, traj, y0, eps, need_c1=True,
                                         delta=delta)
        assert np.array_equal(ytraj.states[0], y0)  # exact, below 1e-10

        rng = np.random.default_rng(6)
        pts = pm.x0 + rng.uniform(-2.5, 2.5, (10_000, 2)) * delta
        moved = np.linalg.norm(pts - pm.phi(pts), axis=1)
        viol_move = int(np.sum(moved > delta ** 3 * (1 + 1e-12)))

        viol_dphi = 0
        viol_ddphi = 0
        h = 1e-6
        eye = np.eye(2)
        for x in pts[:10_000:4]:
            J = pm.jac(x)
            if np.linalg.norm(J - eye, ord=2) > bump.grad_sup * delta ** 2 * (1 + 1e-9):
                viol_dphi += 1
            for e in eye:
                dJ = (pm.jac(x + h * e) - pm.jac(x - h * e)) / (2 * h)
                if np.linalg.norm(dJ, ord=2) > bump.hess_sup * delta * (1 + 1e-4):
                    viol_ddphi += 1

        sup_dev = float(np.max(np.linalg.norm(vt.eval(pts) - ROTATION.eval(pts),
                                              axis=1)))
        lip_dev = 0.0
        for x in pts[:600]:
            Jt = np.stack([(vt.eval(x + h * e) - vt.eval(x - h * e)) / (2 * h)
                           for e in eye], axis=1)
            lip_dev = max(lip_dev, float(np.linalg.norm(Jt - ROTATION.jac(x), ord=2)))
        lip_norm_dev = sup_dev + lip_dev

        ok = (viol_move == 0 and viol_dphi == 0 and viol_ddphi == 0
              and lip_norm_dev < eps)
        report("criterion 6 (trajectory correction)", ok,
               f"violations={viol_move}+{viol_dphi}+{viol_ddphi}, "
               f"lip_dev={lip_norm_dev:.3g}")
        assert viol_move == 0
        assert viol_dphi == 0
        assert viol_ddphi == 0
        assert lip_norm_dev < eps


class TestCriterion7TorusConnection:
    def test_rational_winding_negative_control(self):
        V = fs.builtin_field("winding", velocity=[1.0, 1.0])
        with pytest.raises(fs.NoTransitFound):
            fs.connect(V, [0.0, 0.0], [np.pi, 0.0], 0.1,
                       fs.ConnectBudgets(T_max=500.0, n_starts=4))
        report("criterion 7b (rational winding control)", True,
               "NoTransitFound raised")

    def test_irrational_winding_as_stated(self):
        """Connect (0,0) to (pi,pi) under the (1, sqrt 2) winding at eps=0.1.

        The Lipschitz budget at eps/2 pins the surgery scale to
        delta = 2.54e-3 (``choose_delta`` as ``connect`` calls it), so the
        transit must hit a ball of radius delta^3/2 = 8.1e-9.  No code yet
        computes when the first such approach happens; within T = 1e4 the
        closest one is 5.6e-3 away.  The attempt is made exactly as stated
        and its diagnostics are reported.
        """
        V = fs.builtin_field("winding", velocity=[1.0, np.sqrt(2.0)])
        try:
            field, traj, cert = fs.connect(
                V, [0.0, 0.0], [np.pi, np.pi], 0.1,
                fs.ConnectBudgets(T_max=1e4, n_starts=16, need_c1=True))
        except (fs.NoTransitFound, fs.DegenerateBudget) as err:
            report("criterion 7a (irrational connection)", False, str(err))
            pytest.fail(f"connection did not complete: {err}")

        from flowsteer.torus import torus_distance

        rng = np.random.default_rng(7)
        x1, x2 = np.array(cert["x1"]), np.array(cert["x2"])
        dd = cert["delta"]
        bitwise = all(
            np.array_equal(field.eval(z), V.eval(z))
            for z in rng.uniform(0, 2 * np.pi, (1000, 2))
            if torus_distance(z, x1) > 2 * dd and torus_distance(z, x2) > 2 * dd)
        h = 1e-6
        lip_dev = 0.0
        sup_dev = 0.0
        for z in rng.uniform(0, 2 * np.pi, (400, 2)):
            sup_dev = max(sup_dev, float(np.linalg.norm(field.eval(z) - V.eval(z))))
            J = np.stack([(field.eval(z + h * e) - field.eval(z - h * e)) / (2 * h)
                          for e in np.eye(2)], axis=1)
            lip_dev = max(lip_dev, float(np.linalg.norm(J, ord=2)))
        ok = cert["hit_error"] < 1e-6 and bitwise and (sup_dev + lip_dev) < 0.1
        report("criterion 7a (irrational connection)", ok,
               f"hit={cert['hit_error']:.3g}, lip_dev={sup_dev + lip_dev:.3g}")
        assert ok


class TestCriterion8Determinism:
    def test_byte_identical_runs_and_roundtrips(self, tmp_path):
        from flowsteer.cli import main

        rho, _ = fs.choose_rho_tau(CELLULAR, 0.2)
        cfg = tmp_path / "plan.yaml"
        cfg.write_text(
            "field:\n  kind: builtin\n  name: cellular\n"
            "seed: 3\n"
            "plan:\n"
            "  p: [0.2, 0.3]\n"
            f"  q: [{0.2 + 0.85 * rho / 4.0!r}, 0.3]\n"
            "  epsilon: 0.2\n"
            "  n_candidates: 4\n"
            "  correction_resolution: 512\n")
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["plan", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["plan", "--config", str(cfg), "--out", str(out2)]) == 0
        identical = all(
            (out1 / n).read_bytes() == (out2 / n).read_bytes()
            for n in ("certificate.json", "control.json", "trajectory.csv",
                      "plotdata.csv", "verify.json"))

        control = jsonio.read_json(out1 / "control.json")
        reloaded = fs.ControlSchedule.from_json(control)
        roundtrip = jsonio.dumps(reloaded.to_json()) == jsonio.dumps(control)

        # report artifacts round-trip too
        drift = fs.check_vmd(CELLULAR, [2 * np.pi, 4 * np.pi], 0.02)
        rt2 = drift.to_json() == fs.check_vmd(CELLULAR, [2 * np.pi, 4 * np.pi],
                                              0.02).to_json()

        ok = identical and roundtrip and rt2
        report("criterion 8 (determinism and round trips)", ok,
               f"bytes={identical}, schedule={roundtrip}")
        assert ok
