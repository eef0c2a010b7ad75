from __future__ import annotations

import json

import numpy as np
import pytest

import flowsteer as fs
from flowsteer import cli, jsonio
from flowsteer.cli import main

CELLULAR_CHECK = """\
field:
  kind: builtin
  name: cellular
seed: 0
field_check:
  box: {{lo: [-3.0, -3.0], hi: [3.0, 3.0]}}
  divergence_points: 100
  vmd_threshold: 0.02
"""

CONSTANT_CHECK = """\
field:
  kind: builtin
  name: constant
  c: [1.0, 0.0]
seed: 0
field_check:
  box: {{lo: [-1.0, -1.0], hi: [1.0, 1.0]}}
"""


# a 5x5 zero grid; YAML reads the JSON lists as they are
ZERO_GRID = ("field:\n  kind: grid\n"
             f"  axes: {json.dumps([[-2.0, -1.0, 0.0, 1.0, 2.0]] * 2)}\n"
             f"  values: {json.dumps(np.zeros((5, 5, 2)).tolist())}\n")


def run(args):
    return main(args)


class TestFieldCheck:
    def test_cellular_passes(self, tmp_path, capsys):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(CELLULAR_CHECK.format())
        code = run(["field-check", "--config", str(cfg), "--out", str(tmp_path),
                    "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)["field_check"]
        assert report["drift"]["verdict"] == "vanishing"
        assert (tmp_path / "field_check.json").exists()

    def test_constant_fails_vmd(self, tmp_path, capsys):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(CONSTANT_CHECK.format())
        code = run(["field-check", "--config", str(cfg)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["detail"]["drift"]["verdict"] == "nonvanishing"

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("field:\n  kind: builtin\n  name: cellular\nbogus_key: 1\n")
        assert run(["field-check", "--config", str(cfg)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"

    def test_missing_file_exits_2(self, tmp_path):
        assert run(["field-check", "--config", str(tmp_path / "nope.yaml")]) == 2

    def test_unknown_nested_key_rejected(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(
            "field:\n  kind: builtin\n  name: cellular\n"
            "field_check:\n  surprising: 3\n")
        assert run(["field-check", "--config", str(cfg)]) == 2

    def test_malformed_expression_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("field:\n  kind: expression\n  exprs: ['1.2.3', 'y']\n")
        assert run(["field-check", "--config", str(cfg)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FieldConstructionError"

    def test_builtin_parameter_it_does_not_take_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("field:\n  kind: builtin\n  name: cellular\n  box_radius: 3.0\n")
        assert run(["field-check", "--config", str(cfg)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "'cellular' takes no parameter 'box_radius'" in err["detail"]

    @pytest.mark.parametrize("section,key", [
        ("  kind: expression\n", "exprs"),
        ("  kind: grid\n  axes: [[0.0, 1.0], [0.0, 1.0]]\n", "values")])
    def test_incomplete_field_section_exits_2(self, tmp_path, capsys, section, key):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("field:\n" + section)
        assert run(["field-check", "--config", str(cfg)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and repr(key) in err["detail"]

    def test_abc_takes_a_number_for_c(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("field:\n  kind: builtin\n  name: abc\n  c: 1.5\n")
        V = cli._field_from_config(cli.load_config(str(cfg)))
        assert V.descriptor["params"] == {"a": 1.0, "b": 1.0, "c": 1.5}
        want = fs.builtin_field("abc", c=1.5).eval(np.array([0.3, -0.2, 1.1]))
        assert np.array_equal(V.eval(np.array([0.3, -0.2, 1.1])), want)


class TestRecurrenceCommand:
    def test_rotation_period(self, tmp_path, capsys):
        cfg = tmp_path / "r.yaml"
        cfg.write_text(
            "field:\n  kind: builtin\n  name: rotation\n"
            "recurrence:\n  center: [1.0, 0.0]\n  delta: 0.1\n"
            "  return_radius: 1.0e-6\n  T_min: 1.0\n  T_max: 10.0\n")
        code = run(["recurrence", "--config", str(cfg), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)["recurrence"]
        assert payload["T"] == pytest.approx(2 * np.pi, abs=1e-6)

    def test_no_return_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "r.yaml"
        cfg.write_text(
            "field:\n  kind: builtin\n  name: constant\n  c: [1.0, 0.0]\n"
            "recurrence:\n  center: [0.0, 0.0]\n  delta: 0.1\n"
            "  return_radius: 1.0e-3\n  T_min: 1.0\n  T_max: 20.0\n")
        assert run(["recurrence", "--config", str(cfg)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "NoReturnFound"

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_direction_is_refused(self, tmp_path, direction):
        # the search runs forward only; the reverse-time option is gone
        cfg = tmp_path / "r.yaml"
        cfg.write_text(
            "field:\n  kind: builtin\n  name: rotation\n"
            "recurrence:\n  center: [1.0, 0.0]\n  delta: 0.1\n"
            "  return_radius: 1.0e-6\n  T_min: 1.0\n  T_max: 10.0\n"
            f"  direction: {direction}\n")
        assert run(["recurrence", "--config", str(cfg)]) == 2


class TestCorrectCommand:
    def test_rotation_correct_and_certify(self, tmp_path, capsys):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(
            "field:\n  kind: builtin\n  name: rotation\n"
            "correct:\n  epsilon: 0.1\n"
            "  box: {lo: [-2.0, -2.0], hi: [2.0, 2.0]}\n"
            "  resolution: 64\n  certify_points: 6\n  certify_T_max: 10.0\n")
        code = run(["correct", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 0
        payload = jsonio.read_json(tmp_path / "correction.json")
        assert payload["correction"]["sup_delta"] < 1e-12
        assert payload["certify"]["passed"]


@pytest.fixture(scope="module")
def plan_config(tmp_path_factory):
    V = fs.builtin_field("cellular")
    rho, _ = fs.choose_rho_tau(V, 0.2)
    d = tmp_path_factory.mktemp("plancfg")
    cfg = d / "plan.yaml"
    cfg.write_text(
        "field:\n  kind: builtin\n  name: cellular\n"
        "seed: 3\n"
        "plan:\n"
        f"  p: [0.2, 0.3]\n"
        f"  q: [{0.2 + 0.85 * rho / 4.0!r}, 0.3]\n"
        "  epsilon: 0.2\n"
        "  n_candidates: 4\n"
        "  correction_resolution: 512\n")
    return cfg


@pytest.fixture(scope="module")
def expression_plan(tmp_path_factory):
    """The files ``plan --out`` writes for the cellular field written as an
    expression, whose ``control.json`` stores the expression's bounds."""
    V = fs.builtin_field("cellular")
    rho, _ = fs.choose_rho_tau(V, 0.2)
    d = tmp_path_factory.mktemp("exprplan")
    cfg = d / "plan.yaml"
    cfg.write_text(
        "field:\n  kind: expression\n"
        "  exprs: ['sin(x)*cos(y)', '-cos(x)*sin(y)']\n"
        "  domain_box: {lo: [-6.0, -6.0], hi: [6.0, 6.0]}\n"
        "seed: 3\n"
        "plan:\n"
        f"  p: [0.2, 0.3]\n"
        f"  q: [{0.2 + 0.85 * rho / 4.0!r}, 0.3]\n"
        "  epsilon: 0.2\n"
        "  n_candidates: 4\n"
        "  correction_resolution: 256\n")
    assert run(["plan", "--config", str(cfg), "--out", str(d / "out")]) == 0
    return d / "out"


class TestPlanCommand:
    def test_plan_writes_artifacts_and_verifies(self, plan_config, tmp_path):
        out = tmp_path / "out"
        code = run(["plan", "--config", str(plan_config), "--out", str(out)])
        assert code == 0
        for name in ("control.json", "trajectory.csv", "certificate.json",
                     "plotdata.csv", "verify.json"):
            assert (out / name).exists()
        verify = jsonio.read_json(out / "verify.json")
        assert verify["passed"]
        # one landing defect per hop, one monodromy gain per hop after the first
        hops = len(jsonio.read_json(out / "certificate.json")["return_times"])
        assert len(verify["landing_defects"]) == hops >= 1
        assert len(verify["monodromy_gains"]) == hops - 1

    def test_verify_json_reports_every_hop(self, tmp_path):
        V = fs.builtin_field("cellular")
        rho, _ = fs.choose_rho_tau(V, 0.2)
        q = np.array([0.2, 0.3]) + 1.6 * 0.9 * rho / 4.0 * np.array([0.6, 0.8])
        cfg = tmp_path / "plan.yaml"
        cfg.write_text(
            "field:\n  kind: builtin\n  name: cellular\n"
            "seed: 2\n"
            "plan:\n"
            "  p: [0.2, 0.3]\n"
            f"  q: [{float(q[0])!r}, {float(q[1])!r}]\n"
            "  epsilon: 0.2\n"
            "  n_candidates: 4\n"
            "  correction_resolution: 256\n")
        out = tmp_path / "out"
        assert run(["plan", "--config", str(cfg), "--out", str(out)]) == 0
        verify = jsonio.read_json(out / "verify.json")
        assert len(jsonio.read_json(out / "certificate.json")["return_times"]) == 2
        assert len(verify["landing_defects"]) == 2
        assert len(verify["monodromy_gains"]) == 1

    def test_repeat_runs_byte_identical(self, plan_config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(["plan", "--config", str(plan_config), "--out", str(out1)]) == 0
        assert run(["plan", "--config", str(plan_config), "--out", str(out2)]) == 0
        for name in ("control.json", "certificate.json", "trajectory.csv",
                     "plotdata.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_verify_command_roundtrip(self, plan_config, tmp_path):
        out = tmp_path / "out"
        assert run(["plan", "--config", str(plan_config), "--out", str(out)]) == 0
        vcfg = tmp_path / "v.yaml"
        vcfg.write_text(
            "field:\n  kind: builtin\n  name: cellular\n"
            "verify:\n"
            f"  control: {out / 'control.json'}\n"
            f"  certificate: {out / 'certificate.json'}\n")
        assert run(["verify", "--config", str(vcfg)]) == 0

    def test_verify_command_flags_tamper(self, plan_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["plan", "--config", str(plan_config), "--out", str(out)]) == 0
        control = jsonio.read_json(out / "control.json")
        for seg in control["segments"]:
            for part in seg["params"].get("parts", []):
                if part["kind"] == "steer":
                    a = np.asarray(part["params"]["alpha"])
                    scale = 1.0 + 2e-3 / (np.linalg.norm(a) * part["params"]["tau"])
                    part["params"]["alpha"] = [float(v) for v in scale * a]
        jsonio.write_json(out / "control.json", control)
        vcfg = tmp_path / "v.yaml"
        vcfg.write_text(
            "field:\n  kind: builtin\n  name: cellular\n"
            "verify:\n"
            f"  control: {out / 'control.json'}\n"
            f"  certificate: {out / 'certificate.json'}\n")
        assert run(["verify", "--config", str(vcfg)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert "terminal_error" in err["error"]

    def test_verify_command_refuses_node_form(self, plan_config, tmp_path, capsys):
        # a control.json whose corrected field holds the nodes ('values'), as
        # files did before the descriptor carried the spline's coefficients
        out = tmp_path / "out"
        assert run(["plan", "--config", str(plan_config), "--out", str(out)]) == 0
        control = jsonio.read_json(out / "control.json")
        corrected = [d for d in control["fields"].values() if d["kind"] == "corrected"]
        assert corrected
        for d in corrected:
            d["values"] = d.pop("coefs")
        jsonio.write_json(out / "control.json", control)
        vcfg = tmp_path / "v.yaml"
        vcfg.write_text(
            "field:\n  kind: builtin\n  name: cellular\n"
            "verify:\n"
            f"  control: {out / 'control.json'}\n"
            f"  certificate: {out / 'certificate.json'}\n")
        assert run(["verify", "--config", str(vcfg)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FieldConstructionError"
        assert "'values'" in err["detail"] and "format before" in err["detail"]

    def test_plan_out_audits_the_written_file(self, plan_config, tmp_path, monkeypatch):
        planned, audited = [], []
        real_plan, real_verify = cli.plan, cli.verify_plan

        def spy_plan(V, req):
            planned.append(real_plan(V, req))
            return planned[-1]

        def spy_verify(V, result):
            audited.append(result)
            return real_verify(V, result)

        monkeypatch.setattr(cli, "plan", spy_plan)
        monkeypatch.setattr(cli, "verify_plan", spy_verify)
        out = tmp_path / "out"
        assert run(["plan", "--config", str(plan_config), "--out", str(out)]) == 0
        (result,), (checked,) = planned, audited
        # the audited schedule is the one rebuilt from control.json's bytes
        assert checked.control is not result.control
        assert checked.certificate is result.certificate
        want = jsonio.dumps(real_verify(fs.builtin_field("cellular"), result).to_json())
        assert (out / "verify.json").read_text() == want

    @pytest.mark.parametrize("damage", ["unknown_field", "no_t0", "field_without_eps",
                                        "field_without_kind"])
    def test_verify_command_malformed_control_exits_1(self, plan_config, tmp_path, capsys,
                                                       damage):
        out = tmp_path / "out"
        assert run(["plan", "--config", str(plan_config), "--out", str(out)]) == 0
        control = jsonio.read_json(out / "control.json")
        seg = control["segments"][0]
        corrected = next(k for k, d in control["fields"].items() if d["kind"] == "corrected")
        if damage == "unknown_field":
            seg["params"]["parts"][0]["params"]["a"] = "f9"
            want = ["'f9'"]
        elif damage == "no_t0":
            del seg["t0"]
            want = ["'t0'"]
        else:
            key = damage.removeprefix("field_without_")
            del control["fields"][corrected][key]
            want = [repr(corrected), repr(key)]
        jsonio.write_json(out / "control.json", control)
        vcfg = tmp_path / "v.yaml"
        vcfg.write_text(
            "field:\n  kind: builtin\n  name: cellular\n"
            "verify:\n"
            f"  control: {out / 'control.json'}\n"
            f"  certificate: {out / 'certificate.json'}\n")
        capsys.readouterr()
        assert run(["verify", "--config", str(vcfg)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ScheduleError"
        assert all(w in err["detail"] for w in want)

    @pytest.mark.parametrize("lost", [("sup_bound",), ("lip_bound",),
                                      ("sup_bound", "lip_bound")],
                             ids=["sup_bound", "lip_bound", "both"])
    def test_verify_command_expression_without_bounds_exits_1(self, expression_plan,
                                                              tmp_path, capsys, lost):
        # the bounds a config leaves out are sampled; a stored entry's are not
        control = jsonio.read_json(expression_plan / "control.json")
        key = next(k for k, d in control["fields"].items() if d["kind"] == "expression")
        for k in lost:
            del control["fields"][key][k]
        jsonio.write_json(tmp_path / "control.json", control)
        vcfg = tmp_path / "v.yaml"
        vcfg.write_text(
            "field:\n  kind: expression\n"
            "  exprs: ['sin(x)*cos(y)', '-cos(x)*sin(y)']\n"
            "  domain_box: {lo: [-6.0, -6.0], hi: [6.0, 6.0]}\n"
            "verify:\n"
            f"  control: {tmp_path / 'control.json'}\n"
            f"  certificate: {expression_plan / 'certificate.json'}\n")
        capsys.readouterr()
        assert run(["verify", "--config", str(vcfg)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ScheduleError"
        assert repr(key) in err["detail"] and repr(lost[0]) in err["detail"]

    @staticmethod
    def _verify_expression_plan(tmp_path, control, certificate):
        """``flowsteer verify`` of the expression plan's field on the given
        files; its exit code."""
        vcfg = tmp_path / "v.yaml"
        vcfg.write_text(
            "field:\n  kind: expression\n"
            "  exprs: ['sin(x)*cos(y)', '-cos(x)*sin(y)']\n"
            "  domain_box: {lo: [-6.0, -6.0], hi: [6.0, 6.0]}\n"
            "verify:\n"
            f"  control: {control}\n"
            f"  certificate: {certificate}\n")
        return run(["verify", "--config", str(vcfg)])

    @pytest.mark.parametrize("key", ["control", "certificate"])
    def test_verify_command_missing_input_exits_2(self, expression_plan, tmp_path, capsys,
                                                  key):
        paths = {"control": expression_plan / "control.json",
                 "certificate": expression_plan / "certificate.json"}
        paths[key] = tmp_path / "absent.json"
        capsys.readouterr()
        assert self._verify_expression_plan(tmp_path, **paths) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ConfigError"
        assert f"verify.{key}" in err["detail"] and "absent.json" in err["detail"]

    @pytest.mark.parametrize("key", ["control", "certificate"])
    def test_verify_command_input_not_json_exits_2(self, expression_plan, tmp_path, capsys,
                                                   key):
        paths = {"control": expression_plan / "control.json",
                 "certificate": expression_plan / "certificate.json"}
        paths[key] = tmp_path / "truncated.json"
        paths[key].write_text('{"dim": 2, "fie')
        capsys.readouterr()
        assert self._verify_expression_plan(tmp_path, **paths) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ConfigError"
        assert f"verify.{key}" in err["detail"] and "truncated.json" in err["detail"]
        assert "not JSON" in err["detail"]

    @pytest.mark.parametrize("path", [("p",), ("stable_points",), ("delta_bridge",),
                                      ("hop_checks", 0, "rho_local")],
                             ids=["p", "stable_points", "delta_bridge", "hop_rho_local"])
    def test_verify_command_certificate_without_key_exits_1(self, expression_plan,
                                                            tmp_path, capsys, path):
        cert = jsonio.read_json(expression_plan / "certificate.json")
        entry = cert
        for k in path[:-1]:
            entry = entry[k]
        del entry[path[-1]]
        jsonio.write_json(tmp_path / "certificate.json", cert)
        capsys.readouterr()
        assert self._verify_expression_plan(tmp_path, expression_plan / "control.json",
                                            tmp_path / "certificate.json") == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ScheduleError"
        assert repr(path[-1]) in err["detail"]

    def test_grid_field_plans_and_verifies(self, tmp_path):
        out = tmp_path / "out"
        cfg = tmp_path / "g.yaml"
        cfg.write_text(ZERO_GRID + "plan:\n  p: [0.2, 0.3]\n  q: [0.2004, 0.3]\n"
                       "  epsilon: 0.2\n")
        assert run(["plan", "--config", str(cfg), "--out", str(out)]) == 0
        control = jsonio.read_json(out / "control.json")
        assert "grid" in [d["kind"] for d in control["fields"].values()]
        vcfg = tmp_path / "v.yaml"
        vcfg.write_text(ZERO_GRID + "verify:\n"
                        f"  control: {out / 'control.json'}\n"
                        f"  certificate: {out / 'certificate.json'}\n")
        assert run(["verify", "--config", str(vcfg), "--out", str(tmp_path)]) == 0
        assert jsonio.read_json(tmp_path / "verify.json")["passed"]

    def test_p_equals_q_empty_control(self, tmp_path):
        cfg = tmp_path / "p.yaml"
        cfg.write_text(
            "field:\n  kind: builtin\n  name: cellular\n"
            "plan:\n  p: [1.0, 1.0]\n  q: [1.0, 1.0]\n  epsilon: 0.2\n")
        out = tmp_path / "out"
        assert run(["plan", "--config", str(cfg), "--out", str(out)]) == 0
        control = jsonio.read_json(out / "control.json")
        assert control["segments"] == []

    def test_vmd_violation_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "p.yaml"
        cfg.write_text(
            "field:\n  kind: builtin\n  name: constant\n  c: [1.0, 0.0]\n"
            "plan:\n  p: [0.0, 0.0]\n  q: [1.0, 1.0]\n  epsilon: 0.2\n")
        assert run(["plan", "--config", str(cfg)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "VMDViolation"


class TestTorusCommand:
    def test_connect_writes_certificate(self, tmp_path):
        cfg = tmp_path / "t.yaml"
        cfg.write_text(
            "field:\n  kind: builtin\n  name: winding\n"
            "torus:\n  p: [0.0, 0.0]\n  q: [3.141592653589793, 3.141592653589793]\n"
            "  epsilon: 0.4\n  T_max: 6000.0\n  n_starts: 6\n  need_c1: false\n")
        out = tmp_path / "out"
        assert run(["torus-connect", "--config", str(cfg), "--out", str(out)]) == 0
        cert = jsonio.read_json(out / "certificate.json")
        assert cert["hit_error"] < 1e-6

    def test_no_transit_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "t.yaml"
        cfg.write_text(
            "field:\n  kind: builtin\n  name: winding\n  velocity: [1.0, 1.0]\n"
            "torus:\n  p: [0.0, 0.0]\n  q: [3.141592653589793, 0.0]\n"
            "  epsilon: 0.4\n  T_max: 100.0\n  n_starts: 2\n  need_c1: false\n")
        assert run(["torus-connect", "--config", str(cfg)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "NoTransitFound"


class TestSeedOverride:
    def test_flag_overrides_config_seed(self, tmp_path, capsys):
        cfg = tmp_path / "r.yaml"
        cfg.write_text(
            "field:\n  kind: builtin\n  name: rotation\n"
            "seed: 1\n"
            "recurrence:\n  center: [1.0, 0.0]\n  delta: 0.1\n"
            "  return_radius: 1.0e-6\n  T_min: 1.0\n  T_max: 10.0\n")
        assert run(["recurrence", "--config", str(cfg), "--seed", "9",
                    "--json"]) == 0
        a = json.loads(capsys.readouterr().out)["recurrence"]
        assert run(["recurrence", "--config", str(cfg), "--seed", "9",
                    "--json"]) == 0
        b = json.loads(capsys.readouterr().out)["recurrence"]
        assert a == b


class TestTorusFieldDeclaration:
    def test_explicit_domain_and_period(self, tmp_path):
        cfg = tmp_path / "t.yaml"
        cfg.write_text(
            "field:\n  kind: builtin\n  name: winding\n"
            "  domain: torus\n  period: 6.283185307179586\n"
            "torus:\n  p: [0.0, 0.0]\n  q: [3.141592653589793, 3.141592653589793]\n"
            "  epsilon: 0.4\n  T_max: 6000.0\n  n_starts: 6\n  need_c1: false\n")
        out = tmp_path / "out"
        assert run(["torus-connect", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "bump_constants.json").exists()

    def test_euclidean_field_rejected_for_torus(self, tmp_path, capsys):
        cfg = tmp_path / "t.yaml"
        cfg.write_text(
            "field:\n  kind: builtin\n  name: cellular\n  domain: euclidean\n"
            "torus:\n  p: [0.0, 0.0]\n  q: [1.0, 1.0]\n  epsilon: 0.4\n")
        assert run(["torus-connect", "--config", str(cfg)]) == 2


class TestConfigDefaults:
    """A section that sets only the required keys gets the library's
    defaults: the command passes on no defaults of its own."""

    @staticmethod
    def capture(monkeypatch, name, seen):
        def stand_in(*args, **kwargs):
            seen.append(args)
            raise fs.BudgetExceeded("captured")

        monkeypatch.setattr(cli, name, stand_in)

    def test_plan_section_keeps_request_defaults(self, tmp_path, monkeypatch):
        seen = []
        self.capture(monkeypatch, "plan", seen)
        cfg = tmp_path / "p.yaml"
        cfg.write_text(
            "field:\n  kind: builtin\n  name: cellular\n"
            "plan:\n  p: [0.2, 0.3]\n  q: [0.25, 0.3]\n  epsilon: 0.2\n")
        assert run(["plan", "--config", str(cfg)]) == 1
        [(_, req)] = seen
        assert req == fs.PlanRequest(p=(0.2, 0.3), q=(0.25, 0.3), epsilon=0.2)

    def test_torus_section_keeps_budget_defaults(self, tmp_path, monkeypatch):
        seen = []
        self.capture(monkeypatch, "connect", seen)
        cfg = tmp_path / "t.yaml"
        cfg.write_text(
            "field:\n  kind: builtin\n  name: winding\n"
            "torus:\n  p: [0.0, 0.0]\n  q: [1.0, 2.0]\n  epsilon: 0.4\n")
        assert run(["torus-connect", "--config", str(cfg)]) == 1
        [args] = seen
        assert args[4] == fs.ConnectBudgets()
