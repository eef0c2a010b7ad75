"""Operator command line: field audits, correction, recurrence, planning.

Every subcommand reads a YAML config (validated against a schema that
rejects unknown keys), writes its artifacts atomically under --out, and uses
only seeds from the config/flags so repeated runs are byte-identical.
Exit codes: 0 success, 1 domain failure, 2 usage or config error (an
unreadable input path too); other than a usage error, a failure writes one
JSON line, its ``error`` and ``detail``, on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import jsonschema
import numpy as np
import yaml

from . import jsonio
from .correction import CorrectionSettings, certify_proposition, correct
from .errors import ConfigError, FieldConstructionError, FlowsteerError
from .fields import build_field, check_vmd, estimate_divergence, estimate_norms
from .integrate import ControlSchedule
from .planner import PlanRequest, PlanResult, _at_rest, _Certificate, plan, verify_plan
from .recurrence import find_poisson_stable
from .sampling import Box
from .torus import ConnectBudgets, connect

_BOX_SCHEMA = {
    "type": "object",
    "properties": {"lo": {"type": "array"}, "hi": {"type": "array"}},
    "required": ["lo", "hi"],
    "additionalProperties": False,
}

_SCHEMA = {
    "type": "object",
    "properties": {
        "field": {
            "type": "object",
            "properties": {
                "kind": {"enum": ["builtin", "expression", "grid"]},
                "name": {"type": "string"},
                "exprs": {"type": "array", "items": {"type": "string"}},
                "axes": {"type": "array"},
                "values": {"type": "array"},
                "amplitude": {"type": "number"},
                "box_radius": {"type": "number"},
                "c": {"type": ["number", "array"]},
                "velocity": {"type": "array"},
                "a": {"type": "number"},
                "b": {"type": "number"},
                "dim": {"type": "integer"},
                "domain": {"enum": ["euclidean", "torus"]},
                "period": {"type": "number"},
                "domain_box": _BOX_SCHEMA,
            },
            "required": ["kind"],
            "allOf": [
                {"if": {"properties": {"kind": {"const": "expression"}}},
                 "then": {"required": ["exprs"]}},
                {"if": {"properties": {"kind": {"const": "grid"}}},
                 "then": {"required": ["axes", "values"]}},
            ],
            "additionalProperties": False,
        },
        "seed": {"type": "integer"},
        "field_check": {
            "type": "object",
            "properties": {
                "box": _BOX_SCHEMA,
                "divergence_points": {"type": "integer"},
                "divergence_step": {"type": "number"},
                "divergence_tol": {"type": "number"},
                "norm_samples": {"type": "integer"},
                "vmd_schedule": {"type": "array", "items": {"type": "number"}},
                "vmd_threshold": {"type": "number"},
                "require_divergence_free": {"type": "boolean"},
                "require_vanishing": {"type": "boolean"},
            },
            "additionalProperties": False,
        },
        "correct": {
            "type": "object",
            "properties": {
                "epsilon": {"type": "number"},
                "box": _BOX_SCHEMA,
                "resolution": {"type": "integer"},
                "p": {"type": "number"},
                "alpha": {"type": "number"},
                "certify_points": {"type": "integer"},
                "certify_T_max": {"type": "number"},
            },
            "required": ["epsilon", "box"],
            "additionalProperties": False,
        },
        "recurrence": {
            "type": "object",
            "properties": {
                "center": {"type": "array"},
                "delta": {"type": "number"},
                "return_radius": {"type": "number"},
                "T_min": {"type": "number"},
                "T_max": {"type": "number"},
                "n_candidates": {"type": "integer"},
            },
            "required": ["center", "delta", "return_radius", "T_min", "T_max"],
            "additionalProperties": False,
        },
        "plan": {
            "type": "object",
            "properties": {
                "p": {"type": "array"},
                "q": {"type": "array"},
                "epsilon": {"type": "number"},
                "T_max_per_hop": {"type": "number"},
                "n_candidates": {"type": "integer"},
                "terminal_tol": {"type": "number"},
                "correction_resolution": {"type": "integer"},
                "correction_box": _BOX_SCHEMA,
                "orbit_margin": {"type": "number"},
                "vmd_schedule": {"type": "array", "items": {"type": "number"}},
                "vmd_threshold": {"type": "number"},
                "wall_budget_s": {"type": "number"},
            },
            "required": ["p", "q", "epsilon"],
            "additionalProperties": False,
        },
        "verify": {
            "type": "object",
            "properties": {
                "control": {"type": "string"},
                "certificate": {"type": "string"},
            },
            "required": ["control", "certificate"],
            "additionalProperties": False,
        },
        "torus": {
            "type": "object",
            "properties": {
                "p": {"type": "array"},
                "q": {"type": "array"},
                "epsilon": {"type": "number"},
                "T_max": {"type": "number"},
                "n_starts": {"type": "integer"},
                "need_c1": {"type": "boolean"},
            },
            "required": ["p", "q", "epsilon"],
            "additionalProperties": False,
        },
    },
    "required": ["field"],
    "additionalProperties": False,
}


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = yaml.safe_load(fh)
    except (OSError, yaml.YAMLError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a mapping")
    try:
        jsonschema.validate(cfg, _SCHEMA)
    except jsonschema.ValidationError as e:
        raise ConfigError(f"config schema violation: {e.message}") from e
    return cfg


def _field_from_config(cfg: dict):
    section = {k: v for k, v in cfg["field"].items()
               if k not in ("domain", "period")}
    try:
        return build_field(section)
    except FieldConstructionError as e:
        if section["kind"] != "builtin":
            raise
        # a builtin is a name and parameters, so what it refuses is config
        raise ConfigError(str(e)) from None


def _field_period(cfg: dict) -> float:
    fld = cfg["field"]
    if fld.get("domain", "torus" if fld.get("name") == "winding" else "euclidean") != "torus":
        raise ConfigError("torus commands need a field with domain: torus")
    return float(fld.get("period", 2.0 * np.pi))


def _box(d: dict) -> Box:
    return Box(tuple(float(v) for v in d["lo"]), tuple(float(v) for v in d["hi"]))


def _set_options(opts: dict, coerce: dict) -> dict:
    """The keys of ``opts`` that ``coerce`` names, each passed through its
    coercion; a key the config leaves out keeps the callee's default."""
    return {k: f(opts[k]) for k, f in coerce.items() if k in opts}


def _emit(out_dir, name, payload, as_json, label):
    if out_dir:
        jsonio.write_json(os.path.join(out_dir, name), payload)
    if as_json:
        sys.stdout.write(jsonio.dumps({label: payload}))


def _fail(error: str, detail=None, code: int = 1) -> int:
    sys.stderr.write(json.dumps({"error": error, "detail": detail}, sort_keys=True) + "\n")
    return code


def _read_input(opts: dict, key: str):
    """The JSON file at ``verify.<key>``; a path that cannot be read or does
    not hold JSON is a ConfigError naming the key and the path."""
    try:
        return jsonio.read_json(opts[key])
    except OSError as e:
        raise ConfigError(f"cannot read verify.{key} {opts[key]}: {e}") from None
    except ValueError as e:  # a JSON or UTF-8 decode error
        raise ConfigError(f"verify.{key} {opts[key]} is not JSON: {e}") from None


# ---------------------------------------------------------------------------
# subcommands


def cmd_field_check(cfg, out_dir, as_json, seed) -> int:
    V = _field_from_config(cfg)
    opts = cfg.get("field_check", {})
    box = _box(opts["box"]) if "box" in opts else (V.domain_box or
                                                   Box((-1.0,) * V.dim, (1.0,) * V.dim))
    n_div = int(opts.get("divergence_points", 200))
    step = float(opts.get("divergence_step", 1e-4))
    div_tol = float(opts.get("divergence_tol", 1e-6))
    pts = box.uniform(n_div, seed)
    div_worst = float(np.max(np.abs(estimate_divergence(V, pts, step))))

    sup_est, lip_est = estimate_norms(V, box, int(opts.get("norm_samples", 10000)), seed)
    schedule = opts.get("vmd_schedule", [2 * np.pi, 4 * np.pi, 8 * np.pi])
    threshold = float(opts.get("vmd_threshold", 0.02))
    drift = check_vmd(V, schedule, threshold)

    bounds_ok = sup_est <= V.sup_bound * (1 + 1e-9) and lip_est <= V.lip_bound * (1 + 1e-9)
    report = {
        "divergence_max": float(div_worst),
        "divergence_tol": div_tol,
        "sup_estimate": float(sup_est),
        "lip_estimate": float(lip_est),
        "declared_sup": float(V.sup_bound),
        "declared_lip": float(V.lip_bound),
        "declared_bounds_dominate": bool(bounds_ok),
        "drift": drift.to_json(),
    }
    _emit(out_dir, "field_check.json", report, as_json, "field_check")
    ok = bounds_ok
    if opts.get("require_divergence_free", True):
        ok = ok and div_worst <= div_tol
    if opts.get("require_vanishing", True):
        ok = ok and drift.verdict == "vanishing"
    return 0 if ok else _fail("field checks failed", report)


def cmd_correct(cfg, out_dir, as_json, seed) -> int:
    V = _field_from_config(cfg)
    opts = cfg["correct"]
    settings = CorrectionSettings(box=_box(opts["box"]), strict=False, seed=seed,
                                  **_set_options(opts, {"resolution": int}))
    w = None
    if "p" in opts or "alpha" in opts:
        from .correction import PsiWeight

        w = PsiWeight(float(opts.get("p", PsiWeight.default_p(V.dim))),
                      float(opts.get("alpha", settings.box.diameter)), V.dim)
    result = correct(V, float(opts["epsilon"]), w, settings)
    report = certify_proposition(
        V, result, float(opts["epsilon"]), box=settings.box,
        n_points=int(opts.get("certify_points", 25)),
        T_max=float(opts.get("certify_T_max", 200.0)), seed=seed)
    payload = {"correction": result.to_json(), "certify": report.to_json()}
    _emit(out_dir, "correction.json", payload, as_json, "correct")
    return 0 if (result.passed and report.passed) else _fail(
        result.failure or "proposition certification failed", payload)


def cmd_recurrence(cfg, out_dir, as_json, seed) -> int:
    V = _field_from_config(cfg)
    opts = cfg["recurrence"]
    res = find_poisson_stable(
        V, np.asarray(opts["center"], dtype=float), float(opts["delta"]),
        float(opts["return_radius"]), float(opts["T_min"]), float(opts["T_max"]),
        seed=seed, **_set_options(opts, {"n_candidates": int}))
    payload = res.to_json()
    _emit(out_dir, "recurrence.json", payload, as_json, "recurrence")
    return 0


def cmd_plan(cfg, out_dir, as_json, seed) -> int:
    V = _field_from_config(cfg)
    opts = cfg["plan"]
    req = PlanRequest(
        p=tuple(float(v) for v in opts["p"]),
        q=tuple(float(v) for v in opts["q"]),
        epsilon=float(opts["epsilon"]),
        seed=seed,
        **_set_options(opts, {
            "T_max_per_hop": float, "n_candidates": int, "terminal_tol": float,
            "correction_resolution": int, "correction_box": _box,
            "orbit_margin": float, "vmd_schedule": tuple, "vmd_threshold": float,
            "wall_budget_s": float}),
    )
    result = plan(V, req)
    audited = result
    if out_dir:
        # audit the bytes just written, as `flowsteer verify` would read them
        result.write_files(out_dir)
        control = jsonio.read_json(os.path.join(out_dir, "control.json"))
        audited = replace(result, control=ControlSchedule.from_json(control))
    report = verify_plan(V, audited)
    if out_dir:
        jsonio.write_json(os.path.join(out_dir, "verify.json"), report.to_json())
    if as_json:
        sys.stdout.write(jsonio.dumps({"certificate": result.certificate,
                                       "verify": report.to_json()}))
    return 0 if report.passed else _fail("verification failed", report.to_json())


def cmd_verify(cfg, out_dir, as_json, seed) -> int:
    V = _field_from_config(cfg)
    opts = cfg["verify"]
    control = ControlSchedule.from_json(_read_input(opts, "control"))
    cert = _Certificate(_read_input(opts, "certificate"))
    # the artifacts hold no trajectory: the plan's start stands in for it
    report = verify_plan(V, PlanResult(control, _at_rest(cert["p"]),
                                       float(cert.get("terminal_error", 0.0)), cert))
    payload = report.to_json()
    _emit(out_dir, "verify.json", payload, as_json, "verify")
    return 0 if report.passed else _fail(_first_failure(report), payload)


def _first_failure(report) -> str:
    for c in report.checks:
        if not c["pass"]:
            return f"verification failed: {c['name']} ({c['detail']})"
    return "verification failed"


def cmd_torus_connect(cfg, out_dir, as_json, seed) -> int:
    V = _field_from_config(cfg)
    period = _field_period(cfg)
    opts = cfg["torus"]
    budgets = ConnectBudgets(seed=seed, **_set_options(
        opts, {"T_max": float, "n_starts": int, "need_c1": bool}))
    field, traj, cert = connect(V, np.asarray(opts["p"], dtype=float),
                                np.asarray(opts["q"], dtype=float),
                                float(opts["epsilon"]), budgets, period=period)
    if out_dir:
        from .deform import write_bump_constants

        jsonio.write_json(os.path.join(out_dir, "certificate.json"), cert)
        jsonio.write_text(os.path.join(out_dir, "trajectory.csv"), traj.to_csv())
        write_bump_constants(os.path.join(out_dir, "bump_constants.json"))
    if as_json:
        sys.stdout.write(jsonio.dumps({"torus_connect": cert}))
    return 0


_COMMANDS = {
    "field-check": (cmd_field_check, None),
    "correct": (cmd_correct, "correct"),
    "recurrence": (cmd_recurrence, "recurrence"),
    "plan": (cmd_plan, "plan"),
    "verify": (cmd_verify, "verify"),
    "torus-connect": (cmd_torus_connect, "torus"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="flowsteer",
        description="steering controls for divergence-free vector fields")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="YAML run configuration")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
        sp.add_argument("--json", action="store_true",
                        help="machine-readable report on stdout")

    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0

    handler, section = _COMMANDS[args.command]
    try:
        cfg = load_config(args.config)
        if section is not None and section not in cfg:
            raise ConfigError(f"config is missing the required [{section}] section")
        seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
        return handler(cfg, args.out, args.json, seed)
    except ConfigError as e:
        return _fail("ConfigError", str(e), 2)
    except FlowsteerError as e:
        return _fail(type(e).__name__, str(e))
    except ValueError as e:
        return _fail("ValueError", str(e))


if __name__ == "__main__":
    sys.exit(main())
