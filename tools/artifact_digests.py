"""sha256 of the artifacts a byte-identical change must keep.

    python3 tools/artifact_digests.py [--out digests.txt]

Plans and verifies input 0 of the benchmark's quickstart (seeds 0-2) and
far_chain (seeds 0-1) workloads, as ``perfbench/inputs.py`` builds them, and
the bridged 4-hop chain (:func:`bridged_chain`, the one plan here whose
first start is moved onto p by a bump surgery), and runs the benchmark's
torus-connect fixture.  It also runs ``flowsteer plan --out`` on the
README's plan config and on the same field written as an expression
(:data:`CLI_PLANS`), the one route here that reads ``control.json`` back
from its text, and the README config's ``flowsteer field-check --json``
and ``flowsteer correct --out`` (:data:`CLI_AUDITS`), a 3-D correction,
and the central differences of a 3-D field.  Prints one ``name sha256``
line for each of

* a plan's ``certificate.json``, ``control.json``, ``trajectory.csv`` and
  ``plotdata.csv`` as ``PlanResult.write_files`` writes them, and the
  ``repr`` of ``verify_plan``'s terminal error;
* a CLI plan's five files, its ``verify.json`` included;
* the field-check report on stdout and ``correction.json``;
* the 3-D correction's report and coefficients, whose audit and bounds
  run over blocks of rows with two inner axes (:func:`correction_3d_digests`);
* ``estimate_divergence`` and ``fd_jacobian`` of a 3-D expression field
  at 200 seeded points, whose bits a two-term sum or one maximum would not
  pin;
* the torus fixture's certificate and ``trajectory.csv`` as the CLI's
  ``torus-connect`` writes them.

Run it on two checkouts and compare the outputs, or save one checkout's
list with ``--out`` and run the other with ``--check`` on it, which prints
each artifact whose digest differs and exits 1 on any mismatch.  It imports
flowsteer from the ``src/`` of the checkout the script sits in; one run,
the CLI commands included, took 4.4 s and 5.2 s on a 2-core x86-64 Xeon.

    python3 tools/artifact_digests.py --check digests.txt
"""

from __future__ import annotations

import argparse
import hashlib
import io
import sys
import tempfile
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))
# importing the benchmark's inputs must leave its directory as checked in
sys.dont_write_bytecode = True

import numpy as np  # noqa: E402

import flowsteer as fs  # noqa: E402
from flowsteer import cli, jsonio, planner  # noqa: E402
from flowsteer.sampling import Box  # noqa: E402
from perfbench import inputs  # noqa: E402

PLAN_FILES = ("certificate.json", "control.json", "trajectory.csv", "plotdata.csv")
PLANS = (("quickstart", (0, 1, 2)), ("far_chain", (0, 1)))
_CLI_REQUEST = """\
seed: 3
plan:
  p: [0.2, 0.3]
  q: [0.2004, 0.3]
  epsilon: 0.2
  correction_resolution: {resolution}
"""
# (name, config): the README's plan config, and its cellular field as an
# expression on a +-6 box
CLI_PLANS = (
    ("cli/builtin", "field:\n  kind: builtin\n  name: cellular\n"
     + _CLI_REQUEST.format(resolution=512)),
    ("cli/expression", "field:\n  kind: expression\n"
     "  exprs: ['sin(x)*cos(y)', '-cos(x)*sin(y)']\n"
     "  domain_box: {lo: [-6.0, -6.0], hi: [6.0, 6.0]}\n"
     + _CLI_REQUEST.format(resolution=256)),
)

# the README config's field_check and correct sections
CLI_AUDITS = """\
field:
  kind: builtin
  name: cellular
seed: 3
field_check:
  box: {lo: [-3.0, -3.0], hi: [3.0, 3.0]}
correct:
  epsilon: 0.1
  box: {lo: [-12.566370614359172, -12.566370614359172],
        hi: [12.566370614359172, 12.566370614359172]}
  resolution: 256
"""


def sha(data) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def bridged_chain():
    """The cellular field and the request of the 4-hop chain from
    p = (0.2, 0.3) at eps 0.2, seed 2 (``tests/test_planner.py``'s
    ``_chain(3.4)``); planned under :func:`first_center_moved`, it takes a
    real bridge."""
    V = fs.builtin_field("cellular")
    rho, _ = fs.choose_rho_tau(V, 0.2)
    p = np.array([0.2, 0.3])
    q = p + 3.4 * 0.9 * rho / 4.0 * np.array([0.6, 0.8])
    return V, fs.PlanRequest(p=tuple(p), q=tuple(q), epsilon=0.2, seed=2,
                             correction_resolution=256, n_candidates=4)


@contextmanager
def first_center_moved(p):
    """Within it, ``fs.plan`` searches from p + radius/2 (0.6, -0.8) in place
    of the candidate center p, so the first recurrent start is not p."""
    search = planner.find_poisson_stable

    def moved(F, centers, radius, *args, **kw):
        centers = np.array(centers, dtype=float)
        if np.array_equal(centers[0], p):
            centers[0] = p + 0.5 * radius * np.array([0.6, -0.8])
        return search(F, centers, radius, *args, **kw)

    planner.find_poisson_stable = moved
    try:
        yield
    finally:
        planner.find_poisson_stable = search


def plan_digests(name, V, res, tmp):
    """(name, sha256) of one plan's files and of its audit's terminal error."""
    out = Path(tmp) / name.replace("/", "_")
    res.write_files(out)
    for file in PLAN_FILES:
        yield f"{name}/{file}", sha((out / file).read_bytes())
    yield f"{name}/verify_terminal_error", sha(repr(fs.verify_plan(V, res).terminal_error))


def cli_digests(name, config, tmp):
    """(name, sha256) of the files ``flowsteer plan --out`` writes."""
    out = Path(tmp) / name.replace("/", "_")
    cfg = out.with_suffix(".yaml")
    cfg.write_text(config)
    code = cli.main(["plan", "--config", str(cfg), "--out", str(out)])
    if code:
        raise SystemExit(f"{name}: flowsteer plan exited {code}")
    for file in PLAN_FILES + ("verify.json",):
        yield f"{name}/{file}", sha((out / file).read_bytes())


def cli_audit_digests(tmp):
    """(name, sha256) of the field-check report that ``flowsteer field-check
    --json`` prints and of the ``correction.json`` that ``flowsteer correct
    --out`` writes, for :data:`CLI_AUDITS`."""
    out = Path(tmp) / "cli_audits"
    cfg = Path(tmp) / "cli_audits.yaml"
    cfg.write_text(CLI_AUDITS)
    with redirect_stdout(io.StringIO()) as report:
        code = cli.main(["field-check", "--config", str(cfg), "--json"])
    if code:
        raise SystemExit(f"flowsteer field-check exited {code}")
    yield "cli/field-check/report.json", sha(report.getvalue())
    code = cli.main(["correct", "--config", str(cfg), "--out", str(out)])
    if code:
        raise SystemExit(f"flowsteer correct exited {code}")
    yield "cli/correct/correction.json", sha((out / "correction.json").read_bytes())


def correction_3d_digests():
    """(name, sha256) of the ``CorrectionResult.to_json`` and of the B-spline
    coefficients of a 3-D correction: the ABC field on a box of three
    widths, at resolution 48 and eps 0.1, which takes two alphas and
    audits more rows than one block holds."""
    box = Box((-1.0, -0.6, -0.4), (1.0, 0.9, 0.6))
    res = fs.correct(fs.builtin_field("abc"), 0.1, settings=fs.CorrectionSettings(
        box=box, resolution=48, strict=False))
    yield "correct/abc3d/correction.json", sha(jsonio.dumps(res.to_json()))
    yield "correct/abc3d/coefs", sha(res.field.descriptor["coefs"].tobytes())


def difference_digests():
    """(name, sha256) of the central differences of a field whose every
    component moves with its own coordinate, at 200 seeded points of
    [-3, 3]^3."""
    V = fs.expression_field(["x*y*z + sin(x)", "sin(x*y) + y^2", "y*z + exp(z/3)"], 1.0, 1.0)
    pts = np.random.default_rng(0).uniform(-3.0, 3.0, (200, 3))
    yield "fields/estimate_divergence", sha(fs.estimate_divergence(V, pts, 1e-4).tobytes())
    yield "fields/fd_jacobian", sha(V.fd_jacobian(pts).tobytes())


def digests():
    """(name, sha256) of every artifact, in a fixed order."""
    with tempfile.TemporaryDirectory() as tmp:
        for workload, seeds in PLANS:
            V = inputs.base_field(workload)
            for seed in seeds:
                res = fs.plan(V, inputs.CASES[workload](seed, 0).request)
                yield from plan_digests(f"{workload}/{seed}", V, res, tmp)
        V, req = bridged_chain()
        with first_center_moved(np.asarray(req.p)):
            res = fs.plan(V, req)
        yield from plan_digests("bridged_chain/2", V, res, tmp)
        for name, config in CLI_PLANS:
            yield from cli_digests(name, config, tmp)
        yield from cli_audit_digests(tmp)
    yield from correction_3d_digests()
    yield from difference_digests()
    case = inputs.torus_connect(0, 0)
    _, traj, cert = fs.connect(inputs.base_field("torus_connect"), case.p, case.q,
                               case.eps, case.budgets)
    yield "torus_connect/0/certificate.json", sha(jsonio.dumps(cert))
    yield "torus_connect/0/trajectory.csv", sha(traj.to_csv())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="also write the lines to this file")
    ap.add_argument("--check", help="compare against the lines saved in this file")
    args = ap.parse_args(argv)
    saved = None
    if args.check:
        saved = dict(line.split() for line in Path(args.check).read_text().splitlines()
                     if line.strip())
    current = {}
    for name, digest in digests():
        current[name] = digest
        print(f"{name} {digest}", flush=True)
    if args.out:
        Path(args.out).write_text("".join(f"{n} {d}\n" for n, d in current.items()))
    if saved is None:
        return 0
    names = sorted(saved.keys() | current.keys())
    differ = [name for name in names if saved.get(name) != current.get(name)]
    for name in differ:
        print(f"DIFFERS {name}")
    print(f"{len(names) - len(differ)}/{len(names)} digests identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
