"""flowsteer benchmark: time to a checked certificate, accuracy, per-layer spans.

    python3 perfbench/run.py --workload quickstart --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Workloads (see perfbench/README.md for why each exists):
  quickstart     one-hop cellular plan of the README, plan + verify_plan
  far_chain      first 8 hops of the far-target plan, plan + verify_plan
  torus_connect  winding-field connect fixture of the torus tests

``--trace 0`` repeats the workload's operation until ``--seconds`` have
passed (inputs ``k = i // 2`` for iteration ``i``, so every input runs twice
and its certificate bytes are compared) and reports the end-to-end metrics.
``--trace 1`` runs the operation untraced, then traced on a counted field,
then probes every layer, and reports the per-layer metrics.  Either way the
last line of standard output is one JSON object; spans, samples and the
environment go to ``.perfbench_out/`` in the checkout.  ``--workload all``
runs every workload both ways, each in a fresh process, one after another.
"""

from __future__ import annotations

import os

# one BLAS thread in this process and in the set-up probes it starts
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("quickstart", "far_chain", "torus_connect")
SETUP_PROBES = 5
# accuracy cannot exceed double precision; keeps the digits of an exact hit finite
ERROR_FLOOR = 1e-16


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _median(xs) -> float:
    return float(statistics.median(xs))


def _tail(xs):
    """(percentile, value) of the highest percentile with at least ten samples
    beyond it, or None with fewer than eleven samples."""
    n = len(xs)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(xs)[n - 11]


def _digits(err) -> float:
    return -math.log10(max(err, ERROR_FLOOR)) if err is not None else 0.0


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "commit": commit or "unknown (not a git checkout)"}


def setup_seconds(workload: str, seed: int) -> list:
    """Set-up time of fresh processes: import flowsteer, build the inputs."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT, text=True, capture_output=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        out.append(float(proc.stdout.split()[-1]))
    return out


def untraced(workload: str, seed: int, seconds: float):
    """Repeat the operation for ``seconds``; returns the outcomes, each with
    ``solve_ref``/``check_ref`` at the reference speed, and the peak RSS in
    MB after the first operation."""
    import inputs
    import workloads
    from spans import SpeedMeter, stopwatch

    V = inputs.base_field(workload)
    samples, case, rss_mb = [], None, 0.0
    start = time.perf_counter()
    i = 0
    with SpeedMeter() as meter:
        while i == 0 or time.perf_counter() - start < seconds:
            if i % 2 == 0:
                case = inputs.CASES[workload](seed, i // 2)
            out = workloads.run_once(workload, V, case, stopwatch)
            if i % 2 == 1 and out.digest != samples[-1].digest:
                out.failures.append("certificate bytes differ from the repeat")
            if i == 0:
                rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            out.result = None  # keep memory flat across iterations
            samples.append(out)
            i += 1
    for out in samples:
        out.solve_ref = meter.reference_seconds(out.solve)
        out.check_ref = meter.reference_seconds(out.check) if out.check else 0.0
    return samples, rss_mb


def end_to_end(workload: str, seed: int, seconds: float, emit):
    setup = setup_seconds(workload, seed)
    samples, rss_mb = untraced(workload, seed, seconds)
    solve = [s.solve_ref for s in samples]
    cert = [s.solve_ref + s.check_ref for s in samples]
    metrics = {"setup_s": (_median(setup), "s"),
               "solve_s": (_median(solve), "s"),
               "time_to_cert_s": (_median(cert), "s"),
               "accuracy_digits": (_median([_digits(s.error) for s in samples]), "digits"),
               "peak_rss_mb": (rss_mb, "MB")}

    planner = workload != "torus_connect"
    emit("plan_s" if planner else "connect_s", [s.solve_s for s in samples], "s", solve)
    if planner:
        emit("verify_s", [s.check_s for s in samples], "s",
             [s.check_ref for s in samples])
    emit("time_to_cert_s", [s.solve_s + s.check_s for s in samples], "s", cert)
    if workload == "far_chain":
        # only completed, verified chains project the as-stated plan
        import inputs
        scale = inputs.FAR_TOTAL_HOPS / inputs.FAR_HOPS
        done = [s for s in samples if not s.failures]
        emit("far_projected_s", [(s.solve_s + s.check_s) * scale for s in done], "s",
             [(s.solve_ref + s.check_ref) * scale for s in done])
    errs = [s.error for s in samples if s.error is not None]
    emit("terminal_error" if planner else "hit_error", errs, "1")
    if planner:
        emit("verify_terminal_error",
             [s.check_error for s in samples if s.check_error is not None], "1")
    emit("accuracy_digits", [_digits(s.error) for s in samples], "digits")
    emit("setup_s", setup, "s")
    emit("peak_rss_mb", [rss_mb], "MB")
    failed = sum(1 for s in samples if s.failures)
    emit("failed_fraction", [failed / len(samples)], "1")
    record = {"samples": [{k: v for k, v in vars(s).items() if k != "result"}
                          for s in samples], "setup_s": setup}
    return metrics, len(samples), failed, record


def per_layer(workload: str, seed: int, emit):
    import workloads

    m, ref, out, tr = workloads.traced_run(workload, seed)
    if ref.digest != out.digest:
        out.failures.append("traced certificate bytes differ from the untraced ones")
    failures = ref.failures + out.failures
    units = {x["name"]: x["unit"] for x in _spec()["per_layer"]}
    metrics = {k: (float(v), units.get(k, "?")) for k, v in m.items()}
    for k, (v, unit) in metrics.items():
        emit(k, [v], unit)
    record = {"reference": {k: v for k, v in vars(ref).items() if k != "result"},
              "traced": {k: v for k, v in vars(out).items() if k != "result"},
              "spans": tr.spans}
    failed = int(bool(ref.failures)) + int(bool(out.failures))
    return metrics, 2, failed, record | {"failures": failures}


def run_one(args) -> int:
    try:
        import inputs  # noqa: F401  (imports the checkout's flowsteer)
    except ImportError as err:
        print(f"perfbench: cannot import flowsteer from {ROOT / 'src'}: {err}",
              file=sys.stderr)
        return 2
    spec = _spec()
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}", flush=True)
    env = environment()
    print("env " + " ".join(f"{k}={v!r}" for k, v in env.items()), flush=True)

    def emit(name, values, unit, reference=None):
        """One metric: median, tail and count; for timings also the median
        rescaled to the reference speed."""
        if not values:
            print(f"  {name:<28} n/a", flush=True)
            return
        tail = _tail(values)
        hi = f"p{tail[0]:.0f}={tail[1]:.6g}" if tail else "p_hi=n/a(<11)"
        ref = f" at_ref_speed={_median(reference):.6g}" if reference else ""
        print(f"  {name:<28} median={_median(values):.6g} {unit:<6} {hi} "
              f"n={len(values)}{ref}", flush=True)

    if args.trace:
        metrics, attempted, failed, record = per_layer(args.workload, args.seed, emit)
        wanted = [x["name"] for x in spec["per_layer"]]
    else:
        metrics, attempted, failed, record = end_to_end(
            args.workload, args.seed, args.seconds, emit)
        wanted = [x["name"] for x in spec["end_to_end"]]
    failures = record.get("failures") or [f for s in record.get("samples", [])
                                           for f in s["failures"]]
    for f in failures:
        print(f"  FAILED {f}", flush=True)
    complete = sorted(metrics) == sorted(wanted)
    if not (complete or failed):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match "
                           f"BENCHMARK.json {sorted(wanted)}")

    outdir = ROOT / ".perfbench_out"
    outdir.mkdir(exist_ok=True)
    with open(outdir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"env": env, "args": vars(args), "metrics": metrics} | record,
                  fh, indent=1, default=str)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}), flush=True)
    # a failed operation leaves layers unprobed: no complete result to report
    return 0 if complete else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, text=True, stdout=subprocess.PIPE)
            print(proc.stdout, end="", flush=True)
            lines = proc.stdout.strip().splitlines()
            try:
                correct = json.loads(lines[-1])["correct"]
            except (IndexError, ValueError, KeyError, TypeError):
                correct = False
            ok &= proc.returncode == 0 and correct is True
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
