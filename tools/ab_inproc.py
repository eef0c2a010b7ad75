"""Two checkouts timed call by call in one process.

    python3 tools/ab_inproc.py OTHER_CHECKOUT [--repeats 20]

Copies the ``src/flowsteer`` of this checkout and of OTHER_CHECKOUT into a
temporary directory as two packages, ``flowsteer_this`` and
``flowsteer_other`` (flowsteer imports itself relatively, so each copy runs
its own code), and builds input 0, seed 0, of the benchmark's far_chain,
quickstart and torus_connect workloads for each.  Then, ``--repeats``
times, it times on each input and on each side in turn, the side that goes
first alternating:

* ``plan``: ``plan`` of a planner input, in seconds;
* ``verify``: ``verify_plan`` of that side's plan, in seconds;
* ``values``: one ``ControlSchedule.values`` call on 4,000 nodes of the
  plan's trajectory, spread as ``verify_plan`` spreads its samples, on a
  fresh reload of the schedule from its document as ``verify_plan`` makes
  it, in milliseconds;
* ``connect``: ``connect`` of the torus fixture, in seconds.

It prints one line per input, operation and side with the minimum and the
median, and the other side's medians over this side's.  Timings taken in
separate processes spread too widely on a shared host to settle a
difference of a few percent; interleaved in one process, both sides see
the same host.  One BLAS thread.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import importlib  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))
sys.dont_write_bytecode = True

from perfbench import inputs  # noqa: E402

SAMPLES = 4000
SIDES = ("this", "other")
UNITS = {"plan": ("s", 1.0), "verify": ("s", 1.0), "values": ("ms", 1e3),
         "connect": ("s", 1.0)}


def load(checkouts, into: Path) -> dict:
    """Each side's flowsteer, imported from its copy under ``into``."""
    sys.path.insert(0, str(into))
    pkgs = {}
    for side, checkout in zip(SIDES, checkouts):
        name = f"flowsteer_{side}"
        shutil.copytree(Path(checkout) / "src" / "flowsteer", into / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        pkgs[side] = importlib.import_module(name)
    return pkgs


def rebuilt(obj, pkg):
    """``obj`` with every dataclass of this checkout's flowsteer in it
    rebuilt from ``pkg``'s class of the same module and name."""
    if not dataclasses.is_dataclass(obj) or isinstance(obj, type):
        return obj
    module = type(obj).__module__.replace("flowsteer", pkg.__name__, 1)
    cls = getattr(importlib.import_module(module), type(obj).__name__)
    return cls(**{f.name: rebuilt(getattr(obj, f.name), pkg)
                  for f in dataclasses.fields(obj) if f.init})


def operations(pkg, case):
    """The timed calls of one side on one input: name and a thunk each."""
    if isinstance(case, inputs.TorusCase):
        V = pkg.build_field(inputs.base_field("torus_connect").descriptor)
        budgets = rebuilt(case.budgets, pkg)
        return {"connect": lambda: pkg.connect(V, case.p, case.q, case.eps, budgets)}
    request = rebuilt(case.request, pkg)
    V = pkg.builtin_field("cellular")
    planned = pkg.plan(V, request)
    ts, xs = pkg.planner._audit_nodes(planned.trajectory, SAMPLES)
    document = planned.control._document()

    def values():
        back = pkg.ControlSchedule.from_json(document)
        start = time.perf_counter()
        back.values(ts, xs)
        return time.perf_counter() - start

    return {"plan": lambda: pkg.plan(V, request),
            "verify": lambda: pkg.verify_plan(V, planned),
            "values": values}


def timed(thunk) -> float:
    """Seconds of one call of ``thunk``, or the seconds it returns when it
    times its own part of the call."""
    start = time.perf_counter()
    own = thunk()
    return own if isinstance(own, float) else time.perf_counter() - start


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("other", help="the checkout to compare this one with")
    ap.add_argument("--repeats", type=int, default=20)
    args = ap.parse_args(argv)
    cases = {name: inputs.CASES[name](0, 0)
             for name in ("far_chain", "quickstart", "torus_connect")}
    with tempfile.TemporaryDirectory() as tmp:
        pkgs = load((ROOT, args.other), Path(tmp))
        ops = {(case, side): operations(pkg, inp)
               for case, inp in cases.items() for side, pkg in pkgs.items()}
        names = [(case, name) for case in cases for name in ops[case, SIDES[0]]]
        runs = {(case, name, side): [] for case, name in names for side in SIDES}
        for r in range(args.repeats):
            for case, name in names:
                for side in SIDES[::1 if r % 2 == 0 else -1]:
                    runs[case, name, side].append(timed(ops[case, side][name]))
    for case, name in names:
        unit, scale = UNITS[name]
        this, other = (runs[case, name, side] for side in SIDES)
        for side, xs in zip(SIDES, (this, other)):
            print(f"{case:13s} {name:7s} {side:5s} min {min(xs) * scale:9.4f} {unit:2s}"
                  f" median {statistics.median(xs) * scale:9.4f} {unit}")
        print(f"{case:13s} {name:7s} other/this median "
              f"{statistics.median(other) / statistics.median(this):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
