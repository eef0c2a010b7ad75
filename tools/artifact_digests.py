"""sha256 of the artifacts a byte-identical change must keep.

    python3 tools/artifact_digests.py [--out digests.txt]

Plans and verifies input 0 of the benchmark's quickstart (seeds 0-2) and
far_chain (seeds 0-1) workloads, as ``perfbench/inputs.py`` builds them, and
runs its torus-connect fixture.  Prints one ``name sha256`` line for each of

* a plan's ``certificate.json``, ``control.json``, ``trajectory.csv`` and
  ``plotdata.csv`` as ``PlanResult.write_files`` writes them, and the
  ``repr`` of ``verify_plan``'s terminal error;
* the torus fixture's certificate and ``trajectory.csv`` as the CLI's
  ``torus-connect`` writes them.

Run it on two checkouts and compare the outputs, or save one checkout's
list with ``--out`` and run the other with ``--check`` on it, which prints
each artifact whose digest differs and exits 1 on any mismatch.  It imports
flowsteer from the ``src/`` of the checkout the script sits in; one run
takes about ten seconds on a 2-core x86-64 host.

    python3 tools/artifact_digests.py --check digests.txt
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))
# importing the benchmark's inputs must leave its directory as checked in
sys.dont_write_bytecode = True

import flowsteer as fs  # noqa: E402
from flowsteer import jsonio  # noqa: E402
from perfbench import inputs  # noqa: E402

PLAN_FILES = ("certificate.json", "control.json", "trajectory.csv", "plotdata.csv")
PLANS = (("quickstart", (0, 1, 2)), ("far_chain", (0, 1)))


def sha(data) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def digests():
    """(name, sha256) of every artifact, in a fixed order."""
    with tempfile.TemporaryDirectory() as tmp:
        for workload, seeds in PLANS:
            V = inputs.base_field(workload)
            for seed in seeds:
                res = fs.plan(V, inputs.CASES[workload](seed, 0).request)
                out = Path(tmp) / f"{workload}_{seed}"
                res.write_files(out)
                for name in PLAN_FILES:
                    yield f"{workload}/{seed}/{name}", sha((out / name).read_bytes())
                yield (f"{workload}/{seed}/verify_terminal_error",
                       sha(repr(fs.verify_plan(V, res).terminal_error)))
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
