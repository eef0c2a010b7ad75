"""Time one benchmark set-up in a fresh process and print it in seconds.

    python3 perfbench/setup_probe.py <workload> <seed>

Set-up is importing flowsteer and building the workload's fields and
requests (for far_chain including its waypoint self-check).  Drawing the
far_chain geometry is input generation and is not timed.
"""

import time

_start = time.perf_counter()

import sys  # noqa: E402

import inputs  # noqa: E402

_imported = time.perf_counter()

if __name__ == "__main__":
    workload, seed = sys.argv[1], int(sys.argv[2])
    geometry = inputs.far_geometry(seed, 0) if workload == "far_chain" else None
    t0 = time.perf_counter()
    inputs.base_field(workload)
    if geometry is None:
        inputs.CASES[workload](seed, 0)
    else:
        inputs.far_chain(seed, 0, geometry)
    print(_imported - _start + time.perf_counter() - t0)
