"""Set-up probe: a fresh interpreter imports ckv, builds the first unit of a
workload, runs and checks it, and prints one line as soon as it is done.

    python3 bench/probe.py WORKLOAD SEED
"""

import sys

import program

program.load()

import workloads  # noqa: E402  (needs the program on sys.path)

name, seed = sys.argv[1], int(sys.argv[2])
wl = workloads.WORKLOADS[name](seed, 1, program.ROOT / ".bench_out")
unit = wl.units[0]
problem = wl.check(unit, wl.run(unit))
print("done" if problem is None else f"failed: {problem}", flush=True)
sys.exit(problem is not None)
