"""Print the deterministic outputs of every benchmark pool, one line per unit.

    PYTHONPATH=src python3 tools/dump_outputs.py > outputs.txt

The ``ckv`` on ``PYTHONPATH`` is the one measured, so two source trees are
compared by running this once with each and comparing the two files with
``cmp``.  Each line is a unit's ``fingerprint(traced(unit))`` from
``bench/workloads.py``: every unit of each workload's pool at seed 11, and
of the theta_sweep pools at seeds 31 and 5 too.  Then come the generator's
scenarios, ``random_scenario(i, FuzzConfig(seed=20240817, kind=kind))`` for
i < 64 and both kinds, then ``FuzzReport.to_json()`` of the two
1000-instance acceptance campaigns (seed 20240817, kinds 1 and 2).  Last come
the reports of two campaigns with a planted fault, each run for both kinds,
so that the shrunk scenarios of their findings are compared too: every
``verifier._pair_tensor`` scaled by 1.001 (count 150, seed 4242), and
``verifier.casorati_bounds`` loosened to (-1e3, 1e3) (count 20, seed 7).  Each
fault is patched in here and undone after its campaigns; the source is never
edited.  Nothing under ``bench/`` is changed; the cli_verify scenario files
are written to a temporary directory.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402
from ckv import verifier  # noqa: E402
from ckv.fuzz import FuzzConfig, random_scenario, run_fuzz  # noqa: E402

POOLS = [(name, 11) for name in workloads.WORKLOADS] + [("theta_sweep", 31), ("theta_sweep", 5)]
ACCEPTANCE_SEED = 20240817
SCENARIOS = 64   # generated scenarios printed per kind
_pair_tensor = verifier._pair_tensor
# (name, patched verifier attribute, its stand-in, count, seed)
FORCED = [
    ("tensor_fault", "_pair_tensor", lambda sub: _pair_tensor(sub) * 1.001, 150, 4242),
    ("loose_bounds", "casorati_bounds", lambda sub: (-1e3, 1e3), 20, 7),
]


def main() -> int:
    print(f"ckv from {workloads.fuzz.__file__}", file=sys.stderr)
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        # a relative workdir keeps the scenario paths, and so the cli_verify
        # outputs, the same from run to run
        os.chdir(workdir)
        try:
            for name, seed in POOLS:
                kind = workloads.WORKLOADS[name]
                wl = kind(seed, kind.pool, Path("."))
                for i, unit in enumerate(wl.units):
                    print(name, seed, i, json.dumps(wl.fingerprint(wl.traced(unit))))
        finally:
            os.chdir(home)
    for kind in (1, 2):
        cfg = FuzzConfig(seed=ACCEPTANCE_SEED, kind=kind)
        for i in range(SCENARIOS):
            print("scenario", kind, i, json.dumps(random_scenario(i, cfg), sort_keys=True))
    for kind in (1, 2):
        report = run_fuzz(FuzzConfig(count=1000, seed=ACCEPTANCE_SEED, kind=kind))
        print("acceptance", kind, json.dumps(report.to_json()))
    for name, attribute, fault, count, seed in FORCED:
        with mock.patch.object(verifier, attribute, fault):
            for kind in (1, 2):
                report = run_fuzz(FuzzConfig(count=count, seed=seed, kind=kind))
                print("forced", name, kind, json.dumps(report.to_json()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
