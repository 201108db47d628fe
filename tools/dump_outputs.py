"""Print the deterministic outputs of every benchmark pool, one line per unit.

    PYTHONPATH=src python3 tools/dump_outputs.py > outputs.txt

The ``ckv`` on ``PYTHONPATH`` is the one measured, so two source trees are
compared by running this once with each and comparing the two files with
``cmp``.  Each line is a unit's ``fingerprint(traced(unit))`` from
``bench/workloads.py``: every unit of each workload's pool at seed 11, and
of the theta_sweep pools at seeds 31 and 5 too.  Then come the generator's
scenarios, ``random_scenario(i, FuzzConfig(seed=20240817, kind=kind))`` for
i < 64 and both kinds, then ``FuzzReport.to_json()`` of the two
1000-instance acceptance campaigns (seed 20240817, kinds 1 and 2).  Next come
the reports of two campaigns with a planted fault, each run for both kinds,
so that the shrunk scenarios of their findings are compared too: every
``verifier._pair_tensor`` scaled by 1.001 (count 150, seed 4242), and
``verifier.casorati_bounds`` loosened to (-1e3, 1e3) (count 20, seed 7).  Each
fault is patched in here and undone after its campaigns; the source is never
edited.  Last come the error paths: on instance 0 of a campaign of each kind
(``fuzz._random_parts``, seed 61), the exception type and message that
``verify`` and ``decide`` raise, as a JSON pair, for each request of
``_bad_requests`` and for every row of kind 1 on a ``cor32`` witness whose
sides overflow.  Nothing under ``bench/`` is changed; the cli_verify
scenario files are written to a temporary directory.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402
from ckv import verifier  # noqa: E402
from ckv.frames import Plane  # noqa: E402
from ckv.fuzz import FuzzConfig, _random_parts, random_scenario, run_fuzz  # noqa: E402
from ckv.submanifold import _attach_frame  # noqa: E402

POOLS = [(name, 11) for name in workloads.WORKLOADS] + [("theta_sweep", 31), ("theta_sweep", 5)]
ACCEPTANCE_SEED = 20240817
SCENARIOS = 64   # generated scenarios printed per kind
_pair_tensor = verifier._pair_tensor
# (name, patched verifier attribute, its stand-in, count, seed)
FORCED = [
    ("tensor_fault", "_pair_tensor", lambda sub: _pair_tensor(sub) * 1.001, 150, 4242),
    ("loose_bounds", "casorati_bounds", lambda sub: (-1e3, 1e3), 20, 7),
]
ERROR_SEED = 61


def _bad_requests(sub, X, kind):
    """(label, theorem id, argument, tol) of requests that ``verify`` and
    ``decide`` reject, on a point of the given kind with unit tangent X."""
    plane_id, x_id, k_id, cas_id = verifier.applicable_theorems(kind)[:4]
    n, tol = sub.n, verifier.DEFAULT_TOL
    normal = np.linalg.svd(sub.tangent)[2][n]   # a unit vector normal to the frame
    return [
        ("unknown_id", "5.1", None, tol),
        ("non_str_id", 3.1, None, tol),
        ("other_kind", verifier.applicable_theorems(3 - kind)[0], None, tol),
        ("missing_plane", plane_id, None, tol),
        ("missing_X", x_id, None, tol),
        ("non_unit_X", x_id, 2.0 * X, tol),
        ("non_tangent_X", x_id, normal, tol),
        ("short_X", x_id, X[:-1], tol),
        ("k_1", k_id, 1, tol),
        ("k_n_plus_1", k_id, n + 1, tol),
        ("k_float", k_id, 2.0, tol),
        ("k_bool", k_id, True, tol),
        ("tol_negative", cas_id, None, -1.0),
        ("tol_nan", cas_id, None, float("nan")),
        ("tol_bool", cas_id, None, True),
        ("tol_str", cas_id, None, "x"),
        ("plane_wrong_dim", plane_id, Plane(np.eye(n)[0], np.eye(n)[1]), tol),
    ]


def _raised(call) -> list:
    """[exception type, message] of what ``call()`` raises, or ["none", ""]."""
    try:
        call()
    except Exception as error:   # every request here is rejected
        return [type(error).__name__, str(error)]
    return ["none", ""]


def _error_lines():
    """Each rejected request's ``verify`` and ``decide`` error, one line each."""
    for kind in (1, 2):
        model, spec, _, hhat, X, frame = _random_parts(0, FuzzConfig(seed=ERROR_SEED, kind=kind))
        sub = _attach_frame(model, spec, frame, hhat)
        for label, tid, value, tol in _bad_requests(sub, X, kind):
            yield kind, label, tid, value, tol, sub
    sub = verifier.equality_instance("cor32", 3, {"h11": 1e200, "h22": 1e200})
    plane = Plane(sub.tangent[0], sub.tangent[1])
    for tid in verifier.THEOREMS_FIRST:
        value = {"plane": plane, "X": sub.tangent[0], "k": None}.get(verifier.THEOREMS[tid][1])
        yield 1, f"overflow_{tid}", tid, value, verifier.DEFAULT_TOL, sub


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
    with np.errstate(all="ignore"):
        for kind, label, tid, value, tol, sub in _error_lines():
            kwargs = {} if value is None else {verifier.THEOREMS[tid][1]: value}
            print("error", kind, label, "verify",
                  json.dumps(_raised(lambda: verifier.verify(sub, tid, tol=tol, **kwargs))))
            print("error", kind, label, "decide",
                  json.dumps(_raised(lambda: verifier.decide(sub, tid, value, tol))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
