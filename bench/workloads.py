"""The four benchmark workloads.

Each workload turns ``(seed, count)`` into ``count`` unit inputs before any
timing starts, runs one unit at a time (a closed loop with one unit in
flight), and checks every unit's output.  ``run`` is the end-to-end unit;
``traced`` is the unit the traced run measures (the same call, except for
``cli_verify``, whose spans can only be seen in-process).  ``fingerprint``
gives the bytes that must repeat exactly when a unit is replayed.

Why these four:

* ``campaign``: instances of ``run_fuzz``, kind 1 and kind 2 alternating,
  n and m drawn as in the acceptance campaign; the path of ``ckv fuzz``,
  dominated by the Casorati sphere search.
* ``near_equality``: the equality witnesses and small perturbations of them,
  with several nonzero normal directions; the same search on tied and
  degenerate optima where a missed optimum would flip a verdict.
* ``theta_sweep``: Theorem 3.4/4.3 at every k from 2 to n-1, the only path
  into the grid and multistart Theta_k modes; no Casorati search.
* ``cli_verify``: ``ckv verify FILE --json`` as a subprocess per unit, the
  only workload where interpreter start, imports and cold caches show.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from ckv import cli, fuzz, scenario, verifier
from ckv.frames import Plane

import program

# Acceptance bounds of the fuzz campaign and of the equality witnesses.
SLACK_TOL = 1e-8
CROSS_TOL = 1e-9
Q_TOL = 1e-8
WITNESS_TOL = {"3.1": 1e-8, "3.5i": 1e-6, "3.5ii": 1e-6}


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _cross_problem(cc) -> str | None:
    if not cc.max_residual < CROSS_TOL:
        return f"cross residual {cc.max_residual:.3e}"
    if cc.q_min < -Q_TOL:
        return f"Q = {cc.q_min:.3e}"
    return None


class Workload:
    """Attributes each workload sets: how many units its input pool holds,
    how many run untimed before measuring, the fewest an end-to-end run
    times (at least 100, so that p90 has 10 samples beyond it), how many are
    replayed to check byte-identical outputs (end-to-end run), and over how
    many the per-layer counts are taken and replayed (traced run)."""

    name: str
    pool = 64
    warmup = 4
    min_units = 100
    replays = 16
    count_window = 16

    def probe_argv(self, seed: int) -> list[str]:
        """A fresh process that completes this workload's first unit."""
        return [sys.executable, str(Path(__file__).with_name("probe.py")), self.name, str(seed)]


class Campaign(Workload):
    name = "campaign"
    pool = 2048
    count_window = 40

    def __init__(self, seed: int, count: int, workdir: Path):
        rng = np.random.default_rng([seed, 1])
        self.units = [(1 + j % 2, int(s)) for j, s in enumerate(rng.integers(0, 2 ** 62, count))]

    def run(self, unit):
        kind, seed = unit
        return fuzz.run_fuzz(fuzz.FuzzConfig(count=1, seed=seed, kind=kind))

    traced = run

    def check(self, unit, report) -> str | None:
        if report.findings:
            return f"{len(report.findings)} findings"
        worst = min(report.min_slack.values())
        if worst < -SLACK_TOL:
            return f"slack {worst:.3e}"
        if not report.max_cross_residual < CROSS_TOL:
            return f"cross residual {report.max_cross_residual:.3e}"
        if report.min_q < -Q_TOL:
            return f"Q = {report.min_q:.3e}"
        return None

    def fingerprint(self, report) -> str:
        return report.to_json()


class NearEquality(Workload):
    """Witness units build the point with ``equality_instance``; perturbed
    units parse a scenario whose h is a witness's h plus a small symmetric
    perturbation in every normal slice."""

    name = "near_equality"
    pool = 1200   # about as many units as one run does, so that none repeats
    warmup = 6
    replays = 18
    count_window = 36
    CASES = [(case, n) for case in ("cor32", "thm35_i", "thm35_ii") for n in (3, 4)]

    def __init__(self, seed: int, count: int, workdir: Path):
        rng = np.random.default_rng([seed, 2])
        self.units = []
        for j in range(count):
            case, n = self.CASES[j % len(self.CASES)]
            if case == "cor32":
                params = {"h11": rng.uniform(0.5, 2.0), "h22": rng.uniform(0.5, 2.0),
                          "b1": rng.uniform(-1.0, 1.0), "b2": rng.uniform(-1.0, 1.0)}
            else:
                params = {"a": rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])}
            rotation = int(rng.integers(1, 2 ** 31))
            witness = ("witness", case, n, params, rotation)
            if (j // len(self.CASES)) % 3 == 0:
                self.units.append(witness)
                continue
            sub = verifier.equality_instance(case, n, params, seed=rotation)
            noise = rng.standard_normal(sub.hhat.shape)
            noise = (noise + np.transpose(noise, (0, 2, 1))) / 2.0
            eps = 10.0 ** rng.uniform(-8.0, -2.0)
            hhat = sub.hhat + eps * noise / np.linalg.norm(noise)
            data = scenario.scenario_from_parts(sub.model, sub.spec, sub.tangent, hhat)
            self.units.append(("perturbed", case, n, data, eps))

    def run(self, unit):
        if unit[0] == "witness":
            _, case, n, params, rotation = unit
            sub = verifier.equality_instance(case, n, params, seed=rotation)
        else:
            sub = scenario.parse_scenario(unit[3]).sub
        plane = Plane(sub.tangent[0], sub.tangent[1])
        verdicts = [verifier.verify(sub, tid, plane=plane, X=sub.tangent[0], k=sub.n)
                    for tid in verifier.THEOREMS_FIRST]
        return verdicts, verifier.cross_check(sub)

    traced = run

    def check(self, unit, result) -> str | None:
        verdicts, cc = result
        for v in verdicts:
            if not v.holds:
                return f"{v.theorem_id} violated, slack {v.slack:.3e}"
        if unit[0] == "witness":
            tid = verifier.EQUALITY_THEOREM[unit[1]]
            slack = next(v.slack for v in verdicts if v.theorem_id == tid)
            if not abs(slack) <= WITNESS_TOL[tid]:
                return f"{unit[1]} witness slack {slack:.3e} for {tid}"
        return _cross_problem(cc)

    def fingerprint(self, result) -> str:
        verdicts, cc = result
        return _dumps([[v.to_dict() for v in verdicts], cc.residuals, cc.q_min])


class ThetaSweep(Workload):
    """Units cycle through (kind, n) so that three in four have n = 3 (the
    k = 2 grid mode) and one in four n = 4 (multistart at k = 2 and 3): the
    median stays inside the grid cluster and p90 inside the multistart one,
    instead of jumping between them with the seed."""

    name = "theta_sweep"
    pool = 320
    warmup = 7
    min_units = 240   # p90 then rests on about 60 multistart units
    replays = 8
    count_window = 8
    PATTERN = [(1, 3), (2, 3), (1, 3), (2, 3), (1, 3), (2, 3), (1, 4), (2, 4)]

    def __init__(self, seed: int, count: int, workdir: Path):
        self.units = []
        for j in range(count):
            kind, n = self.PATTERN[j % len(self.PATTERN)]
            cfg = fuzz.FuzzConfig(seed=seed, kind=kind, n=n)
            self.units.append((kind, n, fuzz.random_scenario(j, cfg)))

    def run(self, unit):
        kind, n, data = unit
        sub = scenario.parse_scenario(data).sub
        tid = "3.4" if kind == 1 else "4.3"
        return [verifier.verify(sub, tid, k=k) for k in range(2, n)]

    traced = run

    def check(self, unit, verdicts) -> str | None:
        n = unit[1]
        for v in verdicts:
            diag = v.diagnostics
            if not v.holds:
                return f"{v.theorem_id} k={diag['k']} violated, slack {v.slack:.3e}"
            expected = "grid" if n == 3 else "multistart"
            if diag["theta_mode"] != expected:
                return f"k={diag['k']}: mode {diag['theta_mode']}, expected {expected}"
            if expected == "multistart":
                missing = {"theta_exact_k_n", "theta_advisory", "identity_residual",
                           "cauchy_schwarz_slack"} - diag.keys()
                if missing:
                    return f"k={diag['k']}: exact-chain diagnostics missing {sorted(missing)}"
                if not diag["identity_residual"] < CROSS_TOL:
                    return f"k={diag['k']}: identity residual {diag['identity_residual']:.3e}"
        return None

    def fingerprint(self, verdicts) -> str:
        return _dumps([v.to_dict() for v in verdicts])


def _main_in_process(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


class CliVerify(Workload):
    """A pool of scenario files written before timing: random instances of
    both kinds and the ``ckv case`` witnesses.  Each file's expected output is
    ``ckv.cli.main`` run in-process on it."""

    name = "cli_verify"
    pool = 22
    warmup = 2
    min_units = 160   # subprocess times track the host-speed kernel less closely
    replays = 2
    count_window = 22
    POOL_RANDOM = 16

    def __init__(self, seed: int, count: int, workdir: Path):
        rng = np.random.default_rng([seed, 4])
        pool_dir = workdir / f"cli-pool-{seed}"
        pool_dir.mkdir(parents=True, exist_ok=True)
        files = []
        for j in range(min(count, self.POOL_RANDOM)):
            path = pool_dir / f"random_{j:02d}.json"
            cfg = fuzz.FuzzConfig(seed=seed, kind=1 + j % 2)
            scenario.save_scenario(path, fuzz.random_scenario(j, cfg))
            files.append(path)
        for case, n in NearEquality.CASES[: max(0, count - len(files))]:
            path = pool_dir / f"case_{case}_n{n}.json"
            params = ("h11=%r,h22=%r" % tuple(float(x) for x in rng.uniform(0.5, 2.0, 2))
                      if case == "cor32" else "a=%r" % float(rng.uniform(0.5, 2.0)))
            # A failing witness still writes its file; verifying it then fails the unit.
            _main_in_process(["case", "--id", case, "--n", str(n), "--params", params,
                              "--seed", str(int(rng.integers(1, 2 ** 31))), "--out", str(path)])
            files.append(path)
        order = rng.permutation(len(files))
        self.units = [(str(files[i]), _main_in_process(["verify", str(files[i]), "--json"]))
                      for i in order]
        self.env = program.child_env()

    def probe_argv(self, seed: int) -> list[str]:
        return [sys.executable, "-m", "ckv.cli", "verify", self.units[0][0], "--json"]

    def run(self, unit):
        proc = subprocess.run([sys.executable, "-m", "ckv.cli", "verify", unit[0], "--json"],
                              env=self.env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, check=False)
        return proc.returncode, proc.stdout

    def traced(self, unit):
        return _main_in_process(["verify", unit[0], "--json"])

    def check(self, unit, result) -> str | None:
        code, stdout = result
        if code != 0:
            return f"{unit[0]}: exit code {code}"
        if stdout != unit[1][1]:
            return f"{unit[0]}: stdout differs from the in-process verdicts"
        return None

    def fingerprint(self, result) -> str:
        return result[1]


WORKLOADS = {w.name: w for w in (Campaign, NearEquality, ThetaSweep, CliVerify)}
