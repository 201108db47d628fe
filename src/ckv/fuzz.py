"""Seeded fuzz campaigns over random structure-compatible instances.

Each instance draws the curvature parameters and connection parameters from
[-3, 3], the norms of P, D and the second fundamental form from [0, 2],
n from {3, 4} and m from {2, 3}, attaches a random tangent frame, and runs
every applicable inequality plus the expansion cross-checks.  Campaigns are
deterministic: instance i of a campaign is derived from the seed pair
(seed, i), scenarios are serialized with explicit matrices, and reports carry
the seed and the sampling-layout version.  Timing never enters a report, so
identical flags and seed produce byte-identical output.

A finding (an inequality violated beyond tolerance, a cross-check residual
above 1e-9, the Casorati certificate's two included, or a negative Q, the
certified 3.5i/4.4i slack) is shrunk by greedy parameter zeroing before being
reported: each zeroable parameter group is zeroed in turn and the zeroing is
kept whenever the failure survives.  An inequality finding carries its
failing check, so ``ckv verify`` replays it.

The 3.5/4.4 checks take ``casorati_verdict``: the certified slack alone
decides, and no Casorati sphere search runs in a campaign.  So the report's
``min_slack`` for 3.5/4.4 and its ``min_q`` are certified slacks.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .connections import first_connection, second_connection
from .contact import random_point, validate_structure
from .frames import Plane, orthonormalize
from .scenario import parse_scenario, scenario_from_parts
from .spheresearch import LAYOUT_VERSION
from .submanifold import SubmanifoldPoint
from .verifier import (
    CROSS_TOL,
    DEFAULT_TOL,
    TAKES_K,
    TAKES_PLANE,
    TAKES_X,
    applicable_theorems,
    casorati_verdict,
    cross_check,
    verify,
)

__all__ = ["FuzzConfig", "FuzzReport", "run_fuzz", "DEFAULT_SEED"]

DEFAULT_SEED = 20240817


@dataclass(frozen=True)
class FuzzConfig:
    count: int = 100
    seed: int = DEFAULT_SEED
    kind: int = 1
    n: int | None = None   # None: draw from {3, 4}
    m: int | None = None   # None: draw from {2, 3}
    tol: float = DEFAULT_TOL


@dataclass
class FuzzReport:
    config: FuzzConfig
    instances: int = 0
    checks_run: int = 0
    findings: list = field(default_factory=list)
    min_slack: dict = field(default_factory=dict)
    max_cross_residual: float | None = None   # None until a cross check runs
    min_q: float | None = None
    min_cauchy_schwarz: float | None = None

    def to_dict(self) -> dict:
        return {
            "config": asdict(self.config),
            "provenance": {"seed": self.config.seed, "layout_version": LAYOUT_VERSION},
            "summary": {
                "instances": self.instances,
                "checks_run": self.checks_run,
                "findings": len(self.findings),
                "min_slack": dict(sorted(self.min_slack.items())),
                "max_cross_residual": self.max_cross_residual,
                "min_q": self.min_q,
                "min_cauchy_schwarz": self.min_cauchy_schwarz,
            },
            "findings": self.findings,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def _scaled_norm(rng, shape, cap: float) -> np.ndarray:
    arr = rng.standard_normal(shape)
    norm = np.sqrt(arr.ravel() @ arr.ravel())
    if norm < 1e-12:
        return np.zeros(shape)
    return arr * (rng.uniform(0.0, cap) / norm)


def random_scenario(index: int, cfg: FuzzConfig) -> dict:
    """Deterministic scenario dict for instance ``index`` of a campaign."""
    rng = np.random.default_rng([cfg.seed, index])
    m = cfg.m if cfg.m is not None else int(rng.choice([2, 3]))
    n = cfg.n if cfg.n is not None else int(rng.choice([3, 4]))
    d = 2 * m + 1
    kappa, mu_contact, c = rng.uniform(-3.0, 3.0, 3)

    model = random_point(
        m, float(kappa), float(mu_contact), float(c),
        seed=int(rng.integers(0, 2 ** 62)),
        hprime_scale=float(rng.uniform(0.0, 1.0)),
    )

    tangent = rng.standard_normal((n, d))
    frame = orthonormalize(tangent)
    roll = rng.uniform()
    if roll < 0.2:
        P = np.zeros(d)
    elif roll < 0.4:
        # tangent P exercises the h = hhat reduction of the equality analyses
        P = _scaled_norm(rng, n, 2.0) @ frame
    else:
        P = _scaled_norm(rng, d, 2.0)
    D = _scaled_norm(rng, (d, d), 2.0)

    p = d - n
    hhat = rng.standard_normal((p, n, n))
    hhat = (hhat + np.transpose(hhat, (0, 2, 1))) / 2.0
    norm = np.sqrt(hhat.ravel() @ hhat.ravel())
    if norm > 1e-12:
        hhat *= rng.uniform(0.0, 2.0) / norm

    x_rand = rng.standard_normal(n)
    x_rand /= np.sqrt(x_rand @ x_rand)

    if cfg.kind == 1:
        spec = first_connection(
            float(rng.uniform(-3.0, 3.0)), float(rng.uniform(-3.0, 3.0)), P, D)
    else:
        spec = second_connection(
            float(rng.uniform(-3.0, 3.0)), float(rng.uniform(-3.0, 3.0)), P, D)

    data = scenario_from_parts(model, spec, tangent, hhat)
    data["checks"] = {"tol": cfg.tol, "X": (x_rand @ frame).tolist()}
    return data


def _checks_for(sub: SubmanifoldPoint, raw: dict, kind: int) -> list[dict]:
    """The concrete check list run on each instance."""
    n = sub.n
    checks: list[dict] = []
    fam = applicable_theorems(kind)
    planes = [(0, 1), (1, 2)]
    xs = [sub.tangent[0].tolist(), raw["checks"]["X"]]
    for tid in fam:
        if tid in TAKES_PLANE:
            for pair in planes:
                checks.append({"theorem": tid, "plane": list(pair)})
        elif tid in TAKES_X:
            for x in xs:
                checks.append({"theorem": tid, "X": list(x)})
        elif tid in TAKES_K:
            checks.append({"theorem": tid, "k": n})
        else:
            checks.append({"theorem": tid})
    return checks


def _run_check(sub: SubmanifoldPoint, check: dict, tol: float):
    """``verify`` of one check; the Casorati bounds take ``casorati_verdict``,
    which runs no search."""
    tid = check["theorem"]
    if tid not in TAKES_PLANE | TAKES_X | TAKES_K:
        return casorati_verdict(sub, tid, tol)
    plane = None
    if check.get("plane") is not None:
        i, j = check["plane"]
        plane = Plane(sub.tangent[i], sub.tangent[j])
    X = None
    if check.get("X") is not None:
        X = np.asarray(check["X"], float)  # ambient vector inside the tangent span
    return verify(sub, tid, plane=plane, X=X, k=check.get("k"), tol=tol)


def _zeroing_candidates(kind: int) -> list[tuple[str, ...]]:
    conn = ("lambda1", "lambda2") if kind == 1 else ("a", "b")
    return [
        ("connection", conn[0]),
        ("connection", conn[1]),
        ("connection", "P"),
        ("connection", "D"),
        ("ambient", "hprime"),
        ("submanifold", "hhat"),
        ("ambient", "mu_contact"),
    ]


def _zeroed(data: dict, path: tuple[str, ...]) -> dict:
    out = json.loads(json.dumps(data))
    section, key = path
    if key not in out.get(section, {}):
        return out
    value = out[section][key]
    if isinstance(value, list):
        out[section][key] = (np.asarray(value, float) * 0.0).tolist()
    else:
        out[section][key] = 0.0
    return out


def _still_fails(data: dict, check: dict, tol: float) -> bool:
    try:
        parsed = parse_scenario(data)
    except Exception:
        return False
    try:
        if "theorem" in check:
            return not _run_check(parsed.sub, check, tol).holds
        return not cross_check(parsed.sub).ok()
    except Exception:
        return False


def minimize_finding(data: dict, check: dict, kind: int, tol: float) -> dict:
    """Greedy parameter zeroing that preserves the failure; an inequality
    finding gets the failing check as its ``checks`` block."""
    current = data
    for path in _zeroing_candidates(kind):
        candidate = _zeroed(current, path)
        if _still_fails(candidate, check, tol):
            current = candidate
    if "theorem" in check:
        replay = {key: value for key, value in check.items() if key != "theorem"}
        current = dict(current, checks={"theorems": [check["theorem"]], "tol": tol, **replay})
    return current


def _fold(pick, current: float | None, value: float) -> float:
    # a NaN wins: Python's max and min keep one only as their first argument
    return value if current is None or np.isnan(value) else pick(current, value)


def run_fuzz(cfg: FuzzConfig) -> FuzzReport:
    """Run a deterministic campaign; see the module docstring."""
    report = FuzzReport(config=cfg)
    for index in range(cfg.count):
        data = random_scenario(index, cfg)
        parsed = parse_scenario(data)
        sub = parsed.sub
        report.instances += 1

        vrep = validate_structure(sub.model)
        if not vrep.passed:
            report.findings.append({
                "instance": index,
                "check": {"validation": [c.name for c in vrep.checks if not c.passed]},
                "scenario": data,
            })
            continue

        for check in _checks_for(sub, data, cfg.kind):
            verdict = _run_check(sub, check, cfg.tol)
            report.checks_run += 1
            tid = check["theorem"]
            report.min_slack[tid] = _fold(min, report.min_slack.get(tid), verdict.slack)
            if not verdict.holds:
                minimized = minimize_finding(data, check, cfg.kind, cfg.tol)
                report.findings.append({"instance": index, "check": check,
                                        "slack": verdict.slack, "scenario": minimized})

        cc = cross_check(sub)
        report.checks_run += 1
        report.max_cross_residual = _fold(max, report.max_cross_residual, cc.max_residual)
        report.min_q = _fold(min, report.min_q, cc.q_min)
        report.min_cauchy_schwarz = _fold(min, report.min_cauchy_schwarz, cc.cauchy_schwarz_slack)
        if not cc.ok():
            check = {"cross_check": {k: v for k, v in cc.residuals.items() if v > CROSS_TOL},
                     "q_min": cc.q_min}
            minimized = minimize_finding(data, {"cross_check": True}, cfg.kind, cfg.tol)
            report.findings.append({
                "instance": index,
                "check": check,
                "scenario": minimized,
            })
    return report
