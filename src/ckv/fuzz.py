"""Seeded fuzz campaigns over random structure-compatible instances.

Each instance draws the curvature parameters and connection parameters from
[-3, 3], the norms of P, D and the second fundamental form from [0, 2],
n from {3, 4} and m from {2, 3}, attaches a random tangent frame, and runs
every applicable inequality plus the expansion cross-checks.  Campaigns are
deterministic: instance i of a campaign is derived from the seed pair
(seed, i), and reports carry the seed and the sampling-layout version.
Timing never enters a report, so identical flags and seed produce
byte-identical output.

An instance is attached from the arrays it was generated with
(``_random_parts``), frame included, with no scenario dict in between.

A finding (an inequality violated beyond tolerance, a cross-check residual
not below 1e-9, the Casorati certificate's two included, a negative Q, the
certified 3.5i/4.4i slack, or a negative Cauchy-Schwarz slack) is shrunk on
those arrays by greedy parameter zeroing: each group of
``_zeroing_candidates`` is zeroed in turn, the candidate is attached with the
instance's frame and checked as the campaign checked it, and the zeroing is
kept whenever the failure survives.  Its scenario (explicit matrices,
``scenario_from_parts``) is written once, at the end, and parses back to
bit-identical arrays, so ``ckv verify`` replays the point the shrinker last
kept.  An inequality finding carries its failing check as the scenario's
checks block.

Every check takes ``verifier.decide``, the verdict without ``verify``'s
report diagnostics (plane invariants, equality-shape matches, the kernel
test, the Casorati estimate): a campaign computes lhs, rhs, slack and holds,
bit for bit those of ``verify``, and nothing it throws away.  For 3.5/4.4
the certified slack alone decides, and ``submanifold.casorati``'s attained
values, an inner estimate of the C(L) extrema, are not computed.  So the
report's ``min_slack`` for 3.5/4.4 and its ``min_q`` are certified slacks.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .connections import PARAMETERS, ConnectionSpec, _kind
from .contact import random_point, validate_structure
from .errors import GeometryError
from .frames import Plane, as_integer, as_real, orthonormalize
from .scenario import scenario_from_parts
from .spheresearch import LAYOUT_VERSION
from .submanifold import SubmanifoldPoint, _attach_frame
from .verifier import (
    DEFAULT_TOL,
    THEOREMS,
    applicable_theorems,
    cross_check,
    decide,
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


def _random_parts(index: int, cfg: FuzzConfig):
    """The arrays of instance ``index`` of a campaign, drawn from the seed
    pair (seed, index): (model, spec, raw tangent, hhat, X, frame), where
    frame is the ``orthonormalize`` of the raw tangent and X a unit vector
    in its span."""
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

    spec = ConnectionSpec(cfg.kind, P, D, **{
        name: float(rng.uniform(-3.0, 3.0)) for name in PARAMETERS[cfg.kind]})
    return model, spec, tangent, hhat, x_rand @ frame, frame


def random_scenario(index: int, cfg: FuzzConfig) -> dict:
    """Deterministic scenario dict for instance ``index`` of a campaign: the
    arrays of ``_random_parts`` as explicit matrices, X and tol as checks."""
    return _scenario(*_random_parts(index, cfg)[:5], {}, cfg.tol)


def _scenario(model, spec, tangent, hhat, X: np.ndarray, check: dict, tol: float) -> dict:
    """The scenario of an instance's arrays: its checks block is tol with the
    failing ``check`` of an inequality finding, else with X."""
    if "theorem" in check:
        replay = {key: value for key, value in check.items() if key != "theorem"}
        checks = {"theorems": [check["theorem"]], "tol": tol, **replay}
    else:
        checks = {"tol": tol, "X": X.tolist()}
    return scenario_from_parts(model, spec, tangent, hhat, checks)


def _checks_for(sub: SubmanifoldPoint, X: np.ndarray, kind: int) -> list[dict]:
    """The check list run on each instance: one per value of a theorem's argument."""
    values = {"plane": ([0, 1], [1, 2]), "X": (sub.tangent[0].tolist(), X.tolist()),
              "k": (sub.n,)}
    checks: list[dict] = []
    for tid in applicable_theorems(kind):
        takes = THEOREMS[tid][1]
        if takes is None:
            checks.append({"theorem": tid})
        else:
            checks += [{"theorem": tid, takes: value} for value in values[takes]]
    return checks


def _run_check(sub: SubmanifoldPoint, check: dict, tol: float):
    """``verifier.decide`` of one check, its plane given as frame rows: the
    verdict alone, with none of ``verify``'s report diagnostics."""
    tid = check["theorem"]
    value = check.get(THEOREMS[tid][1])
    if "plane" in check:
        value = Plane(*sub.tangent[value])
    return decide(sub, tid, value, tol)


def _zeroing_candidates(kind: int) -> list[tuple[str, ...]]:
    """The shrinker's parameter groups, in the order it zeroes them, each as
    its scenario field."""
    return [
        *(("connection", name) for name in PARAMETERS[kind]),
        ("connection", "P"),
        ("connection", "D"),
        ("ambient", "hprime"),
        ("submanifold", "hhat"),
        ("ambient", "mu_contact"),
    ]


def _zeroed(point: dict, path: tuple[str, str]) -> dict:
    """``point`` (model, spec and hhat) with the group at scenario field
    ``path`` zeroed: an array times 0.0, so -0.0 stays -0.0, a scalar 0.0."""
    section, key = path
    if section == "submanifold":
        return {**point, key: point[key] * 0.0}
    name = "model" if section == "ambient" else "spec"
    value = getattr(point[name], key)
    value = value * 0.0 if isinstance(value, np.ndarray) else 0.0
    return {**point, name: replace(point[name], **{key: value})}


def _still_fails(point: dict, frame: np.ndarray, check: dict, tol: float) -> bool:
    """Whether ``check`` fails on ``point`` attached with ``frame``, as the
    campaign attached its instance; a point rejected as input (ValueError,
    numpy's LinAlgError included, or GeometryError) does not fail."""
    try:
        sub = _attach_frame(point["model"], point["spec"], frame, point["hhat"])
        if "theorem" in check:
            return not _run_check(sub, check, tol).holds
        return not cross_check(sub).ok()
    except (ValueError, GeometryError):
        return False


def minimize_finding(model, spec, tangent, hhat, X: np.ndarray, frame: np.ndarray,
                     check: dict, tol: float) -> dict:
    """The scenario of a finding on the instance's arrays (``_random_parts``),
    after greedy zeroing: each group of ``_zeroing_candidates`` is zeroed in
    turn and kept whenever ``check`` (a ``cross_check`` one when it names no
    theorem) still fails on the point attached with ``frame``.  Nothing is
    serialized until the one ``scenario_from_parts`` at the end; an
    inequality finding gets the failing check as its checks block."""
    point = {"model": model, "spec": spec, "hhat": hhat}
    for path in _zeroing_candidates(spec.kind):
        candidate = _zeroed(point, path)
        if _still_fails(candidate, frame, check, tol):
            point = candidate
    return _scenario(point["model"], point["spec"], tangent, point["hhat"], X, check, tol)


def _fold(pick, current: float | None, value: float) -> float:
    # a NaN wins: Python's max and min keep one only as their first argument
    return value if current is None or np.isnan(value) else pick(current, value)


def _check_config(cfg: FuzzConfig) -> FuzzConfig:
    """``cfg`` as the campaign runs it, every field checked by the
    ``frames`` validators and converted to a Python int or float, or a
    ValueError naming the first field no campaign runs with: a count or
    seed not an integer >= 0 (numpy's integers pass, a bool does not), a
    kind other than 1 or 2 (``connections._kind``), a tol not a finite
    number >= 0, an m not an integer >= 2, or an n not an integer with
    3 <= n <= 2m (any drawn m)."""
    count, seed = as_integer(cfg.count, "count", 0), as_integer(cfg.seed, "seed", 0)
    kind, tol = _kind(cfg.kind), as_real(cfg.tol, "tol", 0.0)
    m = None if cfg.m is None else as_integer(cfg.m, "m", 2)
    n = None if cfg.n is None else as_integer(cfg.n, "n", 3)
    if n is not None and n > 2 * (m or 2):
        raise ValueError(f"n must satisfy 3 <= n <= 2m = {2 * (m or 2)}, got {n}")
    return FuzzConfig(count, seed, kind, n, m, tol)


def run_fuzz(cfg: FuzzConfig) -> FuzzReport:
    """Run a deterministic campaign; see the module docstring.  The report
    carries the config as ``_check_config`` returns it."""
    cfg = _check_config(cfg)
    report = FuzzReport(config=cfg)
    for index in range(cfg.count):
        model, spec, _, hhat, X, frame = parts = _random_parts(index, cfg)
        sub = _attach_frame(model, spec, frame, hhat)
        report.instances += 1

        vrep = validate_structure(sub.model)
        if not vrep.passed:
            check = {"validation": [c.name for c in vrep.checks if not c.passed]}
            scenario = _scenario(*parts[:5], check, cfg.tol)
            report.findings.append({"instance": index, "check": check, "scenario": scenario})
            continue

        for check in _checks_for(sub, X, cfg.kind):
            verdict = _run_check(sub, check, cfg.tol)
            report.checks_run += 1
            tid = check["theorem"]
            report.min_slack[tid] = _fold(min, report.min_slack.get(tid), verdict.slack)
            if not verdict.holds:
                scenario = minimize_finding(*parts, check, cfg.tol)
                report.findings.append({"instance": index, "check": check,
                                        "slack": verdict.slack, "scenario": scenario})

        cc = cross_check(sub)
        report.checks_run += 1
        report.max_cross_residual = _fold(max, report.max_cross_residual, cc.max_residual)
        report.min_q = _fold(min, report.min_q, cc.q_min)
        report.min_cauchy_schwarz = _fold(min, report.min_cauchy_schwarz, cc.cauchy_schwarz_slack)
        if not cc.ok():
            check = {"cross_check": cc.failures(), "q_min": cc.q_min}
            scenario = minimize_finding(*parts, {"cross_check": True}, cfg.tol)
            report.findings.append({"instance": index, "check": check, "scenario": scenario})
    return report
