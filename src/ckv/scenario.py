"""Scenario files: JSON descriptions of one verification problem.

A scenario nails down the ambient structure (explicit matrices or a seeded
generator), the connection, the submanifold germ, and optionally which checks
to run.  Matrices are row-major nested arrays of decimal reals, so files are
diff-friendly and language-neutral.  The connection's parameter fields are
those of its kind in ``connections.PARAMETERS``, and every array field goes
through ``frames.as_array``.  Parsing either produces the attached
submanifold point or fails with the path of the offending field.

Layout::

    {
      "ambient": {
        "m": 2, "kappa": 1.0, "mu_contact": 0.0, "c": 1.0,
        "phi": [[...]], "xi": [...], "hprime": [[...]]
        // or instead of phi/xi/hprime:
        "generator": {"seed": 1, "hprime_scale": 1.0, "strict_kmu": false}
      },
      "connection": {"kind": 1, "lambda1": 0.0, "lambda2": 0.0,
                     "P": [...], "D": [[...]]},        // kind 2: "a", "b"
      "submanifold": {"tangent": [[...], ...], "hhat": [[[...]], ...]},
      "checks": {"theorems": ["3.1"], "plane": [0, 1], "X": [...],
                 "k": 3, "tol": 1e-8}                  // optional
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .contact import ContactPointModel, random_point
from .connections import PARAMETERS, ConnectionSpec, _kind
from .errors import DimensionMismatch, GeometryError, ScenarioError
from .frames import as_array, as_bool, as_integer, as_real
from .submanifold import SubmanifoldPoint, attach
from .verifier import DEFAULT_TOL, theorem_ids_problem

__all__ = [
    "Checks",
    "ParsedScenario",
    "parse_scenario",
    "load_scenario",
    "save_scenario",
    "scenario_from_parts",
]

@dataclass(eq=False)
class Checks:
    theorems: list[str] | None = None
    plane: tuple[int, int] | None = None
    X: np.ndarray | None = None
    k: int | None = None
    tol: float = DEFAULT_TOL


@dataclass
class ParsedScenario:
    sub: SubmanifoldPoint
    checks: Checks


def _need(data: dict, key: str, path: str):
    if key not in data:
        raise ScenarioError(f"{path}.{key}", "missing required field")
    return data[key]


def _field(check, value, path: str, *args):
    """``check`` (a ``frames`` validator) of a field, its error raised at the
    field's path."""
    try:
        return check(value, path, *args)
    except (ValueError, DimensionMismatch) as exc:
        raise ScenarioError(path, str(exc).removeprefix(path).lstrip(": ")) from None


def _object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(path, "expected an object")
    return value


def parse_scenario(data: dict) -> ParsedScenario:
    """Parse and attach a scenario dict (see the module docstring for layout)."""
    if not isinstance(data, dict):
        raise ScenarioError("$", "scenario must be a JSON object")

    amb = _object(_need(data, "ambient", "$"), "ambient")
    m = _field(as_integer, _need(amb, "m", "ambient"), "ambient.m", 1)
    d = 2 * m + 1
    kappa, mu_contact, c = (
        _field(as_real, _need(amb, key, "ambient"), f"ambient.{key}", -np.inf)
        for key in ("kappa", "mu_contact", "c"))
    # the connection's explicit P and D bound d by the file's own size, so
    # they are checked before a generator allocates O(d^2)
    con = _object(_need(data, "connection", "$"), "connection")
    try:
        kind = _kind(_need(con, "kind", "connection"))
    except ValueError:
        raise ScenarioError("connection.kind", "must be 1 or 2") from None
    P = _field(as_array, _need(con, "P", "connection"), "connection.P", (d,))
    D = _field(as_array, _need(con, "D", "connection"), "connection.D", (d, d))
    spec = ConnectionSpec(kind, P, D, **{
        name: _field(as_real, _need(con, name, "connection"), f"connection.{name}", -np.inf)
        for name in PARAMETERS[kind]})

    if "generator" in amb:
        gen = _object(amb["generator"], "ambient.generator")
        seed = _field(as_integer, _need(gen, "seed", "ambient.generator"),
                      "ambient.generator.seed", 0)
        scale = _field(as_real, gen.get("hprime_scale", 1.0), "ambient.generator.hprime_scale",
                       -np.inf)
        strict = _field(as_bool, gen.get("strict_kmu", False), "ambient.generator.strict_kmu")
        try:
            model = random_point(m, kappa, mu_contact, c, seed, scale, strict)
        except ValueError as exc:
            raise ScenarioError("ambient.generator", str(exc)) from None
    else:
        phi, xi, hprime = (_field(as_array, _need(amb, key, "ambient"), f"ambient.{key}", shape)
                           for key, shape in (("phi", (d, d)), ("xi", (d,)), ("hprime", (d, d))))
        model = ContactPointModel(m=m, phi=phi, xi=xi, hprime=hprime,
                                  kappa=kappa, mu_contact=mu_contact, c=c)

    subm = _object(_need(data, "submanifold", "$"), "submanifold")
    tangent_raw = _need(subm, "tangent", "submanifold")
    if not isinstance(tangent_raw, list) or not tangent_raw:
        raise ScenarioError("submanifold.tangent", "expected a non-empty list of vectors")
    n = len(tangent_raw)
    tangent = np.stack([
        _field(as_array, v, f"submanifold.tangent[{i}]", (d,))
        for i, v in enumerate(tangent_raw)
    ])
    if not 3 <= n < d:
        raise ScenarioError("submanifold.tangent", f"need 3 <= n < {d}, got n = {n}")
    p = d - n
    hhat_raw = _need(subm, "hhat", "submanifold")
    if not isinstance(hhat_raw, list) or len(hhat_raw) != p:
        raise ScenarioError("submanifold.hhat", f"expected {p} matrices (one per normal direction)")
    hhat = np.stack([
        _field(as_array, h, f"submanifold.hhat[{r}]", (n, n)) for r, h in enumerate(hhat_raw)
    ])

    try:
        sub = attach(model, spec, tangent, hhat)
    except GeometryError as exc:
        raise ScenarioError("submanifold", str(exc)) from None

    checks = Checks()
    ch = _object(data.get("checks", {}), "checks")
    if "theorems" in ch:
        ids = ch["theorems"]
        if not isinstance(ids, list) or not ids:
            raise ScenarioError("checks.theorems", "expected a non-empty list of ids")
        problem = theorem_ids_problem(ids)
        if problem is not None:
            raise ScenarioError("checks.theorems", problem)
        checks.theorems = list(ids)
    if "plane" in ch:
        pl = ch["plane"]
        if (not isinstance(pl, list)) or len(pl) != 2:
            raise ScenarioError("checks.plane", "expected a pair of frame indices")
        i, j = (_field(as_integer, v, f"checks.plane[{k}]", 0) for k, v in enumerate(pl))
        if not (i < n and j < n and i != j):
            raise ScenarioError("checks.plane", f"indices must be distinct and < {n}")
        checks.plane = (i, j)
    if "X" in ch:
        checks.X = _field(as_array, ch["X"], "checks.X", (d,))
    if "k" in ch:
        kk = _field(as_integer, ch["k"], "checks.k", 2)
        if kk > n:
            raise ScenarioError("checks.k", f"must be <= n = {n}, got {kk}")
        checks.k = kk
    if "tol" in ch:
        checks.tol = _field(as_real, ch["tol"], "checks.tol", 0.0)

    return ParsedScenario(sub=sub, checks=checks)


def scenario_from_parts(
    model: ContactPointModel,
    spec: ConnectionSpec,
    tangent: np.ndarray,
    hhat: np.ndarray,
    checks: dict | None = None,
) -> dict:
    """Scenario dict with fully explicit matrices (self-contained on disk)."""
    con = {"kind": spec.kind, "P": spec.P.tolist(), "D": spec.D.tolist(), **spec.parameters}
    data = {
        "ambient": {
            "m": model.m,
            "kappa": model.kappa,
            "mu_contact": model.mu_contact,
            "c": model.c,
            "phi": model.phi.tolist(),
            "xi": model.xi.tolist(),
            "hprime": model.hprime.tolist(),
        },
        "connection": con,
        "submanifold": {
            "tangent": np.asarray(tangent, float).tolist(),
            "hhat": np.asarray(hhat, float).tolist(),
        },
    }
    if checks:
        data["checks"] = checks
    return data


def load_scenario(path) -> dict:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError("$", f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ScenarioError("$", f"not UTF-8 text: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError("$", f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ScenarioError("$", "invalid JSON: nested too deeply") from None


def save_scenario(path, data: dict):
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
