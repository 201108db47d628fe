"""Command-line harness.

Subcommands::

    ckv validate <file>                 structure-axiom report, exit 0/1/2
    ckv verify <file> [--theorems LIST] [--tol F] [--json]
    ckv fuzz [--count N] [--seed S] [--n N] [--m M] [--kind 1|2] [--out DIR]
    ckv case --id ID [--params K=V,...] [--out FILE]

Exit codes: 0 everything holds, 1 a violation (for 3.5/4.4, a negative
certified slack, ``verifier.decide``) or a finding, 2 input error.
The CKV_SEED environment variable overrides the built-in default fuzz seed
(an explicit --seed beats both).  Machine-readable output (--json lines,
fuzz report files) never contains timing, so identical flags and seed give
byte-identical bytes; wall-clock timing goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from .contact import validate_structure
from .errors import GeometryError, ScenarioError
from .frames import Plane, as_integer, as_real
from .fuzz import DEFAULT_SEED, FuzzConfig, run_fuzz
from .scenario import load_scenario, parse_scenario, save_scenario, scenario_from_parts
from .verifier import (
    DEFAULT_TOL,
    EQUALITY_THEOREM,
    THEOREMS,
    applicable_theorems,
    equality_instance,
    theorem_ids_problem,
    verify,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2


def _parsed(text: str, parse):
    """``parse(text)``, or the text itself when it does not parse, so that
    the validator it goes to rejects it in that validator's words."""
    try:
        return parse(text)
    except ValueError:
        return text


def _argument(parse, check, low):
    """An argparse type: the text parsed by ``parse``, then checked by the
    ``frames`` validator ``check`` against ``low``; a failure exits 2 with
    one line naming the flag."""
    def convert(text: str):
        try:
            return check(_parsed(text, parse), "value", low)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


_tolerance = _argument(float, as_real, 0.0)   # --tol: a finite number >= 0
_natural = _argument(int, as_integer, 0)      # --count, --seed and CKV_SEED: an integer >= 0


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT


def cmd_validate(args) -> int:
    try:
        parsed = parse_scenario(load_scenario(args.file))
    except ScenarioError as exc:
        return _fail(str(exc))
    report = validate_structure(parsed.sub.model, tol=args.tol)
    width = max(len(c.name) for c in report.checks)
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"{check.name:<{width}}  {check.max_residual:12.3e}  {status}")
    print(f"structure: {'PASS' if report.passed else 'FAIL'}")
    return EXIT_OK if report.passed else EXIT_VIOLATION


def cmd_verify(args) -> int:
    try:
        parsed = parse_scenario(load_scenario(args.file))
    except ScenarioError as exc:
        return _fail(str(exc))
    sub, checks = parsed.sub, parsed.checks
    struct = validate_structure(sub.model)
    if not struct.passed:
        failing = [c.name for c in struct.checks if not c.passed]
        return _fail(f"ambient structure axioms fail: {', '.join(failing)}")

    if args.theorems is not None:
        ids = [t.strip() for t in args.theorems.split(",") if t.strip()]
        if not ids:
            return _fail(f"--theorems names no theorem: {args.theorems!r}")
    elif checks.theorems:
        ids = checks.theorems
    else:
        ids = list(applicable_theorems(sub.spec.kind))
    problem = theorem_ids_problem(ids)
    if problem is not None:
        return _fail(problem)

    # verify ignores the arguments a theorem does not take
    i, j = checks.plane if checks.plane is not None else (0, 1)
    plane = Plane(sub.tangent[i], sub.tangent[j])
    X = checks.X if checks.X is not None else sub.tangent[0]
    tol = args.tol if args.tol is not None else checks.tol
    t0 = time.perf_counter()
    verdicts = []
    for tid in ids:
        try:
            verdicts.append(verify(sub, tid, plane=plane, X=X, k=checks.k, tol=tol))
        except (GeometryError, ValueError) as exc:
            message = str(exc)
            return _fail(message if message.startswith(tid) else f"{tid}: {message}")
    elapsed = time.perf_counter() - t0

    if args.json:
        for v in verdicts:
            print(json.dumps(v.to_dict(), sort_keys=True))
    else:
        print(f"{'theorem':<8}{'lhs':>16}{'rhs':>16}{'slack':>14}  holds")
        for v in verdicts:
            print(f"{v.theorem_id:<8}{v.lhs:>16.8g}{v.rhs:>16.8g}{v.slack:>14.3e}  {v.holds}")
    print(f"verified {len(verdicts)} checks in {elapsed:.3f}s", file=sys.stderr)
    return EXIT_OK if all(v.holds for v in verdicts) else EXIT_VIOLATION


def cmd_fuzz(args) -> int:
    seed = args.seed
    if seed is None:
        try:
            seed = _natural(os.environ.get("CKV_SEED") or str(DEFAULT_SEED))
        except argparse.ArgumentTypeError as exc:
            return _fail(f"CKV_SEED: {exc}")
    kinds = [args.kind] if args.kind else [1, 2]
    out = Path(args.out) if args.out else None
    if out is not None:
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            return _fail(f"cannot write {out}: {exc.strerror or exc}")

    t0 = time.perf_counter()
    reports = []
    for kind in kinds:
        cfg = FuzzConfig(count=args.count, seed=seed, kind=kind, n=args.n, m=args.m,
                         tol=args.tol)
        reports.append(run_fuzz(cfg))
    elapsed = time.perf_counter() - t0

    payload = {"reports": [r.to_dict() for r in reports]}
    blob = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    findings = sum(len(r.findings) for r in reports)
    if out is not None:
        try:
            (out / "report.json").write_text(blob, encoding="utf-8")
            for r in reports:
                for i, finding in enumerate(r.findings):
                    save_scenario(out / f"finding_kind{r.config.kind}_{i:03d}.json",
                                  finding["scenario"])
        except OSError as exc:
            return _fail(f"cannot write {out}: {exc.strerror or exc}")
        print(f"report written to {out / 'report.json'}")
    else:
        sys.stdout.write(blob)
    for r in reports:
        residual = "n/a" if r.max_cross_residual is None else f"{r.max_cross_residual:.3e}"
        print(
            f"kind {r.config.kind}: {r.instances} instances, {r.checks_run} checks, "
            f"{len(r.findings)} findings, max cross residual {residual}",
            file=sys.stderr,
        )
    print(f"fuzz completed in {elapsed:.2f}s", file=sys.stderr)
    return EXIT_VIOLATION if findings else EXIT_OK


def _parse_params(text: str | None) -> dict:
    params: dict = {}
    if not text:
        return params
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ValueError(f"bad parameter {item!r}, expected key=value")
        key, value = (part.strip() for part in item.split("=", 1))
        if key in params:
            raise ValueError(f"parameter {key!r} is given twice")
        params[key] = _parsed(value, float)   # checked by equality_instance
    return params


def cmd_case(args) -> int:
    try:
        params = _parse_params(args.params)
    except ValueError as exc:
        return _fail(str(exc))
    try:
        sub = equality_instance(args.id, n=args.n, params=params, seed=args.seed)
    except (ValueError, GeometryError) as exc:
        return _fail(str(exc))
    tid = EQUALITY_THEOREM[args.id]
    try:
        verdict = verify(sub, tid, plane=Plane(sub.tangent[0], sub.tangent[1]))
    except ValueError as exc:   # overflowing data; numpy's LinAlgError is a ValueError
        return _fail(f"case {args.id}: {exc}")
    print(f"case {args.id}: theorem {tid} slack = {verdict.slack:.3e} "
          f"(lhs = {verdict.lhs:.8g}, rhs = {verdict.rhs:.8g})")
    if args.out:
        checks = {"theorems": [tid], "tol": DEFAULT_TOL}
        if THEOREMS[tid][1] == "plane":
            checks["plane"] = [0, 1]
        data = scenario_from_parts(sub.model, sub.spec, sub.tangent, sub.hhat, checks)
        try:
            save_scenario(args.out, data)
        except OSError as exc:
            return _fail(f"cannot write {args.out}: {exc.strerror or exc}")
        print(f"scenario written to {args.out}")
    eff = DEFAULT_TOL * (1 + abs(verdict.lhs) + abs(verdict.rhs))
    return EXIT_OK if abs(verdict.slack) < eff else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ckv",
        description="curvature inequality verification for submanifolds of "
                    "(kappa,mu)-contact space forms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the ambient structure axioms")
    p.add_argument("file")
    p.add_argument("--tol", type=_tolerance, default=1e-10)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("verify", help="evaluate inequality checks on a scenario")
    p.add_argument("file")
    p.add_argument("--theorems", help="comma-separated ids, e.g. 3.1,3.3,3.5i")
    p.add_argument("--tol", type=_tolerance, default=None)
    p.add_argument("--json", action="store_true", help="one JSON report per line")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("fuzz", help="seeded random verification campaign")
    p.add_argument("--count", type=_natural, default=100)
    p.add_argument("--seed", type=_natural, default=None)
    p.add_argument("--n", type=int, choices=(3, 4), default=None)
    p.add_argument("--m", type=int, choices=(2, 3), default=None)
    p.add_argument("--kind", type=int, choices=(1, 2), default=None,
                   help="connection kind; default runs both")
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    p.add_argument("--out", help="directory for report.json and finding scenarios")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("case", help="construct an equality witness and report its slack")
    p.add_argument("--id", required=True, choices=sorted(EQUALITY_THEOREM))
    p.add_argument("--params", help="comma-separated key=value pairs, e.g. h11=1,h22=1")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--seed", type=_natural, default=0)
    p.add_argument("--out", help="write the constructed scenario here")
    p.set_defaults(func=cmd_case)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, matching the input-error contract
        return int(exc.code or 0)
    # overflowing input data ends in one "error:" line from the finite
    # guards, without numpy's floating-point warnings ahead of it; so does
    # input too large to allocate (the n^4 curvature tensor of a large n)
    with np.errstate(all="ignore"):
        try:
            return args.func(args)
        except MemoryError as exc:
            return _fail(f"out of memory: {str(exc) or 'allocation failed'}")


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
