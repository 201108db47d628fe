"""Walkthrough: scenario files and deterministic fuzz campaigns.

Writes an equality scenario to disk, re-loads and verifies it, then runs two
small seeded campaigns and shows that their serialized reports are
byte-identical (reports never contain timing).
"""

import json
import tempfile
from pathlib import Path

from ckv import (
    FuzzConfig,
    equality_instance,
    load_scenario,
    parse_scenario,
    run_fuzz,
    save_scenario,
    scenario_from_parts,
    verify,
)

with tempfile.TemporaryDirectory(prefix="ckv-demo-") as workdir:
    print("=== write an equality scenario and read it back ===")
    sub = equality_instance("thm35_i", 3, {"a": 1.0})
    data = scenario_from_parts(sub.model, sub.spec, sub.tangent, sub.hhat,
                               checks={"theorems": ["3.5i"], "tol": 1e-8})
    path = Path(workdir) / "thm35_i.json"
    save_scenario(path, data)
    print(f"  wrote {path} ({path.stat().st_size} bytes)")

    parsed = parse_scenario(load_scenario(path))
    verdict = verify(parsed.sub, "3.5i")
    print(f"  reloaded and verified: slack = {verdict.slack:.3e}")

print("\n=== seeded fuzz campaigns are reproducible ===")
cfg = FuzzConfig(count=40, seed=2718, kind=1)
blob_a = run_fuzz(cfg).to_json()
blob_b = run_fuzz(cfg).to_json()
print(f"  two runs, same seed: byte-identical = {blob_a == blob_b}")

report = json.loads(blob_a)
summary = report["summary"]
print(f"  instances: {summary['instances']}, checks: {summary['checks_run']}, "
      f"findings: {summary['findings']}")
print(f"  worst slack per inequality: "
      f"{ {k: round(v, 5) for k, v in summary['min_slack'].items()} }")
print(f"  max cross-check residual: {summary['max_cross_residual']:.2e}")
print(f"  layout provenance: {report['provenance']}")

print("\n=== a second-kind campaign ===")
report2 = run_fuzz(FuzzConfig(count=40, seed=2718, kind=2)).to_dict()
print(f"  findings: {report2['summary']['findings']}, "
      f"min slack: { {k: round(v, 5) for k, v in report2['summary']['min_slack'].items()} }")
