"""``tools/compare_outputs.py`` on small synthetic dumps in the format of
``tools/dump_outputs.py``."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
_SPEC = importlib.util.spec_from_file_location("compare_outputs", _PATH)
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)


def _verdict(theorem, lhs, holds=True, mode="grid"):
    return {"theorem": theorem, "lhs": lhs, "rhs": 2.0, "holds": holds,
            "diagnostics": {"theta_mode": mode, "shape_match": False}}


def _dump(lhs=1.0, holds=True, mode="grid", cli_lhs=0.5):
    """Four lines: a theta_sweep unit (a JSON list in a JSON string), a
    campaign report (an indented document), a cli_verify unit (one document
    per line) and an acceptance report."""
    report = json.dumps({"summary": {"findings": 0, "max_cross_residual": 1e-15 * lhs}},
                        indent=2, sort_keys=True) + "\n"
    cli = "".join(json.dumps(_verdict(t, cli_lhs)) + "\n" for t in ("3.1", "3.3"))
    lines = [
        ("theta_sweep 11 0", json.dumps([_verdict("3.4", lhs, holds, mode)])),
        ("campaign 11 0", report),
        ("cli_verify 11 0", cli),
        ("acceptance 1", report),
    ]
    return "".join(f"{key} {json.dumps(value)}\n" for key, value in lines)


def _run(tmp_path, capsys, a, b):
    (tmp_path / "a.txt").write_text(a)
    (tmp_path / "b.txt").write_text(b)
    code = compare_outputs.main([str(tmp_path / "a.txt"), str(tmp_path / "b.txt")])
    return code, capsys.readouterr().out


def test_identical_dumps(tmp_path, capsys):
    code, out = _run(tmp_path, capsys, _dump(), _dump())
    assert code == 0
    assert "0 of 4 lines differ" in out and "no numeric move" in out


def test_a_rounding_move_is_reported_and_passes(tmp_path, capsys):
    code, out = _run(tmp_path, capsys, _dump(), _dump(lhs=1.0 + 4e-13, cli_lhs=0.5 + 1e-15))
    assert code == 0
    assert "4 of 4 lines differ" in out
    # |b - a| / (1 + |a|) = 4e-13 / 2, on the theta_sweep lhs
    assert "worst numeric move 2.000e-13" in out and "theta_sweep 11 0[0].lhs" in out


@pytest.mark.parametrize("change, path", [
    ({"holds": False}, "holds: True -> False"),
    ({"mode": "multistart"}, "diagnostics.theta_mode: 'grid' -> 'multistart'"),
])
def test_a_bool_or_string_change_fails(tmp_path, capsys, change, path):
    code, out = _run(tmp_path, capsys, _dump(), _dump(**change))
    assert code == 1
    assert f"label change at theta_sweep 11 0[0].{path}" in out


def test_a_cli_verify_line_is_read_per_document(tmp_path, capsys):
    a = _dump()
    b = a.replace('\\"theorem\\": \\"3.3\\"', '\\"theorem\\": \\"4.2\\"')
    assert a != b
    code, out = _run(tmp_path, capsys, a, b)
    assert code == 1
    assert "cli_verify 11 0[1].theorem: '3.3' -> '4.2'" in out


def test_a_missing_line_fails(tmp_path, capsys):
    a = _dump()
    code, out = _run(tmp_path, capsys, a, a[: a.rindex("acceptance")])
    assert code == 1
    assert "4 lines' -> '3 lines'" in out
