"""Smoke test: every demo script runs to completion against this ckv and
cleans up its temporary files."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ckv

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_runs(script, tmp_path):
    # the child imports the same ckv as this process, installed or not
    package_root = str(Path(ckv.__file__).resolve().parents[1])
    env = dict(os.environ, TMPDIR=str(tmp_path), PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert not list(tmp_path.glob("ckv-demo-*")), "demo left its temp dir behind"
