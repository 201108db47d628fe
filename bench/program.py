"""Locate and import the program under test from this checkout's ``src``.

The benchmark never falls back to an installed ``ckv``: it refuses to run
when ``src/ckv`` is missing or when the import resolves elsewhere.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load():
    """Import ``ckv`` from ``ROOT/src``; exit with status 2 if that is impossible."""
    package = SRC / "ckv"
    if not (package / "__init__.py").is_file():
        print(f"error: program source {package} not found", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import ckv

    if Path(ckv.__file__).resolve().parent != package.resolve():
        print(f"error: ckv imported from {ckv.__file__}, expected {package}", file=sys.stderr)
        sys.exit(2)
    return ckv


def child_env() -> dict:
    """Environment for child interpreters that must import this checkout's ckv."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env
