"""Every exported name resolves, so a deletion cannot leave a stale export."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import ckv

MODULES = sorted(info.name for info in pkgutil.iter_modules(ckv.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"ckv.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [attr for attr in exported if not hasattr(module, attr)] == []


def test_package_imports_resolve():
    tree = ast.parse(Path(ckv.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"ckv.{node.module}")
        for alias in node.names:
            assert hasattr(module, alias.name), f"ckv.{node.module}.{alias.name}"
            assert getattr(ckv, alias.asname or alias.name) is getattr(module, alias.name)
