"""Every exported name resolves, so a deletion cannot leave a stale export;
every exported or module-level name of ``ckv`` has a caller outside the
tests, so test-only surface stays in the tests; the number of options
(function parameters with a default) cannot grow unnoticed, and each
default is relied on by a call outside the tests; only
``SubmanifoldPoint.memo`` touches the per-point cache, each memo key is
a string literal with one call site, and README lists every key; only
``spheresearch.triu_pairs`` calls ``np.triu_indices``; no ``einsum`` takes
more than two array operands; ``submanifold`` names no connection kind,
no kind parameter and no printed correction tensor; only ``connections``
spells out the kind-1 parameter names as string literals; only the
``THEOREMS`` and ``EQUALITY_THEOREM`` literals of ``verifier`` spell out a
theorem id, and no other module-level set or dict is keyed by ids; only
``frames`` tests a value against a scalar type, save the JSON-type checks
of ``scenario`` named in ``JSON_TYPE_CHECKS``; importing the CLI and
running ``ckv verify`` load no ``ckv.fuzz``; every dataclass with an
ndarray field compares and hashes by identity."""

import ast
import dataclasses
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ckv
from ckv import fuzz, verifier
from ckv.contact import standard_point
from ckv.frames import Plane
from ckv.scenario import save_scenario

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
    # the names resolved from ckv.fuzz on first use
    from ckv import FuzzConfig, FuzzReport, run_fuzz
    assert ckv._FUZZ_NAMES == ("FuzzConfig", "FuzzReport", "run_fuzz")
    assert FuzzConfig is fuzz.FuzzConfig and FuzzReport is fuzz.FuzzReport
    assert run_fuzz is fuzz.run_fuzz
    for name in ckv._FUZZ_NAMES:
        assert getattr(ckv, name) is getattr(fuzz, name)
    with pytest.raises(AttributeError, match="has no attribute 'random_scenario'"):
        ckv.random_scenario


def _fresh_imports(args, cwd):
    """The process and the set of modules a fresh ``python -X importtime
    *args`` imports (its ``import time:`` lines), on this ckv."""
    package_root = str(Path(ckv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True,
                          text=True, env=env, cwd=cwd)
    return proc, {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                  if line.startswith("import time:")}


def test_verify_loads_no_fuzz_code(tmp_path):
    # ckv.fuzz costs every ckv verify its compile and exec time, and only
    # ckv fuzz runs it
    proc, loaded = _fresh_imports(["-c", "import ckv.cli"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "ckv.verifier" in loaded and "ckv.fuzz" not in loaded
    path = tmp_path / "point.json"
    save_scenario(path, fuzz.random_scenario(0, fuzz.FuzzConfig(seed=44, kind=1)))
    proc, loaded = _fresh_imports(["-m", "ckv.cli", "verify", str(path), "--json"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("\n") == len(verifier.applicable_theorems(1))
    assert "ckv.verifier" in loaded and "ckv.fuzz" not in loaded
    # the first use of a lazy name loads it
    proc, loaded = _fresh_imports(["-c", "import ckv; ckv.run_fuzz"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "ckv.fuzz" in loaded


ROOT = Path(__file__).resolve().parents[1]
CALLER_FILES = sorted(
    [*Path(ckv.__file__).parent.glob("*.py"), *(ROOT / "bench").glob("*.py"),
     *(ROOT / "demos").glob("*.py")]
)


def _code_references(path):
    """Names a file uses as code (``ast.Name`` ids read and ``ast.Attribute``
    attributes), leaving out uses inside the def or class of that name."""
    used = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store) \
                and node.id not in inside:
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            used.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return used


USED = set().union(*(_code_references(path) for path in CALLER_FILES))


def _module_level_names(path):
    """Names a module defines at its top level (def, class or assignment),
    dunders left out."""
    names = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for target in targets for t in ast.walk(target)
                      if isinstance(t, ast.Name)]
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_has_callers_outside_tests(name):
    # an export or private helper whose only callers are tests belongs in the tests
    assert {path.parent.name for path in CALLER_FILES} >= {"ckv", "bench", "demos"}
    module = importlib.import_module(f"ckv.{name}")
    names = set(_module_level_names(Path(module.__file__))) | set(getattr(module, "__all__", []))
    assert sorted(attr for attr in names if attr not in USED) == []


# Function parameters with a default in src/ckv.  Raise this only for an
# option with a second caller, named in CHANGES.md.
OPTION_LIMIT = 9
# distinct ``SubmanifoldPoint.memo`` keys in src/ckv; may only fall
MEMO_LIMIT = 10


def test_options_stay_within_the_ratchet():
    count = 0
    for path in sorted(Path(ckv.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
    assert count <= OPTION_LIMIT


def _defaults(path):
    """(function, parameter, position) of every parameter with a default of
    a file's named functions: its index among the positional arguments a
    call passes (``self`` or ``cls`` of a method left out), None for a
    keyword-only one."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    methods = {id(fn) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for fn in cls.body if isinstance(fn, ast.FunctionDef)
               and "staticmethod" not in {getattr(d, "id", None) for d in fn.decorator_list}}
    found = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = fn.args
            positional = [*args.posonlyargs, *args.args][1 if id(fn) in methods else 0:]
            first = len(positional) - len(args.defaults)
            found += [(fn.name, arg.arg, first + i) for i, arg in enumerate(positional[first:])]
            found += [(fn.name, arg.arg, None)
                      for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                      if default is not None]
    return found


def _calls(path):
    """(called name, positional count, keyword names) of every call of a
    file; a call with ``*args`` or ``**kwargs`` counts as passing nothing."""
    calls = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            unpacked = any(isinstance(arg, ast.Starred) for arg in node.args) \
                or any(kw.arg is None for kw in node.keywords)
            calls.append((name, 0, set()) if unpacked
                         else (name, len(node.args), {kw.arg for kw in node.keywords}))
    return calls


def test_every_default_has_a_caller_outside_tests():
    # a default that no call in src/ckv, bench or demos leaves to the function
    # serves only the tests; the parameter should be required
    calls = [call for path in CALLER_FILES for call in _calls(path)]
    unused = [f"{fn}({param})" for path in sorted(Path(ckv.__file__).parent.glob("*.py"))
              for fn, param, position in _defaults(path)
              if not any(name == fn and param not in keywords
                         and (position is None or passed <= position)
                         for name, passed, keywords in calls)]
    assert unused == []


def _tracer_targets():
    """The ``TARGETS`` literal of ``bench/tracing.py``, read without importing it."""
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text(encoding="utf-8"))
    for node in tree.body:
        names = [getattr(t, "id", None) for t in getattr(node, "targets", [])]
        if isinstance(node, ast.Assign) and names == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py has no TARGETS literal")


def test_tracer_targets_resolve():
    # the tracer patches each target by getattr, so a renamed or deleted
    # function would only fail under --trace 1
    targets = _tracer_targets()
    assert targets
    for home, attr, _ in targets:
        assert home == "ckv" or home.startswith("ckv."), home
        assert callable(getattr(importlib.import_module(home), attr, None)), f"{home}.{attr}"


def _cache_uses(path):
    """``file:line`` of every ``.cache`` attribute of a file outside
    ``SubmanifoldPoint.memo`` (``functools.cache`` left out), and whether the
    file defines that memo."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    memo = {id(node) for cls in tree.body
            if isinstance(cls, ast.ClassDef) and cls.name == "SubmanifoldPoint"
            for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name == "memo"
            for node in ast.walk(fn)}
    uses = [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "cache" and id(node) not in memo
            and not (isinstance(node.value, ast.Name) and node.value.id == "functools")]
    return uses, bool(memo)


def test_point_cache_is_only_touched_by_memo():
    # every per-point value goes through SubmanifoldPoint.memo; a hand-rolled
    # read or store of ``sub.cache`` would be a second memo idiom
    results = [_cache_uses(path) for path in sorted(Path(ckv.__file__).parent.glob("*.py"))]
    assert sum(has_memo for _, has_memo in results) == 1
    assert [use for uses, _ in results for use in uses] == []


def _memo_keys(path):
    """(key, ``file:line``) of every ``.memo(...)`` call of a file; the key is
    None unless it is a string literal."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [(node.args[0].value if node.args and isinstance(node.args[0], ast.Constant)
             and isinstance(node.args[0].value, str) else None, f"{path.name}:{node.lineno}")
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "memo"]


def test_memo_keys_are_literals_with_one_call_site():
    # the keys are stringly typed across modules: a computed key or one key
    # at two call sites could hand one site's value to the other
    calls = [call for path in sorted(Path(ckv.__file__).parent.glob("*.py"))
             for call in _memo_keys(path)]
    assert calls
    assert [site for key, site in calls if key is None] == []
    keys = [key for key, _ in calls]
    assert sorted(key for key in set(keys) if keys.count(key) > 1) == []


def test_memo_keys_stay_within_the_ratchet():
    keys = {key for path in sorted(Path(ckv.__file__).parent.glob("*.py"))
            for key, _ in _memo_keys(path)}
    assert len(keys) <= MEMO_LIMIT


def _readme_memo_keys():
    """The keys of README's per-point memo list: the backticked name that
    opens each ``  - `` item under the ``SubmanifoldPoint.cache`` bullet."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    start = text.index("* the per-point memo `SubmanifoldPoint.cache`")
    end = text.index("\n* ", start)
    return re.findall(r"^  - `(\w+)`", text[start:end], flags=re.MULTILINE)


def test_readme_lists_every_memo_key():
    # README's memo list is the one place a reader finds what a point caches:
    # a key added, renamed or deleted in src/ckv must be changed there too
    listed = _readme_memo_keys()
    assert len(set(listed)) == len(listed)
    used = {key for path in sorted(Path(ckv.__file__).parent.glob("*.py"))
            for key, _ in _memo_keys(path)}
    assert sorted(set(listed)) == sorted(used)


def _triu_calls(path):
    """``file:line`` of every ``triu_indices`` call of a file outside
    ``triu_pairs``, and whether the file defines ``triu_pairs``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    helper = {id(node) for fn in tree.body
              if isinstance(fn, ast.FunctionDef) and fn.name == "triu_pairs"
              for node in ast.walk(fn)}
    calls = [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.Call) and id(node) not in helper
             and getattr(node.func, "attr", getattr(node.func, "id", None)) == "triu_indices"]
    return calls, bool(helper)


def test_triu_indices_is_only_called_by_its_cache():
    # the index pairs depend only on the dimension; ``triu_pairs`` caches them
    # read-only, and a direct call would rebuild them on every point
    results = [_triu_calls(path) for path in sorted(Path(ckv.__file__).parent.glob("*.py"))]
    assert sum(has_helper for _, has_helper in results) == 1
    assert [call for calls, _ in results for call in calls] == []


def _wide_einsums(path):
    """``file:line`` of every ``einsum`` call of a file with more than two
    array operands after its subscripts."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and len(node.args) > 3
            and getattr(node.func, "attr", getattr(node.func, "id", None)) == "einsum"]


def test_einsum_takes_at_most_two_operands():
    # numpy contracts more operands left to right with no contraction path
    # unless told otherwise; a chain of vectors against an n^4 tensor is a
    # GEMM of outer-product rows, about ten times faster
    assert [call for path in sorted(Path(ckv.__file__).parent.glob("*.py"))
            for call in _wide_einsums(path)] == []


def test_submanifold_reads_no_connection_kind():
    # the connection reaches the induced curvature only through its
    # difference tensor (``connections.difference_tensor``); a kind branch,
    # a kind parameter or the paper's correction tensors in ``submanifold``
    # would be a second definition of the connection
    text = (Path(ckv.__file__).parent / "submanifold.py").read_text(encoding="utf-8")
    assert re.findall(r"kind|lambda[12]|correction_tensors", text, flags=re.IGNORECASE) == []


def _string_constants(tree):
    """The string constant nodes of a parsed file, docstrings left out."""
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)}
    return [node for node in ast.walk(tree) if isinstance(node, ast.Constant)
            and isinstance(node.value, str) and id(node) not in docstrings]


def _string_literals(path):
    """The string constants of a file, docstrings left out."""
    return {node.value for node in _string_constants(ast.parse(path.read_text(encoding="utf-8")))}


def test_kind_parameter_names_live_in_the_connection_table():
    # ``connections.PARAMETERS`` is the one list of each kind's parameter
    # names; a literal "lambda1" elsewhere would be a second, kind-branched copy
    holders = [path.name for path in sorted(Path(ckv.__file__).parent.glob("*.py"))
               if _string_literals(path) & {"lambda1", "lambda2"}]
    assert holders == ["connections.py"]


def test_theorem_ids_live_in_the_theorem_table():
    # ``verifier.THEOREMS`` holds one row per theorem id; an id spelled out
    # anywhere else, or another set or dict keyed by ids, would be a second
    # table that a new row could miss
    ids = set(verifier.THEOREMS)
    stray, held = [], 0
    for path in sorted(Path(ckv.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        tables = {id(node) for stmt in tree.body if path.name == "verifier.py"
                  and isinstance(stmt, ast.Assign)
                  and [getattr(t, "id", None) for t in stmt.targets]
                  in (["THEOREMS"], ["EQUALITY_THEOREM"])
                  for node in ast.walk(stmt.value)}
        held += len(tables)
        stray += [f"{path.name}:{node.lineno}" for node in _string_constants(tree)
                  if node.value in ids and id(node) not in tables]
    assert held and stray == []
    keyed = [f"{name}.{attr}" for name in MODULES
             for attr, value in vars(importlib.import_module(f"ckv.{name}")).items()
             if isinstance(value, (dict, set, frozenset)) and value is not verifier.THEOREMS
             and ids & set(value)]
    assert keyed == []


# isinstance against these names states an integer or real rule, which
# ``frames.as_integer`` and ``frames.as_real`` own
SCALAR_TYPES = {"bool", "bool_", "int", "integer", "float", "floating",
                "Number", "Integral", "Real"}
# (file, function, check) of each JSON-type check allowed outside frames
JSON_TYPE_CHECKS = []


def _scalar_type_checks(path):
    """(file, innermost def or class, source) of every ``isinstance`` call of
    a file whose type argument names one of ``SCALAR_TYPES``."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = node.name
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" \
                and len(node.args) == 2:
            types = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            if any(getattr(t, "id", getattr(t, "attr", None)) in SCALAR_TYPES for t in types):
                found.append((path.name, where, ast.unparse(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_scalar_rules_live_in_frames():
    # every integer, real and tolerance input is checked by one validator;
    # a type test elsewhere would be a second rule that could disagree
    root = Path(ckv.__file__).parent
    assert _scalar_type_checks(root / "frames.py")
    stray = [check for path in sorted(root.glob("*.py")) if path.name != "frames.py"
             for check in _scalar_type_checks(path) if check not in JSON_TYPE_CHECKS]
    assert stray == []


def _array_dataclasses():
    """Every dataclass defined in a ckv module with an ndarray field."""
    found = []
    for name in MODULES:
        module = importlib.import_module(f"ckv.{name}")
        found += [cls for cls in vars(module).values()
                  if isinstance(cls, type) and dataclasses.is_dataclass(cls)
                  and cls.__module__ == module.__name__
                  and any("ndarray" in str(f.type) for f in dataclasses.fields(cls))]
    return found


def test_array_dataclasses_compare_by_identity():
    # a generated __eq__ compares ndarray fields elementwise and raises on
    # two distinct instances, and with eq the generated __hash__ raises too
    classes = _array_dataclasses()
    assert {"Plane", "ContactPointModel", "SubmanifoldPoint", "Checks"} <= \
        {cls.__name__ for cls in classes}
    for cls in classes:
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__, cls.__qualname__
    e = np.eye(3)
    pairs = [(standard_point(2), standard_point(2)), (Plane(e[0], e[1]), Plane(e[0], e[1])),
             (verifier.equality_instance("cor32", 3, {}),
              verifier.equality_instance("cor32", 3, {}))]
    for a, b in pairs:
        assert a == a and not a == b and a != b
        assert hash(a) == hash(a) and len({a, b}) == 2
