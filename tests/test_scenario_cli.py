import copy
import dataclasses
import json
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ckv.cli
import ckv.fuzz
import ckv.scenario
import ckv.submanifold
import ckv.verifier
from ckv.cli import main
from ckv.contact import StructureCheck, ValidationReport, standard_point, validate_structure
from ckv.connections import PARAMETERS, ConnectionSpec, first_connection
from ckv.errors import ScenarioError
from ckv.fuzz import FuzzConfig, _zeroing_candidates, random_scenario, run_fuzz
from ckv.scenario import (
    load_scenario,
    parse_scenario,
    save_scenario,
    scenario_from_parts,
)
from ckv.verifier import DEFAULT_TOL

E5 = np.eye(5)


def _equality_scenario(checks=None):
    model = standard_point(2)
    spec = first_connection(0.0, 0.0, np.zeros(5), np.zeros((5, 5)))
    hhat = np.zeros((2, 3, 3))
    hhat[0] = np.diag([1.0, 1.0, 2.0])
    return scenario_from_parts(model, spec, E5[:3], hhat, checks)


def test_parse_roundtrip_identical():
    data = _equality_scenario({"theorems": ["3.1"], "plane": [0, 1], "tol": 1e-8})
    first = parse_scenario(data)
    sub = first.sub
    data2 = scenario_from_parts(sub.model, sub.spec, sub.tangent, sub.hhat, data["checks"])
    second = parse_scenario(data2)
    assert np.array_equal(first.sub.model.phi, second.sub.model.phi)
    assert np.array_equal(first.sub.tangent, second.sub.tangent)
    assert np.array_equal(first.sub.h, second.sub.h)
    assert first.sub.spec.lambda1 == second.sub.spec.lambda1
    assert first.checks.plane == second.checks.plane
    assert json.dumps(data, sort_keys=True) == json.dumps(data2, sort_keys=True)


@pytest.mark.parametrize("kind", sorted(PARAMETERS))
def test_connection_parameters_survive_a_scenario_roundtrip(kind):
    values = dict(zip(PARAMETERS[kind], (0.75, -1.5)))
    spec = ConnectionSpec(kind, E5[4], np.eye(5), **values)
    data = scenario_from_parts(standard_point(2), spec, E5[:3], np.zeros((2, 3, 3)))
    assert {key: data["connection"][key] for key in PARAMETERS[kind]} == values
    assert parse_scenario(data).sub.spec.parameters == spec.parameters == values


@pytest.mark.parametrize("kind", [0, 3])
def test_fuzz_rejects_a_kind_outside_the_parameter_table(kind):
    # any kind other than 1 used to run a kind-2 campaign under a report
    # that named the requested kind
    with pytest.raises(ValueError, match=f"connection kind must be 1 or 2, got {kind}"):
        run_fuzz(FuzzConfig(count=1, seed=13, kind=kind))


@pytest.mark.parametrize("kind", [True, 2.0, np.float64(1.0), "1"], ids=repr)
def test_a_bool_float_or_string_kind_is_rejected(monkeypatch, kind):
    # kind=True used to run a kind-1 campaign reported as "kind": true and
    # 2.0 one reported as 2.0; ConnectionSpec took True as kind 1
    message = f"^connection kind must be 1 or 2, got {re.escape(str(kind))}$"
    with pytest.raises(ValueError, match=message):
        ConnectionSpec(kind, E5[4], np.eye(5), **dict(zip(PARAMETERS[1], (0.5, -1.5))))
    _no_generation(monkeypatch)
    with pytest.raises(ValueError, match=message):
        run_fuzz(FuzzConfig(count=1, seed=13, kind=kind))


def test_a_numpy_integer_kind_is_stored_as_an_int():
    spec = ConnectionSpec(np.int64(2), E5[4], np.eye(5), a=np.float32(0.5), b=np.int64(-1))
    assert type(spec.kind) is int and spec.kind == 2
    assert [type(v) for v in spec.parameters.values()] == [float, float]
    json.dumps(scenario_from_parts(standard_point(2), spec, E5[:3], np.zeros((2, 3, 3))))


def _no_generation(monkeypatch):
    def no_parts(index, cfg):
        raise AssertionError("an instance was generated")

    monkeypatch.setattr(ckv.fuzz, "_random_parts", no_parts)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-12, True, "1e-8", None,
                                 pytest.param(10 ** 400, id="10**400")])
def test_fuzz_rejects_a_bad_tol_before_generating(monkeypatch, tol):
    # the campaign no longer passes tol through parse_scenario's checks.tol
    _no_generation(monkeypatch)
    with pytest.raises(ValueError, match="^tol must be a finite number >= 0"):
        run_fuzz(FuzzConfig(count=1, seed=13, kind=1, tol=tol))


@pytest.mark.parametrize("field, value", [("seed", -1), ("seed", 1.5), ("seed", True),
                                          ("seed", "13"), ("count", -3), ("count", 2.0),
                                          ("count", False), ("count", None)])
def test_fuzz_rejects_a_bad_count_or_seed_before_generating(monkeypatch, field, value):
    # seed -1 and 1.5 used to fail inside numpy at the first instance, seed
    # True ran as seed 1 and count -3 returned an empty report
    _no_generation(monkeypatch)
    cfg = dataclasses.replace(FuzzConfig(count=1, seed=13, kind=1), **{field: value})
    with pytest.raises(ValueError, match=f"^{field} must be an integer >= 0, got {value!r}$"):
        run_fuzz(cfg)


@pytest.mark.parametrize("m", [1, 0, -2, 2.5, True])
def test_fuzz_rejects_a_bad_m_before_generating(monkeypatch, m):
    # n >= 3 needs 2m + 1 > 3
    _no_generation(monkeypatch)
    with pytest.raises(ValueError, match="^m must be"):
        run_fuzz(FuzzConfig(count=1, seed=13, kind=1, m=m))


@pytest.mark.parametrize("n, m", [(2, None), (5, None), (7, 3), (5, 2), (3.0, 2), (True, 3)])
def test_fuzz_rejects_a_bad_n_before_generating(monkeypatch, n, m):
    # n must fit every m the campaign may draw: n <= 4 when m is drawn
    _no_generation(monkeypatch)
    with pytest.raises(ValueError, match="^n must"):
        run_fuzz(FuzzConfig(count=1, seed=13, kind=1, n=n, m=m))


@pytest.mark.parametrize("n, m", [(None, None), (4, None), (None, 3), (3, 2), (6, 3)])
def test_fuzz_accepts_every_n_that_fits(n, m):
    report = run_fuzz(FuzzConfig(count=2, seed=13, kind=2, n=n, m=m))
    assert report.instances == 2 and report.findings == []


def test_fuzz_runs_the_checked_config_and_serializes_numpy_scalars():
    # a np.float32 tol used to be stored unconverted, so to_json raised
    # TypeError, and a np.int64 count, seed, m or n was rejected
    numpy_cfg = FuzzConfig(count=np.int64(2), seed=np.int64(13), kind=np.int64(1),
                           n=np.int64(3), m=np.int64(2), tol=np.float32(1e-8))
    plain_cfg = FuzzConfig(count=2, seed=13, kind=1, n=3, m=2, tol=float(np.float32(1e-8)))
    report = run_fuzz(numpy_cfg)
    assert report.config == plain_cfg
    assert [type(v) for v in dataclasses.astuple(report.config)] == [int] * 5 + [float]
    assert report.to_json() == run_fuzz(plain_cfg).to_json()


def test_parse_generator_ambient():
    data = _equality_scenario()
    data["ambient"] = {
        "m": 2, "kappa": 0.5, "mu_contact": 1.0, "c": -2.0,
        "generator": {"seed": 11, "hprime_scale": 0.5, "strict_kmu": False},
    }
    parsed = parse_scenario(data)
    assert validate_structure(parsed.sub.model).passed
    again = parse_scenario(data)
    assert np.array_equal(parsed.sub.model.phi, again.sub.model.phi)

    data["ambient"]["generator"]["strict_kmu"] = True
    strict = parse_scenario(data)
    target = (strict.sub.model.kappa - 1.0) * (strict.sub.model.phi @ strict.sub.model.phi)
    assert np.abs(strict.sub.model.hprime @ strict.sub.model.hprime - target).max() < 1e-10

    data["ambient"]["kappa"] = 2.0  # no real solution of the quadratic identity
    with pytest.raises(ScenarioError) as err:
        parse_scenario(data)
    assert "ambient.generator" in str(err.value)


@pytest.mark.parametrize("mutate,path_fragment", [
    (lambda d: d.pop("ambient"), "ambient"),
    (lambda d: d["ambient"].pop("kappa"), "ambient.kappa"),
    (lambda d: d["ambient"].update(phi=[[1.0]]), "ambient.phi"),
    (lambda d: d["connection"].update(kind=7), "connection.kind"),
    (lambda d: d["connection"].pop("lambda1"), "connection.lambda1"),
    (lambda d: d["submanifold"]["hhat"].pop(), "submanifold.hhat"),
    (lambda d: d["submanifold"]["tangent"][0].pop(), "submanifold.tangent[0]"),
    (lambda d: d.update(checks={"theorems": ["9.9"]}), "checks.theorems"),
    (lambda d: d.update(checks={"plane": [0, 9]}), "checks.plane"),
])
def test_parse_errors_carry_field_path(mutate, path_fragment):
    data = _equality_scenario()
    mutate(data)
    with pytest.raises(ScenarioError) as err:
        parse_scenario(data)
    assert path_fragment in str(err.value)


@pytest.mark.parametrize("strict", ["false", 0, 1, None, [True]])
def test_parse_strict_kmu_accepts_only_booleans(strict):
    data = _equality_scenario()
    data["ambient"] = {
        "m": 2, "kappa": 0.5, "mu_contact": 1.0, "c": -2.0,
        "generator": {"seed": 11, "strict_kmu": strict},
    }
    with pytest.raises(ScenarioError) as err:
        parse_scenario(data)
    assert "ambient.generator.strict_kmu" in str(err.value)


@pytest.mark.parametrize("tol", [-1e-8, float("nan"), float("inf")])
def test_parse_rejects_bad_tol(tol):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(_equality_scenario({"tol": tol}))
    assert "checks.tol" in str(err.value)


def test_parse_accepts_zero_tol():
    assert parse_scenario(_equality_scenario({"tol": 0.0})).checks.tol == 0.0


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field", [
    "ambient.c", "ambient.kappa", "ambient.mu_contact",
    "connection.lambda1", "connection.lambda2", "connection.a", "connection.b",
])
def test_non_finite_numbers_are_rejected(tmp_path, capsys, field, value):
    # json reads NaN and Infinity; they used to pass `ckv validate` with exit 0
    data = _equality_scenario()
    if field in ("connection.a", "connection.b"):
        con = data["connection"]
        del con["lambda1"], con["lambda2"]
        con.update(kind=2, a=0.0, b=0.0)
    section, key = field.split(".")
    data[section][key] = value
    with pytest.raises(ScenarioError) as err:
        parse_scenario(data)
    assert err.value.path == field
    assert main(["validate", _write(tmp_path, data)]) == 2
    assert field in capsys.readouterr().err


def _spoil(arr, fault):
    """Put one fault into a scenario array field, in place."""
    first = arr
    while isinstance(first[0], list):
        first = first[0]   # the innermost list holding the first number
    if fault == "huge":
        first[0] = -10 ** 400
    elif fault == "string":
        first[0] = "x"
    elif fault in _NUMBER_LIKE:
        first[0] = _NUMBER_LIKE[fault]
    elif fault == "ragged":
        arr[0] = arr[0][:-1] if isinstance(arr[0], list) else [arr[0], 0.0]
    else:   # "length"
        arr.append(copy.deepcopy(arr[0]))


# entries numpy converts to a float but a scalar field rejects
_NUMBER_LIKE = {"numeric_string": "1.5", "bool": True}
_ARRAY_FIELDS = ["connection.P", "connection.D", "ambient.phi", "ambient.xi", "ambient.hprime",
                 "submanifold.tangent[0]", "submanifold.hhat[0]", "checks.X"]
_BAD_FIELDS = [("ambient.c", "huge")] + [(field, fault) for field in _ARRAY_FIELDS
                                         for fault in ("huge", "ragged", "string", "length",
                                                       *_NUMBER_LIKE)]


@pytest.mark.parametrize("field,fault", _BAD_FIELDS, ids=[
    field if fault == "huge" else f"{field}-{fault}" for field, fault in _BAD_FIELDS])
def test_integers_beyond_the_float_range_are_rejected(tmp_path, capsys, field, fault):
    # a JSON integer float() cannot hold used to escape as an OverflowError;
    # every array field also rejects a ragged, string or bool entry and a
    # wrong length, each at that field's path, a numeric string or a bool in
    # the words a scalar field uses
    data = _equality_scenario({"X": E5[0].tolist()})
    *parents, key = [int(k) if k.isdigit() else k for k in re.split(r"[.\[\]]+", field) if k]
    node = data
    for parent in parents:
        node = node[parent]
    if field == "ambient.c":
        node[key] = 10 ** 400
    else:
        _spoil(node[key], fault)
    with pytest.raises(ScenarioError) as err:
        parse_scenario(data)
    assert err.value.path == field
    if fault in _NUMBER_LIKE:
        assert str(err.value).endswith(f"expected a number, got {type(_NUMBER_LIKE[fault]).__name__}")
    assert main(["validate", _write(tmp_path, data)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}: ")


def test_empty_checks_theorems_is_rejected(tmp_path, capsys):
    # "theorems": [] used to run every theorem of the connection's kind
    data = _equality_scenario({"theorems": []})
    with pytest.raises(ScenarioError) as err:
        parse_scenario(data)
    assert err.value.path == "checks.theorems"
    assert main(["verify", _write(tmp_path, data)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "checks.theorems" in captured.err


def _generator_scenario():
    """A valid kind-2 scenario with a generated ambient."""
    data = _equality_scenario({"theorems": ["4.1", "4.4i"], "plane": [1, 2], "X": E5[2].tolist(),
                               "k": 3, "tol": 1e-8})
    data["ambient"] = {"m": 2, "kappa": 0.5, "mu_contact": 1.0, "c": -2.0,
                       "generator": {"seed": 11, "hprime_scale": 0.5, "strict_kmu": False}}
    data["connection"] = {"kind": 2, "a": 0.5, "b": -0.25, "P": E5[4].tolist(),
                          "D": np.eye(5).tolist()}
    return data


_VALID = [
    _equality_scenario({"theorems": ["3.1"], "plane": [0, 1], "X": E5[0].tolist(),
                        "k": 2, "tol": 1e-8}),
    _generator_scenario(),
]


def _field_paths(node, path=()):
    """Every field of a scenario, list entries through their first one."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = [(0, node[0])]
    else:
        return []
    return [path + (key,) for key, _ in items] + [
        p for key, child in items for p in _field_paths(child, path + (key,))]


_FIELDS = sorted({p for data in _VALID for p in _field_paths(data)}, key=repr)
_SCALARS = (st.none() | st.booleans() | st.floats() | st.text(max_size=6) | st.integers()
            | st.integers(min_value=2 ** 1024) | st.integers(max_value=-2 ** 1024))
_JSON = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(base=st.sampled_from(_VALID), data=st.data())
def test_any_json_in_one_or_two_fields_parses_or_raises_scenario_error(base, data):
    scenario = copy.deepcopy(base)
    for _ in range(data.draw(st.integers(1, 2))):
        path = data.draw(st.sampled_from(_FIELDS))
        value = data.draw(_JSON)
        node = scenario
        try:
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
        except (KeyError, IndexError, TypeError):   # an earlier edit removed the field
            continue
    try:
        parse_scenario(scenario)
    except ScenarioError:
        pass


# --- CLI ---------------------------------------------------------------------

@pytest.mark.parametrize("command", ["validate", "verify"])
def test_cli_huge_generator_m_is_an_input_error(tmp_path, capsys, command):
    # a generated ambient of m = 10^7 would need petabytes; the length-5 P
    # must be rejected before the generator allocates anything
    data = _generator_scenario()
    data["ambient"]["m"] = 10_000_000
    assert main([command, _write(tmp_path, data)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: connection.P")

def _write(tmp_path, data, name="scn.json"):
    path = tmp_path / name
    save_scenario(path, data)
    return str(path)


def test_cli_validate_ok(tmp_path, capsys):
    path = _write(tmp_path, _equality_scenario())
    assert main(["validate", path]) == 0
    out = capsys.readouterr().out
    assert "phi_squared" in out and "PASS" in out


def test_cli_validate_broken_phi(tmp_path, capsys):
    data = _equality_scenario()
    data["ambient"]["phi"] = (-np.eye(5)).tolist()
    path = _write(tmp_path, data)
    assert main(["validate", path]) == 1
    out = capsys.readouterr().out
    assert "phi_squared" in out and "FAIL" in out


def test_cli_validate_malformed(tmp_path, capsys):
    data = _equality_scenario()
    data["ambient"]["phi"] = [[1.0, 2.0]]
    path = _write(tmp_path, data)
    assert main(["validate", path]) == 2
    assert "ambient.phi" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "verify"])
@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000],
                         ids=["not-utf8", "deeply-nested"])
def test_cli_unreadable_json_is_an_input_error(tmp_path, capsys, command, content):
    path = tmp_path / "scn.json"
    path.write_bytes(content)
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: $: ") and len(captured.err.splitlines()) == 1


def test_cli_verify_table_and_exit(tmp_path, capsys):
    path = _write(tmp_path, _equality_scenario())
    assert main(["verify", path, "--theorems", "3.1,3.3,3.5i"]) == 0
    out = capsys.readouterr().out
    assert "3.5i" in out
    slacks = [float(line.split()[3]) for line in out.strip().splitlines()[1:]]
    assert np.allclose(slacks, [0.0, 1.0, 0.0], atol=1e-6)


def test_cli_verify_uses_scenario_checks(tmp_path, capsys):
    path = _write(tmp_path, _equality_scenario({"theorems": ["3.3"], "X": E5[0].tolist()}))
    assert main(["verify", path]) == 0
    assert "3.3" in capsys.readouterr().out


def test_cli_verify_wrong_kind(tmp_path, capsys):
    path = _write(tmp_path, _equality_scenario())
    assert main(["verify", path, "--theorems", "4.1"]) == 2
    assert "kind-2" in capsys.readouterr().err


def test_cli_verify_unknown_theorem(tmp_path, capsys):
    path = _write(tmp_path, _equality_scenario())
    assert main(["verify", path, "--theorems", "9.9"]) == 2


@pytest.mark.parametrize("theorems", [",", "", " , "])
def test_cli_verify_empty_theorem_list_is_an_input_error(tmp_path, capsys, theorems):
    # an explicitly empty --theorems used to run no check and exit 0
    path = _write(tmp_path, _equality_scenario())
    assert main(["verify", path, "--theorems", theorems]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


@pytest.mark.parametrize("theorems", ["3.1,3.1", "3.1, 3.3,3.1"])
def test_cli_verify_repeated_theorem_is_an_input_error(tmp_path, capsys, theorems):
    # a repeated id used to run its check twice and exit 0
    path = _write(tmp_path, _equality_scenario())
    assert main(["verify", path, "--theorems", theorems]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


def test_repeated_checks_theorem_is_rejected(tmp_path, capsys):
    data = _equality_scenario({"theorems": ["3.1", "3.1"]})
    with pytest.raises(ScenarioError) as err:
        parse_scenario(data)
    assert err.value.path == "checks.theorems"
    assert main(["verify", _write(tmp_path, data)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "checks.theorems" in captured.err


def test_cli_verify_reads_checks_k(tmp_path, capsys):
    path = _write(tmp_path, _equality_scenario({"k": 2}))
    assert main(["verify", path, "--theorems", "3.4", "--json"]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    diagnostics = json.loads(line)["diagnostics"]
    assert diagnostics["k"] == 2 and diagnostics["theta_mode"] == "grid"


@pytest.mark.parametrize("k", [1, 4, 2.5, True])
def test_cli_verify_rejects_bad_checks_k(tmp_path, capsys, k):
    path = _write(tmp_path, _equality_scenario({"k": k}))
    assert main(["verify", path, "--theorems", "3.4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "checks.k" in captured.err


def test_cli_verify_json_lines(tmp_path, capsys):
    path = _write(tmp_path, _equality_scenario())
    assert main(["verify", path, "--json", "--theorems", "3.1,3.5i"]) == 0
    lines = [l for l in capsys.readouterr().out.strip().splitlines() if l]
    assert len(lines) == 2
    for line in lines:
        obj = json.loads(line)
        assert {"theorem", "lhs", "rhs", "slack", "holds"} <= set(obj)


@pytest.mark.parametrize("command", ["verify", "validate", "fuzz"])
@pytest.mark.parametrize("tol", ["-1e-8", "nan", "inf", "-inf"])
def test_cli_rejects_bad_tol(tmp_path, capsys, command, tol):
    argv = [command, "--tol", tol]
    if command == "fuzz":
        argv += ["--count", "0"]
    else:
        argv.append(_write(tmp_path, _equality_scenario()))
    assert main(argv) == 2
    assert "--tol" in capsys.readouterr().err


def test_cli_scenario_tol_nan_is_an_input_error(tmp_path, capsys):
    # a NaN tolerance used to turn the exact equality witness into a violation
    data = _equality_scenario({"tol": 0.0})
    data["checks"]["tol"] = float("nan")
    path = _write(tmp_path, data)
    assert main(["verify", path, "--theorems", "3.1"]) == 2
    assert "checks.tol" in capsys.readouterr().err


def _main_without_warnings(argv):
    """main(argv) with any numpy floating-point warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return main(argv)


@pytest.mark.parametrize("section,key", [("submanifold", "hhat"), ("ambient", "c")])
def test_cli_verify_overflow_is_an_input_error(tmp_path, capsys, section, key):
    # these used to print NaN slacks (exit 1) or infinite slacks that "held" (exit 0)
    data = _equality_scenario()
    if key == "hhat":
        data[section][key][0][0][0] = 1e200
    else:
        data[section][key] = 1e308
    path = _write(tmp_path, data)
    assert _main_without_warnings(["verify", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-finite" in captured.err
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


@pytest.mark.parametrize("theorems,overflow,line", [
    ("4.1", False, "error: 4.1 needs a kind-2 connection"),
    ("3.1", True, "error: 3.1: non-finite side (lhs nan, rhs inf)"),
], ids=["wrong-kind", "overflow"])
def test_cli_verify_error_names_the_theorem_once(tmp_path, capsys, theorems, overflow, line):
    data = _equality_scenario()
    if overflow:
        data["submanifold"]["hhat"][0][0][0] = 1e200
    assert main(["verify", _write(tmp_path, data), "--theorems", theorems]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == line + "\n"


def test_cli_verify_theta_overflow_is_an_input_error(tmp_path, capsys):
    data = _equality_scenario()
    data["ambient"]["c"] = 1e308
    assert _main_without_warnings(["verify", _write(tmp_path, data), "--theorems", "3.4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "overflows" in captured.err
    assert len(captured.err.splitlines()) == 1


def test_cli_case_commands(tmp_path, capsys):
    out_file = tmp_path / "case.json"
    assert main(["case", "--id", "cor32", "--params", "h11=1,h22=1",
                 "--out", str(out_file)]) == 0
    text = capsys.readouterr().out
    assert "slack" in text
    data = load_scenario(out_file)
    parsed = parse_scenario(data)
    assert parsed.checks.theorems == ["3.1"]
    assert main(["case", "--id", "thm35_i", "--params", "a=1"]) == 0
    assert main(["case", "--id", "thm35_i", "--params", "a=0"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("params", ["h11=1,h11=2", "h11=1, h11 =1"])
def test_cli_case_repeated_param_is_an_input_error(capsys, params):
    # a repeated key used to keep its last value and exit 0
    assert main(["case", "--id", "cor32", "--params", params]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "'h11'" in captured.err


@pytest.mark.parametrize("case,params", [
    ("cor32", "h11=nan"), ("cor32", "h11=1e200"), ("thm35_i", "a=inf"),
])
def test_cli_case_non_finite_params_are_an_input_error(capsys, case, params):
    # these used to end in a traceback and exit 1
    assert _main_without_warnings(["case", "--id", case, "--params", params]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


@pytest.mark.parametrize("case", ["cor32", "thm35_i", "thm35_ii"])
@pytest.mark.parametrize("n", [-3, 0, 1, 2])
def test_cli_case_small_n_is_an_input_error(capsys, case, n):
    # n = 0 and 1 used to end in an IndexError traceback and exit 1, and a
    # negative n in numpy's "negative dimensions" error
    assert _main_without_warnings(["case", "--id", case, "--n", str(n)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


def test_cli_case_unknown_id():
    # argparse rejects unknown choices with exit code 2
    assert main(["case", "--id", "bogus"]) == 2


def test_cli_fuzz_count_zero(tmp_path, capsys):
    assert main(["fuzz", "--count", "0", "--kind", "1"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["reports"][0]["summary"]["instances"] == 0


def test_cli_fuzz_rejects_negative_count(capsys):
    assert main(["fuzz", "--count", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "--count" in captured.err


@pytest.mark.parametrize("argv", [
    ["fuzz", "--count", "1", "--seed", "-1"],
    ["case", "--id", "cor32", "--seed", "-1"],
])
def test_cli_rejects_negative_seed(capsys, argv):
    # a negative fuzz seed used to end in numpy's traceback and exit 1
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "--seed" in captured.err


def test_cli_fuzz_rejects_negative_env_seed(monkeypatch, capsys):
    monkeypatch.setenv("CKV_SEED", "-3")
    assert main(["fuzz", "--count", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: CKV_SEED: value must be an integer >= 0, got -3\n"


def test_cli_fuzz_out_onto_a_file_is_an_input_error(tmp_path, capsys):
    blocker = tmp_path / "report"
    blocker.write_text("", encoding="utf-8")
    assert main(["fuzz", "--count", "1", "--kind", "1", "--out", str(blocker)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(blocker) in captured.err


def test_cli_fuzz_bad_out_fails_before_the_campaign(tmp_path, monkeypatch, capsys):
    def no_campaign(cfg):
        raise AssertionError("run_fuzz ran before --out was checked")

    monkeypatch.setattr("ckv.cli.run_fuzz", no_campaign)
    blocker = tmp_path / "report"
    blocker.write_text("", encoding="utf-8")
    assert main(["fuzz", "--count", "1", "--out", str(blocker)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(blocker) in captured.err


def test_cli_case_out_in_a_missing_directory_is_an_input_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    assert main(["case", "--id", "cor32", "--out", str(target)]) == 2
    assert "error: " in capsys.readouterr().err
    assert not target.exists()


@pytest.mark.parametrize("command", ["case", "verify"])
def test_cli_out_of_memory_is_an_input_error(command, tmp_path, monkeypatch, capsys):
    # input too large to allocate (``ckv case --id thm35_i --n 100000`` asks
    # for a 224 GiB curvature tensor) is exit 2 with one line, no traceback
    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 224. GiB for an array")

    path = tmp_path / "scenario.json"
    save_scenario(str(path), _equality_scenario())
    target, argv = {
        "case": ("equality_instance", ["case", "--id", "thm35_i", "--n", "100000"]),
        "verify": ("parse_scenario", ["verify", str(path)]),
    }[command]
    monkeypatch.setattr(f"ckv.cli.{target}", too_large)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory: Unable to allocate 224. GiB for an array\n"


def test_cli_fuzz_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["fuzz", "--count", "6", "--seed", "5", "--kind", "1", "--out", str(out1)]) == 0
    assert main(["fuzz", "--count", "6", "--seed", "5", "--kind", "1", "--out", str(out2)]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_cli_fuzz_env_seed(tmp_path, monkeypatch):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    monkeypatch.setenv("CKV_SEED", "99")
    assert main(["fuzz", "--count", "4", "--kind", "2", "--out", str(out1)]) == 0
    monkeypatch.delenv("CKV_SEED")
    assert main(["fuzz", "--count", "4", "--seed", "99", "--kind", "2", "--out", str(out2)]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_fuzz_report_contents():
    report = run_fuzz(FuzzConfig(count=8, seed=13, kind=2))
    data = report.to_dict()
    assert data["summary"]["instances"] == 8
    assert data["provenance"]["layout_version"]
    assert not data["findings"]
    assert set(data["summary"]["min_slack"]) == {"4.1", "4.2", "4.3", "4.4i", "4.4ii"}


def test_fuzz_report_without_cross_checks_is_strict_json(monkeypatch, capsys):
    # an instance that fails structure validation is counted but never cross
    # checked; with no cross check at all, max_cross_residual, min_q and
    # min_cauchy_schwarz are null (the minima used to be the non-JSON
    # Infinity, the maximum a perfect 0.0)
    failed = ValidationReport((StructureCheck("planted", 1.0, False),))
    monkeypatch.setattr(ckv.fuzz, "validate_structure", lambda model: failed)

    def reject(token):
        raise ValueError(f"not JSON: {token}")

    summary = json.loads(run_fuzz(FuzzConfig(count=2, seed=13, kind=1)).to_json(),
                         parse_constant=reject)["summary"]
    assert (summary["instances"], summary["findings"]) == (2, 2)
    assert summary["min_q"] is None and summary["min_cauchy_schwarz"] is None
    assert summary["max_cross_residual"] is None
    assert main(["fuzz", "--count", "2", "--kind", "2"]) == 1
    captured = capsys.readouterr()
    (report,) = json.loads(captured.out, parse_constant=reject)["reports"]
    assert report["summary"]["min_q"] is None and report["summary"]["min_cauchy_schwarz"] is None
    assert report["summary"]["max_cross_residual"] is None
    assert "max cross residual n/a" in captured.err


def _loose_casorati_bounds(monkeypatch):
    # bounds far outside the true extrema: the certified slack is negative,
    # while the search's estimate still holds
    monkeypatch.setattr(ckv.verifier, "casorati_bounds", lambda sub: (-1e3, 1e3))


def test_cli_verify_a_failed_certificate_is_a_violation(tmp_path, monkeypatch, capsys):
    # the certificate alone decides: a negative certified slack is a plain
    # violation, whatever the search's estimate says
    _loose_casorati_bounds(monkeypatch)
    path = _write(tmp_path, random_scenario(0, FuzzConfig(seed=11, kind=1)))
    assert main(["verify", path, "--json", "--theorems", "3.1,3.5i,3.5ii"]) == 1
    chen, *bounds = (json.loads(line) for line in capsys.readouterr().out.splitlines())
    assert chen["holds"]
    for obj in bounds:
        diag = obj["diagnostics"]
        assert obj["holds"] is False and "undecided" not in diag
        assert "slack" not in diag["certificate"]
        assert obj["slack"] < 0.0 <= diag["estimate_slack"]
    assert main(["verify", path, "--theorems", "3.5ii"]) == 1
    assert capsys.readouterr().out.splitlines()[1].endswith("  False")


def test_fuzz_reports_a_failed_certificate_as_findings(monkeypatch):
    # each violated bound is a plain finding, and the cross check's floor
    # residual names the loose bounds as a finding of its own
    _loose_casorati_bounds(monkeypatch)
    report = run_fuzz(FuzzConfig(count=1, seed=11, kind=2))
    theorems = [f["check"].get("theorem") for f in report.findings]
    assert theorems == ["4.4i", "4.4ii", None]
    assert all("undecided" not in f for f in report.findings)
    assert "casorati_floor" in report.findings[-1]["check"]["cross_check"]
    assert report.min_slack["4.4i"] < 0.0 and report.min_slack["4.4ii"] < 0.0


@pytest.mark.parametrize("kind", [1, 2])
def test_fuzz_runs_no_casorati_search(monkeypatch, kind):
    # every 3.5/4.4 verdict and Q of a campaign come from the certificate,
    # also when it fails and the findings are shrunk
    def no_search(sub):
        raise AssertionError("the Casorati sphere search ran")

    monkeypatch.setattr(ckv.submanifold, "casorati", no_search)
    monkeypatch.setattr(ckv.verifier, "casorati", no_search)
    report = run_fuzz(FuzzConfig(count=200, kind=kind))
    assert report.instances == 200 and report.findings == []
    _loose_casorati_bounds(monkeypatch)
    report = run_fuzz(FuzzConfig(count=4, kind=kind))
    assert len(report.findings) == 3 * 4


REPLAY_ARRAYS = ("tangent", "normal", "h", "hhat", "riem")


@pytest.mark.parametrize("n, m", [(None, None), (4, 3), (3, 2)])
@pytest.mark.parametrize("kind", [1, 2])
def test_fuzz_instance_is_the_parse_of_its_scenario(monkeypatch, kind, n, m):
    # the campaign attaches its generated arrays directly; the scenario it
    # saves for a finding must parse back to the very point it checked
    checked = []

    def record(sub):
        checked.append(sub)
        return ckv.verifier.cross_check(sub)

    monkeypatch.setattr(ckv.fuzz, "cross_check", record)
    cfg = FuzzConfig(count=50, seed=20240817, kind=kind, n=n, m=m)
    assert run_fuzz(cfg).findings == []
    assert len(checked) == 50
    for i, direct in enumerate(checked):
        parsed = parse_scenario(random_scenario(i, cfg)).sub
        for name in REPLAY_ARRAYS:
            a, b = getattr(direct, name), getattr(parsed, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), (i, name)


@pytest.mark.parametrize("n, m", [(None, None), (4, 3)])
@pytest.mark.parametrize("kind", [1, 2])
def test_fuzz_validation_finding_carries_its_scenario(monkeypatch, kind, n, m):
    failed = ValidationReport((StructureCheck("planted", 1.0, False),))
    monkeypatch.setattr(ckv.fuzz, "validate_structure", lambda model: failed)
    cfg = FuzzConfig(count=50, seed=20240817, kind=kind, n=n, m=m)
    findings = run_fuzz(cfg).findings
    assert [f["instance"] for f in findings] == list(range(50))
    for i, finding in enumerate(findings):
        assert json.dumps(finding["scenario"]) == json.dumps(random_scenario(i, cfg))


def test_clean_fuzz_campaign_serializes_no_scenario(monkeypatch):
    # a scenario dict is built only for a finding
    def no_scenario(*args):
        raise AssertionError("a scenario was serialized")

    monkeypatch.setattr(ckv.fuzz, "scenario_from_parts", no_scenario)
    monkeypatch.setattr(ckv.scenario, "parse_scenario", no_scenario)
    for kind in (1, 2):
        assert run_fuzz(FuzzConfig(count=20, seed=13, kind=kind)).findings == []


def test_fuzz_summary_keeps_a_nan_cross_residual(monkeypatch):
    # Python's max drops a NaN that is not its first argument: a NaN residual
    # after a finite one must still reach the campaign's summary
    calls = []

    def nan_on_second(sub):
        report = ckv.verifier.cross_check(sub)
        calls.append(sub)
        if len(calls) == 2:
            report = dataclasses.replace(report, residuals={**report.residuals, "R_pair": np.nan})
        return report

    monkeypatch.setattr(ckv.fuzz, "cross_check", nan_on_second)
    report = run_fuzz(FuzzConfig(count=3, seed=11, kind=1))
    assert len(calls) >= 3 and np.isnan(report.max_cross_residual)


def test_fuzz_minimizer_shrinks_a_planted_failure():
    # plant an impossible check by flipping a verdict through absurd tolerance:
    # instead, exercise the zeroing machinery directly on a scenario's arrays
    from ckv.fuzz import _zeroed
    sub = parse_scenario(_equality_scenario()).sub
    data = {"model": sub.model, "spec": sub.spec, "hhat": sub.hhat}
    out = _zeroed(data, ("submanifold", "hhat"))
    assert np.abs(np.asarray(out["hhat"])).max() == 0.0
    assert np.abs(np.asarray(data["hhat"])).max() > 0.0


@pytest.mark.parametrize("plant, named", [
    (lambda cc: {"residuals": {**cc.residuals, "R_pair": np.nan}}, {"R_pair"}),
    (lambda cc: {"cauchy_schwarz_slack": -1.0}, {"cauchy_schwarz_slack"}),
], ids=["nan-residual", "negative-cauchy-schwarz"])
def test_fuzz_cross_check_finding_names_what_failed(monkeypatch, plant, named):
    # a NaN residual (NaN > tol is false) and a negative Cauchy-Schwarz
    # slack used to leave the finding's "cross_check" record empty
    def planted(sub):
        report = ckv.verifier.cross_check(sub)
        return dataclasses.replace(report, **plant(report))

    monkeypatch.setattr(ckv.fuzz, "cross_check", planted)
    report = run_fuzz(FuzzConfig(count=2, seed=11, kind=1))
    assert [f["instance"] for f in report.findings] == [0, 1]
    for finding in report.findings:
        assert set(finding["check"]["cross_check"]) == named
        assert set(finding["check"]) == {"cross_check", "q_min"}


@pytest.mark.parametrize("kind", [1, 2])
def test_fuzz_findings_are_built_from_the_instance_in_hand(monkeypatch, kind):
    # a finding is shrunk on the instance's arrays and its scenario written
    # once: the campaign neither replays the generator nor parses a scenario
    calls = []

    def recorded(module, name):
        real = getattr(module, name, None)

        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, call, raising=False)

    for module in (ckv.fuzz, ckv.scenario):
        recorded(module, "parse_scenario")
    recorded(ckv.fuzz, "random_scenario")
    recorded(ckv.fuzz, "scenario_from_parts")
    _loose_casorati_bounds(monkeypatch)
    report = run_fuzz(FuzzConfig(count=4, seed=11, kind=kind))
    assert len(report.findings) == 3 * 4
    assert calls == ["scenario_from_parts"] * len(report.findings)


def test_a_shrunk_finding_parses_back_to_the_point_last_kept(tmp_path, monkeypatch, capsys):
    # the scenario of each finding is the last point the shrinker kept (the
    # instance itself when it kept none), array for array, and ckv verify
    # on an inequality finding's file fails again.  The paper's pair tensor
    # off by 0.1% fails every cross check and flips a few near-tight verdicts
    real_pair_tensor = ckv.verifier._pair_tensor
    monkeypatch.setattr(ckv.verifier, "_pair_tensor", lambda sub: real_pair_tensor(sub) * 1.001)
    kept, outcomes = [], []
    real_minimize, real_still_fails = ckv.fuzz.minimize_finding, ckv.fuzz._still_fails

    def minimize(model, spec, tangent, hhat, X, frame, check, tol):
        kept.append(ckv.submanifold._attach_frame(model, spec, frame, hhat))
        return real_minimize(model, spec, tangent, hhat, X, frame, check, tol)

    def still_fails(point, frame, check, tol):
        outcomes.append(real_still_fails(point, frame, check, tol))
        if outcomes[-1]:
            kept[-1] = ckv.submanifold._attach_frame(point["model"], point["spec"], frame,
                                                     point["hhat"])
        return outcomes[-1]

    monkeypatch.setattr(ckv.fuzz, "minimize_finding", minimize)
    monkeypatch.setattr(ckv.fuzz, "_still_fails", still_fails)
    findings = [finding for kind in (1, 2)
                for finding in run_fuzz(FuzzConfig(count=40, seed=4242, kind=kind)).findings]
    assert len(findings) == len(kept) and False in outcomes
    inequalities = 0
    for finding, point in zip(findings, kept):
        parsed = parse_scenario(finding["scenario"]).sub
        for name in REPLAY_ARRAYS:
            a, b = getattr(point, name), getattr(parsed, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), (finding["instance"], name)
        if "theorem" in finding["check"]:
            inequalities += 1
            path = _write(tmp_path, finding["scenario"])
            assert main(["verify", path]) == 1
    assert inequalities > 0
    capsys.readouterr()


def test_fuzz_finding_replays_its_failing_check(tmp_path, monkeypatch, capsys):
    # a verdict that fails only 3.1 on the frame plane (1, 2), in the campaign's
    # decide and in ckv verify's verify: the saved finding must carry that
    # check, so that ckv verify on it fails the same way
    def planted(sub, theorem_id, plane, verdict):
        if theorem_id == "3.1" and np.allclose([plane.e1, plane.e2], sub.tangent[1:3]):
            return dataclasses.replace(verdict, holds=False)
        return verdict

    real_decide, real_verify = ckv.fuzz.decide, ckv.cli.verify

    def planted_decide(sub, theorem_id, value, tol):
        return planted(sub, theorem_id, value, real_decide(sub, theorem_id, value, tol))

    def planted_verify(sub, theorem_id, plane=None, **kwargs):
        return planted(sub, theorem_id, plane, real_verify(sub, theorem_id, plane=plane, **kwargs))

    monkeypatch.setattr(ckv.fuzz, "decide", planted_decide)
    monkeypatch.setattr(ckv.cli, "verify", planted_verify)
    out = tmp_path / "out"
    assert main(["fuzz", "--count", "1", "--kind", "1", "--seed", "3", "--out", str(out)]) == 1
    (finding,) = out.glob("finding_*.json")
    data = load_scenario(finding)
    assert data["checks"] == {"theorems": ["3.1"], "plane": [1, 2], "tol": DEFAULT_TOL}
    # the planted failure ignores every parameter, so the shrinker zeroes them all
    for section, key in _zeroing_candidates(1):
        assert not np.any(data[section][key]), (section, key)
    assert main(["verify", str(finding)]) == 1
    capsys.readouterr()
