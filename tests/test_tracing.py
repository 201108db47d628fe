"""``bench/tracing.py`` installed on a live ``ckv``: every target resolves and
is patched, the search spans are recorded, and ``remove`` puts the originals
back.  A renamed function or a changed ``f_batch`` call that would crash
``bench/run.py --trace 1`` fails here."""

import importlib.util
import sys
from pathlib import Path

import ckv.cli  # noqa: F401  (the tracer patches ``ckv.cli.main`` too)
from ckv import fuzz, scenario, spheresearch, submanifold, verifier

ROOT = Path(__file__).resolve().parents[1]


def _load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_the_theta_and_fuzz_spans(monkeypatch):
    rows = []
    partial_ricci_min = submanifold._partial_ricci_min

    def counted(sub, X, k):
        rows.append(len(X))
        return partial_ricci_min(sub, X, k)
    monkeypatch.setattr(submanifold, "_partial_ricci_min", counted)
    tracing = _load_tracing()
    originals = {(home, attr): getattr(sys.modules[home], attr)
                 for home, attr, _ in tracing.TARGETS}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = {(module.__name__, key) for module, key, _ in tracer._restore}
        assert set(originals) <= patched

        def theta_unit():
            # one n = 4 theta_sweep unit: 3.4 at every k < n
            data = fuzz.random_scenario(6, fuzz.FuzzConfig(seed=11, kind=1, n=4))
            sub = scenario.parse_scenario(data).sub
            return [verifier.verify(sub, "3.4", k=k) for k in (2, 3)]
        verdicts = tracer.run_unit(0, theta_unit)
        theta_rows = sum(rows)
        report = tracer.run_unit(1, fuzz.run_fuzz, fuzz.FuzzConfig(count=1, seed=11, kind=2))
    finally:
        tracer.remove()
    assert all(getattr(sys.modules[home], attr) is fn for (home, attr), fn in originals.items())
    assert [v.diagnostics["theta_mode"] for v in verdicts] == ["multistart"] * 2
    assert report.instances == 1
    theta = tracer.totals({0})
    for name in ("spheresearch.refine", "spheresearch.extremize",
                 "submanifold.theta_k.multistart", "verifier.verify.3.4"):
        assert name in theta, name
    # both k < n come from one refine, whose rows the tracer counts: every
    # row the refine's objective evaluates, and not the layout that
    # picked its starts
    assert theta["spheresearch.refine"]["calls"] == 1
    assert theta["spheresearch.refine"]["points"] == theta_rows - spheresearch.LAYOUT_SIZE > 0
    assert theta["submanifold.theta_k.multistart"]["calls"] == 2
    assert "fuzz.run_fuzz" in tracer.totals({1})
    assert all(tracing.known_span(span[tracing.NAME]) or span[tracing.NAME] == "unit"
               for span in tracer.spans)
