"""Spans around calls into ckv's public functions, installed from outside.

``Tracer.install`` replaces each traced function on every ``ckv`` module that
binds it (the attribute its callers resolve at call time, such as
``ckv.fuzz.verify`` or ``ckv.verifier.casorati``) and ``remove`` puts the
originals back.  The program's source is never edited.

A span is ``[name, start, end, parent, unit, extra]``, kept in memory and
written out only at the end.  Self time is a span's duration minus the
durations of its direct children; calls never overlap because every unit
runs on one thread.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np

# (home module, function, span name); the name of a theta_k span gets the
# mode of its result appended, and that of a verify span the theorem id.
TARGETS = [
    ("ckv.fuzz", "run_fuzz", "fuzz.run_fuzz"),
    ("ckv.fuzz", "random_scenario", "fuzz.gen"),
    ("ckv.fuzz", "minimize_finding", "fuzz.shrink"),
    ("ckv.scenario", "load_scenario", "scenario.load"),
    ("ckv.scenario", "parse_scenario", "scenario.parse"),
    ("ckv.contact", "validate_structure", "contact.validate_structure"),
    ("ckv.contact", "random_point", "contact.random_point"),
    ("ckv.submanifold", "attach", "submanifold.attach"),
    ("ckv.submanifold", "casorati", "submanifold.casorati"),
    ("ckv.submanifold", "theta_k", "submanifold.theta_k"),
    ("ckv.spheresearch", "refine_on_sphere", "spheresearch.refine"),
    ("ckv.spheresearch", "extremize_on_sphere", "spheresearch.extremize"),
    ("ckv.spheresearch", "sphere_samples", "spheresearch.sphere_samples"),
    ("ckv.verifier", "verify", "verifier.verify"),
    ("ckv.verifier", "cross_check", "verifier.cross_check"),
    ("ckv.verifier", "equality_instance", "verifier.equality_instance"),
    ("ckv.cli", "main", "cli.main"),
]

NAME, START, END, PARENT, UNIT, EXTRA = range(6)


def known_span(name: str) -> bool:
    """Whether spans of this name are recorded."""
    if name.startswith(("submanifold.theta_k.", "verifier.verify.")):
        return True
    return name in {target[2] for target in TARGETS}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.casorati_results: list = []   # (h, inf_CL, sup_CL) per cache miss
        self._stack: list[int] = []
        self._unit = None
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._unit, None])
        self._stack.append(index)
        return index

    def _close(self, index: int):
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    def run_unit(self, unit_id: int, fn, *args):
        """Run one benchmark unit as a root span named ``unit``."""
        self._unit = unit_id
        index = self._open("unit")
        try:
            return fn(*args)
        finally:
            self._close(index)
            self._unit = None

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, name: str):
        if name == "submanifold.theta_k":
            return self._wrap_theta(fn)
        if name == "verifier.verify":
            return self._wrap_verify(fn)
        if name == "spheresearch.refine":
            return self._wrap_refine(fn)
        if name == "submanifold.casorati":
            return self._wrap_casorati(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)
        return wrapper

    def _wrap_theta(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open("submanifold.theta_k.error")
            try:
                result = fn(*args, **kwargs)
                self.spans[index][NAME] = f"submanifold.theta_k.{result.mode}"
                return result
            finally:
                self._close(index)
        return wrapper

    def _wrap_verify(self, fn):
        @functools.wraps(fn)
        def wrapper(sub, theorem_id, *args, **kwargs):
            index = self._open(f"verifier.verify.{theorem_id}")
            try:
                return fn(sub, theorem_id, *args, **kwargs)
            finally:
                self._close(index)
        return wrapper

    def _wrap_refine(self, fn):
        @functools.wraps(fn)
        def wrapper(f_batch, *args, **kwargs):
            rows = [0]

            def counted(U):
                rows[0] += len(U)
                return f_batch(U)

            index = self._open("spheresearch.refine")
            try:
                return fn(counted, *args, **kwargs)
            finally:
                self.spans[index][EXTRA] = rows[0]
                self._close(index)
        return wrapper

    def _wrap_casorati(self, fn):
        @functools.wraps(fn)
        def wrapper(sub, *args, **kwargs):
            cached = {id(v) for v in sub.cache.values()}
            index = self._open("submanifold.casorati")
            try:
                result = fn(sub, *args, **kwargs)
            finally:
                self._close(index)
            hit = id(result) in cached
            self.spans[index][EXTRA] = hit
            if not hit:
                self.casorati_results.append((sub.h, result.inf_CL, result.sup_CL))
            return result
        return wrapper

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "ckv" or name.startswith("ckv."))]
        for home, attr, name in TARGETS:
            original = getattr(sys.modules[home], attr)
            wrapper = self._wrap(original, name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, original))

    def remove(self):
        for module, key, original in reversed(self._restore):
            setattr(module, key, original)
        self._restore.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> np.ndarray:
        child = np.zeros(len(self.spans))
        for span in self.spans:
            if span[PARENT] is not None:
                child[span[PARENT]] += span[END] - span[START]
        dur = np.array([s[END] - s[START] for s in self.spans])
        return dur - child

    def totals(self, units=None, scales=None) -> dict:
        """Per span name: calls, self and inclusive seconds, refine rows and
        casorati cache hits.

        ``units`` restricts the totals to spans of those unit ids; times of
        unit i are multiplied by ``scales[i]`` when given.
        """
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "points": 0, "hits": 0})
        for span, own in zip(self.spans, self.self_times()):
            if units is not None and span[UNIT] not in units:
                continue
            scale = 1.0 if scales is None else scales[span[UNIT]]
            entry = out[span[NAME]]
            entry["calls"] += 1
            entry["self_s"] += own * scale
            entry["incl_s"] += (span[END] - span[START]) * scale
            if span[NAME] == "spheresearch.refine":
                entry["points"] += span[EXTRA]
            elif span[NAME] == "submanifold.casorati":
                entry["hits"] += bool(span[EXTRA])
        return dict(out)

    def counts(self, units) -> dict:
        """Deterministic per-name counts (calls, refine rows, cache hits)."""
        return {name: (e["calls"], e["points"], e["hits"])
                for name, e in sorted(self.totals(units).items())}

    def write(self, path, header: dict):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
