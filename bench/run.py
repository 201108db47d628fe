"""ckv benchmark: one workload per invocation.

    python3 bench/run.py --workload campaign --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation
installed; ``--trace 1`` measures the per-layer metrics from spans recorded
around calls into ckv (see tracing.py).  Metric names and units come from
BENCHMARK.json at the checkout root.  Every unit's output is checked; the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Spans are written to
``.bench_out/spans-WORKLOAD.jsonl``.  Exits 2 without a result when the
program's source is not in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import hostspeed
import program

SETUP_PROBES = 5          # fresh processes per run for setup_s; the median is reported
UNTRACED_SHARE = 1 / 3    # of --seconds, in a traced run, spent untraced for the overhead
TRACE_BLOCK_S = 1.5       # untraced and traced blocks alternate, so drift hits both alike


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Loop:
    """Closed loop over a workload's units: one unit in flight, each timed
    and then checked outside its timed interval."""

    def __init__(self, wl):
        self.wl = wl
        self.latencies: list[float] = []
        self.problems: list[tuple[int, str]] = []
        self.kernel: list[float] = []   # host-speed samples, one before each unit and one after the last

    def run(self, call, seconds: float, min_units: int, keep: int = 0) -> list:
        """Run units, continuing after the last one run, until ``seconds`` have
        passed and this loop has done at least ``min_units``; ``call(i, unit)``
        runs unit i.  Returns the fingerprints of outputs of units below ``keep``."""
        kept = []
        deadline = time.perf_counter() + seconds
        if not self.kernel:
            self.kernel.append(hostspeed.sample())
        while len(self.latencies) < min_units or time.perf_counter() < deadline:
            i = len(self.latencies)
            unit = self.wl.units[i % len(self.wl.units)]
            out, problem = None, None
            t0 = time.perf_counter()
            try:
                out = call(i, unit)
            except Exception as exc:  # a failing unit is counted, the run goes on
                problem = f"{type(exc).__name__}: {exc}"
            self.latencies.append(time.perf_counter() - t0)
            self.kernel.append(hostspeed.sample())
            if problem is None:
                problem = self.wl.check(unit, out)
            if problem is not None:
                self.problems.append((i, problem))
            if i < keep:
                kept.append(None if out is None else self.wl.fingerprint(out))
        return kept

    @property
    def scales(self) -> list[float]:
        return hostspeed.scales(self.kernel)

    @property
    def scaled(self) -> list[float]:
        """Unit seconds at the reference host speed."""
        return [t * f for t, f in zip(self.latencies, self.scales)]


def first_line_seconds(argv, env, problems: list[str]) -> float:
    """Wall time from spawning ``argv`` to its first line on stdout; a
    failing process is added to ``problems``."""
    t0 = time.perf_counter()
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait()
    if code != 0 or not line:
        problems.append(f"set-up probe {argv[1:]} exited {code}")
    return elapsed


def wall_seconds(argv, env) -> float:
    t0 = time.perf_counter()
    subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def replay_problems(wl, kept: list) -> list[str]:
    """Outputs of the first units, run again, must repeat byte for byte."""
    out = []
    for i, fp in enumerate(kept):
        again = wl.fingerprint(wl.run(wl.units[i]))
        if fp is None or again != fp:
            out.append(f"unit {i}: replay output differs")
    return out


def probe_medians(seconds_fn) -> tuple[float, float]:
    """Median (scaled, raw) of SETUP_PROBES calls of ``seconds_fn()``, which
    starts a process and returns the seconds it measured."""
    raw, kernel = [], [hostspeed.sample()]
    for _ in range(SETUP_PROBES):
        raw.append(seconds_fn())
        kernel.append(hostspeed.sample())
    scaled = [t * f for t, f in zip(raw, hostspeed.scales(kernel))]
    return statistics.median(scaled), statistics.median(raw)


def latency_metrics(seconds: list[float]) -> tuple[float, float, float]:
    """(throughput per second, p50 ms, p90 ms) of unit times in seconds."""
    ms = [x * 1e3 for x in seconds]
    return len(ms) / sum(seconds), statistics.median(ms), statistics.quantiles(ms, n=10)[-1]


def end_to_end(wl, args, env) -> tuple[dict, list[Loop], list[str]]:
    probe, problems = wl.probe_argv(args.seed), []
    setup, setup_raw = probe_medians(lambda: first_line_seconds(probe, env, problems))
    for unit in wl.units[: wl.warmup]:
        wl.traced(unit)
    loop = Loop(wl)
    kept = loop.run(lambda i, unit: wl.run(unit), args.seconds, wl.min_units, wl.replays)
    who = resource.RUSAGE_CHILDREN if wl.name == "cli_verify" else resource.RUSAGE_SELF
    peak_kib = resource.getrusage(who).ru_maxrss
    throughput, p50, p90 = latency_metrics(loop.scaled)
    metrics = {
        "throughput_per_s": throughput,
        "latency_ms_p50": p50,
        "latency_ms_p90": p90,
        "setup_s": setup,
        "peak_rss_mb": peak_kib / 1024.0,
    }
    raw = latency_metrics(loop.latencies)
    print(f"latency samples: {len(loop.latencies)} units; setup_s: median of {SETUP_PROBES} "
          f"fresh processes; output checks are outside the timed intervals")
    print(f"host speed: kernel median {statistics.median(loop.kernel) * 1e3:.3f} ms against "
          f"the reference {hostspeed.REFERENCE_S * 1e3:.3f} ms; unscaled: throughput_per_s "
          f"{raw[0]:.6g}, latency_ms_p50 {raw[1]:.6g}, latency_ms_p90 {raw[2]:.6g}, "
          f"setup_s {setup_raw:.6g}")
    return metrics, [loop], problems + replay_problems(wl, kept)


def per_layer(wl, args, env, declared) -> tuple[dict, list[Loop], list[str]]:
    import oracle
    import tracing

    interp, _ = probe_medians(lambda: wall_seconds([sys.executable, "-c", "pass"], env))
    imp, _ = probe_medians(lambda: wall_seconds([sys.executable, "-c", "import ckv"], env))
    for unit in wl.units[: wl.warmup]:
        wl.traced(unit)

    untraced, loop = Loop(wl), Loop(wl)
    tracer = tracing.Tracer()
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or len(loop.latencies) < wl.count_window:
        untraced.run(lambda i, unit: wl.traced(unit), TRACE_BLOCK_S * UNTRACED_SHARE, 1)
        tracer.install()
        try:
            loop.run(lambda i, unit: tracer.run_unit(i, wl.traced, unit),
                     TRACE_BLOCK_S * (1 - UNTRACED_SHARE), 1)
        finally:
            tracer.remove()
    replay = tracing.Tracer()
    replay.install()
    try:
        for i in range(wl.count_window):
            replay.run_unit(i, wl.traced, wl.units[i])
    finally:
        replay.remove()
    window = range(wl.count_window)
    problems = []
    if replay.counts(window) != tracer.counts(window):
        problems.append("layer counts of the first units differ on replay")

    gaps = [g for h, lo, hi in tracer.casorati_results for g in oracle.permissive_gaps(h, lo, hi)]
    misses = sum(g > oracle.MISS_REL for g in gaps)
    units = len(loop.latencies)
    common = min(units, len(untraced.latencies))
    unit_s = sum(loop.scaled)
    tot, win = tracer.totals(scales=loop.scales), tracer.totals(window)
    get = lambda table, name, key: table.get(name, {}).get(key, 0)
    cas_calls = get(win, "submanifold.casorati", "calls")
    special = {
        "submanifold.casorati.cache_hit_ratio":
            get(win, "submanifold.casorati", "hits") / cas_calls if cas_calls else 0.0,
        "submanifold.casorati.oracle_checks": len(gaps),
        "submanifold.casorati.miss_rate": misses / len(gaps) if gaps else 0.0,
        "submanifold.casorati.worst_gap": max([0.0, *gaps]),
        "cli.interpreter_ms": interp * 1e3,
        "cli.import_ms": (imp - interp) * 1e3,
        "cli.main_ms": (statistics.median(untraced.scaled) * 1e3
                        if wl.name == "cli_verify" else 0.0),
        "trace.units": units,
        "trace.unit_ms": unit_s / units * 1e3,
        "trace.other_self_ms": get(tot, "unit", "self_s") / units * 1e3,
        "trace.search_share": (get(tot, "submanifold.casorati", "self_s")
                               + get(tot, "spheresearch.refine", "self_s")) / unit_s,
        # over the units both loops ran, so that both time the same inputs
        "trace.overhead_frac": 1.0 - sum(untraced.scaled[:common]) / sum(loop.scaled[:common]),
    }
    # Any other metric is SPAN.STAT: per unit over all traced units for
    # times, per unit over the first count_window units for counts.
    per_unit = {
        "self_ms": lambda span: get(tot, span, "self_s") / units * 1e3,
        "incl_ms": lambda span: get(tot, span, "incl_s") / units * 1e3,
        "calls": lambda span: get(win, span, "calls") / wl.count_window,
        "points": lambda span: get(win, span, "points") / wl.count_window,
    }
    metrics = {}
    for m in declared:
        span, _, stat = m["name"].rpartition(".")
        if m["name"] in special:
            metrics[m["name"]] = special[m["name"]]
        elif stat in per_unit and tracing.known_span(span):
            metrics[m["name"]] = per_unit[stat](span)
        else:
            raise RuntimeError(f"BENCHMARK.json declares {m['name']!r}, which no span gives")

    tracer.write(program.ROOT / ".bench_out" / f"spans-{wl.name}.jsonl",
                 {"workload": wl.name, "seed": args.seed, "units": units,
                  "fields": ["name", "start", "end", "parent", "unit", "extra"]})
    print(f"traced units: {units}; calls, points and cache hits are per unit over the first "
          f"{wl.count_window} units; self_ms is per unit over all traced units")
    print(f"casorati oracle: {misses} of {len(gaps)} extrema outside {oracle.MISS_REL:g} "
          "relative on the permissive side")
    print("fuzz.shrink runs only on a finding, so its time is unmeasured when calls = 0")
    if wl.name != "cli_verify":
        print("cli.main_ms is 0: this workload does not call ckv.cli.main")
    return metrics, [untraced, loop], problems


def main(argv=None) -> int:
    args = parse_args(argv)
    program.load()
    # One CPU for this process and its children, so that the host-speed
    # kernel runs where the measured work ran.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import numpy as np
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    spec = json.loads((program.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]

    workdir = program.ROOT / ".bench_out"
    workdir.mkdir(exist_ok=True)
    kind = workloads.WORKLOADS[args.workload]
    wl = kind(args.seed, kind.pool, workdir)
    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={np.__version__} {platform.machine()}")
    print(f"workload={wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"pool={len(wl.units)} units")

    env = program.child_env()
    if args.trace:
        metrics, loops, problems = per_layer(wl, args, env, declared)
    else:
        metrics, loops, problems = end_to_end(wl, args, env)
    unit_problems = [p for loop in loops for p in loop.problems]
    for i, problem in unit_problems[:10]:
        print(f"FAILED unit {i}: {problem}")
    for problem in problems:
        print(f"FAILED: {problem}")
    attempted = sum(len(loop.latencies) for loop in loops)
    print(f"error_rate: {len(unit_problems) / attempted:.4g} "
          f"({len(unit_problems)} of {attempted} units)")
    result = {}
    for m in declared:
        value = float(metrics[m["name"]])
        print(f"{m['name']:<40} {value:>14.6g} {m['unit']}")
        result[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": not unit_problems and not problems, "attempted": attempted,
                      "failed": len(unit_problems), "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
