"""Benchmark of detcalc: end-to-end times, or per-layer numbers with --trace 1.

Run from the root of a checkout:

    python3 bench/run.py --workload pn_dense --seed 0 --seconds 24 --trace 0

It imports ``detcalc`` from ``src/`` of that checkout, generates the
workload from the seed, runs whole passes over it (one operation at a time,
one process, one thread), checks every output, and prints one JSON object as
the last line: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Times are in reference seconds (see ``speed.py``).  With ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics
instead; the spans go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
from time import perf_counter

import checks
import speed
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench", "out")
REFERENCE = os.path.join(ROOT, "bench", "reference.json")
DEFAULT_SEED = 0
SETUP_REPEATS = 7
PROBE_INTERVAL_S = 0.5  # longest wall time between two host-speed probes
# Traced passes take about twice as long as untraced ones; a traced run
# alternates the two, so one pair costs about three untraced passes.
TRACED_PAIR_COST = 3.0


def fresh_import():
    """Import detcalc and every layer from scratch; return (package, layers)."""
    for name in [m for m in sys.modules if m == "detcalc" or m.startswith("detcalc.")]:
        del sys.modules[name]
    package = importlib.import_module("detcalc")
    layers = {layer: importlib.import_module(f"detcalc.{layer}") for layer in tracing.LAYERS}
    return package, layers


def set_up(name: str, seed: int):
    """Time SETUP_REPEATS imports plus workload generations; keep the last.

    Returns the median set-up time in reference seconds, at the median
    host speed probed between the set-ups.
    """
    times, probes = [], [speed.probe()]
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        package, layers = fresh_import()
        workload = workloads.generate(name, seed)
        times.append(perf_counter() - start)
        probes.append(speed.probe())
    setup_s = statistics.median(times) * speed.REFERENCE_S / statistics.median(probes)
    if not os.path.realpath(package.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"detcalc was imported from {package.__file__}, not from {SRC}")
    return setup_s, workload, package, layers


def write_configs(workload) -> dict[str, str]:
    """Write the config of every `report` CLI operation; return label -> path."""
    folder = os.path.join(OUT, workload.name)
    paths = {}
    for i, op in enumerate(workload.ops):
        if op.config is not None:
            os.makedirs(folder, exist_ok=True)
            paths[op.label] = os.path.join(folder, f"{i:03d}.json")
            with open(paths[op.label], "w", encoding="utf-8") as handle:
                json.dump(op.config, handle)
    return paths


def reference_key(workload) -> str:
    """The fixed ladders do not depend on the seed; the seeded workloads do."""
    if workload.name in ("pn_dense", "p1n_dense"):
        return workload.name
    return f"{workload.name}@{workload.seed}"


def load_reference(workload) -> dict | None:
    """Committed outcomes for this workload and seed, or None if there are none.

    References are committed for the fixed ladders and for the default seed.
    """
    with open(REFERENCE, encoding="utf-8") as handle:
        refs = json.load(handle)
    if workload.seed != DEFAULT_SEED and reference_key(workload) != workload.name:
        return None
    return refs.get(reference_key(workload), {})


def run_pass(workload, api, paths, tracer=None):
    """Run every operation once, probing the host speed before the first,
    after the last, and at least every PROBE_INTERVAL_S in between.

    Returns (pass time, wall time, [(result, op time)]), the pass and op
    times in reference seconds at the median speed probed during the pass.
    """
    timed = []  # (result, wall seconds)
    probes = [speed.probe()]
    last_probe = perf_counter()
    for op in workload.ops:
        start = perf_counter()
        try:
            if tracer is None:
                result = workloads.execute(op, api, paths)
            else:
                result = tracer.op(op.label, lambda: workloads.execute(op, api, paths))
        except Exception as exc:  # a failed operation is counted, not fatal
            result = exc
        end = perf_counter()
        timed.append((result, end - start))
        if end - last_probe >= PROBE_INTERVAL_S:
            probes.append(speed.probe())
            last_probe = perf_counter()
    probes.append(speed.probe())
    scale = speed.REFERENCE_S / statistics.median(probes)
    wall = sum(t for _, t in timed)
    return wall * scale, wall, [(result, t * scale) for result, t in timed]


class Tally:
    """Attempted and failed operations, with the first few failure messages."""

    def __init__(self, workload, reference):
        self.workload, self.reference = workload, reference
        self.attempted = self.failed = 0
        self.messages: list[str] = []
        self.outcomes: dict[str, dict] = {}

    def check(self, results) -> None:
        for op, (result, _) in zip(self.workload.ops, results):
            self.attempted += 1
            if isinstance(result, Exception):
                found = [f"raised {type(result).__name__}: {result}"]
            else:
                got = workloads.outcome(op, result)
                self.outcomes[op.label] = {k: got[k] for k in ("exit", "values") if k in got}
                ref = None
                if self.reference is not None:
                    ref = self.reference.get(op.label, {"missing": "no committed reference"})
                found = checks.problems(op, got, ref)
            if found:
                self.failed += 1
                if len(self.messages) < 5:
                    self.messages.append(f"{op.label}: {'; '.join(found)}")


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value."""
    ordered = sorted(samples)
    index = max(0, len(ordered) - 11)
    return 100.0 * (index + 1) / len(ordered), ordered[index]


def end_to_end(workload, api, paths, tally, setup_s, seconds):
    passes = workload.passes(seconds)
    largest = [op.label for op in workload.ops].index(workload.largest)
    reports = [i for i, op in enumerate(workload.ops)
               if op.kind == "report" or op.argv[0] == "report"]
    pass_times, wall_times, largest_times, report_ms = [], [], [], []
    for _ in range(passes):
        elapsed, wall, results = run_pass(workload, api, paths)
        tally.check(results)
        pass_times.append(elapsed)
        wall_times.append(wall)
        largest_times.append(results[largest][1])
        report_ms += [results[i][1] * 1000.0 for i in reports]
    pct, tail_ms = tail(report_ms)
    print(f"{workload.name} seed {workload.seed}: {passes} passes, "
          f"{len(report_ms)} report samples, tail = p{pct:.1f}; "
          f"median pass {statistics.median(wall_times):.4f} s wall")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "pass_s": (statistics.median(pass_times), "s"),
        "largest_s": (statistics.median(largest_times), "s"),
        "report_p50_ms": (statistics.median(report_ms), "ms"),
        "report_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


UNITS = {"_s": "s", ".calls": "count", "term_pairs": "count", "zero_ratio": "ratio",
         "pairs_per_call": "pairs/call", "calls_per_report": "calls/report",
         "overhead_ratio": "ratio"}


def unit_of(metric: str) -> str:
    return next(unit for suffix, unit in UNITS.items() if metric.endswith(suffix))


def per_layer(workload, package, layers, paths, tally, seconds):
    pairs = max(1, round(seconds / (workloads.NOMINAL_PASS_S[workload.name]
                                    * TRACED_PAIR_COST)))
    per_pass, ratios, tracers = [], [], []
    for _ in range(pairs):
        plain, _, results = run_pass(workload, package, paths)
        tally.check(results)
        tracer = tracing.Tracer(package, layers)
        tracer.install()
        try:
            traced, _, results = run_pass(workload, package, paths, tracer)
        finally:
            tracer.uninstall()
        tally.check(results)
        per_pass.append(tracer.metrics())
        ratios.append(traced / plain)
        tracers.append(tracer)
    metrics = tracing.median_metrics(per_pass)
    metrics["trace.overhead_ratio"] = statistics.median(ratios)
    counts = tracers[0].op_counts(workload.largest)
    print(f"{workload.name} seed {workload.seed}: {pairs} traced passes; "
          f"{workload.largest}: {counts}")
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{workload.name}.json")
    tracing.write_trace(path, {"workload": workload.name, "seed": workload.seed}, tracers)
    return {key: (value, unit_of(key)) for key, value in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="run one pass and store its outcomes as the reference")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "detcalc", "__init__.py")):
        print(f"no detcalc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    setup_s, workload, package, layers = set_up(args.workload, args.seed)
    paths = write_configs(workload)

    if args.write_reference:
        return write_reference(workload, package, paths)
    tally = Tally(workload, load_reference(workload))
    if args.trace:
        metrics = per_layer(workload, package, layers, paths, tally, args.seconds)
    else:
        metrics = end_to_end(workload, package, paths, tally, setup_s, args.seconds)
    for message in tally.messages:
        print(f"FAILED {message}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def write_reference(workload, api, paths) -> int:
    tally = Tally(workload, None)
    tally.check(run_pass(workload, api, paths)[2])
    if tally.failed:
        print("\n".join(tally.messages), file=sys.stderr)
        return 1
    with open(REFERENCE, encoding="utf-8") as handle:
        refs = json.load(handle)
    refs[reference_key(workload)] = tally.outcomes
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(refs, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
