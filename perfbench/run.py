"""Run one benchmark workload against the edgeext source beside it.

    python3 perfbench/run.py --workload sweep-bipartite --seed 1 \\
        --seconds 20 --trace 0

Run from the root of an edgeext checkout; the library is imported from
its ``src`` directory, never from an installed copy.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  The traced run also writes its
spans to ``perfbench/out/trace-<workload>.tsv.gz``, replacing the last.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from clock import Stopwatch  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402

# Set-up is repeated and its median reported: a single import of a few
# tens of milliseconds moves by more than any bound we could hold.
SETUP_REPEATS = 5


def import_program() -> workloads.Program:
    """A fresh import of edgeext from this checkout's ``src``."""
    for key in [k for k in sys.modules
                if k == "edgeext" or k.startswith("edgeext.")]:
        del sys.modules[key]
    package = importlib.import_module("edgeext")
    if not os.path.abspath(package.__file__).startswith(
            os.path.join(SRC, "")):
        raise SystemExit(f"edgeext imported from {package.__file__}, "
                         f"not from {SRC}")
    return workloads.Program(*(importlib.import_module("edgeext." + layer)
                               for layer in LAYERS))


def set_up(workload, seed: int, repeats: int):
    """Import and build every input ``repeats`` times; keep the last.

    Returns the median set-up time, scaled and raw."""
    def build():
        program = import_program()
        return program, workload.setup(program, seed)

    watch = Stopwatch()
    intervals = []
    for _ in range(repeats):
        start, end, (program, inputs) = watch.call(build)
        watch.probe()
        intervals.append((start, end))
    return (program, inputs,
            statistics.median(watch.scale(a, b) for a, b in intervals),
            statistics.median(b - a for a, b in intervals))


def run_phase(workload, program, inputs, seconds: float):
    """Whole rounds until ``seconds`` have passed; at least one.  Sets each
    outcome's reference-speed time; returns the rounds and the stopwatch."""
    watch = Stopwatch()
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(workload.run_round(program, inputs, watch))
        if time.perf_counter() - start >= seconds:
            break
    watch.probe()
    for r in rounds:
        for o in r.outcomes:
            if o.timed:
                o.seconds = watch.scale(o.start, o.end)
    return rounds, watch


def instances_per_s(rounds, raw=False) -> float:
    """Median over rounds of instances decided per second of the calls."""
    rates = []
    for r in rounds:
        timed = [o for o in r.outcomes if o.timed]
        seconds = sum(o.end - o.start if raw else o.seconds for o in timed)
        if seconds > 0:
            rates.append(sum(o.instances for o in timed) / seconds)
    return statistics.median(rates) if rates else 0.0


def percentiles_ms(rounds) -> tuple[float, float, int]:
    samples = [o.seconds * 1000 for r in rounds for o in r.outcomes
               if o.timed]
    if len(samples) < 2:
        only = samples[0] if samples else 0.0
        return only, only, len(samples)
    deciles = statistics.quantiles(samples, n=10, method="inclusive")
    return deciles[4], deciles[8], len(samples)


def end_to_end(rounds, watch, setup_s: float, raw_setup_s: float,
               peak_rss_mb: float):
    p50, p90, count = percentiles_ms(rounds)
    print(f"time to a verdict: p50 {p50:.3f} ms, p90 {p90:.3f} ms over "
          f"{count} samples ({count - int(0.9 * count)} beyond p90)")
    print(f"raw wall time: {instances_per_s(rounds, raw=True):.6g} "
          f"instances/s, set-up {raw_setup_s:.6g} s; the core ran at "
          f"{1 / watch.speed():.3f} of the reference speed")
    return {
        "instances_per_s": (instances_per_s(rounds), "1/s"),
        "solve_p50_ms": (p50, "ms"),
        "solve_p90_ms": (p90, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }


def per_layer(tracer: Tracer, traced, watch, untraced):
    """Per-layer figures per round of the traced phase; times are scaled
    to the reference speed by the phase's median probe."""
    rounds = len(traced)
    inst = sum(r.instances for r in traced) or 1
    self_s, total_s, calls = tracer.summary()
    counters = tracer.counters
    speed = watch.speed()

    def per_round(x):
        return x / rounds

    def seconds_per_round(x):
        return x / speed / rounds

    metrics = {f"{layer}.self_s":
               (seconds_per_round(self_s.get(layer, 0.0)), "s/round")
               for layer in LAYERS}
    for metric, name in (
            ("instances.canonical_form_s", "instances.canonical_form"),
            ("instances.enumerate_precolourings_s",
             "instances.enumerate_precolourings"),
            ("colouring.reduce_to_lists_s", "colouring.reduce_to_lists"),
            ("core.line_graph_s", "core.line_graph"),
            ("kernels.konig_colour_s", "kernels.konig_colour"),
            ("kernels.galvin_orient_s", "kernels.galvin_orient"),
            ("kernels.kernel_s", "kernels.kernel"),
            ("gallai.degree_list_colour_s", "gallai.degree_list_colour"),
            ("gallai.block_decompose_s", "gallai.block_decompose"),
            ("exact.solve_list_s", "exact.solve_list"),
            ("exact.vizing_colour_s", "exact.vizing_colour"),
            ("planar.extend_planar_s", "planar.extend_planar"),
            ("planar.find_reducible_s", "planar.find_reducible")):
        metrics[metric] = (seconds_per_round(total_s.get(name, 0.0)),
                           "s/round")
    for metric, value in (
            ("instances.canonical_form_calls",
             calls["instances.canonical_form"]),
            ("instances.precolourings_generated",
             counters["instances.enumerate_precolourings.yields"]),
            ("kernels.kernel_calls", calls["kernels.kernel"]),
            ("kernels.exact_fallbacks", counters["kernels.exact_fallbacks"]),
            ("gallai.search_fallbacks", calls["gallai.solve_vertex_lists"]),
            ("exact.nodes", counters["exact.nodes"]),
            ("planar.find_reducible_calls", calls["planar.find_reducible"]),
            ("planar.even_cycle_reductions",
             counters["planar.even_cycle_reductions"]),
            ("planar.exact_fallbacks", counters["planar.exact_fallbacks"])):
        metrics[metric] = (per_round(value), "count/round")
    for metric, name in (
            ("colouring.is_proper_per_instance", "colouring.is_proper"),
            ("colouring.validate_precolouring_per_instance",
             "colouring.validate_precolouring"),
            ("core.graphs_built_per_instance", "core.MultiGraph.__init__"),
            ("core.components_per_instance", "core.MultiGraph.components")):
        metrics[metric] = (calls[name] / inst, "count/instance")
    generated = counters["instances.enumerate_precolourings.yields"]
    metrics["instances.precolouring_admit_ratio"] = (
        inst / generated if generated else 0.0, "ratio")
    nodes = counters["exact.nodes"]
    metrics["exact.us_per_node"] = (
        total_s.get("exact.solve_list", 0.0) * 1e6 / speed / nodes
        if nodes else 0.0, "us/node")
    plain, traced_rate = instances_per_s(untraced), instances_per_s(traced)
    metrics["trace.overhead_pct"] = (
        100 * (plain - traced_rate) / plain if plain else 0.0, "%")
    return metrics


def tally(rounds):
    attempted = sum(o.instances for r in rounds for o in r.outcomes)
    failed = sum(o.instances for r in rounds for o in r.outcomes
                 if o.error or o.wrong)
    problems = [o.error or o.wrong for r in rounds for o in r.outcomes
                if o.error or o.wrong]
    correct = not any(o.wrong for r in rounds for o in r.outcomes)
    return correct, attempted, failed, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "edgeext", "__init__.py")):
        raise SystemExit(f"no edgeext source under {SRC}: run from the root "
                         f"of an edgeext checkout")
    sys.path.insert(0, SRC)

    workload = workloads.make(args.workload)
    program, inputs, setup_s, raw_setup_s = set_up(workload, args.seed,
                                                   SETUP_REPEATS)
    workload.prepare()
    gc.collect()
    if args.trace == 0:
        rounds, watch = run_phase(workload, program, inputs, args.seconds)
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = end_to_end(rounds, watch, setup_s, raw_setup_s,
                             peak_rss_mb)
    else:
        untraced, _ = run_phase(workload, program, inputs, args.seconds / 2)
        tracer = Tracer()
        with tracer.installed(program):
            traced, watch = run_phase(workload, program, inputs,
                                      args.seconds / 2)
        metrics = per_layer(tracer, traced, watch, untraced)
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace-{args.workload}.tsv.gz")
        tracer.write(path)
        print(f"{len(tracer.span_start)} spans over {len(traced)} traced "
              f"rounds written to {os.path.relpath(path, ROOT)}")
        rounds = untraced + traced
    rounds.append(workload.post_check(program, inputs))

    correct, attempted, failed, problems = tally(rounds)
    for problem in problems[:20]:
        print(f"FAILED: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))


if __name__ == "__main__":
    main()
