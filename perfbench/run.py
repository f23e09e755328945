"""orbdim benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 30 --trace 0

Each run imports orbdim from the checkout's `src/`, draws the workload's
inputs from the seed, and then repeats measured cycles until `--seconds`
have passed (at least two).  A cycle is a fresh import of the program (timed
as set-up), the workload's batch with empty caches ("cold") and the same batch
again ("warm").  Every timed operation keeps the median of its times over
the untraced cycles, each scaled to a reference machine by the speed probe
of harness.Speed.  Every answer is checked; a wrong or raised answer makes
the run exit 1.  With `--trace 1` every other cycle runs with the layer wrappers
of tracing.py installed and the result line carries the per-layer metrics.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  Exit codes: 0 all
answers correct, 1 some answer wrong, 2 no program to measure or bad usage.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import sys
import time
from pathlib import Path

import harness
from harness import Checker, Ops, Speed, median, p95, per_op_median
from tracing import LAYERS, Tracer
from workloads import WORKLOADS

MIN_CYCLES = 2
EXTRA_SETUPS = 10
OP_KINDS = ("case", "weights", "alcove", "kac", "scan", "series", "divisor")
KERNEL_KINDS = ("weights", "alcove", "kac")
QUERY_KINDS = ("scan", "series", "divisor")
BASELINE = Path(__file__).with_name("baseline.json")

# (name, unit, better) of every metric the result line can carry
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("cold_s", "s", "lower"),
    ("warm_s", "s", "lower"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p95_ms", "ms", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]
PER_LAYER = [(f"{layer}.{stat}", "count" if stat == "calls" else "s", "lower")
             for layer in LAYERS for stat in ("calls", "busy_s", "self_s")] + [
    ("orbifold.screen.found", "count", "higher"),
    ("orbifold.screen.space", "count", "lower"),
    ("orbifold.screen.calls_per_verify_all", "count", "lower"),
    ("kacaut.admits.calls_per_verify_all", "count", "lower"),
    ("kacaut.admits.admitted_frac", "ratio", "higher"),
    ("kacaut.enumerate_classes.hits", "count", "higher"),
    ("kacaut.enumerate_classes.misses", "count", "lower"),
    ("kacaut.enumerate_classes.classes", "count", "higher"),
    ("liealg.weight_system.weights", "count", "higher"),
    ("liealg.root_system.misses", "count", "lower"),
    ("cases.verify_case.case15_s", "s", "lower"),
    ("qseries.etaq_expand.terms", "count", "higher"),
] + [(f"ops.{kind}.{q}", "ms", "lower")
     for kind in OP_KINDS for q in ("p50_ms", "p95_ms")] + [
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("run.calib_ms", "ms", "lower"),
    ("run.loadavg_1m", "load", "lower"),
]

# workload-specific names of the end-to-end numbers, for the human-readable lines
NAMED = {
    "pipeline": [("pipeline_cold_s", "cold_s", "s"), ("pipeline_warm_s", "warm_s", "s"),
                 ("tables_regen_s", "tables_regen_s", "s")],
    "kernel_queries": [("kernels_s", "kernels_s", "s"), ("query_p50_ms", "query_p50_ms", "ms"),
                       ("query_p95_ms", "query_p95_ms", "ms"),
                       ("queries_per_s", "queries_per_s", "1/s")],
}


class LayerTotals:
    """Per-layer numbers summed over the traced cycles of one run."""

    def __init__(self):
        self.cycles = 0
        self.admitted = 0
        self.missing = []
        self.values = {name: 0.0 for name, _, _ in PER_LAYER}

    def add(self, tracer: Tracer):
        self.cycles += 1
        self.missing = tracer.missing
        v = self.values
        totals = tracer.layer_totals()
        for layer, row in totals.items():
            v[f"{layer}.calls"] += row["calls"]
            v[f"{layer}.busy_s"] += row["busy_s"]
            v[f"{layer}.self_s"] += row["self_s"]
        v["orbifold.screen.found"] += totals["orbifold.screen"]["count"]
        v["orbifold.screen.space"] += tracer.screen_space()
        v["orbifold.screen.calls_per_verify_all"] += tracer.calls_under(
            "orbifold.screen", "cases.verify_all")
        v["kacaut.admits.calls_per_verify_all"] += tracer.calls_under(
            "kacaut.admits", "cases.verify_all")
        v["kacaut.enumerate_classes.classes"] += totals["kacaut.enumerate_classes"]["count"]
        hits, misses = tracer.cache_delta["kacaut.enumerate_classes"]
        v["kacaut.enumerate_classes.hits"] += hits
        v["kacaut.enumerate_classes.misses"] += misses
        v["liealg.root_system.misses"] += tracer.cache_delta["liealg.root_system"][1]
        v["liealg.weight_system.weights"] += totals["liealg.weight_system"]["count"]
        v["cases.verify_case.case15_s"] += tracer.case_seconds("15")
        v["qseries.etaq_expand.terms"] += totals["qseries.etaq_expand"]["count"]
        v["trace.spans"] += len(tracer.spans)
        self.admitted += totals["kacaut.admits"]["count"]

    def per_cycle(self) -> dict:
        n = max(self.cycles, 1)
        out = {name: value / n for name, value in self.values.items()}
        calls = self.values["kacaut.admits.calls"]
        out["kacaut.admits.admitted_frac"] = self.admitted / calls if calls else 0.0
        return out


def timed_import(speed):
    """A fresh import of orbdim and its set-up time, scaled to the reference machine."""
    speed.tick()
    start = time.perf_counter()
    prog, setup = harness.fresh_import()
    speed.tick()
    return prog, speed.scaled(start, start + setup)


def run(workload: str, seed: int, seconds: float, trace: bool):
    """Measure one workload; returns (result line, human-readable lines)."""
    meta = harness.metadata(seed)
    calib = [harness.calibrate()]
    speed = Speed()
    setups = []
    gen, setup = timed_import(speed)
    setups.append(setup)
    bench = WORKLOADS[workload](gen, random.Random(seed))
    del gen
    for _ in range(EXTRA_SETUPS):
        setups.append(timed_import(speed)[1])

    check = Checker()
    batches = {"cold": [], "warm": []}
    cold, warm, untraced_walls, traced_walls = [], [], [], []
    layers = LayerTotals()
    start = time.perf_counter()
    cycle, longest = 0, 0.0
    while True:
        began = time.perf_counter()
        prog, setup = timed_import(speed)
        setups.append(setup)
        tracing = trace and cycle % 2 == 1
        tracer = Tracer(prog).install() if tracing else None
        walls = {}
        for phase in ("cold", "warm"):
            ops = Ops(speed)
            gc.collect()
            began_batch = time.perf_counter()
            with speed.sampling():
                bench.batch(prog, phase, check, ops)
                ended_batch = time.perf_counter()
            if not tracing:
                batches[phase].append(ops.scaled())
            walls[phase] = speed.scaled(began_batch, ended_batch)
        if tracer is not None:
            tracer.uninstall()
            tracer.leave_out(speed.ends, speed.durations)
            layers.add(tracer)
            traced_walls.append(walls["cold"] + walls["warm"])
        else:
            cold.append(walls["cold"])
            warm.append(walls["warm"])
            untraced_walls.append(walls["cold"] + walls["warm"])
        del prog, tracer
        cycle += 1
        now = time.perf_counter()
        longest = max(longest, now - began)
        if cycle >= MIN_CYCLES and now - start + longest > seconds:
            break
    calib.append(harness.calibrate())

    cold_ops = per_op_median(batches["cold"])
    warm_ops = per_op_median(batches["warm"])
    timed = [(k, s) for k, s in cold_ops + warm_ops if k in OP_KINDS]
    all_ops = [s for _, s in timed]
    e2e = {
        "setup_s": median(setups),
        "cold_s": sum(s for k, s in cold_ops if k in OP_KINDS),
        "warm_s": sum(s for k, s in warm_ops if k in OP_KINDS),
        "op_p50_ms": median(all_ops) * 1000.0,
        "op_p95_ms": p95(all_ops) * 1000.0,
        "ops_per_s": len(all_ops) / max(sum(all_ops), 1e-9),
        "peak_rss_mb": harness.peak_rss_mb(),
    }
    queries = [s for k, s in timed if k in QUERY_KINDS]
    named = dict(e2e, tables_regen_s=sum(s for k, s in cold_ops if k == "regen"),
                 kernels_s=sum(s for k, s in cold_ops if k in KERNEL_KINDS),
                 query_p50_ms=median(queries) * 1000.0, query_p95_ms=p95(queries) * 1000.0,
                 queries_per_s=len(queries) / max(sum(queries), 1e-9))

    lines = [f"# orbdim benchmark: workload={workload} seed={seed} seconds={seconds} "
             f"trace={int(trace)}",
             f"# meta {json.dumps(meta, sort_keys=True)}",
             f"# calibration_ms start={calib[0]:.2f} end={calib[1]:.2f} (stdlib Fraction loop)",
             f"# speed probe_ms median={median(speed.readings):.3f} "
             f"min={min(speed.readings):.3f} max={max(speed.readings):.3f} "
             f"probes={len(speed.readings)} reference={harness.REFERENCE_PROBE_MS}",
             f"# cycles={cycle} setups={len(setups)} ops={len(all_ops)} "
             f"ops_above_p95={sum(x * 1000.0 > e2e['op_p95_ms'] for x in all_ops)} "
             f"checked={check.attempted} failed={check.failed}",
             f"# scaled batch seconds of the untraced cycles: cold {[round(x, 3) for x in cold]} "
             f"warm {[round(x, 3) for x in warm]}"]
    baseline = json.loads(BASELINE.read_text()).get(workload, {}) if BASELINE.is_file() else {}
    shown = [("setup_s", "setup_s", "s")] + NAMED[workload] + \
        [("peak_rss_mb", "peak_rss_mb", "MB")]
    for label, key, unit in shown:
        base = baseline.get(key)
        suffix = f"   (baseline {base:.4g})" if base is not None else ""
        lines.append(f"{label:<16} {named[key]:>12.4f} {unit}{suffix}")
    failed_frac = check.failed / max(check.attempted, 1)
    lines.append(f"{'failed_frac':<16} {failed_frac:>12.4f} ratio")
    lines.extend(f"# FAILED: {m}" for m in check.messages)

    if trace:
        values = layers.per_cycle()
        for kind in OP_KINDS:
            lat = [s for k, s in timed if k == kind]
            values[f"ops.{kind}.p50_ms"] = median(lat) * 1000.0
            values[f"ops.{kind}.p95_ms"] = p95(lat) * 1000.0
        values["trace.overhead_s"] = median(traced_walls) - median(untraced_walls)
        values["run.calib_ms"] = median(calib)
        values["run.loadavg_1m"] = meta["loadavg"][0]
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
        lines.append(f"# traced cycles={layers.cycles}; per-layer numbers are per traced "
                     f"cycle; tracing overhead {values['trace.overhead_s']:.3f} s per cycle; "
                     f"entry points not found: {', '.join(layers.missing) or 'none'}")
        for name, unit, _ in PER_LAYER:
            lines.append(f"{name:<44} {values[name]:>14.6g} {unit}")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit, _ in END_TO_END}
    result = {"correct": check.failed == 0, "attempted": check.attempted,
              "failed": check.failed, "metrics": metrics}
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except harness.ProgramMissing as err:
        print(f"orbdim benchmark: {err}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
