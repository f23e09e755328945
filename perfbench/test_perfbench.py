"""Self-checks of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import harness
import run
import workloads
from tracing import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_what_the_runs_print():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == run.PER_LAYER
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


def test_one_verify_all_pass_makes_32_screens_and_43_admissibility_calls():
    prog, _ = harness.fresh_import()
    originals = {layer: getattr(prog.mods[home], name) for layer, (home, name) in LAYERS.items()}
    tracer = Tracer(prog).install()
    try:
        reports, _ = prog.cases_mod.verify_all(prog.cases, prog.table)
    finally:
        tracer.uninstall()
    assert all(r.passed for r in reports)
    totals = tracer.layer_totals()
    assert totals["orbifold.screen"]["calls"] == 32 == sum(c.n - 1 for c in prog.cases)
    assert totals["kacaut.admits"]["calls"] == 43
    assert tracer.calls_under("orbifold.screen", "cases.verify_all") == 32
    # cases imports the screener by name, so both namespaces were rebound and restored
    assert prog.cases_mod.screen_problematic_modules is originals["orbifold.screen"]
    assert prog.orbifold.screen_problematic_modules is originals["orbifold.screen"]
    for layer, row in totals.items():
        assert 0 <= row["self_s"] <= row["busy_s"] + 1e-9 or row["calls"] == 0, layer


def test_same_seed_gives_same_inputs():
    gen, _ = harness.fresh_import()
    for cls, attr in ((workloads.KernelQueries, "queries"), (workloads.Pipeline, "table_order")):
        first = getattr(cls(gen, random.Random(7)), attr)
        assert first == getattr(cls(gen, random.Random(7)), attr)
        assert first != getattr(cls(gen, random.Random(8)), attr)


def test_scaled_time_leaves_out_inner_probes_and_uses_the_mean_reading():
    speed = harness.Speed()
    speed.ends, speed.durations, speed.readings = [1.0, 2.0, 3.0], [0.01, 0.5, 0.01], [1.7, 3.4, 1.7]
    ref = harness.REFERENCE_PROBE_MS
    # the probe ending at 2.0 ran inside the interval: its 0.5 s is not the program's
    assert abs(speed.scaled(1.5, 2.5) - 0.5 * ref / ((1.7 + 3.4 + 1.7) / 3)) < 1e-12
    assert abs(speed.scaled(2.1, 2.9) - 0.8 * ref / ((3.4 + 1.7) / 2)) < 1e-12


def test_sampling_probes_inside_a_timed_operation():
    speed = harness.Speed()
    speed.tick()
    ops = harness.Ops(speed)

    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    with speed.sampling():
        ops.time("busy", busy, 0.35)
    (_, start, end), = ops.samples
    inside = [e for e in speed.ends if start < e < end]
    assert len(inside) >= 2
    assert speed.ends[-1] > end        # the closing probe


def test_a_corrupted_expected_answer_fails_the_run(monkeypatch):
    tau = list(workloads.TAU)
    tau[4] += 1
    monkeypatch.setattr(workloads, "TAU", tuple(tau))
    result, lines = run.run("kernel_queries", seed=1, seconds=0.1, trace=False)
    assert not result["correct"] and result["failed"] > 0
    assert any("Ramanujan tau" in line for line in lines)


def _tree(tmp_path, with_src):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    if with_src:
        shutil.copytree(harness.SRC, tmp_path / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))


def _bench(root, workload):
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=root, capture_output=True, text=True, timeout=170)


def test_a_corrupted_golden_exits_nonzero(tmp_path):
    _tree(tmp_path, with_src=True)
    golden = tmp_path / "src" / "orbdim" / "data" / "goldens" / "screening_lists.json"
    golden.write_text(golden.read_text().replace('"twisted": "3/5"', '"twisted": "2/5"', 1))
    proc = _bench(tmp_path, "pipeline")
    assert proc.returncode == 1
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is False


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    _tree(tmp_path, with_src=False)
    proc = _bench(tmp_path, "kernel_queries")
    assert proc.returncode == 2
    assert proc.stdout == ""
