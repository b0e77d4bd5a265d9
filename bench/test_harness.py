"""Smoke tests of the benchmark harness (not timing tests).

    python -m pytest bench/test_harness.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
from pinv_minres import core, minres_h, pminres  # noqa: E402
from tracer import Tracer  # noqa: E402


def _run(args, cwd):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170, check=False)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, _, unit) in run.PER_LAYER.items()}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_tracer_counts_nested_spans_and_restores():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((8, 8))
    op = core.DenseOperator(a + a.T, core.HERMITIAN)
    m = pminres.Preconditioner.from_economy(np.eye(8)[:, :6], np.ones(6))
    original = pminres.psolve_h
    tracer = Tracer()
    with tracer.installed():
        assert pminres.psolve_h is not original
        rep = pminres.psolve_h(op, m, np.ones(8),
                               minres_h.SolveOptions(reorthogonalize=True))
    stats = tracer.round()
    assert pminres.psolve_h is original
    assert "apply" not in core.KroneckerOperator.__dict__
    solve = stats["pminres.psolve"]
    applies = stats["core.dense_apply"]
    assert solve.calls == 1 and solve.iterations == rep.iterations
    assert solve.matvecs == applies.calls == rep.iterations
    assert solve.precon_applies == stats["pminres.precon_apply"].calls
    children = (applies.s + stats["pminres.precon_apply"].s
                + stats["pminres.reorth"].s)
    assert abs(solve.s - children - solve.self_s) < 1e-9


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    out = tmp_path / "bench.json"
    proc = _run(["--workload", "dense-batch", "--seed", "3", "--seconds", "0.1",
                 "--trace", "1", "--out", str(out)], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(run.PER_LAYER)
    assert result["metrics"]["npc_monitor.attach.s"]["value"] > 0
    entries = json.loads(out.read_text(encoding="ascii"))
    for key in ("case", "layer", "median_s", "repeats", "matvecs",
                "precon_applies", "env"):
        assert all(key in e for e in entries)


def test_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(["--workload", "dense-batch", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
