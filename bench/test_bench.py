"""Self-tests of the benchmark; run from the repository root with

    python -m pytest bench

Each workload runs at its smallest size (a fixed operation count instead of a
time limit), traced twice: the exact counts must repeat exactly.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run as bench

BENCHMARK = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
EXACT = ("optimize.fitness.evals", "repair.calls", "repair.iterations", "geo.haversine.calls")
BUDGET = 2500


@pytest.fixture(scope="module", autouse=True)
def program():
    bench.load_program()


def traced(workload: str, ops: int) -> tuple[dict, dict]:
    result = bench.run(workload, seed=3, seconds=0.0, trace=True, max_ops=ops, out=io.StringIO())
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 * ops  # untraced phase + traced phase
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    spans = np.load(bench.RUN_DIR / f"trace-{workload}-s3.npz")
    return metrics, spans


def searched_evals(spans) -> int:
    """Fitness evaluations whose caller is the SA, PSO or GA loop."""
    names = list(spans["names"])
    fitness = spans["name"] == names.index("optimize.fitness")
    callers = spans["name"][spans["parent"][fitness]]
    return int(np.isin(callers, [names.index(f"optimize.{a}") for a in ("sa", "pso", "ga")]).sum())


@pytest.mark.parametrize("workload, ops, cells, searched_cells", [
    ("grid", 4, 4, 3),  # one cell per algorithm; random search skips repair
    ("plan", 1, 1, 1),
    ("score", 2, 0, 0),
])
def test_exact_counts_repeat(workload, ops, cells, searched_cells):
    first, spans = traced(workload, ops)
    second, _ = traced(workload, ops)
    for key in EXACT:
        assert first[key] == second[key], key
    assert set(first) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert first["optimize.fitness.evals"] == BUDGET * cells
    assert first["repair.calls"] == searched_evals(spans) == BUDGET * searched_cells
    assert first["trace.ops"] == ops


def test_tail_has_ten_samples_beyond():
    assert bench.tail([float(x) for x in range(11)]) == (0.0, 100.0 / 11)
    value, pct = bench.tail([float(x) for x in range(1000)])
    assert value == 989.0 and pct == 99.0


def _command(cwd) -> subprocess.CompletedProcess:
    args = ["--workload", "score", "--seed", "2", "--seconds", "1", "--trace", "0"]
    cmd = [sys.executable if c == "python3" else c for c in BENCHMARK["command"]] + args
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def test_command_prints_every_end_to_end_metric():
    proc = _command(bench.ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for metric in BENCHMARK["end_to_end"]:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"] and entry["value"] > 0, metric["name"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(bench.ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _command(tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
