"""driftsearch benchmark runner.

    python3 bench/run.py --workload {grid,plan,score} --seed N --seconds S --trace {0,1}
    python3 bench/run.py --record-reference

Run from the repository root. One process, one thread: each workload is a
closed loop with a single client that sends the next operation when the last
one returns. The program is imported from ``src/`` next to this directory.

With ``--trace 0`` the last stdout line holds the end-to-end metrics. With
``--trace 1`` the run first measures untraced for half the time, then installs
the wrappers from ``spans.py`` and replays the same operations traced for the
other half; the last line holds the per-layer metrics and the overhead, and
the spans are written to ``.bench_run/``. The line before the last carries
the machine record, the tail percentile with its sample count, and the
digest of the result rows. ``--record-reference`` rewrites
``reference.json`` from the default 240-cell grid and the plan block of the
default workload seed (about six minutes).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ROOT / ".bench_run"
# BLAS/OpenMP pools are pinned before numpy is imported.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
SETUP_REPEATS = 3
TAIL_BEYOND = 10
# A run that has not finished its quality block by then gives up.
MAX_RUN_S = 150.0

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_s_p50", "s"),
    ("op_s_tail", "s"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("best_fitness_mean", "segments"),
]


class ProgramMissing(RuntimeError):
    """driftsearch cannot be imported from this checkout's src/."""


def load_program() -> float:
    """Pin thread pools, import driftsearch from ROOT/src; return the import time."""
    os.environ.update(THREAD_ENV)
    src = ROOT / "src"
    if not (src / "driftsearch" / "__init__.py").is_file():
        raise ProgramMissing(f"no driftsearch package under {src}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import driftsearch

    import_s = time.perf_counter() - t0
    if Path(driftsearch.__file__).resolve().parent != (src / "driftsearch").resolve():
        raise ProgramMissing(f"driftsearch imported from {driftsearch.__file__}, not {src}")
    return import_s


def machine_record() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # numpy builds without the dict form of show_config
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
        "platform": platform.platform(),
    }


def set_up(cls, seed: int, tmp: Path):
    """Build the workload SETUP_REPEATS times; keep the last, return it with the times."""
    times = []
    workload = None
    for r in range(SETUP_REPEATS):
        rep_dir = tmp / f"setup-{r}"
        rep_dir.mkdir(parents=True)
        t0 = time.perf_counter()
        workload = cls(seed, rep_dir)
        times.append(time.perf_counter() - t0)
        if r + 1 < SETUP_REPEATS:
            shutil.rmtree(rep_dir)
    return workload, times


def measure(workload, seconds: float, min_ops: int = 1, max_ops: int | None = None, tracer=None):
    """Closed loop: run operations 0, 1, ... until `seconds` have passed and at
    least `min_ops` ran (or exactly `max_ops` when given).

    Returns (durations, outcomes, errors, elapsed); outcomes[i] is None for a
    failed operation and errors holds its message.
    """
    from workloads import CheckFailed

    durations: list[float] = []
    outcomes: list = []
    errors: list[str] = []
    start = time.perf_counter()
    i = 0
    while True:
        now = time.perf_counter()
        if max_ops is not None:
            if i >= max_ops:
                break
        elif (i >= min_ops and now - start >= seconds) or now - start >= MAX_RUN_S:
            break
        if tracer is not None:
            tracer.op_id = i
        t0 = time.perf_counter()
        try:
            raw = workload.call(i)
            durations.append(time.perf_counter() - t0)
            outcomes.append(workload.check(i, raw))
        except CheckFailed as exc:
            outcomes.append(None)
            errors.append(f"op {i}: {exc}")
        except Exception as exc:  # a raised exception is a failed operation
            if len(durations) == i:
                durations.append(time.perf_counter() - t0)
            outcomes.append(None)
            errors.append(f"op {i}: {type(exc).__name__}: {exc}\n{traceback.format_exc(limit=3)}")
        i += 1
    return durations, outcomes, errors, time.perf_counter() - start


def tail(durations: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples above it:
    the (n - TAIL_BEYOND)-th smallest value, as (value, percentile)."""
    xs = sorted(durations)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def digest(rows) -> str:
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def run(workload_name: str, seed: int, seconds: float, trace: bool, import_s: float = 0.0,
        max_ops: int | None = None, out=sys.stdout) -> dict:
    """Set up, measure and print the details line; return the result object.

    `max_ops` replaces the time limit by an exact operation count (each traced
    phase runs that many), so counts can be compared between runs.
    """
    import workloads

    cls = workloads.WORKLOADS[workload_name]
    tmp = RUN_DIR / f"{workload_name}-{os.getpid()}"
    if tmp.exists():
        shutil.rmtree(tmp)
    try:
        workload, setup_times = set_up(cls, seed, tmp)
        if trace:
            result, details = _traced(workload, seed, seconds, max_ops)
        else:
            result, details = _untraced(workload, seconds, max_ops)
            result["metrics"]["setup_s"]["value"] = import_s + statistics.median(setup_times)
        details.update(import_s=import_s, setup_reps_s=setup_times)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    details.update(workload=workload_name, seed=seed, seconds=seconds, trace=int(trace), machine=machine_record())
    print(json.dumps(details), file=out)
    return result


def _result(outcomes, metrics: dict, units: dict) -> dict:
    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if o is None)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def _untraced(workload, seconds: float, max_ops: int | None = None):
    durations, outcomes, errors, elapsed = measure(workload, seconds, min_ops=workload.block, max_ops=max_ops)
    block = outcomes[: workload.block]
    block_ok = [o for o in block if o is not None]
    tail_s, tail_pct = tail(durations)
    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if o is None)
    metrics = {
        "setup_s": None,  # filled in by run(): import time + median set-up
        "ops_per_s": len(durations) / sum(durations),
        "op_s_p50": statistics.median(durations),
        "op_s_tail": tail_s,
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "best_fitness_mean": statistics.fmean(o.fitness for o in block_ok) if block_ok else 0.0,
    }
    block_complete = max_ops is not None or len(block) == workload.block
    if not block_complete:
        errors.append(f"quality block incomplete: {len(block)} of {workload.block} operations in {MAX_RUN_S} s")
    rows = [o.row for o in block if o is not None and o.row is not None]
    details = {
        "ops": attempted,
        "elapsed_s": elapsed,
        "busy_s": sum(durations),
        "failed_ratio": failed / attempted,
        # Printed here, not bounded: at 1 m each operation scores ~0 or ~K0, so
        # the block mean of 16 grid or plan operations swings by more between
        # seeds than any bound the benchmark may set. Row checks guard it.
        "coverage_mean": {
            "value": statistics.fmean(o.coverage for o in block_ok) if block_ok else 0.0,
            "unit": "coverage",
        },
        "tail": {"percentile": tail_pct, "samples": len(durations), "beyond": min(TAIL_BEYOND, len(durations) - 1)},
        "block": {"ops": workload.block, "digest": digest(rows) if rows else None},
        "errors": errors[:5],
    }
    result = _result(outcomes, metrics, dict(END_TO_END))
    result["correct"] = result["correct"] and block_complete
    return result, details


def _traced(workload, seed: int, seconds: float, max_ops: int | None = None):
    from spans import PER_LAYER, Tracer

    half = seconds / 2.0
    d0, o0, e0, _ = measure(workload, half, max_ops=max_ops)
    tracer = Tracer()
    tracer.install()
    try:
        d1, o1, e1, _ = measure(workload, half, max_ops=max_ops, tracer=tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    untraced = len(d0) / sum(d0)
    traced = len(d1) / sum(d1)
    metrics.update({
        "trace.ops": len(o1),
        "trace.spans": len(tracer.start),
        "trace.ops_per_s_untraced": untraced,
        "trace.ops_per_s_traced": traced,
        "trace.overhead_ops_per_s": untraced - traced,
        "trace.overhead_ratio": untraced / traced - 1.0,
    })
    RUN_DIR.mkdir(exist_ok=True)
    trace_path = RUN_DIR / f"trace-{workload.name}-s{seed}.npz"
    tracer.write(trace_path)
    outcomes = o0 + o1
    errors = e0 + e1
    details = {
        "ops_untraced": len(o0),
        "ops_traced": len(o1),
        "spans_file": str(trace_path.relative_to(ROOT)),
        "errors": errors[:5],
    }
    return _result(outcomes, metrics, dict(PER_LAYER)), details


def record_reference() -> None:
    """Rewrite reference.json: every default-grid row and the default seed's plan block."""
    import workloads
    from driftsearch import experiment

    tmp = RUN_DIR / f"reference-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        rows, _ = experiment.run_experiment(experiment.default_spec(), out_dir=tmp / "grid")
        grid = {
            workloads.cell_id(r.instance, r.n_uavs, r.n_particles, r.algorithm, r.seed): workloads.grid_row(r)
            for r in rows
        }
        (tmp / "plan").mkdir()
        plan = workloads.Plan(workloads.DEFAULT_SEED, tmp / "plan")
        plan.reference = []
        plan_rows = [plan.check(i, plan.call(i)).row for i in range(plan.block)]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    doc = {"default_seed": workloads.DEFAULT_SEED, "grid": grid, "plan": plan_rows}
    workloads.REFERENCE_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(grid)} grid rows and {len(plan_rows)} plan rows to {workloads.REFERENCE_PATH}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["grid", "plan", "score"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not args.record_reference and args.workload is None:
        parser.error("--workload is required")
    try:
        import_s = load_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"bench: cannot load driftsearch: {exc}", file=sys.stderr)
        return 2
    if args.record_reference:
        record_reference()
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), import_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
