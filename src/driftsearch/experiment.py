"""Multi-seed, multi-instance experiment orchestration and result tables.

A full experiment runs the Cartesian product of
instance x uav_count x particle_count x algorithm x seed. Every cell shares
the same evaluation budget; the scenario (particle draw) for a given
(instance, particle_count, seed) is identical across algorithms so rows can
be compared pairwise. Summary rows report the per-cell average and best over
seeds.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import logging
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .evaluate import EvaluationConfig, coverage
from .forecast import PredictorSpec, forecast_scenario
from .geo import GeoPoint
from .geojson import export_geojson
from .ingest import AccidentSpec, DrifterTrack, synthesize_track
from .optimize import ALGORITHMS, OptimizerConfig, is_int, run
from .scenario import build_scenario

log = logging.getLogger(__name__)

DEFAULT_ALGORITHMS = ALGORITHMS
DEFAULT_SEEDS = (0, 1, 2, 3, 4)
DEFAULT_UAV_COUNTS = (6, 8)
DEFAULT_PARTICLE_COUNTS = (10, 15)


@dataclass(frozen=True)
class InstanceSpec:
    name: str
    track: DrifterTrack
    accident: AccidentSpec
    predictor: PredictorSpec


# The item type of each grid field.
_GRID_ITEMS = {"instances": InstanceSpec, "algorithms": str, "seeds": int, "uav_counts": int, "particle_counts": int}


def _is(value, kind: type) -> bool:
    """isinstance, where an int follows :func:`~driftsearch.optimize.is_int`."""
    return is_int(value) if kind is int else isinstance(value, kind)


@dataclass(frozen=True)
class ExperimentSpec:
    instances: tuple[InstanceSpec, ...]
    algorithms: tuple[str, ...] = DEFAULT_ALGORITHMS
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    uav_counts: tuple[int, ...] = DEFAULT_UAV_COUNTS
    particle_counts: tuple[int, ...] = DEFAULT_PARTICLE_COUNTS
    budget_evals: int = 2500
    k0: int = 100

    def __post_init__(self) -> None:
        # Types first, by field name: a bare string, a bool or a float count would reach the cells.
        for name, kind in _GRID_ITEMS.items():
            seq = getattr(self, name)
            if not (isinstance(seq, tuple) and seq and all(_is(v, kind) for v in seq)):
                raise ValueError(f"{name} must be a non-empty tuple of {kind.__name__}, got {seq!r:.80}")
            # A repeated value would run (and count, and map) the same cells twice.
            keys = [v.name for v in seq] if kind is InstanceSpec else list(seq)
            if len(set(keys)) < len(keys):
                raise ValueError(f"{name} repeats {sorted({k for k in keys if keys.count(k) > 1})}")
        if not is_int(self.k0):
            raise ValueError(f"k0 must be an int, got {self.k0!r}")
        if min(self.particle_counts) < 1:
            raise ValueError("particle_counts must be >= 1")
        # Fail on a bad algorithm, UAV count, budget (type too) or cohort size before any cell runs.
        for algorithm, n_uavs in itertools.product(self.algorithms, self.uav_counts):
            OptimizerConfig(algorithm, n_uavs, self.budget_evals)
        EvaluationConfig(k0=self.k0)


@dataclass(frozen=True)
class ResultRow:
    instance: str
    n_uavs: int
    n_particles: int
    algorithm: str
    seed: int
    coverage: float
    best_fitness: int
    wall_time_ms: float


RESULT_COLUMNS = ["instance", "n_uavs", "n_particles", "algorithm", "seed", "coverage", "best_fitness", "wall_time_ms"]
SUMMARY_COLUMNS = ["instance", "n_uavs", "n_particles", "algorithm", "avg", "best"]


def synthetic_instances(count: int = 3) -> tuple[InstanceSpec, ...]:
    """Desk-scale synthetic accident instances with fixed seeds.

    The drift/turbulence profiles are chosen so the one-step prediction error
    leaves a search area of a few kilometers with the accident point outside
    it — the regime where deployment quality actually moves the outcome.
    """
    profiles = [
        ("I-1", 202, GeoPoint(34.0, 127.0), 0.80, 0.30),
        ("I-2", 606, GeoPoint(34.0, 127.0), 0.70, 0.40),
        ("I-3", 606, GeoPoint(34.0, 127.0), 0.80, 0.40),
        ("I-4", 1200, GeoPoint(34.0, 127.0), 0.70, 0.35),
        ("I-5", 505, GeoPoint(34.0, 127.0), 0.75, 0.60),
    ]
    out = []
    for name, seed, start, drift, turn in profiles[:count]:
        track = synthesize_track(seed=seed, hours=16, start=start, drift_kmh=drift, turn_sigma=turn, track_id=name)
        out.append(
            InstanceSpec(
                name=name,
                track=track,
                accident=AccidentSpec(track_id=name, accident_index=6, horizon_hours=6),
                predictor=PredictorSpec("linear-extrapolation"),
            )
        )
    return tuple(out)


def default_spec(**overrides) -> ExperimentSpec:
    """The desk-scale protocol on synthetic data with every default pinned."""
    return ExperimentSpec(instances=synthetic_instances(), **overrides)


def scenario_seed(instance_name: str, n_particles: int, seed: int) -> int:
    """Stable 63-bit seed so a cell's particle draw is reproducible and shared
    by all algorithms for the same (instance, particle count, run seed)."""
    digest = hashlib.sha256(f"{instance_name}|{n_particles}|{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def run_cell(
    instance: InstanceSpec,
    n_uavs: int,
    n_particles: int,
    algorithm: str,
    seed: int,
    spec: ExperimentSpec,
    geojson_path: Optional[Path] = None,
) -> ResultRow:
    """Run one experiment cell: forecast, optimize, evaluate against truth."""
    fc = forecast_scenario(instance.track, instance.accident, instance.predictor)
    scen = build_scenario(
        instance.track, instance.accident, fc, k=n_particles, seed=scenario_seed(instance.name, n_particles, seed)
    )
    config = OptimizerConfig(algorithm=algorithm, n_uavs=n_uavs, budget_evals=spec.budget_evals, seed=seed)
    start = time.perf_counter()
    result = run(scen, config)
    wall_ms = (time.perf_counter() - start) * 1000.0
    if result.evals_used != spec.budget_evals:
        raise RuntimeError(
            f"budget parity violated in cell {instance.name} n={n_uavs} k={n_particles} {algorithm} "
            f"seed={seed}: {result.evals_used} evaluations, budget {spec.budget_evals}"
        )
    lo = instance.accident.accident_index
    hi = lo + instance.accident.horizon_hours
    report = coverage(result.best, instance.track, lo, hi, EvaluationConfig(k0=spec.k0))
    if geojson_path is not None:
        export_geojson(scen, result.best, geojson_path, track=instance.track, track_slice=(lo, hi), report=report)
    return ResultRow(
        instance=instance.name,
        n_uavs=n_uavs,
        n_particles=n_particles,
        algorithm=algorithm,
        seed=seed,
        coverage=report.coverage,
        best_fitness=result.best_fitness.score,
        wall_time_ms=wall_ms,
    )


def run_experiment(
    spec: ExperimentSpec,
    out_dir: Optional[Path] = None,
    write_maps: bool = False,
    progress: bool = False,
) -> tuple[list[ResultRow], list[dict]]:
    """Execute the full grid; failing cells are logged and skipped."""
    rows: list[ResultRow] = []
    maps_dir = None
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        if write_maps:
            maps_dir = out_dir / "maps"
            maps_dir.mkdir(exist_ok=True)
    grid = itertools.product(spec.instances, spec.uav_counts, spec.particle_counts, spec.algorithms, spec.seeds)
    for instance, n_uavs, n_particles, algorithm, seed in grid:
        cell = f"{instance.name}_u{n_uavs}_p{n_particles}_{algorithm}_s{seed}"
        geojson_path = maps_dir / f"{cell}.geojson" if maps_dir else None
        try:
            row = run_cell(instance, n_uavs, n_particles, algorithm, seed, spec, geojson_path)
        except Exception:
            log.exception("cell %s failed", cell)
            continue
        rows.append(row)
        if progress:
            print(f"{cell}: coverage={row.coverage:.2f} fitness={row.best_fitness}")
    summary = summarize(rows)
    if out_dir is not None:
        write_results_csv(rows, out_dir / "results.csv")
        write_summary_csv(summary, out_dir / "summary.csv")
    return rows, summary


def summarize(rows: list[ResultRow]) -> list[dict]:
    """Per-cell average and best coverage over seeds, in spec order."""
    cells: dict[tuple, list[float]] = {}
    for row in rows:
        cells.setdefault((row.instance, row.n_uavs, row.n_particles, row.algorithm), []).append(row.coverage)
    return [
        {**dict(zip(SUMMARY_COLUMNS, key)), "avg": sum(scores) / len(scores), "best": max(scores)}
        for key, scores in cells.items()
    ]


def format_row(row: ResultRow) -> list[str]:
    """Deterministic CSV rendering (coverage fixed to 6 decimal places)."""
    return [
        row.instance, str(row.n_uavs), str(row.n_particles), row.algorithm, str(row.seed),
        f"{row.coverage:.6f}", str(row.best_fitness), f"{row.wall_time_ms:.3f}",
    ]


def write_results_csv(rows: list[ResultRow], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_COLUMNS)
        writer.writerows(format_row(row) for row in rows)


def write_summary_csv(summary: list[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_COLUMNS)
        writer.writerows(
            [c["instance"], str(c["n_uavs"]), str(c["n_particles"]), c["algorithm"], f"{c['avg']:.6f}", f"{c['best']:.6f}"]
            for c in summary
        )
