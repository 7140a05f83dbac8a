"""Acceptance suite: ten end-to-end correctness and performance gates.

Each criterion is a single test, so ``pytest -v`` reports one pass/fail line
per criterion. The expensive comparison grid (criterion 7) runs once in a
module fixture and is shared with the determinism and budget checks.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import binomtest

from driftsearch.evaluate import monte_carlo_chain, survival_chain
from driftsearch.forecast import PredictorSpec, benchmark_predictors
from driftsearch.geo import GeoPoint, haversine_km_arrays, local_to_latlon
from driftsearch.ingest import DrifterRecord, DrifterTrack, _SYNTH_EPOCH
from driftsearch.model import Deployment, UavPosition, detection_pod
from driftsearch.optimize import FitnessEvaluator, OptimizerConfig, initialize, run
from driftsearch.repair import repair
from driftsearch.scenario import CandidateLine, Scenario, SearchArea
from driftsearch.experiment import default_spec, format_row, run_cell, run_experiment

CENTER = GeoPoint(34.0, 127.0)


def offset(north_m: float, east_m: float = 0.0, anchor: GeoPoint = CENTER) -> GeoPoint:
    lat, lon = local_to_latlon(east_m / 1000.0, north_m / 1000.0, anchor)
    return GeoPoint(float(lat), float(lon))


@pytest.fixture(scope="module")
def grid():
    """The full 3 instances x {6,8} UAVs x {10,15} particles x 4 algorithms
    x 5 seeds comparison grid, with its wall-clock time."""
    spec = default_spec()
    start = time.perf_counter()
    rows, summary = run_experiment(spec)
    elapsed = time.perf_counter() - start
    return spec, rows, elapsed


def test_criterion_01_geometry_exactness():
    equator_degree = haversine_km_arrays(0.0, 0.0, 0.0, 1.0)
    assert abs(equator_degree - 111.19) / 111.19 < 1e-4
    quarter_meridian = haversine_km_arrays(0.0, 0.0, 90.0, 0.0)
    assert abs(quarter_meridian - 10007.5) / 10007.5 < 1e-4

    rng = np.random.default_rng(0)
    lat1, lat2 = rng.uniform(-80, 80, 1_000_000), rng.uniform(-80, 80, 1_000_000)
    lon1, lon2 = rng.uniform(-180, 180, 1_000_000), rng.uniform(-180, 180, 1_000_000)
    start = time.perf_counter()
    haversine_km_arrays(lat1, lon1, lat2, lon2)
    assert time.perf_counter() - start < 1.0


def test_criterion_02_dynamic_radius_law():
    # Pure-north displacements are haversine-exact, so the law's endpoints
    # can be probed without projection error.
    for d_km, expected in ((0.0, 600.0), (1.0, 400.0), (2.0, 200.0)):
        r = UavPosition.place(offset(d_km * 1000.0), CENTER).detection_radius_m
        assert r == pytest.approx(expected, abs=1e-6)
    for d_km in (3.01, 5.0, 25.0):
        assert UavPosition.place(offset(d_km * 1000.0), CENTER).detection_radius_m == 200.0


def test_criterion_03_pod_bounds():
    assert detection_pod(600.0) == pytest.approx(0.6321, abs=1e-4)
    assert detection_pod(200.0) == pytest.approx(0.2835, abs=1e-4)


def test_criterion_04_repair_soundness():
    rng = np.random.default_rng(42)

    # (a) 1000 random deployments: zero boundary violations after repair.
    boundary_violations = 0
    for trial in range(1000):
        n = int(rng.choice([6, 8]))
        radius = float(rng.uniform(1.0, 10.0))
        area = SearchArea(CENTER, radius)
        pts = [
            offset(float(n_km) * 1000.0, float(e_km) * 1000.0)
            for e_km, n_km in rng.uniform(-1.5 * radius, 1.5 * radius, size=(n, 2))
        ]
        fixed = repair(Deployment.from_points(pts, area))
        lat, lon = fixed.latlon()
        boundary_violations += int(np.count_nonzero(haversine_km_arrays(lat, lon, CENTER.lat, CENTER.lon) > radius + 1e-9))
    assert boundary_violations == 0

    # (b) packing-feasible fixtures (disc area < 30% of search area): zero
    # residual overlaps within the default iteration cap.
    residual_overlaps = 0
    for trial in range(100):
        n = int(rng.choice([6, 8]))
        # n discs of <= 0.6 km radius: area fraction < 0.3 needs R > sqrt(n*1.2).
        radius = float(rng.uniform(math.sqrt(n * 1.2) + 0.2, 10.0))
        area = SearchArea(CENTER, radius)
        pts = [
            offset(float(n_km) * 1000.0, float(e_km) * 1000.0)
            for e_km, n_km in rng.uniform(-0.5, 0.5, size=(n, 2))
        ]
        fixed = repair(Deployment.from_points(pts, area))
        lat, lon = fixed.latlon()
        pairwise_m = haversine_km_arrays(lat[:, None], lon[:, None], lat, lon) * 1000.0
        for i in range(n):
            for j in range(i + 1, n):
                d_m = pairwise_m[i, j]
                if d_m < fixed.uavs[i].detection_radius_m + fixed.uavs[j].detection_radius_m - 1e-6:
                    residual_overlaps += 1
    assert residual_overlaps == 0

    # (c) repairing an already-feasible deployment is the identity.
    area = SearchArea(CENTER, 5.0)
    feasible = Deployment.from_points(
        [offset(0.0), offset(2000.0), offset(-2000.0), offset(0.0, 2000.0)], area
    )
    assert repair(feasible) is feasible


def test_criterion_05_coverage_oracle_equivalence():
    # 10^6 cohort passes per fixture: 10^4 trials of a K0 = 100 cohort.
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    for fixture in range(20):
        n_segments = int(rng.integers(5, 60))
        pods = rng.uniform(0.0, 0.65, size=n_segments)
        pods[rng.random(n_segments) < 0.5] = 0.0  # uncovered stretches
        if not pods.any():
            pods[0] = 0.4
        analytic = survival_chain(pods, 100)
        simulated = monte_carlo_chain(pods, 100, trials=10_000, seed=fixture)
        assert abs(simulated - analytic) / analytic < 0.005
    assert time.perf_counter() - start < 30.0


def test_criterion_06_brute_force_fitness_optimum():
    # One straight candidate line crossing a 2 km search area, one UAV.
    area = SearchArea(CENTER, 2.0)
    accident = offset(0.0, -2500.0)
    endpoint = offset(0.0, 1500.0)
    line = CandidateLine(accident, endpoint, float(haversine_km_arrays(accident.lat, accident.lon, endpoint.lat, endpoint.lon)))
    scen = Scenario(accident, area, (endpoint,), (line,), 1.0)

    ev = FitnessEvaluator(scen, unit_m=100.0)
    lattice = np.linspace(-2.0, 2.0, 50)
    lattice_best = 0
    for east in lattice:
        for north in lattice:
            if east * east + north * north <= 4.0:
                lattice_best = max(lattice_best, ev.evaluate_coords(np.array([[east, north]])))

    result = run(scen, OptimizerConfig("ga", n_uavs=1, budget_evals=2500, seed=0))
    assert result.best_fitness.score == lattice_best


def test_criterion_07_metaheuristics_beat_random_search(grid):
    spec, rows, elapsed = grid
    assert elapsed < 600.0
    assert len(rows) == 240

    by_key = {(r.instance, r.n_uavs, r.n_particles, r.algorithm, r.seed): r.coverage for r in rows}
    pair_keys = [
        (inst.name, u, k, s)
        for inst in spec.instances
        for u in spec.uav_counts
        for k in spec.particle_counts
        for s in spec.seeds
    ]
    random_scores = [by_key[key[:3] + ("random",) + key[3:]] for key in pair_keys]
    for algorithm in ("sa", "pso", "ga"):
        scores = [by_key[key[:3] + (algorithm,) + key[3:]] for key in pair_keys]
        assert np.mean(scores) > np.mean(random_scores), algorithm
        wins = sum(a > b for a, b in zip(scores, random_scores))
        losses = sum(a < b for a, b in zip(scores, random_scores))
        p_value = binomtest(wins, wins + losses, alternative="greater").pvalue
        assert p_value < 0.05, f"{algorithm}: {wins}W/{losses}L p={p_value:.4f}"


def test_criterion_08_determinism(grid):
    spec, rows, _ = grid
    by_key = {(r.instance, r.n_uavs, r.n_particles, r.algorithm, r.seed): r for r in rows}
    instances = {inst.name: inst for inst in spec.instances}
    # Re-run a cell per algorithm and compare the formatted result rows
    # byte for byte, wall-clock column excluded (timing is not replayable).
    for algorithm in ("random", "sa", "pso", "ga"):
        key = ("I-2", 8, 15, algorithm, 3)
        rerun = run_cell(instances[key[0]], key[1], key[2], algorithm, key[4], spec)
        assert format_row(rerun)[:-1] == format_row(by_key[key])[:-1], algorithm


def test_criterion_09_budget_parity():
    spec = default_spec()
    inst = spec.instances[0]
    from driftsearch.forecast import forecast_scenario
    from driftsearch.scenario import build_scenario
    from driftsearch.experiment import scenario_seed

    fc = forecast_scenario(inst.track, inst.accident, inst.predictor)
    scen = build_scenario(inst.track, inst.accident, fc, k=10, seed=scenario_seed(inst.name, 10, 0))
    for algorithm in ("random", "sa", "pso", "ga"):
        result = run(scen, OptimizerConfig(algorithm, n_uavs=6, budget_evals=2500, seed=0))
        assert result.evals_used == 2500, algorithm
    # The grid itself asserts the same invariant inside run_cell for all 240 cells.


def test_criterion_10_predictor_sanity(tmp_path):
    def linear_track(track_id, dlat, dlon):
        from datetime import timedelta

        records = tuple(
            DrifterRecord(
                timestamp=_SYNTH_EPOCH + timedelta(hours=i),
                position=GeoPoint(34.0 + i * dlat, 127.0 + i * dlon),
            )
            for i in range(14)
        )
        return DrifterTrack(track_id, records)

    tracks = [linear_track("L1", 0.004, 0.006), linear_track("L2", -0.003, 0.005)]
    results = benchmark_predictors(
        tracks, [PredictorSpec("persistence"), PredictorSpec("linear-extrapolation")], horizon=6
    )
    errors = {spec.kind: err for spec, err in results}
    assert errors["linear-extrapolation"] < errors["persistence"]

    # External predictor fed the exact truth must score 0.0 km.
    t = tracks[0]
    idx = len(t) - 1 - 6
    lines = ["step,lat,lon"] + [
        f"{k},{t.position(idx + k).lat!r},{t.position(idx + k).lon!r}" for k in range(1, 7)
    ]
    path = tmp_path / "oracle.csv"
    path.write_text("\n".join(lines) + "\n")
    oracle = benchmark_predictors([t], [PredictorSpec("external-file", {"path": str(path)})], horizon=6)
    assert oracle[0][1] == pytest.approx(0.0, abs=1e-9)
