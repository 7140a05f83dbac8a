"""Fitness counting, budget accounting, and the four search strategies."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftsearch.forecast import Forecast
from driftsearch.geo import EARTH_RADIUS_KM, METERS_PER_DEGREE, GeoPoint, haversine_km_arrays, local_to_latlon
from driftsearch.ingest import AccidentSpec, synthesize_track
from driftsearch.model import Deployment
from driftsearch.repair import repair_coords
from driftsearch.optimize import (
    GA_BLX_ALPHA,
    GA_MUTATION_RATE,
    POP_SIZE,
    FitnessEvaluator,
    FitnessValue,
    OptimizerConfig,
    _blx_children,
    _random_coords,
    fitness,
    initialize,
    run,
    run_ga,
    run_random,
)
from driftsearch.scenario import Scenario, SearchArea, _lines, build_scenario


def small_scenario(k=8, seed=3, error_km=0.6):
    track = synthesize_track(seed=12, hours=14, start=GeoPoint(34.0, 127.0), drift_kmh=0.5, turn_sigma=0.3)
    spec = AccidentSpec(track.id, 6, 6)
    fc = Forecast(track.position(9), error_km)
    return build_scenario(track, spec, fc, k=k, seed=seed)


def at(center: GeoPoint, east_km: float, north_km: float) -> GeoPoint:
    lat, lon = local_to_latlon(east_km, north_km, center)
    return GeoPoint(float(lat), float(lon))


def center_km(dep) -> np.ndarray:
    """Each UAV's distance from the center of the deployment's area."""
    lat, lon = dep.latlon()
    return haversine_km_arrays(lat, lon, dep.area.center.lat, dep.area.center.lon)


class TestConfig:
    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            OptimizerConfig("hillclimb", 6)

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            OptimizerConfig("random", 0)
        with pytest.raises(ValueError):
            OptimizerConfig("random", 6, budget_evals=0)

    @pytest.mark.parametrize(
        "field, kwargs",
        [("n_uavs", {"n_uavs": True}), ("budget_evals", {"budget_evals": 50.5}), ("seed", {"seed": True})],
    )
    def test_wrongly_typed_fields_rejected_by_name(self, field, kwargs):
        with pytest.raises(ValueError, match=f"^{field} must be an int"):
            OptimizerConfig(**{"algorithm": "random", "n_uavs": 6, "budget_evals": 50, **kwargs})

    def test_numpy_integers_accepted(self):
        config = OptimizerConfig("random", np.int64(6), budget_evals=np.int32(50), seed=np.int64(3))
        assert config.n_uavs == 6

    def test_fitness_value_range(self):
        with pytest.raises(ValueError):
            FitnessValue(5, 3)


class TestFitnessEvaluator:
    def test_total_segments_matches_line_lengths(self):
        import math

        scen = small_scenario()
        ev = FitnessEvaluator(scen, unit_m=100.0)
        expected = sum(max(1, math.ceil(line.length_km * 1000.0 / 100.0)) for line in scen.lines)
        assert ev.total_segments == expected

    def test_counts_evaluations(self):
        scen = small_scenario()
        ev = FitnessEvaluator(scen, unit_m=100.0)
        for _ in range(5):
            assert type(ev.evaluate_coords(np.zeros((4, 2)))) is int
        assert ev.evals == 5

    def test_uav_on_line_detects_segments(self):
        scen = small_scenario()
        # A 600 m disc at the area center must cover the nearby parts of any
        # line passing within 600 m of it.
        dep = initialize(1, scen.area, 0)
        fv = fitness(dep, scen)
        assert 0 <= fv.score <= fv.total_segments

    def test_uav_far_away_detects_nothing(self):
        scen = small_scenario()
        from driftsearch.model import Deployment, UavPosition

        far = GeoPoint(36.0, 129.5)
        dep = Deployment((UavPosition(far, 600.0),), scen.area)
        assert fitness(dep, scen).score == 0


    def test_deployment_read_in_scenario_frame(self):
        # Fitness depends on where the UAVs are, not on the area they carry.
        from driftsearch.model import Deployment

        scen = small_scenario()
        dep = initialize(6, scen.area, 2)
        other = SearchArea(at(scen.area.center, 3.0, -2.0), 1.0)
        assert fitness(dep, scen).score > 0
        assert fitness(Deployment(dep.uavs, other), scen) == fitness(dep, scen)


def seed_blx_children(a, b, alpha, rng):
    """Frozen copy of the crossover that drew each child with its own Generator.uniform call."""
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    spread = alpha * (hi - lo)
    low, high = lo - spread, hi + spread
    return rng.uniform(low, high), rng.uniform(low, high)


class TestBlxChildren:
    def test_matches_two_uniform_calls(self):
        for seed in range(300):
            parents = np.random.default_rng(seed).normal(0.0, 2.0, size=(2, 1 + seed % 8, 2))
            alpha = (0.0, 0.3, 0.5)[seed % 3]
            rng, frozen = np.random.default_rng(seed), np.random.default_rng(seed)
            children = _blx_children(parents[0], parents[1], alpha, rng)
            expected = seed_blx_children(parents[0], parents[1], alpha, frozen)
            assert all(np.array_equal(c, e) for c, e in zip(children, expected))
            assert rng.random() == frozen.random()


def seed_run_random(scenario, config):
    """Frozen copy of the random search that drew and scored one deployment at a time."""
    rng = np.random.default_rng(config.seed)
    ev = FitnessEvaluator(scenario)
    best_coords, best, history = None, None, []
    block = min(50, config.budget_evals)
    for i in range(config.budget_evals):
        coords = _random_coords(config.n_uavs, scenario.area.radius_km, rng)
        score = ev.evaluate_coords(coords)
        if best is None or score > best:
            best, best_coords = score, coords
        if (i + 1) % block == 0 or i + 1 == config.budget_evals:
            history.append(float(best))
    return best_coords, best, history, ev.evals


def seed_run_ga(scenario, config):
    """Frozen copy of the GA that repaired each child as it was drawn and
    stopped drawing once a short last generation was full."""
    rng = np.random.default_rng(config.seed)
    ev = FitnessEvaluator(scenario)
    radius, center = scenario.area.radius_km, scenario.area.center
    pop = [repair_coords(_random_coords(config.n_uavs, radius, rng), radius, center) for _ in range(POP_SIZE)]
    fits = [ev.evaluate_coords(c) for c in pop]
    best_idx = max(range(len(pop)), key=lambda i: fits[i])
    best_coords, best = pop[best_idx], fits[best_idx]
    history = [float(best)]
    while ev.evals < config.budget_evals:
        n_offspring = min(POP_SIZE, config.budget_evals - ev.evals)
        order = rng.permutation(POP_SIZE)
        offspring = []
        for pair_idx in range(POP_SIZE // 2):
            ia, ib = order[2 * pair_idx], order[2 * pair_idx + 1]
            rng.random()
            for child in _blx_children(pop[ia], pop[ib], GA_BLX_ALPHA, rng):
                reset = rng.random(config.n_uavs) < GA_MUTATION_RATE
                n_reset = int(reset.sum())
                if n_reset:
                    child[reset] = _random_coords(n_reset, radius, rng)
                offspring.append(repair_coords(child, radius, center))
                if len(offspring) == n_offspring:
                    break
            if len(offspring) == n_offspring:
                break
        off_fits = [ev.evaluate_coords(c) for c in offspring]
        pool = pop + offspring
        pool_fits = fits + off_fits
        keep = sorted(range(len(pool)), key=lambda i: -pool_fits[i])[:POP_SIZE]
        pop = [pool[i] for i in keep]
        fits = [pool_fits[i] for i in keep]
        if fits[0] > best:
            best, best_coords = fits[0], pop[0]
        history.append(float(best))
    return best_coords, best, history, ev.evals


class TestBlockRunnersMatchFrozenLoops:
    @settings(max_examples=30, deadline=None)
    @given(
        runner=st.sampled_from([(run_random, seed_run_random, "random"), (run_ga, seed_run_ga, "ga")]),
        n_uavs=st.integers(1, 12),
        budget=st.one_of(st.integers(50, 400), st.sampled_from([50, 51, 99, 100, 101, 149, 399])),
        seed=st.integers(0, 2**63 - 1),
    )
    def test_bitwise_equal(self, runner, n_uavs, budget, seed):
        # Budgets that are not a multiple of 50 end in a short last generation or block.
        new, frozen, algorithm = runner
        scen = small_scenario()
        config = OptimizerConfig(algorithm, n_uavs=n_uavs, budget_evals=budget, seed=seed)
        ev = FitnessEvaluator(scen)
        coords, score, history = new(ev, np.random.default_rng(seed), config)
        expected_coords, expected_score, expected_history, expected_evals = frozen(scen, config)
        assert coords.tobytes() == expected_coords.tobytes()
        assert type(score) is int and score == expected_score
        assert history == expected_history
        assert ev.evals == expected_evals == budget
        result = run(scen, config)
        assert result.best == Deployment.from_coords(coords, scen.area)
        assert result.best_fitness == FitnessValue(score, ev.total_segments)
        assert result.history == tuple(history) and result.evals_used == budget


class TestInitialize:
    def test_within_area(self):
        scen = small_scenario()
        for seed in range(10):
            dep = initialize(6, scen.area, seed)
            assert (center_km(dep) <= scen.area.radius_km + 1e-9).all()

    def test_deterministic(self):
        scen = small_scenario()
        assert initialize(6, scen.area, 4) == initialize(6, scen.area, 4)


@pytest.mark.parametrize("algorithm", ["random", "sa", "pso", "ga"])
class TestRunners:
    def test_budget_exactly_consumed(self, algorithm):
        scen = small_scenario()
        config = OptimizerConfig(algorithm, n_uavs=4, budget_evals=120, seed=0)
        result = run(scen, config)
        assert result.evals_used == 120

    @settings(max_examples=6, deadline=None)
    @given(n_uavs=st.integers(1, 12), seed=st.integers(0, 2**63 - 1))
    def test_deterministic(self, algorithm, n_uavs, seed):
        scen = small_scenario()
        config = OptimizerConfig(algorithm, n_uavs=n_uavs, budget_evals=120, seed=seed)
        a = run(scen, config)
        b = run(scen, config)
        assert a.best_fitness == b.best_fitness
        assert a.best == b.best
        assert a.history == b.history
        assert a.evals_used == b.evals_used

    def test_history_monotone(self, algorithm):
        scen = small_scenario()
        result = run(scen, OptimizerConfig(algorithm, n_uavs=4, budget_evals=150, seed=2))
        assert list(result.history) == sorted(result.history)

    def test_best_within_area(self, algorithm):
        scen = small_scenario()
        result = run(scen, OptimizerConfig(algorithm, n_uavs=4, budget_evals=120, seed=3))
        assert (center_km(result.best) <= scen.area.radius_km + 1e-6).all()

    def test_reported_fitness_matches_deployment(self, algorithm):
        scen = small_scenario()
        result = run(scen, OptimizerConfig(algorithm, n_uavs=4, budget_evals=120, seed=4))
        recomputed = fitness(result.best, scen)
        assert recomputed.score == result.best_fitness.score


class TestBudgetParity:
    @pytest.mark.parametrize("algorithm", ["ga", "pso"])
    @pytest.mark.parametrize("budget", [1, 49])
    def test_budget_below_population_rejected(self, algorithm, budget):
        with pytest.raises(ValueError, match="below its pop_size 50"):
            OptimizerConfig(algorithm, n_uavs=3, budget_evals=budget)

    @pytest.mark.parametrize("algorithm", ["random", "sa", "pso", "ga"])
    @pytest.mark.parametrize("budget", [50, 51, 101, 149])
    @pytest.mark.parametrize("n_uavs", [1, 7])
    def test_every_algorithm_spends_exactly_its_budget(self, algorithm, budget, n_uavs, monkeypatch):
        calls = []
        original = FitnessEvaluator.evaluate_coords

        def counted(self, coords_km):
            calls.append(len(coords_km))
            return original(self, coords_km)

        monkeypatch.setattr(FitnessEvaluator, "evaluate_coords", counted)
        result = run(small_scenario(), OptimizerConfig(algorithm, n_uavs=n_uavs, budget_evals=budget, seed=0))
        assert result.evals_used == len(calls) == budget
        assert set(calls) == {n_uavs}


class TestRepairedAlgorithmsRespectOverlap:
    @pytest.mark.parametrize("algorithm", ["sa", "pso", "ga"])
    def test_no_overlap_in_final_answer(self, algorithm):
        scen = small_scenario(error_km=1.2)  # roomy area: repair can always succeed
        result = run(scen, OptimizerConfig(algorithm, n_uavs=4, budget_evals=150, seed=5))
        uavs = result.best.uavs
        lat, lon = result.best.latlon()
        pairwise_m = haversine_km_arrays(lat[:, None], lon[:, None], lat, lon) * 1000.0
        for i in range(len(uavs)):
            for j in range(i + 1, len(uavs)):
                d_m = pairwise_m[i, j]
                assert d_m >= uavs[i].detection_radius_m + uavs[j].detection_radius_m - 1e-6


# --- Pruned fitness kernel against the dense distance matrix -----------------


def seed_haversine_km(lat1, lon1, lat2, lon2, radius_km=6371.0):
    """The haversine formula exactly as first written, kept as an oracle."""
    phi1 = np.radians(lat1)
    phi2 = np.radians(lat2)
    dphi = np.radians(np.subtract(lat2, lat1))
    dlam = np.radians(np.subtract(lon2, lon1))
    s = np.sin(dphi / 2.0) ** 2 + np.cos(phi1) * np.cos(phi2) * np.sin(dlam / 2.0) ** 2
    return 2.0 * radius_km * np.arcsin(np.minimum(1.0, np.sqrt(s)))


def dense_detected(ev: FitnessEvaluator, coords_km: np.ndarray) -> int:
    """Every UAV against every midpoint: the kernel the pruned one replaces."""
    lat, lon = local_to_latlon(coords_km[:, 0], coords_km[:, 1], ev.center)
    d_center = seed_haversine_km(lat, lon, ev.center.lat, ev.center.lon)
    radii_m = np.clip(-200.0 * d_center + 600.0, 200.0, 600.0)
    dist_m = seed_haversine_km(lat[:, None], lon[:, None], ev.index.lat[None, :], ev.index.lon[None, :]) * 1000.0
    return int((dist_m < radii_m[:, None]).any(axis=0).sum())


def fan_scenario(center: GeoPoint, ends_km, accident_km=(0.5, -0.8), radius_km=3.0) -> Scenario:
    """Candidate lines from one accident point to particles at local offsets (km)."""
    accident = at(center, *accident_km)
    particles = tuple(at(center, e, n) for e, n in ends_km)
    return Scenario(accident, SearchArea(center, radius_km), particles, _lines(accident, particles), 1.0)


offsets_km = st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))


class TestPrunedFitness:
    @settings(max_examples=150, deadline=None)
    @given(
        lat=st.floats(0.0, 80.0),
        lon=st.one_of(st.floats(179.99, 180.0), st.floats(-180.0, -179.99)),
        ends=st.lists(offsets_km, min_size=1, max_size=5),
        unit_m=st.floats(25.0, 200.0),
        n_uavs=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_oracle_near_antimeridian(self, lat, lon, ends, unit_m, n_uavs, seed):
        ev = FitnessEvaluator(fan_scenario(GeoPoint(lat, lon), ends), unit_m=unit_m)
        rng = np.random.default_rng(seed)
        for spread_km in (0.5, 3.0, 8.0):
            coords = rng.normal(0.0, spread_km, size=(n_uavs, 2))
            assert ev.evaluate_coords(coords) == dense_detected(ev, coords)

    def test_disc_edge_along_both_axes(self):
        # A UAV at the center has a 600 m disc. One-segment lines from the
        # center put their midpoints 1 cm inside and 1 cm outside its edge, to
        # the north and to the east, where the pruning bounds are tight.
        center = GeoPoint(60.0, 179.9995)
        ends = [(0.0, 1.19998), (0.0, 1.20002), (1.19998, 0.0), (1.20002, 0.0)]
        ev = FitnessEvaluator(fan_scenario(center, ends, accident_km=(0.0, 0.0)), unit_m=2000.0)
        assert ev.total_segments == 4
        coords = np.zeros((1, 2))
        assert ev.evaluate_coords(coords) == dense_detected(ev, coords) == 2

    def test_longitude_differences_beyond_half_a_turn(self):
        # One full parallel east of the center is the center again: the
        # longitudes differ by 360 degrees, the haversine by nothing.
        center = GeoPoint(80.0, 179.995)
        ev = FitnessEvaluator(fan_scenario(center, [(0.3, 0.4), (-0.5, 0.2)]), unit_m=50.0)
        turn_km = 2.0 * math.pi * EARTH_RADIUS_KM * math.cos(math.radians(center.lat))
        coords = np.array([[turn_km, 0.0]])
        assert ev.evaluate_coords(coords) == dense_detected(ev, coords) > 0

    def test_out_of_range_latitudes_fall_back_to_all_pairs(self):
        ev = FitnessEvaluator(small_scenario(), unit_m=100.0)
        # Mirrored through the pole: latitude 180 - lat at longitude lon + 180
        # is the point (lat, lon) to the haversine formula; here one 100 m
        # north of the center.
        lat0, mpd_km = ev.center.lat, METERS_PER_DEGREE / 1000.0
        north = (180.0 - 2.0 * lat0) * mpd_km - 0.1
        east = 180.0 * math.cos(math.radians(lat0)) * mpd_km
        for coords in (np.array([[east, north]]), np.array([[0.0, 0.0], [0.0, 1e5], [np.nan, 0.0]])):
            with np.errstate(invalid="ignore"):  # NaN distances for the NaN and far rows
                assert ev.evaluate_coords(coords) == dense_detected(ev, coords) > 0

    def test_prunes_most_pairs(self):
        scen = small_scenario()
        ev = FitnessEvaluator(scen, unit_m=100.0)
        dep = initialize(8, scen.area, 0)
        lat = np.array([u.position.lat for u in dep.uavs])
        lon = np.array([u.position.lon for u in dep.uavs])
        uav, _ = ev.index.pairs(lat, lon)
        assert len(uav) < 8 * ev.total_segments / 2
