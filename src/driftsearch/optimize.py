"""Search strategies over deployment space: random, SA, PSO, GA.

All four share the fitness function (detected line segments) and a common
evaluation budget, counted at the fitness call site, so runs with the same
budget are directly comparable. Random search deliberately skips the repair
step; SA, PSO, and GA repair every candidate they evaluate.

Internally the decision variable is an (n_uavs, 2) array of local-plane
kilometers anchored at the search-area center; conversion to lat/lon happens
only at the API boundary.

The metaheuristics' settings are fixed module constants (population size,
BLX alpha, mutation rate, PSO weights, SA schedule); GA always crosses over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .geo import MidpointIndex, haversine_km_arrays, latlon_to_local, local_to_latlon
from .model import MAX_DETECTION_RADIUS_M, Deployment, radius_law
from .repair import repair_coords
from .scenario import Scenario, SearchArea

ALGORITHMS = ("random", "sa", "pso", "ga")

POP_SIZE = 50  # GA and PSO; even, so the GA pairs every parent
GA_BLX_ALPHA = 0.5
GA_MUTATION_RATE = 0.1
PSO_INERTIA_W = 0.7
PSO_C1 = 2.0
PSO_C2 = 2.0
SA_T0 = 1.0
SA_COOLING = 0.95
SA_EPOCHS = 10
# Neighborhood scale as a fraction of the search radius at T = T0; shrinks
# proportionally with temperature.
SA_STEP_FRACTION = 0.1
# Length of the candidate-line segments that fitness counts.
FITNESS_UNIT_M = 100.0


@dataclass(frozen=True)
class OptimizerConfig:
    algorithm: str
    n_uavs: int
    budget_evals: int = 2500
    seed: int = 0

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}, expected one of {ALGORITHMS}")
        if self.n_uavs < 1 or self.budget_evals < 1:
            raise ValueError("n_uavs and budget_evals must be >= 1")
        if self.algorithm in ("ga", "pso") and self.budget_evals < POP_SIZE:
            # The first population is evaluated whole, so a smaller budget would be overspent.
            raise ValueError(f"{self.algorithm} budget_evals {self.budget_evals} is below its pop_size {POP_SIZE}")


@dataclass(frozen=True)
class FitnessValue:
    detected_segments: int
    total_segments: int

    def __post_init__(self) -> None:
        if not 0 <= self.detected_segments <= self.total_segments:
            raise ValueError("detected segment count out of range")

    @property
    def score(self) -> int:
        return self.detected_segments


@dataclass(frozen=True)
class OptimizationResult:
    best: Deployment
    best_fitness: FitnessValue
    history: tuple[float, ...]
    evals_used: int


class FitnessEvaluator:
    """Counts detected candidate-line segments for a deployment.

    Each candidate line is split into ceil(length / unit) equal segments; a
    segment counts as detected when its midpoint lies strictly inside at
    least one UAV disc. The instance also serves as the budget counter.

    Midpoints are precomputed once per scenario into a
    :class:`~driftsearch.geo.MidpointIndex` with the largest disc radius as
    its reach. An evaluation runs the exact haversine only on the pairs the
    index returns, which include every pair closer than any disc radius, so it
    counts the same segments as the full distance matrix.
    """

    def __init__(self, scenario: Scenario, unit_m: float = FITNESS_UNIT_M):
        if unit_m <= 0:
            raise ValueError("unit_m must be positive")
        self.scenario = scenario
        self.center = scenario.area.center
        mids_e: list[np.ndarray] = []
        mids_n: list[np.ndarray] = []
        for line in scenario.lines:
            se, sn = latlon_to_local(line.start.lat, line.start.lon, self.center)
            ee, en = latlon_to_local(line.end.lat, line.end.lon, self.center)
            n_seg = max(1, math.ceil(line.length_km * 1000.0 / unit_m))
            fracs = (np.arange(n_seg) + 0.5) / n_seg
            mids_e.append(se + fracs * (ee - se))
            mids_n.append(sn + fracs * (en - sn))
        east = np.concatenate(mids_e)
        north = np.concatenate(mids_n)
        mid_lat, mid_lon = local_to_latlon(east, north, self.center)
        self.index = MidpointIndex(mid_lat, mid_lon, MAX_DETECTION_RADIUS_M / 1000.0)
        self.total_segments = int(len(east))
        self.evals = 0
        # The center rides along as a last pseudo-midpoint, so one haversine
        # call yields both the UAV-center and the UAV-midpoint distances.
        self._lat2 = np.append(self.index.lat, self.center.lat)
        self._lon2 = np.append(self.index.lon, self.center.lon)

    def evaluate_coords(self, coords_km: np.ndarray) -> FitnessValue:
        self.evals += 1
        lat, lon = local_to_latlon(coords_km[:, 0], coords_km[:, 1], self.center)
        n = len(lat)
        uav, mid = self.index.pairs(lat, lon)
        uav = np.concatenate([np.arange(n), uav])
        mid = np.concatenate([np.full(n, self.total_segments), mid])
        d = haversine_km_arrays(lat[uav], lon[uav], self._lat2[mid], self._lon2[mid])
        radii_m = radius_law(d[:n])
        inside = d[n:] * 1000.0 < radii_m[uav[n:]]
        detected = np.zeros(self.total_segments, dtype=bool)
        detected[mid[n:][inside]] = True
        return FitnessValue(int(np.count_nonzero(detected)), self.total_segments)

    def evaluate(self, deployment: Deployment) -> FitnessValue:
        """Fitness of a deployment; its UAVs are read in this scenario's frame."""
        return self.evaluate_coords(replace(deployment, area=self.scenario.area).coords_km())


def fitness(deployment: Deployment, scenario: Scenario, unit_m: float = FITNESS_UNIT_M) -> FitnessValue:
    """One-off fitness of a deployment (builds a throwaway evaluator)."""
    return FitnessEvaluator(scenario, unit_m).evaluate(deployment)


def _random_coords(n_uavs: int, radius_km: float, rng: np.random.Generator) -> np.ndarray:
    """Polar draw per UAV: angle uniform in [0, 2pi), distance uniform in [0, R]."""
    theta = rng.uniform(0.0, 2.0 * math.pi, n_uavs)
    h = rng.uniform(0.0, radius_km, n_uavs)
    return np.column_stack([h * np.cos(theta), h * np.sin(theta)])


def initialize(n_uavs: int, area: SearchArea, seed: int) -> Deployment:
    """Random deployment inside the search area, radii derived per position."""
    rng = np.random.default_rng(seed)
    coords = _random_coords(n_uavs, area.radius_km, rng)
    return Deployment.from_coords(coords, area)


def run_random(scenario: Scenario, config: OptimizerConfig) -> OptimizationResult:
    """Pure random sampling, no repair; the unguided baseline."""
    rng = np.random.default_rng(config.seed)
    ev = FitnessEvaluator(scenario)
    area = scenario.area
    best_coords = None
    best_fv = None
    history: list[float] = []
    block = min(50, config.budget_evals)
    for i in range(config.budget_evals):
        coords = _random_coords(config.n_uavs, area.radius_km, rng)
        fv = ev.evaluate_coords(coords)
        if best_fv is None or fv.score > best_fv.score:
            best_fv, best_coords = fv, coords
        if (i + 1) % block == 0 or i + 1 == config.budget_evals:
            history.append(float(best_fv.score))
    return OptimizationResult(Deployment.from_coords(best_coords, area), best_fv, tuple(history), ev.evals)


def _blx_children(
    a: np.ndarray, b: np.ndarray, alpha: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Blend crossover per gene: uniform in the parents' interval +- alpha*|diff|."""
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    spread = alpha * (hi - lo)
    low, high = lo - spread, hi + spread
    u = rng.random((2, *low.shape))  # one draw: the stream and bits of two Generator.uniform calls
    return low + (high - low) * u[0], low + (high - low) * u[1]


def run_ga(scenario: Scenario, config: OptimizerConfig) -> OptimizationResult:
    """Generational GA with BLX crossover, reset mutation, and elitist truncation."""
    rng = np.random.default_rng(config.seed)
    ev = FitnessEvaluator(scenario)
    area = scenario.area
    radius = area.radius_km
    center = area.center

    pop = [repair_coords(_random_coords(config.n_uavs, radius, rng), radius, center) for _ in range(POP_SIZE)]
    fits = [ev.evaluate_coords(c) for c in pop]
    best_idx = max(range(len(pop)), key=lambda i: fits[i].score)
    best_coords, best_fv = pop[best_idx], fits[best_idx]
    history = [float(best_fv.score)]

    while ev.evals < config.budget_evals:
        n_offspring = min(POP_SIZE, config.budget_evals - ev.evals)
        order = rng.permutation(POP_SIZE)
        offspring: list[np.ndarray] = []
        for pair_idx in range(POP_SIZE // 2):
            ia, ib = order[2 * pair_idx], order[2 * pair_idx + 1]
            rng.random()  # the crossover draw; the rate is 1, but the draw stays in the stream
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
        # (mu + lambda) elitist truncation; stable sort keeps first-found on ties.
        pool = pop + offspring
        pool_fits = fits + off_fits
        keep = sorted(range(len(pool)), key=lambda i: -pool_fits[i].score)[:POP_SIZE]
        pop = [pool[i] for i in keep]
        fits = [pool_fits[i] for i in keep]
        if fits[0].score > best_fv.score:
            best_fv, best_coords = fits[0], pop[0]
        history.append(float(best_fv.score))
    return OptimizationResult(Deployment.from_coords(best_coords, area), best_fv, tuple(history), ev.evals)


def run_pso(scenario: Scenario, config: OptimizerConfig) -> OptimizationResult:
    """Standard inertia-weight PSO; every position update is repaired."""
    rng = np.random.default_rng(config.seed)
    ev = FitnessEvaluator(scenario)
    area = scenario.area
    radius = area.radius_km
    center = area.center

    pos = [repair_coords(_random_coords(config.n_uavs, radius, rng), radius, center) for _ in range(POP_SIZE)]
    vel = [np.zeros((config.n_uavs, 2)) for _ in range(POP_SIZE)]
    fits = [ev.evaluate_coords(c) for c in pos]
    pbest = [c.copy() for c in pos]
    pbest_f = list(fits)
    g_idx = max(range(POP_SIZE), key=lambda i: fits[i].score)
    gbest, gbest_f = pos[g_idx].copy(), fits[g_idx]
    history = [float(gbest_f.score)]

    while ev.evals < config.budget_evals:
        n_updates = min(POP_SIZE, config.budget_evals - ev.evals)
        for i in range(n_updates):
            r1 = rng.uniform(size=(config.n_uavs, 2))
            r2 = rng.uniform(size=(config.n_uavs, 2))
            vel[i] = (
                PSO_INERTIA_W * vel[i]
                + PSO_C1 * r1 * (pbest[i] - pos[i])
                + PSO_C2 * r2 * (gbest - pos[i])
            )
            pos[i] = repair_coords(pos[i] + vel[i], radius, center)
            fv = ev.evaluate_coords(pos[i])
            if fv.score > pbest_f[i].score:
                pbest[i], pbest_f[i] = pos[i].copy(), fv
                if fv.score > gbest_f.score:
                    gbest, gbest_f = pos[i].copy(), fv
        history.append(float(gbest_f.score))
    return OptimizationResult(Deployment.from_coords(gbest, area), gbest_f, tuple(history), ev.evals)


def run_sa(scenario: Scenario, config: OptimizerConfig) -> OptimizationResult:
    """Single-chain simulated annealing with a temperature-scaled Gaussian step.

    The temperature drops by the cooling factor once per epoch, where an epoch
    is budget / :data:`SA_EPOCHS` evaluations; this stretches the epochs over
    the shared budget.
    """
    rng = np.random.default_rng(config.seed)
    ev = FitnessEvaluator(scenario)
    area = scenario.area
    radius = area.radius_km
    center = area.center

    current = repair_coords(_random_coords(config.n_uavs, radius, rng), radius, center)
    current_f = ev.evaluate_coords(current)
    best, best_f = current, current_f
    temperature = SA_T0
    epoch = max(1, config.budget_evals // SA_EPOCHS)
    history = [float(best_f.score)]

    while ev.evals < config.budget_evals:
        # Move one randomly chosen UAV by a temperature-scaled Gaussian step.
        # Joint all-UAV moves almost never improve a tuned configuration and
        # degrade the chain below the random-search baseline.
        sigma = SA_STEP_FRACTION * radius * temperature / SA_T0
        candidate = current.copy()
        uav = int(rng.integers(config.n_uavs))
        candidate[uav] += rng.normal(0.0, sigma, size=2)
        candidate = repair_coords(candidate, radius, center)
        fv = ev.evaluate_coords(candidate)
        delta = fv.score - current_f.score
        if delta >= 0 or rng.random() < math.exp(delta / temperature):
            current, current_f = candidate, fv
            if fv.score > best_f.score:
                best, best_f = candidate, fv
        if ev.evals % epoch == 0:
            temperature *= SA_COOLING
            history.append(float(best_f.score))
    if not history or history[-1] != float(best_f.score):
        history.append(float(best_f.score))
    return OptimizationResult(Deployment.from_coords(best, area), best_f, tuple(history), ev.evals)


_RUNNERS = {"random": run_random, "ga": run_ga, "pso": run_pso, "sa": run_sa}


def run(scenario: Scenario, config: OptimizerConfig) -> OptimizationResult:
    """Dispatch to the configured algorithm."""
    return _RUNNERS[config.algorithm](scenario, config)
