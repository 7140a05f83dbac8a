"""Search strategies over deployment space: random, SA, PSO, GA.

All four share the fitness function (detected line segments) and a common
evaluation budget, counted at the fitness call site, so runs with the same
budget are directly comparable. Random search deliberately skips the repair
step; SA, PSO, and GA repair every candidate they evaluate.

:func:`run` builds the run's one evaluator, one seeded Generator and the
result. A runner takes (evaluator, Generator, config), spends exactly the
budget, and returns its best coordinates, their int score and the history.

Internally the decision variable is an (n_uavs, 2) array of local-plane
kilometers anchored at the search-area center; conversion to lat/lon happens
only at the API boundary.

The metaheuristics' settings are fixed module constants (population size,
BLX alpha, mutation rate, PSO weights, SA schedule); GA always crosses over.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .geo import MidpointIndex, haversine_km_arrays, latlon_to_local, local_to_latlon
from .model import MAX_DETECTION_RADIUS_M, Deployment, radius_law
from .repair import repair_coords
from .scenario import Scenario, SearchArea

ALGORITHMS = ("random", "sa", "pso", "ga")

POP_SIZE = 50  # GA and PSO; even, so the GA pairs every parent
RANDOM_BLOCK = 50  # random search draws and scores this many deployments at a time
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


def is_int(value) -> bool:
    """The integer rule of every config: any numbers.Integral (numpy's too) except bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class OptimizerConfig:
    algorithm: str
    n_uavs: int
    budget_evals: int = 2500
    seed: int = 0

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}, expected one of {ALGORITHMS}")
        for name in ("n_uavs", "budget_evals", "seed"):
            if not is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an int, got {getattr(self, name)!r}")
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
        self.area = scenario.area
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

    def evaluate_coords(self, coords_km: np.ndarray) -> int:
        """Number of segments detected by UAVs at local-plane `coords_km` (n, 2)."""
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
        return int(np.count_nonzero(detected))


def fitness(deployment: Deployment, scenario: Scenario, unit_m: float = FITNESS_UNIT_M) -> FitnessValue:
    """One-off fitness of a deployment; its UAVs are read in this scenario's frame."""
    ev = FitnessEvaluator(scenario, unit_m)
    return FitnessValue(ev.evaluate_coords(replace(deployment, area=scenario.area).coords_km()), ev.total_segments)


def _random_coords(n_uavs: int, radius_km: float, rng: np.random.Generator) -> np.ndarray:
    """Polar draw per UAV: angle uniform in [0, 2pi), distance uniform in [0, R]."""
    theta = rng.uniform(0.0, 2.0 * math.pi, n_uavs)
    h = rng.uniform(0.0, radius_km, n_uavs)
    return np.column_stack([h * np.cos(theta), h * np.sin(theta)])


def initialize(n_uavs: int, area: SearchArea, seed: int) -> Deployment:
    """Random deployment inside the search area, radii derived per position."""
    return Deployment.from_coords(_random_coords(n_uavs, area.radius_km, np.random.default_rng(seed)), area)


Outcome = tuple[np.ndarray, int, list[float]]


def run_random(ev: FitnessEvaluator, rng: np.random.Generator, config: OptimizerConfig) -> Outcome:
    """Pure random sampling, no repair; the unguided baseline. Deployments are
    drawn and scored in blocks of :data:`RANDOM_BLOCK`, one history entry each."""
    best_coords, best, history = None, -1, []
    for start in range(0, config.budget_evals, RANDOM_BLOCK):
        size = min(RANDOM_BLOCK, config.budget_evals - start)
        block = [_random_coords(config.n_uavs, ev.area.radius_km, rng) for _ in range(size)]
        scores = [ev.evaluate_coords(c) for c in block]
        i = max(range(size), key=scores.__getitem__)
        if scores[i] > best:
            best, best_coords = scores[i], block[i]
        history.append(float(best))
    return best_coords, best, history


def _population(ev: FitnessEvaluator, rng: np.random.Generator, n_uavs: int) -> tuple[list[np.ndarray], list[int]]:
    """:data:`POP_SIZE` repaired random deployments and their scores."""
    radius, center = ev.area.radius_km, ev.center
    pop = [repair_coords(_random_coords(n_uavs, radius, rng), radius, center) for _ in range(POP_SIZE)]
    return pop, [ev.evaluate_coords(c) for c in pop]


def _blx_children(a: np.ndarray, b: np.ndarray, alpha: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Blend crossover per gene: uniform in the parents' interval +- alpha*|diff|."""
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    spread = alpha * (hi - lo)
    low, high = lo - spread, hi + spread
    u = rng.random((2, *low.shape))  # one draw: the stream and bits of two Generator.uniform calls
    return low + (high - low) * u[0], low + (high - low) * u[1]


def run_ga(ev: FitnessEvaluator, rng: np.random.Generator, config: OptimizerConfig) -> Outcome:
    """Generational GA with BLX crossover, reset mutation, and elitist truncation. Each
    generation is drawn whole before its children are repaired; a short last one scores its first."""
    radius, center = ev.area.radius_km, ev.center
    pop, fits = _population(ev, rng, config.n_uavs)
    best = max(range(POP_SIZE), key=fits.__getitem__)
    best_coords, best_score = pop[best], fits[best]
    history = [float(best_score)]

    while ev.evals < config.budget_evals:
        children: list[np.ndarray] = []
        for ia, ib in rng.permutation(POP_SIZE).reshape(-1, 2):
            rng.random()  # the crossover draw; the rate is 1, but the draw stays in the stream
            for child in _blx_children(pop[ia], pop[ib], GA_BLX_ALPHA, rng):
                reset = rng.random(config.n_uavs) < GA_MUTATION_RATE
                n_reset = int(reset.sum())
                if n_reset:
                    child[reset] = _random_coords(n_reset, radius, rng)
                children.append(child)
        offspring = [repair_coords(c, radius, center) for c in children[: config.budget_evals - ev.evals]]
        # (mu + lambda) elitist truncation; stable sort keeps first-found on ties.
        pool = pop + offspring
        pool_fits = fits + [ev.evaluate_coords(c) for c in offspring]
        keep = sorted(range(len(pool)), key=lambda i: -pool_fits[i])[:POP_SIZE]
        pop = [pool[i] for i in keep]
        fits = [pool_fits[i] for i in keep]
        if fits[0] > best_score:
            best_score, best_coords = fits[0], pop[0]
        history.append(float(best_score))
    return best_coords, best_score, history


def run_pso(ev: FitnessEvaluator, rng: np.random.Generator, config: OptimizerConfig) -> Outcome:
    """Standard inertia-weight PSO; every position update is repaired."""
    radius, center = ev.area.radius_km, ev.center
    pos, fits = _population(ev, rng, config.n_uavs)
    vel = [np.zeros((config.n_uavs, 2)) for _ in range(POP_SIZE)]
    pbest, pbest_f = [c.copy() for c in pos], list(fits)
    g_idx = max(range(POP_SIZE), key=fits.__getitem__)
    gbest, gbest_f = pos[g_idx].copy(), fits[g_idx]
    history = [float(gbest_f)]

    while ev.evals < config.budget_evals:
        for i in range(min(POP_SIZE, config.budget_evals - ev.evals)):
            r1 = rng.uniform(size=(config.n_uavs, 2))
            r2 = rng.uniform(size=(config.n_uavs, 2))
            vel[i] = (
                PSO_INERTIA_W * vel[i]
                + PSO_C1 * r1 * (pbest[i] - pos[i])
                + PSO_C2 * r2 * (gbest - pos[i])
            )
            pos[i] = repair_coords(pos[i] + vel[i], radius, center)
            score = ev.evaluate_coords(pos[i])
            if score > pbest_f[i]:
                pbest[i], pbest_f[i] = pos[i].copy(), score
                if score > gbest_f:
                    gbest, gbest_f = pos[i].copy(), score
        history.append(float(gbest_f))
    return gbest, gbest_f, history


def run_sa(ev: FitnessEvaluator, rng: np.random.Generator, config: OptimizerConfig) -> Outcome:
    """Single-chain simulated annealing with a temperature-scaled Gaussian step.

    The temperature drops by the cooling factor once per epoch, where an epoch
    is budget / :data:`SA_EPOCHS` evaluations; this stretches the epochs over
    the shared budget.
    """
    radius, center = ev.area.radius_km, ev.center
    current = repair_coords(_random_coords(config.n_uavs, radius, rng), radius, center)
    current_f = ev.evaluate_coords(current)
    best, best_f = current, current_f
    temperature = SA_T0
    epoch = max(1, config.budget_evals // SA_EPOCHS)
    history = [float(best_f)]

    while ev.evals < config.budget_evals:
        # Move one randomly chosen UAV by a temperature-scaled Gaussian step.
        # Joint all-UAV moves almost never improve a tuned configuration and
        # degrade the chain below the random-search baseline.
        sigma = SA_STEP_FRACTION * radius * temperature / SA_T0
        candidate = current.copy()
        uav = int(rng.integers(config.n_uavs))
        candidate[uav] += rng.normal(0.0, sigma, size=2)
        candidate = repair_coords(candidate, radius, center)
        score = ev.evaluate_coords(candidate)
        delta = score - current_f
        if delta >= 0 or rng.random() < math.exp(delta / temperature):
            current, current_f = candidate, score
            if score > best_f:
                best, best_f = candidate, score
        if ev.evals % epoch == 0:
            temperature *= SA_COOLING
            history.append(float(best_f))
    if history[-1] != float(best_f):
        history.append(float(best_f))
    return best, best_f, history


_RUNNERS = {"random": run_random, "ga": run_ga, "pso": run_pso, "sa": run_sa}


def run(scenario: Scenario, config: OptimizerConfig) -> OptimizationResult:
    """Run the configured algorithm on one evaluator and one seeded Generator."""
    ev = FitnessEvaluator(scenario)
    coords, score, history = _RUNNERS[config.algorithm](ev, np.random.default_rng(config.seed), config)
    best = Deployment.from_coords(coords, scenario.area)
    return OptimizationResult(best, FitnessValue(score, ev.total_segments), tuple(history), ev.evals)
