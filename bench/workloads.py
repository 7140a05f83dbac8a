"""The three benchmark workloads: grid, plan and score.

Each workload builds its inputs from a workload seed in its constructor (the
set-up), then serves operations by index. ``call(i)`` is the timed part: the
calls into driftsearch for operation ``i``. ``check(i, raw)`` is untimed and
validates what the call returned, raising :class:`CheckFailed` on a wrong
output. Operations cycle through a fixed list, so operation ``i`` is the same
work on every run with the same seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
import shutil
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

from driftsearch import cli, evaluate, experiment, forecast, ingest, optimize, scenario
from driftsearch.geo import GeoPoint
from driftsearch.repair import repair

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
DEFAULT_SEED = 0
K0 = 100
# Drift speed (km/h) and turn sigma (rad) of the default synthetic instances.
PROFILES = ((0.80, 0.30), (0.70, 0.40), (0.80, 0.40), (0.70, 0.35), (0.75, 0.60))
# Search radii of the default instances I-1..I-4 span 3.7-4.4 km. Plan tracks
# are drawn until their radius falls in this band: much smaller areas cannot
# hold 6-8 discs without overlap, so every repair runs to its iteration cap
# and one plan takes 30-80 s; much larger ones have thousands of segments.
PLAN_RADIUS_BAND_KM = (3.5, 5.0)
TRACK_HOURS = 16
ACCIDENT_INDEX = 6
PLAN_HORIZON = 6  # the CLI's default --horizon
LINEAR = forecast.PredictorSpec("linear-extrapolation")
GRID_CONFIGS = tuple(
    (u, p, a)
    for u in experiment.DEFAULT_UAV_COUNTS
    for p in experiment.DEFAULT_PARTICLE_COUNTS
    for a in experiment.DEFAULT_ALGORITHMS
)
UAV_TOLERANCE_KM = 1e-6
# Coverage is a float sum of K0 * p * survival terms; a full detection can
# round to a few ulps above K0.
K0_ROUNDING = 1e-9


class CheckFailed(Exception):
    """An operation returned an output that fails its check."""


@dataclass
class Outcome:
    """What a checked operation contributes to the run's metrics."""

    coverage: float
    fitness: float
    row: Optional[str] = None  # result row without wall time (grid, plan)


def load_reference() -> dict:
    if REFERENCE_PATH.exists():
        return json.loads(REFERENCE_PATH.read_text())
    return {}


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Independent great-circle distance for output checks (mean radius 6371 km)."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    s = math.sin((p2 - p1) / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(math.radians(lon2 - lon1) / 2) ** 2
    return 2 * 6371.0 * math.asin(min(1.0, math.sqrt(s)))


def random_track(rng: random.Random, profile: int, track_id: str) -> ingest.DrifterTrack:
    drift, turn = PROFILES[profile % len(PROFILES)]
    start = GeoPoint(rng.uniform(30.0, 38.0), rng.uniform(122.0, 132.0))
    return ingest.synthesize_track(
        seed=rng.randrange(2**31), hours=TRACK_HOURS, start=start,
        drift_kmh=drift, turn_sigma=turn, track_id=track_id,
    )


def grid_row(row) -> str:
    cols = dict(zip(experiment.RESULT_COLUMNS, experiment.format_row(row)))
    del cols["wall_time_ms"]
    return ",".join(cols.values())


def cell_id(instance: str, n_uavs: int, n_particles: int, algorithm: str, seed: int) -> str:
    return f"{instance}_u{n_uavs}_p{n_particles}_{algorithm}_s{seed}"


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def warm_up(tmp: Path) -> None:
    """One tiny grid cell with maps: imports and first-call costs of every layer."""
    spec = experiment.default_spec(
        algorithms=("ga",), seeds=(0,), uav_counts=(6,), particle_counts=(10,), budget_evals=50,
    )
    spec = replace(spec, instances=spec.instances[:1])
    experiment.run_experiment(spec, out_dir=tmp / "warm-up", write_maps=True)


class Grid:
    """Default-grid cells through ``experiment.run_experiment``, one cell per call.

    The cell configurations cycle in a fixed order (UAVs, particles, algorithm),
    so every run covers all 16 in its first block. The seed picks the instance
    offset and each cell's run seed from the default grid's 0-4, so every cell
    is a cell of the default 240-cell grid.
    """

    name = "grid"
    block = len(GRID_CONFIGS)
    cycle = 4 * len(GRID_CONFIGS)

    def __init__(self, seed: int, tmp: Path):
        rng = random.Random(seed)
        self.tmp = tmp
        self.spec = experiment.default_spec()
        instances = self.spec.instances
        offset = rng.randrange(len(instances))
        self.cells = []
        for k in range(self.cycle):
            u, p, a = GRID_CONFIGS[k % len(GRID_CONFIGS)]
            instance = instances[(k + offset) % len(instances)]
            self.cells.append((instance, u, p, a, rng.choice(experiment.DEFAULT_SEEDS)))
        self.reference = load_reference().get("grid", {})
        warm_up(tmp)

    def call(self, i: int):
        instance, u, p, a, s = self.cells[i % self.cycle]
        spec = replace(
            self.spec, instances=(instance,), algorithms=(a,), seeds=(s,),
            uav_counts=(u,), particle_counts=(p,),
        )
        rows, _ = experiment.run_experiment(spec, out_dir=self.tmp / "grid")
        return rows

    def check(self, i: int, rows) -> Outcome:
        instance, u, p, a, s = self.cells[i % self.cycle]
        check(len(rows) == 1, f"expected 1 row, run_experiment returned {len(rows)}")
        row = rows[0]
        check((row.instance, row.n_uavs, row.n_particles, row.algorithm, row.seed) == (instance.name, u, p, a, s),
              "row does not match the requested cell")
        check(0.0 <= row.coverage <= self.spec.k0 + K0_ROUNDING, f"coverage {row.coverage!r} outside [0, {self.spec.k0}]")
        check(row.best_fitness >= 0, f"negative best_fitness {row.best_fitness}")
        with open(self.tmp / "grid" / "results.csv") as fh:
            lines = fh.read().splitlines()
        check(lines[1:] == [",".join(experiment.format_row(row))], "results.csv does not match the returned row")
        text = grid_row(row)
        cid = cell_id(instance.name, u, p, a, s)
        if cid in self.reference:
            check(text == self.reference[cid], f"row {cid} differs from reference: {text!r} != {self.reference[cid]!r}")
        return Outcome(row.coverage, row.best_fitness, text)


_PLAN_LINE = re.compile(r"fitness=(\d+)/(\d+), coverage=([0-9.]+)")


class Plan:
    """``driftsearch plan`` with the CLI's default GA on tracks made in set-up."""

    name = "plan"
    block = 16
    cycle = 16

    def __init__(self, seed: int, tmp: Path):
        rng = random.Random(seed)
        self.tmp = tmp
        self.seed = seed
        self.entries = []
        for j in range(self.cycle):
            track = self._banded_track(rng, j)
            path = tmp / f"track-{j}.csv"
            ingest.save_tracks([track], path)
            n_uavs = experiment.DEFAULT_UAV_COUNTS[j % 2]
            n_particles = experiment.DEFAULT_PARTICLE_COUNTS[(j // 2) % 2]
            self.entries.append((path, n_uavs, n_particles, rng.randrange(1000)))
        self.reference = load_reference().get("plan", []) if seed == DEFAULT_SEED else []
        warm_up(tmp)
        ingest.load_tracks(self.entries[0][0])

    @staticmethod
    def _banded_track(rng: random.Random, j: int) -> ingest.DrifterTrack:
        lo, hi = PLAN_RADIUS_BAND_KM
        for _ in range(10_000):
            track = random_track(rng, j, f"P{j}")
            fc = forecast.forecast_scenario(track, ingest.AccidentSpec(track.id, ACCIDENT_INDEX, PLAN_HORIZON), LINEAR)
            if lo <= scenario.build_search_area(fc).radius_km <= hi:
                return track
        raise RuntimeError("no track with a search radius in the band")

    def argv(self, i: int) -> list[str]:
        path, n_uavs, n_particles, seed = self.entries[i % self.cycle]
        return [
            "plan", "--tracks", str(path), "--predictor", "linear",
            "--uavs", str(n_uavs), "--particles", str(n_particles), "--seed", str(seed),
            "--out", str(self.tmp / f"plan-{i}"),
        ]

    def call(self, i: int):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(self.argv(i))
        return rc, buf.getvalue()

    def check(self, i: int, raw) -> Outcome:
        rc, stdout = raw
        out = self.tmp / f"plan-{i}"
        try:
            check(rc == 0, f"plan exited with {rc}")
            m = _PLAN_LINE.search(stdout)
            check(m is not None, f"no fitness line in plan output: {stdout!r}")
            fitness, total = int(m.group(1)), int(m.group(2))
            check(0 <= fitness <= total, f"fitness {fitness}/{total} out of range")
            report = json.loads((out / "report.json").read_text())
            doc = json.loads((out / "plan.geojson").read_text())
        finally:
            shutil.rmtree(out, ignore_errors=True)
        cov = report["coverage"]
        check(0.0 <= cov <= K0 + K0_ROUNDING, f"coverage {cov!r} outside [0, {K0}]")
        feats = {}
        for f in doc["features"]:
            feats.setdefault(f["properties"]["role"], []).append(f)
        clon, clat = feats["center"][0]["geometry"]["coordinates"]
        radius = feats["search-area"][0]["properties"]["radius_km"]
        uavs = [f["geometry"]["coordinates"] for f in feats["uav"]]
        j = i % self.cycle
        _, n_uavs, n_particles, seed = self.entries[j]
        check(len(uavs) == n_uavs, f"{len(uavs)} UAVs in plan.geojson, expected {n_uavs}")
        for lon, lat in uavs:
            d = haversine_km(lat, lon, clat, clon)
            check(d <= radius + UAV_TOLERANCE_KM, f"UAV {d:.9f} km from center, radius {radius:.9f} km")
        fields = [str(j), str(n_uavs), str(n_particles), str(seed), str(fitness), str(total), f"{cov:.6f}",
                  str(report["n_segments"]), str(report["n_covered"])]
        fields += [f"{lat!r} {lon!r}" for lon, lat in uavs]
        text = ",".join(fields)
        if self.reference:
            expected = self.reference[j]
            check(text == expected, f"plan {j} differs from reference: {text!r} != {expected!r}")
        return Outcome(cov, fitness, text)


def _survival(pods, k0) -> float:
    total, alive = 0.0, 1.0
    for p in pods:
        total += p * alive
        alive *= 1.0 - p
    return k0 * total


def _literal(pods, k0) -> float:
    total, prev = 0.0, 0.0
    for i, p in enumerate(pods):
        total += (1.0 - prev) ** i * p
        prev = p
    return k0 * total


class Score:
    """Forecast + scenario, then 1 m coverage of a repaired deployment made in set-up.

    Horizons cycle 3-9 h, UAV counts 6/8 and both chain variants, so every
    run holds the same mix. The pool is walked in order; its first pass is the
    quality block.
    """

    name = "score"
    block = 512
    cycle = 512
    n_particles = 10

    def __init__(self, seed: int, tmp: Path):
        rng = random.Random(seed)
        self.items = []
        for j in range(self.cycle):
            horizon = 3 + j % 7
            n_uavs = experiment.DEFAULT_UAV_COUNTS[(j // 7) % 2]
            literal = (j // 14) % 2 == 1
            track = random_track(rng, j, f"S{j}")
            accident = ingest.AccidentSpec(track.id, ACCIDENT_INDEX, horizon)
            fc = forecast.forecast_scenario(track, accident, LINEAR)
            scen = scenario.build_scenario(track, accident, fc, k=self.n_particles, seed=j)
            deployment = repair(optimize.initialize(n_uavs, scen.area, rng.randrange(2**31)))
            fitness = optimize.fitness(deployment, scen).score
            config = evaluate.EvaluationConfig(unit_m=1.0, k0=K0, literal_chain=literal)
            self.items.append((track, accident, scen.area, deployment, config, fitness))
        self.first: dict[int, float] = {}
        self.check(0, self.call(0))
        self.first.clear()

    def call(self, i: int):
        track, accident, _, deployment, config, _ = self.items[i % self.cycle]
        fc = forecast.forecast_scenario(track, accident, LINEAR)
        scen = scenario.build_scenario(track, accident, fc, k=self.n_particles, seed=i % self.cycle)
        lo = accident.accident_index
        report = evaluate.coverage(deployment, track, lo, lo + accident.horizon_hours, config)
        return scen, report

    def check(self, i: int, raw) -> Outcome:
        scen, report = raw
        j = i % self.cycle
        _, _, area, _, config, fitness = self.items[j]
        check(scen.area == area, "rebuilt search area differs from set-up")
        cov = report.coverage
        check(report.n_segments > 0, "no segments evaluated")
        if j in self.first:
            check(cov == self.first[j], f"coverage {cov!r} differs from the first pass {self.first[j]!r}")
        else:
            # The survival chain is an expectation over a K0 cohort, so it lies in
            # [0, K0]. The literal chain as printed adds up to K0*p at every
            # re-entry into a disc and can exceed K0; it is checked against an
            # independent evaluation of its formula instead.
            if config.literal_chain:
                check(cov >= 0.0, f"literal coverage {cov} negative")
                expected = _literal(report.segment_pods, config.k0)
            else:
                check(0.0 <= cov <= config.k0 + K0_ROUNDING, f"coverage {cov!r} outside [0, {config.k0}]")
                expected = _survival(report.segment_pods, config.k0)
            check(math.isclose(cov, expected, rel_tol=1e-9, abs_tol=1e-9),
                  f"coverage {cov!r} != chain of its segment PoDs {expected!r}")
            self.first[j] = cov
        return Outcome(cov, fitness)


WORKLOADS = {w.name: w for w in (Grid, Plan, Score)}
