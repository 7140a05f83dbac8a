"""Build the search problem: area, Gaussian particles, candidate lines."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .forecast import Forecast
from .geo import GeoPoint, haversine_km_arrays, local_to_latlon
from .ingest import AccidentSpec, DrifterTrack

# The search radius and the particle sigma are these multiples of the
# previous-step prediction error.
RADIUS_MULTIPLIER = 4.0
SIGMA_MULTIPLIER = 4.0
# Guards against a degenerate zero-radius area when the previous-step
# prediction happened to be exact.
RADIUS_FLOOR_KM = 0.5


@dataclass(frozen=True)
class SearchArea:
    """Circular feasible region for UAV placement, centered on the prediction."""

    center: GeoPoint
    radius_km: float

    def __post_init__(self) -> None:
        if not (self.radius_km > 0):
            raise ValueError(f"radius_km must be positive, got {self.radius_km}")


@dataclass(frozen=True)
class CandidateLine:
    """Straight candidate trajectory from the accident point to a particle."""

    start: GeoPoint
    end: GeoPoint
    length_km: float


@dataclass(frozen=True)
class Scenario:
    accident: GeoPoint
    area: SearchArea
    particles: tuple[GeoPoint, ...]  # hypothesized drifter endpoints
    lines: tuple[CandidateLine, ...]
    sigma_km: float

    def __post_init__(self) -> None:
        if not self.particles:
            raise ValueError("particles: a scenario needs at least one particle")
        if len(self.particles) != len(self.lines):
            raise ValueError("one candidate line per particle required")
        if self.sigma_km < 0:
            raise ValueError("sigma_km must be non-negative")

    def to_json(self) -> str:
        doc = {
            "accident": {"lat": self.accident.lat, "lon": self.accident.lon},
            "center": {"lat": self.area.center.lat, "lon": self.area.center.lon},
            "radius_km": self.area.radius_km,
            "sigma_km": self.sigma_km,
            "particles": [{"lat": p.lat, "lon": p.lon} for p in self.particles],
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        """Parse :meth:`to_json` output; a malformed document raises
        ValueError naming the offending field."""
        doc = _fields(json.loads(text), ("accident", "center", "radius_km", "sigma_km", "particles"), "scenario")
        if not isinstance(doc["particles"], list):
            raise ValueError(f"particles must be a list, got {doc['particles']!r}")
        accident = _point(doc["accident"], "accident")
        area = SearchArea(_point(doc["center"], "center"), _number(doc["radius_km"], "radius_km"))
        particles = tuple(_point(p, f"particles[{i}]") for i, p in enumerate(doc["particles"]))
        return cls(accident, area, particles, _lines(accident, particles), _number(doc["sigma_km"], "sigma_km"))


def _fields(obj, keys: tuple[str, ...], name: str) -> dict:
    """`obj` if it is a JSON object with exactly `keys`."""
    if not isinstance(obj, dict):
        raise ValueError(f"{name} must be a JSON object, got {obj!r}")
    missing, extra = sorted(set(keys) - set(obj)), sorted(set(obj) - set(keys))
    if missing or extra:
        raise ValueError(f"{name}: missing key(s) {missing}, unexpected key(s) {extra}")
    return obj


def _number(value, name: str) -> float:
    # type() rather than isinstance() refuses booleans. The bound is the largest
    # finite float; comparing with it is exact for huge ints and false for NaN.
    if type(value) not in (int, float) or not abs(value) <= 1.7976931348623157e308:
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _point(obj, name: str) -> GeoPoint:
    doc = _fields(obj, ("lat", "lon"), name)
    lat, lon = _number(doc["lat"], f"{name}.lat"), _number(doc["lon"], f"{name}.lon")
    try:
        return GeoPoint(lat, lon)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def _lines(start: GeoPoint, particles: tuple[GeoPoint, ...]) -> tuple[CandidateLine, ...]:
    """One candidate line from `start` to each particle, measured in one call."""
    lat = np.array([p.lat for p in particles])
    lon = np.array([p.lon for p in particles])
    lengths = haversine_km_arrays(start.lat, start.lon, lat, lon).tolist()
    return tuple(CandidateLine(start, p, d) for p, d in zip(particles, lengths))


def build_search_area(forecast: Forecast) -> SearchArea:
    """Circle centered on the prediction, radius scaled from last-step error."""
    radius = max(RADIUS_MULTIPLIER * forecast.prev_step_error_km, RADIUS_FLOOR_KM)
    return SearchArea(center=forecast.predicted, radius_km=radius)


def sample_particles(forecast: Forecast, k: int, seed: int = 0) -> list[GeoPoint]:
    """Draw k particles from an isotropic Gaussian around the prediction.

    Sigma is stated in kilometers (:data:`SIGMA_MULTIPLIER` times the
    previous-step error), so sampling happens in the local tangent plane and
    the draws are converted back to lat/lon.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    sigma_km = SIGMA_MULTIPLIER * forecast.prev_step_error_km
    rng = np.random.default_rng(seed)
    offsets = rng.normal(0.0, sigma_km, size=(k, 2)) if sigma_km > 0 else np.zeros((k, 2))
    lats, lons = local_to_latlon(offsets[:, 0], offsets[:, 1], forecast.predicted)
    return [GeoPoint(float(lat), float(lon)) for lat, lon in zip(lats, lons)]


def build_scenario(track: DrifterTrack, spec: AccidentSpec, forecast: Forecast, k: int, seed: int) -> Scenario:
    """Assemble area, particles, and candidate lines into one scenario."""
    spec.validate_against(track)
    accident = track.position(spec.accident_index)
    area = build_search_area(forecast)
    particles = tuple(sample_particles(forecast, k, seed))
    sigma_km = SIGMA_MULTIPLIER * forecast.prev_step_error_km
    return Scenario(accident=accident, area=area, particles=particles, lines=_lines(accident, particles), sigma_km=sigma_km)
