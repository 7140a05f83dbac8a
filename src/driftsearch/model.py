"""UAV deployment model: positions, distance-dependent detection radii, PoD."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .geo import GeoPoint, haversine_km_arrays, latlon_to_local, local_to_latlon
from .scenario import SearchArea

MAX_DETECTION_RADIUS_M = 600.0
MIN_DETECTION_RADIUS_M = 200.0
RADIUS_SLOPE_M_PER_KM = -200.0


def radius_law(d_km):
    """Detection radius in meters at haversine distance `d_km` from the center.

    Linear: 600 m at the center, down to 200 m at d = 2 km, clamped to
    [200, 600] beyond that (the raw line would go negative for distant
    placements). Vectorized over numpy arrays.
    """
    raw = RADIUS_SLOPE_M_PER_KM * d_km + MAX_DETECTION_RADIUS_M
    # min(max(.)) is what np.clip computes, without its Python-level dispatch.
    return np.minimum(np.maximum(raw, MIN_DETECTION_RADIUS_M), MAX_DETECTION_RADIUS_M)


def _radii_m(points: tuple[GeoPoint, ...], center: GeoPoint) -> list[float]:
    """The :func:`radius_law` radius of a UAV at each point, from one 1-d distance call."""
    lat = np.array([p.lat for p in points])
    lon = np.array([p.lon for p in points])
    return radius_law(haversine_km_arrays(lat, lon, center.lat, center.lon)).tolist()


def detection_pod(radius_m):
    """Probability of detection for a disc of the given effective radius.

    1 - exp(-c) with coverage factor c = radius / 600. Vectorized over numpy
    arrays.
    """
    return 1.0 - np.exp(-radius_m / MAX_DETECTION_RADIUS_M)


@dataclass(frozen=True)
class UavPosition:
    """A deployed UAV with its derived detection radius."""

    position: GeoPoint
    detection_radius_m: float

    @classmethod
    def place(cls, position: GeoPoint, center: GeoPoint) -> "UavPosition":
        """Place a UAV and derive its radius from the distance to `center`."""
        return cls(position, _radii_m((position,), center)[0])


@dataclass(frozen=True)
class Deployment:
    """An ordered set of UAV placements inside a search area."""

    uavs: tuple[UavPosition, ...]
    area: SearchArea

    def __post_init__(self) -> None:
        if len(self.uavs) < 1:
            raise ValueError("deployment needs at least one UAV")

    @classmethod
    def from_points(cls, points: Iterable[GeoPoint], area: SearchArea) -> "Deployment":
        """Build a deployment, deriving every detection radius from `area.center`."""
        points = tuple(points)
        return cls(tuple(map(UavPosition, points, _radii_m(points, area.center))), area)

    @classmethod
    def from_coords(cls, coords_km: np.ndarray, area: SearchArea) -> "Deployment":
        """Build a deployment from (n, 2) local-plane km rows anchored at `area.center`."""
        lat, lon = local_to_latlon(coords_km[:, 0], coords_km[:, 1], area.center)
        return cls.from_points(map(GeoPoint, lat.tolist(), lon.tolist()), area)

    def latlon(self) -> tuple[np.ndarray, np.ndarray]:
        """UAV latitudes and longitudes as two degree arrays."""
        lat = np.array([u.position.lat for u in self.uavs])
        lon = np.array([u.position.lon for u in self.uavs])
        return lat, lon

    def coords_km(self) -> np.ndarray:
        """UAV positions as (n, 2) local-plane km rows anchored at `area.center`."""
        east, north = latlon_to_local(*self.latlon(), self.area.center)
        return np.column_stack([east, north])

    def __len__(self) -> int:
        return len(self.uavs)
