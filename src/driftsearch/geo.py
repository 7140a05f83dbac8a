"""Great-circle distances and local tangent-plane geometry.

Everything downstream (particle sampling, repulsive-force repair, fitness
discretization) mixes great-circle distances with planar vector arithmetic.
The convention here: distances are :func:`haversine_km_arrays`, vectors live
in an equirectangular tangent plane anchored at a reference point. At the
scales this toolkit targets (well under 50 km) the projection error is
negligible. The earth is a fixed sphere of radius :data:`EARTH_RADIUS_KM`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EARTH_RADIUS_KM = 6371.0
# Arc length of one degree of latitude, in meters.
METERS_PER_DEGREE = EARTH_RADIUS_KM * 1000.0 * math.pi / 180.0


@dataclass(frozen=True)
class GeoPoint:
    """A latitude/longitude pair in degrees.

    Longitude is wrapped into [-180, 180] on construction; latitude outside
    [-90, 90] is rejected.
    """

    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.lat) or not math.isfinite(self.lon):
            raise ValueError(f"non-finite coordinates ({self.lat}, {self.lon})")
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude {self.lat} outside [-90, 90]")
        if not -180.0 <= self.lon <= 180.0:
            object.__setattr__(self, "lon", ((self.lon + 180.0) % 360.0) - 180.0)


# Half a degree in radians. np.radians(x) / 2 == x * _HALF_RADIAN bit for bit:
# np.radians multiplies by the same rounded pi / 180, and halving is exact.
_HALF_RADIAN = np.radians(1.0) / 2.0
# Relative widening of the pruning bounds in pruning_windows.
_PRUNE_MARGIN = 1e-6


def haversine_km_arrays(lat1, lon1, lat2, lon2) -> np.ndarray:
    """Great-circle km between degree arrays, broadcast like numpy.

    With every result at least 1-d, a pair gives the same bits however the
    pairs are batched, strided or broadcast (scalars may broadcast against
    arrays). A 0-d call takes numpy's scalar loop, which can differ in the last
    bit, so the package makes none."""
    half_dphi = np.subtract(lat2, lat1) * _HALF_RADIAN
    half_dlam = np.subtract(lon2, lon1) * _HALF_RADIAN
    s = np.sin(half_dphi) ** 2 + np.cos(np.radians(lat1)) * np.cos(np.radians(lat2)) * np.sin(half_dlam) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(s)))


def pruning_windows(reach_km: float, pole_deg: float) -> tuple[float, float]:
    """Half-widths in degrees of the latitude and longitude windows outside
    which two points with latitudes in [-pole_deg, pole_deg] are provably
    farther apart than ``reach_km``: d >= R |dphi| and, with dlam reduced
    modulo 360 degrees, d >= 2R cos(pole_deg) sin(|dlam| / 2). Both are widened
    by a relative margin far above the rounding of the haversine and of the
    bounds. A window is infinite where its bound cannot apply: the longitude
    window when 2R cos(pole_deg) <= reach, both when pole_deg exceeds 90."""
    if not pole_deg <= 90.0:
        return math.inf, math.inf
    reach_km *= 1.0 + _PRUNE_MARGIN
    chord = 2.0 * EARTH_RADIUS_KM * math.cos(math.radians(pole_deg))
    lon_deg = math.degrees(2.0 * math.asin(reach_km / chord)) * (1.0 + _PRUNE_MARGIN) if chord > reach_km else math.inf
    return math.degrees(reach_km / EARTH_RADIUS_KM), lon_deg


class MidpointIndex:
    """Latitude-sorted points that yield every query-point pair within reach.

    :meth:`pairs` leaves a pair out only when it lies outside one of the
    :func:`pruning_windows` of ``reach_km``: a ``searchsorted`` latitude band
    per query, then the longitude window, with ``dlam`` reduced modulo 360
    degrees when the longitudes span half a turn or more (they are not
    wrapped, so the bound holds across the antimeridian). Both need latitudes
    within [-90, 90]; otherwise every pair is returned. ``lat``/``lon`` hold
    the points in latitude order and ``order`` maps them back to input order.
    """

    def __init__(self, lat: np.ndarray, lon: np.ndarray, reach_km: float):
        self.order = np.argsort(lat, kind="stable")
        self.lat, self.lon = lat[self.order], lon[self.order]
        self._reach_km = reach_km
        pole_deg = float(np.abs(lat).max())
        self._pole_deg = pole_deg if pole_deg <= 90.0 else math.inf  # inf (or NaN) disables pruning
        self._lon_range = (float(lon.min()), float(lon.max()))
        self._ids = np.arange(len(lat))

    def pairs(self, lat: np.ndarray, lon: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Index arrays (into the queries, into ``self.lat``) of the pairs to measure."""
        n = len(lat)
        lats = lat.tolist()
        if not lats or not all(-90.0 <= x <= 90.0 for x in lats) or self._pole_deg > 90.0:
            return np.arange(n).repeat(len(self._ids)), np.tile(self._ids, n)
        band_deg, lon_deg = pruning_windows(self._reach_km, max(max(lats), -min(lats), self._pole_deg))
        # Latitude band: the sorted points [lo, hi) of each query, flattened.
        bands = self.lat.searchsorted(np.add.outer(lat, (-band_deg, band_deg))).tolist()
        query = np.arange(n).repeat([hi - lo for lo, hi in bands])
        point = np.concatenate([self._ids[lo:hi] for lo, hi in bands])
        if lon_deg < math.inf:
            dlon = np.abs(self.lon[point] - lon[query])
            lons = lon.tolist()
            if max(self._lon_range[1], *lons) - min(self._lon_range[0], *lons) < 180.0:
                near = dlon <= lon_deg
            else:  # some |dlon| may exceed 180 degrees: reduce it modulo 360
                dlon %= 360.0
                near = (dlon <= lon_deg) | (dlon >= 360.0 - lon_deg)
            near = near.nonzero()[0]
            query, point = query[near], point[near]
        return query, point


def local_to_latlon(east_km, north_km, anchor: GeoPoint):
    """Place km offsets east and north of `anchor` on the sphere as degree arrays (longitudes unwrapped)."""
    mpd_km = METERS_PER_DEGREE / 1000.0
    lat = anchor.lat + np.asarray(north_km) / mpd_km
    lon = anchor.lon + np.asarray(east_km) / (mpd_km * math.cos(math.radians(anchor.lat)))
    return lat, lon


def latlon_to_local(lat, lon, anchor: GeoPoint):
    """Project degree arrays into the tangent plane anchored at `anchor`.

    Outputs (east_km, north_km); the longitude difference is wrapped into
    [-180, 180) first. Inverse of :func:`local_to_latlon`.
    """
    mpd_km = METERS_PER_DEGREE / 1000.0
    dlon = ((np.asarray(lon) - anchor.lon + 180.0) % 360.0) - 180.0
    east = dlon * math.cos(math.radians(anchor.lat)) * mpd_km
    north = (np.asarray(lat) - anchor.lat) * mpd_km
    return east, north
