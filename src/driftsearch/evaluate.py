"""Score a deployment against the actual drifter trajectory.

The trajectory between two track indices is discretized into unit-length
segments; :func:`segment_trajectory` returns their midpoints as an (m, 2)
array of (lat, lon) rows. Each midpoint that falls inside a UAV disc is
assigned that UAV's probability of detection (best disc wins when several
cover it).

Scoring is sparse. A leg of the slice is straight in the tangent plane at
its start, so its midpoints' latitude and longitude are affine in arc length.
Per (UAV, leg) the scorer solves the stretch outside which the proven bounds
of :func:`~driftsearch.geo.pruning_windows` put every midpoint beyond the
largest disc, widens it by two units (for rounding and for the shorter last
segment) and builds and measures only the midpoints of that index range.
UAV longitudes are reduced modulo 360 degrees; a bound that does not hold
keeps the whole leg. Midpoints of any index come from one element-wise
function, as do the haversine and the max, so the PoDs equal those of the
full UAV x midpoint matrix bit for bit.

The coverage score is the expected number of a cohort of K0 drifters
detected when they traverse the segments in order and stop once detected:

    coverage = K0 * sum_i P_i * prod_{j<i} (1 - P_j) = K0 * (1 - prod_i (1 - P_i))

The sum telescopes, so the score is computed in the closed form on the right,
which cannot exceed K0. A literal variant that raises the single
previous-segment survival to the power (i - 1) instead of taking the running
product is available behind ``EvaluationConfig.literal_chain``; the two agree
when all covered segments share one probability. A Monte-Carlo simulator
provides an independent check of the analytic score.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .geo import haversine_km_arrays, latlon_to_local, local_to_latlon, pruning_windows
from .model import Deployment, detection_pod
from .ingest import DrifterTrack


class EmptySlice(ValueError):
    """A trajectory slice with no extent."""


@dataclass(frozen=True)
class EvaluationConfig:
    unit_m: float = 1.0
    k0: int = 100
    literal_chain: bool = False

    def __post_init__(self) -> None:
        if self.unit_m <= 0:
            raise ValueError("unit_m must be positive")
        if self.k0 < 1:
            raise ValueError("k0 must be >= 1")


@dataclass(frozen=True)
class EvaluationReport:
    """``segment_pods`` is a read-only float64 array of the best PoD per unit
    segment in track order, the segments being ``unit_m`` long. The sparse
    scorer (module docstring) measures only the midpoints its proven bounds
    keep, and its PoDs equal the dense UAV x midpoint matrix's bit for bit. It
    is not part of ``==``."""

    coverage: float
    segment_pods: np.ndarray = field(compare=False)
    detected_any: bool
    trajectory_length_km: float
    unit_m: float

    @property
    def n_segments(self) -> int:
        return len(self.segment_pods)

    @property
    def n_covered(self) -> int:
        return int(np.count_nonzero(self.segment_pods))

    def to_json(self) -> str:
        return json.dumps(
            {
                "coverage": self.coverage,
                "trajectory_length_km": self.trajectory_length_km,
                "n_segments": self.n_segments,
                "n_covered": self.n_covered,
            },
            indent=2,
        )


def _latlon(track: DrifterTrack, from_index: int, to_index: int) -> tuple[np.ndarray, np.ndarray]:
    """Latitudes and longitudes of the records from `from_index` to `to_index`."""
    points = [r.position for r in track.records[from_index : to_index + 1]]
    return np.array([p.lat for p in points]), np.array([p.lon for p in points])


def _polyline(track: DrifterTrack, from_index: int, to_index: int, unit_m: float) -> tuple:
    """The slice in the tangent plane at its first record: (anchor, arc length
    at each record in m, (east, north) record rows in m, unit_m, number of unit
    segments), the last being one for a stationary slice."""
    if not 0 <= from_index < to_index < len(track):
        raise EmptySlice(f"invalid slice [{from_index}, {to_index}] for track of length {len(track)}")
    anchor = track.position(from_index)
    east, north = latlon_to_local(*_latlon(track, from_index, to_index), anchor)
    pts = np.column_stack([east, north]) * 1000.0  # meters
    cum = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(pts, axis=0), axis=1))])
    return anchor, cum, pts, unit_m, max(int(np.ceil(cum[-1] / unit_m)), 1)


def _midpoints(line: tuple, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Latitudes and longitudes of the midpoints of unit segments ``k`` of a
    :func:`_polyline`; element-wise, so no bit depends on the other indices."""
    anchor, cum, pts, unit_m, _ = line
    starts = k * unit_m
    mids = (starts + np.minimum(starts + unit_m, cum[-1])) / 2.0  # the last segment may be shorter
    # Interpolate midpoint arc-lengths back onto the polyline.
    east_m = np.interp(mids, cum, pts[:, 0])
    north_m = np.interp(mids, cum, pts[:, 1])
    lat, lon = local_to_latlon(east_m / 1000.0, north_m / 1000.0, anchor)
    if np.abs(lon).max(initial=0.0) > 180.0:
        lon = np.where((lon < -180.0) | (lon > 180.0), ((lon + 180.0) % 360.0) - 180.0, lon)
    return lat, lon


def segment_trajectory(
    track: DrifterTrack,
    from_index: int,
    to_index: int,
    unit_m: float,
) -> np.ndarray:
    """Ordered midpoints of unit-length segments along the actual trajectory.

    The trajectory is the piecewise-linear path through the track records from
    `from_index` to `to_index`. Segments are `unit_m` long except the last,
    which may be shorter; a stationary slice is one segment at its start.
    Returns an (m, 2) array of (lat, lon) rows; longitudes outside
    [-180, 180] are wrapped as :class:`GeoPoint` does.
    """
    line = _polyline(track, from_index, to_index, unit_m)
    return np.column_stack(_midpoints(line, np.arange(line[-1])))


def _segment_pods(deployment: Deployment, line: tuple) -> np.ndarray:
    """Best covering UAV's PoD per unit segment of a :func:`_polyline` (0 where
    uncovered), by the sparse scorer of the module docstring."""
    anchor, cum, pts, unit_m, n_units = line
    uav_lat, uav_lon = deployment.latlon()
    radii_m = np.array([u.detection_radius_m for u in deployment.uavs])
    reach_km = radii_m.max(initial=0.0, where=radii_m > 0) / 1000.0  # a NaN or negative radius covers nothing
    lat, lon = local_to_latlon(pts[:, 0] / 1000.0, pts[:, 1] / 1000.0, anchor)  # unwrapped longitudes
    band_deg, lon_deg = pruning_windows(reach_km, float(np.abs(np.append(lat, uav_lat)).max()))
    if lon.max() - lon.min() + lon_deg >= 180.0:  # the window might meet the slice again a turn away
        lon_deg = np.inf
    near_lon = anchor.lon + ((uav_lon - anchor.lon + 180.0) % 360.0 - 180.0)  # within half a turn of the anchor
    # Fraction t of each (UAV, leg) inside both windows; a NaN bound (0 / 0) constrains nothing.
    t_lo, t_hi = 0.0, 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for v, u, half in ((lat, uav_lat, band_deg), (lon, near_lon, lon_deg)):
            c, step = u[:, None] - v[:-1], np.diff(v)
            t1, t2 = (c - half) / step, (c + half) / step
            t_lo, t_hi = np.fmax(t_lo, np.fmin(t1, t2)), np.fmin(t_hi, np.fmax(t1, t2))
    keep = t_lo <= t_hi
    uav, leg = keep.nonzero()
    start, length = cum[leg], np.diff(cum)[leg]
    # Indices whose nominal midpoint (k + 1/2) units lies within two units of the stretch.
    first = np.ceil((start + t_lo[keep] * length) / unit_m - 2.5).clip(0, None).astype(int)
    last = np.floor((start + t_hi[keep] * length) / unit_m + 1.5).clip(None, n_units - 1).astype(int)
    counts = (last - first + 1).clip(0, None)
    uav, k = uav.repeat(counts), np.arange(counts.sum()) + (first - counts.cumsum() + counts).repeat(counts)
    mid_lat, mid_lon = _midpoints(line, k)
    dist_m = haversine_km_arrays(uav_lat[uav], uav_lon[uav], mid_lat, mid_lon) * 1000.0
    covered = dist_m < radii_m[uav]
    pods = np.zeros(n_units)
    np.maximum.at(pods, k[covered], detection_pod(radii_m)[uav[covered]])
    return pods


def survival_chain(pods: np.ndarray, k0: int) -> float:
    """Expected detections of a K0 cohort traversing segments in order.

    Computed in the closed form K0 * (1 - prod(1 - p)), which lies in [0, K0]
    for probabilities in [0, 1].
    """
    return float(k0 * (1.0 - np.prod(1.0 - np.asarray(pods, dtype=float))))


def literal_chain(pods: np.ndarray, k0: int) -> float:
    """As printed: the previous segment's survival raised to the power (i-1).

    Only covered segments add a term, so the sum runs over those alone."""
    pods = np.asarray(pods, dtype=float)
    i = np.flatnonzero(pods)
    prev = np.where(i > 0, pods[i - 1], 0.0)
    return float(k0 * np.sum((1.0 - prev) ** i * pods[i]))


def coverage(
    deployment: Deployment,
    track: DrifterTrack,
    from_index: int,
    to_index: int,
    config: EvaluationConfig = EvaluationConfig(),
) -> EvaluationReport:
    """Evaluate how well a deployment covers the actual trajectory slice."""
    pods = _segment_pods(deployment, _polyline(track, from_index, to_index, config.unit_m))
    pods.flags.writeable = False
    chain = literal_chain if config.literal_chain else survival_chain
    score = chain(pods, config.k0)
    lat, lon = _latlon(track, from_index, to_index)
    length_km = sum(haversine_km_arrays(lat[:-1], lon[:-1], lat[1:], lon[1:]).tolist())
    return EvaluationReport(score, pods, bool(pods.any()), length_km, config.unit_m)


def monte_carlo_chain(pods: np.ndarray, k0: int, trials: int, seed: int) -> float:
    """Monte-Carlo estimate of :func:`survival_chain` from raw probabilities.

    Simulates trials * k0 independent drifters passing the segments in order;
    surviving drifters at each segment are thinned binomially, which is
    distribution-identical to simulating each drifter individually.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    alive = trials * k0
    detected = 0
    for p in np.asarray(pods, dtype=float):
        if alive == 0:
            break
        if p > 0:
            hits = rng.binomial(alive, p)
            detected += hits
            alive -= hits
    return detected / trials

