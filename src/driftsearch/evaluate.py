"""Score a deployment against the actual drifter trajectory.

The trajectory between two track indices is discretized into unit-length
segments, returned as an (m, 2) array of (lat, lon) midpoint rows. Each
midpoint that falls inside a UAV disc is assigned that UAV's probability of
detection (best disc wins when several cover it). The distances come from the
same :class:`~driftsearch.geo.MidpointIndex` the fitness uses: only pairs it
cannot rule out are measured, and a pair is ruled out only by a proven lower
bound beyond the largest disc, so the PoDs equal the full distance matrix's
bit for bit. The coverage score is the
expected number of a cohort of K0 drifters detected when they traverse the
segments in order and stop once detected:

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
from dataclasses import dataclass

import numpy as np

from .geo import EARTH, EarthModel, MidpointIndex, haversine_km, haversine_km_arrays, latlon_to_local, local_to_latlon
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
    coverage: float
    segment_pods: tuple[float, ...]
    detected_any: bool
    trajectory_length_km: float

    @property
    def n_segments(self) -> int:
        return len(self.segment_pods)

    @property
    def n_covered(self) -> int:
        return sum(1 for p in self.segment_pods if p > 0)

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


def segment_trajectory(
    track: DrifterTrack,
    from_index: int,
    to_index: int,
    unit_m: float,
    earth: EarthModel = EARTH,
) -> np.ndarray:
    """Ordered midpoints of unit-length segments along the actual trajectory.

    The trajectory is the piecewise-linear path through the track records from
    `from_index` to `to_index`. Segments are `unit_m` long except the last,
    which may be shorter. Returns an (m, 2) array of (lat, lon) rows;
    longitudes outside [-180, 180] are wrapped as :class:`GeoPoint` does.
    """
    if not 0 <= from_index < to_index < len(track):
        raise EmptySlice(f"invalid slice [{from_index}, {to_index}] for track of length {len(track)}")
    anchor = track.position(from_index)
    lat = np.array([track.position(i).lat for i in range(from_index, to_index + 1)])
    lon = np.array([track.position(i).lon for i in range(from_index, to_index + 1)])
    east, north = latlon_to_local(lat, lon, anchor, earth)
    pts = np.column_stack([east, north]) * 1000.0  # meters
    seg_len = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    total = cum[-1]
    if total <= 0:
        # Stationary slice: a single degenerate segment at the start point.
        return np.array([[anchor.lat, anchor.lon]])
    n_units = int(np.ceil(total / unit_m))
    starts = np.arange(n_units) * unit_m
    ends = np.minimum(starts + unit_m, total)
    mids = (starts + ends) / 2.0
    # Interpolate midpoint arc-lengths back onto the polyline.
    east_m = np.interp(mids, cum, pts[:, 0])
    north_m = np.interp(mids, cum, pts[:, 1])
    mid_lat, mid_lon = local_to_latlon(east_m / 1000.0, north_m / 1000.0, anchor, earth)
    mid_lon = np.where((mid_lon < -180.0) | (mid_lon > 180.0), ((mid_lon + 180.0) % 360.0) - 180.0, mid_lon)
    return np.column_stack([mid_lat, mid_lon])


def _segment_pods(deployment: Deployment, midpoints: np.ndarray, earth: EarthModel) -> np.ndarray:
    """Best covering UAV's PoD per (lat, lon) midpoint row, 0 where uncovered.

    The haversine runs only on the pairs a :class:`MidpointIndex` with the
    largest disc radius as its reach returns; every pair it leaves out lies
    outside every disc. The haversine is element-wise and a max is exact in
    any order, so ``np.maximum.at`` over the covered pairs gives the PoDs of
    the dense UAV x midpoint matrix bit for bit.
    """
    uav_lat, uav_lon = deployment.latlon()
    radii_m = np.array([u.detection_radius_m for u in deployment.uavs])
    reach_km = radii_m.max(initial=0.0, where=radii_m > 0) / 1000.0  # a NaN or negative radius covers nothing
    index = MidpointIndex(midpoints[:, 0], midpoints[:, 1], reach_km, earth)
    uav, mid = index.pairs(uav_lat, uav_lon)
    dist_m = haversine_km_arrays(uav_lat[uav], uav_lon[uav], index.lat[mid], index.lon[mid], earth) * 1000.0
    covered = dist_m < radii_m[uav]
    pods = np.zeros(len(midpoints))
    np.maximum.at(pods, index.order[mid[covered]], detection_pod(radii_m)[uav[covered]])
    return pods


def survival_chain(pods: np.ndarray, k0: int) -> float:
    """Expected detections of a K0 cohort traversing segments in order.

    Computed in the closed form K0 * (1 - prod(1 - p)), which lies in [0, K0]
    for probabilities in [0, 1].
    """
    return float(k0 * (1.0 - np.prod(1.0 - np.asarray(pods, dtype=float))))


def literal_chain(pods: np.ndarray, k0: int) -> float:
    """As printed: the previous segment's survival raised to the power (i-1)."""
    pods = np.asarray(pods, dtype=float)
    prev = np.concatenate([[0.0], pods[:-1]])
    exponents = np.arange(len(pods), dtype=float)
    return float(k0 * np.sum((1.0 - prev) ** exponents * pods))


def coverage(
    deployment: Deployment,
    track: DrifterTrack,
    from_index: int,
    to_index: int,
    config: EvaluationConfig = EvaluationConfig(),
    earth: EarthModel = EARTH,
) -> EvaluationReport:
    """Evaluate how well a deployment covers the actual trajectory slice."""
    midpoints = segment_trajectory(track, from_index, to_index, config.unit_m, earth)
    pods = _segment_pods(deployment, midpoints, earth)
    chain = literal_chain if config.literal_chain else survival_chain
    score = chain(pods, config.k0)
    length_km = sum(
        haversine_km(track.position(i), track.position(i + 1), earth)
        for i in range(from_index, to_index)
    )
    return EvaluationReport(
        coverage=score,
        segment_pods=tuple(pods.tolist()),
        detected_any=bool((pods > 0).any()),
        trajectory_length_km=length_km,
    )


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


def monte_carlo_coverage(
    deployment: Deployment,
    track: DrifterTrack,
    from_index: int,
    to_index: int,
    config: EvaluationConfig = EvaluationConfig(),
    trials: int = 10_000,
    seed: int = 0,
    earth: EarthModel = EARTH,
) -> float:
    """Simulated coverage; the oracle counterpart of :func:`coverage`."""
    midpoints = segment_trajectory(track, from_index, to_index, config.unit_m, earth)
    pods = _segment_pods(deployment, midpoints, earth)
    return monte_carlo_chain(pods, config.k0, trials, seed)
