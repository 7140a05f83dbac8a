"""Feasibility repair: boundary projection plus repulsive-force de-overlap.

Two concerns are enforced on any candidate deployment:

1. every UAV must lie inside the circular search area (hard constraint,
   restored by projecting violators onto the boundary), and
2. detection discs should not overlap (best effort: iterative pairwise
   repulsive forces, re-clamping to the boundary after every move).

Forces are plain vectors in the local tangent plane anchored at the search
center; distances and overlap tests use haversine. Overlap freedom holds only
within the iteration cap. Boundary feasibility holds only up to rounding: the
projection stops after four radial scalings, and a UAV that the last one
moved can remain outside the area by about 1e-12 relative.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geo import GeoPoint, haversine_km_arrays, local_to_latlon
from .model import Deployment, radius_law

# Fixed seed for the tie-break jitter applied to exactly coincident UAVs;
# a constant keeps repair a pure function of its inputs.
_JITTER_SEED = 0x5EED
_JITTER_KM = 0.001
# Step size: the fraction of each UAV's mean repulsive force applied per iteration.
ALPHA_R = 0.9


@dataclass(frozen=True)
class RepairConfig:
    max_iter: int = 100

    def __post_init__(self) -> None:
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@lru_cache(maxsize=64)
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays of the pairs (i < j) in row-major order (shared, read-only)."""
    i, j = np.triu_indices(n, 1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def _geometry(padded_km: np.ndarray, center: GeoPoint):
    """Distances from the UAV rows of `padded_km` to the center (n,) and between
    them (n, n), from one haversine call.

    `padded_km` holds local-plane UAV rows followed by a zero row, which maps
    to the center's exact lat/lon, so the hot path needs no append.
    """
    lat, lon = local_to_latlon(padded_km[:, 0], padded_km[:, 1], center)
    d = haversine_km_arrays(lat[:-1, None], lon[:-1, None], lat, lon)
    return d[:, -1], d[:, :-1]


def pairwise_repulsion(coords_km: np.ndarray, radii_km: np.ndarray, pairwise_km: np.ndarray):
    """Accumulate the repulsive forces of every overlapping pair (i < j).

    A pair overlaps when its distance is strictly below the sum of its radii.
    Returns (forces, interaction_counts, any_overlap). Forces obey Newton-pair
    symmetry: before normalization they sum to the zero vector. A coincident
    pair (distance 0) counts as an overlap but exerts no force.
    """
    n = len(coords_km)
    forces = np.zeros((n, 2))
    i, j = _upper_pairs(n)
    d = pairwise_km[i, j]
    d_min = radii_km[i] + radii_km[j]
    overlap = d < d_min
    if not np.count_nonzero(overlap):
        return forces, np.zeros(n, dtype=int), False
    push = overlap & (d > 0)
    i, j = i[push], j[push]
    f = (d_min[push] / d[push])[:, None] * (coords_km[j] - coords_km[i])
    # In row-major pair order every pair (k, r) with k < r precedes every pair
    # (r, k'), so adding all "+f" terms and then subtracting all "-f" terms
    # accumulates each row in the same sequence as a pair-by-pair loop.
    np.add.at(forces, j, f)
    np.subtract.at(forces, i, f)
    counts = np.bincount(i, minlength=n) + np.bincount(j, minlength=n)
    return forces, counts, True


def _clamp_to_boundary(padded_km: np.ndarray, radius_km: float, center: GeoPoint):
    """Project any out-of-area UAV onto the boundary circle (in place).

    `padded_km` holds the UAV rows followed by a zero row for the center (see
    :func:`_geometry`). Up to four rounds of radial scaling; a UAV that the
    last one moved may remain outside by a few ulps. Returns the (center,
    pairwise) distances of the final coordinates.
    """
    coords_km = padded_km[:-1]
    for _ in range(4):
        d, pairwise = _geometry(padded_km, center)
        if not np.count_nonzero(d > radius_km):
            return d, pairwise
        # Outside: radius / d. Inside (or NaN): radius / radius, exactly 1.
        coords_km *= (radius_km / np.fmax(d, radius_km))[:, None]
    return _geometry(padded_km, center)


def _separate_coincident(
    coords_km: np.ndarray, candidates: tuple[np.ndarray, np.ndarray], rng: random.Random
) -> bool:
    """Nudge the higher-index UAV of each exactly coincident pair by 1 m.

    `candidates` are the pairs (i < j), in row-major order, at distance 0.
    Coincident pairs receive no repulsive force (the direction is undefined)
    and would otherwise deadlock.
    """
    moved = False
    for i, j in zip(*candidates):
        if np.array_equal(coords_km[i], coords_km[j]):
            angle = rng.uniform(0.0, 2.0 * math.pi)
            coords_km[j] += _JITTER_KM * np.array([math.cos(angle), math.sin(angle)])
            moved = True
    return moved


def repair_coords(
    coords_km: np.ndarray,
    area_radius_km: float,
    center: GeoPoint,
    config: RepairConfig = RepairConfig(),
) -> np.ndarray:
    """Repair a deployment given as (n, 2) local-plane km coordinates.

    Returns a new array; the input is not modified.
    """
    if not area_radius_km > 0:
        raise ValueError(f"area radius must be positive, got {area_radius_km}")
    n = len(coords_km)
    padded = np.zeros((n + 1, 2))
    coords = padded[:n]
    coords[:] = coords_km
    upper_i, upper_j = _upper_pairs(n)
    rng = None  # the jitter stream starts at the first coincident pair

    # Phase 1: boundary correction via linear interpolation toward the center.
    d_center, pairwise = _clamp_to_boundary(padded, area_radius_km, center)

    # Phases 2-3: repulsive forces, then boundary clamping, until no overlap.
    for _ in range(config.max_iter):
        zero = pairwise[upper_i, upper_j] == 0.0
        if np.count_nonzero(zero):
            if rng is None:
                rng = random.Random(_JITTER_SEED)
            if _separate_coincident(coords, (upper_i[zero], upper_j[zero]), rng):
                d_center, pairwise = _geometry(padded, center)
        radii_km = radius_law(d_center) / 1000.0
        forces, counts, any_overlap = pairwise_repulsion(coords, radii_km, pairwise)
        if not any_overlap:
            break
        active = counts > 0
        coords[active] += ALPHA_R * forces[active] / counts[active, None]
        d_center, pairwise = _clamp_to_boundary(padded, area_radius_km, center)
    return coords


def repair(deployment: Deployment) -> Deployment:
    """Return a repaired version of `deployment` (see the module notes on feasibility).

    Runs :func:`repair_coords` on the deployment's local-plane coordinates. When
    it leaves them unchanged the input object itself is returned; otherwise
    detection radii are recomputed from the final positions.
    """
    area = deployment.area
    coords = deployment.coords_km()
    repaired = repair_coords(coords, area.radius_km, area.center)
    if np.array_equal(repaired, coords):
        return deployment
    return Deployment.from_coords(repaired, area)
