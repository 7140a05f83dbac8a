"""Boundary projection and repulsive-force overlap repair."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftsearch.geo import GeoPoint, haversine_km_arrays, local_to_latlon
from driftsearch.model import Deployment
from driftsearch.repair import (
    ALPHA_R,
    RepairConfig,
    _clamp_to_boundary,
    _geometry,
    pairwise_repulsion,
    repair,
    repair_coords,
)
from driftsearch.scenario import SearchArea

CENTER = GeoPoint(34.0, 127.0)


def center_km(dep: Deployment) -> np.ndarray:
    """Each UAV's distance from CENTER."""
    lat, lon = dep.latlon()
    return haversine_km_arrays(lat, lon, CENTER.lat, CENTER.lon)


def min_gap_m(dep: Deployment) -> float:
    """Smallest pairwise surplus distance beyond touching discs, in meters."""
    lat, lon = dep.latlon()
    pairwise_m = haversine_km_arrays(lat[:, None], lon[:, None], lat, lon) * 1000.0
    gaps = []
    for i in range(len(dep)):
        for j in range(i + 1, len(dep)):
            a, b = dep.uavs[i], dep.uavs[j]
            gaps.append(pairwise_m[i, j] - (a.detection_radius_m + b.detection_radius_m))
    return min(gaps) if gaps else math.inf


class TestRepairConfig:
    def test_defaults(self):
        assert RepairConfig().max_iter == 100 and ALPHA_R == 0.9

    def test_validation(self):
        with pytest.raises(ValueError):
            RepairConfig(max_iter=0)


class TestPairwiseRepulsion:
    def test_newton_symmetry(self):
        rng = np.random.default_rng(2)
        coords = rng.uniform(-0.5, 0.5, size=(6, 2))
        radii = np.full(6, 0.6)
        pairwise = np.linalg.norm(coords[:, None] - coords[None, :], axis=2)
        forces, counts, any_overlap = pairwise_repulsion(coords, radii, pairwise)
        assert any_overlap
        assert np.allclose(forces.sum(axis=0), 0.0, atol=1e-12)
        assert (counts > 0).any()

    def test_no_overlap_no_force(self):
        coords = np.array([[0.0, 0.0], [5.0, 0.0]])
        radii = np.array([0.6, 0.6])
        pairwise = np.array([[0.0, 5.0], [5.0, 0.0]])
        forces, counts, any_overlap = pairwise_repulsion(coords, radii, pairwise)
        assert not any_overlap
        assert np.all(forces == 0.0) and np.all(counts == 0)

    def test_force_pushes_apart(self):
        coords = np.array([[0.0, 0.0], [0.4, 0.0]])
        radii = np.array([0.6, 0.6])
        pairwise = np.array([[0.0, 0.4], [0.4, 0.0]])
        forces, _, _ = pairwise_repulsion(coords, radii, pairwise)
        assert forces[0][0] < 0 < forces[1][0]


class TestRepairCoords:
    def test_out_of_bounds_clamped(self):
        coords = np.array([[10.0, 0.0], [0.0, -8.0], [1.0, 1.0]])
        out = repair_coords(coords, 3.0, CENTER)
        assert (np.linalg.norm(out, axis=1) <= 3.0 + 1e-6).all()

    def test_input_not_modified(self):
        coords = np.array([[10.0, 0.0], [0.0, 0.0]])
        snapshot = coords.copy()
        repair_coords(coords, 3.0, CENTER)
        assert np.array_equal(coords, snapshot)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        coords = rng.uniform(-1.0, 1.0, size=(6, 2))
        a = repair_coords(coords, 4.0, CENTER)
        b = repair_coords(coords, 4.0, CENTER)
        assert np.array_equal(a, b)

    def test_coincident_pair_separated(self):
        coords = np.zeros((2, 2))
        out = repair_coords(coords, 4.0, CENTER)
        gap = np.linalg.norm(out[0] - out[1])
        # Two center-stacked UAVs (600 m discs each) must end up >= 1.2 km apart.
        assert gap >= 1.2 - 1e-6


class TestRepairDeployment:
    def area(self, radius_km=4.0):
        return SearchArea(CENTER, radius_km)

    def spread(self, offsets_km, radius_km=4.0):
        return Deployment.from_coords(np.array(offsets_km), self.area(radius_km))

    def test_feasible_input_is_identity(self):
        dep = self.spread([(0.0, 0.0), (2.5, 0.0), (-2.5, 0.0), (0.0, 2.5)])
        assert repair(dep) is dep

    def test_boundary_restored(self):
        fixed = repair(self.spread([(9.0, 0.0), (0.0, -7.0)]))
        assert (center_km(fixed) <= 4.0 + 1e-9).all()

    def test_overlap_resolved_when_room_exists(self):
        fixed = repair(self.spread([(0.0, 0.0), (0.3, 0.0), (0.0, 0.3), (-0.3, 0.0)], 6.0))
        assert min_gap_m(fixed) >= 0.0

    def test_radii_recomputed_after_moving(self):
        fixed = repair(self.spread([(0.0, 0.0), (0.05, 0.0)]))
        for uav, d_km in zip(fixed.uavs, center_km(fixed)):
            expected = min(600.0, max(200.0, -200.0 * d_km + 600.0))
            assert uav.detection_radius_m == pytest.approx(expected, abs=1e-6)

    def test_random_fuzz_bounds_and_overlap(self):
        """Random infeasible deployments: bounds always restored, overlaps
        resolved whenever the packing leaves room."""
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            fixed = repair(self.spread(rng.uniform(-7.0, 7.0, size=(n, 2)), 5.0))
            assert (center_km(fixed) <= 5.0 + 1e-9).all()
            # 8 discs of <= 600 m radius pack easily into a 5 km circle.
            assert min_gap_m(fixed) >= -1e-6


# --- Equivalence with the seed algorithm --------------------------------------
#
# A frozen copy of repair as first written: Python double loops over the pairs,
# centre distances recomputed each iteration, two haversine calls per geometry.
# The optimized repair_coords must return exactly the same array.


def seed_haversine_km(lat1, lon1, lat2, lon2, radius_km=6371.0):
    phi1 = np.radians(lat1)
    phi2 = np.radians(lat2)
    dphi = np.radians(np.subtract(lat2, lat1))
    dlam = np.radians(np.subtract(lon2, lon1))
    s = np.sin(dphi / 2.0) ** 2 + np.cos(phi1) * np.cos(phi2) * np.sin(dlam / 2.0) ** 2
    return 2.0 * radius_km * np.arcsin(np.minimum(1.0, np.sqrt(s)))


def seed_geometry(coords_km, center):
    lat, lon = local_to_latlon(coords_km[:, 0], coords_km[:, 1], center)
    d_center = seed_haversine_km(lat, lon, center.lat, center.lon)
    radii = np.clip(-200.0 * d_center + 600.0, 200.0, 600.0) / 1000.0
    pairwise = seed_haversine_km(lat[:, None], lon[:, None], lat[None, :], lon[None, :])
    return radii, pairwise


def seed_pairwise_repulsion(coords_km, radii_km, pairwise_km):
    n = len(coords_km)
    forces = np.zeros((n, 2))
    counts = np.zeros(n, dtype=int)
    any_overlap = False
    for i in range(n):
        for j in range(i + 1, n):
            d = pairwise_km[i, j]
            d_min = radii_km[i] + radii_km[j]
            if d < d_min:
                any_overlap = True
                if d > 0:
                    f = (d_min / d) * (coords_km[j] - coords_km[i])
                    forces[i] -= f
                    forces[j] += f
                    counts[i] += 1
                    counts[j] += 1
    return forces, counts, any_overlap


def seed_clamp(coords_km, radius_km, center):
    for _ in range(4):
        lat, lon = local_to_latlon(coords_km[:, 0], coords_km[:, 1], center)
        d = seed_haversine_km(lat, lon, center.lat, center.lon)
        outside = d > radius_km
        if not outside.any():
            break
        scale = np.ones_like(d)
        scale[outside] = radius_km / d[outside]
        coords_km *= scale[:, None]


def seed_separate_coincident(coords_km, pairwise_km, rng):
    moved = False
    n = len(coords_km)
    for i in range(n):
        for j in range(i + 1, n):
            if pairwise_km[i, j] == 0.0 and np.array_equal(coords_km[i], coords_km[j]):
                angle = rng.uniform(0.0, 2.0 * math.pi)
                coords_km[j] += 0.001 * np.array([math.cos(angle), math.sin(angle)])
                moved = True
    return moved


def seed_repair_coords(coords_km, area_radius_km, center, max_iter=100):
    coords = np.array(coords_km, dtype=float)
    rng = random.Random(0x5EED)
    seed_clamp(coords, area_radius_km, center)
    for _ in range(max_iter):
        radii, pairwise = seed_geometry(coords, center)
        if seed_separate_coincident(coords, pairwise, rng):
            radii, pairwise = seed_geometry(coords, center)
        forces, counts, any_overlap = seed_pairwise_repulsion(coords, radii, pairwise)
        if not any_overlap:
            break
        active = counts > 0
        coords[active] += 0.9 * forces[active] / counts[active, None]
        seed_clamp(coords, area_radius_km, center)
    return coords


@st.composite
def repair_inputs(draw):
    n = draw(st.integers(1, 10))
    radius_km = draw(st.sampled_from([0.3, 0.8, 2.0, 4.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.sampled_from([0.2, 1.0, 2.0, 50.0]))  # 50 R: starts far outside
    coords = rng.normal(0.0, spread * radius_km, size=(n, 2))
    for _ in range(draw(st.integers(0, 3))):  # exactly coincident UAVs (the jitter path)
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        coords[j] = coords[i]
    if draw(st.booleans()):
        coords[: draw(st.integers(1, n))] = 0.0  # stacked on the center
    center = GeoPoint(draw(st.floats(-70.0, 70.0)), draw(st.sampled_from([127.0, 179.999, -179.999])))
    return coords, radius_km, center, draw(st.sampled_from([1, 3, 25]))


class TestSeedEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(repair_inputs())
    def test_matches_seed_algorithm(self, case):
        coords, radius_km, center, max_iter = case
        expected = seed_repair_coords(coords, radius_km, center, max_iter)
        assert np.array_equal(repair_coords(coords, radius_km, center, RepairConfig(max_iter)), expected)

    @pytest.mark.parametrize("n, radius_km", [(8, 0.3), (3, 0.05)])
    def test_iteration_cap_reached(self, n, radius_km):
        # n discs cannot fit: every iteration overlaps and the cap is reached.
        coords = np.random.default_rng(n).normal(0.0, radius_km, size=(n, 2))
        coords[1] = coords[0]
        out = repair_coords(coords, radius_km, CENTER, RepairConfig(max_iter=40))
        assert np.array_equal(out, seed_repair_coords(coords, radius_km, CENTER, 40))
        radii = np.full(n, 0.2)
        pairwise = np.linalg.norm(out[:, None] - out[None, :], axis=2)
        assert pairwise_repulsion(out, radii, pairwise)[2]

    def test_coincidences_in_several_iterations_share_one_jitter_stream(self):
        # UAVs on one ray far outside are clamped onto the same boundary point,
        # and pairs coincide again after later moves.
        coords = np.array([[-1.5, 0.0], [-1.2, 0.0], [1.2, 0.0], [1.5, 0.0], [0.6, 0.0], [-0.9, 0.0]])
        expected = seed_repair_coords(coords, 0.3, CENTER, 50)
        assert np.array_equal(repair_coords(coords, 0.3, CENTER, RepairConfig(max_iter=50)), expected)

    def test_geometry_recomputed_after_a_fourth_boundary_scaling(self):
        # The boundary projection stops after four scalings and the last one
        # moves a UAV, so the distances it measured before are stale.
        coords = np.array([
            [-11.238740013009739, -2.82509524770163], [0.486920508943895, 2.4551220524800836],
            [-8.8396931244688, -9.966357424486738], [1.7962607956237275, -4.200746551918218],
            [2.119550505572027, 6.835675702305412],
        ])
        center = GeoPoint(42.62723691444842, 130.06205862396064)
        expected = seed_repair_coords(coords, 0.3, center)
        assert np.array_equal(repair_coords(coords, 0.3, center), expected)

    @settings(max_examples=100, deadline=None)
    @given(repair_inputs())
    def test_clamp_returns_the_geometry_of_its_final_coordinates(self, case):
        # Also when the fourth scaling still moved a UAV.
        coords, radius_km, center, _ = case
        padded = np.vstack([coords, np.zeros((1, 2))])
        d_center, pairwise = _clamp_to_boundary(padded, radius_km, center)
        expected_center, expected_pairwise = _geometry(padded, center)
        assert np.array_equal(d_center, expected_center) and np.array_equal(pairwise, expected_pairwise)

    def test_rejects_non_positive_radius(self):
        with pytest.raises(ValueError):
            repair_coords(np.zeros((2, 2)), 0.0, CENTER)


# --- Equivalence with the feasibility check repair() used to run first ---------
#
# repair() used to test feasibility on the deployment's own latitudes,
# longitudes and stored radii, return the input when it passed, and otherwise
# rebuild the deployment from repair_coords. It now rebuilds only when
# repair_coords moves a coordinate; results and identity must not change.


def check_first_repair(deployment: Deployment) -> Deployment:
    area = deployment.area
    lat, lon = deployment.latlon()
    lat2, lon2 = np.append(lat, area.center.lat), np.append(lon, area.center.lon)
    d = haversine_km_arrays(lat2[:-1, None], lon2[:-1, None], lat2, lon2)
    d_center, pairwise = d[:, -1], d[:, :-1]
    radii = np.array([u.detection_radius_m for u in deployment.uavs]) / 1000.0
    i, j = np.triu_indices(len(radii), 1)
    if not (d_center > area.radius_km).any() and not (pairwise[i, j] < radii[i] + radii[j] - 0.0).any():
        return deployment
    return Deployment.from_coords(repair_coords(deployment.coords_km(), area.radius_km, area.center), area)


@st.composite
def deployments(draw):
    center = GeoPoint(draw(st.floats(-70.0, 70.0)), draw(st.sampled_from([127.0, 179.999, -179.999])))
    layout = draw(st.sampled_from(["spread", "boundary", "column"]))
    radius_km = draw(st.sampled_from([4.0, 20.0] if layout == "column" else [0.3, 1.0, 4.0, 20.0]))
    area = SearchArea(center, radius_km)
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if layout == "column":
        # A meridian 2.5 km east of the center, where every radius is 200 m;
        # consecutive discs are `gap_km` from touching along the meridian.
        gap_km = draw(st.sampled_from([-1e-9, 0.0, 1e-12, 1e-9, 1e-6]))
        lat, lon = local_to_latlon(2.5, 0.0, center)
        step = math.degrees((0.4 + gap_km) / 6371.0)
        return Deployment.from_points([GeoPoint(float(lat) + (k - n // 2) * step, float(lon)) for k in range(n)], area)
    if layout == "boundary":
        theta = rng.uniform(0.0, 2.0 * math.pi, n)
        coords = radius_km * np.column_stack([np.cos(theta), np.sin(theta)])
    else:
        coords = rng.uniform(-1.2, 1.2, size=(n, 2)) * radius_km
    return Deployment.from_coords(coords, area)


class TestRepairMatchesFeasibilityCheck:
    @settings(max_examples=600, deadline=None)
    @given(deployments())
    def test_same_result_and_identity(self, dep):
        expected = check_first_repair(dep)
        fixed = repair(dep)
        assert fixed == expected
        if expected is dep:
            assert fixed is dep
