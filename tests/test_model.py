"""Detection radius law, PoD, and deployment containers."""

import math

import numpy as np
import pytest

from driftsearch.geo import GeoPoint, haversine_km_arrays, local_to_latlon
from driftsearch.model import (
    MAX_DETECTION_RADIUS_M,
    MIN_DETECTION_RADIUS_M,
    Deployment,
    UavPosition,
    detection_pod,
    detection_radius_m,
    radius_law,
)
from driftsearch.scenario import SearchArea

CENTER = GeoPoint(34.0, 127.0)


def at(east_km: float, north_km: float) -> GeoPoint:
    lat, lon = local_to_latlon(east_km, north_km, CENTER)
    return GeoPoint(float(lat), float(lon))


def at_distance_km(d_km: float, angle: float = 0.3) -> GeoPoint:
    return at(d_km * math.cos(angle), d_km * math.sin(angle))


class TestRadiusLaw:
    def test_vectorized_matches_the_clipped_line(self):
        d_km = np.array([0.0, 0.25, 1.0, 1.999, 2.0, 2.001, 5.0, 1e6])
        expected = np.clip(-200.0 * d_km + 600.0, 200.0, 600.0)
        assert np.array_equal(radius_law(d_km), expected)

    def test_scalar_radius_uses_the_law(self):
        p = at_distance_km(0.7)
        assert detection_radius_m(p, CENTER) == radius_law(haversine_km_arrays(p.lat, p.lon, CENTER.lat, CENTER.lon))


class TestDetectionRadius:
    def test_at_center(self):
        assert detection_radius_m(CENTER, CENTER) == MAX_DETECTION_RADIUS_M

    @pytest.mark.parametrize("d_km,expected", [(0.5, 500.0), (1.0, 400.0), (1.5, 300.0), (2.0, 200.0)])
    def test_linear_region(self, d_km, expected):
        # Placement goes through the tangent plane, so allow a few cm of
        # projection error on the underlying distance.
        assert detection_radius_m(at_distance_km(d_km), CENTER) == pytest.approx(expected, abs=0.05)

    @pytest.mark.parametrize("d_km", [2.5, 3.0, 10.0, 40.0])
    def test_clamped_far_out(self, d_km):
        assert detection_radius_m(at_distance_km(d_km), CENTER) == MIN_DETECTION_RADIUS_M

    def test_bounds_always_hold(self):
        for d_km in (0.0, 0.01, 1.99, 2.01, 7.3):
            r = detection_radius_m(at_distance_km(d_km), CENTER)
            assert MIN_DETECTION_RADIUS_M <= r <= MAX_DETECTION_RADIUS_M


class TestDetectionPod:
    def test_max_radius(self):
        assert detection_pod(600.0) == pytest.approx(1.0 - math.exp(-1.0))

    def test_min_radius(self):
        assert detection_pod(200.0) == pytest.approx(1.0 - math.exp(-1.0 / 3.0))

    def test_monotone_in_radius(self):
        pods = [detection_pod(r) for r in (200.0, 300.0, 450.0, 600.0)]
        assert pods == sorted(pods)

    def test_bounds(self):
        for r in (200.0, 333.0, 600.0):
            assert 0.2834 < detection_pod(r) < 0.6322


class TestUavPosition:
    def test_place_derives_radius(self):
        uav = UavPosition.place(at_distance_km(1.0), CENTER)
        assert uav.detection_radius_m == pytest.approx(400.0, abs=0.01)
        assert uav.pod == pytest.approx(detection_pod(uav.detection_radius_m))


class TestDeployment:
    def test_from_points(self):
        area = SearchArea(CENTER, 3.0)
        dep = Deployment.from_points([CENTER, at_distance_km(1.0)], area)
        assert len(dep) == 2
        assert dep.uavs[0].detection_radius_m == 600.0
        assert dep.uavs[1].detection_radius_m == pytest.approx(400.0, abs=0.01)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Deployment(uavs=(), area=SearchArea(CENTER, 1.0))

    def test_coords_round_trip(self):
        area = SearchArea(CENTER, 3.0)
        coords = np.array([[0.0, 0.0], [1.2, -0.5], [-2.0, 1.9]])
        dep = Deployment.from_coords(coords, area)
        assert dep == Deployment.from_points([CENTER, *(at(e, n) for e, n in coords[1:])], area)
        lat, lon = dep.latlon()
        assert lat.tolist() == [u.position.lat for u in dep.uavs]
        assert lon.tolist() == [u.position.lon for u in dep.uavs]
        assert np.allclose(dep.coords_km(), coords, rtol=0.0, atol=1e-9)
        assert dep.uavs[0].detection_radius_m == 600.0

    def test_area_radius_positive(self):
        with pytest.raises(ValueError):
            SearchArea(CENTER, 0.0)
