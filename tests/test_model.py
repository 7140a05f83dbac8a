"""Detection radius law, PoD, and deployment containers."""

import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftsearch.geo import GeoPoint, haversine_km_arrays, local_to_latlon
from driftsearch.model import (
    MAX_DETECTION_RADIUS_M,
    MIN_DETECTION_RADIUS_M,
    Deployment,
    UavPosition,
    detection_pod,
    radius_law,
)
from driftsearch.scenario import SearchArea

CENTER = GeoPoint(34.0, 127.0)


def at(east_km: float, north_km: float) -> GeoPoint:
    lat, lon = local_to_latlon(east_km, north_km, CENTER)
    return GeoPoint(float(lat), float(lon))


def at_distance_km(d_km: float, angle: float = 0.3) -> GeoPoint:
    return at(d_km * math.cos(angle), d_km * math.sin(angle))


def placed_radius_m(p: GeoPoint) -> float:
    return UavPosition.place(p, CENTER).detection_radius_m


class TestRadiusLaw:
    def test_vectorized_matches_the_clipped_line(self):
        d_km = np.array([0.0, 0.25, 1.0, 1.999, 2.0, 2.001, 5.0, 1e6])
        expected = np.clip(-200.0 * d_km + 600.0, 200.0, 600.0)
        assert np.array_equal(radius_law(d_km), expected)

    def test_scalar_radius_uses_the_law(self):
        # One UAV's radius is the law on a 1-element distance array, never a 0-d call.
        p = at_distance_km(0.7)
        (expected,) = radius_law(haversine_km_arrays([p.lat], [p.lon], CENTER.lat, CENTER.lon)).tolist()
        assert placed_radius_m(p) == expected


class TestDetectionRadius:
    def test_at_center(self):
        assert placed_radius_m(CENTER) == MAX_DETECTION_RADIUS_M

    @pytest.mark.parametrize("d_km,expected", [(0.5, 500.0), (1.0, 400.0), (1.5, 300.0), (2.0, 200.0)])
    def test_linear_region(self, d_km, expected):
        # Placement goes through the tangent plane, so allow a few cm of
        # projection error on the underlying distance.
        assert placed_radius_m(at_distance_km(d_km)) == pytest.approx(expected, abs=0.05)

    @pytest.mark.parametrize("d_km", [2.5, 3.0, 10.0, 40.0])
    def test_clamped_far_out(self, d_km):
        assert placed_radius_m(at_distance_km(d_km)) == MIN_DETECTION_RADIUS_M

    def test_bounds_always_hold(self):
        for d_km in (0.0, 0.01, 1.99, 2.01, 7.3):
            r = placed_radius_m(at_distance_km(d_km))
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
        assert type(uav.detection_radius_m) is float
        # A classmethod, so callers (and wrappers of it) reach it through the class.
        assert isinstance(inspect.getattr_static(UavPosition, "place"), classmethod)

    @settings(max_examples=100, deadline=None)
    @given(offsets=st.lists(st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)), min_size=1, max_size=12))
    def test_place_equals_its_radius_in_a_larger_deployment(self, offsets):
        # One UAV placed alone gets the same bits as in one call over the whole set.
        points = [at(e, n) for e, n in offsets]
        dep = Deployment.from_points(points, SearchArea(CENTER, 6.0))
        assert [UavPosition.place(p, CENTER) for p in points] == list(dep.uavs)


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
