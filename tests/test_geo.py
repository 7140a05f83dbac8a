"""Geometry primitives: the haversine kernel and the local tangent plane."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from driftsearch.geo import (
    EARTH_RADIUS_KM,
    METERS_PER_DEGREE,
    GeoPoint,
    MidpointIndex,
    haversine_km_arrays,
    latlon_to_local,
    local_to_latlon,
)


class TestGeoPoint:
    def test_valid(self):
        p = GeoPoint(34.5, 127.8)
        assert p.lat == 34.5 and p.lon == 127.8

    def test_longitude_wraps(self):
        assert GeoPoint(0.0, 190.0).lon == pytest.approx(-170.0)
        assert GeoPoint(0.0, -200.0).lon == pytest.approx(160.0)

    def test_latitude_rejected(self):
        with pytest.raises(ValueError):
            GeoPoint(91.0, 0.0)
        with pytest.raises(ValueError):
            GeoPoint(-90.5, 0.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            GeoPoint(float("nan"), 0.0)
        with pytest.raises(ValueError):
            GeoPoint(0.0, float("inf"))


class TestEarthModel:
    def test_default_radius(self):
        assert EARTH_RADIUS_KM == 6371.0

    def test_meters_per_degree(self):
        # 2*pi*R / 360 degrees.
        expected = 2.0 * math.pi * 6371.0 * 1000.0 / 360.0
        assert METERS_PER_DEGREE == pytest.approx(expected)


class TestHaversine:
    def test_zero_distance(self):
        assert haversine_km_arrays(12.3, 45.6, 12.3, 45.6) == 0.0

    def test_equatorial_degree(self):
        # One degree of longitude on the equator is one 360th of the equator.
        d = haversine_km_arrays(0.0, 0.0, 0.0, 1.0)
        assert d == pytest.approx(2.0 * math.pi * 6371.0 / 360.0, rel=1e-12)

    def test_quarter_meridian(self):
        d = haversine_km_arrays(0.0, 0.0, 90.0, 0.0)
        assert d == pytest.approx(math.pi * 6371.0 / 2.0, rel=1e-12)

    def test_antipodal(self):
        d = haversine_km_arrays(0.0, 0.0, 0.0, 180.0)
        assert d == pytest.approx(math.pi * 6371.0, rel=1e-12)

    def test_symmetry(self):
        d_ab = haversine_km_arrays(51.5, -0.12, 48.85, 2.35)
        assert d_ab == pytest.approx(haversine_km_arrays(48.85, 2.35, 51.5, -0.12))

    def test_known_city_pair(self):
        # Nashville (BNA) to Los Angeles (LAX), the textbook haversine example:
        # 2887.26 km on a 6372.8 km sphere, rescaled to this mean radius.
        d = haversine_km_arrays(36.12, -86.67, 33.94, -118.40)
        assert d == pytest.approx(2887.2599 * 6371.0 / 6372.8, abs=0.01)

    def test_array_version_matches_scalar(self):
        # A batched call may differ from one call per pair in the last bit only.
        rng = np.random.default_rng(3)
        lat1, lat2 = rng.uniform(-80, 80, 20), rng.uniform(-80, 80, 20)
        lon1, lon2 = rng.uniform(-180, 180, 20), rng.uniform(-180, 180, 20)
        batch = haversine_km_arrays(lat1, lon1, lat2, lon2)
        for i in range(20):
            single = haversine_km_arrays(float(lat1[i]), float(lon1[i]), float(lat2[i]), float(lon2[i]))
            assert batch[i] == pytest.approx(single, rel=1e-12)

    def test_array_broadcasting(self):
        lat = np.array([0.0, 10.0, 20.0])
        lon = np.array([0.0, 1.0, 2.0])
        grid = haversine_km_arrays(lat[:, None], lon[:, None], lat[None, :], lon[None, :])
        assert grid.shape == (3, 3)
        assert np.allclose(np.diag(grid), 0.0)
        assert np.allclose(grid, grid.T)


def to_local(p: GeoPoint, anchor: GeoPoint) -> tuple[float, float]:
    """One point through :func:`latlon_to_local`, as (east, north) in meters."""
    east_km, north_km = latlon_to_local(p.lat, p.lon, anchor)
    return float(east_km) * 1000.0, float(north_km) * 1000.0


class TestTangentPlane:
    def test_round_trip(self):
        anchor = GeoPoint(34.0, 127.0)
        p = GeoPoint(34.03, 127.05)
        east_m, north_m = to_local(p, anchor)
        lat, lon = local_to_latlon(east_m / 1000.0, north_m / 1000.0, anchor)
        assert lat == pytest.approx(p.lat, abs=1e-12)
        assert lon == pytest.approx(p.lon, abs=1e-12)

    def test_north_displacement(self):
        anchor = GeoPoint(10.0, 20.0)
        east_m, north_m = to_local(GeoPoint(10.01, 20.0), anchor)
        assert east_m == pytest.approx(0.0, abs=1e-9)
        assert north_m == pytest.approx(0.01 * METERS_PER_DEGREE)

    def test_east_displacement_shrinks_with_latitude(self):
        east_eq, _ = to_local(GeoPoint(0.0, 1.0), GeoPoint(0.0, 0.0))
        east_60, _ = to_local(GeoPoint(60.0, 1.0), GeoPoint(60.0, 0.0))
        assert east_60 == pytest.approx(east_eq * math.cos(math.radians(60.0)), rel=1e-9)

    def test_local_distance_matches_haversine_at_small_scale(self):
        anchor = GeoPoint(34.0, 127.0)
        p = GeoPoint(34.02, 127.03)
        planar_km = math.hypot(*to_local(p, anchor)) / 1000.0
        assert planar_km == pytest.approx(haversine_km_arrays(anchor.lat, anchor.lon, p.lat, p.lon), rel=1e-4)

    def test_array_helpers_match_scalars(self):
        anchor = GeoPoint(33.5, 126.5)
        pts = [GeoPoint(33.52, 126.48), GeoPoint(33.47, 126.55)]
        east, north = latlon_to_local([p.lat for p in pts], [p.lon for p in pts], anchor)
        for i, p in enumerate(pts):
            assert (east[i] * 1000.0, north[i] * 1000.0) == to_local(p, anchor)
        lat, lon = local_to_latlon(east, north, anchor)
        for i, p in enumerate(pts):
            assert lat[i] == pytest.approx(p.lat, abs=1e-12)
            assert lon[i] == pytest.approx(p.lon, abs=1e-12)


def seed_haversine_km(lat1, lon1, lat2, lon2, radius_km=6371.0):
    """The haversine formula exactly as first written, kept as an oracle."""
    phi1 = np.radians(lat1)
    phi2 = np.radians(lat2)
    dphi = np.radians(np.subtract(lat2, lat1))
    dlam = np.radians(np.subtract(lon2, lon1))
    s = np.sin(dphi / 2.0) ** 2 + np.cos(phi1) * np.cos(phi2) * np.sin(dlam / 2.0) ** 2
    return 2.0 * radius_km * np.arcsin(np.minimum(1.0, np.sqrt(s)))


class TestHaversineArraysBitForBit:
    """haversine_km_arrays folds radians(x) / 2 into one product; nothing may change."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-9, 1e-4, 0.01, 1.0, 90.0, 400.0]))
    def test_equals_seed_formula(self, seed, scale):
        rng = np.random.default_rng(seed)
        lat1, lon1, lat2, lon2 = rng.uniform(-scale, scale, size=(4, 50)) + rng.uniform(-60, 60, size=(4, 1))
        assert np.array_equal(haversine_km_arrays(lat1, lon1, lat2, lon2), seed_haversine_km(lat1, lon1, lat2, lon2))
        # Broadcast and scalar forms, as the fitness and repair kernels call it.
        assert np.array_equal(
            haversine_km_arrays(lat1[:8, None], lon1[:8, None], lat2, lon2),
            seed_haversine_km(lat1[:8, None], lon1[:8, None], lat2, lon2),
        )
        assert haversine_km_arrays(lat1[0], lon1[0], lat2[0], lon2[0]) == seed_haversine_km(
            lat1[0], lon1[0], lat2[0], lon2[0]
        )


class TestHaversineBatching:
    """With every input at least 1-d, a pair's distance has the same bits however it is batched."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(1, 60), step=st.integers(1, 7))
    def test_same_bits_under_any_split_stride_or_broadcast(self, data, n, step):
        lat = hnp.arrays(np.float64, n, elements=st.floats(-90.0, 90.0))
        lon = hnp.arrays(np.float64, n, elements=st.floats(-1e300, 1e300))  # no inf in the difference
        lat1, lon1, lat2, lon2 = coords = [data.draw(lat), data.draw(lon), data.draw(lat), data.draw(lon)]
        whole = haversine_km_arrays(*coords)
        cuts = data.draw(st.lists(st.integers(1, n - 1), unique=True).map(sorted)) if n > 1 else []
        blocks = [haversine_km_arrays(*(c[lo:hi] for c in coords)) for lo, hi in zip([0, *cuts], [*cuts, n])]
        assert np.concatenate(blocks).tobytes() == whole.tobytes()
        assert haversine_km_arrays(*(c[::step] for c in coords)).tobytes() == whole[::step].tobytes()
        # Repair's (n, 1) x (n,) broadcast: row i is first point i against all second points.
        grid = haversine_km_arrays(lat1[:, None], lon1[:, None], lat2, lon2)
        for i in range(n):
            row = haversine_km_arrays(np.full(n, lat1[i]), np.full(n, lon1[i]), lat2, lon2)
            assert grid[i].tobytes() == row.tobytes()
        assert np.diagonal(grid).tobytes() == whole.tobytes()


class TestMidpointIndex:
    @settings(max_examples=200, deadline=None)
    @given(
        lat0=st.floats(-85.0, 85.0),
        lon0=st.one_of(st.floats(-180.0, 180.0), st.floats(179.99, 180.0), st.floats(-180.0, -179.99)),
        reach_km=st.floats(0.05, 5.0),
        n_points=st.integers(1, 300),
        n_queries=st.integers(1, 10),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_returns_every_pair_within_reach(self, lat0, lon0, reach_km, n_points, n_queries, seed):
        # Points and queries scattered a few reaches around (lat0, lon0), with
        # longitudes left unwrapped or wrapped across +-180 at random.
        rng = np.random.default_rng(seed)
        spread_deg = 3.0 * math.degrees(reach_km / EARTH_RADIUS_KM)
        lat = np.clip(lat0 + rng.normal(0.0, spread_deg, n_points), -90.0, 90.0)
        lon = lon0 + rng.normal(0.0, spread_deg / max(0.05, math.cos(math.radians(lat0))), n_points)
        lon = np.where(rng.random(n_points) < 0.5, ((lon + 180.0) % 360.0) - 180.0, lon)
        qlat = np.clip(lat0 + rng.normal(0.0, spread_deg, n_queries), -90.0, 90.0)
        qlon = lon0 + rng.normal(0.0, spread_deg / max(0.05, math.cos(math.radians(lat0))), n_queries)
        index = MidpointIndex(lat, lon, reach_km)
        assert np.array_equal(index.lat, lat[index.order]) and np.array_equal(index.lon, lon[index.order])
        query, point = index.pairs(qlat, qlon)
        returned = set(zip(query.tolist(), index.order[point].tolist()))
        assert len(returned) == len(query)
        d = haversine_km_arrays(qlat[:, None], qlon[:, None], lat[None, :], lon[None, :])
        within = set(zip(*(d < reach_km).nonzero()))
        assert within <= returned

    def test_prunes_far_pairs(self):
        lat = np.linspace(34.0, 34.1, 1000)
        index = MidpointIndex(lat, np.full(1000, 127.0), 0.6)
        query, _ = index.pairs(np.array([34.05, 34.05]), np.array([127.0, 127.5]))
        assert 0 < len(query) < 200 and set(query.tolist()) == {0}

    def test_out_of_range_latitudes_return_all_pairs(self):
        index = MidpointIndex(np.array([10.0, 20.0, 30.0]), np.zeros(3), 0.6)
        query, point = index.pairs(np.array([10.0, 95.0]), np.zeros(2))
        assert query.tolist() == [0, 0, 0, 1, 1, 1] and point.tolist() == [0, 1, 2, 0, 1, 2]
