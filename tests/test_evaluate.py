"""Trajectory segmentation and the sequential-detection coverage score."""

import math
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftsearch.evaluate import (
    EmptySlice,
    EvaluationConfig,
    coverage,
    literal_chain,
    monte_carlo_chain,
    segment_trajectory,
    survival_chain,
)
from driftsearch.geo import GeoPoint, haversine_km_arrays, latlon_to_local, local_to_latlon
from driftsearch.ingest import DrifterRecord, DrifterTrack, synthesize_track
from driftsearch.model import MAX_DETECTION_RADIUS_M, Deployment, UavPosition
from driftsearch.optimize import initialize
from driftsearch.scenario import SearchArea


def dist_km(a: GeoPoint, b: GeoPoint) -> float:
    return float(haversine_km_arrays(a.lat, a.lon, b.lat, b.lon))


def make_track(seed=3, hours=14, drift=0.5, turn=0.3):
    return synthesize_track(seed=seed, hours=hours, start=GeoPoint(34.0, 127.0), drift_kmh=drift, turn_sigma=turn)


class TestSurvivalChain:
    def test_closed_form(self):
        # Sequential detection telescopes: K0 * (1 - prod(1 - p_i)).
        rng = np.random.default_rng(0)
        for _ in range(10):
            pods = rng.uniform(0.0, 0.7, size=rng.integers(1, 40))
            expected = 100 * (1.0 - np.prod(1.0 - pods))
            assert survival_chain(pods, 100) == pytest.approx(expected, rel=1e-12)

    def test_empty(self):
        assert survival_chain(np.array([]), 100) == 0.0

    def test_single_segment(self):
        assert survival_chain(np.array([0.4]), 100) == pytest.approx(40.0)

    def test_order_of_magnitude_bounds(self):
        pods = np.full(50, 0.3)
        score = survival_chain(pods, 100)
        assert 0.0 <= score <= 100.0

    def test_literal_variant_matches_on_uniform_pods(self):
        pods = np.full(6, 0.2835)
        assert literal_chain(pods, 100) == pytest.approx(survival_chain(pods, 100), rel=1e-12)

    def test_literal_variant_differs_on_mixed_pods(self):
        pods = np.array([0.6, 0.0, 0.0, 0.3])
        assert literal_chain(pods, 100) != pytest.approx(survival_chain(pods, 100))

    # The running-product form summed these 57 PoDs to 100.00000000000003.
    @example(
        pods=[0.53, 0.3, 0.47, 0.61, 0.63, 0.51, 0.38, 0.35, 0.29, 0.56, 0.55, 0.57, 0.51, 0.46, 0.35,
              0.59, 0.47, 0.55, 0.63, 0.64, 0.31, 0.59, 0.53, 0.37, 0.3, 0.53, 0.63, 0.58, 0.43, 0.62,
              0.64, 0.32, 0.33, 0.61, 0.47, 0.41, 0.29, 0.52, 0.5, 0.63, 0.52, 0.46, 0.32, 0.53, 0.54,
              0.41, 0.56, 0.31, 0.48, 0.43, 0.5, 0.38, 0.4, 0.44, 0.54, 0.57, 0.49],
        k0=100,
    )
    @given(
        pods=st.lists(st.floats(0.0, 1.0), max_size=200),
        k0=st.integers(1, 10_000),
    )
    def test_within_zero_and_k0(self, pods, k0):
        assert 0.0 <= survival_chain(np.array(pods), k0) <= k0

    @example(pods=[0.0, 0.0, 0.0], k0=100)
    @example(pods=[0.4], k0=100)
    @example(pods=[0.0, 1.0, 0.5, 0.0, 1.0, 0.3], k0=100)  # p = 1 followed by p > 0
    @given(
        pods=st.lists(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)), max_size=300),
        k0=st.integers(1, 10_000),
    )
    def test_literal_chain_matches_full_array_formula(self, pods, k0):
        # The sum over covered segments only may differ from the sum over
        # every segment in the last bits.
        pods = np.array(pods)
        prev = np.concatenate([[0.0], pods[:-1]])
        full = float(k0 * np.sum((1.0 - prev) ** np.arange(len(pods), dtype=float) * pods))
        assert literal_chain(pods, k0) == pytest.approx(full, rel=1e-12, abs=0.0)


class TestMonteCarloChain:
    def test_matches_analytic(self):
        rng = np.random.default_rng(7)
        for trial in range(5):
            pods = rng.uniform(0.0, 0.65, size=rng.integers(1, 30))
            analytic = survival_chain(pods, 100)
            simulated = monte_carlo_chain(pods, 100, trials=20000, seed=trial)
            assert simulated == pytest.approx(analytic, abs=0.5)

    def test_zero_pods(self):
        assert monte_carlo_chain(np.zeros(10), 100, trials=100, seed=0) == 0.0

    def test_trials_positive(self):
        with pytest.raises(ValueError):
            monte_carlo_chain(np.array([0.5]), 100, trials=0, seed=0)


class TestSegmentTrajectory:
    def test_count_is_ceil_length_over_unit(self):
        t = make_track()
        mids = segment_trajectory(t, 6, 12, unit_m=100.0)
        length_m = sum(dist_km(t.position(i), t.position(i + 1)) for i in range(6, 12)) * 1000.0
        assert len(mids) == math.ceil(length_m / 100.0) or len(mids) == math.ceil(length_m / 100.0) + 1

    def test_midpoints_lie_near_polyline(self):
        t = make_track()
        mids = segment_trajectory(t, 6, 12, unit_m=50.0)
        for m in mids:
            nearest = min(
                dist_km(GeoPoint(*m), t.position(i)) for i in range(6, 13)
            )
            # Any midpoint is within half a step of some vertex.
            assert nearest <= 0.26

    def test_first_midpoint_near_start(self):
        t = make_track()
        mids = segment_trajectory(t, 6, 12, unit_m=100.0)
        assert dist_km(GeoPoint(*mids[0]), t.position(6)) * 1000.0 == pytest.approx(50.0, abs=1.0)

    def test_finer_unit_more_segments(self):
        t = make_track()
        assert len(segment_trajectory(t, 6, 12, 1.0)) > len(segment_trajectory(t, 6, 12, 100.0))

    def test_invalid_slice(self):
        t = make_track()
        with pytest.raises(EmptySlice):
            segment_trajectory(t, 6, 6, 1.0)
        with pytest.raises(EmptySlice):
            segment_trajectory(t, 12, 6, 1.0)
        with pytest.raises(EmptySlice):
            segment_trajectory(t, 0, 99, 1.0)


class TestCoverage:
    def test_no_uav_nearby_scores_zero(self):
        t = make_track()
        far = GeoPoint(35.5, 129.0)
        dep = Deployment((UavPosition(far, 600.0),), SearchArea(far, 2.0))
        report = coverage(dep, t, 6, 12)
        assert report.coverage == 0.0
        assert not report.detected_any
        assert report.n_covered == 0

    def test_full_cover_closed_form(self):
        # A 600 m disc parked on a single 0.5 km step covers every segment;
        # score is K0 * (1 - (1 - pod)^n).
        t = make_track(drift=0.4, turn=0.05)
        mid = GeoPoint(*segment_trajectory(t, 6, 7, unit_m=1000.0)[0])
        dep = Deployment((UavPosition(mid, 600.0),), SearchArea(mid, 2.0))
        cfg = EvaluationConfig(unit_m=100.0)
        report = coverage(dep, t, 6, 7, cfg)
        n = report.n_segments
        pod = 1.0 - math.exp(-1.0)
        assert report.n_covered == n
        assert report.coverage == pytest.approx(100.0 * (1.0 - (1.0 - pod) ** n), rel=1e-9)

    def test_monte_carlo_agrees(self):
        t = make_track()
        anchor = t.position(9)
        dep = Deployment(
            (UavPosition(anchor, 600.0), UavPosition(t.position(10), 400.0)),
            SearchArea(anchor, 3.0),
        )
        cfg = EvaluationConfig(unit_m=25.0)
        report = coverage(dep, t, 6, 12, cfg)
        simulated = monte_carlo_chain(report.segment_pods, cfg.k0, trials=20000, seed=2)
        assert simulated == pytest.approx(report.coverage, abs=0.5)

    def test_trajectory_length_reported(self):
        t = make_track()
        dep = Deployment((UavPosition(t.position(9), 600.0),), SearchArea(t.position(9), 3.0))
        report = coverage(dep, t, 6, 12)
        expected = sum(dist_km(t.position(i), t.position(i + 1)) for i in range(6, 12))
        assert report.trajectory_length_km == pytest.approx(expected)

    def test_segment_pods_read_only_and_not_compared(self):
        t = make_track()
        dep = Deployment((UavPosition(t.position(9), 600.0),), SearchArea(t.position(9), 3.0))
        report = coverage(dep, t, 6, 12)
        assert report == coverage(dep, t, 6, 12) and report.n_covered > 0
        with pytest.raises(ValueError):
            report.segment_pods[0] = 1.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EvaluationConfig(unit_m=0.0)
        with pytest.raises(ValueError):
            EvaluationConfig(k0=0)

    def test_json_report(self):
        import json

        t = make_track()
        dep = Deployment((UavPosition(t.position(9), 600.0),), SearchArea(t.position(9), 3.0))
        doc = json.loads(coverage(dep, t, 6, 12).to_json())
        assert set(doc) == {"coverage", "trajectory_length_km", "n_segments", "n_covered"}


# Frozen copies of the first GeoPoint-based implementation, kept as oracles.


def seed_segment_trajectory(track, from_index, to_index, unit_m):
    anchor = track.position(from_index)
    lat = np.array([track.position(i).lat for i in range(from_index, to_index + 1)])
    lon = np.array([track.position(i).lon for i in range(from_index, to_index + 1)])
    east, north = latlon_to_local(lat, lon, anchor)
    pts = np.column_stack([east, north]) * 1000.0
    seg_len = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    total = cum[-1]
    if total <= 0:
        return [anchor]
    n_units = int(np.ceil(total / unit_m))
    starts = np.arange(n_units) * unit_m
    ends = np.minimum(starts + unit_m, total)
    mids = (starts + ends) / 2.0
    east_m = np.interp(mids, cum, pts[:, 0])
    north_m = np.interp(mids, cum, pts[:, 1])
    mid_lat, mid_lon = local_to_latlon(east_m / 1000.0, north_m / 1000.0, anchor)
    return [GeoPoint(float(la), float(lo)) for la, lo in zip(mid_lat, mid_lon)]


def seed_segment_pods(deployment, midpoints):
    mid_lat = np.array([p.lat for p in midpoints])
    mid_lon = np.array([p.lon for p in midpoints])
    uav_lat = np.array([u.position.lat for u in deployment.uavs])
    uav_lon = np.array([u.position.lon for u in deployment.uavs])
    radii_m = np.array([u.detection_radius_m for u in deployment.uavs])
    pods = 1.0 - np.exp(-radii_m / MAX_DETECTION_RADIUS_M)
    dist_m = haversine_km_arrays(uav_lat[:, None], uav_lon[:, None], mid_lat[None, :], mid_lon[None, :]) * 1000.0
    return np.where(dist_m < radii_m[:, None], pods[:, None], 0.0).max(axis=0)


def seed_survival_chain(pods, k0):
    survival = np.concatenate([[1.0], np.cumprod(1.0 - pods)[:-1]])
    return float(k0 * np.sum(pods * survival))


# (track, slice, deployment area center index): two ordinary tracks and two
# that cross the antimeridian from starts 0.005 degrees off lon +-180.
EQUIVALENCE_CASES = [
    (make_track(), (6, 12), 9),
    (make_track(seed=8, drift=0.8, turn=0.5), (3, 11), 7),
    (synthesize_track(seed=0, hours=8, start=GeoPoint(34.0, 179.995), drift_kmh=0.5, turn_sigma=0.3), (0, 7), 3),
    (synthesize_track(seed=4, hours=8, start=GeoPoint(-20.0, -179.995), drift_kmh=0.5, turn_sigma=0.3), (0, 7), 3),
]


class TestSeedEquivalence:
    @pytest.mark.parametrize("case", range(len(EQUIVALENCE_CASES)))
    @pytest.mark.parametrize("unit_m", [1.0, 25.0, 100.0])
    def test_segment_trajectory(self, case, unit_m):
        track, (lo, hi), _ = EQUIVALENCE_CASES[case]
        expected = np.array([(p.lat, p.lon) for p in seed_segment_trajectory(track, lo, hi, unit_m)])
        assert np.array_equal(segment_trajectory(track, lo, hi, unit_m), expected)

    def test_antimeridian_cases_cross(self):
        for track, (lo, hi), _ in EQUIVALENCE_CASES[2:]:
            lon = segment_trajectory(track, lo, hi, 25.0)[:, 1]
            assert lon.min() < -179.9 and lon.max() > 179.9

    @pytest.mark.parametrize("case", range(len(EQUIVALENCE_CASES)))
    @pytest.mark.parametrize("unit_m", [1.0, 25.0, 100.0])
    @pytest.mark.parametrize("n_uavs", [6, 8])
    def test_coverage(self, case, unit_m, n_uavs):
        track, (lo, hi), center_index = EQUIVALENCE_CASES[case]
        area = SearchArea(track.position(center_index), 1.5)
        dep = initialize(n_uavs, area, seed=case)
        pods = seed_segment_pods(dep, seed_segment_trajectory(track, lo, hi, unit_m))
        report = coverage(dep, track, lo, hi, EvaluationConfig(unit_m=unit_m))
        assert np.array_equal(report.segment_pods, pods)
        assert report.detected_any
        # The running product and the closed form differ only by rounding.
        assert report.coverage == pytest.approx(seed_survival_chain(pods, 100), rel=1e-12, abs=1e-12)
        literal = coverage(dep, track, lo, hi, EvaluationConfig(unit_m=unit_m, literal_chain=True))
        assert literal.coverage == literal_chain(pods, 100)


def dense_segment_pods(deployment, midpoints):
    """Every UAV against every (lat, lon) midpoint row: the kernel the pruned one replaces."""
    uav_lat, uav_lon = deployment.latlon()
    radii_m = np.array([u.detection_radius_m for u in deployment.uavs])
    pods = 1.0 - np.exp(-radii_m / MAX_DETECTION_RADIUS_M)
    dist_m = haversine_km_arrays(uav_lat[:, None], uav_lon[:, None], midpoints[:, 0], midpoints[:, 1]) * 1000.0
    return np.where(dist_m < radii_m[:, None], pods[:, None], 0.0).max(axis=0)


def track_through(points):
    """A track with one record an hour at the given positions; repeats make zero-length legs."""
    t0 = datetime(2024, 1, 1, tzinfo=timezone.utc)
    return DrifterTrack("T", tuple(DrifterRecord(t0 + timedelta(hours=i), p) for i, p in enumerate(points)))


class TestPrunedSegmentPods:
    @settings(max_examples=80, deadline=None)
    @given(
        lat=st.floats(-85.0, 85.0),
        lon=st.one_of(st.floats(179.99, 180.0), st.floats(-180.0, -179.99), st.floats(-180.0, 180.0)),
        track_seed=st.integers(0, 2**16),
        repeats=st.lists(st.integers(0, 5), max_size=3),
        stationary=st.sampled_from([False, False, False, True]),
        unit_m=st.sampled_from([1.0, 25.0, 100.0]),
        n_uavs=st.integers(1, 8),
        spread_km=st.sampled_from([0.3, 1.0, 3.0, 30.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(lat=80.0, lon=179.995, track_seed=0, repeats=[], stationary=False, unit_m=1.0, n_uavs=8,
             spread_km=0.3, seed=0)
    @example(lat=0.0, lon=-179.995, track_seed=4, repeats=[], stationary=False, unit_m=1.0, n_uavs=8,
             spread_km=3.0, seed=1)
    @example(lat=-85.0, lon=179.999, track_seed=5, repeats=[0, 3, 3], stationary=False, unit_m=25.0, n_uavs=8,
             spread_km=1.0, seed=2)
    @example(lat=85.0, lon=-180.0, track_seed=6, repeats=[], stationary=True, unit_m=100.0, n_uavs=4,
             spread_km=0.3, seed=3)
    @example(lat=40.0, lon=10.0, track_seed=7, repeats=[2], stationary=False, unit_m=1.0, n_uavs=6,
             spread_km=30.0, seed=4)
    def test_matches_dense_oracle(self, lat, lon, track_seed, repeats, stationary, unit_m, n_uavs, spread_km, seed):
        # UAVs are drawn around the middle of the slice in a 1 km search area,
        # so some sit outside it (and get the smallest disc); at a 30 km spread
        # most are far from every midpoint.
        base = synthesize_track(seed=track_seed, hours=6, start=GeoPoint(lat, lon), drift_kmh=0.5, turn_sigma=0.3)
        points = [base.position(i) for i in range(len(base))]
        for i in sorted(repeats, reverse=True):
            points.insert(i, points[i])
        if stationary:
            points = points[:1] * 3
        track, hi = track_through(points), len(points) - 1
        coords = np.random.default_rng(seed).normal(0.0, spread_km, size=(n_uavs, 2))
        dep = Deployment.from_coords(coords, SearchArea(points[len(points) // 2], 1.0))
        dense = dense_segment_pods(dep, segment_trajectory(track, 0, hi, unit_m))
        for chain in (survival_chain, literal_chain):
            config = EvaluationConfig(unit_m=unit_m, literal_chain=chain is literal_chain)
            report = coverage(dep, track, 0, hi, config)
            assert np.array_equal(report.segment_pods, dense)
            assert report.n_segments == len(dense) and report.n_covered == np.count_nonzero(dense)
            assert report.detected_any == dense.any()
            assert report.coverage == chain(dense, 100)

    @pytest.mark.parametrize("hi", [10, 11, 12])
    @pytest.mark.parametrize("unit_m", [1.0, 25.0, 100.0])
    def test_disc_at_slice_end(self, hi, unit_m):
        # The last segment is shorter, so its midpoint lies before (k + 1/2) units.
        track = make_track()
        end = track.position(hi)
        dep = Deployment((UavPosition(end, 200.0),), SearchArea(end, 2.0))
        report = coverage(dep, track, 6, hi, EvaluationConfig(unit_m=unit_m))
        assert report.segment_pods[-1] > 0
        assert np.array_equal(report.segment_pods, dense_segment_pods(dep, segment_trajectory(track, 6, hi, unit_m)))

    @pytest.mark.parametrize("points, uav", [
        # The slice starts east of +180 and the UAV sits on it west of -180.
        ([(10.0, 179.999), (10.0, -179.99), (10.01, -179.98)], (10.0, -179.995)),
        # Near the pole the longitude window is 31 degrees wide, so with a 170
        # degree slice the UAV is near it only one turn away.
        ([(89.99, 0.0), (89.99, 170.0)], (89.99, -175.0)),
    ])
    def test_uav_a_turn_away(self, points, uav):
        track = track_through([GeoPoint(*p) for p in points])
        dep = Deployment((UavPosition(GeoPoint(*uav), 600.0),), SearchArea(GeoPoint(*uav), 2.0))
        report = coverage(dep, track, 0, len(points) - 1)
        assert report.detected_any
        dense = dense_segment_pods(dep, segment_trajectory(track, 0, len(points) - 1, 1.0))
        assert np.array_equal(report.segment_pods, dense)
