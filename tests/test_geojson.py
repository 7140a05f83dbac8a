"""GeoJSON export structure and geometry sanity."""

import json

import pytest

from driftsearch.evaluate import EvaluationConfig, coverage
from driftsearch.forecast import Forecast
from driftsearch.geo import GeoPoint, haversine_km_arrays
from driftsearch.geojson import circle_ring, export_geojson
from driftsearch.ingest import AccidentSpec, synthesize_track
from driftsearch.optimize import OptimizerConfig, run
from driftsearch.scenario import build_scenario


@pytest.fixture(scope="module")
def plan():
    track = synthesize_track(seed=12, hours=14, start=GeoPoint(34.0, 127.0), drift_kmh=0.5, turn_sigma=0.3)
    spec = AccidentSpec(track.id, 6, 6)
    fc = Forecast(track.position(9), 0.7)
    scen = build_scenario(track, spec, fc, k=6, seed=1)
    result = run(scen, OptimizerConfig("ga", n_uavs=4, budget_evals=150, seed=0))
    report = coverage(result.best, track, 6, 12, EvaluationConfig(unit_m=5.0))
    return track, scen, result.best, report


class TestCircleRing:
    def test_closed_ring(self):
        ring = circle_ring(GeoPoint(34.0, 127.0), 2.0, n=32)
        assert len(ring) == 33
        assert ring[0] == ring[-1]

    def test_points_on_radius(self):
        center = GeoPoint(34.0, 127.0)
        for lon, lat in circle_ring(center, 2.0, n=16)[:-1]:
            assert haversine_km_arrays(lat, lon, center.lat, center.lon) == pytest.approx(2.0, abs=0.002)


class TestExportGeojson:
    def roles(self, doc):
        return [f["properties"].get("role") for f in doc["features"]]

    def test_written_file_parses(self, plan, tmp_path):
        track, scen, dep, report = plan
        path = tmp_path / "plan.geojson"
        export_geojson(scen, dep, path, track=track, track_slice=(6, 12), report=report)
        doc = json.loads(path.read_text())
        assert doc["type"] == "FeatureCollection"

    def test_scenario_features_present(self, plan, tmp_path):
        track, scen, dep, report = plan
        doc = export_geojson(scen, dep, tmp_path / "p.geojson")
        roles = self.roles(doc)
        assert roles.count("accident") == 1
        assert roles.count("center") == 1
        assert roles.count("search-area") == 1
        assert roles.count("particle") == len(scen.particles)
        assert roles.count("candidate-line") == len(scen.lines)

    def test_deployment_features(self, plan, tmp_path):
        track, scen, dep, report = plan
        doc = export_geojson(scen, dep, tmp_path / "p.geojson")
        roles = self.roles(doc)
        assert roles.count("uav") == len(dep)
        assert roles.count("uav-disc") == len(dep)
        disc = next(f for f in doc["features"] if f["properties"].get("role") == "uav-disc")
        assert 0.28 < disc["properties"]["pod"] < 0.64

    def test_trajectory_and_covered_segments(self, plan, tmp_path):
        track, scen, dep, report = plan
        doc = export_geojson(scen, dep, tmp_path / "p.geojson", track=track, track_slice=(6, 12), report=report)
        roles = self.roles(doc)
        assert roles.count("trajectory") == 1
        # The covered midpoints are rebuilt at the report's own 5 m unit.
        assert report.unit_m == 5.0 and report.n_covered
        covered = [f for f in doc["features"] if f["properties"]["role"] == "covered-segments"]
        assert len(covered) == 1
        assert len(covered[0]["geometry"]["coordinates"]) == report.n_covered

    def test_report_of_another_slice_raises(self, plan, tmp_path):
        track, scen, dep, report = plan
        with pytest.raises(ValueError, match="segments"):
            export_geojson(scen, dep, tmp_path / "p.geojson", track=track, track_slice=(6, 11), report=report)

    def test_without_deployment(self, plan, tmp_path):
        track, scen, dep, report = plan
        doc = export_geojson(scen, None, tmp_path / "p.geojson")
        assert "uav" not in self.roles(doc)
