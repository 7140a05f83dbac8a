"""Search-area sizing, Gaussian particle sampling, candidate lines."""

import json

import numpy as np
import pytest

from driftsearch.forecast import Forecast
from driftsearch.geo import GeoPoint, haversine_km_arrays, latlon_to_local
from driftsearch.ingest import AccidentSpec, synthesize_track
from driftsearch.scenario import (
    DEFAULT_RADIUS_FLOOR_KM,
    Scenario,
    build_scenario,
    build_search_area,
    sample_particles,
)

PRED = GeoPoint(34.0, 127.0)


class TestBuildSearchArea:
    def test_radius_is_multiplier_times_error(self):
        area = build_search_area(Forecast(PRED, 0.9, 7))
        assert area.center == PRED
        assert area.radius_km == pytest.approx(3.6)

    def test_floor_applies_for_tiny_error(self):
        area = build_search_area(Forecast(PRED, 0.01, 7))
        assert area.radius_km == DEFAULT_RADIUS_FLOOR_KM

    def test_custom_multiplier(self):
        area = build_search_area(Forecast(PRED, 1.0, 7), radius_multiplier=2.5)
        assert area.radius_km == pytest.approx(2.5)


class TestSampleParticles:
    def test_deterministic(self):
        fc = Forecast(PRED, 0.8, 7)
        a = sample_particles(fc, 10, seed=42)
        b = sample_particles(fc, 10, seed=42)
        assert [p.position for p in a] == [p.position for p in b]

    def test_seed_changes_draw(self):
        fc = Forecast(PRED, 0.8, 7)
        a = sample_particles(fc, 10, seed=42)
        b = sample_particles(fc, 10, seed=43)
        assert [p.position for p in a] != [p.position for p in b]

    def test_count(self):
        assert len(sample_particles(Forecast(PRED, 0.5, 7), 15, seed=0)) == 15

    def test_spread_matches_sigma(self):
        # Large-sample standard deviation of the offsets should approach
        # sigma = sigma_multiplier * prev_step_error.
        fc = Forecast(PRED, 0.75, 7)
        particles = sample_particles(fc, 4000, seed=1)
        offsets = np.column_stack(
            latlon_to_local([p.position.lat for p in particles], [p.position.lon for p in particles], PRED)
        )
        sigma = 4.0 * 0.75
        assert abs(offsets.mean()) < 0.1
        assert offsets.std() == pytest.approx(sigma, rel=0.05)

    def test_zero_error_collapses_to_prediction(self):
        particles = sample_particles(Forecast(PRED, 0.0, 7), 5, seed=0)
        for p in particles:
            assert haversine_km_arrays(p.position.lat, p.position.lon, PRED.lat, PRED.lon) == pytest.approx(0.0, abs=1e-9)

    def test_k_positive(self):
        with pytest.raises(ValueError):
            sample_particles(Forecast(PRED, 0.5, 7), 0)


class TestBuildScenario:
    def make(self, k=10, seed=3):
        track = synthesize_track(seed=8, hours=14, start=GeoPoint(34.0, 127.0), drift_kmh=0.5, turn_sigma=0.3)
        spec = AccidentSpec(track.id, 6, 6)
        fc = Forecast(track.position(9), 0.6, 7)
        return track, spec, build_scenario(track, spec, fc, k=k, seed=seed)

    def test_one_line_per_particle(self):
        _, _, scen = self.make(k=12)
        assert len(scen.particles) == 12
        assert len(scen.lines) == 12

    def test_lines_run_accident_to_particle(self):
        track, spec, scen = self.make()
        accident = track.position(spec.accident_index)
        for line, particle in zip(scen.lines, scen.particles):
            assert line.start == accident
            assert line.end == particle.position
            end = particle.position
            assert line.length_km == pytest.approx(haversine_km_arrays(accident.lat, accident.lon, end.lat, end.lon))

    def test_sigma_recorded(self):
        _, _, scen = self.make()
        assert scen.sigma_km == pytest.approx(4.0 * 0.6)

    def test_json_round_trip(self):
        _, _, scen = self.make()
        restored = Scenario.from_json(scen.to_json())
        assert restored.area.radius_km == pytest.approx(scen.area.radius_km)
        assert restored.sigma_km == pytest.approx(scen.sigma_km)
        assert len(restored.lines) == len(scen.lines)
        for a, b in zip(restored.particles, scen.particles):
            assert a.position.lat == pytest.approx(b.position.lat)
            assert a.position.lon == pytest.approx(b.position.lon)

    def test_empty_particles_rejected(self):
        _, _, scen = self.make()
        doc = json.loads(scen.to_json())
        doc["particles"] = []
        with pytest.raises(ValueError, match="at least one particle"):
            Scenario.from_json(json.dumps(doc))

    def test_mismatched_lines_rejected(self):
        _, _, scen = self.make()
        with pytest.raises(ValueError):
            Scenario(scen.accident, scen.area, scen.particles, scen.lines[:-1], scen.sigma_km)
