"""Search-area sizing, Gaussian particle sampling, candidate lines."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from driftsearch.forecast import Forecast
from driftsearch.geo import GeoPoint, haversine_km_arrays, latlon_to_local
from driftsearch.ingest import AccidentSpec, synthesize_track
from driftsearch.scenario import (
    RADIUS_FLOOR_KM,
    Scenario,
    build_scenario,
    build_search_area,
    sample_particles,
)

PRED = GeoPoint(34.0, 127.0)


class TestBuildSearchArea:
    def test_radius_is_multiplier_times_error(self):
        area = build_search_area(Forecast(PRED, 0.9))
        assert area.center == PRED
        assert area.radius_km == pytest.approx(3.6)

    def test_floor_applies_for_tiny_error(self):
        area = build_search_area(Forecast(PRED, 0.01))
        assert area.radius_km == RADIUS_FLOOR_KM


class TestSampleParticles:
    def test_deterministic(self):
        fc = Forecast(PRED, 0.8)
        a = sample_particles(fc, 10, seed=42)
        b = sample_particles(fc, 10, seed=42)
        assert a == b

    def test_seed_changes_draw(self):
        fc = Forecast(PRED, 0.8)
        a = sample_particles(fc, 10, seed=42)
        b = sample_particles(fc, 10, seed=43)
        assert a != b

    def test_count(self):
        assert len(sample_particles(Forecast(PRED, 0.5), 15, seed=0)) == 15

    def test_spread_matches_sigma(self):
        # Large-sample standard deviation of the offsets should approach
        # sigma = SIGMA_MULTIPLIER * prev_step_error.
        fc = Forecast(PRED, 0.75)
        particles = sample_particles(fc, 4000, seed=1)
        offsets = np.column_stack(
            latlon_to_local([p.lat for p in particles], [p.lon for p in particles], PRED)
        )
        sigma = 4.0 * 0.75
        assert abs(offsets.mean()) < 0.1
        assert offsets.std() == pytest.approx(sigma, rel=0.05)

    def test_zero_error_collapses_to_prediction(self):
        particles = sample_particles(Forecast(PRED, 0.0), 5, seed=0)
        for p in particles:
            assert haversine_km_arrays(p.lat, p.lon, PRED.lat, PRED.lon) == pytest.approx(0.0, abs=1e-9)

    def test_k_positive(self):
        with pytest.raises(ValueError):
            sample_particles(Forecast(PRED, 0.5), 0)


class TestBuildScenario:
    def make(self, k=10, seed=3):
        track = synthesize_track(seed=8, hours=14, start=GeoPoint(34.0, 127.0), drift_kmh=0.5, turn_sigma=0.3)
        spec = AccidentSpec(track.id, 6, 6)
        fc = Forecast(track.position(9), 0.6)
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
            assert line.end == particle
            assert line.length_km == pytest.approx(haversine_km_arrays(accident.lat, accident.lon, particle.lat, particle.lon))

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
            assert a.lat == pytest.approx(b.lat)
            assert a.lon == pytest.approx(b.lon)

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


VALID_DOC = {
    "accident": {"lat": 34.0, "lon": 127.0},
    "center": {"lat": 34.02, "lon": 127.03},
    "radius_km": 2.4,
    "sigma_km": 2.4,
    "particles": [{"lat": 34.03, "lon": 127.01}, {"lat": 34.01, "lon": 127.05}],
}


# Explicit alphabets keep the strategies from building Hypothesis's unicode table.
KEY_TEXT = st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12)
NUMERIC_TEXT = st.text("0123456789.e-", max_size=8)  # "1.5" is still a string


@st.composite
def malformed_docs(draw):
    """A scenario document with one fault, and the names its error must give."""
    doc = json.loads(json.dumps(VALID_DOC))
    points = [(doc["accident"], "accident"), (doc["center"], "center")]
    points += [(p, f"particles[{i}]") for i, p in enumerate(doc["particles"])]
    numbers = [(doc, "radius_km", "radius_km"), (doc, "sigma_km", "sigma_km")]
    numbers += [(p, key, f"{name}.{key}") for p, name in points for key in ("lat", "lon")]
    fault = draw(st.sampled_from(["missing", "extra", "non-numeric", "non-finite", "negative sigma", "no particles"]))
    if fault in ("missing", "extra"):
        obj, name = draw(st.sampled_from([(doc, "scenario"), *points]))
        if fault == "missing":
            key = draw(st.sampled_from(sorted(obj)))
            del obj[key]
            return doc, [name, repr(key)]
        key = draw(KEY_TEXT.filter(lambda k: k not in obj))
        obj[key] = draw(st.one_of(st.none(), st.integers(), st.floats(), NUMERIC_TEXT))
        return doc, [name, repr(key)]
    if fault in ("non-numeric", "non-finite"):
        obj, key, name = draw(st.sampled_from(numbers))
        if fault == "non-numeric":
            obj[key] = draw(st.one_of(
                st.none(), st.booleans(), NUMERIC_TEXT, st.lists(st.integers(), max_size=2),
                st.dictionaries(KEY_TEXT, st.integers(), max_size=2),
            ))
        else:
            obj[key] = draw(st.sampled_from([float("nan"), float("inf"), float("-inf")]))
        return doc, [name]
    if fault == "negative sigma":
        doc["sigma_km"] = draw(st.floats(max_value=0.0, exclude_max=True, allow_infinity=False))
        return doc, ["sigma_km"]
    doc["particles"] = []
    return doc, ["particles"]


class TestScenarioFromJson:
    def test_valid_document_parses(self):
        scen = Scenario.from_json(json.dumps(VALID_DOC))
        assert scen.area.radius_km == 2.4
        assert len(scen.lines) == 2

    @given(malformed_docs())
    def test_malformed_document_raises_value_error_naming_the_field(self, case):
        doc, names = case
        with pytest.raises(ValueError) as exc:
            Scenario.from_json(json.dumps(doc))  # NaN and inf as Python's json writes them
        for name in names:
            assert name in str(exc.value)
