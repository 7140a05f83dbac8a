"""Recursive prediction, error measurement, and predictor benchmarking."""

import math
import tempfile
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from driftsearch.geo import GeoPoint, haversine_km_arrays
from driftsearch.ingest import AccidentSpec, DrifterRecord, DrifterTrack, synthesize_track, _SYNTH_EPOCH
from driftsearch.forecast import (
    InsufficientHistory,
    PredictorSpec,
    _linear_next,
    benchmark_predictors,
    forecast_scenario,
    load_external_forecast,
    predict_recursive,
)


def linear_track(n: int = 14, dlat: float = 0.005, dlon: float = 0.008) -> DrifterTrack:
    """A perfectly linear lat/lon track; linear extrapolation is exact on it."""
    records = tuple(
        DrifterRecord(timestamp=_SYNTH_EPOCH + timedelta(hours=i), position=GeoPoint(34.0 + i * dlat, 127.0 + i * dlon))
        for i in range(n)
    )
    return DrifterTrack("linear", records)


class TestPredictorSpec:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            PredictorSpec("oracle")

    def test_external_needs_path(self):
        with pytest.raises(ValueError):
            PredictorSpec("external-file")


class TestPersistence:
    def test_repeats_last_observation(self):
        t = linear_track()
        preds = predict_recursive(t, 5, 4, PredictorSpec("persistence"))
        assert all(p == t.position(5) for p in preds)
        assert len(preds) == 4


class TestLinearExtrapolation:
    def test_exact_on_linear_track(self):
        t = linear_track()
        preds = predict_recursive(t, 6, 6, PredictorSpec("linear-extrapolation"))
        for k, p in enumerate(preds, start=1):
            assert p.lat == pytest.approx(t.position(6 + k).lat, abs=1e-9)
            assert p.lon == pytest.approx(t.position(6 + k).lon, abs=1e-9)

    def test_needs_two_observations(self):
        t = linear_track()
        with pytest.raises(InsufficientHistory):
            predict_recursive(t, 0, 3, PredictorSpec("linear-extrapolation"))

    def test_no_lookahead(self):
        """Truth after the accident index must not influence the prediction."""
        t = synthesize_track(seed=9, hours=14, start=GeoPoint(34.0, 127.0), drift_kmh=0.5, turn_sigma=0.4)
        preds_a = predict_recursive(t, 6, 6, PredictorSpec("linear-extrapolation"))
        mutated = DrifterTrack(
            t.id,
            t.records[:7]
            + tuple(
                DrifterRecord(timestamp=r.timestamp, position=GeoPoint(r.position.lat + 1.0, r.position.lon))
                for r in t.records[7:]
            ),
        )
        preds_b = predict_recursive(mutated, 6, 6, PredictorSpec("linear-extrapolation"))
        for a, b in zip(preds_a, preds_b):
            assert a == b


class TestExternalFile:
    def test_load_and_predict(self, tmp_path):
        path = tmp_path / "fc.csv"
        path.write_text("step,lat,lon\n1,34.1,127.1\n2,34.2,127.2\n3,34.3,127.3\n")
        points = load_external_forecast(path)
        assert len(points) == 3
        t = linear_track()
        preds = predict_recursive(t, 6, 2, PredictorSpec("external-file", {"path": str(path)}))
        assert preds == points[:2]

    def test_step_gap_rejected(self, tmp_path):
        path = tmp_path / "fc.csv"
        path.write_text("step,lat,lon\n1,34.1,127.1\n3,34.3,127.3\n")
        with pytest.raises(ValueError):
            load_external_forecast(path)

    def test_duplicate_step_rejected(self, tmp_path):
        path = tmp_path / "fc.csv"
        path.write_text("step,lat,lon\n1,34.1,127.1\n2,34.2,127.2\n2,34.25,127.25\n")
        with pytest.raises(ValueError, match="duplicate forecast step 2"):
            load_external_forecast(path)

    def test_too_few_steps(self, tmp_path):
        path = tmp_path / "fc.csv"
        path.write_text("step,lat,lon\n1,34.1,127.1\n")
        t = linear_track()
        with pytest.raises(InsufficientHistory):
            predict_recursive(t, 6, 5, PredictorSpec("external-file", {"path": str(path)}))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "fc.csv"
        path.write_text("step,lat,lon\n")
        with pytest.raises(ValueError):
            load_external_forecast(path)

    # tmp_path is shared by every example, so each writes a new file; truncating
    # one file in place costs tens of ms per example on some file systems.
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.one_of(
            st.integers(1, 8).flatmap(lambda h: st.permutations(range(1, h + 1))),
            st.lists(st.integers(0, 9), max_size=10),
        )
    )
    def test_steps_one_to_h_each_once_or_value_error(self, tmp_path, steps):
        with tempfile.NamedTemporaryFile("w", dir=tmp_path, suffix=".csv", delete=False) as fh:
            fh.write("step,lat,lon\n" + "".join(f"{s},{10.0 + row},{100.0 + s}\n" for row, s in enumerate(steps)))
        path = fh.name
        if steps and sorted(steps) == list(range(1, len(steps) + 1)):
            expected = [GeoPoint(10.0 + steps.index(s), 100.0 + s) for s in range(1, len(steps) + 1)]
            assert load_external_forecast(path) == expected
        else:
            with pytest.raises(ValueError):
                load_external_forecast(path)


class TestForecastScenario:
    def test_error_is_prev_step_distance(self):
        t = synthesize_track(seed=4, hours=14, start=GeoPoint(34.0, 127.0), drift_kmh=0.6, turn_sigma=0.3)
        spec = AccidentSpec(t.id, 6, 6)
        predictor = PredictorSpec("persistence")
        fc = forecast_scenario(t, spec, predictor)
        preds = predict_recursive(t, 6, 6, predictor)
        assert fc.predicted == preds[5]
        truth = t.position(6 + 5)
        expected = haversine_km_arrays(preds[4].lat, preds[4].lon, truth.lat, truth.lon)
        assert fc.prev_step_error_km == pytest.approx(expected)

    def test_one_step_horizon_error_zero(self):
        t = linear_track()
        fc = forecast_scenario(t, AccidentSpec(t.id, 6, 1), PredictorSpec("persistence"))
        assert fc.prev_step_error_km == 0.0

    def test_horizon_past_track_end_rejected(self):
        t = linear_track(10)
        with pytest.raises(ValueError):
            forecast_scenario(t, AccidentSpec(t.id, 6, 6), PredictorSpec("persistence"))


class TestBenchmark:
    def test_linear_beats_persistence_on_linear_tracks(self):
        tracks = [linear_track(), linear_track(dlat=-0.004, dlon=0.006)]
        results = benchmark_predictors(
            tracks, [PredictorSpec("persistence"), PredictorSpec("linear-extrapolation")], horizon=6
        )
        by_kind = {spec.kind: err for spec, err in results}
        assert by_kind["linear-extrapolation"] < by_kind["persistence"]
        assert by_kind["linear-extrapolation"] == pytest.approx(0.0, abs=1e-6)
        assert by_kind["persistence"] > 1.0

    def test_external_oracle_error_zero(self, tmp_path):
        t = linear_track()
        idx = len(t) - 1 - 6
        lines = ["step,lat,lon"]
        for k in range(1, 7):
            p = t.position(idx + k)
            lines.append(f"{k},{p.lat!r},{p.lon!r}")
        path = tmp_path / "oracle.csv"
        path.write_text("\n".join(lines) + "\n")
        results = benchmark_predictors(
            [t], [PredictorSpec("external-file", {"path": str(path)})], horizon=6
        )
        assert results[0][1] == pytest.approx(0.0, abs=1e-9)

    def test_needs_tracks(self):
        with pytest.raises(ValueError):
            benchmark_predictors([], [PredictorSpec("persistence")])


class TestLinearNext:
    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.lists(st.floats(-180.0, 180.0), min_size=2, max_size=40),
            st.builds(
                lambda start, step, noise: (start + step * np.arange(len(noise)) + np.asarray(noise)).tolist(),
                st.floats(-90.0, 90.0),
                st.floats(-0.1, 0.1),
                st.lists(st.floats(-1e-4, 1e-4), min_size=2, max_size=40),
            ),
        )
    )
    def test_matches_polyfit(self, series):
        n = len(series)
        slope, intercept = np.polyfit(np.arange(n, dtype=float), np.asarray(series), 1)
        assert _linear_next(series) == float(slope * n + intercept)
