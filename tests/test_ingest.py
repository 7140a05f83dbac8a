"""Track CSV parsing, round-trip, and synthetic track generation."""

from datetime import timedelta

import numpy as np
import pytest

from driftsearch.geo import GeoPoint, haversine_km_arrays
from driftsearch.ingest import (
    AccidentSpec,
    DrifterRecord,
    DrifterTrack,
    EmptyTrack,
    ParseError,
    load_tracks,
    save_tracks,
    synthesize_track,
)

HEADER = "id,timestamp,lat,lon,wind_u,wind_v,current_u,current_v\n"


def write_csv(tmp_path, body: str):
    path = tmp_path / "tracks.csv"
    path.write_text(HEADER + body)
    return path


class TestLoadTracks:
    def test_basic(self, tmp_path):
        path = write_csv(
            tmp_path,
            "a,2024-01-01T00:00:00+00:00,34.0,127.0,1.5,-0.5,,\n"
            "a,2024-01-01T01:00:00+00:00,34.01,127.02,,,0.1,0.2\n",
        )
        tracks = load_tracks(path)
        assert len(tracks) == 1
        t = tracks[0]
        assert t.id == "a" and len(t) == 2
        assert t.records[0].wind_u == 1.5
        assert t.records[0].current_u is None
        assert t.records[1].current_v == 0.2
        assert t.position(1) == GeoPoint(34.01, 127.02)

    def test_interleaved_ids(self, tmp_path):
        path = write_csv(
            tmp_path,
            "a,2024-01-01T00:00:00,34.0,127.0,,,,\n"
            "b,2024-01-01T00:00:00,35.0,128.0,,,,\n"
            "a,2024-01-01T01:00:00,34.1,127.1,,,,\n"
            "b,2024-01-01T01:00:00,35.1,128.1,,,,\n",
        )
        tracks = load_tracks(path)
        assert [t.id for t in tracks] == ["a", "b"]
        assert all(len(t) == 2 for t in tracks)

    def test_bad_timestamp(self, tmp_path):
        path = write_csv(tmp_path, "a,yesterday,34.0,127.0,,,,\n")
        with pytest.raises(ParseError) as exc:
            load_tracks(path)
        assert exc.value.row == 2 and exc.value.column == "timestamp"

    def test_missing_id(self, tmp_path):
        path = write_csv(tmp_path, ",2024-01-01T00:00:00,34.0,127.0,,,,\n")
        with pytest.raises(ParseError) as exc:
            load_tracks(path)
        assert exc.value.column == "id"

    def test_bad_float(self, tmp_path):
        path = write_csv(tmp_path, "a,2024-01-01T00:00:00,34.0,127.0,breeze,,,\n")
        with pytest.raises(ParseError) as exc:
            load_tracks(path)
        assert exc.value.column == "wind_u"

    def test_missing_coordinate(self, tmp_path):
        path = write_csv(tmp_path, "a,2024-01-01T00:00:00,,127.0,,,,\n")
        with pytest.raises(ParseError) as exc:
            load_tracks(path)
        assert exc.value.column == "lat"

    def test_non_monotonic_timestamps(self, tmp_path):
        path = write_csv(
            tmp_path,
            "a,2024-01-01T01:00:00,34.0,127.0,,,,\n"
            "a,2024-01-01T00:00:00,34.1,127.1,,,,\n",
        )
        with pytest.raises(ParseError) as exc:
            load_tracks(path)
        assert exc.value.row == 3

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("foo,bar\n1,2\n")
        with pytest.raises(ParseError):
            load_tracks(path)

    def test_single_record_track_rejected(self, tmp_path):
        path = write_csv(tmp_path, "a,2024-01-01T00:00:00,34.0,127.0,,,,\n")
        with pytest.raises(EmptyTrack):
            load_tracks(path)

    def test_hourly_gap_warns_but_loads(self, tmp_path, caplog):
        path = write_csv(
            tmp_path,
            "a,2024-01-01T00:00:00,34.0,127.0,,,,\n"
            "a,2024-01-01T03:00:00,34.1,127.1,,,,\n",
        )
        with caplog.at_level("WARNING"):
            tracks = load_tracks(path)
        assert len(tracks[0]) == 2
        assert any("non-hourly" in r.message for r in caplog.records)


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path):
        original = synthesize_track(seed=7, hours=10, start=GeoPoint(34.0, 127.0), drift_kmh=0.4, turn_sigma=0.3)
        path = tmp_path / "out.csv"
        save_tracks([original], path)
        loaded = load_tracks(path)[0]
        assert loaded.id == original.id
        assert len(loaded) == len(original)
        for a, b in zip(loaded.records, original.records):
            assert a.timestamp == b.timestamp
            assert a.position.lat == b.position.lat
            assert a.position.lon == b.position.lon


class TestSynthesizeTrack:
    def test_deterministic(self):
        a = synthesize_track(seed=5, hours=8, start=GeoPoint(34.0, 127.0), drift_kmh=0.5, turn_sigma=0.2)
        b = synthesize_track(seed=5, hours=8, start=GeoPoint(34.0, 127.0), drift_kmh=0.5, turn_sigma=0.2)
        assert a == b

    def test_different_seeds_differ(self):
        a = synthesize_track(seed=5, hours=8, start=GeoPoint(34.0, 127.0), drift_kmh=0.5, turn_sigma=0.2)
        b = synthesize_track(seed=6, hours=8, start=GeoPoint(34.0, 127.0), drift_kmh=0.5, turn_sigma=0.2)
        assert a.position(7) != b.position(7)

    def test_step_length_exact(self):
        t = synthesize_track(seed=1, hours=12, start=GeoPoint(34.0, 127.0), drift_kmh=0.65, turn_sigma=0.4)
        lat = np.array([t.position(i).lat for i in range(12)])
        lon = np.array([t.position(i).lon for i in range(12)])
        steps = haversine_km_arrays(lat[:-1], lon[:-1], lat[1:], lon[1:])
        assert steps == pytest.approx(np.full(11, 0.65), rel=1e-4)

    def test_hourly_timestamps(self):
        t = synthesize_track(seed=1, hours=5, start=GeoPoint(34.0, 127.0), drift_kmh=0.5, turn_sigma=0.1)
        for i in range(4):
            assert t.records[i + 1].timestamp - t.records[i].timestamp == timedelta(hours=1)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            synthesize_track(seed=1, hours=1, start=GeoPoint(34.0, 127.0), drift_kmh=0.5, turn_sigma=0.1)


class TestAccidentSpec:
    def test_validate_ok(self):
        t = synthesize_track(seed=1, hours=13, start=GeoPoint(34.0, 127.0), drift_kmh=0.5, turn_sigma=0.1)
        AccidentSpec("x", 6, 6).validate_against(t)

    def test_horizon_exceeds_track(self):
        t = synthesize_track(seed=1, hours=12, start=GeoPoint(34.0, 127.0), drift_kmh=0.5, turn_sigma=0.1)
        with pytest.raises(ValueError):
            AccidentSpec("x", 6, 6).validate_against(t)

    def test_invalid_fields(self):
        with pytest.raises(ValueError):
            AccidentSpec("x", -1, 6)
        with pytest.raises(ValueError):
            AccidentSpec("x", 0, 0)
