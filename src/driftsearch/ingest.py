"""Drifter track loading, accident scenario definitions, synthetic tracks.

CSV schema: header ``id,timestamp,lat,lon,wind_u,wind_v,current_u,current_v``.
Wind/current columns may be blank. Timestamps are ISO-8601 and must be
strictly increasing within each track; an hourly cadence is expected but gaps
only produce a warning (real buoy data has them).
"""

from __future__ import annotations

import csv
import logging
import math
import random
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from typing import Optional

from .geo import METERS_PER_DEGREE, GeoPoint

log = logging.getLogger(__name__)

CSV_FIELDS = ["id", "timestamp", "lat", "lon", "wind_u", "wind_v", "current_u", "current_v"]


class ParseError(ValueError):
    """A CSV row that cannot be turned into a valid record."""

    def __init__(self, row: int, column: str, reason: str):
        self.row = row
        self.column = column
        self.reason = reason
        super().__init__(f"row {row}, column {column!r}: {reason}")


class EmptyTrack(ValueError):
    """A track with fewer than two records."""


@dataclass(frozen=True)
class DrifterRecord:
    timestamp: datetime
    position: GeoPoint
    wind_u: Optional[float] = None
    wind_v: Optional[float] = None
    current_u: Optional[float] = None
    current_v: Optional[float] = None


@dataclass(frozen=True)
class DrifterTrack:
    id: str
    records: tuple[DrifterRecord, ...]

    def __post_init__(self) -> None:
        if len(self.records) < 2:
            raise EmptyTrack(f"track {self.id!r} has {len(self.records)} record(s), need >= 2")

    def __len__(self) -> int:
        return len(self.records)

    def position(self, index: int) -> GeoPoint:
        return self.records[index].position


@dataclass(frozen=True)
class AccidentSpec:
    """Where in a track the accident happens and how far ahead we plan."""

    track_id: str
    accident_index: int
    horizon_hours: int

    def __post_init__(self) -> None:
        if self.accident_index < 0:
            raise ValueError("accident_index must be non-negative")
        if self.horizon_hours < 1:
            raise ValueError("horizon_hours must be positive")

    def validate_against(self, track: DrifterTrack) -> None:
        """Ground truth must exist through the full horizon."""
        if self.accident_index + self.horizon_hours >= len(track):
            raise ValueError(
                f"accident at {self.accident_index} + horizon {self.horizon_hours} "
                f"exceeds track {track.id!r} of length {len(track)}"
            )


def _parse_float(value: str, row: int, column: str) -> Optional[float]:
    if value is None or value.strip() == "":
        return None
    try:
        out = float(value)
    except ValueError:
        raise ParseError(row, column, f"not a number: {value!r}") from None
    if not math.isfinite(out):
        raise ParseError(row, column, f"non-finite value: {value!r}")
    return out


def load_tracks(path) -> list[DrifterTrack]:
    """Load drifter tracks from a CSV file, grouping rows by id.

    Rows of different ids may be interleaved; within each track, timestamps
    must be strictly increasing in file order.
    """
    by_id: dict[str, list[DrifterRecord]] = {}
    order: list[str] = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "lat" not in reader.fieldnames:
            raise ParseError(1, "header", f"expected columns {CSV_FIELDS}")
        for rownum, row in enumerate(reader, start=2):
            track_id = (row.get("id") or "").strip()
            if not track_id:
                raise ParseError(rownum, "id", "missing track id")
            ts_raw = (row.get("timestamp") or "").strip()
            try:
                ts = datetime.fromisoformat(ts_raw)
            except ValueError:
                raise ParseError(rownum, "timestamp", f"bad ISO-8601 timestamp: {ts_raw!r}") from None
            lat = _parse_float(row.get("lat", ""), rownum, "lat")
            lon = _parse_float(row.get("lon", ""), rownum, "lon")
            if lat is None or lon is None:
                raise ParseError(rownum, "lat" if lat is None else "lon", "missing coordinate")
            try:
                pos = GeoPoint(lat, lon)
            except ValueError as exc:
                raise ParseError(rownum, "lat", str(exc)) from None
            rec = DrifterRecord(
                timestamp=ts,
                position=pos,
                wind_u=_parse_float(row.get("wind_u", ""), rownum, "wind_u"),
                wind_v=_parse_float(row.get("wind_v", ""), rownum, "wind_v"),
                current_u=_parse_float(row.get("current_u", ""), rownum, "current_u"),
                current_v=_parse_float(row.get("current_v", ""), rownum, "current_v"),
            )
            bucket = by_id.setdefault(track_id, [])
            if track_id not in order:
                order.append(track_id)
            if bucket and rec.timestamp <= bucket[-1].timestamp:
                raise ParseError(rownum, "timestamp", f"timestamps not strictly increasing in track {track_id!r}")
            if bucket and rec.timestamp - bucket[-1].timestamp != timedelta(hours=1):
                log.warning("track %s: non-hourly gap at row %d", track_id, rownum)
            bucket.append(rec)
    return [DrifterTrack(tid, tuple(by_id[tid])) for tid in order]


def save_tracks(tracks: list[DrifterTrack], path) -> None:
    """Write tracks back to the CSV schema read by :func:`load_tracks`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_FIELDS)
        for track in tracks:
            for rec in track.records:
                writer.writerow(
                    [
                        track.id,
                        rec.timestamp.isoformat(),
                        repr(rec.position.lat),
                        repr(rec.position.lon),
                        "" if rec.wind_u is None else repr(rec.wind_u),
                        "" if rec.wind_v is None else repr(rec.wind_v),
                        "" if rec.current_u is None else repr(rec.current_u),
                        "" if rec.current_v is None else repr(rec.current_v),
                    ]
                )


_SYNTH_EPOCH = datetime(2024, 1, 1, tzinfo=timezone.utc)


def synthesize_track(
    seed: int,
    hours: int,
    start: GeoPoint,
    drift_kmh: float,
    turn_sigma: float,
    track_id: Optional[str] = None,
) -> DrifterTrack:
    """Generate a correlated-random-walk drifter track with hourly records.

    The heading starts uniform at random and receives a Gaussian turn of
    standard deviation `turn_sigma` radians each hour; step length is exactly
    `drift_kmh` km. Deterministic for a fixed argument tuple.
    """
    if hours < 2:
        raise ValueError("need at least 2 hours of track")
    rng = random.Random(seed)
    heading = rng.uniform(0.0, 2.0 * math.pi)
    pos = start
    records = [DrifterRecord(timestamp=_SYNTH_EPOCH, position=pos)]
    for h in range(1, hours):
        heading += rng.gauss(0.0, turn_sigma)
        step_m = drift_kmh * 1000.0
        # In meters: local_to_latlon's km form rounds differently and would move every track.
        lat = pos.lat + step_m * math.sin(heading) / METERS_PER_DEGREE
        lon = pos.lon + step_m * math.cos(heading) / (METERS_PER_DEGREE * math.cos(math.radians(pos.lat)))
        pos = GeoPoint(lat, lon)
        records.append(DrifterRecord(timestamp=_SYNTH_EPOCH + timedelta(hours=h), position=pos))
    return DrifterTrack(track_id or f"synthetic-{seed}", tuple(records))
