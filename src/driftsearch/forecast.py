"""Recursive drifter position forecasting and the prediction-error seam.

Latitude and longitude are treated as two independent series. Multi-step
predictions are produced one step at a time with an expanding window: each
prediction is appended to the model's input before the next step, and ground
truth after the accident is never consulted.

The heavy forecasting model used offline (or any other external model) plugs
in through the ``external-file`` predictor: a CSV of per-step predictions
with header ``step,lat,lon``.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .geo import GeoPoint, haversine_km_arrays
from .ingest import AccidentSpec, DrifterTrack

PREDICTOR_KINDS = ("persistence", "linear-extrapolation", "external-file")


class InsufficientHistory(ValueError):
    """Not enough observations before the accident for the chosen predictor."""


@dataclass(frozen=True)
class Forecast:
    """Predicted position at the planning horizon plus its uncertainty proxy."""

    predicted: GeoPoint
    prev_step_error_km: float

    def __post_init__(self) -> None:
        if self.prev_step_error_km < 0:
            raise ValueError("prev_step_error_km must be non-negative")


@dataclass(frozen=True)
class PredictorSpec:
    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in PREDICTOR_KINDS:
            raise ValueError(f"unknown predictor kind {self.kind!r}, expected one of {PREDICTOR_KINDS}")
        if self.kind == "external-file" and "path" not in self.params:
            raise ValueError("external-file predictor needs a 'path' param")


def load_external_forecast(path) -> list[GeoPoint]:
    """Read an external per-step forecast CSV (``step,lat,lon``, steps 1..H, each once)."""
    rows: dict[int, GeoPoint] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            step = int(row["step"])
            if step in rows:
                raise ValueError(f"duplicate forecast step {step} in {path}")
            rows[step] = GeoPoint(float(row["lat"]), float(row["lon"]))
    if not rows:
        raise ValueError(f"empty forecast file {path}")
    steps = sorted(rows)
    if steps != list(range(1, len(steps) + 1)):
        raise ValueError(f"forecast file steps must be 1..H, got {steps}")
    return [rows[s] for s in steps]


@functools.lru_cache(maxsize=256)
def _linear_design(n: int) -> tuple[np.ndarray, np.ndarray, float]:
    """``np.polyfit``'s scaled design matrix, column scale and rcond for a line through n points."""
    lhs = np.vander(np.arange(n, dtype=float), 2)
    scale = np.sqrt((lhs * lhs).sum(axis=0))
    lhs /= scale
    lhs.flags.writeable = scale.flags.writeable = False  # shared by every caller
    return lhs, scale, n * np.finfo(float).eps


def _linear_next(series: Sequence[float]) -> float:
    """Least-squares linear fit over the whole series, extrapolated one step.

    The arithmetic of ``np.polyfit(arange(n), series, 1)``, with the set-up
    that depends only on n cached.
    """
    n = len(series)
    lhs, scale, rcond = _linear_design(n)
    slope, intercept = np.linalg.lstsq(lhs, np.asarray(series, dtype=float), rcond)[0] / scale
    return float(slope * n + intercept)


def predict_recursive(
    track: DrifterTrack,
    accident_index: int,
    steps: int,
    predictor: PredictorSpec,
) -> list[GeoPoint]:
    """Predict `steps` future positions, feeding each prediction back as input.

    Only records up to and including `accident_index` are read; the expanding
    window then grows with the model's own outputs. Longitudes are fitted
    unwrapped (each shifted by whole turns so that no step exceeds 180
    degrees) and wrapped only in the returned points, so a track crossing the
    antimeridian is extrapolated across it.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not 0 <= accident_index < len(track):
        raise InsufficientHistory(f"accident_index {accident_index} outside track of length {len(track)}")

    if predictor.kind == "external-file":
        points = load_external_forecast(predictor.params["path"])
        if len(points) < steps:
            raise InsufficientHistory(f"forecast file has {len(points)} steps, need {steps}")
        return points[:steps]

    if predictor.kind == "persistence":
        return [track.position(accident_index)] * steps

    # linear-extrapolation
    if accident_index < 1:
        raise InsufficientHistory("linear-extrapolation needs at least two observations")
    history = [track.position(i) for i in range(accident_index + 1)]
    lats = [p.lat for p in history]
    lons = [p.lon for p in history]
    for i in range(1, len(lons)):
        lons[i] += 360.0 * round((lons[i - 1] - lons[i]) / 360.0)
    out: list[GeoPoint] = []
    for _ in range(steps):
        lat, lon = _linear_next(lats), _linear_next(lons)
        lats.append(lat)
        lons.append(lon)
        out.append(GeoPoint(lat, lon))
    return out


def forecast_scenario(
    track: DrifterTrack,
    spec: AccidentSpec,
    predictor: PredictorSpec,
) -> Forecast:
    """Predict the position at the planning horizon and measure last-step error.

    The error is the haversine distance between the recursive prediction and
    the ground truth one step before the horizon; it parameterizes both the
    search-area radius and the particle spread downstream.
    """
    spec.validate_against(track)
    horizon = spec.horizon_hours
    predictions = predict_recursive(track, spec.accident_index, horizon, predictor)
    predicted = predictions[horizon - 1]
    if horizon >= 2:
        pred, truth = predictions[horizon - 2], track.position(spec.accident_index + horizon - 1)
        (error_km,) = haversine_km_arrays([pred.lat], [pred.lon], [truth.lat], [truth.lon]).tolist()
    else:
        # One-step horizon: the "previous step" is the accident observation itself.
        error_km = 0.0
    return Forecast(predicted=predicted, prev_step_error_km=error_km)


def benchmark_predictors(
    tracks: Sequence[DrifterTrack],
    specs: Sequence[PredictorSpec],
    horizon: int = 6,
) -> list[tuple[PredictorSpec, float]]:
    """Mean haversine prediction error (km) per predictor over all tracks.

    Each track is scored over every horizon step, with the accident placed to
    leave exactly `horizon` ground-truth steps at the end of the track.
    """
    if not tracks:
        raise ValueError("need at least one track")
    results: list[tuple[PredictorSpec, float]] = []
    for spec in specs:
        errors: list[float] = []
        for track in tracks:
            idx = len(track) - 1 - horizon
            pred = np.array([(p.lat, p.lon) for p in predict_recursive(track, idx, horizon, spec)])
            truth = np.array([(r.position.lat, r.position.lon) for r in track.records[idx + 1 :]])
            errors.extend(haversine_km_arrays(pred[:, 0], pred[:, 1], truth[:, 0], truth[:, 1]).tolist())
        results.append((spec, float(np.mean(errors))))
    return results
