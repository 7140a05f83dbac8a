"""GeoJSON rendering of scenarios, deployments, and evaluation results."""

from __future__ import annotations

import json

import numpy as np

from .evaluate import EvaluationReport, segment_trajectory
from .geo import GeoPoint, local_to_latlon
from .ingest import DrifterTrack
from .model import Deployment, detection_pod
from .scenario import Scenario


def _coord(p: GeoPoint) -> list[float]:
    return [p.lon, p.lat]


def circle_ring(center: GeoPoint, radius_km: float, n: int = 64) -> list[list[float]]:
    """Closed polygon ring approximating a haversine circle."""
    angles = 2.0 * np.pi * np.arange(n) / n
    lat, lon = local_to_latlon(radius_km * np.cos(angles), radius_km * np.sin(angles), center)
    ring = [_coord(GeoPoint(a, b)) for a, b in zip(lat.tolist(), lon.tolist())]
    ring.append(ring[0])
    return ring


def _feature(geometry: dict, **properties) -> dict:
    return {"type": "Feature", "geometry": geometry, "properties": properties}


def scenario_features(scenario: Scenario) -> list[dict]:
    feats = [
        _feature({"type": "Point", "coordinates": _coord(scenario.accident)}, role="accident"),
        _feature({"type": "Point", "coordinates": _coord(scenario.area.center)}, role="center"),
        _feature(
            {"type": "Polygon", "coordinates": [circle_ring(scenario.area.center, scenario.area.radius_km)]},
            role="search-area",
            radius_km=scenario.area.radius_km,
        ),
    ]
    for p in scenario.particles:
        feats.append(_feature({"type": "Point", "coordinates": _coord(p)}, role="particle"))
    for line in scenario.lines:
        feats.append(
            _feature(
                {"type": "LineString", "coordinates": [_coord(line.start), _coord(line.end)]},
                role="candidate-line",
                length_km=line.length_km,
            )
        )
    return feats


def deployment_features(deployment: Deployment) -> list[dict]:
    radii_m = [u.detection_radius_m for u in deployment.uavs]
    feats = []
    for uav, radius_m, pod in zip(deployment.uavs, radii_m, detection_pod(np.array(radii_m)).tolist()):
        point = {"type": "Point", "coordinates": _coord(uav.position)}
        disc = {"type": "Polygon", "coordinates": [circle_ring(uav.position, radius_m / 1000.0)]}
        feats.append(_feature(point, role="uav", detection_radius_m=radius_m, pod=pod))
        feats.append(_feature(disc, role="uav-disc", detection_radius_m=radius_m, pod=pod))
    return feats


def export_geojson(
    scenario: Scenario,
    deployment: Deployment | None,
    path,
    track: DrifterTrack | None = None,
    track_slice: tuple[int, int] | None = None,
    report: EvaluationReport | None = None,
) -> dict:
    """Write a FeatureCollection for map inspection; returns the document.

    Includes the scenario geometry, the UAV discs (with per-disc PoD), the
    actual trajectory when a track slice is given, and the covered segment
    midpoints when an evaluation report of that slice is given alongside it;
    a report of another slice raises ValueError.
    """
    feats = scenario_features(scenario)
    if deployment is not None:
        feats.extend(deployment_features(deployment))
    if track is not None and track_slice is not None:
        lo, hi = track_slice
        coords = [_coord(track.position(i)) for i in range(lo, hi + 1)]
        feats.append(_feature({"type": "LineString", "coordinates": coords}, role="trajectory"))
        if report is not None:
            midpoints = segment_trajectory(track, lo, hi, report.unit_m)
            if len(midpoints) != report.n_segments:
                raise ValueError(
                    f"report has {report.n_segments} segments of {report.unit_m} m, "
                    f"the slice [{lo}, {hi}] has {len(midpoints)}"
                )
            if report.n_covered:
                covered = midpoints[report.segment_pods > 0, ::-1].tolist()
                feats.append(
                    _feature({"type": "MultiPoint", "coordinates": covered}, role="covered-segments")
                )
    doc = {"type": "FeatureCollection", "features": feats}
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return doc
