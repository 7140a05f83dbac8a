"""Uncertainty-aware UAV search deployment planning for drifting-object recovery."""

from .geo import GeoPoint
from .ingest import AccidentSpec, DrifterRecord, DrifterTrack, load_tracks, save_tracks, synthesize_track
from .forecast import Forecast, PredictorSpec, benchmark_predictors, forecast_scenario, predict_recursive
from .scenario import CandidateLine, Scenario, SearchArea, build_scenario, build_search_area, sample_particles
from .model import Deployment, UavPosition, detection_pod
from .repair import RepairConfig, repair
from .optimize import FitnessValue, OptimizationResult, OptimizerConfig, fitness, initialize, run
from .evaluate import EvaluationConfig, EvaluationReport, coverage, segment_trajectory

__version__ = "0.1.0"

__all__ = [
    "GeoPoint",
    "AccidentSpec",
    "DrifterRecord",
    "DrifterTrack",
    "load_tracks",
    "save_tracks",
    "synthesize_track",
    "Forecast",
    "PredictorSpec",
    "benchmark_predictors",
    "forecast_scenario",
    "predict_recursive",
    "CandidateLine",
    "Scenario",
    "SearchArea",
    "build_scenario",
    "build_search_area",
    "sample_particles",
    "Deployment",
    "UavPosition",
    "detection_pod",
    "RepairConfig",
    "repair",
    "FitnessValue",
    "OptimizationResult",
    "OptimizerConfig",
    "fitness",
    "initialize",
    "run",
    "EvaluationConfig",
    "EvaluationReport",
    "coverage",
    "segment_trajectory",
]
