"""End-to-end CLI coverage via main(argv)."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import driftsearch
from driftsearch import geo
from driftsearch.cli import main
from driftsearch.geo import GeoPoint
from driftsearch.ingest import save_tracks, synthesize_track


@pytest.fixture()
def tracks_csv(tmp_path):
    tracks = [
        synthesize_track(seed=21, hours=14, start=GeoPoint(34.0, 127.0), drift_kmh=0.5, turn_sigma=0.3, track_id="t1"),
        synthesize_track(seed=22, hours=14, start=GeoPoint(33.5, 126.5), drift_kmh=0.4, turn_sigma=0.2, track_id="t2"),
    ]
    path = tmp_path / "tracks.csv"
    save_tracks(tracks, path)
    return path


def test_predict_builtin(capsys):
    assert main(["predict"]) == 0
    out = capsys.readouterr().out
    assert "persistence" in out and "linear-extrapolation" in out


def test_predict_with_tracks(tracks_csv, capsys):
    assert main(["predict", "--tracks", str(tracks_csv), "--horizon", "4"]) == 0
    assert "mean haversine error" in capsys.readouterr().out


def test_plan_writes_outputs(tracks_csv, tmp_path, capsys):
    out = tmp_path / "plan-out"
    rc = main(
        [
            "plan", "--tracks", str(tracks_csv), "--predictor", "linear",
            "--algo", "ga", "--uavs", "4", "--particles", "6", "--seed", "0",
            "--out", str(out),
        ]
    )
    assert rc == 0
    doc = json.loads((out / "plan.geojson").read_text())
    assert doc["type"] == "FeatureCollection"
    report = json.loads((out / "report.json").read_text())
    assert "coverage" in report


def test_experiment_small(tracks_csv, tmp_path, capsys):
    out = tmp_path / "exp-out"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"budget_evals": 120, "uav_counts": [4], "particle_counts": [6], "seeds": [0]}))
    rc = main(
        [
            "experiment", "--tracks", str(tracks_csv), "--predictor", "linear",
            "--config", str(config), "--algo", "random", "sa", "--out", str(out),
        ]
    )
    assert rc == 0
    assert (out / "results.csv").exists()
    assert (out / "summary.csv").exists()


def test_experiment_with_failed_cells_exits_nonzero(tracks_csv, tmp_path, capsys):
    # Accident index 50 leaves no ground truth in a 14-hour track, so every
    # cell fails in validate_against; the tables are still written.
    out = tmp_path / "exp-out"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"budget_evals": 120, "uav_counts": [4], "particle_counts": [6], "seeds": [0]}))
    rc = main(
        [
            "experiment", "--tracks", str(tracks_csv), "--accident-index", "50",
            "--config", str(config), "--algo", "random", "sa", "--out", str(out),
        ]
    )
    assert rc == 1
    assert "4 of 4 cells failed" in capsys.readouterr().err
    assert (out / "results.csv").read_text().splitlines()[1:] == []


def test_no_distance_call_is_zero_d(tmp_path, monkeypatch, capsys):
    # numpy runs 0-d inputs through its scalar loop, which can differ from the
    # array loops in the last bit; so every distance the package takes is >= 1-d.
    shapes = []

    def traced(*args):
        out = kernel(*args)
        shapes.append(np.shape(out))
        return out

    kernel = geo.haversine_km_arrays
    for info in pkgutil.iter_modules(driftsearch.__path__):
        module = importlib.import_module(f"driftsearch.{info.name}")
        if hasattr(module, "haversine_km_arrays"):
            monkeypatch.setattr(module, "haversine_km_arrays", traced)
    csv = tmp_path / "track.csv"
    save_tracks([synthesize_track(seed=21, hours=14, start=GeoPoint(34.0, 127.0), drift_kmh=0.5, turn_sigma=0.3)], csv)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"budget_evals": 60}))
    track = ["--tracks", str(csv), "--predictor", "linear"]
    assert main(["predict"]) == 0
    assert main(["plan", *track, "--uavs", "4", "--particles", "6", "--out", str(tmp_path / "plan")]) == 0
    exp = ["experiment", *track, "--config", str(config), "--algo", "ga", "--uavs", "4", "--particles", "6", "--seed", "0"]
    assert main([*exp, "--maps", "--out", str(tmp_path / "exp")]) == 0
    assert len(list((tmp_path / "exp" / "maps").iterdir())) == 1
    assert shapes and [s for s in shapes if s == ()] == []


def test_experiment_duplicate_grid_value_exits_1_before_any_cell(tmp_path):
    out = tmp_path / "exp-out"
    env = {**os.environ, "PYTHONPATH": str(Path(driftsearch.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "driftsearch.cli", "experiment", "--uavs", "6", "6", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1
    assert "ValueError: uav_counts repeats [6]" in proc.stderr
    assert not (out / "results.csv").exists()


def test_experiment_config_unknown_key_rejected(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"budget_eval": 120, "seeds": [0], "uav_count": [4]}))
    with pytest.raises(ValueError, match="budget_eval, uav_count"):
        main(["experiment", "--config", str(config), "--out", str(tmp_path / "exp-out")])
    assert not (tmp_path / "exp-out").exists()


def test_experiment_config_repair_key_rejected(tmp_path):
    # The repair settings are module constants; a config may not set them.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"repair": {"max_iter": 5}}))
    out = tmp_path / "exp-out"
    with pytest.raises(ValueError, match="unknown key.*: repair"):
        main(["experiment", "--config", str(config), "--out", str(out)])
    assert not (out / "results.csv").exists()


def test_experiment_config_bad_algorithm_fails_before_any_cell(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"algorithms": ["gaa"]}))
    out = tmp_path / "exp-out"
    with pytest.raises(ValueError, match="unknown algorithm 'gaa'"):
        main(["experiment", "--config", str(config), "--out", str(out)])
    assert not (out / "results.csv").exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("radius_multiplier", -4.0),
        ("radius_multiplier", 0.0),
        ("radius_multiplier", float("nan")),
        ("sigma_multiplier", -1.0),
        ("sigma_multiplier", float("inf")),
        ("radius_floor_km", 0.0),
        ("fitness_unit_m", 0.0),
        ("eval_unit_m", -1.0),
    ],
)
def test_experiment_config_bad_scenario_setting_fails_before_any_cell(tmp_path, key, value):
    # The scenario multipliers, the radius floor and both discretisation units
    # are module constants; a config may not set them, valid or not.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}))  # NaN and inf as Python's json writes them
    out = tmp_path / "exp-out"
    with pytest.raises(ValueError, match=f"unknown key.*: {key}$"):
        main(["experiment", "--config", str(config), "--out", str(out)])
    assert not (out / "results.csv").exists()


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"seeds": [True]}, "seeds"),
        ({"uav_counts": [6.5]}, "uav_counts"),
        ({"algorithms": "ga"}, "algorithms"),
        ({"seeds": 3}, "seeds"),
    ],
)
def test_experiment_config_wrong_type_exits_1_before_any_cell(tmp_path, doc, field):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "exp-out"
    env = {**os.environ, "PYTHONPATH": str(Path(driftsearch.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "driftsearch.cli", "experiment", "--config", str(config), "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1
    assert f"ValueError: {field} must be" in proc.stderr
    assert not (out / "results.csv").exists()


@pytest.mark.parametrize("flag", ["--algo", "--uavs", "--particles"])
def test_experiment_list_flag_without_values_is_an_error(flag, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["experiment", flag, "--out", str(tmp_path / "exp-out")])
    assert exc.value.code == 2
    assert "expected at least one argument" in capsys.readouterr().err
    assert not (tmp_path / "exp-out").exists()


@pytest.mark.parametrize("command", ["plan", "experiment"])
@pytest.mark.parametrize(
    "flag", [["--predictor", "linear"], ["--forecast-file", "fc.csv"], ["--accident-index", "3"], ["--horizon", "4"]]
)
def test_accident_flags_need_tracks(command, flag, tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, *flag, "--out", str(out)])
    assert exc.value.code == 2
    assert f"{flag[0]} given without --tracks" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", [["--predictor", "linear"], ["--accident-index", "3"]])
def test_predict_refuses_accident_flags(flag, capsys):
    # predict scores every predictor with each accident --horizon records
    # before the track's end, so these flags would be ignored.
    with pytest.raises(SystemExit) as exc:
        main(["predict", *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_validate_is_not_a_subcommand():
    with pytest.raises(SystemExit) as exc:
        main(["validate"])
    assert exc.value.code == 2


def test_missing_subcommand_errors():
    with pytest.raises(SystemExit):
        main([])


def test_external_predictor_requires_file(tracks_csv, tmp_path):
    with pytest.raises(SystemExit):
        main(["plan", "--tracks", str(tracks_csv), "--predictor", "external", "--out", str(tmp_path / "o")])
