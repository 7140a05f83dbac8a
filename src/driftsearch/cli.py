"""Command-line entry points: predict, plan, experiment."""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from . import __version__
from .evaluate import coverage
from .forecast import PredictorSpec, benchmark_predictors, forecast_scenario
from .geojson import export_geojson
from .ingest import AccidentSpec, load_tracks
from .optimize import ALGORITHMS, OptimizerConfig, run
from .experiment import (
    ExperimentSpec,
    InstanceSpec,
    default_spec,
    run_experiment,
    synthetic_instances,
)
from .scenario import build_scenario


def _predictor_from_args(args) -> PredictorSpec:
    if args.predictor == "external":
        if not args.forecast_file:
            raise SystemExit("--forecast-file is required with --predictor external")
        return PredictorSpec("external-file", {"path": args.forecast_file})
    kind = {"persistence": "persistence", "linear": "linear-extrapolation"}[args.predictor]
    return PredictorSpec(kind)


def _load_instances(args) -> tuple[InstanceSpec, ...]:
    if args.tracks:
        tracks = load_tracks(args.tracks)
        predictor = _predictor_from_args(args)
        return tuple(
            InstanceSpec(
                name=t.id,
                track=t,
                accident=AccidentSpec(t.id, args.accident_index, args.horizon),
                predictor=predictor,
            )
            for t in tracks
        )
    return synthetic_instances()


def cmd_predict(args) -> int:
    tracks = load_tracks(args.tracks) if args.tracks else [inst.track for inst in synthetic_instances()]
    specs = [PredictorSpec("persistence"), PredictorSpec("linear-extrapolation")]
    if args.forecast_file:
        specs.append(PredictorSpec("external-file", {"path": args.forecast_file}))
    results = benchmark_predictors(tracks, specs, horizon=args.horizon)
    print(f"{'predictor':<24} mean haversine error (km)")
    for spec, err in results:
        print(f"{spec.kind:<24} {err:.4f}")
    return 0


def cmd_plan(args) -> int:
    instances = _load_instances(args)
    instance = instances[0]
    fc = forecast_scenario(instance.track, instance.accident, instance.predictor)
    scen = build_scenario(instance.track, instance.accident, fc, k=args.particles, seed=args.seed)
    config = OptimizerConfig(algorithm=args.algo, n_uavs=args.uavs, seed=args.seed)
    result = run(scen, config)
    lo = instance.accident.accident_index
    hi = lo + instance.accident.horizon_hours
    report = coverage(result.best, instance.track, lo, hi)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    export_geojson(
        scen, result.best, out / "plan.geojson", track=instance.track,
        track_slice=(lo, hi), report=report,
    )
    (out / "report.json").write_text(report.to_json())
    print(f"instance {instance.name}: fitness={result.best_fitness.score}/"
          f"{result.best_fitness.total_segments}, coverage={report.coverage:.2f}")
    print(f"wrote {out / 'plan.geojson'} and {out / 'report.json'}")
    return 0


def _spec_from_config(path: str) -> ExperimentSpec:
    doc = json.loads(Path(path).read_text())
    keys = {f.name for f in dataclasses.fields(ExperimentSpec)} - {"instances"}
    unknown = sorted(set(doc) - keys)
    if unknown:
        raise ValueError(f"unknown key(s) in experiment config {path}: {', '.join(unknown)}")
    fields = {key: tuple(value) if isinstance(value, list) else value for key, value in doc.items()}
    return dataclasses.replace(default_spec(), **fields)


def cmd_experiment(args) -> int:
    spec = _spec_from_config(args.config) if args.config else default_spec()
    lists = {"algorithms": args.algo, "uav_counts": args.uavs, "particle_counts": args.particles}
    overrides = {key: tuple(value) for key, value in lists.items() if value}
    if args.seed is not None:
        overrides["seeds"] = (args.seed,)
    if args.tracks:
        overrides["instances"] = _load_instances(args)
    if overrides:
        spec = dataclasses.replace(spec, **overrides)
    rows, summary = run_experiment(spec, out_dir=Path(args.out), write_maps=args.maps, progress=True)
    print(f"\n{len(rows)} runs; results in {args.out}/results.csv, summary in {args.out}/summary.csv")
    for cell in summary:
        print(
            f"{cell['instance']} uavs={cell['n_uavs']} particles={cell['n_particles']} "
            f"{cell['algorithm']:<7} avg={cell['avg']:.2f} best={cell['best']:.2f}"
        )
    grid = (spec.instances, spec.uav_counts, spec.particle_counts, spec.algorithms, spec.seeds)
    failed = math.prod(map(len, grid)) - len(rows)
    if failed:
        print(f"{failed} of {failed + len(rows)} cells failed; see the log above", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="driftsearch", description="UAV search deployment planner")
    parser.add_argument("--version", action="version", version=f"driftsearch {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        # Defaults are filled in by main(), which must see whether a flag was given.
        p.add_argument("--tracks", help="drifter track CSV (default: built-in synthetic instances)")
        p.add_argument("--forecast-file", help="external per-step forecast CSV (step,lat,lon)")
        p.add_argument("--horizon", type=int, help="default: 6")

    def add_accident(p):
        add_common(p)
        p.add_argument("--predictor", choices=["persistence", "linear", "external"], help="default: persistence")
        p.add_argument("--accident-index", type=int, help="default: 6")

    # predict scores every predictor, each track's accident placed --horizon
    # records before its end, so argparse refuses --predictor and --accident-index.
    p = sub.add_parser("predict", help="benchmark predictors on tracks")
    add_common(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("plan", help="plan a single deployment and export GeoJSON")
    add_accident(p)
    p.add_argument("--algo", choices=ALGORITHMS, default="ga")
    p.add_argument("--uavs", type=int, default=6)
    p.add_argument("--particles", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("experiment", help="run the full comparison grid")
    add_accident(p)
    p.add_argument("--config", help="experiment spec JSON")
    p.add_argument("--algo", nargs="+", choices=ALGORITHMS)
    p.add_argument("--uavs", nargs="+", type=int)
    p.add_argument("--particles", nargs="+", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default="out")
    p.add_argument("--maps", action="store_true", help="write per-cell GeoJSON maps")
    p.set_defaults(func=cmd_experiment)
    return parser


# Flags that describe a track's accident; plan and experiment honour them only with --tracks.
_TRACK_FLAGS = {"predictor": "persistence", "forecast_file": None, "horizon": 6, "accident_index": 6}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    given = ", ".join("--" + name.replace("_", "-") for name in _TRACK_FLAGS if getattr(args, name, None) is not None)
    if given and args.command != "predict" and not args.tracks:
        parser.error(f"{given} given without --tracks; the built-in instances fix their own predictor and accident")
    for name, default in _TRACK_FLAGS.items():
        if getattr(args, name, None) is None:
            setattr(args, name, default)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
