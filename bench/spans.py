"""Pass-through wrappers that record spans and counts around driftsearch calls.

The wrappers are installed only for a traced run, in the namespace where each
caller looks the name up (``from .geo import haversine_km_arrays`` binds a name
in the importing module, so patching ``driftsearch.geo`` alone would miss it).
Modules are fetched from ``sys.modules``: ``driftsearch/__init__.py`` rebinds
the attribute ``driftsearch.repair`` to the function ``repair``.

Spans (name, start, end, parent, op id) are kept in flat in-memory arrays and
written out once the run ends. A span's self time is its duration minus the
durations of its direct children and minus the bookkeeping the tracer did
inside it after a child returned.
"""

from __future__ import annotations

import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np
from driftsearch.repair import RepairConfig

# (metric name, unit) in the order they are printed by a traced run.
PER_LAYER = [
    ("geo.haversine.calls", "count"),
    ("geo.haversine.pairs", "count"),
    ("geo.haversine.pairs_per_call", "pairs/call"),
    ("geo.haversine.s", "s"),
    ("geo.haversine.ns_per_pair", "ns"),
    ("geo.haversine.bytes_computed", "bytes"),
    ("geo.local_to_latlon.calls", "count"),
    ("optimize.fitness.evals", "count"),
    ("optimize.fitness.s", "s"),
    ("optimize.fitness.self_s", "s"),
    ("optimize.fitness.us_per_eval", "us"),
    ("optimize.fitness.pairs_per_eval", "pairs/eval"),
    ("optimize.fitness.rows_changed_ratio", "ratio"),
    ("optimize.fitness.duplicate_ratio", "ratio"),
    ("optimize.evaluator_init.s", "s"),
    ("optimize.random.s", "s"),
    ("optimize.random.self_s", "s"),
    ("optimize.sa.s", "s"),
    ("optimize.sa.self_s", "s"),
    ("optimize.pso.s", "s"),
    ("optimize.pso.self_s", "s"),
    ("optimize.ga.s", "s"),
    ("optimize.ga.self_s", "s"),
    ("repair.calls", "count"),
    ("repair.s", "s"),
    ("repair.self_s", "s"),
    ("repair.us_per_call", "us"),
    ("repair.iterations", "count"),
    ("repair.iterations_per_call", "iter/call"),
    ("repair.pairwise.s", "s"),
    ("repair.cap_hits", "count"),
    ("repair.cap_hit_ratio", "ratio"),
    ("repair.changed_ratio", "ratio"),
    ("evaluate.coverage.calls", "count"),
    ("evaluate.coverage.s", "s"),
    ("evaluate.coverage.ms_per_call", "ms"),
    ("evaluate.segment_trajectory.s", "s"),
    ("evaluate.segments", "count"),
    ("evaluate.pairs", "count"),
    ("forecast.calls", "count"),
    ("forecast.s", "s"),
    ("scenario.build.s", "s"),
    ("scenario.lines", "count"),
    ("model.place.calls", "count"),
    ("ingest.load_tracks.s", "s"),
    ("ingest.records", "count"),
    ("geojson.export.s", "s"),
    ("geojson.bytes", "bytes"),
    ("cli.plan.self_s", "s"),
    ("experiment.run_cell.s", "s"),
    ("experiment.self_s", "s"),
    ("trace.ops", "count"),
    ("trace.spans", "count"),
    ("trace.ops_per_s_untraced", "1/s"),
    ("trace.ops_per_s_traced", "1/s"),
    ("trace.overhead_ops_per_s", "1/s"),
    ("trace.overhead_ratio", "ratio"),
]

OPTIMIZERS = ("random", "sa", "pso", "ga")


def _nbytes(x) -> int:
    return getattr(x, "nbytes", 8)


class Tracer:
    """Span store plus the wrappers that feed it; one per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")  # pairs for haversine, midpoints for segment_trajectory
        self.hook_s = array("d")  # tracer bookkeeping inside the span, excluded from self time
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: dict[str, float] = {}
        self._patches: list[tuple[object, str, object]] = []
        # Per-evaluator state for rows_changed / duplicate ratios.
        self._prev_coords = None
        self._seen: set[bytes] = set()
        # Per-repair-call state for iterations and cap hits.
        self._iters = 0
        self._last_overlap = False

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, key: str, value: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def spanned(self, name: str, fn, after=None, before=None):
        """Wrap `fn` so each call records a span.

        `before(args, kwargs)` and `after(args, kwargs, result, idx, state)` run
        outside the span's timed interval; `state` is what `before` returned.
        """
        nid = self._id(name)
        stack = self.stack
        tracer = self

        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            idx = len(tracer.start)
            tracer.name.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.op.append(tracer.op_id)
            tracer.work.append(0.0)
            tracer.hook_s.append(0.0)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if after is not None:
                after(args, kwargs, result, idx, state)
                if stack:
                    tracer.hook_s[stack[-1]] += perf_counter() - t1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, key: str, fn):
        """Wrap `fn` so each call only bumps a counter (no span)."""
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.add(key)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, obj, attr: str, wrapper) -> None:
        # Classes keep the raw descriptor so a classmethod is restored as one.
        original = obj.__dict__[attr] if isinstance(obj, type) else getattr(obj, attr)
        self._patches.append((obj, attr, original))
        setattr(obj, attr, wrapper)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Install every wrapper; call :meth:`uninstall` to restore."""
        mod = {name: sys.modules[f"driftsearch.{name}"] for name in (
            "geo", "forecast", "scenario", "model", "repair", "optimize",
            "evaluate", "geojson", "experiment", "cli",
        )}
        geo = mod["geo"]
        optimize = mod["optimize"]
        repair = mod["repair"]
        evaluate = mod["evaluate"]

        hav = self.spanned("geo.haversine", geo.haversine_km_arrays, after=self._after_haversine)
        for name in ("optimize", "repair", "evaluate"):
            self.patch(mod[name], "haversine_km_arrays", hav)
        l2l = self.counted("geo.local_to_latlon.calls", geo.local_to_latlon)
        for name in ("optimize", "repair", "evaluate", "scenario"):
            self.patch(mod[name], "local_to_latlon", l2l)

        ev_cls = optimize.FitnessEvaluator
        self.patch(ev_cls, "__init__", self.spanned(
            "optimize.evaluator_init", ev_cls.__init__, after=self._after_evaluator_init))
        self.patch(ev_cls, "evaluate_coords", self.spanned(
            "optimize.fitness", ev_cls.evaluate_coords, after=self._after_fitness))
        for algo in OPTIMIZERS:
            runner = self.spanned(f"optimize.{algo}", optimize._RUNNERS[algo])
            self.patch(optimize, f"run_{algo}", runner)
            self._patches.append((optimize._RUNNERS, algo, optimize._RUNNERS[algo]))
            optimize._RUNNERS[algo] = runner

        rep = self.spanned("repair", repair.repair_coords, before=self._before_repair, after=self._after_repair)
        for name in ("optimize", "repair"):
            self.patch(mod[name], "repair_coords", rep)
        self.patch(repair, "pairwise_repulsion", self.spanned(
            "repair.pairwise", repair.pairwise_repulsion, after=self._after_pairwise))

        cov = self.spanned("evaluate.coverage", evaluate.coverage, after=self._after_coverage)
        for name in ("evaluate", "experiment", "cli"):
            self.patch(mod[name], "coverage", cov)
        seg = self.spanned("evaluate.segment_trajectory", evaluate.segment_trajectory, after=self._after_segments)
        for name in ("evaluate", "geojson"):
            self.patch(mod[name], "segment_trajectory", seg)

        fc = self.spanned("forecast", mod["forecast"].forecast_scenario)
        for name in ("forecast", "experiment", "cli"):
            self.patch(mod[name], "forecast_scenario", fc)
        sc = self.spanned("scenario.build", mod["scenario"].build_scenario, after=self._after_scenario)
        for name in ("scenario", "experiment", "cli"):
            self.patch(mod[name], "build_scenario", sc)

        uav = mod["model"].UavPosition
        self.patch(uav, "place", classmethod(self.counted("model.place.calls", uav.place.__func__)))

        self.patch(mod["cli"], "load_tracks", self.spanned(
            "ingest.load_tracks", mod["cli"].load_tracks, after=self._after_load_tracks))
        exp = self.spanned("geojson.export", mod["geojson"].export_geojson, after=self._after_export)
        for name in ("cli", "experiment"):
            self.patch(mod[name], "export_geojson", exp)
        self.patch(mod["cli"], "cmd_plan", self.spanned("cli.plan", mod["cli"].cmd_plan))
        experiment = mod["experiment"]
        self.patch(experiment, "run_experiment", self.spanned("experiment.run_experiment", experiment.run_experiment))
        self.patch(experiment, "run_cell", self.spanned("experiment.run_cell", experiment.run_cell))

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, original = self._patches.pop()
            if isinstance(obj, dict):
                obj[attr] = original
            else:
                setattr(obj, attr, original)

    # -- hooks (run after the wrapped call, outside its timed interval) -----

    def _after_haversine(self, args, kwargs, result, idx, state):
        self.work[idx] = result.size
        self.add("geo.haversine.bytes_computed", result.nbytes + sum(_nbytes(a) for a in args[:4]))

    def _after_evaluator_init(self, args, kwargs, result, idx, state):
        self._prev_coords = None
        self._seen = set()

    def _after_fitness(self, args, kwargs, result, idx, state):
        coords = np.asarray(args[1])
        key = coords.tobytes()
        if key in self._seen:
            self.add("fitness.duplicates")
        else:
            self._seen.add(key)
        self.add("fitness.rows", len(coords))
        prev = self._prev_coords
        if prev is None or prev.shape != coords.shape:
            self.add("fitness.rows_changed", len(coords))
        else:
            self.add("fitness.rows_changed", int((prev != coords).any(axis=1).sum()))
        self._prev_coords = coords.copy()

    def _before_repair(self, args, kwargs):
        saved = (self._iters, self._last_overlap)
        self._iters = 0
        self._last_overlap = False
        return saved

    def _after_repair(self, args, kwargs, result, idx, state):
        config = args[3] if len(args) > 3 else kwargs.get("config", RepairConfig())
        if self._iters >= config.max_iter and self._last_overlap:
            self.add("repair.cap_hits")
        if not np.array_equal(result, np.asarray(args[0], dtype=float)):
            self.add("repair.changed")
        self._iters, self._last_overlap = state

    def _after_pairwise(self, args, kwargs, result, idx, state):
        self._iters += 1
        self._last_overlap = bool(result[2])

    def _after_coverage(self, args, kwargs, result, idx, state):
        self.add("evaluate.pairs", len(args[0].uavs) * result.n_segments)

    def _after_segments(self, args, kwargs, result, idx, state):
        self.work[idx] = len(result)

    def _after_scenario(self, args, kwargs, result, idx, state):
        self.add("scenario.lines", len(result.lines))

    def _after_load_tracks(self, args, kwargs, result, idx, state):
        self.add("ingest.records", sum(len(t) for t in result))

    def _after_export(self, args, kwargs, result, idx, state):
        self.add("geojson.bytes", Path(args[2] if len(args) > 2 else kwargs["path"]).stat().st_size)

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "work": np.frombuffer(self.work, dtype=np.float64),
            "hook_s": np.frombuffer(self.hook_s, dtype=np.float64),
        }

    def write(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self) -> dict[str, float]:
        """Aggregate spans and counters into the per-layer metrics (without `trace.*`)."""
        a = self.arrays()
        n = len(a["start"])
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=n)
        self_s = dur - child - a["hook_s"]
        ids = {name: i for i, name in enumerate(self.names)}

        def mask(name):
            return a["name"] == ids[name] if name in ids else np.zeros(n, dtype=bool)

        def calls(name):
            return int(mask(name).sum())

        def total(name):
            return float(dur[mask(name)].sum())

        def own(name):
            return float(self_s[mask(name)].sum())

        def ratio(num, den):
            return num / den if den else 0.0

        def under(child_name, parent_name):
            m = mask(child_name)
            parents = a["parent"][m]
            ok = np.zeros(len(parents), dtype=bool)
            if parent_name in ids:
                ok = (parents >= 0) & (a["name"][np.maximum(parents, 0)] == ids[parent_name])
            return float(a["work"][m][ok].sum())

        c = self.counts.get
        hav_calls = calls("geo.haversine")
        hav_pairs = float(a["work"][mask("geo.haversine")].sum())
        evals = calls("optimize.fitness")
        rows = c("fitness.rows", 0.0)
        rep_calls = calls("repair")
        iters = calls("repair.pairwise")
        cov_calls = calls("evaluate.coverage")
        out = {
            "geo.haversine.calls": hav_calls,
            "geo.haversine.pairs": hav_pairs,
            "geo.haversine.pairs_per_call": ratio(hav_pairs, hav_calls),
            "geo.haversine.s": total("geo.haversine"),
            "geo.haversine.ns_per_pair": ratio(total("geo.haversine") * 1e9, hav_pairs),
            "geo.haversine.bytes_computed": c("geo.haversine.bytes_computed", 0.0),
            "geo.local_to_latlon.calls": c("geo.local_to_latlon.calls", 0.0),
            "optimize.fitness.evals": evals,
            "optimize.fitness.s": total("optimize.fitness"),
            "optimize.fitness.self_s": own("optimize.fitness"),
            "optimize.fitness.us_per_eval": ratio(total("optimize.fitness") * 1e6, evals),
            "optimize.fitness.pairs_per_eval": ratio(under("geo.haversine", "optimize.fitness"), evals),
            "optimize.fitness.rows_changed_ratio": ratio(c("fitness.rows_changed", 0.0), rows),
            "optimize.fitness.duplicate_ratio": ratio(c("fitness.duplicates", 0.0), evals),
            "optimize.evaluator_init.s": total("optimize.evaluator_init"),
        }
        for algo in OPTIMIZERS:
            out[f"optimize.{algo}.s"] = total(f"optimize.{algo}")
            out[f"optimize.{algo}.self_s"] = own(f"optimize.{algo}")
        out.update({
            "repair.calls": rep_calls,
            "repair.s": total("repair"),
            "repair.self_s": own("repair"),
            "repair.us_per_call": ratio(total("repair") * 1e6, rep_calls),
            "repair.iterations": iters,
            "repair.iterations_per_call": ratio(iters, rep_calls),
            "repair.pairwise.s": total("repair.pairwise"),
            "repair.cap_hits": c("repair.cap_hits", 0.0),
            "repair.cap_hit_ratio": ratio(c("repair.cap_hits", 0.0), rep_calls),
            "repair.changed_ratio": ratio(c("repair.changed", 0.0), rep_calls),
            "evaluate.coverage.calls": cov_calls,
            "evaluate.coverage.s": total("evaluate.coverage"),
            "evaluate.coverage.ms_per_call": ratio(total("evaluate.coverage") * 1e3, cov_calls),
            "evaluate.segment_trajectory.s": total("evaluate.segment_trajectory"),
            "evaluate.segments": under("evaluate.segment_trajectory", "evaluate.coverage"),
            "evaluate.pairs": c("evaluate.pairs", 0.0),
            "forecast.calls": calls("forecast"),
            "forecast.s": total("forecast"),
            "scenario.build.s": total("scenario.build"),
            "scenario.lines": c("scenario.lines", 0.0),
            "model.place.calls": c("model.place.calls", 0.0),
            "ingest.load_tracks.s": total("ingest.load_tracks"),
            "ingest.records": c("ingest.records", 0.0),
            "geojson.export.s": total("geojson.export"),
            "geojson.bytes": c("geojson.bytes", 0.0),
            "cli.plan.self_s": own("cli.plan"),
            "experiment.run_cell.s": total("experiment.run_cell"),
            "experiment.self_s": own("experiment.run_experiment") + own("experiment.run_cell"),
        })
        return out
