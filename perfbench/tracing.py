"""In-memory span recorder that wraps cyclecast's public functions.

The program is not edited: `Tracer.install` swaps each target function
for a wrapper in every `cyclecast.*` module that binds it (including
`from x import f` bindings such as `cli.build_matrix`) and `uninstall`
puts the originals back. A span is (name, start, end, parent index,
op id, error type). Spans stay in memory until `write`.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

# Traced functions: span name -> (module, attribute path).
TARGETS = {
    "dataset.load_csv": ("cyclecast.dataset", "load_csv"),
    "dataset.write_csv": ("cyclecast.dataset", "write_csv"),
    "dataset.generate_synthetic": ("cyclecast.dataset", "generate_synthetic"),
    "encoding.expand_temporal": ("cyclecast.encoding", "expand_temporal"),
    "features.build_matrix": ("cyclecast.features", "build_matrix"),
    "gbtree.fit": ("cyclecast.gbtree", "fit"),
    "gbtree.predict": ("cyclecast.gbtree", "predict"),
    "gbtree.RegressionTree.predict": ("cyclecast.gbtree", "RegressionTree.predict"),
    "gbtree.save_model": ("cyclecast.gbtree", "save_model"),
    "gbtree.load_model": ("cyclecast.gbtree", "load_model"),
    "evaluation.cross_validate": ("cyclecast.evaluation", "cross_validate"),
    "evaluation.compute_metrics": ("cyclecast.evaluation", "compute_metrics"),
    "evaluation.period_breakdown": ("cyclecast.evaluation", "period_breakdown"),
    "tuner.optimize": ("cyclecast.tuner", "optimize"),
    "tuner.gp_fit": ("cyclecast.tuner", "gp_fit"),
    "cli.main": ("cyclecast.cli", "main"),
}

LAYERS = ("dataset", "encoding", "features", "gbtree", "evaluation", "tuner",
          "cli")


def _resolve(module_name, path):
    owner = sys.modules[module_name]
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


def _fit_counts(counts, result, args, kwargs):
    model = result[0]
    counts["trees_built"] += len(model.trees)
    counts["leaves_built"] += sum(t.n_leaves for t in model.trees)
    counts["best_iterations"] += model.best_iteration


def _predict_counts(counts, result, args, kwargs):
    counts["predict_rows"] += len(result)


def _load_csv_counts(counts, result, args, kwargs):
    counts["load_csv_rows"] += len(result)


def _model_bytes(counts, result, args, kwargs):
    counts["model_files"] += 1
    counts["model_json_bytes"] += os.path.getsize(args[1] if len(args) > 1
                                                  else args[0])


def _cv_counts(counts, result, args, kwargs):
    counts["cv_folds"] += len(result.fold_rmses)


# Counts taken at the same boundaries as the spans, from the return value.
HOOKS = {
    "gbtree.fit": _fit_counts,
    "gbtree.predict": _predict_counts,
    "dataset.load_csv": _load_csv_counts,
    "gbtree.save_model": _model_bytes,
    "gbtree.load_model": _model_bytes,
    "evaluation.cross_validate": _cv_counts,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.op = None
        self._stack = []
        self._originals = {}

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(idx)
            error = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op, error)
            if hook is not None:
                hook(counts, result, args, kwargs)
            return result

        return wrapper

    def install(self):
        """Wrap every target at every binding site in loaded cyclecast modules."""
        modules = [m for n, m in sys.modules.items()
                   if n == "cyclecast" or n.startswith("cyclecast.")]
        for name, (module_name, path) in TARGETS.items():
            owner, attr = _resolve(module_name, path)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            sites = [(owner, attr)]
            if "." not in path:
                sites += [(m, a) for m in modules for a, v in vars(m).items()
                          if v is original and (m, a) != (owner, attr)]
            for site_owner, site_attr in sites:
                self._originals[(site_owner, site_attr)] = original
                setattr(site_owner, site_attr, wrapper)

    def uninstall(self):
        for (owner, attr), original in self._originals.items():
            setattr(owner, attr, original)
        self._originals.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent, op, error) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0,
                                     "end": t1, "parent": parent, "op": op,
                                     "error": error}) + "\n")


def self_times(spans):
    """Per-span self time: duration minus the time its child spans cover."""
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent, op, error in spans:
        if parent is not None:
            child_time[parent] += t1 - t0
    return [s[2] - s[1] - c for s, c in zip(spans, child_time)]


def layer_self_times(spans, op_filter):
    """Layer -> self seconds over the spans whose op id passes `op_filter`."""
    out = dict.fromkeys(LAYERS, 0.0)
    for span, st in zip(spans, self_times(spans)):
        if op_filter(span[4]):
            layer = span[0].split(".", 1)[0]
            out[layer] += st
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """Per-layer metrics from the recorded spans and counts.

    Times are totals in seconds over every span of the traced run (set-up
    spans included); a layer the workload never calls reports 0.
    """
    spans, c = tracer.spans, tracer.counts
    total = defaultdict(float)
    calls = defaultdict(int)
    failures = defaultdict(int)
    for name, t0, t1, parent, op, error in spans:
        total[name] += t1 - t0
        calls[name] += 1
        failures[name] += error is not None
    selfs = self_times(spans)

    def under(name, parent_name):
        keep = [i for i, s in enumerate(spans) if s[0] == name
                and s[3] is not None and spans[s[3]][0] == parent_name]
        return sum((spans[i][2] - spans[i][1] for i in keep), 0.0), len(keep)

    tree_predict_s, tree_predict_calls = under("gbtree.RegressionTree.predict",
                                               "gbtree.fit")
    objective_s, trials = under("evaluation.cross_validate", "tuner.optimize")
    optimize_self = sum((st for s, st in zip(spans, selfs)
                         if s[0] == "tuner.optimize"), 0.0)
    cli_self = sum((st for s, st in zip(spans, selfs) if s[0] == "cli.main"),
                   0.0)
    return {
        "gbtree.fit_s": (total["gbtree.fit"], "s"),
        "gbtree.fit_calls": (calls["gbtree.fit"], "count"),
        "gbtree.trees_built": (c["trees_built"], "count"),
        "gbtree.leaves_built": (c["leaves_built"], "count"),
        "gbtree.fit_ms_per_tree": (
            1e3 * _ratio(total["gbtree.fit"], c["trees_built"]), "ms"),
        "gbtree.tree_predict_s": (tree_predict_s, "s"),
        "gbtree.tree_predict_calls": (tree_predict_calls, "count"),
        "gbtree.useful_tree_ratio": (
            _ratio(c["best_iterations"], c["trees_built"]), "fraction"),
        "gbtree.predict_s": (total["gbtree.predict"], "s"),
        "gbtree.predict_rows_per_s": (
            _ratio(c["predict_rows"], total["gbtree.predict"]), "1/s"),
        "gbtree.load_model_s": (total["gbtree.load_model"], "s"),
        "gbtree.model_json_bytes": (
            _ratio(c["model_json_bytes"], c["model_files"]), "bytes"),
        "gbtree.save_model_s": (total["gbtree.save_model"], "s"),
        "gbtree.save_model_failures": (failures["gbtree.save_model"], "count"),
        "dataset.load_csv_s": (total["dataset.load_csv"], "s"),
        "dataset.load_csv_rows_per_s": (
            _ratio(c["load_csv_rows"], total["dataset.load_csv"]), "1/s"),
        "dataset.generate_synthetic_s": (
            total["dataset.generate_synthetic"], "s"),
        "dataset.write_csv_s": (total["dataset.write_csv"], "s"),
        "encoding.expand_temporal_s": (total["encoding.expand_temporal"], "s"),
        "features.build_matrix_s": (total["features.build_matrix"], "s"),
        "features.build_matrix_calls": (calls["features.build_matrix"], "count"),
        "evaluation.cross_validate_s": (
            total["evaluation.cross_validate"], "s"),
        "evaluation.cv_folds": (c["cv_folds"], "count"),
        "tuner.optimize_s": (total["tuner.optimize"], "s"),
        "tuner.gp_fit_s": (total["tuner.gp_fit"], "s"),
        "tuner.gp_fit_calls": (calls["tuner.gp_fit"], "count"),
        "tuner.objective_s": (objective_s, "s"),
        "tuner.acquisition_s": (optimize_self, "s"),
        "tuner.trials": (trials, "count"),
        "cli.self_s": (cli_self, "s"),
    }
