"""Spans around the package's public entry points, recorded from outside.

``Tracer.install`` rebinds each traced function in every loaded
``glassbox_credit`` module that holds it (the defining module included, so
calls inside a module are traced too) and each traced method on its class.
``Tracer.restore`` puts every original back, so untraced passes run the
unmodified program. Spans stay in memory; ``layer_totals`` turns them into
per-layer self times and work counts.
"""

from __future__ import annotations

import functools
import importlib
import json
import inspect
import os
import sys
import time

import numpy as np

PACKAGE = "glassbox_credit"


def _split_nodes(model) -> int:
    return sum(int(f != -1) for tree in model.trees for f in tree.feature)


def _rules(model) -> tuple[int, int]:
    n_rules = len(model.stumps) + len(model.pair_splits)
    n_orig = len(model.feature_names) if model.include_original else 0
    return n_rules, int(np.count_nonzero(model.linear.coef[n_orig:]))


def _lasso_points(args) -> int:
    return args["n_grid"] if args["lam"] == "auto" else 1


# Traced entry point -> the per-layer busy metric its self time adds to.
BUSY_METRIC = {
    "synth.generate": "synth.busy_s",
    "synth.write_csv": "synth.busy_s",
    "data.ingest_csv": "data.busy_s",
    "data.encode_target": "data.busy_s",
    "data.engineer_fico": "data.busy_s",
    "data.prepare": "data.busy_s",
    "data.cache_dataset": "data.busy_s",
    "data.load_cached_dataset": "data.busy_s",
    "gbdt.fit_gbdt": "gbdt.fit_s",
    "gbdt.GbdtModel.predict_margin": "gbdt.predict_s",
    "gbdt.GbdtModel.predict_proba": "gbdt.predict_s",
    "attribution.global_importance": "attribution.busy_s",
    "attribution.tree_shap": "attribution.busy_s",
    "ebm.fit_ebm": "ebm.fit_s",
    "ebm.detect_pairs": "ebm.pairs_s",
    "ebm.fit_pairs": "ebm.pairs_s",
    "ebm.EbmModel.predict_margin": "ebm.predict_s",
    "ebm.EbmModel.predict_proba": "ebm.predict_s",
    "ebm.EbmModel.term_contributions": "ebm.predict_s",
    "pltr.fit_pltr": "pltr.rules_s",
    "pltr.PltrModel.predict_margin": "pltr.predict_s",
    "pltr.PltrModel.predict_proba": "pltr.predict_s",
    "linear.fit_logistic": "linear.newton_s",
    "linear.fit_adaptive_lasso": "linear.lasso_s",
    "metrics.evaluate_scores": "metrics.busy_s",
    "persist.dumps": "persist.busy_s",
    "persist.save_model": "persist.busy_s",
    "persist.load_model": "persist.busy_s",
}

# Traced entry point -> work counts taken at its boundary, from its bound
# arguments and its result. Nested entry points are counted once: rows
# explained come from each ``tree_shap`` call, envelope bytes written from
# each ``dumps``.
COUNTERS = {
    "data.ingest_csv": lambda a, r: {"data.rows": r.n_rows, "data.bytes": os.path.getsize(a["path"])},
    "data.load_cached_dataset": lambda a, r: {"data.rows": r.n, "data.bytes": os.path.getsize(a["csv_path"])},
    "data.cache_dataset": lambda a, r: {"data.rows": a["data"].n, "data.bytes": os.path.getsize(a["csv_path"])},
    "gbdt.fit_gbdt": lambda a, r: {"gbdt.trees": len(r.trees), "gbdt.nodes": _split_nodes(r)},
    "attribution.tree_shap": lambda a, r: {
        "attribution.rows": 1,
        "attribution.row_trees": len(a["model"].trees),
    },
    "ebm.fit_ebm": lambda a, r: {"ebm.cycles": r.config["cycles_run"]},
    "ebm.detect_pairs": lambda a, r: {"ebm.pairs_scored": a["model"].d * (a["model"].d - 1) // 2},
    "pltr.fit_pltr": lambda a, r: dict(zip(("pltr.rules", "pltr.rules_kept"), _rules(r))),
    "linear.fit_adaptive_lasso": lambda a, r: {
        "linear.lambda_points": _lasso_points(a),
        "linear.outer_iters": r.diagnostics["outer_iterations"],
        "linear.nonzero": r.diagnostics["nonzero"],
    },
    "metrics.evaluate_scores": lambda a, r: {
        "metrics.rows": len(a["scores"]),
        "metrics.tie_blocks": int(np.unique(a["scores"]).size),
    },
    "persist.dumps": lambda a, r: {"persist.bytes": len(r)},
    "persist.load_model": lambda a, r: {"persist.bytes": os.path.getsize(a["path"])},
}


def resolve(name: str) -> tuple[object, str]:
    """``"gbdt.GbdtModel.predict_proba"`` -> (the class, ``"predict_proba"``)."""
    module_name, *attrs = name.split(".")
    owner = importlib.import_module(f"{PACKAGE}.{module_name}")
    for attr in attrs[:-1]:
        owner = getattr(owner, attr)
    return owner, attrs[-1]


class Tracer:
    """Records one span per call of a traced entry point while installed."""

    def __init__(self, names=tuple(BUSY_METRIC)):
        self.names = list(names)
        # [name, start, end, parent index or -1, work counts or None]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []  # (owner, attr, original)

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), None, parent, None]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[4] = counter(bound.arguments, result)
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in list(sys.modules.items()) if key.startswith(PACKAGE + ".")]
        for name in self.names:
            owner, attr = resolve(name)
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            if inspect.isclass(owner):
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            for module in modules:
                for alias, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, alias, original))
                        setattr(module, alias, wrapped)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def layer_totals(self, first: int = 0) -> dict[str, float]:
        """Busy seconds per layer metric and summed work counts of the spans
        from index ``first`` on. A span's busy time is its own time: its
        duration minus the time its child spans cover."""
        spans = self.spans[first:]
        own = [end - start for _, start, end, _, _ in spans]
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                own[parent - first] -= end - start
        totals = {metric: 0.0 for metric in BUSY_METRIC.values()}
        for span, busy in zip(spans, own):
            totals[BUSY_METRIC[span[0]]] += busy
            for key, value in (span[4] or {}).items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def dump(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, counts in self.spans:
                record = {"name": name, "start": start, "end": end, "parent": parent}
                if counts:
                    record["counts"] = counts
                fh.write(json.dumps(record) + "\n")
