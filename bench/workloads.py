"""The benchmark's workloads, driven through the package's public API.

Each workload is a closed loop with one caller: ``setup`` makes the inputs
from the workload seed, ``run_pass`` does one pass of batch work on them and
checks its outputs, and ``serve`` then answers applicant requests one at a
time (score-explain only). Passes and requests are timed apart. Every pass,
model load and request is one operation; an operation fails on an
exception, a non-finite output or a failed check, including a quality value
below the workload's floor.

Sizes are scaled down from the paper's experiments so that a timed run
holds several passes. Every EBM boosts exactly 40 cycles at a 0.05 learning
rate (patience 40 keeps early stopping from ending a fit sooner): under the
default (0.01, early stopping only) the cycle count, and with it the fit
time, varied 2.5-fold between seeds.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import time
from dataclasses import dataclass

import numpy as np

from glassbox_credit import attribution, data, metrics, persist, pipeline, ranking, synth

INFORMATIVE = [f"f{j:02d}" for j in range(synth.N_INFORMATIVE)]
REDUCED_EBM = {"learning_rate": 0.05, "rounds": 40, "pair_rounds": 40, "patience": 40}
SHAP_TOLERANCE = 1e-9
# A one-row score must equal that row of a batch score: exactly for the
# gbdt and the ebm (lookups summed in a fixed order), within this for lr and
# pltr, whose one-row product BLAS sums in another order (seen: 6e-16).
LINEAR_SCORE_TOLERANCE = 1e-12
# Requests score-explain serves after each pass. A run makes at least four
# passes (run.MIN_PASSES), so the 99th percentile of its requests has ten
# samples beyond it.
REQUESTS = 250
# glassbox-family's correlation refinement, cut down with the feature count.
REFINEMENT = {"pool": 15, "target": 12, "protected": 5}
# score-explain trains its models on the train split; its test split is unused.
SETUP_TEST_ROWS = 10

# Lowest acceptable quality per workload. Over seeds 1-20 and the default
# seed the unmodified code gave these minimum / median values:
#   select-shap      ref_auroc .705/.737  ebm_auroc .710/.773  ebm_auprc .395/.477
#                    topk_recall 0.7/0.8
#   glassbox-family  ref_auroc .719/.760  ebm_auroc .723/.771  ebm_auprc .391/.468
#                    pltr_auroc .707/.761  pltr_auprc .392/.425  topk_recall 0.5/0.7
#   score-explain    ref_auroc .734/.761  ebm_auroc .761/.788  ebm_auprc .442/.500
#                    pltr_auroc .725/.778  pltr_auprc .377/.448
# Each floor sits about 3.5 seed-to-seed standard deviations below the
# median. A value under its floor fails the pass that produced it.
QUALITY_FLOORS = {
    "select-shap": {"ref_auroc": 0.67, "ebm_auroc": 0.67, "ebm_auprc": 0.34, "topk_recall": 0.6},
    "glassbox-family": {
        "ref_auroc": 0.68,
        "ebm_auroc": 0.68,
        "ebm_auprc": 0.34,
        "pltr_auroc": 0.67,
        "pltr_auprc": 0.33,
        "topk_recall": 0.3,
    },
    "score-explain": {
        "ref_auroc": 0.69,
        "ebm_auroc": 0.71,
        "ebm_auprc": 0.38,
        "pltr_auroc": 0.68,
        "pltr_auprc": 0.32,
    },
}


class CheckFailed(Exception):
    """An output of the program failed one of the benchmark's checks."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


class Tally:
    """Operations attempted and failed, and the latency of each request."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.latencies_ms: list[float] = []

    def run(self, op, *args, request: bool = False):
        """Run one operation; a failure is counted and the run goes on."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            return op(*args)
        except Exception as exc:  # boundary: every failure is one failed operation
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(f"{op.__name__}: {type(exc).__name__}: {exc}")
            return None
        finally:
            if request:
                self.latencies_ms.append(1e3 * (time.perf_counter() - start))


def check_quality(quality: dict, floors: dict) -> None:
    for name, value in quality.items():
        require(math.isfinite(value), f"{name} is not finite")
        if name in floors:
            require(value >= floors[name], f"{name} {value:.4f} below floor {floors[name]}")


def _columns(applicants, model) -> list[int]:
    index = {name: i for i, name in enumerate(applicants.feature_names)}
    return [index[name] for name in model.feature_names]


def _request(models, row, i, expected, margins) -> None:
    for kind, (model, cols) in models.items():
        score = model.predict_proba(row[cols])
        require(score.shape == (1,) and np.isfinite(score[0]), f"{kind} score not finite")
        tolerance = LINEAR_SCORE_TOLERANCE if kind in ("lr", "pltr") else 0.0
        require(abs(score[0] - expected[kind][i]) <= tolerance, f"{kind} single-row score differs from batch")
    if "gbdt" in models:
        model, cols = models["gbdt"]
        att = attribution.tree_shap(model, row[cols])
        total = att.base_value + float(att.values.sum())
        require(abs(total - margins["gbdt"][i]) <= SHAP_TOLERANCE, "gbdt base + sum(phi) != margin")
    if "ebm" in models:
        model, cols = models["ebm"]
        total = sum(value for _, value in model.term_contributions(row[cols]))
        require(abs(total - margins["ebm"][i]) <= SHAP_TOLERANCE, "ebm terms do not sum to margin")


def serve_requests(models: dict, applicants, n: int, tally: Tally, expected: dict) -> None:
    """Score ``n`` applicants one row at a time under every model, then
    explain each under the gbdt (TreeSHAP) and the ebm (term contributions).

    Each single-row score must equal that row of ``expected``, the batch
    scores of the applicant rows."""
    models = {kind: (m, _columns(applicants, m)) for kind, m in models.items()}
    X = applicants.X[:n]
    margins = {
        kind: m.predict_margin(X[:, cols])
        for kind, (m, cols) in models.items()
        if kind in ("gbdt", "ebm")
    }
    for i in range(n):
        tally.run(_request, models, X[i], i, expected, margins, request=True)


def _recall(names) -> float:
    return len(set(names[: len(INFORMATIVE)]) & set(INFORMATIVE)) / len(INFORMATIVE)


def _ranking(out: str, name: str):
    with open(os.path.join(out, name), encoding="utf-8") as fh:
        return ranking.RankedFeatures.from_json(fh.read())


def _test_row(report, kind: str, k: int | None = None) -> dict:
    for row in report.rows:
        if row["model_kind"] == kind and (k is None or row["k"] == k):
            return row["test"]
    raise CheckFailed(f"no {kind} row in the report")


@dataclass
class Workload:
    name = ""
    floors: dict | None = None  # default: QUALITY_FLOORS[name]

    def __post_init__(self):
        if self.floors is None:
            self.floors = dict(QUALITY_FLOORS[self.name])

    def serve(self, state, tally: Tally) -> None:
        """Requests answered after each pass; none by default."""


@dataclass
class PipelineWorkload(Workload):
    """One ``pipeline.run_full`` call per pass. Every pass's
    ``manifest.json`` must equal the first pass's (the determinism
    contract)."""

    def experiment(self, state) -> dict:
        raise NotImplementedError

    def quality(self, state, report, out) -> dict:
        raise NotImplementedError

    def run_pass(self, state) -> dict:
        out = os.path.join(state["work"], "pass")
        shutil.rmtree(out, ignore_errors=True)
        report = pipeline.run_full(self.experiment(state), out)
        with open(os.path.join(out, "manifest.json"), "rb") as fh:
            manifest = fh.read()
        state.setdefault("manifest", manifest)
        require(manifest == state["manifest"], "manifest differs from the first pass")
        quality = self.quality(state, report, out)
        check_quality(quality, self.floors)
        return quality


@dataclass
class SelectShap(PipelineWorkload):
    """The paper's headline path: GBDT reference, SHAP ranking, EBM on the
    top 10."""

    name = "select-shap"
    n_train: int = 1000
    n_test: int = 3000
    rounds: int = 8

    def setup(self, seed: int, work: str) -> dict:
        return {"work": work, "seed": seed}

    def experiment(self, state) -> dict:
        return {
            "dataset": {
                "preset": "additive",
                "n_train": self.n_train,
                "n_test": self.n_test,
                "seed": state["seed"],
            },
            "base_kind": "gbdt",
            "model_configs": {"gbdt": {"rounds": self.rounds}, "ebm": REDUCED_EBM},
            "rank_method": "shap",
            "k": 10,
            "reduced_kinds": ["ebm"],
        }

    def quality(self, state, report, out) -> dict:
        ranked = _ranking(out, "ranking.json").names
        ebm = _test_row(report, "ebm")
        return {
            "ref_auroc": _test_row(report, "gbdt")["auroc"],
            "ebm_auroc": ebm["auroc"],
            "ebm_auprc": ebm["auprc"],
            "topk_recall": _recall(ranked),
        }


@dataclass
class GlassboxFamily(PipelineWorkload):
    """The glass-box half: LR reference ranked by coefficients, EBM and
    PLTR on the top 10, the pair-count sweep and correlation refinement,
    from a raw CSV through the ingestion path."""

    name = "glassbox-family"
    n_train: int = 1000
    n_test: int = 1000

    def setup(self, seed: int, work: str) -> dict:
        csv_path = os.path.join(work, "raw.csv")
        prep_path = os.path.join(work, "prep.json")
        truth = synth.write_csv("redundant", csv_path, prep_path, self.n_train, self.n_test, seed)
        copies = [f"f{j:02d}" for j in truth.duplicates]
        return {"work": work, "csv": csv_path, "prep": prep_path, "copies": copies}

    def experiment(self, state) -> dict:
        return {
            "dataset": {"train_csv": state["csv"], "prep_config": state["prep"]},
            "base_kind": "lr",
            "model_configs": {"ebm": REDUCED_EBM},
            "rank_method": "coef",
            "k": 10,
            "reduced_kinds": ["ebm", "pltr"],
            "sweep_pairs": {"k": 10, "pair_counts": [0, 4, 8]},
            "refinement": REFINEMENT,
        }

    def quality(self, state, report, out) -> dict:
        ranked = _ranking(out, "ranking.json").names
        dropped = {d["feature"] for d in _ranking(out, "ranking_refined.json").meta["dropped"]}
        pool = set(ranked[: REFINEMENT["pool"]]) & set(state["copies"])
        ebm, pltr = _test_row(report, "ebm", 10), _test_row(report, "pltr", 10)
        quality = {
            "ref_auroc": _test_row(report, "lr")["auroc"],
            "ebm_auroc": ebm["auroc"],
            "ebm_auprc": ebm["auprc"],
            "pltr_auroc": pltr["auroc"],
            "pltr_auprc": pltr["auprc"],
            "topk_recall": _recall(ranked),
        }
        if pool:
            quality["dup_pruned"] = len(pool & dropped) / len(pool)
        return quality


@dataclass
class ScoreExplain(Workload):
    """Inference with saved models: cache an applicant batch, load every
    model kind, score and evaluate the batch. After each pass, requests are
    served by the saved models, and each must match the set-up models'
    batch scores."""

    name = "score-explain"
    n_train: int = 1000
    batch_rows: int = 5000
    rounds: int = 20
    requests: int = REQUESTS

    def setup(self, seed: int, work: str) -> dict:
        train, _, _ = synth.generate("additive", n_train=self.n_train, n_test=SETUP_TEST_ROWS, seed=seed)
        batch, _, _ = synth.generate("additive", n_train=self.batch_rows, n_test=1, seed=seed + 1)
        configs = {"gbdt": {"rounds": self.rounds}, "ebm": REDUCED_EBM}
        models, paths, expected = {}, {}, {}
        for kind in ("gbdt", "ebm", "pltr", "lr"):
            fit_on = train if kind == "gbdt" else train.select_features(INFORMATIVE)
            models[kind] = pipeline.train_model(kind, data.apply_class_weights(fit_on), configs.get(kind))
            paths[kind] = os.path.join(work, f"{kind}.json")
            persist.save_model(models[kind], paths[kind])
            expected[kind] = models[kind].predict_proba(batch.X[:, _columns(batch, models[kind])])
        return {"work": work, "applicants": batch, "paths": paths, "expected": expected}

    def run_pass(self, state) -> dict:
        csv_path = os.path.join(state["work"], "batch.csv")
        data.cache_dataset(state["applicants"], csv_path, os.path.join(state["work"], "batch.json"))
        batch = data.load_cached_dataset(csv_path)
        require(np.array_equal(batch.X, state["applicants"].X), "cached batch differs from the original")
        models = self.serving_models(state)
        scores, reports = {}, {}
        for kind, model in models.items():
            scores[kind] = model.predict_proba(batch.X[:, _columns(batch, model)])
            require(np.array_equal(scores[kind], state["expected"][kind]), f"loaded {kind} scores differ")
            reports[kind] = metrics.evaluate_scores(scores[kind], batch.y)
        quality = {
            "ref_auroc": reports["gbdt"].auroc,
            "ebm_auroc": reports["ebm"].auroc,
            "ebm_auprc": reports["ebm"].auprc,
            "pltr_auroc": reports["pltr"].auroc,
            "pltr_auprc": reports["pltr"].auprc,
        }
        check_quality(quality, self.floors)
        return quality

    def serving_models(self, state) -> dict:
        return {kind: persist.load_model(path) for kind, path in state["paths"].items()}

    def serve(self, state, tally: Tally) -> None:
        models = tally.run(self.serving_models, state)
        if models is not None:
            serve_requests(models, state["applicants"], self.requests, tally, state["expected"])


WORKLOADS = {w.name: w for w in (SelectShap, GlassboxFamily, ScoreExplain)}


def manifest_digest(state) -> str | None:
    manifest = state.get("manifest")
    return hashlib.sha256(manifest).hexdigest() if manifest else None
