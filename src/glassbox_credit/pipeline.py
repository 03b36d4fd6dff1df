"""Experiment orchestration.

The workflow is: (1) train a reference model on all features, (2) rank
features by importance in that model, (3) retrain a glass-box model on the
top-k features. On top of that sit the k-sweep, the pair-count sweep, the
correlation refinement of the selected set, and ``run_full``, which executes
a whole configured experiment into an output directory with a content-hash
manifest. Everything here is deterministic: no step draws random numbers.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import persist, synth
from .attribution import global_importance
from .data import (
    Dataset,
    PrepConfig,
    apply_class_weights,
    prepare,
    read_raw_csv,
    write_atomic,
    zscore,
)
from .ebm import EbmConfig, EbmModel, detect_pairs, fit_ebm, fit_pairs, importance_ebm
from .errors import DataError, GlassboxError
from .gbdt import GbdtConfig, GbdtModel, fit_gbdt
from .linear import LinearModel, fit_logistic
from .metrics import evaluate_scores
from .persist import MODEL_KINDS
from .pltr import fit_pltr
from .ranking import METHODS, RankedFeatures, rank_from_scores

PLATEAU_EPS = 0.002


@dataclass
class RefinementConfig:
    """Correlation-based pruning of a ranked feature pool."""

    pool: int = 25
    target: int = 20
    protected: int = 10
    threshold: float = 0.7
    kind: str = "pearson"

    def __post_init__(self):
        if not 0 <= self.protected <= self.target <= self.pool:
            raise DataError("need protected <= target <= pool")
        if not 0.0 < self.threshold <= 1.0:
            raise DataError("correlation threshold must be in (0,1]")
        if self.kind != "pearson":
            raise DataError(f"unsupported correlation kind {self.kind!r}")

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class ExperimentReport:
    """Rows of (model kind, k, pairs, feature hash, train/test metrics)."""

    rows: list = field(default_factory=list)
    config: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def add_row(self, kind, names, train_report, test_report, n_pairs=0):
        for rep in (train_report, test_report):
            vals = rep.as_dict()
            if not all(np.isfinite(v) for k, v in vals.items() if k != "degenerate"):
                raise DataError("non-finite metric in report row")
        self.rows.append(
            {
                "model_kind": kind,
                "k": len(names),
                "n_pairs": n_pairs,
                "feature_hash": feature_hash(names),
                "train": train_report.as_dict(),
                "test": test_report.as_dict(),
            }
        )

    def to_json(self) -> str:
        body = {
            "rows": self.rows,
            "config": self.config,
            "meta": dict(self.meta, deterministic=True),
        }
        return json.dumps(body, indent=2, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        import csv
        import io

        metric_cols = ["auprc", "auroc", "f1", "balanced_accuracy"]
        out = io.StringIO(newline="")
        writer = csv.writer(out)
        writer.writerow(
            ["model_kind", "k", "n_pairs", "feature_hash"]
            + [f"train_{c}" for c in metric_cols]
            + [f"test_{c}" for c in metric_cols]
        )
        for row in self.rows:
            writer.writerow(
                [row["model_kind"], row["k"], row["n_pairs"], row["feature_hash"]]
                + [repr(row["train"][c]) for c in metric_cols]
                + [repr(row["test"][c]) for c in metric_cols]
            )
        return out.getvalue()


def feature_hash(names) -> str:
    digest = hashlib.sha256("\n".join(names).encode("utf-8")).hexdigest()
    return digest[:16]


def _model_config(kind: str, overrides: dict | None):
    overrides = dict(overrides or {})
    if kind == "gbdt":
        return GbdtConfig(**overrides)
    if kind == "ebm":
        return EbmConfig(**overrides)
    return overrides  # lr and pltr take keyword arguments directly


def train_model(kind: str, train: Dataset, config: dict | None = None):
    """Fit one model kind on the given (already weighted) training data.

    LR standardizes internally and stores the train statistics on the model,
    so every kind predicts from raw feature values.
    """
    if kind == "lr":
        means = train.X.mean(axis=0)
        stds = train.X.std(axis=0)
        std_data = Dataset(zscore(train.X, means, stds), train.y, train.w,
                           list(train.feature_names))
        model = fit_logistic(std_data, **(config or {}))
        model.means, model.stds = means, stds
        return model
    if kind == "gbdt":
        return fit_gbdt(train, _model_config("gbdt", config))
    if kind == "ebm":
        return fit_ebm(train, _model_config("ebm", config))
    if kind == "pltr":
        return fit_pltr(train, **(config or {}))
    raise DataError(f"unknown model kind {kind!r}; options: {MODEL_KINDS}")


def step1_train_base(
    train: Dataset,
    test: Dataset,
    kind: str,
    config: dict | None = None,
    threshold: float = 0.5,
):
    """Train the reference model on every feature with class weights."""
    return _fit_scored(train, test, train.feature_names, kind, config, threshold)


def step2_rank(model, data: Dataset, method: str) -> RankedFeatures:
    """Rank encoded features by importance in the fitted model.

    Pairings: ``coef`` needs an LR fitted on standardized features, ``shap``
    a GBDT, ``ebm`` an additive shape model.
    """
    if method == "coef":
        if not isinstance(model, LinearModel):
            raise DataError("coef ranking requires a linear model")
        if model.stds is None:
            raise DataError("coef ranking requires standardization statistics")
        return rank_from_scores(
            model.feature_names, np.abs(model.coef).tolist(), method="coef"
        )
    if method == "shap":
        if not isinstance(model, GbdtModel):
            raise DataError("shap ranking requires a gbdt model")
        return global_importance(model, data, max_rows=4096)
    if method == "ebm":
        if not isinstance(model, EbmModel):
            raise DataError("ebm ranking requires an ebm model")
        return importance_ebm(model, data)
    raise DataError(f"unknown ranking method {method!r}; options: {'|'.join(METHODS)}")


def step3_train_reduced(
    train: Dataset,
    test: Dataset,
    ranked: RankedFeatures,
    k: int,
    kind: str,
    config: dict | None = None,
    threshold: float = 0.5,
):
    """Restrict both splits to the top-k ranked columns and retrain."""
    return _fit_scored(train, test, ranked.top(k), kind, config, threshold)


def _fit_scored(train, test, names, kind, config, threshold, report=None):
    """Fit ``kind`` on the ``names`` columns of the class-weighted train
    split and score the test split. With ``report``, also score the train
    split and add the row. Returns (model, test metrics)."""
    if not 1 <= len(names) <= train.d:
        raise DataError(f"k must be in [1, {train.d}], got {len(names)}")
    red_train = apply_class_weights(train.select_features(names))
    model = train_model(kind, red_train, config)
    test_rep = evaluate_scores(
        model.predict_proba(test.select_features(names).X), test.y, threshold
    )
    if report is not None:
        train_rep = evaluate_scores(model.predict_proba(red_train.X), train.y, threshold)
        report.add_row(kind, names, train_rep, test_rep)
    return model, test_rep


def sweep_k(
    train: Dataset,
    test: Dataset,
    ranked: RankedFeatures,
    ks: list,
    kinds: list,
    configs: dict | None = None,
    epsilon: float = PLATEAU_EPS,
    threshold: float = 0.5,
) -> ExperimentReport:
    """One row per (kind, k); records the AUPRC plateau point per kind.

    The plateau is the smallest k whose AUPRC gain to the next larger k
    falls below ``epsilon``.
    """
    if list(ks) != sorted(ks):
        raise DataError("ks must be sorted ascending")
    configs = configs or {}
    report = ExperimentReport(
        config={"ks": list(ks), "kinds": list(kinds), "epsilon": epsilon}
    )
    auprc_by_kind = {kind: [] for kind in kinds}
    for kind in kinds:
        for k in ks:
            _, rep = _fit_scored(
                train, test, ranked.top(k), kind, configs.get(kind), threshold, report
            )
            auprc_by_kind[kind].append(rep.auprc)
    if len(ks) > 1:
        plateau = {}
        for kind in kinds:
            vals = auprc_by_kind[kind]
            for i in range(len(ks) - 1):
                if vals[i + 1] - vals[i] < epsilon:
                    plateau[kind] = ks[i]
                    break
            else:
                plateau[kind] = ks[-1]
        report.meta["plateau"] = plateau
    return report


def sweep_interactions(
    train: Dataset,
    test: Dataset,
    ranked: RankedFeatures,
    k: int,
    pair_counts,
    config: dict | None = None,
    threshold: float = 0.5,
    mains: EbmModel | None = None,
) -> ExperimentReport:
    """EBM with k features and p pair terms for each p in ``pair_counts``.

    The mains model is fitted once; pair terms are detected on it once and
    added in ranked order, so the p = 0 row is exactly the plain reduced
    model. Counts above the k(k-1)/2 pairs that exist fit all of them, and
    each count is fitted and reported once. ``mains`` may be an EBM already
    fitted on ``train``'s class-weighted top-k columns (stage 3 of
    ``run_full``); it is reused when its columns and config, ``cycles_run``
    aside, are the ones this sweep would fit, and refitted otherwise.
    Reports the maximum relative F1 improvement over p = 0.
    """
    pair_counts = [int(p) for p in pair_counts]
    if pair_counts and min(pair_counts) < 0:
        raise DataError("pair counts must be non-negative")
    names = ranked.top(k)
    available = len(names) * (len(names) - 1) // 2
    pair_counts = sorted({min(p, available) for p in pair_counts})
    red_train = apply_class_weights(train.select_features(names))
    red_test = test.select_features(names)
    ebm_config = _model_config("ebm", dict(config or {}, n_pairs=0))
    if mains is None or not _same_fit(mains, red_train.feature_names, ebm_config):
        mains = fit_ebm(red_train, ebm_config)
    max_pairs = max(pair_counts) if pair_counts else 0
    candidates = detect_pairs(red_train, mains, max_pairs) if max_pairs else []
    report = ExperimentReport(
        config={"k": k, "pair_counts": pair_counts, "ebm": ebm_config.as_dict()}
    )
    f1_base = None
    best_improvement = 0.0
    for p in pair_counts:
        model = fit_pairs(red_train, mains, candidates[:p], ebm_config) if p else mains
        train_rep = evaluate_scores(model.predict_proba(red_train.X), train.y, threshold)
        test_rep = evaluate_scores(model.predict_proba(red_test.X), test.y, threshold)
        report.add_row("ebm", names, train_rep, test_rep, n_pairs=p)
        if p == 0:
            f1_base = test_rep.f1
        elif f1_base and f1_base > 0:
            best_improvement = max(best_improvement, test_rep.f1 / f1_base - 1.0)
    report.meta["pair_candidates"] = [list(pq) for pq in candidates]
    if f1_base is not None:
        report.meta["max_relative_f1_improvement"] = best_improvement
    return report


def _same_fit(model: EbmModel, columns, config: EbmConfig) -> bool:
    """Whether ``model`` is the EBM that ``config`` fits on ``columns``."""
    fitted = {k: v for k, v in model.config.items() if k != "cycles_run"}
    return list(model.feature_names) == list(columns) and fitted == config.as_dict()


def refine_correlation(
    train: Dataset, ranked: RankedFeatures, config: RefinementConfig | None = None
) -> RankedFeatures:
    """Prune correlated features from the ranked pool.

    Walk the ranking: the protected head is always kept; after that a
    feature is kept only if its train Pearson correlation with every
    already-kept feature stays within the threshold. Dropped slots are
    backfilled from the next-ranked unused features until the target size
    is reached. This greedy walk is equivalent to repeatedly dropping the
    lower-ranked member of the worst violating pair and backfilling: both
    keep exactly the highest-ranked conflict-free subset.
    """
    config = config or RefinementConfig()
    if config.pool > len(ranked.names):
        raise DataError(
            f"pool {config.pool} exceeds {len(ranked.names)} ranked features"
        )
    name_to_col = {n: i for i, n in enumerate(train.feature_names)}
    missing = [n for n in ranked.names if n not in name_to_col]
    if missing:
        raise DataError(f"ranked features not in training data: {missing[:3]}")

    Z = zscore(train.X, train.X.mean(axis=0), train.X.std(axis=0))

    def corr(a: str, b: str) -> float:
        return float((Z[:, name_to_col[a]] * Z[:, name_to_col[b]]).mean())

    protected = ranked.names[: config.protected]
    kept = []
    dropped = []
    # candidates: the pool first, then next-ranked features as backfill
    for name in ranked.names:
        if len(kept) == config.target:
            break
        if name in protected:
            kept.append(name)
            continue
        clash = next(
            (other for other in kept if abs(corr(name, other)) > config.threshold),
            None,
        )
        if clash is None:
            kept.append(name)
        else:
            dropped.append({"feature": name, "conflicts_with": clash})
    score_of = dict(zip(ranked.names, ranked.scores))
    meta = {
        "refinement": config.as_dict(),
        "dropped": dropped,
        "reached_target": len(kept) == config.target,
    }
    if len(kept) < config.target:
        meta["diagnostic"] = (
            f"only {len(kept)} of {config.target} features survive the "
            f"|rho| <= {config.threshold} constraint"
        )
    return RankedFeatures(
        names=kept,
        scores=[score_of[n] for n in kept],
        method=ranked.method,
        source=ranked.source,
        meta=meta,
    )


# ---------------------------------------------------------------------------
# full experiment runner


DEFAULT_EXPERIMENT = {
    "dataset": {"preset": "redundant", "n_train": 8000, "n_test": 4000},
    "base_kind": "gbdt",
    "rank_method": "shap",
    "k": 10,
    "reduced_kinds": ["ebm"],
    "model_configs": {"gbdt": {"rounds": 40}},
    "sweep_ks": None,
    "sweep_pairs": None,
    "refinement": None,
    "threshold": 0.5,
}


def _load_experiment_datasets(spec: dict):
    if "preset" in spec:
        train, test, _ = synth.generate(
            spec["preset"],
            n_train=spec.get("n_train", 8000),
            n_test=spec.get("n_test", 4000),
            seed=spec.get("seed", synth.DEFAULT_SEED),
        )
        return train, test
    for key in ("train_csv", "prep_config"):
        if key not in spec:
            raise DataError(f"dataset spec needs 'preset' or '{key}'")
    if not os.path.exists(spec["train_csv"]):
        raise DataError(f"missing dataset path {spec['train_csv']}")
    config = PrepConfig.from_json_file(spec["prep_config"])
    return prepare(read_raw_csv(spec["train_csv"], config), config)


def _stage(n: int, name: str):
    class _StageContext:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            if exc is not None and isinstance(exc, GlassboxError):
                exc.args = (f"stage {n} ({name}): {exc.args[0]}",) + exc.args[1:]
            return False

    return _StageContext()


def _describe_lock(lock_path) -> str:
    """The lock file and the pid it names; a pid that is no live process on
    this host is called stale, with the file to remove. The lock is never
    taken over: a pid from another host sharing the directory would look
    dead here too."""
    try:
        with open(lock_path, encoding="utf-8", errors="replace") as fh:
            owner = fh.read().strip() or "unknown"
    except OSError:  # released meanwhile, or not a file
        owner = "unknown"
    if owner.isdigit() and 0 < int(owner) < 2**31:
        try:
            os.kill(int(owner), 0)
        except ProcessLookupError:
            return (
                f"{lock_path} (pid {owner}): the lock is stale, no process {owner} runs "
                f"on this host; remove {lock_path} if no other host writes here"
            )
        except OSError:  # alive, but owned by another user
            pass
    return f"{lock_path} (pid {owner})"


def run_full(config: dict | str, out_dir) -> ExperimentReport:
    """Execute a configured experiment into ``out_dir``.

    Writes models, rankings, and reports as JSON plus a ``manifest.json``
    with a sha256 per artifact; identical config and inputs give an
    identical manifest. A lock file guards against concurrent writers.
    """
    if isinstance(config, str):
        with open(config, encoding="utf-8") as fh:
            config = json.load(fh)
    merged = dict(DEFAULT_EXPERIMENT)
    merged.update(config)
    config = merged

    os.makedirs(out_dir, exist_ok=True)
    lock_path = os.path.join(out_dir, ".lock")
    try:
        lock_fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise DataError(f"output directory is locked by {_describe_lock(lock_path)}") from None
    try:
        os.write(lock_fd, f"{os.getpid()}\n".encode("ascii"))
    finally:
        os.close(lock_fd)

    artifacts = {}

    def emit(name: str, text: str):
        with write_atomic(os.path.join(out_dir, name)) as fh:
            fh.write(text)  # exactly the text's UTF-8 bytes
        artifacts[name] = hashlib.sha256(text.encode("utf-8")).hexdigest()

    try:
        with _stage(0, "load data"):
            train, test = _load_experiment_datasets(config["dataset"])
        threshold = config.get("threshold", 0.5)
        model_configs = config.get("model_configs") or {}
        report = ExperimentReport(config=config)

        with _stage(1, "train base model"):
            base_kind = config["base_kind"]
            base, _ = _fit_scored(
                train, test, train.feature_names, base_kind,
                model_configs.get(base_kind), threshold, report,
            )
            emit(f"base_{base_kind}.json", persist.dumps(base))

        with _stage(2, "rank features"):
            ranked = step2_rank(base, train, config["rank_method"])
            emit("ranking.json", ranked.to_json())

        with _stage(3, "train reduced models"):
            k = config["k"]
            reduced = {}
            for kind in config["reduced_kinds"]:
                model, _ = _fit_scored(
                    train, test, ranked.top(k), kind, model_configs.get(kind),
                    threshold, report,
                )
                emit(f"reduced_{kind}_k{k}.json", persist.dumps(model))
                reduced[kind] = model

        if config.get("sweep_ks"):
            with _stage(4, "k sweep"):
                sweep = sweep_k(
                    train,
                    test,
                    ranked,
                    config["sweep_ks"],
                    config["reduced_kinds"],
                    model_configs,
                    config.get("plateau_epsilon", PLATEAU_EPS),
                    threshold,
                )
                emit("sweep_k.json", sweep.to_json())

        if config.get("sweep_pairs"):
            with _stage(5, "pair sweep"):
                spec = config["sweep_pairs"]
                sweep = sweep_interactions(
                    train,
                    test,
                    ranked,
                    spec.get("k", k),
                    spec.get("pair_counts", list(range(10))),
                    model_configs.get("ebm"),
                    threshold,
                    mains=reduced.get("ebm"),
                )
                emit("sweep_pairs.json", sweep.to_json())

        if config.get("refinement") is not None:
            with _stage(6, "correlation refinement"):
                refine_cfg = RefinementConfig(**config["refinement"])
                refined = refine_correlation(train, ranked, refine_cfg)
                emit("ranking_refined.json", refined.to_json())
                for kind in config["reduced_kinds"]:
                    model, _ = _fit_scored(
                        train, test, refined.names, kind, model_configs.get(kind),
                        threshold, report,
                    )
                    emit(f"refined_{kind}.json", persist.dumps(model))

        with _stage(7, "write reports"):
            emit("report.json", report.to_json())
            emit("report.csv", report.to_csv())
            manifest = {
                "config_hash": hashlib.sha256(
                    json.dumps(config, sort_keys=True).encode("utf-8")
                ).hexdigest(),
                "artifacts": dict(sorted(artifacts.items())),
            }
            with write_atomic(os.path.join(out_dir, "manifest.json")) as fh:
                fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    finally:
        os.unlink(lock_path)
    return report
