"""Experiment orchestration.

The workflow is: (1) train a reference model on all features, (2) rank
features by importance in that model, (3) retrain a glass-box model on the
top-k features. On top of that sit the k-sweep, the pair-count sweep, the
correlation refinement of the selected set, and ``run_full``, which executes
a whole configured experiment into an output directory with a content-hash
manifest. Everything here is deterministic: no step draws random numbers.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import inspect
import json
import numbers
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import persist, synth
from .attribution import global_importance
from .data import (
    Dataset,
    PrepConfig,
    apply_class_weights,
    check_config,
    check_keys,
    prepare,
    read_json,
    read_raw_csv,
    write_atomic,
    zscore,
)
from .ebm import EbmConfig, detect_pairs, fit_ebm, fit_pairs, importance_ebm
from .errors import DataError, GlassboxError
from .gbdt import GbdtConfig, fit_gbdt
from .linear import fit_logistic
from .metrics import evaluate_scores
from .persist import MODEL_KINDS
from .pltr import fit_pltr
from .ranking import METHODS, RankedFeatures, rank_from_scores

PLATEAU_EPS = 0.002
DEFAULT_PAIR_COUNTS = tuple(range(10))  # the pair sweep's counts when none are given


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


def _dataclass_config(what: str, cls, overrides):
    """``cls(**overrides)`` once ``check_config`` passes them against the
    types of the fields' defaults."""
    check_config(what, overrides, {f.name: type(f.default) for f in dataclasses.fields(cls)})
    return cls(**overrides)


# each model kind's config with nothing overridden: the fields of gbdt's and
# ebm's config dataclasses, and the keyword arguments of the lr and pltr fit
# functions that have a value default (pltr's ``validation`` is a dataset)
_CONFIG_CLASSES = {"gbdt": GbdtConfig, "ebm": EbmConfig}
_DEFAULTS = {
    **{kind: cls().as_dict() for kind, cls in _CONFIG_CLASSES.items()},
    **{kind: {p.name: p.default for p in inspect.signature(fit).parameters.values()
              if p.default is not p.empty and p.default is not None}
       for kind, fit in (("lr", fit_logistic), ("pltr", fit_pltr))},
}


def _model_config(kind: str, overrides) -> dict:
    """The checked config of ``kind``: its defaults updated by ``overrides``,
    as one dict. Each value must have its default's type (pltr's ``lam`` is
    a number, or "auto"). Raises DataError for an unknown kind, a config
    that is not an object, or a key or value the kind does not take."""
    if kind not in MODEL_KINDS:
        raise DataError(f"unknown model kind {kind!r}; options: {MODEL_KINDS}")
    types = {key: float if key == "lam" else type(v) for key, v in _DEFAULTS[kind].items()}
    overrides = {} if overrides is None else overrides
    check_keys(kind, overrides, types)
    check_config(kind, {k: v for k, v in overrides.items() if (k, v) != ("lam", "auto")}, types)
    config = dict(_DEFAULTS[kind], **overrides)
    if kind in _CONFIG_CLASSES:
        _CONFIG_CLASSES[kind](**config)  # the dataclass's own range checks
    return config


def _check_model_configs(configs) -> dict:
    """``configs``, a kind -> config mapping ({} when empty or None), once
    every key names a model kind and every config passes ``_model_config``."""
    configs = configs or {}
    if not isinstance(configs, dict):
        raise DataError(f"model_configs must be an object, got {configs!r}")
    for kind, overrides in configs.items():
        _model_config(kind, overrides)
    return configs


def train_model(kind: str, train: Dataset, config: dict | None = None, fits: dict | None = None):
    """The ``kind`` model that ``config`` fits on ``train`` (class-weighted,
    its columns selected); every fit from a config goes through here.

    ``fits`` is the memo of one run's fits on one train split, keyed by the
    kind, the column names and the checked config; a fit it holds is
    returned, not made again. Without one, a fresh memo is used. LR
    standardizes internally and stores the train statistics on the model,
    so every kind predicts from raw feature values.
    """
    config = _model_config(kind, config)
    fits = {} if fits is None else fits
    key = (kind, tuple(train.feature_names), repr(sorted(config.items())))
    if key in fits:
        return fits[key]
    if kind == "lr":
        means = train.X.mean(axis=0)
        stds = train.X.std(axis=0)
        std_data = Dataset(zscore(train.X, means, stds), train.y, train.w,
                           list(train.feature_names))
        model = fit_logistic(std_data, **config)
        model.means, model.stds = means, stds
    elif kind == "gbdt":
        model = fit_gbdt(train, GbdtConfig(**config))
    elif kind == "ebm":
        model = fit_ebm(train, EbmConfig(**config))
    else:
        model = fit_pltr(train, **config)
    fits[key] = model
    return model


def step1_train_base(
    train: Dataset,
    test: Dataset,
    kind: str,
    config: dict | None = None,
    threshold: float = 0.5,
):
    """Train the reference model on every feature with class weights."""
    return _fit_scored(train, test, train.feature_names, kind, config, threshold)


# the model kind each ranking method ranks
RANKED_KIND = {"coef": "lr", "shap": "gbdt", "ebm": "ebm"}


def step2_rank(model, data: Dataset, method: str) -> RankedFeatures:
    """Rank encoded features by importance in the fitted model, which must
    be of the kind ``method`` ranks (``RANKED_KIND``): ``coef`` an LR fitted
    on standardized features, ``shap`` a GBDT, ``ebm`` an additive shape
    model.
    """
    if method not in RANKED_KIND:
        raise DataError(f"unknown ranking method {method!r}; options: {'|'.join(METHODS)}")
    if persist.model_kind(model) != RANKED_KIND[method]:
        raise DataError(f"{method} ranking requires a {RANKED_KIND[method]} model")
    if method == "coef":
        if model.stds is None:
            raise DataError("coef ranking requires standardization statistics")
        return rank_from_scores(
            model.feature_names, np.abs(model.coef).tolist(), method="coef"
        )
    if method == "shap":
        return global_importance(model, data, max_rows=4096)
    return importance_ebm(model, data)


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


def _fit_scored(train, test, names, kind, config, threshold, report=None, fits=None):
    """Fit ``kind`` on the ``names`` columns of the class-weighted train
    split through the ``fits`` memo (see ``train_model``) and score the
    test split. With ``report``, also score the train split and add the
    row. Returns (model, test metrics)."""
    if not 1 <= len(names) <= train.d:
        raise DataError(f"k must be in [1, {train.d}], got {len(names)}")
    red_train = apply_class_weights(train.select_features(names))
    model = train_model(kind, red_train, config, fits)
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
    fits: dict | None = None,
) -> ExperimentReport:
    """One row per (kind, k); records the AUPRC plateau point per kind.

    The plateau is the smallest k whose AUPRC gain to the next larger k
    falls below ``epsilon``. Models are fitted through the ``fits`` memo
    of ``train`` (see ``train_model``), so a fit an earlier stage made is
    scored, not made again.
    """
    if list(ks) != sorted(ks):
        raise DataError("ks must be sorted ascending")
    configs = _check_model_configs(configs)
    report = ExperimentReport(
        config={"ks": list(ks), "kinds": list(kinds), "epsilon": epsilon}
    )
    auprc_by_kind = {kind: [] for kind in kinds}
    for kind in kinds:
        for k in ks:
            _, rep = _fit_scored(
                train, test, ranked.top(k), kind, configs.get(kind), threshold, report, fits
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
    fits: dict | None = None,
) -> ExperimentReport:
    """EBM with k features and p pair terms for each p in ``pair_counts``.

    The mains model is fitted once; pair terms are detected on it once and
    added in ranked order, so the p = 0 row is exactly the plain reduced
    model. Counts above the k(k-1)/2 pairs that exist fit all of them, and
    each count is fitted and reported once. The mains model is fitted
    through the ``fits`` memo of ``train`` (see ``train_model``), and the
    pair terms boost under its config. Reports the maximum relative F1
    improvement over p = 0.
    """
    pair_counts = [int(p) for p in pair_counts]
    if pair_counts and min(pair_counts) < 0:
        raise DataError("pair counts must be non-negative")
    names = ranked.top(k)
    available = len(names) * (len(names) - 1) // 2
    pair_counts = sorted({min(p, available) for p in pair_counts})
    red_train = apply_class_weights(train.select_features(names))
    red_test = test.select_features(names)
    ebm_config = dict(_model_config("ebm", config), n_pairs=0)
    mains = train_model("ebm", red_train, ebm_config, fits)
    max_pairs = max(pair_counts) if pair_counts else 0
    candidates = detect_pairs(red_train, mains, max_pairs) if max_pairs else []
    report = ExperimentReport(
        config={"k": k, "pair_counts": pair_counts, "ebm": ebm_config}
    )
    f1_base = None
    best_improvement = 0.0
    for p in pair_counts:
        model = fit_pairs(red_train, mains, candidates[:p]) if p else mains
        train_rep = evaluate_scores(model.predict_proba(red_train.X), train.y, threshold)
        test_rep = evaluate_scores(model.predict_proba(red_test.X), test.y, threshold)
        report.add_row("ebm", names, train_rep, test_rep, n_pairs=p)
        del model  # so that the next fit_pairs runs with no pair model's grids alive
        if p == 0:
            f1_base = test_rep.f1
        elif f1_base and f1_base > 0:
            best_improvement = max(best_improvement, test_rep.f1 / f1_base - 1.0)
    report.meta["pair_candidates"] = [list(pq) for pq in candidates]
    if f1_base is not None:
        report.meta["max_relative_f1_improvement"] = best_improvement
    return report


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


# the keys of an experiment config, each with the type of its value; a key
# whose default is None may also be null
_EXPERIMENT_TYPES = {
    "dataset": dict, "base_kind": str, "rank_method": str, "k": int, "reduced_kinds": list,
    "model_configs": dict, "sweep_ks": list, "sweep_pairs": dict, "refinement": dict,
    "threshold": float, "plateau_epsilon": float,
}
# the keys of a dataset spec: a synthetic preset, or a raw CSV and its prep config
_PRESET_TYPES = {"preset": str, "n_train": int, "n_test": int, "seed": int}
_CSV_TYPES = {"train_csv": str, "prep_config": str}


def _check_ints(what: str, key: str, values: list, low: int) -> None:
    if any(isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < low for v in values):
        raise DataError(f"{what} config key {key!r} must be a list of ints >= {low}, got {values!r}")


def _checked_experiment(config: dict):
    """The model configs and the RefinementConfig (or None) of ``config``,
    an experiment config with its defaults merged in, once every part that
    can be checked without the data passes: the keys and value types of the
    config, its dataset spec, ``sweep_pairs`` and ``refinement``; model
    kinds in ``reduced_kinds``; a ``base_kind`` that ``rank_method`` ranks;
    and ``sweep_ks`` sorted. Raises DataError naming the key otherwise."""
    nullable = {key for key, value in DEFAULT_EXPERIMENT.items() if value is None}
    check_config("experiment", {key: value for key, value in config.items()
                                if value is not None or key not in nullable}, _EXPERIMENT_TYPES)
    spec = config["dataset"]
    if "preset" in spec:
        check_config("dataset", spec, _PRESET_TYPES)
        if spec["preset"] not in synth.PRESETS:
            raise DataError(f"dataset config key 'preset' must be one of {synth.PRESETS}, "
                            f"got {spec['preset']!r}")
    else:
        check_config("dataset", spec, _CSV_TYPES)
        missing = [key for key in _CSV_TYPES if key not in spec]
        if missing:
            raise DataError(f"dataset config needs 'preset' or {missing[0]!r}")
    for kind in config["reduced_kinds"]:
        if kind not in MODEL_KINDS:
            raise DataError(f"experiment config key 'reduced_kinds' names {kind!r}, "
                            f"not a model kind; options: {MODEL_KINDS}")
    method = config["rank_method"]
    if method not in RANKED_KIND:
        raise DataError(f"experiment config key 'rank_method' must be one of {METHODS}, "
                        f"got {method!r}")
    if config["base_kind"] != RANKED_KIND[method]:
        raise DataError(f"experiment config key 'base_kind' must be {RANKED_KIND[method]!r}, "
                        f"the kind rank_method {method!r} ranks, got {config['base_kind']!r}")
    if config["sweep_ks"] is not None:
        _check_ints("experiment", "sweep_ks", config["sweep_ks"], 1)
        if config["sweep_ks"] != sorted(config["sweep_ks"]):
            raise DataError(f"experiment config key 'sweep_ks' must be sorted ascending, "
                            f"got {config['sweep_ks']!r}")
    if config["sweep_pairs"] is not None:
        check_config("sweep_pairs", config["sweep_pairs"], {"k": int, "pair_counts": list})
        _check_ints("sweep_pairs", "pair_counts", config["sweep_pairs"].get("pair_counts", []), 0)
    refinement = config["refinement"]
    if refinement is not None:
        refinement = _dataclass_config("refinement", RefinementConfig, refinement)
    return _check_model_configs(config["model_configs"]), refinement


def _check_widths(config: dict, refinement, d: int) -> None:
    """DataError naming the key unless every k of ``config`` is in [1, d],
    and the refinement pool at most d, for data ``d`` columns wide."""
    ks = [("experiment", "k", config["k"])]
    ks += [("experiment", "sweep_ks", k) for k in config["sweep_ks"] or []]
    if config["sweep_pairs"] is not None:
        ks.append(("sweep_pairs", "k", config["sweep_pairs"].get("k", config["k"])))
    for what, key, k in ks:
        if not 1 <= k <= d:
            raise DataError(f"{what} config key {key!r} must be in [1, {d}], the data's "
                            f"width, got {k!r}")
    if refinement is not None and refinement.pool > d:
        raise DataError(f"refinement config key 'pool' must be at most {d}, the data's "
                        f"width, got {refinement.pool!r}")


def _load_experiment_datasets(spec: dict):
    if "preset" in spec:
        train, test, _ = synth.generate(
            spec["preset"],
            n_train=spec.get("n_train", 8000),
            n_test=spec.get("n_test", 4000),
            seed=spec.get("seed", synth.DEFAULT_SEED),
        )
        return train, test
    if not os.path.exists(spec["train_csv"]):
        raise DataError(f"missing dataset path {spec['train_csv']}")
    config = PrepConfig.from_json_file(spec["prep_config"])
    return prepare(read_raw_csv(spec["train_csv"], config), config)


@contextlib.contextmanager
def _stage(n: int, name: str):
    """Prefix a toolkit error raised inside with ``stage N (name): ``."""
    try:
        yield
    except GlassboxError as exc:
        exc.args = (f"stage {n} ({name}): {exc.args[0]}",) + exc.args[1:]
        raise


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
    The config is checked before the output directory is made, and every
    k against the data's width before stage 1, so a malformed config
    writes nothing. Every stage fits through one memo, so a model two
    stages need is fitted once.
    """
    if isinstance(config, str):
        config = read_json(config)
    if not isinstance(config, dict):
        raise DataError(f"experiment config must be an object, got {config!r}")
    config = {**DEFAULT_EXPERIMENT, **config}
    model_configs, refine_cfg = _checked_experiment(config)

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

    def fit_reduced(names, artifact: str):
        """Fit, score and report each reduced kind on the ``names`` columns;
        emit each model as ``artifact`` filled in with its kind."""
        for kind in config["reduced_kinds"]:
            model, _ = _fit_scored(
                train, test, names, kind, model_configs.get(kind), threshold, report, fits
            )
            emit(artifact.format(kind=kind), persist.dumps(model))

    try:
        with _stage(0, "load data"):
            train, test = _load_experiment_datasets(config["dataset"])
        _check_widths(config, refine_cfg, train.d)
        threshold = config.get("threshold", 0.5)
        report = ExperimentReport(config=config)
        fits = {}  # the memo of this run's fits on `train`

        with _stage(1, "train base model"):
            base_kind = config["base_kind"]
            base, _ = _fit_scored(
                train, test, train.feature_names, base_kind,
                model_configs.get(base_kind), threshold, report, fits,
            )
            emit(f"base_{base_kind}.json", persist.dumps(base))

        with _stage(2, "rank features"):
            ranked = step2_rank(base, train, config["rank_method"])
            emit("ranking.json", ranked.to_json())

        with _stage(3, "train reduced models"):
            k = config["k"]
            fit_reduced(ranked.top(k), f"reduced_{{kind}}_k{k}.json")

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
                    fits=fits,
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
                    spec.get("pair_counts", DEFAULT_PAIR_COUNTS),
                    model_configs.get("ebm"),
                    threshold,
                    fits=fits,
                )
                emit("sweep_pairs.json", sweep.to_json())

        if refine_cfg is not None:
            with _stage(6, "correlation refinement"):
                refined = refine_correlation(train, ranked, refine_cfg)
                emit("ranking_refined.json", refined.to_json())
                fit_reduced(refined.names, "refined_{kind}.json")

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
