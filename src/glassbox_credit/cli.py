"""Command-line front end.

Every subcommand reads and writes explicit paths; nothing is configured
through environment variables. Exit codes: 0 success, 1 usage error,
2 data error, 3 numerical/convergence error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__, persist, synth
from .attribution import tree_shap
from .data import (
    PrepConfig,
    cache_dataset,
    load_cached_dataset,
    prepare,
    read_json,
    read_raw_csv,
    write_atomic,
)
from .ebm import EbmModel, export_shape
from .errors import ConvergenceError, DataError, ModelFormatError
from .gbdt import GbdtModel
from .metrics import evaluate_scores
from .pipeline import (
    DEFAULT_PAIR_COUNTS,
    PLATEAU_EPS,
    RefinementConfig,
    refine_correlation,
    run_full,
    step1_train_base,
    step2_rank,
    step3_train_reduced,
    sweep_interactions,
    sweep_k,
)
from .ranking import METHODS, RankedFeatures

PLTR_FEATURE_WARNING = 40


def _read_ranking(path) -> RankedFeatures:
    obj = read_json(path)
    try:
        return RankedFeatures.from_dict(obj)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def _write(path, text):
    with write_atomic(path) as fh:
        fh.write(text)


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")


def _warn_pltr_size(kind: str, d: int) -> None:
    if kind == "pltr" and d > PLTR_FEATURE_WARNING:
        print(
            f"warning: pltr with {d} features fits "
            f"{d * (d - 1) // 2} pair splits; expect a long run",
            file=sys.stderr,
        )


def cmd_prepare(args) -> int:
    config = PrepConfig.from_json_file(args.config)
    train, test, stats = prepare(read_raw_csv(args.input, config), config, return_stats=True)
    cache_dataset(train, args.out_train, args.out_train + ".manifest.json", stats)
    cache_dataset(test, args.out_test, args.out_test + ".manifest.json", stats)
    print(f"train rows {train.n}, test rows {test.n}, {train.d} encoded columns")
    return 0


def cmd_synth(args) -> int:
    synth.write_csv(
        args.preset,
        args.out,
        config_path=args.out_config,
        n_train=args.n_train,
        n_test=args.n_test,
        seed=args.seed,
    )
    print(f"wrote {args.preset} preset to {args.out}")
    return 0


def cmd_train(args) -> int:
    train = load_cached_dataset(args.train)
    test = load_cached_dataset(args.test)
    config = read_json(args.model_config) if args.model_config else None
    _warn_pltr_size(args.kind, train.d)
    model, report = step1_train_base(train, test, args.kind, config, args.threshold)
    persist.save_model(model, args.out_model)
    print(json.dumps(report.as_dict(), indent=2))
    return 0


def cmd_rank(args) -> int:
    model = persist.load_model(args.model)
    data = load_cached_dataset(args.data)
    ranked = step2_rank(model, data, args.method)
    _write(args.out, ranked.to_json())
    for name in ranked.top(min(10, len(ranked.names))):
        print(name)
    return 0


def cmd_reduce_train(args) -> int:
    train = load_cached_dataset(args.train)
    test = load_cached_dataset(args.test)
    ranked = _read_ranking(args.ranking)
    config = read_json(args.model_config) if args.model_config else None
    _warn_pltr_size(args.kind, args.k)
    model, report = step3_train_reduced(
        train, test, ranked, args.k, args.kind, config, args.threshold
    )
    persist.save_model(model, args.out_model)
    print(json.dumps(report.as_dict(), indent=2))
    return 0


def cmd_sweep_k(args) -> int:
    train = load_cached_dataset(args.train)
    test = load_cached_dataset(args.test)
    ranked = _read_ranking(args.ranking)
    configs = read_json(args.model_config) if args.model_config else None
    report = sweep_k(
        train,
        test,
        ranked,
        args.ks,
        args.kinds.split(","),
        configs,
        args.epsilon,
        args.threshold,
    )
    _write(args.out, report.to_json())
    if "plateau" in report.meta:
        print(json.dumps(report.meta["plateau"]))
    return 0


def cmd_sweep_pairs(args) -> int:
    train = load_cached_dataset(args.train)
    test = load_cached_dataset(args.test)
    ranked = _read_ranking(args.ranking)
    config = read_json(args.model_config) if args.model_config else None
    report = sweep_interactions(
        train, test, ranked, args.k, args.pairs, config, args.threshold
    )
    _write(args.out, report.to_json())
    if "max_relative_f1_improvement" in report.meta:
        print(f"max relative F1 improvement: "
              f"{report.meta['max_relative_f1_improvement']:.4%}")
    return 0


def cmd_refine(args) -> int:
    train = load_cached_dataset(args.train)
    ranked = _read_ranking(args.ranking)
    config = RefinementConfig(
        pool=args.pool,
        target=args.target,
        protected=args.protected,
        threshold=args.tau,
    )
    refined = refine_correlation(train, ranked, config)
    _write(args.out, refined.to_json())
    print(f"kept {len(refined.names)} features, "
          f"dropped {len(refined.meta['dropped'])}")
    return 0


def _project(data, model):
    """Restrict a dataset to the model's feature columns when it is wider."""
    names = getattr(model, "feature_names", None)
    if names is None or list(data.feature_names) == list(names):
        return data
    missing = [n for n in names if n not in data.feature_names]
    if missing:
        raise DataError(f"dataset lacks model features: {missing[:3]}")
    return data.select_features(list(names))


def cmd_evaluate(args) -> int:
    model = persist.load_model(args.model)
    data = _project(load_cached_dataset(args.data), model)
    report = evaluate_scores(model.predict_proba(data.X), data.y, args.threshold)
    text = json.dumps(report.as_dict(), indent=2)
    if args.out:
        _write(args.out, text + "\n")
    print(text)
    return 0


def cmd_explain(args) -> int:
    model = persist.load_model(args.model)
    data = _project(load_cached_dataset(args.data), model)
    if not 0 <= args.row < data.n:
        raise DataError(f"row {args.row} out of range [0, {data.n})")
    x = data.X[args.row]
    if isinstance(model, GbdtModel):
        att = tree_shap(model, x)
        header = "row,base_value," + ",".join(model.feature_names)
        line = f"{args.row},{att.base_value!r}," + ",".join(
            repr(float(v)) for v in att.values
        )
    elif isinstance(model, EbmModel):
        terms = model.term_contributions(x)
        header = "row," + ",".join(name for name, _ in terms)
        line = f"{args.row}," + ",".join(repr(v) for _, v in terms)
    else:
        raise DataError("explain supports gbdt (attributions) and ebm (terms)")
    text = header + "\n" + line + "\n"
    if args.out:
        _write(args.out, text)
    print(text, end="")
    return 0


def cmd_export_shape(args) -> int:
    model = persist.load_model(args.model)
    if not isinstance(model, EbmModel):
        raise DataError("export-shape requires an ebm model")
    if args.feature not in model.feature_names:
        raise DataError(f"unknown feature {args.feature!r}")
    export_shape(model, model.feature_names.index(args.feature), args.out)
    print(f"wrote shape of {args.feature} to {args.out}")
    return 0


def cmd_run(args) -> int:
    run_full(args.config or {}, args.out_dir)
    print(f"experiment complete; manifest at {args.out_dir}/manifest.json")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glassbox-credit",
        description="Interpretable credit scoring: reference model, "
        "attribution-based feature selection, glass-box retraining.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_threshold(p):
        p.add_argument("--threshold", type=float, default=0.5,
                       help="probability cut for F1 / balanced accuracy")

    p = sub.add_parser("prepare", help="ingest a raw CSV into cached datasets")
    p.add_argument("--input", required=True)
    p.add_argument("--config", required=True, help="prep-config JSON")
    p.add_argument("--out-train", required=True)
    p.add_argument("--out-test", required=True)
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("synth", help="generate a synthetic benchmark CSV")
    p.add_argument("--preset", default="additive", choices=sorted(synth.PRESETS))
    p.add_argument("--out", required=True)
    p.add_argument("--out-config", default=None)
    p.add_argument("--n-train", type=int, default=synth.DEFAULT_N_TRAIN)
    p.add_argument("--n-test", type=int, default=synth.DEFAULT_N_TEST)
    p.add_argument("--seed", type=int, default=synth.DEFAULT_SEED)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model on all features")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--kind", required=True, choices=persist.MODEL_KINDS)
    p.add_argument("--model-config", default=None, help="JSON config overrides")
    p.add_argument("--out-model", required=True)
    add_threshold(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("rank", help="rank features by importance in a model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("reduce-train", help="retrain on the top-k features")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--ranking", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--kind", required=True, choices=persist.MODEL_KINDS)
    p.add_argument("--model-config", default=None)
    p.add_argument("--out-model", required=True)
    add_threshold(p)
    p.set_defaults(func=cmd_reduce_train)

    p = sub.add_parser("sweep-k", help="performance versus feature count")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--ranking", required=True)
    p.add_argument("--ks", type=_int_list, required=True, help="e.g. 4,8,12")
    p.add_argument("--kinds", default="ebm", help="comma list of model kinds")
    p.add_argument("--model-config", default=None,
                   help="JSON object: kind -> config overrides")
    p.add_argument("--epsilon", type=float, default=PLATEAU_EPS,
                   help="AUPRC gain below this marks the plateau")
    p.add_argument("--out", required=True)
    add_threshold(p)
    p.set_defaults(func=cmd_sweep_k)

    p = sub.add_parser("sweep-pairs", help="EBM performance versus pair count")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--ranking", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--pairs", type=_int_list, default=list(DEFAULT_PAIR_COUNTS),
                   help="pair counts, e.g. 0,1,2,3")
    p.add_argument("--model-config", default=None)
    p.add_argument("--out", required=True)
    add_threshold(p)
    p.set_defaults(func=cmd_sweep_pairs)

    p = sub.add_parser("refine", help="drop correlated features from a ranking")
    p.add_argument("--train", required=True)
    p.add_argument("--ranking", required=True)
    p.add_argument("--pool", type=int, default=RefinementConfig.pool)
    p.add_argument("--target", type=int, default=RefinementConfig.target)
    p.add_argument("--protected", type=int, default=RefinementConfig.protected)
    p.add_argument("--tau", type=float, default=RefinementConfig.threshold)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("evaluate", help="score a saved model on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None)
    add_threshold(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("explain", help="per-row attributions or EBM terms")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--row", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("export-shape", help="export one EBM shape as CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--feature", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_shape)

    p = sub.add_parser("run", help="run a configured experiment end to end")
    p.add_argument("--config", default=None, help="experiment JSON (default preset)")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; the contract here is 1
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except (DataError, ModelFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
