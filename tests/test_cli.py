import csv
import inspect
import json
import os
import subprocess
import sys

import pytest

from glassbox_credit.cli import main


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_usage_errors_exit_1(capsys):
    assert run_cli("frobnicate") == 1
    assert run_cli("train", "--kind", "gbdt") == 1
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert run_cli("--help") == 0
    capsys.readouterr()


def test_missing_input_exits_2(tmp_path, capsys):
    code = run_cli(
        "evaluate", "--model", tmp_path / "no.json", "--data", tmp_path / "no.npz"
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_cached_csv_exits_2(tmp_path, capsys):
    ragged = tmp_path / "train.csv"
    ragged.write_text("__label__,__weight__,a\n1.0,1.0,0.5\n0.0,1.0\n")
    code = run_cli("train", "--train", ragged, "--test", ragged, "--kind", "lr",
                   "--out-model", tmp_path / "model.json")
    assert code == 2
    assert "line 3" in capsys.readouterr().err
    assert not (tmp_path / "model.json").exists()


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "glassbox_credit.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0


IMPORT_PROBE = """
import json, pkgutil, sys
import glassbox_credit, glassbox_credit.cli
package = [m.name for m in pkgutil.iter_modules(glassbox_credit.__path__)]
print(json.dumps({"package": package, "loaded": sorted(sys.modules)}))
"""


def test_cli_import_loads_no_scipy():
    """The runtime needs numpy only: importing the CLI, which imports every
    module of the package, loads no scipy and none of what it drags in."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True, check=True
    )
    probe = json.loads(proc.stdout)
    loaded = set(probe["loaded"])
    assert {f"glassbox_credit.{name}" for name in probe["package"]} <= loaded
    heavy = sorted(
        m for m in loaded
        if m.split(".")[0] == "scipy" or m == "numpy.f2py" or m.startswith("numpy.f2py.")
    )
    assert heavy == []


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """synth -> prepare -> train -> rank -> reduce-train chain."""
    root = tmp_path_factory.mktemp("cli")
    raw, cfg = root / "raw.csv", root / "prep.json"
    assert run_cli("synth", "--preset", "additive", "--out", raw,
                   "--out-config", cfg, "--n-train", 2500, "--n-test", 1200) == 0
    train, test = root / "train.npz", root / "test.npz"
    assert run_cli("prepare", "--input", raw, "--config", cfg,
                   "--out-train", train, "--out-test", test) == 0
    gbdt_cfg = root / "gbdt_cfg.json"
    gbdt_cfg.write_text(json.dumps({"rounds": 20}))
    model = root / "gbdt.json"
    assert run_cli("train", "--train", train, "--test", test, "--kind", "gbdt",
                   "--model-config", gbdt_cfg, "--out-model", model) == 0
    ranking = root / "ranking.json"
    assert run_cli("rank", "--model", model, "--data", train,
                   "--method", "shap", "--out", ranking) == 0
    ebm_cfg = root / "ebm_cfg.json"
    ebm_cfg.write_text(json.dumps({"rounds": 200}))
    ebm = root / "ebm.json"
    assert run_cli("reduce-train", "--train", train, "--test", test,
                   "--ranking", ranking, "--k", 5, "--kind", "ebm",
                   "--model-config", ebm_cfg, "--out-model", ebm) == 0
    return {"root": root, "train": train, "test": test, "model": model,
            "ranking": ranking, "ebm": ebm}


def test_chain_artifacts_valid(artifacts):
    ranking = json.loads(artifacts["ranking"].read_text())
    assert ranking["method"] == "shap"
    assert len(ranking["features"]) == 50
    model = json.loads(artifacts["ebm"].read_text())
    assert model["model_kind"] == "ebm"
    assert len(model["payload"]["feature_names"]) == 5


def test_evaluate_round_trip(artifacts, capsys):
    out = artifacts["root"] / "eval.json"
    assert run_cli("evaluate", "--model", artifacts["ebm"],
                   "--data", artifacts["test"], "--out", out) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    assert 0.5 < report["auroc"] <= 1.0


def test_evaluate_damaged_model_exits_2(artifacts, capsys):
    env = json.loads(artifacts["model"].read_text())
    tree = env["payload"]["trees"][0]
    tree["left"][0] = 999  # the root's left child does not exist
    damaged = artifacts["root"] / "damaged.json"
    damaged.write_text(json.dumps(env))
    assert run_cli("evaluate", "--model", damaged, "--data", artifacts["test"]) == 2
    assert "children outside" in capsys.readouterr().err


def test_evaluate_non_finite_model_exits_2(artifacts, capsys):
    env = json.loads(artifacts["model"].read_text())
    env["payload"]["trees"][0]["threshold"][0] = float("nan")  # json writes a NaN literal
    damaged = artifacts["root"] / "damaged_nan.json"
    damaged.write_text(json.dumps(env))
    capsys.readouterr()
    assert run_cli("evaluate", "--model", damaged, "--data", artifacts["test"]) == 2
    assert "must be finite" in capsys.readouterr().err


def _fail_replace(src, dst):
    raise OSError("disk full")


def test_failed_out_write_keeps_old_file(artifacts, tmp_path, monkeypatch, capsys):
    out = tmp_path / "eval.json"
    out.write_text("old\n")
    evaluate = ("evaluate", "--model", artifacts["ebm"], "--data", artifacts["test"], "--out", out)
    monkeypatch.setattr(os, "replace", _fail_replace)
    assert run_cli(*evaluate) == 2
    assert out.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["eval.json"]
    monkeypatch.undo()
    assert run_cli(*evaluate) == 0
    capsys.readouterr()
    assert 0.5 < json.loads(out.read_text())["auroc"] <= 1.0


def test_out_to_dev_stdout(artifacts):
    proc = subprocess.run(
        [sys.executable, "-m", "glassbox_credit.cli", "evaluate", "--model", str(artifacts["ebm"]),
         "--data", str(artifacts["test"]), "--out", "/dev/stdout"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    # the report once through --out, then once printed
    half = len(proc.stdout) // 2
    assert proc.stdout == 2 * proc.stdout[:half]
    assert 0.5 < json.loads(proc.stdout[:half])["auroc"] <= 1.0


def test_evaluate_damaged_pltr_exits_2(artifacts, capsys):
    pltr = artifacts["root"] / "pltr.json"
    assert run_cli("reduce-train", "--train", artifacts["train"], "--test", artifacts["test"],
                   "--ranking", artifacts["ranking"], "--k", 3, "--kind", "pltr",
                   "--out-model", pltr) == 0
    env = json.loads(pltr.read_text())
    env["payload"]["stumps"][0]["feature"] = 7  # the model has 3 features
    damaged = artifacts["root"] / "damaged_pltr.json"
    damaged.write_text(json.dumps(env))
    capsys.readouterr()
    assert run_cli("evaluate", "--model", damaged, "--data", artifacts["test"]) == 2
    assert "outside [0, 3)" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["coef", "means", "stds"])
def test_evaluate_damaged_lr_exits_2(artifacts, capsys, key):
    lr = artifacts["root"] / "lr.json"
    if not lr.exists():
        assert run_cli("train", "--train", artifacts["train"], "--test", artifacts["test"],
                       "--kind", "lr", "--out-model", lr) == 0
    env = json.loads(lr.read_text())
    assert env["payload"]["means"] is not None
    del env["payload"][key][2:]  # the model has 50 features
    damaged = artifacts["root"] / f"damaged_lr_{key}.json"
    damaged.write_text(json.dumps(env))
    capsys.readouterr()
    assert run_cli("evaluate", "--model", damaged, "--data", artifacts["test"]) == 2
    assert "for 50" in capsys.readouterr().err


def test_explain_local_accuracy(artifacts, capsys):
    import math

    from glassbox_credit import persist
    from glassbox_credit.data import load_cached_dataset

    out = artifacts["root"] / "explain.csv"
    assert run_cli("explain", "--model", artifacts["model"],
                   "--data", artifacts["test"], "--row", 3, "--out", out) == 0
    capsys.readouterr()
    with open(out, newline="") as fh:
        row = next(csv.DictReader(fh))
    total = float(row["base_value"]) + sum(
        float(v) for k, v in row.items() if k not in ("row", "base_value")
    )
    model = persist.load_model(artifacts["model"])
    data = load_cached_dataset(artifacts["test"])
    p = float(model.predict_proba(data.X[3:4])[0])
    assert abs(total - math.log(p / (1.0 - p))) < 1e-9


def test_export_shape(artifacts):
    ranking = json.loads(artifacts["ranking"].read_text())
    feature = ranking["features"][0]["name"]
    out = artifacts["root"] / "shape.csv"
    assert run_cli("export-shape", "--model", artifacts["ebm"],
                   "--feature", feature, "--out", out) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and set(rows[0]) == {"bin_low", "bin_high", "score", "train_count"}
    assert run_cli("export-shape", "--model", artifacts["ebm"],
                   "--feature", "nope", "--out", out) == 2


def test_refine_cli(artifacts):
    out = artifacts["root"] / "refined.json"
    assert run_cli("refine", "--train", artifacts["train"],
                   "--ranking", artifacts["ranking"], "--pool", 10,
                   "--target", 6, "--protected", 3, "--out", out) == 0
    doc = json.loads(out.read_text())
    assert len(doc["features"]) == 6


def test_cli_defaults_are_the_library_defaults():
    from glassbox_credit import pipeline, synth
    from glassbox_credit.cli import build_parser

    parse = build_parser().parse_args
    refine = parse(["refine", "--train", "t", "--ranking", "r", "--out", "o"])
    library = pipeline.RefinementConfig()
    assert (refine.pool, refine.target, refine.protected, refine.tau) == (
        library.pool, library.target, library.protected, library.threshold)
    sweep = parse(["sweep-k", "--train", "t", "--test", "t", "--ranking", "r", "--ks", "2",
                   "--out", "o"])
    assert sweep.epsilon == pipeline.PLATEAU_EPS
    assert sweep.epsilon == inspect.signature(pipeline.sweep_k).parameters["epsilon"].default
    pairs = parse(["sweep-pairs", "--train", "t", "--test", "t", "--ranking", "r", "--k", "2",
                   "--out", "o"])
    assert pairs.pairs == list(pipeline.DEFAULT_PAIR_COUNTS)
    made = parse(["synth", "--out", "o"])
    written = inspect.signature(synth.write_csv).parameters
    assert made.n_train == written["n_train"].default
    assert made.n_test == written["n_test"].default
    assert made.seed == written["seed"].default


def test_run_subcommand(tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "dataset": {"preset": "additive", "n_train": 1000, "n_test": 500},
        "model_configs": {"gbdt": {"rounds": 10}, "ebm": {"rounds": 100}},
        "k": 4,
    }))
    out = tmp_path / "run"
    assert run_cli("run", "--config", cfg, "--out-dir", out) == 0
    assert (out / "manifest.json").exists()


@pytest.fixture(scope="module")
def small_cached(tmp_path_factory):
    """A 60-row, 2-column cached dataset: enough for any kind to start a fit."""
    import numpy as np

    from glassbox_credit.data import Dataset, cache_dataset

    rng = np.random.default_rng(3)
    X = rng.standard_normal((60, 2))
    y = (X[:, 0] + 0.5 * rng.standard_normal(60) > 0).astype(float)
    path = tmp_path_factory.mktemp("small") / "data.csv"
    cache_dataset(Dataset(X, y, np.ones(60), ["a", "b"]), path, str(path) + ".manifest.json")
    return path


MALFORMED_MODEL_CONFIGS = [
    (kind, config)
    for kind in ("lr", "gbdt", "ebm", "pltr")
    for config in ({"bogus": 1}, [1])
] + [
    ("gbdt", {"rounds": "x"}),
    ("gbdt", {"rounds": True}),
    ("gbdt", {"eta": False}),
    ("ebm", {"learning_rate": "x"}),
    ("ebm", {"early_stopping": 1}),
    ("pltr", {"lam": "x"}),
    ("pltr", {"lam": True}),
    ("lr", {"tol": "x"}),
    ("lr", {"max_iter": 2.5}),
    ("pltr", {"gamma": "x"}),
    ("pltr", {"include_original": "no"}),
]


@pytest.mark.parametrize(("kind", "config"), MALFORMED_MODEL_CONFIGS)
def test_train_rejects_a_malformed_model_config(small_cached, tmp_path, capsys, kind, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    model = tmp_path / "model.json"
    code = run_cli("train", "--train", small_cached, "--test", small_cached, "--kind", kind,
                   "--model-config", cfg, "--out-model", model)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert not model.exists()


@pytest.mark.parametrize(
    ("kind", "config"),
    [("lr", {"tol": 1e-5, "max_iter": 20, "ridge": 0}),
     ("pltr", {"lam": 0, "gamma": 2, "include_original": False}),
     ("pltr", {"lam": "auto"})],
)
def test_train_takes_lr_and_pltr_configs(small_cached, tmp_path, kind, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    model = tmp_path / "model.json"
    assert run_cli("train", "--train", small_cached, "--test", small_cached, "--kind", kind,
                   "--model-config", cfg, "--out-model", model) == 0
    assert model.exists()


MALFORMED_RANKINGS = [
    ({"method": "shap"}, "ranking lacks key 'features'"),
    ({"method": "shap", "features": [["a", 1]]}, "features[0]"),
    ({"method": "shap", "features": [{"name": "a", "score": 1.0}, {"name": "b"}]},
     "features[1]"),
    ({"method": "shap", "features": [{"name": "a", "score": float("nan")}]}, "features[0]"),
    ({"method": "shap", "features": [], "meta": []}, "'meta' must be dict"),
    ([1], "must be an object"),
]
# each command that reads --ranking, with its arguments besides the data,
# the ranking and the output
RANKING_COMMANDS = {
    "refine": [],
    "reduce-train": ["--k", 1, "--kind", "lr"],
    "sweep-k": ["--ks", "1", "--kinds", "lr"],
    "sweep-pairs": ["--k", 2],
}


@pytest.mark.parametrize("command", RANKING_COMMANDS)
@pytest.mark.parametrize("ranking,message", MALFORMED_RANKINGS,
                         ids=["no-features", "feature-pair", "no-score", "nan-score",
                              "meta-list", "not-an-object"])
def test_malformed_ranking_exits_2(small_cached, tmp_path, capsys, command, ranking, message):
    path, out = tmp_path / "ranking.json", tmp_path / "out.json"
    path.write_text(json.dumps(ranking))
    argv = [command, "--train", small_cached, "--ranking", path, *RANKING_COMMANDS[command],
            "--out-model" if command == "reduce-train" else "--out", out]
    if command != "refine":
        argv += ["--test", small_cached]
    code = run_cli(*argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {path}: ") and message in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "configs",
    [{"ebn": {"rounds": 5}, "lr": {}}, {"lr": {"tol": "x"}}, [1]],
    ids=["unknown-kind", "bad-value", "not-an-object"],
)
def test_sweep_k_rejects_a_malformed_model_config(small_cached, tmp_path, capsys, configs):
    from glassbox_credit.ranking import RankedFeatures

    ranking = tmp_path / "ranking.json"
    ranking.write_text(RankedFeatures(["a", "b"], [1.0, 0.5], "coef", "lr").to_json())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(configs))
    out = tmp_path / "sweep.json"
    code = run_cli("sweep-k", "--train", small_cached, "--test", small_cached, "--ranking",
                   ranking, "--ks", "1,2", "--kinds", "lr", "--model-config", cfg, "--out", out)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "changes",
    [
        {"model_configs": {"gbdt": {"depth": 3}}},
        {"model_configs": {"gbdt": {"rounds": 2}, "ebm": {"learning_rate": "x"}}},
        {"model_configs": {"forest": {}}},
        {"model_configs": [1]},
        {"model_configs": {"gbdt": {"rounds": 2}, "pltr": {"include_original": "no"}}},
        {"refinement": {"pool": 6, "target": 4, "protected": 2, "tau": 0.5}},
        {"refinement": {"pool": 6, "target": 4, "protected": 2, "threshold": "x"}},
        {"refinement": [6, 4, 2]},
    ],
    ids=["gbdt-key", "ebm-value", "kind", "not-an-object", "pltr-value", "refinement-key",
         "refinement-value", "refinement-not-an-object"],
)
def test_run_rejects_a_malformed_config_before_writing(tmp_path, capsys, changes):
    config = {"dataset": {"preset": "additive", "n_train": 300, "n_test": 100},
              "model_configs": {"gbdt": {"rounds": 2}}, "k": 3}
    config.update(changes)
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "run"
    code = run_cli("run", "--config", cfg, "--out-dir", out)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


RUN_CONFIG = {"dataset": {"preset": "additive", "n_train": 300, "n_test": 100},
              "model_configs": {"gbdt": {"rounds": 2}}, "k": 3}

# (changes to RUN_CONFIG, the key the error names); the schema states each
# of the first six too, but neither an order nor the data's width
MALFORMED_EXPERIMENTS = [
    pytest.param({"k": "10"}, "'k'", id="k-type"),
    pytest.param({"dataset": {"preset": "additive", "n_train": "300"}}, "'n_train'",
                 id="dataset-value"),
    pytest.param({"sweep_pairs": {"k": 10, "pair_counts": 3}}, "'pair_counts'",
                 id="pair-counts-type"),
    pytest.param({"reduced_kinds": "ebm"}, "'reduced_kinds'", id="reduced-kinds-type"),
    pytest.param({"kk": 3}, "'kk'", id="unknown-key"),
    pytest.param({"base_kind": "pltr"}, "'base_kind'", id="base-kind"),
    pytest.param({"sweep_ks": [8, 4]}, "'sweep_ks'", id="unsorted-sweep-ks"),
    pytest.param({"k": 51}, "'k'", id="k-over-width"),
    pytest.param({"sweep_ks": [2, 60]}, "'sweep_ks'", id="sweep-ks-over-width"),
]
SCHEMA_STATES = 6


@pytest.mark.parametrize(("changes", "key"), MALFORMED_EXPERIMENTS)
def test_run_names_the_bad_key_and_writes_nothing_in_dev_mode(tmp_path, changes, key):
    """A malformed experiment config exits 2 in a fresh interpreter under
    ``-X dev -W error``, naming the key, with no traceback and no file in
    the output directory (one width check needs the data, so the empty
    directory may exist)."""
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({**RUN_CONFIG, **changes}))
    out = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "glassbox_credit.cli", "run",
         "--config", str(cfg), "--out-dir", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:") and key in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists() or not any(out.iterdir())


def _experiment_schema():
    path = os.path.join(os.path.dirname(__file__), "..", "schemas", "experiment-config.schema.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _demo_config():
    import ast

    path = os.path.join(os.path.dirname(__file__), "..", "demos", "reproducible_runs.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "config")


def test_experiment_schema_takes_every_valid_config():
    import jsonschema

    from glassbox_credit.pipeline import DEFAULT_EXPERIMENT
    from test_pipeline import _glassbox_family_config, _k_sweep_config

    schema = _experiment_schema()
    for config in (DEFAULT_EXPERIMENT, _demo_config(), RUN_CONFIG,
                   _glassbox_family_config(), _k_sweep_config()):
        jsonschema.validate(config, schema)


@pytest.mark.parametrize(("changes", "key"), MALFORMED_EXPERIMENTS[:SCHEMA_STATES])
def test_experiment_schema_rejects_what_run_rejects(changes, key):
    import jsonschema

    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate({**RUN_CONFIG, **changes}, _experiment_schema())


def test_experiment_schema_lists_every_model_config_key():
    from glassbox_credit import pipeline

    schema_types = {int: "integer", float: "number", bool: "boolean"}
    kinds = _experiment_schema()["properties"]["model_configs"]["properties"]
    assert set(kinds) == set(pipeline.MODEL_KINDS)
    for kind, defaults in pipeline._DEFAULTS.items():
        keys = kinds[kind]["properties"]
        assert kinds[kind]["additionalProperties"] is False
        assert set(keys) == set(defaults)
        for key, value in defaults.items():
            if key != "lam":
                assert keys[key]["type"] == schema_types[type(value)], (kind, key)


@pytest.fixture(scope="module")
def raw_inputs(tmp_path_factory):
    """A small synthetic raw CSV and its prep config."""
    from glassbox_credit import synth

    root = tmp_path_factory.mktemp("raw")
    raw, cfg = root / "raw.csv", root / "prep.json"
    synth.write_csv("additive", raw, cfg, n_train=200, n_test=100)
    return raw, cfg


def _with_byte(data: bytes, at: int) -> bytes:
    """``data`` with its byte at ``at`` replaced by 0xff, never valid UTF-8."""
    return data[:at] + b"\xff" + data[at + 1:]


def _rejected(capsys, code, path, *outputs):
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert str(path) in err
    for out in outputs:
        assert not os.path.exists(out)
    return err


def _prepare(raw, cfg, tmp_path):
    train, test = tmp_path / "train.csv", tmp_path / "test.csv"
    code = run_cli("prepare", "--input", raw, "--config", cfg, "--out-train", train, "--out-test", test)
    return code, (train, test)


def test_non_utf8_raw_csv_exits_2(raw_inputs, tmp_path, capsys):
    raw, cfg = raw_inputs
    data = raw.read_bytes()
    bad = tmp_path / "raw.csv"
    bad.write_bytes(_with_byte(data, len(data) - 20))  # in the last row, past the first read
    code, outputs = _prepare(bad, cfg, tmp_path)
    assert "not UTF-8" in _rejected(capsys, code, bad, *outputs)


def test_non_utf8_prep_config_exits_2(raw_inputs, tmp_path, capsys):
    raw, cfg = raw_inputs
    bad = tmp_path / "prep.json"
    bad.write_bytes(cfg.read_bytes().replace(b"Fully Paid", b"Fully \xffPaid"))
    code, outputs = _prepare(raw, bad, tmp_path)
    assert "not UTF-8" in _rejected(capsys, code, bad, *outputs)


def test_non_utf8_model_file_exits_2(artifacts, tmp_path, capsys):
    bad = tmp_path / "model.json"
    bad.write_bytes(b"\xff\xfe" + artifacts["model"].read_text().encode("utf-16-le"))
    out = tmp_path / "eval.json"
    code = run_cli("evaluate", "--model", bad, "--data", artifacts["test"], "--out", out)
    assert "not UTF-8" in _rejected(capsys, code, bad, out)


def test_non_utf8_cached_dataset_names_the_file(artifacts, tmp_path, capsys):
    data = artifacts["test"].read_bytes()
    bad = tmp_path / "test.csv"
    bad.write_bytes(_with_byte(data, len(data) - 5))
    out = tmp_path / "eval.json"
    code = run_cli("evaluate", "--model", artifacts["model"], "--data", bad, "--out", out)
    err = _rejected(capsys, code, bad, out)
    assert "not UTF-8" in err and "line" not in err


@pytest.mark.parametrize(
    ("text", "message"),
    [
        (b'{"dataset": {"preset": "additive"}, "k": 3, "note": "\xff"}', "not UTF-8"),
        (b'{"k": 3,', "not valid JSON"),
        (b"[1, 2]", "must be an object"),
    ],
    ids=["non-utf8", "malformed", "not-an-object"],
)
def test_run_rejects_an_unreadable_config(tmp_path, capsys, text, message):
    cfg = tmp_path / "exp.json"
    cfg.write_bytes(text)
    out = tmp_path / "run"
    code = run_cli("run", "--config", cfg, "--out-dir", out)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and message in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    ("edit", "message"),
    [
        (lambda text, obj: "{" + text, "not valid JSON"),
        (lambda text, obj: json.dumps(list(obj.values())), "must be an object"),
        (lambda text, obj: json.dumps({k: v for k, v in obj.items() if k != "positive_label"}),
         "lacks key 'positive_label'"),
        (lambda text, obj: json.dumps(dict(obj, split_cutoff=20180101)), "key 'split_cutoff'"),
        (lambda text, obj: json.dumps(dict(obj, categorical="abc")), "key 'categorical'"),
        (lambda text, obj: json.dumps(dict(obj, categorical=[1])), "key 'categorical'"),
        (lambda text, obj: json.dumps(dict(obj, engineer_fico="no")), "key 'engineer_fico'"),
        (lambda text, obj: json.dumps(dict(obj, engineer_fic=False)), "key 'engineer_fic'"),
    ],
    ids=["malformed", "array", "missing-key", "numeric-cutoff", "categorical-string",
         "categorical-numbers", "fico-string", "unknown-key"],
)
def test_prepare_rejects_a_malformed_prep_config(raw_inputs, tmp_path, capsys, edit, message):
    raw, cfg = raw_inputs
    text = cfg.read_text()
    bad = tmp_path / "prep.json"
    bad.write_text(edit(text, json.loads(text)))
    code, outputs = _prepare(raw, bad, tmp_path)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and message in err and "Traceback" not in err
    for out in outputs:
        assert not out.exists()


def test_cli_exits_cleanly_in_dev_mode(tmp_path, lending_club_csv):
    """``run`` (pair sweep and refinement included) and ``prepare``, of the
    synthetic CSV and of a Lending-Club-shaped one with categoricals, blanks
    and dropped labels, and ``train`` on the latter's caches, which are
    large enough to be written and read in parts by forked children, in a
    fresh interpreter with ``-X dev -W error``,
    which shows resource and other warnings and makes each one an error:
    each exits 0 and writes nothing to stderr, so no finalizer, weakref
    callback or unclosed file speaks up at interpreter exit."""
    from glassbox_credit import synth

    raw, prep = tmp_path / "raw.csv", tmp_path / "prep.json"
    synth.write_csv("redundant", raw, prep, n_train=300, n_test=200)
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "dataset": {"train_csv": str(raw), "prep_config": str(prep)},
        "model_configs": {"gbdt": {"rounds": 5}, "ebm": {"rounds": 30, "pair_rounds": 20}},
        "k": 6,
        "reduced_kinds": ["ebm", "pltr"],
        "sweep_pairs": {"k": 6, "pair_counts": [0, 2]},
        "refinement": {"pool": 8, "target": 6, "protected": 2, "threshold": 0.7},
    }))
    commands = [
        ("run", "--config", cfg, "--out-dir", tmp_path / "run"),
        ("prepare", "--input", raw, "--config", prep,
         "--out-train", tmp_path / "train.csv", "--out-test", tmp_path / "test.csv"),
        ("prepare", "--input", lending_club_csv[0], "--config", lending_club_csv[1],
         "--out-train", tmp_path / "lc_train.csv", "--out-test", tmp_path / "lc_test.csv"),
        ("train", "--train", tmp_path / "lc_train.csv", "--test", tmp_path / "lc_test.csv",
         "--kind", "lr", "--out-model", tmp_path / "lc_lr.json"),
    ]
    for argv in commands:
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "glassbox_credit.cli",
             *map(str, argv)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
    assert (tmp_path / "run" / "manifest.json").exists()
    assert (tmp_path / "lc_lr.json").exists()


@pytest.mark.parametrize("hash_seed", ["0", "1", "2", "3"])
def test_glassbox_run_exits_cleanly_under_every_hash_seed(tmp_path, hash_seed):
    """The glass-box experiment shape (raw CSV, LR base ranked by
    coefficients, EBM and PLTR, pair sweep, refinement) under ``-X dev``:
    teardown order follows hash randomization, so each seed must exit 0
    with nothing on stderr."""
    from glassbox_credit import synth

    raw, prep = tmp_path / "raw.csv", tmp_path / "prep.json"
    synth.write_csv("redundant", raw, prep, n_train=300, n_test=300)
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "dataset": {"train_csv": str(raw), "prep_config": str(prep)},
        "base_kind": "lr",
        "model_configs": {"ebm": {"rounds": 20, "pair_rounds": 10}},
        "rank_method": "coef",
        "k": 6,
        "reduced_kinds": ["ebm", "pltr"],
        "sweep_pairs": {"k": 6, "pair_counts": [0, 2]},
        "refinement": {"pool": 8, "target": 6, "protected": 2},
    }))
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-m", "glassbox_credit.cli", "run",
         "--config", str(cfg), "--out-dir", str(tmp_path / "run")],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONHASHSEED=hash_seed),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert (tmp_path / "run" / "reduced_pltr_k6.json").exists()
