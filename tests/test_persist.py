import json
import os
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glassbox_credit import data as data_module
from glassbox_credit import persist
from glassbox_credit.attribution import attributions_csv
from glassbox_credit.data import Dataset, cache_dataset
from glassbox_credit.ebm import EbmConfig, export_pair_grid, export_shape, fit_ebm, fit_pairs
from glassbox_credit.errors import DataError, ModelFormatError
from glassbox_credit.gbdt import GbdtConfig, fit_gbdt
from glassbox_credit.linear import fit_logistic
from glassbox_credit.pipeline import train_model
from glassbox_credit.pltr import fit_pltr


@pytest.fixture(scope="module")
def fitted_models():
    rng = np.random.default_rng(17)
    X = rng.standard_normal((400, 4))
    p = 1.0 / (1.0 + np.exp(-(X[:, 0] - 0.7 * X[:, 2])))
    y = (rng.random(400) < p).astype(float)
    data = Dataset(X, y, np.ones(400), ["a", "b", "c", "d"])
    ebm = fit_pairs(data, fit_ebm(data, EbmConfig(rounds=40)), [(0, 2)])
    return data, {
        "lr": fit_logistic(data),
        "gbdt": fit_gbdt(data, GbdtConfig(rounds=10)),
        "ebm": ebm,
        "pltr": fit_pltr(data, lam=0.01),
    }


# Small configs per kind; the ebm boosts 1-2 pair grids. The pltr penalty
# is fixed and strong enough that its lasso converges on every drawn sample.
ROUND_TRIP_CONFIGS = {
    "lr": lambda n_pairs: None,
    "gbdt": lambda n_pairs: {"rounds": 3, "max_depth": 3},
    "ebm": lambda n_pairs: {"rounds": 8, "pair_rounds": 6, "n_pairs": n_pairs},
    "pltr": lambda n_pairs: {"lam": 0.1},
}


@pytest.fixture(scope="module")
def round_trip_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("round_trip")


@settings(max_examples=200)
@given(
    kind=st.sampled_from(persist.MODEL_KINDS),
    n=st.integers(100, 200),
    d=st.integers(2, 4),
    levels=st.sampled_from([3, 8, None]),
    n_pairs=st.integers(1, 2),
    seed=st.integers(0, 2**16),
)
def test_save_load_predict_is_bit_identical(round_trip_dir, kind, n, d, levels, n_pairs, seed):
    """save -> load -> predict gives the same bits for every kind, on data
    with few distinct values (ties, cut points hit exactly) or continuous."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    if levels is not None:
        X = np.floor(X * levels / 2)
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-X[:, 0]))).astype(float)
    y[:2] = [0.0, 1.0]
    w = rng.choice([1.0, 2.5], n)
    data = Dataset(X, y, w, [f"x{j}" for j in range(d)])
    model = train_model(kind, data, ROUND_TRIP_CONFIGS[kind](n_pairs))
    if kind == "ebm":
        assert len(model.pairs) == min(n_pairs, d * (d - 1) // 2)
    path = round_trip_dir / f"{kind}.json"
    persist.save_model(model, path)
    clone = persist.load_model(path)
    probe = np.vstack([X, rng.standard_normal((50, d)) * 2])
    assert np.array_equal(model.predict_proba(probe), clone.predict_proba(probe))
    assert persist.dumps(clone) == persist.dumps(model)


def test_round_trip_bit_identical_predictions(tmp_path, fitted_models):
    data, models = fitted_models
    rng = np.random.default_rng(99)
    probe = rng.standard_normal((1000, 4))
    for kind, model in models.items():
        path = tmp_path / f"{kind}.json"
        persist.save_model(model, path)
        clone = persist.load_model(path)
        assert np.array_equal(model.predict_proba(probe), clone.predict_proba(probe))


def test_envelope_fields(tmp_path, fitted_models):
    _, models = fitted_models
    path = tmp_path / "m.json"
    persist.save_model(models["gbdt"], path, train_manifest_hash="abc123")
    env = json.loads(path.read_text())
    assert env["format_version"] == persist.FORMAT_VERSION
    assert env["model_kind"] == "gbdt"
    assert env["train_manifest_hash"] == "abc123"
    assert "glassbox-credit" in env["created_by"]


def test_save_is_deterministic(tmp_path, fitted_models):
    _, models = fitted_models
    assert persist.dumps(models["ebm"]) == persist.dumps(models["ebm"])


def test_tampered_version_rejected(tmp_path, fitted_models):
    _, models = fitted_models
    path = tmp_path / "m.json"
    persist.save_model(models["lr"], path)
    env = json.loads(path.read_text())
    env["format_version"] = 99
    path.write_text(json.dumps(env))
    with pytest.raises(ModelFormatError):
        persist.load_model(path)


def test_unknown_kind_rejected(tmp_path, fitted_models):
    _, models = fitted_models
    path = tmp_path / "m.json"
    persist.save_model(models["lr"], path)
    env = json.loads(path.read_text())
    env["model_kind"] = "oracle"
    path.write_text(json.dumps(env))
    with pytest.raises(ModelFormatError):
        persist.load_model(path)


def test_corrupted_payload_rejected(tmp_path, fitted_models):
    _, models = fitted_models
    path = tmp_path / "m.json"
    persist.save_model(models["gbdt"], path)
    env = json.loads(path.read_text())
    del env["payload"]["trees"]
    path.write_text(json.dumps(env))
    with pytest.raises(ModelFormatError):
        persist.load_model(path)


def test_empty_and_invalid_files(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text("")
    with pytest.raises(ModelFormatError):
        persist.load_model(empty)
    not_object = tmp_path / "arr.json"
    not_object.write_text("[1,2,3]")
    with pytest.raises(ModelFormatError):
        persist.load_model(not_object)


def test_unsupported_type_rejected():
    with pytest.raises(ModelFormatError):
        persist.dumps({"not": "a model"})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind", ["lr", "gbdt", "ebm", "pltr"])
def test_non_finite_rows_rejected(fitted_models, kind, bad):
    data, models = fitted_models
    X = data.X[:3].copy()
    X[1, 2] = bad
    with pytest.raises(DataError, match="missing or infinite"):
        models[kind].predict_proba(X)
    with pytest.raises(DataError, match="missing or infinite"):
        models[kind].predict_proba(np.full(4, bad))


def _tampered(tmp_path, model, edit):
    path = tmp_path / "m.json"
    persist.save_model(model, path)
    env = json.loads(path.read_text())
    edit(env["payload"])
    path.write_text(json.dumps(env))
    return path


def _first_split(tree):
    return next(i for i, f in enumerate(tree["feature"]) if f >= 0)


def _first_leaf(tree):
    return next(i for i, f in enumerate(tree["feature"]) if f < 0)


def _child_back_to_root(tree):
    node = max(i for i, f in enumerate(tree["feature"]) if f >= 0)
    tree["left"][node] = 0  # an ancestor: predict would route rows in a cycle


FINITE = "tree threshold, value, cover, gain must be finite"
UNEQUAL = "tree node arrays are empty or of unequal length"
# damage to tree 3 (21 nodes) -> the message that rejects it
GBDT_DAMAGE = {
    "child out of range": (lambda t: t["right"].__setitem__(_first_split(t), 999),
                           "tree 3 node 0 has children outside (0, 21)"),
    "child is an ancestor": (_child_back_to_root, "tree 3 node 17 has children outside (17, 21)"),
    "child is the node": (lambda t: t["left"].__setitem__(_first_split(t), _first_split(t)),
                          "tree 3 node 0 has children outside (0, 21)"),
    "feature out of range": (lambda t: t["feature"].__setitem__(_first_split(t), 4),
                             "tree 3 node 0 splits on 4, outside [0, 4)"),
    "negative feature": (lambda t: t["feature"].__setitem__(_first_split(t), -2),
                         "tree 3 node 0 splits on -2, outside [0, 4)"),
    "unequal node arrays": (lambda t: t["value"].pop(), UNEQUAL),
    "no nodes": (lambda t: [t[k].clear() for k in list(t)], UNEQUAL),
    "NaN threshold": (lambda t: t["threshold"].__setitem__(_first_split(t), float("nan")), FINITE),
    "infinite leaf value": (lambda t: t["value"].__setitem__(_first_leaf(t), float("inf")), FINITE),
    "null cover": (lambda t: t["cover"].__setitem__(0, None), FINITE),
    "infinite gain": (lambda t: t["gain"].__setitem__(_first_split(t), float("-inf")), FINITE),
    "leaf child overflows": (lambda t: t["right"].__setitem__(_first_leaf(t), 2**70),
                             "malformed gbdt payload: Python int too large to convert to C long"),
    "nested node list": (lambda t: t.update({k: [[v] for v in t[k]] for k in t}), UNEQUAL),
}


@pytest.mark.parametrize("damage", sorted(GBDT_DAMAGE))
def test_damaged_tree_rejected_on_load(tmp_path, fitted_models, damage):
    _, models = fitted_models
    edit, message = GBDT_DAMAGE[damage]
    path = _tampered(tmp_path, models["gbdt"], lambda p: edit(p["trees"][3]))
    with pytest.raises(ModelFormatError) as info:
        persist.load_model(path)
    assert str(info.value) == message


EBM_DAMAGE = {
    "shape shorter than cuts": lambda p: p["shapes"][1].pop(),
    "counts longer than shape": lambda p: p["bin_counts"][0].append(5),
    "missing shape": lambda p: p["shapes"].pop(),
    "pair index out of range": lambda p: p["pairs"][0].__setitem__("pair", [0, 4]),
    "pair not ordered": lambda p: p["pairs"][0].__setitem__("pair", [2, 0]),
    "grid shape off": lambda p: p["pairs"][0]["shape"].__setitem__(0, 1),
    "grid too short": lambda p: p["pairs"][0]["grid"].pop(),
    "NaN shape value": lambda p: p["shapes"][0].__setitem__(1, float("nan")),
    "NaN cut": lambda p: p["bin_cuts"][2].__setitem__(0, float("nan")),
    "cuts not increasing": lambda p: p["bin_cuts"][1].__setitem__(1, p["bin_cuts"][1][0]),
    "infinite grid cell": lambda p: p["pairs"][0]["grid"].__setitem__(3, float("inf")),
    "infinite intercept": lambda p: p.__setitem__("intercept", float("inf")),
}


@pytest.mark.parametrize("damage", sorted(EBM_DAMAGE))
def test_damaged_ebm_rejected_on_load(tmp_path, fitted_models, damage):
    _, models = fitted_models
    path = _tampered(tmp_path, models["ebm"], EBM_DAMAGE[damage])
    with pytest.raises(ModelFormatError):
        persist.load_model(path)


def _drop_last_coefficient(p):
    for key in ("coef", "feature_names"):
        p["linear"][key].pop()


PLTR_DAMAGE = {
    "stump feature out of range": lambda p: p["stumps"][0].__setitem__("feature", 7),
    "negative stump feature": lambda p: p["stumps"][1].__setitem__("feature", -1),
    "fractional stump feature": lambda p: p["stumps"][0].__setitem__("feature", 1.5),
    "pair root out of range": lambda p: p["pair_splits"][0].__setitem__("root_feature", 4),
    "pair second out of range": lambda p: p["pair_splits"][2].__setitem__("second_feature", 9),
    "coefficient missing": _drop_last_coefficient,
    "rule without coefficient": lambda p: p["stumps"].append(dict(p["stumps"][0])),
    "original columns dropped": lambda p: p.__setitem__("include_original", False),
    "NaN stump threshold": lambda p: p["stumps"][0].__setitem__("threshold", float("nan")),
    "infinite pair threshold": lambda p: p["pair_splits"][1].__setitem__(
        "second_threshold", float("-inf")
    ),
}


@pytest.mark.parametrize("damage", sorted(PLTR_DAMAGE))
def test_damaged_pltr_rejected_on_load(tmp_path, fitted_models, damage):
    _, models = fitted_models
    path = _tampered(tmp_path, models["pltr"], PLTR_DAMAGE[damage])
    with pytest.raises(ModelFormatError, match="pltr"):
        persist.load_model(path)


LR_DAMAGE = {
    "coefficient missing": lambda p: p["coef"].pop(),
    "extra feature name": lambda p: p["feature_names"].append("e"),
    "means cut short": lambda p: p.update(means=[0.0, 0.0], stds=[1.0] * 4),
    "stds too long": lambda p: p.update(means=[0.0] * 4, stds=[1.0] * 5),
    "means without stds": lambda p: p.update(means=[0.0] * 4, stds=None),
    "NaN mean": lambda p: p.update(means=[0.0, float("nan"), 0.0, 0.0], stds=[1.0] * 4),
    "infinite std": lambda p: p.update(means=[0.0] * 4, stds=[1.0, 1.0, float("inf"), 1.0]),
}


@pytest.mark.parametrize("damage", sorted(LR_DAMAGE))
def test_damaged_lr_rejected_on_load(tmp_path, fitted_models, damage):
    _, models = fitted_models
    path = _tampered(tmp_path, models["lr"], LR_DAMAGE[damage])
    with pytest.raises(ModelFormatError, match="lr"):
        persist.load_model(path)


def _fail_replace(src, dst):
    raise OSError("disk full")


@pytest.mark.parametrize("failure", ["text cannot be encoded", "replace fails"])
def test_failed_save_leaves_no_partial_or_temp_file(tmp_path, fitted_models, monkeypatch, failure):
    _, models = fitted_models
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    persist.save_model(models["lr"], old)
    before = old.read_bytes()
    if failure == "replace fails":
        monkeypatch.setattr(os, "replace", _fail_replace)
        error = OSError
    else:
        text = persist.dumps(models["gbdt"])
        monkeypatch.setattr(persist, "dumps", lambda *a: text[:1000] + "\ud800" + text[1000:])
        error = UnicodeEncodeError
    for path in (old, new):
        with pytest.raises(error):
            persist.save_model(models["gbdt"], path)
    assert old.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["old.json"]


def _open_failing_midway(limit):
    """``open`` whose exclusive-create handles raise once more than ``limit``
    characters have been written: a disk that fills up mid-file."""
    def fake_open(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        if "x" in mode:
            write, written = fh.write, [0]

            def write_some(text):
                written[0] += len(text)
                if written[0] > limit:
                    raise OSError("disk full")
                return write(text)

            fh.write = write_some
        return fh

    return fake_open


# Every site that writes an output file, each streaming through write_atomic.
WRITERS = {
    "cache_dataset": lambda data, models, path: cache_dataset(data, path, f"{path}.manifest.json"),
    "export_shape": lambda data, models, path: export_shape(models["ebm"], 0, path),
    "export_pair_grid": lambda data, models, path: export_pair_grid(models["ebm"], (0, 2), path),
    "attributions_csv": lambda data, models, path: attributions_csv(models["gbdt"], data, path),
    "save_model": lambda data, models, path: persist.save_model(models["pltr"], path),
}


@pytest.mark.parametrize("site", sorted(WRITERS))
def test_writer_failing_midway_keeps_old_file(tmp_path, fitted_models, monkeypatch, site):
    data, models = fitted_models
    old, new = tmp_path / "old.out", tmp_path / "new.out"
    old.write_text("old\n")
    monkeypatch.setattr(data_module, "open", _open_failing_midway(100), raising=False)
    for path in (old, new):
        with pytest.raises(OSError, match="disk full"):
            WRITERS[site](data, models, path)
    assert old.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["old.out"]
    monkeypatch.undo()
    WRITERS[site](data, models, old)
    assert len(old.read_text()) > 100


def test_pltr_envelope_with_lambda_path_validates_and_round_trips(fitted_models):
    data, _ = fitted_models
    model = fit_pltr(data)
    path = model.linear.diagnostics["path"]
    assert len(path["lambda"]) == 50 and 0 <= path["chosen"] < 50
    env = json.loads(persist.dumps(model))
    schema_path = Path(__file__).resolve().parents[1] / "schemas" / "model-envelope.schema.json"
    jsonschema.validate(env, json.loads(schema_path.read_text()))
    clone = persist.from_envelope(env)
    assert clone.linear.diagnostics == model.linear.diagnostics
    assert persist.dumps(clone) == persist.dumps(model)
