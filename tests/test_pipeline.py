import json
import os
import subprocess
import sys

import numpy as np
import pytest

from glassbox_credit import pipeline
from glassbox_credit.data import Dataset
from glassbox_credit.errors import DataError
from glassbox_credit.pipeline import (
    RefinementConfig,
    refine_correlation,
    run_full,
    step1_train_base,
    step2_rank,
    step3_train_reduced,
    sweep_interactions,
    sweep_k,
)
from glassbox_credit.ranking import RankedFeatures


@pytest.fixture(scope="module")
def small_splits():
    rng = np.random.default_rng(23)
    n, d = 1500, 6
    X = rng.standard_normal((n, d))
    X[:, 5] = X[:, 0] + 0.05 * rng.standard_normal(n)  # near duplicate
    margin = 1.2 * X[:, 0] - 0.8 * X[:, 1] + 0.5 * X[:, 2]
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-margin))).astype(float)
    names = [f"f{j}" for j in range(d)]
    cut = 1000
    train = Dataset(X[:cut], y[:cut], np.ones(cut), names)
    test = Dataset(X[cut:], y[cut:], np.ones(n - cut), names)
    return train, test


@pytest.fixture(scope="module")
def ranked(small_splits):
    train, test = small_splits
    model, _ = step1_train_base(train, test, "gbdt", {"rounds": 20})
    return model, step2_rank(model, train, "shap")


def test_step1_unknown_kind(small_splits):
    train, test = small_splits
    with pytest.raises(DataError):
        step1_train_base(train, test, "forest")


def test_step2_incompatible_pairings(small_splits):
    train, test = small_splits
    gbdt, _ = step1_train_base(train, test, "gbdt", {"rounds": 5})
    with pytest.raises(DataError):
        step2_rank(gbdt, train, "coef")
    with pytest.raises(DataError):
        step2_rank(gbdt, train, "ebm")
    with pytest.raises(DataError):
        step2_rank(gbdt, train, "anova")


def test_step3_k_bounds(small_splits, ranked):
    train, test = small_splits
    _, ranking = ranked
    for bad in (0, train.d + 1, -3):
        with pytest.raises(DataError):
            step3_train_reduced(train, test, ranking, bad, "gbdt")


def test_step3_k_equals_d_matches_base(small_splits, ranked):
    """With every feature kept, the reduced GBDT equals the base model."""
    train, test = small_splits
    base, ranking = ranked
    model, _ = step3_train_reduced(train, test, ranking, train.d, "gbdt", {"rounds": 20})
    assert np.array_equal(
        base.predict_proba(test.select_features(model.feature_names).X),
        model.predict_proba(test.select_features(model.feature_names).X),
    )


def test_sweep_k_consistency(small_splits, ranked):
    train, test = small_splits
    _, ranking = ranked
    report = sweep_k(
        train, test, ranking, [2, 4], ["gbdt"], {"gbdt": {"rounds": 10}}
    )
    assert len(report.rows) == 2
    _, standalone = step3_train_reduced(
        train, test, ranking, 4, "gbdt", {"rounds": 10}
    )
    assert report.rows[-1]["test"]["auprc"] == standalone.auprc
    assert "plateau" in report.meta


def test_sweep_k_requires_sorted(small_splits, ranked):
    train, test = small_splits
    _, ranking = ranked
    with pytest.raises(DataError):
        sweep_k(train, test, ranking, [4, 2], ["gbdt"])


def test_sweep_k_single_point_no_plateau(small_splits, ranked):
    train, test = small_splits
    _, ranking = ranked
    report = sweep_k(train, test, ranking, [3], ["gbdt"], {"gbdt": {"rounds": 5}})
    assert "plateau" not in report.meta


def test_sweep_pairs_p0_equals_mains(small_splits, ranked):
    train, test = small_splits
    _, ranking = ranked
    report = sweep_interactions(
        train, test, ranking, 4, [0, 1], {"rounds": 100}
    )
    mains_row = report.rows[0]
    assert mains_row["n_pairs"] == 0
    from glassbox_credit.ebm import EbmConfig, fit_ebm
    from glassbox_credit.data import apply_class_weights
    from glassbox_credit.metrics import evaluate_scores

    names = ranking.top(4)
    mains = fit_ebm(
        apply_class_weights(train.select_features(names)),
        EbmConfig(rounds=100, n_pairs=0),
    )
    rep = evaluate_scores(mains.predict_proba(test.select_features(names).X), test.y)
    assert mains_row["test"]["auroc"] == rep.auroc
    assert "max_relative_f1_improvement" in report.meta


def test_sweep_pairs_caps_counts_at_the_pairs_that_exist(small_splits, ranked, monkeypatch):
    # k = 3 features have 3 pairs: 5 and 8 fit those 3, once
    train, test = small_splits
    _, ranking = ranked
    fitted = []
    real = pipeline.fit_pairs

    def counting(data, model, pairs, config=None):
        fitted.append(len(pairs))
        return real(data, model, pairs, config)

    monkeypatch.setattr(pipeline, "fit_pairs", counting)
    report = sweep_interactions(train, test, ranking, 3, [0, 2, 3, 5, 8], {"rounds": 30})
    assert [row["n_pairs"] for row in report.rows] == [0, 2, 3]
    assert report.config["pair_counts"] == [0, 2, 3]
    assert fitted == [2, 3]
    assert len(report.meta["pair_candidates"]) == 3


def _toy_ranked(names):
    return RankedFeatures(
        names=list(names),
        scores=list(np.linspace(1.0, 0.1, len(names))),
        method="shap",
        source="gbdt",
    )


def test_refine_drops_duplicate_and_backfills(small_splits):
    train, _ = small_splits
    ranking = _toy_ranked(["f0", "f5", "f1", "f2", "f3", "f4"])
    cfg = RefinementConfig(pool=6, target=4, protected=1, threshold=0.7)
    refined = refine_correlation(train, ranking, cfg)
    assert refined.names == ["f0", "f1", "f2", "f3"]
    assert refined.meta["dropped"][0]["feature"] == "f5"
    assert refined.meta["reached_target"]


def test_refine_protected_never_dropped(small_splits):
    train, _ = small_splits
    ranking = _toy_ranked(["f0", "f5", "f1", "f2", "f3", "f4"])
    cfg = RefinementConfig(pool=6, target=4, protected=2, threshold=0.7)
    refined = refine_correlation(train, ranking, cfg)
    assert refined.names[:2] == ["f0", "f5"]
    assert len(refined.names) == 4


def test_refine_noop_when_uncorrelated(small_splits):
    train, _ = small_splits
    ranking = _toy_ranked(["f0", "f1", "f2", "f3"])
    cfg = RefinementConfig(pool=4, target=4, protected=1, threshold=0.7)
    refined = refine_correlation(train, ranking, cfg)
    assert refined.names == ranking.names
    assert refined.meta["dropped"] == []


def test_refine_all_correlated_best_effort():
    rng = np.random.default_rng(5)
    base = rng.standard_normal(500)
    X = np.column_stack([base + 0.01 * rng.standard_normal(500) for _ in range(5)])
    data = Dataset(X, (base > 0).astype(float), np.ones(500), [f"c{j}" for j in range(5)])
    ranking = _toy_ranked(data.feature_names)
    cfg = RefinementConfig(pool=5, target=4, protected=1, threshold=0.5)
    refined = refine_correlation(data, ranking, cfg)
    assert refined.names == ["c0"]
    assert not refined.meta["reached_target"]
    assert "diagnostic" in refined.meta


def test_refine_config_validation():
    with pytest.raises(DataError):
        RefinementConfig(pool=10, target=20)
    with pytest.raises(DataError):
        RefinementConfig(protected=30)
    with pytest.raises(DataError):
        RefinementConfig(threshold=1.5)


def test_run_full_smoke_and_lock(tmp_path):
    config = {
        "dataset": {"preset": "additive", "n_train": 1200, "n_test": 600},
        "model_configs": {"gbdt": {"rounds": 15}, "ebm": {"rounds": 150}},
        "k": 5,
    }
    out = tmp_path / "run"
    report = run_full(config, out)
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["artifacts"]) >= {
        "base_gbdt.json",
        "ranking.json",
        "reduced_ebm_k5.json",
        "report.json",
    }
    assert len(report.rows) == 2
    assert not (out / ".lock").exists()
    # a stale lock blocks a second run
    (out / ".lock").touch()
    with pytest.raises(DataError):
        run_full(config, out)


def test_run_full_lock_names_its_pid(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    (out / ".lock").write_text("4242\n")
    with pytest.raises(DataError, match=r"locked by .*\(pid 4242\)"):
        run_full({"dataset": {"preset": "additive", "n_train": 200, "n_test": 100}}, out)
    assert (out / ".lock").read_text() == "4242\n"


def test_run_full_names_a_stale_lock(tmp_path):
    # the pid of a child that has exited and been reaped is no live process
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    out = tmp_path / "run"
    out.mkdir()
    lock = out / ".lock"
    lock.write_text(f"{child.pid}\n")
    with pytest.raises(DataError) as info:
        run_full({"dataset": {"preset": "additive", "n_train": 200, "n_test": 100}}, out)
    message = str(info.value)
    assert f"(pid {child.pid}): the lock is stale" in message
    assert f"remove {lock}" in message
    # never taken over
    assert lock.read_text() == f"{child.pid}\n"


def test_run_full_live_lock_is_not_called_stale(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    (out / ".lock").write_text(f"{os.getpid()}\n")
    with pytest.raises(DataError, match=rf"\(pid {os.getpid()}\)$"):
        run_full({"dataset": {"preset": "additive", "n_train": 200, "n_test": 100}}, out)


def test_run_full_writes_its_pid_into_the_lock(tmp_path, monkeypatch):
    out = tmp_path / "run"
    seen = []

    def read_lock(spec):
        seen.append((out / ".lock").read_text())
        raise DataError("stop after reading the lock")

    monkeypatch.setattr(pipeline, "_load_experiment_datasets", read_lock)
    with pytest.raises(DataError, match="stop after reading the lock"):
        run_full({"dataset": {"preset": "additive"}}, out)
    assert seen == [f"{os.getpid()}\n"]
    assert not (out / ".lock").exists()


def test_run_full_failed_write_leaves_no_partial_artifact(tmp_path, monkeypatch):
    replace = os.replace

    def fail_on_manifest(src, dst):
        if os.path.basename(dst) == "manifest.json":
            raise OSError("disk full")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", fail_on_manifest)
    config = {
        "dataset": {"preset": "additive", "n_train": 300, "n_test": 100},
        "model_configs": {"gbdt": {"rounds": 2}, "ebm": {"rounds": 5}},
        "k": 3,
    }
    out = tmp_path / "run"
    with pytest.raises(OSError, match="disk full"):
        run_full(config, out)
    assert sorted(p.name for p in out.iterdir()) == [
        "base_gbdt.json", "ranking.json", "reduced_ebm_k3.json", "report.csv", "report.json",
    ]


def test_run_full_missing_dataset_path(tmp_path):
    config = {
        "dataset": {"train_csv": "/nonexistent.csv", "prep_config": "/nope.json"}
    }
    with pytest.raises(DataError) as exc:
        run_full(config, tmp_path / "r2")
    assert "stage 0" in str(exc.value)


def test_run_full_repeat_manifest_identical(tmp_path):
    config = {
        "dataset": {"preset": "additive", "n_train": 800, "n_test": 400},
        "model_configs": {"gbdt": {"rounds": 10}, "ebm": {"rounds": 80}},
        "k": 4,
    }
    m = []
    for name in ("a", "b"):
        out = tmp_path / name
        run_full(config, out)
        doc = json.loads((out / "manifest.json").read_text())
        m.append((doc["config_hash"], doc["artifacts"]))
    assert m[0] == m[1]


def _glassbox_family_config(**changes):
    """``run_full`` shaped like the benchmark's glass-box workload, scaled
    down: LR reference ranked by coefficients, EBM and PLTR on the top k,
    the pair sweep and correlation refinement."""
    config = {
        "dataset": {"preset": "redundant", "n_train": 500, "n_test": 300},
        "base_kind": "lr",
        "rank_method": "coef",
        "model_configs": {
            "ebm": {"learning_rate": 0.05, "rounds": 15, "pair_rounds": 10, "patience": 15}
        },
        "k": 5,
        "reduced_kinds": ["ebm", "pltr"],
        "sweep_pairs": {"k": 5, "pair_counts": [0, 2, 4]},
        "refinement": {"pool": 8, "target": 6, "protected": 3},
    }
    config.update(changes)
    return config


@pytest.fixture()
def count_ebm_fits(monkeypatch):
    calls = []
    real = pipeline.fit_ebm

    def counting(data, config=None):
        calls.append(data.feature_names)
        return real(data, config)

    monkeypatch.setattr(pipeline, "fit_ebm", counting)
    return calls


def test_pair_sweep_reuses_the_reduced_ebm(tmp_path, count_ebm_fits):
    # stage 3's EBM and the refined one; the sweep's mains is stage 3's
    run_full(_glassbox_family_config(), tmp_path / "run")
    assert len(count_ebm_fits) == 2


@pytest.mark.parametrize(
    "changes",
    [
        {"model_configs": {"ebm": {"rounds": 15, "n_pairs": 1}}},
        {"sweep_pairs": {"k": 4, "pair_counts": [0, 2]}},
    ],
    ids=["ebm-with-pairs", "other-k"],
)
def test_pair_sweep_refits_a_different_ebm(tmp_path, count_ebm_fits, changes):
    run_full(_glassbox_family_config(**changes), tmp_path / "run")
    assert len(count_ebm_fits) == 3


def test_pair_sweep_reuse_keeps_every_artifact(tmp_path, monkeypatch):
    config = _glassbox_family_config()
    run_full(config, tmp_path / "reused")
    real = pipeline.sweep_interactions

    def refit(*args, mains=None, **kwargs):
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "sweep_interactions", refit)
    run_full(config, tmp_path / "refit")
    names = sorted(p.name for p in (tmp_path / "reused").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "refit").iterdir())
    assert "sweep_pairs.json" in names
    for name in names:
        assert (tmp_path / "reused" / name).read_bytes() == (tmp_path / "refit" / name).read_bytes()
