"""End-to-end acceptance gate for the toolkit.

Each test exercises one release criterion at its stated tolerance and prints
a one-line summary. Criterion 12 (real loan data) only runs when the user
points GLASSBOX_LENDING_CLUB_CSV / GLASSBOX_LENDING_CLUB_CONFIG at a
prepared extract; it is skipped otherwise.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from glassbox_credit import persist, synth
from glassbox_credit.attribution import global_importance, shapley_exact, tree_shap
from glassbox_credit.data import Dataset, apply_class_weights
from glassbox_credit.ebm import EbmConfig, detect_pairs, fit_ebm, fit_pairs
from glassbox_credit.gbdt import GbdtConfig, fit_gbdt
from glassbox_credit.linear import fit_logistic, sigmoid
from glassbox_credit.metrics import auroc, evaluate_scores, log_loss
from glassbox_credit.pipeline import (
    RefinementConfig,
    refine_correlation,
    run_full,
    step3_train_reduced,
    sweep_interactions,
    sweep_k,
    train_model,
)
from glassbox_credit.pltr import assemble_extended, fit_pltr
from test_gbdt import reference_predict


def _random_gbdt(rng, d, rounds, depth, n=300):
    X = rng.standard_normal((n, d))
    beta = rng.standard_normal(d)
    y = (rng.random(n) < sigmoid(X @ beta)).astype(float)
    if y.min() == y.max():
        y[0] = 1.0 - y[0]
    data = Dataset(X, y, np.ones(n), [f"x{j}" for j in range(d)])
    return fit_gbdt(data, GbdtConfig(rounds=rounds, max_depth=depth)), X


@pytest.fixture(scope="module")
def bench():
    """The 50-feature benchmark (10 informative, ~20% positives, n=30000)
    with a class-weighted reference GBDT and its attribution ranking."""
    train, test, truth = synth.generate("additive", n_train=30_000, n_test=10_000)
    t0 = time.time()
    model = fit_gbdt(apply_class_weights(train), GbdtConfig(rounds=50))
    ranked = global_importance(model, train, max_rows=4096)
    return {
        "train": train,
        "test": test,
        "truth": truth,
        "gbdt": model,
        "ranked": ranked,
        "fit_seconds": time.time() - t0,
    }


def test_criterion_01_attribution_local_accuracy():
    """Attributions plus base value reproduce the margin to 1e-9."""
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(2, 13))
        rounds = int(rng.integers(5, 51))
        depth = int(rng.integers(1, 5))
        model, X_train = _random_gbdt(rng, d, rounds, depth)
        X_eval = rng.standard_normal((200, d))
        margins = model.predict_margin(X_eval)
        for i in range(200):
            att = tree_shap(model, X_eval[i])
            worst = max(worst, abs(att.base_value + att.values.sum() - margins[i]))
    elapsed = time.time() - t0
    print(f"criterion 1: max |sum - margin| = {worst:.3e} in {elapsed:.1f}s")
    assert worst < 1e-9
    assert elapsed < 30.0


def test_criterion_02_attribution_matches_exact_enumeration():
    """Fast path-dependent attribution equals subset enumeration to 1e-9."""
    rng = np.random.default_rng(202)
    t0 = time.time()
    worst = 0.0
    for d in (2, 3, 5, 7, 10):
        model, _ = _random_gbdt(rng, d, rounds=8, depth=3, n=200)
        for _ in range(10):
            x = rng.standard_normal(d)
            fast = tree_shap(model, x)
            exact = shapley_exact(model, x)
            worst = max(worst, float(np.max(np.abs(fast.values - exact.values))))
            worst = max(worst, abs(fast.base_value - exact.base_value))
    elapsed = time.time() - t0
    print(f"criterion 2: max |fast - exact| = {worst:.3e} in {elapsed:.1f}s")
    assert worst < 1e-9
    assert elapsed < 60.0


def test_criterion_03_gradients_match_finite_differences():
    """Boosting g/h match central differences of the log loss, rel 1e-6."""
    rng = np.random.default_rng(303)
    eps = 1e-6
    worst = 0.0
    for _ in range(100):
        z = float(rng.uniform(-5, 5))
        y = float(rng.integers(0, 2))

        def loss(margin):
            return log_loss(sigmoid(np.array([margin])), np.array([y]), np.array([1.0]))

        def grad(margin):
            # the model's per-sample gradient with unit weight
            return float(sigmoid(np.array([margin]))[0] - y)

        p = float(sigmoid(np.array([z]))[0])
        g, h = p - y, p * (1.0 - p)
        g_fd = (loss(z + eps) - loss(z - eps)) / (2 * eps)
        h_fd = (grad(z + eps) - grad(z - eps)) / (2 * eps)
        worst = max(worst, abs(g - g_fd) / max(abs(g_fd), 1e-12))
        worst = max(worst, abs(h - h_fd) / max(abs(h_fd), 1e-12))
    print(f"criterion 3: max relative gradient error = {worst:.3e}")
    assert worst < 1e-6


def test_criterion_04_metric_oracles():
    """Rank AUROC equals pairwise counting; F1 and balanced accuracy equal
    confusion-matrix arithmetic, both exactly, on tied random instances."""
    rng = np.random.default_rng(404)
    for trial in range(200):
        n = int(rng.integers(10, 501))
        scores = np.round(rng.random(n), 2)  # coarse grid forces ties
        y = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(float)
        if y.min() == y.max():
            y[0] = 1.0 - y[0]
        pos, neg = scores[y == 1], scores[y == 0]
        wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (
            pos[:, None] == neg[None, :]
        ).sum()
        assert auroc(scores, y) == wins / (len(pos) * len(neg))

        rep = evaluate_scores(scores, y, threshold=0.5)
        yhat = (scores >= 0.5).astype(float)
        tp = float(((yhat == 1) & (y == 1)).sum())
        fp = float(((yhat == 1) & (y == 0)).sum())
        fn = float(((yhat == 0) & (y == 1)).sum())
        tn = float(((yhat == 0) & (y == 0)).sum())
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        bal = 0.5 * (rec + (tn / (tn + fp) if tn + fp else 0.0))
        assert rep.f1 == f1
        assert rep.balanced_accuracy == bal
    print("criterion 4: 200 tied instances match brute force exactly")


def test_criterion_05_training_loss_monotone():
    """Weighted train log-loss never increases per boosting step and every
    accepted split has positive gain."""
    rng = np.random.default_rng(505)
    X = rng.standard_normal((800, 4))
    y = (rng.random(800) < sigmoid(1.5 * X[:, 0] - X[:, 1])).astype(float)
    w = rng.uniform(0.5, 2.0, 800)
    data = Dataset(X, y, w, ["a", "b", "c", "d"])

    gbdt = fit_gbdt(data, GbdtConfig(rounds=40, eta=0.3))
    margin = np.full(data.n, gbdt.base_score)
    losses = [log_loss(sigmoid(margin), y, w)]
    for tree in gbdt.trees:
        margin += gbdt.eta * reference_predict(tree, X)
        losses.append(log_loss(sigmoid(margin), y, w))
    assert all(b <= a for a, b in zip(losses, losses[1:]))
    for tree in gbdt.trees:
        assert all(
            tree.gain[i] > 0 for i, f in enumerate(tree.feature) if f != -1
        )

    # cyclic boosting is deterministic, so the r-cycle fit is the prefix of
    # any longer fit; a ladder of cycle counts replays the loss trajectory
    ebm_losses = []
    for r in range(1, 26):
        m = fit_ebm(data, EbmConfig(rounds=r, learning_rate=0.01, early_stopping=False))
        ebm_losses.append(log_loss(m.predict_proba(X), y, w))
    assert all(b <= a + 1e-12 for a, b in zip(ebm_losses, ebm_losses[1:]))
    print(
        f"criterion 5: gbdt loss {losses[0]:.4f}->{losses[-1]:.4f}, "
        f"ebm loss {ebm_losses[0]:.4f}->{ebm_losses[-1]:.4f}, all monotone"
    )


def test_criterion_06_feature_recovery(bench):
    """Attribution ranking recovers the informative features and the
    10-feature shape model stays within 0.02 AUROC of the full reference."""
    t0 = time.time()
    informative = {f"f{j:02d}" for j in bench["truth"].informative}
    hits = len(set(bench["ranked"].top(10)) & informative)

    full_auroc = evaluate_scores(
        bench["gbdt"].predict_proba(bench["test"].X), bench["test"].y
    ).auroc
    _, reduced = step3_train_reduced(
        bench["train"], bench["test"], bench["ranked"], 10, "ebm"
    )
    elapsed = bench["fit_seconds"] + (time.time() - t0)
    print(
        f"criterion 6: {hits}/10 informative in top 10; ebm k=10 auroc "
        f"{reduced.auroc:.4f} vs full gbdt {full_auroc:.4f}; {elapsed:.0f}s"
    )
    assert hits >= 8
    assert reduced.auroc >= full_auroc - 0.02
    assert elapsed < 300.0


def test_criterion_07_performance_plateau(bench):
    """AUPRC flattens between 8 and 12 features; 10 -> 20 gains < 0.005."""
    report = sweep_k(
        bench["train"], bench["test"], bench["ranked"], [4, 8, 10, 12, 16, 20], ["ebm"]
    )
    plateau = report.meta["plateau"]["ebm"]
    auprc = {row["k"]: row["test"]["auprc"] for row in report.rows}
    gain = auprc[20] - auprc[10]
    print(f"criterion 7: plateau at k={plateau}, auprc gain 10->20 = {gain:+.4f}")
    assert 8 <= plateau <= 12
    assert gain < 0.005


def test_criterion_08_interaction_marginality():
    """Pairs change nothing on additive data but recover a planted XOR."""
    train, test, _ = synth.generate("additive", n_train=6000, n_test=3000)
    base = fit_gbdt(apply_class_weights(train), GbdtConfig(rounds=30))
    ranked = global_importance(base, train, max_rows=2048)
    report = sweep_interactions(train, test, ranked, 10, list(range(10)))
    f1s = [row["test"]["f1"] for row in report.rows]
    rel = max(abs(f / f1s[0] - 1.0) for f in f1s)

    xtrain, xtest, xtruth = synth.generate("xor", n_train=6000, n_test=3000)
    weighted = apply_class_weights(xtrain)
    mains = fit_ebm(weighted, EbmConfig(n_pairs=0))
    candidates = detect_pairs(weighted, mains, 5)
    with_pair = fit_pairs(weighted, mains, candidates[:1])
    auroc_mains = evaluate_scores(mains.predict_proba(xtest.X), xtest.y).auroc
    auroc_pair = evaluate_scores(with_pair.predict_proba(xtest.X), xtest.y).auroc
    print(
        f"criterion 8: additive max relative f1 change {rel:.4f}; "
        f"xor pair {candidates[0]} first, auroc {auroc_mains:.3f}->{auroc_pair:.3f}"
    )
    assert rel < 0.01
    assert candidates[0] == xtruth.xor_pair
    assert auroc_pair - auroc_mains > 0.05


def test_criterion_09_correlation_refinement():
    """Refinement drops planted near-duplicates without losing accuracy."""
    train, test, truth = synth.generate("redundant", n_train=12_000, n_test=6000)
    base = fit_gbdt(apply_class_weights(train), GbdtConfig(rounds=50))
    ranked = global_importance(base, train, max_rows=4096)
    refined = refine_correlation(train, ranked, RefinementConfig())

    duplicates = [train.feature_names[c] for c in truth.duplicates]
    removed = [name for name in duplicates if name not in refined.names]
    protected = ranked.top(10)
    auprc = {}
    for kind in ("gbdt", "ebm"):
        _, rep_refined = step3_train_reduced(train, test, refined, 20, kind)
        _, rep_plain = step3_train_reduced(train, test, ranked, 20, kind)
        auprc[kind] = (rep_refined.auprc, rep_plain.auprc)
    print(
        f"criterion 9: removed {len(removed)}/{len(duplicates)} duplicates; "
        + "; ".join(
            f"{k} auprc {r:.4f} vs {p:.4f}" for k, (r, p) in auprc.items()
        )
    )
    assert len(refined.names) == 20
    assert len(removed) >= math.ceil(0.8 * len(duplicates))
    assert all(name in refined.names for name in protected)
    for refined_auprc, plain_auprc in auprc.values():
        assert refined_auprc >= plain_auprc - 0.002


def test_criterion_10_rule_regression_contract():
    """Threshold rules beat plain LR; the penalty sweeps from intercept-only
    to the unpenalized extended fit."""
    train, test, _ = synth.generate("threshold", n_train=6000, n_test=3000)
    weighted = apply_class_weights(train)
    pltr = fit_pltr(weighted)
    lr = train_model("lr", weighted)
    auroc_pltr = evaluate_scores(pltr.predict_proba(test.X), test.y).auroc
    auroc_lr = evaluate_scores(lr.predict_proba(test.X), test.y).auroc

    intercept_only = fit_pltr(weighted, lam=1e6)
    zero = fit_pltr(weighted, lam=0.0)
    plain = fit_logistic(assemble_extended(weighted, zero.stumps, zero.pair_splits))
    coef_gap = float(np.max(np.abs(zero.linear.coef - plain.coef)))
    coef_gap = max(coef_gap, abs(zero.linear.intercept - plain.intercept))
    print(
        f"criterion 10: pltr auroc {auroc_pltr:.4f} vs lr {auroc_lr:.4f}; "
        f"large-penalty nonzeros {int(np.count_nonzero(intercept_only.linear.coef))}; "
        f"zero-penalty gap {coef_gap:.2e}"
    )
    assert auroc_pltr > auroc_lr + 0.03
    assert np.count_nonzero(intercept_only.linear.coef) == 0
    assert coef_gap < 1e-5


def test_criterion_11_determinism_and_persistence(tmp_path):
    """Repeated runs are byte-identical and save/load is prediction-exact."""
    config = {
        "dataset": {"preset": "redundant", "n_train": 3000, "n_test": 1500},
        "model_configs": {"gbdt": {"rounds": 20}, "ebm": {"rounds": 300}},
        "k": 8,
        "refinement": {"pool": 25, "target": 20, "protected": 10},
    }
    manifests = []
    for name in ("first", "second"):
        out = tmp_path / name
        run_full(config, out)
        doc = json.loads((out / "manifest.json").read_text())
        manifests.append((doc["config_hash"], doc["artifacts"]))
    assert manifests[0] == manifests[1]

    rng = np.random.default_rng(111)
    X = rng.standard_normal((500, 5))
    y = (rng.random(500) < sigmoid(X[:, 0] - X[:, 3])).astype(float)
    data = Dataset(X, y, np.ones(500), [f"v{j}" for j in range(5)])
    probe = rng.standard_normal((1000, 5))
    for kind in ("lr", "gbdt", "ebm", "pltr"):
        model = train_model(kind, data)
        path = tmp_path / f"{kind}.json"
        persist.save_model(model, path)
        clone = persist.load_model(path)
        assert np.array_equal(model.predict_proba(probe), clone.predict_proba(probe))
    print("criterion 11: identical manifests; 4/4 model kinds round-trip exactly")


def test_criterion_12_real_loan_data_ordering():
    """Optional: on a user-supplied loan extract the glass-box models keep
    the expected quality ordering (EBM >= GBDT >= LR on AUPRC, 0.01 band)."""
    csv_path = os.environ.get("GLASSBOX_LENDING_CLUB_CSV")
    config_path = os.environ.get("GLASSBOX_LENDING_CLUB_CONFIG")
    if not csv_path or not config_path:
        pytest.skip(
            "set GLASSBOX_LENDING_CLUB_CSV and GLASSBOX_LENDING_CLUB_CONFIG "
            "to run the real-data mode"
        )
    from glassbox_credit.data import PrepConfig, encode_target, engineer_fico, ingest_csv
    from glassbox_credit.data import prepare

    config = PrepConfig.from_json_file(config_path)
    table = ingest_csv(csv_path, config)
    table = encode_target(table, config)
    table = engineer_fico(table)
    train, test = prepare(table, config)
    weighted = apply_class_weights(train)
    auprc = {}
    for kind, model_config in (
        ("lr", None),
        ("gbdt", {"rounds": 100}),
        ("ebm", None),
    ):
        model = train_model(kind, weighted, model_config)
        auprc[kind] = evaluate_scores(model.predict_proba(test.X), test.y).auprc
    print(f"criterion 12: auprc {auprc}")
    assert auprc["ebm"] >= auprc["gbdt"] - 0.01
    assert auprc["gbdt"] >= auprc["lr"] - 0.01
