import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glassbox_credit.errors import DataError
from glassbox_credit.metrics import (
    auprc,
    auroc,
    classification_metrics,
    confusion,
    evaluate_scores,
    log_loss,
    pr_curve,
    roc_curve,
)


def brute_force_auroc(scores, labels):
    """Average over all positive/negative pairs, ties counted half."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p, n in itertools.product(pos, neg):
        total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (len(pos) * len(neg))


def test_auroc_known_value():
    # pairs: (.35 vs .1)=1, (.35 vs .4)=0, (.8 vs .1)=1, (.8 vs .4)=1
    assert auroc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75


def test_auroc_perfect_and_inverted():
    assert auroc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0
    assert auroc([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]) == 0.0


def test_auroc_all_tied_is_half():
    assert auroc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5


def test_auroc_matches_pairwise_brute_force():
    rng = np.random.default_rng(42)
    for trial in range(20):
        n = rng.integers(6, 40)
        scores = np.round(rng.random(n), 2)  # rounding manufactures ties
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert auroc(scores, labels) == pytest.approx(
            brute_force_auroc(scores, labels), abs=1e-12
        )


def test_auprc_known_value():
    # descending: (0.9, 1), (0.8, 0), (0.7, 1) -> AP = (1 + 2/3) / 2 = 5/6
    assert auprc([0.7, 0.9, 0.8], [1, 1, 0]) == pytest.approx(5.0 / 6.0)


def brute_force_ap(scores, labels):
    """Textbook average precision, ties handled as one block."""
    order = np.argsort(-np.asarray(scores), kind="mergesort")
    s = np.asarray(scores)[order]
    y = np.asarray(labels)[order]
    n_pos = y.sum()
    total = tp = seen = 0.0
    i = 0
    while i < len(y):
        j = i
        while j + 1 < len(y) and s[j + 1] == s[i]:
            j += 1
        block_pos = y[i : j + 1].sum()
        tp += block_pos
        seen += j - i + 1
        total += block_pos * (tp / seen)
        i = j + 1
    return total / n_pos


def test_auprc_matches_brute_force():
    rng = np.random.default_rng(3)
    for trial in range(20):
        n = rng.integers(6, 50)
        scores = np.round(rng.random(n), 1)
        labels = rng.integers(0, 2, n)
        if labels.sum() == 0:
            labels[0] = 1
        assert auprc(scores, labels) == pytest.approx(
            brute_force_ap(scores, labels), abs=1e-12
        )


def test_confusion_counts():
    scores = [0.9, 0.6, 0.4, 0.2]
    labels = [1, 0, 1, 0]
    assert confusion(scores, labels, 0.5) == (1, 1, 1, 1)


def test_f1_and_balanced_accuracy():
    scores = [0.9, 0.8, 0.3, 0.1]
    labels = [1, 0, 1, 0]
    f1, bal, degenerate = classification_metrics(scores, labels, 0.5)
    # tp=1 fp=1 fn=1 tn=1: precision=recall=0.5 -> f1=0.5; tpr=tnr=0.5
    assert f1 == 0.5 and bal == 0.5 and not degenerate


def test_degenerate_zero_conventions():
    # no predicted positives: precision denominator is zero -> f1 = 0
    f1, bal, degenerate = classification_metrics([0.1, 0.2], [1, 0], 0.5)
    assert f1 == 0.0 and degenerate


def test_evaluate_scores_report(tiny_data):
    report = evaluate_scores(tiny_data.y * 0.8 + 0.1, tiny_data.y)
    assert report.auroc == 1.0 and report.auprc == 1.0 and report.f1 == 1.0
    assert not report.degenerate


def test_threshold_validation():
    with pytest.raises(DataError):
        classification_metrics([0.5], [1], threshold=0.0)
    with pytest.raises(DataError):
        classification_metrics([0.5], [1], threshold=1.0)


def test_label_validation():
    with pytest.raises(DataError):
        auroc([0.1, 0.2], [0, 2])
    with pytest.raises(DataError):
        auroc([0.1], [0, 1])
    for bad in (np.nan, np.inf):
        with pytest.raises(DataError):
            evaluate_scores([bad, 0.2, 0.8], [1, 0, 1])


def test_log_loss_known_value():
    # -mean(log .8, log .7) for confident-correct predictions
    expected = -0.5 * (np.log(0.8) + np.log(0.3))
    assert log_loss([0.8, 0.3], [1, 1], np.ones(2)) == pytest.approx(expected)


def test_log_loss_clipping_is_finite():
    assert np.isfinite(log_loss([0.0, 1.0], [1, 0], np.ones(2)))


def test_log_loss_weights():
    # doubling one sample's weight equals repeating it
    a = log_loss([0.8, 0.3], [1, 0], np.array([2.0, 1.0]))
    b = log_loss([0.8, 0.8, 0.3], [1, 1, 0], np.ones(3))
    assert a == pytest.approx(b)


def test_roc_curve_endpoints_and_area():
    rng = np.random.default_rng(11)
    scores = rng.random(60)
    labels = rng.integers(0, 2, 60)
    pts = roc_curve(scores, labels)
    assert pts[0] == (0.0, 0.0) and pts[-1] == (1.0, 1.0)
    # trapezoidal area under the curve equals the rank-based AUROC
    area = sum(
        (x2 - x1) * (y1 + y2) / 2.0
        for (x1, y1), (x2, y2) in zip(pts, pts[1:])
    )
    assert area == pytest.approx(auroc(scores, labels), abs=1e-12)


def test_pr_curve_monotone_recall():
    rng = np.random.default_rng(13)
    scores = rng.random(40)
    labels = rng.integers(0, 2, 40)
    if labels.sum() == 0:
        labels[0] = 1
    pts = pr_curve(scores, labels)
    recalls = [r for r, _ in pts]
    assert recalls == sorted(recalls)
    assert recalls[-1] == 1.0


@settings(max_examples=300)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 1)), min_size=1, max_size=60))
def test_curves_match_per_threshold_confusion(rows):
    # five distinct score values: almost every threshold is a tie block
    scores = np.array([s / 4.0 for s, _ in rows])
    labels = np.array([y for _, y in rows])
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    counts = [confusion(scores, labels, t) for t in sorted(set(scores), reverse=True)]
    if n_pos == 0:
        with pytest.raises(DataError):
            pr_curve(scores, labels)
        return
    assert pr_curve(scores, labels) == [(tp / n_pos, tp / (tp + fp)) for tp, fp, _, _ in counts]
    assert auprc(scores, labels) == pytest.approx(brute_force_ap(scores, labels), abs=1e-12)
    if n_neg == 0:
        with pytest.raises(DataError):
            roc_curve(scores, labels)
        return
    assert roc_curve(scores, labels) == [(0.0, 0.0)] + [
        (fp / n_neg, tp / n_pos) for tp, fp, _, _ in counts
    ]
    assert auroc(scores, labels) == pytest.approx(
        brute_force_auroc(scores, labels), abs=1e-12
    )
