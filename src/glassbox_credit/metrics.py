"""Evaluation metrics for probability-of-default scoring.

AUROC uses the tied-rank (Mann-Whitney) formulation; AUPRC is average
precision with equal-score blocks collapsed; hard-classification metrics
come from the confusion matrix at a probability threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .errors import DataError

LOGLOSS_EPS = 1e-12


@dataclass
class MetricReport:
    auprc: float
    auroc: float
    f1: float
    balanced_accuracy: float
    threshold: float
    degenerate: bool = False  # a confusion-matrix denominator was zero

    def as_dict(self) -> dict:
        return asdict(self)


def _validate(scores, labels):
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise DataError("scores and labels must be 1-D and equal length")
    if not np.isfinite(scores).all():
        raise DataError("scores must be finite")
    if not np.isin(labels, (0, 1)).all():
        raise DataError("labels must be binary 0/1")
    return scores, labels.astype(int)


def _tie_blocks(scores, labels):
    """Walk the scores from highest to lowest, one block per distinct value.

    Returns (tp, seen): positives and rows at or above each block's score,
    one entry per block.
    """
    order = np.argsort(-scores, kind="mergesort")
    s = scores[order]
    ends = np.append(np.flatnonzero(s[1:] != s[:-1]), s.size - 1)
    return np.cumsum(labels[order])[ends], ends + 1


def auroc(scores, labels) -> float:
    """Probability a random positive outranks a random negative, ties at 0.5."""
    scores, labels = _validate(scores, labels)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("AUROC needs both classes present")
    tp, seen = _tie_blocks(scores, labels)
    # a block's ascending ranks run n - seen + 1 .. n - seen_before; every
    # term is a half-integer, so the sum is exact in any order
    seen_before = np.append(0, seen[:-1])
    mean_rank = labels.size - 0.5 * (seen + seen_before) + 0.5
    pos_rank_sum = (np.diff(tp, prepend=0) * mean_rank).sum()
    return float((pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def auprc(scores, labels) -> float:
    """Average precision: sum of (recall step) x (precision) over score blocks."""
    scores, labels = _validate(scores, labels)
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise DataError("AUPRC needs at least one positive")
    tp, seen = _tie_blocks(scores, labels)
    recall = tp / n_pos
    # cumsum, not sum: a running total block by block, highest score first;
    # np.sum adds pairwise and can round differently
    return float(np.cumsum(np.diff(recall, prepend=0.0) * (tp / seen))[-1])


def confusion(scores, labels, threshold: float):
    scores, labels = _validate(scores, labels)
    pred = scores >= threshold
    tp = int(np.sum(pred & (labels == 1)))
    fp = int(np.sum(pred & (labels == 0)))
    fn = int(np.sum(~pred & (labels == 1)))
    tn = int(np.sum(~pred & (labels == 0)))
    return tp, fp, fn, tn


def classification_metrics(scores, labels, threshold: float = 0.5):
    """F1 and balanced accuracy at a probability threshold.

    Degenerate denominators follow the zero convention and set the
    ``degenerate`` flag.
    """
    if not 0.0 < threshold < 1.0:
        raise DataError("threshold must be in (0,1)")
    tp, fp, fn, tn = confusion(scores, labels, threshold)
    degenerate = False
    if tp + fp == 0 or tp + fn == 0:
        precision = recall = 0.0
        degenerate = True
    else:
        precision = tp / (tp + fp)
        recall = tp / (tp + fn)
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    if precision + recall == 0:
        degenerate = True
    tpr = tp / (tp + fn) if tp + fn > 0 else 0.0
    tnr = tn / (tn + fp) if tn + fp > 0 else 0.0
    if tp + fn == 0 or tn + fp == 0:
        degenerate = True
    return f1, (tpr + tnr) / 2.0, degenerate


def evaluate_scores(scores, labels, threshold: float = 0.5) -> MetricReport:
    f1, bal_acc, degenerate = classification_metrics(scores, labels, threshold)
    return MetricReport(
        auprc=auprc(scores, labels),
        auroc=auroc(scores, labels),
        f1=f1,
        balanced_accuracy=bal_acc,
        threshold=threshold,
        degenerate=degenerate,
    )


def log_loss(probs, labels, weights=None) -> float:
    """Weighted mean negative log-likelihood with probabilities clipped."""
    probs = np.clip(np.asarray(probs, dtype=float), LOGLOSS_EPS, 1.0 - LOGLOSS_EPS)
    labels = np.asarray(labels, dtype=float)
    if weights is None:
        weights = np.ones_like(labels)
    weights = np.asarray(weights, dtype=float)
    ll = labels * np.log(probs) + (1.0 - labels) * np.log(1.0 - probs)
    return float(-(weights * ll).sum() / weights.sum())


def roc_curve(scores, labels):
    """(fpr, tpr) points at every distinct score threshold, descending."""
    scores, labels = _validate(scores, labels)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("ROC curve needs both classes present")
    tp, seen = _tie_blocks(scores, labels)
    return [(0.0, 0.0)] + list(zip(((seen - tp) / n_neg).tolist(), (tp / n_pos).tolist()))


def pr_curve(scores, labels):
    """(recall, precision) points at every distinct score threshold."""
    scores, labels = _validate(scores, labels)
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise DataError("PR curve needs at least one positive")
    tp, seen = _tie_blocks(scores, labels)
    return list(zip((tp / n_pos).tolist(), (tp / seen).tolist()))
