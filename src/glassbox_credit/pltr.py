"""Penalized Logistic Tree Regression.

Binary indicator features are harvested from one- and two-split decision
stumps (weighted Gini criterion, midpoint thresholds), appended to the
original features, and the extended design matrix is fitted with the
adaptive lasso from the linear module.

Indicator semantics: nu(j) = 1 iff x_j > t_j. For a pair, the root is the
more informative feature of the two and xi(j,q) = 1 iff x_root < t_root and
x_other > t_second, with the second threshold fitted inside the root's
below-threshold branch only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, check_matrix
from .errors import DataError
from .linear import LinearModel, fit_adaptive_lasso, fit_logistic


@dataclass
class StumpSpec:
    feature: int
    threshold: float
    gain: float = 0.0  # weighted Gini impurity reduction


@dataclass
class PairSplitSpec:
    root_feature: int
    root_threshold: float
    second_feature: int
    second_threshold: float


@dataclass
class PltrModel:
    stumps: list[StumpSpec]
    pair_splits: list[PairSplitSpec]
    linear: LinearModel
    feature_names: list[str]
    include_original: bool = True
    skipped: list[str] = field(default_factory=list)

    def extended_matrix(self, X) -> np.ndarray:
        X = check_matrix(X, len(self.feature_names))
        cols = [X] if self.include_original else []
        for s in self.stumps:
            cols.append((X[:, s.feature] > s.threshold).astype(float)[:, None])
        for p in self.pair_splits:
            xi = (X[:, p.root_feature] < p.root_threshold) & (
                X[:, p.second_feature] > p.second_threshold
            )
            cols.append(xi.astype(float)[:, None])
        return np.hstack(cols)

    def predict_proba(self, X) -> np.ndarray:
        return self.linear.predict_proba(self.extended_matrix(X))

    def predict_margin(self, X) -> np.ndarray:
        return self.linear.decision_margin(self.extended_matrix(X))


def _gini_best_split(x, y, w):
    """Best midpoint threshold by weighted Gini impurity reduction.

    Returns (threshold, reduction) or None for a constant feature. Ties break
    to the lowest threshold.
    """
    order = np.argsort(x, kind="mergesort")
    xs, ys, ws = x[order], y[order], w[order]
    boundary = np.nonzero(xs[1:] != xs[:-1])[0]
    if boundary.size == 0:
        return None
    wp = np.cumsum(ws * ys)
    wt = np.cumsum(ws)
    WP, WT = wp[-1], wt[-1]

    def gini_term(pos, tot):
        # tot * gini = tot * 2p(1-p) with p = pos/tot
        with np.errstate(divide="ignore", invalid="ignore"):
            out = 2.0 * pos * (tot - pos) / tot
        return np.where(tot > 0, out, 0.0)

    parent = gini_term(WP, WT)
    left = gini_term(wp[boundary], wt[boundary])
    right = gini_term(WP - wp[boundary], WT - wt[boundary])
    reductions = (parent - left - right) / WT
    k = int(np.argmax(reductions))  # first max -> lowest threshold
    thr = 0.5 * (xs[boundary[k]] + xs[boundary[k] + 1])
    return float(thr), float(reductions[k])


def fit_stump(data: Dataset, j: int) -> StumpSpec | None:
    """Single-split stump for feature j; None when the feature is constant."""
    found = _gini_best_split(data.X[:, j], data.y, data.w)
    if found is None:
        return None
    thr, red = found
    return StumpSpec(feature=j, threshold=thr, gain=red)


def fit_pair_split(data: Dataset, j: int, q: int) -> PairSplitSpec | None:
    """Two-split spec: root is the more informative of (j, q); the second
    threshold is fitted within the root's below-threshold branch."""
    if j == q:
        raise DataError("pair features must differ")
    return _pair_split(data, fit_stump(data, j), fit_stump(data, q))


def _pair_split(
    data: Dataset, sj: StumpSpec | None, sq: StumpSpec | None
) -> PairSplitSpec | None:
    """Pair split from the two features' already fitted stumps."""
    if sj is None or sq is None:
        return None
    root, other = (sj, sq.feature) if sj.gain >= sq.gain else (sq, sj.feature)
    below = data.X[:, root.feature] < root.threshold
    if int(below.sum()) < 2:
        return None
    found = _gini_best_split(
        data.X[below, other], data.y[below], data.w[below]
    )
    if found is None:
        return None
    return PairSplitSpec(
        root_feature=root.feature,
        root_threshold=root.threshold,
        second_feature=other,
        second_threshold=found[0],
    )


def _spec_names(feature_names, stumps, pair_splits, include_original):
    names = list(feature_names) if include_original else []
    for s in stumps:
        names.append(f"nu({feature_names[s.feature]})")
    for p in pair_splits:
        names.append(
            f"xi({feature_names[p.root_feature]},{feature_names[p.second_feature]})"
        )
    return names


def assemble_extended(
    data: Dataset, stumps, pair_splits, include_original: bool = True
) -> Dataset:
    """[x | nu features | xi features] with systematic column names."""
    shell = PltrModel(
        stumps=list(stumps),
        pair_splits=list(pair_splits),
        linear=LinearModel(0.0, np.zeros(0), []),
        feature_names=list(data.feature_names),
        include_original=include_original,
    )
    Xext = shell.extended_matrix(data.X)
    names = _spec_names(data.feature_names, stumps, pair_splits, include_original)
    return Dataset(Xext, data.y.copy(), data.w.copy(), names)


def fit_pltr(
    data: Dataset,
    lam="auto",
    gamma: float = 1.0,
    include_original: bool = True,
    validation: Dataset | None = None,
) -> PltrModel:
    """Stumps for every feature, pair splits for every unordered pair, then
    adaptive-lasso logistic regression on the extended set. Intended for
    reduced feature sets; pair generation is quadratic in d."""
    d = data.d
    fitted = [fit_stump(data, j) for j in range(d)]
    stumps = [s for s in fitted if s is not None]
    skipped = [
        f"constant feature {name}"
        for name, s in zip(data.feature_names, fitted)
        if s is None
    ]
    pair_splits = []
    for j in range(d):
        for q in range(j + 1, d):
            p = _pair_split(data, fitted[j], fitted[q])
            if p is None:
                skipped.append(
                    f"degenerate pair ({data.feature_names[j]},{data.feature_names[q]})"
                )
                continue
            pair_splits.append(p)
    extended = assemble_extended(data, stumps, pair_splits, include_original)
    if lam == 0 or lam == 0.0:
        linear = fit_logistic(extended)
    else:
        val_ext = None
        if validation is not None:
            val_ext = assemble_extended(
                validation.select_features(list(data.feature_names)),
                stumps,
                pair_splits,
                include_original,
            )
        linear = fit_adaptive_lasso(extended, lam, gamma, validation=val_ext)
    return PltrModel(
        stumps=stumps,
        pair_splits=pair_splits,
        linear=linear,
        feature_names=list(data.feature_names),
        include_original=include_original,
        skipped=skipped,
    )
