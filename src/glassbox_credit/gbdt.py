"""Second-order gradient-boosted regression trees for binary classification.

Exact greedy split search over sorted feature values with midpoint
thresholds; logistic gradients/hessians scaled by sample weights; leaf
weights -G/(H+lambda). Nothing is randomized, so identical data and config
give bit-identical models. Ties between candidate splits break to the lowest
feature index, then the lowest threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, check_matrix
from .errors import DataError
from .linear import sigmoid

_LEAF = -1


@dataclass
class GbdtConfig:
    rounds: int = 50
    eta: float = 0.1
    max_depth: int = 4
    reg_lambda: float = 1.0
    reg_gamma: float = 0.0
    min_child_cover: float = 1.0

    def __post_init__(self):
        if self.rounds < 1:
            raise DataError("rounds must be >= 1")
        if not 0.0 < self.eta <= 1.0:
            raise DataError("eta must be in (0,1]")
        if self.reg_lambda < 0 or self.reg_gamma < 0:
            raise DataError("regularization must be non-negative")

    def as_dict(self) -> dict:
        return {
            "rounds": self.rounds,
            "eta": self.eta,
            "max_depth": self.max_depth,
            "reg_lambda": self.reg_lambda,
            "reg_gamma": self.reg_gamma,
            "min_child_cover": self.min_child_cover,
        }


class Tree:
    """Flat-array regression tree. ``feature[i] == -1`` marks a leaf; then
    ``value[i]`` is the (unshrunk) leaf weight. ``cover`` is the summed
    hessian mass that reached each node at build time."""

    def __init__(self):
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []
        self.cover: list[float] = []
        self.gain: list[float] = []

    def add_node(self) -> int:
        for arr, zero in (
            (self.feature, _LEAF),
            (self.threshold, 0.0),
            (self.left, _LEAF),
            (self.right, _LEAF),
            (self.value, 0.0),
            (self.cover, 0.0),
            (self.gain, 0.0),
        ):
            arr.append(zero)
        return len(self.feature) - 1

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Vectorized routing: left iff x[feature] < threshold."""
        n = X.shape[0]
        out = np.empty(n)
        stack = [(0, np.arange(n))]
        while stack:
            node, idx = stack.pop()
            if self.feature[node] == _LEAF:
                out[idx] = self.value[node]
                continue
            go_left = X[idx, self.feature[node]] < self.threshold[node]
            stack.append((self.left[node], idx[go_left]))
            stack.append((self.right[node], idx[~go_left]))
        return out

    def mean_value(self) -> float:
        """Cover-weighted expectation of the tree with no features known."""

        def rec(node):
            if self.feature[node] == _LEAF:
                return self.value[node]
            l, r = self.left[node], self.right[node]
            cl, cr = self.cover[l], self.cover[r]
            return (cl * rec(l) + cr * rec(r)) / (cl + cr)

        return rec(0)


@dataclass
class GbdtModel:
    trees: list[Tree]
    base_score: float
    eta: float
    reg_lambda: float
    reg_gamma: float
    max_depth: int
    feature_names: list[str]
    config: dict = field(default_factory=dict)

    @property
    def d(self) -> int:
        return len(self.feature_names)

    def predict_margin(self, X) -> np.ndarray:
        X = check_matrix(X, self.d)
        margin = np.full(X.shape[0], self.base_score)
        for tree in self.trees:
            margin += self.eta * tree.predict(X)
        return margin

    def predict_proba(self, X) -> np.ndarray:
        return sigmoid(self.predict_margin(X))


def split_gain(g_l, h_l, g_r, h_r, reg_lambda, reg_gamma) -> float:
    """Objective reduction of splitting a node into (L, R)."""
    if h_l < 0 or h_r < 0:
        raise DataError("hessian sums must be non-negative")
    score = lambda g, h: g * g / (h + reg_lambda)
    return 0.5 * (score(g_l, h_l) + score(g_r, h_r) - score(g_l + g_r, h_l + h_r)) - reg_gamma


def _best_split_for_node(X, g, h, idx, cfg: GbdtConfig):
    """Exact scan over every feature's sorted unique values within the node.

    Returns (gain, feature, threshold, left_mask) or None. Iterating features
    in ascending index order with a strict improvement test implements the
    lowest-feature / lowest-threshold tie-break.
    """
    G, H = g[idx].sum(), h[idx].sum()
    best = None
    for f in range(X.shape[1]):
        xs = X[idx, f]
        order = np.argsort(xs, kind="mergesort")
        xs_sorted = xs[order]
        gs = g[idx][order]
        hs = h[idx][order]
        boundary = np.nonzero(xs_sorted[1:] != xs_sorted[:-1])[0]
        if boundary.size == 0:
            continue
        Gc = np.cumsum(gs)
        Hc = np.cumsum(hs)
        GL, HL = Gc[boundary], Hc[boundary]
        GR, HR = G - GL, H - HL
        ok = (HL >= cfg.min_child_cover) & (HR >= cfg.min_child_cover)
        if not ok.any():
            continue
        gains = 0.5 * (
            GL * GL / (HL + cfg.reg_lambda)
            + GR * GR / (HR + cfg.reg_lambda)
            - G * G / (H + cfg.reg_lambda)
        ) - cfg.reg_gamma
        gains[~ok] = -np.inf
        k = int(np.argmax(gains))  # first max -> lowest threshold
        gain = float(gains[k])
        if gain <= 0.0:
            continue
        if best is None or gain > best[0]:
            thr = 0.5 * (xs_sorted[boundary[k]] + xs_sorted[boundary[k] + 1])
            best = (gain, f, float(thr), None)
    if best is None:
        return None
    gain, f, thr, _ = best
    return gain, f, thr, X[idx, f] < thr


def _grow_tree(X, g, h, cfg: GbdtConfig) -> Tree:
    tree = Tree()
    _grow_node(tree, X, g, h, cfg, np.arange(X.shape[0]), 0)
    return tree


def _grow_node(tree: Tree, X, g, h, cfg: GbdtConfig, idx, depth) -> int:
    # a module-level function, not a closure: a self-referencing closure is a
    # reference cycle that keeps the round's arrays alive until a GC pass
    node = tree.add_node()
    G, H = g[idx].sum(), h[idx].sum()
    tree.cover[node] = float(H)
    found = None
    if depth < cfg.max_depth:
        found = _best_split_for_node(X, g, h, idx, cfg)
    if found is None:
        tree.value[node] = float(-G / (H + cfg.reg_lambda))
        return node
    gain, f, thr, left_mask = found
    tree.feature[node] = f
    tree.threshold[node] = thr
    tree.gain[node] = gain
    tree.left[node] = _grow_node(tree, X, g, h, cfg, idx[left_mask], depth + 1)
    tree.right[node] = _grow_node(tree, X, g, h, cfg, idx[~left_mask], depth + 1)
    return node


def fit_gbdt(data: Dataset, config: GbdtConfig) -> GbdtModel:
    X, y, w = data.X, data.y, data.w
    if y.min() == y.max():
        raise DataError("GBDT needs both classes present")
    base_rate = float((w * y).sum() / w.sum())
    base_score = float(np.log(base_rate / (1.0 - base_rate)))
    margin = np.full(data.n, base_score)
    trees = []
    for _ in range(config.rounds):
        p = sigmoid(margin)
        g = w * (p - y)
        h = w * p * (1.0 - p)
        tree = _grow_tree(X, g, h, config)
        trees.append(tree)
        margin += config.eta * tree.predict(X)
    return GbdtModel(
        trees=trees,
        base_score=base_score,
        eta=config.eta,
        reg_lambda=config.reg_lambda,
        reg_gamma=config.reg_gamma,
        max_depth=config.max_depth,
        feature_names=list(data.feature_names),
        config=config.as_dict(),
    )


def importance_native(model: GbdtModel, kind: str) -> dict[str, float]:
    """Per-feature split statistics: summed gain, summed cover, or split
    counts. Features never used score 0."""
    if kind not in ("gain", "cover", "frequency"):
        raise DataError(f"unknown importance kind {kind!r}")
    scores = dict.fromkeys(model.feature_names, 0.0)
    for tree in model.trees:
        for node in range(tree.n_nodes):
            f = tree.feature[node]
            if f == _LEAF:
                continue
            name = model.feature_names[f]
            if kind == "gain":
                scores[name] += tree.gain[node]
            elif kind == "cover":
                scores[name] += tree.cover[node]
            else:
                scores[name] += 1.0
    return scores
