"""Shapley attributions for the boosted-tree model.

Two routes to the same quantity, deliberately kept independent:

* ``shapley_exact`` enumerates every feature subset and evaluates the
  cover-weighted conditional expectation per subset (tabulated per leaf so
  all 2^d subsets are handled in a few vectorized passes). Together with
  ``conditional_expectation`` it is the oracle the fast route is tested
  against.
* ``tree_shap_batch`` explains many rows at once. A leaf's share of the
  path-dependent expectation is a product over the distinct features on its
  path (repeated splits on one feature merge: their cover ratios multiply,
  their branch tests AND), so its Shapley values are those of a product
  game whose players are those features, and they depend on a row only
  through which of them the row follows. A chunk of rows is explained by
  computing every (row, leaf) follow pattern with numpy and evaluating all
  of those games at once in closed form, with no Python loop per row. This
  is the Fast TreeSHAP idea (Yang 2021) applied to Lundberg et al.'s
  path-dependent TreeSHAP, with no per-leaf tables. Every leaf of the
  forest sits in one slot table (GPUTreeShap's layout: Mitchell, Frank &
  Wilkinson 2022), which the model's node table builds on the first
  attribution and keeps; it is never persisted. The games of all trees are
  evaluated together, and each tree's values are added in tree order.
  ``tree_shap`` is its one-row form.

Both operate in margin (log-odds) space, where attributions are additive
across trees. ``global_importance`` averages |phi| over a sample to produce
the feature ranking used for model reduction; ``attributions_csv`` exports
per-row values. Rows with NaN or infinite values raise DataError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, check_matrix, write_atomic
from .errors import DataError
from .gbdt import _LEAF, GbdtModel, Tree, tree_sums
from .ranking import RankedFeatures, rank_from_scores

EXACT_MAX_FEATURES = 15


@dataclass
class Attribution:
    base_value: float
    values: np.ndarray
    target: str = "margin"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if not np.isfinite(self.values).all() or not math.isfinite(self.base_value):
            raise DataError("non-finite attribution")

    def total(self) -> float:
        return float(self.base_value + self.values.sum())


def conditional_expectation(model: GbdtModel, x, subset) -> float:
    """Path-dependent restricted prediction f_S(x): follow x's branch at
    nodes splitting on a feature in S, otherwise average both children by
    their training cover."""
    x = np.asarray(x, dtype=float)
    S = frozenset(subset)
    for j in S:
        if not 0 <= j < model.d:
            raise DataError(f"subset index {j} out of range")

    def rec(tree: Tree, node: int) -> float:
        f = tree.feature[node]
        if f == _LEAF:
            return tree.value[node]
        l, r = tree.left[node], tree.right[node]
        if f in S:
            return rec(tree, l if x[f] < tree.threshold[node] else r)
        cl, cr = tree.cover[l], tree.cover[r]
        return (cl * rec(tree, l) + cr * rec(tree, r)) / (cl + cr)

    return model.base_score + model.eta * sum(rec(t, 0) for t in model.trees)


def _leaf_paths(tree: Tree):
    """(leaf value, [(feature, threshold, goes left?, cover ratio), ...]) per
    leaf, root to leaf. Whether an instance follows a split is decided later."""
    paths = []
    # Python scalars: numpy scalar arithmetic is several times slower here
    names = ("feature", "threshold", "left", "right", "value", "cover")
    feature, threshold, left, right, value, cover = (getattr(tree, f).tolist() for f in names)

    def rec(node, acc):
        f = feature[node]
        if f == _LEAF:
            paths.append((value[node], list(acc)))
            return
        l, r = left[node], right[node]
        total = cover[l] + cover[r]
        acc.append((f, threshold[node], True, cover[l] / total))
        rec(l, acc)
        acc.pop()
        acc.append((f, threshold[node], False, cover[r] / total))
        rec(r, acc)
        acc.pop()

    rec(0, [])
    return paths


def _subset_values(model: GbdtModel, x) -> np.ndarray:
    """f_S(x) tabulated for every bitmask S over the model's features."""
    d = model.d
    n_masks = 1 << d
    masks = np.arange(n_masks, dtype=np.int64)
    total = np.zeros(n_masks)
    for tree in model.trees:
        for value, path in _leaf_paths(tree):
            factor = np.ones(n_masks)
            for f, thr, left_branch, ratio in path:
                follows = (x[f] < thr) == left_branch
                in_s = (masks >> f) & 1 == 1
                factor *= np.where(in_s, 1.0 if follows else 0.0, ratio)
            total += value * factor
    return model.base_score + model.eta * total


def shapley_exact(model: GbdtModel, x) -> Attribution:
    """Brute-force Shapley values over all 2^d feature subsets."""
    d = model.d
    if d > EXACT_MAX_FEATURES:
        raise DataError(f"exact enumeration limited to d <= {EXACT_MAX_FEATURES}")
    x = np.asarray(x, dtype=float)
    fvals = _subset_values(model, x)
    masks = np.arange(1 << d, dtype=np.int64)
    sizes = np.zeros(1 << d, dtype=np.int64)
    for f in range(d):
        sizes += (masks >> f) & 1
    fact = [math.factorial(k) for k in range(d + 1)]
    weight_by_size = np.array(
        [fact[s] * fact[d - s - 1] / fact[d] for s in range(d)] + [0.0]
    )
    phi = np.zeros(d)
    for j in range(d):
        without = masks[(masks >> j) & 1 == 0]
        w = weight_by_size[sizes[without]]
        phi[j] = float(np.sum(w * (fvals[without | (1 << j)] - fvals[without])))
    return Attribution(base_value=float(fvals[0]), values=phi)


# --- batched evaluation per leaf -------------------------------------------
# A leaf adds v * prod_{j in S} o_j * prod_{j not in S} z_j to f_S(x), where
# j runs over the distinct features on its path, z_j is the product of their
# cover ratios and o_j (0 or 1) says whether x follows every split on j. Its
# Shapley values are those of this product game, so a chunk of rows is
# explained by evaluating one game per (row, leaf) with numpy.

# Evaluated (row, leaf, slot) entries, or gathered path splits if more, per
# piece of rows. It bounds transient memory: the largest piece array, the
# games' suffix sums, holds width times as many floats (128 KB at depth 4).
# It also sets the blocks of ``_shap_chunks``: CHUNK_ENTRIES over the entries
# or splits of the largest tree. A row's values do not depend on its block,
# but ``global_importance`` adds |phi| up block by block, so its sums, and
# the rankings made from them, do.
CHUNK_ENTRIES = 1 << 12


def _product_game_shap(value, zero, one, weights) -> np.ndarray:
    """Shapley values of the games ``v * prod_{j in S} one_j *
    prod_{j not in S} zero_j``, one game per column of ``zero``/``one``
    (M, P): (M, P) values, player by game. ``weights`` (M, P) holds each
    game's Shapley weights ``w_s = s! (m - s - 1)! / m!`` for its own number
    of players m, then zeros; its players past m must have ``zero = 1`` and
    ``one = 0``, which leaves the others' values as those of the m-player
    game, bit for bit.

    Player k gets ``v (one_k - zero_k) sum_s w_s c_s`` with ``c_s`` the
    coefficients of ``prod_{j != k} (zero_j + one_j t)`` (elementary symmetric
    polynomials). The product splits into the players before k, with
    coefficients ``head[k][a]``, and those after k; ``rest[k][a]`` holds
    ``sum_b w_(a+b) c_b`` of the latter, so no coefficient is divided out.
    Every operation is elementwise per game, so a game's values do not
    depend on the other games.
    """
    M, P = zero.shape
    rest = np.zeros((M, M, P))
    rest[M - 1] = weights
    for k in range(M - 1, 0, -1):
        rest[k - 1, :-1] = zero[k] * rest[k, :-1] + one[k] * rest[k, 1:]
    head = np.zeros((M, M, P))
    head[0, 0] = 1.0
    for k in range(M - 1):
        head[k + 1, 0] = head[k, 0] * zero[k]
        head[k + 1, 1:] = head[k, 1:] * zero[k] + head[k, :-1] * one[k]
    return value * (one - zero) * (head * rest).sum(axis=1)


class _Games:
    """The (row, leaf) games of the forest for pieces of up to ``rows``
    rows, laid out row by row once per call: each game's value, cover
    ratios, Shapley weights and live slots (slot by game), and the bins of
    each row's path splits and slot values."""

    def __init__(self, model: GbdtModel, rows: int):
        t = self.t = model.table.leaf_slots
        self.n_trees, self.d = len(model.table.start), model.d
        width = t.zero.shape[1]
        fact = [math.factorial(s) for s in range(width + 1)]
        by_players = [[fact[s] * fact[m - s - 1] / fact[m] if s < m else 0.0 for s in range(width)]
                      for m in range(width + 1)]
        weights = np.array(by_players).reshape(width + 1, width)[t.width]
        self.value = np.tile(t.value, rows)
        self.zero, self.weights = np.tile(t.zero.T, rows), np.tile(weights.T, rows)
        # slots past the width of the leaf's tree are players absent from its game
        self.live = np.tile(np.arange(width) < t.width[:, None], (rows, 1))
        row = np.arange(rows)[:, None]
        self.split_bins = (row * t.zero.size + t.split_slot).reshape(-1)
        # a slot without a feature lands in its tree's bin 0, which is dropped
        cells = t.tree[:, None] * (self.d + 1) + t.slot_feature + 1
        self.cells = (row * (self.n_trees * (self.d + 1)) + cells.reshape(-1)).reshape(-1)

    def phi(self, X: np.ndarray) -> np.ndarray:
        """(n, d) leaf-value-unit attributions of the rows of X. Each tree's
        values go into (row, tree, feature) bins, which are then added up in
        tree order."""
        t, n = self.t, X.shape[0]
        games = n * len(t.value)
        if not t.zero.size:  # no tree splits
            return np.zeros((n, self.d))
        missed = (X[:, t.split_feature] < t.split_threshold) != t.split_left
        # a slot is followed when none of its splits is missed
        follows = np.bincount(self.split_bins[:missed.size], weights=missed.reshape(-1),
                              minlength=n * t.zero.size) == 0
        one = (follows.reshape(games, -1) & self.live[:games]).T.astype(float, order="C")
        phi = _product_game_shap(
            self.value[:games], self.zero[:, :games], one, self.weights[:, :games]
        )
        # bincount adds in input order, so a row's sums do not depend on the piece
        per_tree = np.bincount(self.cells[:phi.size], weights=phi.T.reshape(-1),
                               minlength=n * self.n_trees * (self.d + 1))
        return np.cumsum(per_tree.reshape(n, self.n_trees, -1)[:, :, 1:], axis=1)[:, -1]


def _shap_chunks(model: GbdtModel, X):
    """(row slice, phi) per block of rows of X, phi in margin units. A row's
    values are the same whatever else is in its block. NaN or infinite
    values raise DataError."""
    X = check_matrix(X, model.d)
    t = model.table.leaf_slots
    # a block's rows: CHUNK_ENTRIES over the largest tree's entries or splits
    split_leaf = t.split_slot // max(1, t.zero.shape[1])
    largest = max(np.bincount(t.tree, weights=t.width).max(initial=1),
                  np.bincount(t.tree[split_leaf]).max(initial=1))
    block = max(1, CHUNK_ENTRIES // int(largest))
    piece = max(1, CHUNK_ENTRIES // max(1, t.zero.size, t.split_feature.size))
    games = _Games(model, min(piece, block, X.shape[0]))
    for lo in range(0, X.shape[0], block):
        chunk = X[lo:lo + block]
        phi = np.concatenate([games.phi(chunk[i:i + piece]) for i in range(0, chunk.shape[0], piece)])
        # phi collected in leaf-value units; shrinkage applies once per model
        phi *= model.eta
        yield slice(lo, lo + block), phi


def tree_shap_batch(model: GbdtModel, X) -> np.ndarray:
    """(n, d) path-dependent TreeSHAP values in margin units, one row per row
    of X. NaN or infinite values raise DataError."""
    parts = [phi for _, phi in _shap_chunks(model, X)]
    return np.concatenate([np.zeros((0, model.d))] + parts)


def _base_value(model: GbdtModel) -> float:
    """E[f(x)] under the tree covers: the attribution base value."""
    return float(tree_sums(model.base_score, model.eta, model.table.means))


def tree_shap(model: GbdtModel, x) -> Attribution:
    """Shapley values of the cover-weighted conditional expectation for one
    instance: a one-row ``tree_shap_batch``."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.d,):
        raise DataError(f"expected feature vector of length {model.d}")
    phi = tree_shap_batch(model, x[None, :])[0]
    return Attribution(base_value=_base_value(model), values=phi)


def global_importance(
    model: GbdtModel, sample: Dataset, max_rows: int = 50_000
) -> RankedFeatures:
    """Mean |phi_j| over the sample rows, ranked descending. Samples larger
    than ``max_rows`` are thinned by a deterministic stride."""
    if sample.n == 0:
        raise DataError("empty attribution sample")
    X = sample.X
    if sample.n > max_rows:
        stride = -(-sample.n // max_rows)  # ceil
        X = X[::stride]
    acc = np.zeros(model.d)
    for _, phi in _shap_chunks(model, X):
        acc += np.abs(phi).sum(axis=0)
    acc /= X.shape[0]
    return rank_from_scores(
        model.feature_names,
        acc,
        method="shap",
        meta={"sample_rows": int(X.shape[0])},
    )


def attributions_csv(model: GbdtModel, data: Dataset, path):
    """Per-instance attribution export: row id, base value, then one phi per
    feature."""
    base = repr(_base_value(model))
    with write_atomic(path) as fh:
        fh.write("row,base_value," + ",".join(model.feature_names) + "\n")
        for rows, phi in _shap_chunks(model, data.X):
            for i, row in zip(range(data.n)[rows], phi):
                fh.write(f"{i},{base}," + ",".join(repr(float(v)) for v in row) + "\n")
