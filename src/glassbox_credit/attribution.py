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
  path-dependent TreeSHAP, with no per-leaf tables: only each tree's leaf
  paths in array form are kept, built on its first attribution and never
  persisted. ``tree_shap`` is its one-row form.

Both operate in margin (log-odds) space, where attributions are additive
across trees. ``global_importance`` averages |phi| over a sample to produce
the feature ranking used for model reduction; ``attributions_csv`` exports
per-row values. Rows with NaN or infinite values raise DataError.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .data import Dataset, check_matrix, write_atomic
from .errors import DataError
from .gbdt import _LEAF, GbdtModel, Tree
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
# row chunk. It bounds transient memory: the largest chunk array, the games'
# suffix sums, holds width times as many floats (128 KB at depth 4).
CHUNK_ENTRIES = 1 << 12


@dataclass
class _LeafSlots:
    """The leaves of one tree. Leaf ``i`` keeps its distinct path features in
    slots ``0 .. m_i - 1``; slots up to ``width`` are null players (cover
    ratio 1, always followed), which leave the others' values unchanged and
    get exactly 0."""

    split_feature: np.ndarray  # (n_splits,) every split on every leaf path, leaf by leaf
    split_threshold: np.ndarray
    split_left: np.ndarray  # the path takes the left branch
    split_slot: np.ndarray  # flat (leaf, slot) index of the split's feature
    slot_feature: np.ndarray  # (n_leaves, width) feature per slot; 0 for a null slot
    zero: np.ndarray  # (n_leaves, width) product of the cover ratios per slot
    value: np.ndarray  # (n_leaves,) leaf value


def _product_game_shap(value, zero, one) -> np.ndarray:
    """Shapley values of the games ``v * prod_{j in S} one_j *
    prod_{j not in S} zero_j``, one game per column of ``zero``/``one``
    (M, P): (M, P) values, player by game.

    Player k gets ``v (one_k - zero_k) sum_s w_s c_s`` with ``c_s`` the
    coefficients of ``prod_{j != k} (zero_j + one_j t)`` (elementary symmetric
    polynomials) and ``w_s = s! (M - s - 1)! / M!``. The product splits into
    the players before k, with coefficients ``head[k][a]``, and those after
    k; ``rest[k][a]`` holds ``sum_b w_(a+b) c_b`` of the latter, so no
    coefficient is divided out. Every operation is elementwise per game, so
    a game's values do not depend on the other games.
    """
    M, P = zero.shape
    fact = [math.factorial(s) for s in range(M + 1)]
    rest = np.zeros((M, M, P))
    rest[M - 1] = np.array([fact[s] * fact[M - s - 1] / fact[M] for s in range(M)])[:, None]
    for k in range(M - 1, 0, -1):
        rest[k - 1, :-1] = zero[k] * rest[k, :-1] + one[k] * rest[k, 1:]
    head = np.zeros((M, M, P))
    head[0, 0] = 1.0
    for k in range(M - 1):
        head[k + 1, 0] = head[k, 0] * zero[k]
        head[k + 1, 1:] = head[k, 1:] * zero[k] + head[k, :-1] * one[k]
    return value * (one - zero) * (head * rest).sum(axis=1)


def _leaf_slots(tree: Tree) -> _LeafSlots | None:
    """The tree's leaves in slot form; None for a single-leaf tree, which
    attributes nothing."""
    leaves = []
    for value, path in _leaf_paths(tree):
        slots: dict[int, int] = {}
        zero: list[float] = []
        for f, _, _, ratio in path:
            if slots.setdefault(f, len(slots)) == len(zero):
                zero.append(1.0)
            zero[slots[f]] *= ratio
        leaves.append((value, path, slots, zero))
    width = max(len(zero) for *_, zero in leaves)
    if width == 0:
        return None
    splits = [
        (f, thr, left, i * width + slots[f])
        for i, (_, path, slots, _) in enumerate(leaves)
        for f, thr, left, _ in path
    ]
    feature, threshold, left, slot = zip(*splits)
    return _LeafSlots(
        split_feature=np.array(feature, dtype=np.intp),
        split_threshold=np.array(threshold, dtype=float),
        split_left=np.array(left, dtype=bool),
        split_slot=np.array(slot, dtype=np.intp),
        slot_feature=np.array(
            [[*slots] + [0] * (width - len(slots)) for *_, slots, _ in leaves], dtype=np.intp
        ),
        zero=np.array([zero + [1.0] * (width - len(zero)) for *_, zero in leaves]),
        value=np.array([v for v, *_ in leaves], dtype=float),
    )


def _tree_phi(t: _LeafSlots, X: np.ndarray, d: int) -> np.ndarray:
    """(n, d) leaf-value-unit attributions of one tree for the rows of X."""
    n = X.shape[0]
    n_leaves, width = t.zero.shape
    missed = (X[:, t.split_feature] < t.split_threshold) != t.split_left
    # a slot is followed when none of its splits is missed; null slots always are
    bins = (np.arange(n)[:, None] * t.zero.size + t.split_slot).reshape(-1)
    follows = np.bincount(bins, weights=missed.reshape(-1), minlength=n * t.zero.size) == 0
    one = follows.reshape(n * n_leaves, width).T.astype(float)
    phi = _product_game_shap(np.tile(t.value, n), np.tile(t.zero.T, n), one)
    # bincount adds in input order, so a row's sums do not depend on the chunk;
    # a null slot's value is +-0, which leaves its feature's sum unchanged
    bins = (np.arange(n)[:, None] * d + t.slot_feature.reshape(-1)).reshape(-1)
    return np.bincount(bins, weights=phi.T.reshape(-1), minlength=n * d).reshape(n, d)


# (mean value, slot form) per tree, built on the tree's first attribution and
# kept while the tree lives (never at fit or load, never persisted). It assumes
# trees are not edited after fit or load, which no code does: an edited tree
# keeps its entry.
_SLOTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _tree_cache(tree: Tree) -> tuple[float, _LeafSlots | None]:
    if tree not in _SLOTS:
        _SLOTS[tree] = (tree.mean_value(), _leaf_slots(tree))
    return _SLOTS[tree]


def _shap_chunks(model: GbdtModel, X):
    """(row slice, phi) per chunk of rows of X, phi in margin units. A row's
    values are the same whatever else is in its chunk. NaN or infinite
    values raise DataError."""
    d = model.d
    X = check_matrix(X, d)
    trees = [t for _, t in map(_tree_cache, model.trees) if t is not None]
    cost = max((max(t.zero.size, t.split_feature.size) for t in trees), default=1)
    step = max(1, CHUNK_ENTRIES // cost)
    for lo in range(0, X.shape[0], step):
        rows = slice(lo, lo + step)
        chunk = X[rows]
        phi = np.zeros((chunk.shape[0], d))
        for t in trees:
            phi += _tree_phi(t, chunk, d)
        # phi collected in leaf-value units; shrinkage applies once per model
        phi *= model.eta
        yield rows, phi


def tree_shap_batch(model: GbdtModel, X) -> np.ndarray:
    """(n, d) path-dependent TreeSHAP values in margin units, one row per row
    of X. NaN or infinite values raise DataError."""
    parts = [phi for _, phi in _shap_chunks(model, X)]
    return np.concatenate([np.zeros((0, model.d))] + parts)


def _base_value(model: GbdtModel) -> float:
    """E[f(x)] under the tree covers: the attribution base value."""
    base = model.base_score
    for tree in model.trees:
        base += model.eta * _tree_cache(tree)[0]
    return float(base)


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
