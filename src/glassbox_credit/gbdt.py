"""Second-order gradient-boosted regression trees for binary classification.

Exact greedy split search with midpoint thresholds; logistic gradients and
hessians scaled by sample weights; leaf weights -G/(H+lambda). Nothing is
randomized, so identical data and config give bit-identical models.

The split search is presorted, as in the column blocks of XGBoost's exact
greedy algorithm (Chen & Guestrin 2016): a fit stably argsorts each column
once, and every node holds its row ids in each feature's sorted order. A
node scans all features at once: cumulative sums of g and h along the
sorted rows give one gain matrix over every (feature, cut). A child's block
is its parent's filtered by the split, which keeps each feature's order and
keeps tied values ordered by row id, the order a stable sort of the node's
own rows gives; so the cumulative sums, and every gain, are the same bits.

Ties between candidate splits break to the lowest feature index, then the
lowest threshold: each feature's first argmax over its cuts in ascending
order, then the first feature whose gain beats every earlier feature's.

A tree is one numpy array per node field (``TREE_FIELDS``), nodes numbered
in preorder, so both children of a split come after it. A model also holds
all its trees' nodes in one ``NodeTable``, on which every tree is routed,
averaged and laid out for attribution at once; sums over trees are always
taken in tree order, so they keep the bits of adding one tree at a time.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from .data import Dataset, check_matrix
from .errors import DataError
from .linear import sigmoid

_LEAF = -1
_SCAN_CELLS = 1 << 13


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
        return asdict(self)


# The node arrays of a tree: (name, dtype, value of a new node). Code that
# handles every field (construction, growing, persist's codec and load
# checks) loops over this table; persist writes the fields in this order.
TREE_FIELDS = (
    ("feature", np.intp, _LEAF),
    ("threshold", np.float64, 0.0),
    ("left", np.intp, _LEAF),
    ("right", np.intp, _LEAF),
    ("value", np.float64, 0.0),
    ("cover", np.float64, 0.0),
    ("gain", np.float64, 0.0),
)


class Tree:
    """Regression tree as node arrays, one per ``TREE_FIELDS`` entry.
    ``feature[i] == -1`` marks a leaf with (unshrunk) weight ``value[i]``;
    a split sends a row to ``left[i]`` iff ``x[feature[i]] < threshold[i]``,
    else to ``right[i]``. ``cover`` is the hessian mass that reached each
    node at build time. Nodes are in preorder, so both children of a split
    lie after it; loading checks that."""

    def __init__(self, nodes):
        """A tree from a mapping of field name to node values, each copied
        into an array of the field's dtype."""
        for name, dtype, _ in TREE_FIELDS:
            setattr(self, name, np.array(nodes[name], dtype))

    @property
    def n_nodes(self) -> int:
        return len(self.feature)


@dataclass
class LeafSlots:
    """Every leaf of a forest, with its root-to-leaf path in slot form,
    leaves in node order. Leaf ``i`` keeps the distinct features
    on its path in slots ``0 .. m_i - 1``, in the order the path meets them;
    a tree's width is the largest ``m_i`` of its leaves. Slots from ``m_i``
    up to the width of the leaf's tree hold no feature and have cover ratio
    1, as do the slots past it up to the forest's widest tree."""

    tree: np.ndarray  # (n_leaves,) tree of each leaf
    width: np.ndarray  # (n_leaves,) width of the leaf's tree
    value: np.ndarray  # (n_leaves,) leaf value
    slot_feature: np.ndarray  # (n_leaves, width) feature per slot; -1 for none
    zero: np.ndarray  # (n_leaves, width) product of the cover ratios per slot
    split_feature: np.ndarray  # (n_splits,) every split on every leaf path, leaf by leaf
    split_threshold: np.ndarray
    split_left: np.ndarray  # the path takes the left branch
    split_slot: np.ndarray  # flat (leaf, slot) index of the split's feature


# (row, tree) pairs routed at a time: chunks bound the routing's temporaries
ROUTE_CELLS = 1 << 14


class NodeTable:
    """The nodes of every tree of a forest in one array per ``TREE_FIELDS``
    entry: tree ``t`` holds nodes ``start[t]`` to ``start[t] + size[t] - 1``
    in its own order, and a split's ``left`` and ``right`` index the table.
    Built from the trees as they are at the time; the tables derived from
    it (levels, tree means, leaf slots) are built on first use."""

    def __init__(self, trees):
        self.size = np.array([t.n_nodes for t in trees], dtype=np.intp)
        self.start = np.cumsum(self.size) - self.size
        self.tree = np.repeat(np.arange(len(trees)), self.size)  # tree of each node
        for name, dtype, _ in TREE_FIELDS:
            arrays = [getattr(t, name) for t in trees]
            setattr(self, name, np.concatenate([np.empty(0, dtype), *arrays]))
        split = self.feature != _LEAF
        self.left[split] += self.start[self.tree[split]]
        self.right[split] += self.start[self.tree[split]]

    @cached_property
    def levels(self) -> list[np.ndarray]:
        """The nodes at each depth of every tree, roots first."""
        levels, level = [], self.start
        while level.size:
            levels.append(level)
            split = level[self.feature[level] != _LEAF]
            level = np.concatenate([self.left[split], self.right[split]])
        return levels

    def route(self, X: np.ndarray) -> np.ndarray:
        """(trees, rows) the leaf each row of X reaches in each tree. Every
        (tree, row) pair descends one level per step, ``ROUTE_CELLS`` pairs
        at a time; a pair at a leaf stays there."""
        leaf = self.feature == _LEAF
        # child[node + n_nodes * go_left], and a leaf, its own child, compares on column 0
        child = np.where(leaf, np.arange(len(leaf)), [self.right, self.left]).ravel()
        feature = np.where(leaf, 0, self.feature)
        n, n_trees = X.shape[0], len(self.start)
        out = np.empty((n_trees, n), dtype=np.intp)
        step = max(1, ROUTE_CELLS // max(1, n_trees))
        for lo in range(0, n, step):
            chunk = X[lo:lo + step]
            first = np.arange(chunk.shape[0]) * X.shape[1]  # flat column 0 of each row
            node = np.repeat(self.start[:, None], chunk.shape[0], axis=1)
            for _ in self.levels[1:]:
                at = feature.take(node)
                at += first
                go_left = chunk.take(at) < self.threshold.take(node)
                node += len(feature) * go_left
                node = child.take(node)
            out[:, lo:lo + step] = node
        return out

    @cached_property
    def means(self) -> np.ndarray:
        """Each tree's cover-weighted expectation with no features known:
        ``(cl * m_l + cr * m_r) / (cl + cr)`` at each split, deepest first."""
        mean = self.value.copy()
        for level in reversed(self.levels):
            split = level[self.feature[level] != _LEAF]
            left, right = self.left[split], self.right[split]
            cl, cr = self.cover[left], self.cover[right]
            mean[split] = (cl * mean[left] + cr * mean[right]) / (cl + cr)
        return mean[self.start]

    @cached_property
    def leaf_slots(self) -> LeafSlots:
        """Every leaf of the forest in slot form."""
        # [node, j]: the node at depth j on the root-to-node path
        on_the_way = np.full((len(self.feature), len(self.levels)), _LEAF)
        for j, level in enumerate(self.levels):
            on_the_way[level, j] = level
            split = level[self.feature[level] != _LEAF]
            on_the_way[self.left[split]] = on_the_way[self.right[split]] = on_the_way[split]
        leaves = np.flatnonzero(self.feature == _LEAF)
        # each leaf's splits by depth, and the child each leads to
        path, taken = on_the_way[leaves, :-1], on_the_way[leaves, 1:]
        on_path = taken != _LEAF
        features = np.where(on_path, self.feature[path], _LEAF)
        # a path feature's slot: the number of distinct features the path
        # meets before its first split on that feature
        same = features[:, :, None] == features[:, None, :]
        new = on_path & ~(same & np.tri(path.shape[1], k=-1, dtype=bool)).any(axis=2)
        rank = np.cumsum(new, axis=1) - 1
        slot = np.where(same & new[:, None, :], rank[:, None, :], _LEAF).max(axis=2, initial=_LEAF)
        tree_width = np.zeros(len(self.start), dtype=np.intp)
        np.maximum.at(tree_width, self.tree[leaves], new.sum(axis=1))
        width = tree_width.max(initial=0)
        leaf_of_split, depth_of_split = np.nonzero(on_path)  # leaf by leaf, root first
        split, taken, slot_of_split = path[on_path], taken[on_path], slot[on_path]
        left, right = self.left[split], self.right[split]
        ratio = self.cover[taken] / (self.cover[left] + self.cover[right])
        zero = np.ones((len(leaves), width))
        for j in range(path.shape[1]):
            at = depth_of_split == j  # one split per leaf: multiplied in path order
            zero[leaf_of_split[at], slot_of_split[at]] *= ratio[at]
        slot_feature = np.full((len(leaves), width), _LEAF)
        slot_feature[np.nonzero(new)[0], slot[new]] = features[new]
        return LeafSlots(
            tree=self.tree[leaves],
            width=tree_width[self.tree[leaves]],
            value=self.value[leaves],
            slot_feature=slot_feature,
            zero=zero,
            split_feature=self.feature[split],
            split_threshold=self.threshold[split],
            split_left=left == taken,
            split_slot=leaf_of_split * width + slot_of_split,
        )


def tree_sums(base: float, eta: float, values: np.ndarray) -> np.ndarray:
    """``base + eta * v_1 + eta * v_2 + ...`` over the first axis of
    ``values``, one entry per tree, added in tree order: the sums that adding
    one tree at a time gives, bit for bit."""
    terms = np.empty((values.shape[0] + 1, *values.shape[1:]))
    terms[0] = base
    np.multiply(eta, values, out=terms[1:])
    return np.cumsum(terms, axis=0, out=terms)[-1]


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
    # every tree's nodes in one table, built from ``trees`` at construction
    table: NodeTable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.table = NodeTable(self.trees)

    @property
    def d(self) -> int:
        return len(self.feature_names)

    def predict_margin(self, X) -> np.ndarray:
        X = check_matrix(X, self.d)
        return tree_sums(self.base_score, self.eta, self.table.value[self.table.route(X)])

    def predict_proba(self, X) -> np.ndarray:
        return sigmoid(self.predict_margin(X))


def split_gain(g_l, h_l, g, h, reg_lambda, reg_gamma):
    """Objective reduction of splitting a node with gradient and hessian sums
    ``(g, h)`` into a left child ``(g_l, h_l)`` and a right child
    ``(g - g_l, h - h_l)``. Elementwise over arrays of left sums.

    The parent's sums are taken as given, never rebuilt from the children:
    ``g_l + (g - g_l)`` need not equal ``g`` in floating point.
    """
    if np.any(np.less(h_l, 0)) or h < 0:
        raise DataError("hessian sums must be non-negative")
    gain = g_l * g_l
    gain /= h_l + reg_lambda
    g_r = g - g_l
    g_r *= g_r
    g_r /= (h - h_l) + reg_lambda
    gain += g_r
    gain -= g * g / (h + reg_lambda)
    gain *= 0.5
    gain -= reg_gamma
    return gain


def _scan_features(g, h, G, H, rows, xt, cfg: GbdtConfig):
    """Each feature's best cut over the node's presorted rows.

    ``rows[i]`` holds the node's row ids in ascending order of ``xt[i]``,
    the feature's column, ties by row id. Returns per feature the largest
    gain at its first sorted position (the lowest threshold), -inf where no
    cut is valid, and that cut's threshold.
    """
    at = rows.astype(np.intp)  # numpy gathers several times faster by intp
    gl = g[at]
    np.cumsum(gl, axis=1, out=gl)
    hl = h[at]
    np.cumsum(hl, axis=1, out=hl)
    at += np.arange(0, xt.size, xt.shape[1])[:, None]  # flat positions in xt
    vals = xt.ravel()[at]
    # a cut after sorted position j sends positions 0..j left
    gl, hl = gl[:, :-1], hl[:, :-1]
    gains = split_gain(gl, hl, G, H, cfg.reg_lambda, cfg.reg_gamma)
    ok = vals[:, 1:] != vals[:, :-1]
    ok &= hl >= cfg.min_child_cover
    ok &= np.subtract(H, hl, out=hl) >= cfg.min_child_cover
    gains[~ok] = -np.inf
    cuts = gains.argmax(axis=1)
    i = np.arange(len(cuts))
    return gains[i, cuts], 0.5 * (vals[i, cuts] + vals[i, cuts + 1])


def _best_split(g, h, G, H, rows, xt, cfg: GbdtConfig):
    """Exact greedy split of a node: (gain, feature, threshold) or None."""
    d, m = rows.shape
    top, thresholds = np.empty(d), np.empty(d)
    for part in _feature_chunks(d, m):
        top[part], thresholds[part] = _scan_features(g, h, G, H, rows[part], xt[part], cfg)
    top = top.tolist()
    best = None
    for f, gain in enumerate(top):
        # strict improvement in ascending feature order: the lowest feature.
        # `not gain <= 0` rather than `gain > 0`: a NaN gain is kept, as the
        # per-node search this replaces kept it
        if not gain <= 0.0 and (best is None or gain > top[best]):
            best = f
    if best is None:
        return None
    return top[best], best, float(thresholds[best])


def _feature_chunks(d, m):
    """Slices of about ``_SCAN_CELLS`` (feature, row) cells of a node's
    block: working chunk by chunk bounds a node's temporaries."""
    step = max(1, _SCAN_CELLS // m)
    return [slice(lo, lo + step) for lo in range(0, d, step)]


def _child_rows(rows, keep, size):
    """The presorted rows where ``keep`` is set. Selecting flat positions
    keeps each feature's order, so ties stay ordered by row id."""
    d, m = rows.shape
    child = np.empty((d, size), dtype=rows.dtype)
    for part in _feature_chunks(d, m):
        sel = np.flatnonzero(keep[rows[part].astype(np.intp)])
        child[part] = rows[part].ravel()[sel].reshape(-1, size)
    return child


def _grow_node(nodes: dict, g, h, xt, cfg: GbdtConfig, idx, rows, depth, step) -> int:
    """Grow the subtree of the rows ``idx`` (ascending), appending its nodes
    in preorder to ``nodes``' per-field lists; ``step[i]`` gets the weight of
    the leaf row i reaches. ``rows`` holds them presorted by each column of
    ``xt`` (X transposed), or is None where the node cannot split."""
    # a module-level function, not a closure: a self-referencing closure is a
    # reference cycle that keeps the round's arrays alive until a GC pass
    node = len(nodes["feature"])
    for name, _, blank in TREE_FIELDS:
        nodes[name].append(blank)
    G, H = g[idx].sum(), h[idx].sum()  # over ascending row ids, as always
    nodes["cover"][node] = float(H)
    found = None if rows is None else _best_split(g, h, G, H, rows, xt, cfg)
    if found is None:
        nodes["value"][node] = step[idx] = float(-G / (H + cfg.reg_lambda))
        return node
    gain, f, thr = found
    nodes["feature"][node] = f
    nodes["threshold"][node] = thr
    nodes["gain"][node] = gain
    # the rows with x < thr lead feature f's sorted rows
    n_left = int(np.searchsorted(xt[f][rows[f]], thr))
    goes_left = np.zeros(len(g), dtype=bool)
    goes_left[rows[f, :n_left]] = True
    children = []
    for keep, size in ((goes_left, n_left), (~goes_left, len(idx) - n_left)):
        child = None
        if depth + 1 < cfg.max_depth and size > 1:
            child = _child_rows(rows, keep, size)
        children.append(_grow_node(nodes, g, h, xt, cfg, idx[keep[idx]], child, depth + 1, step))
    nodes["left"][node], nodes["right"][node] = children
    return node


def fit_gbdt(data: Dataset, config: GbdtConfig) -> GbdtModel:
    X, y, w = data.X, data.y, data.w
    if y.min() == y.max():
        raise DataError("GBDT needs both classes present")
    base_rate = float((w * y).sum() / w.sum())
    base_score = float(np.log(base_rate / (1.0 - base_rate)))
    margin = np.full(data.n, base_score)
    # one stable argsort per column per fit; every round's root reuses it
    xt = np.ascontiguousarray(X.T)
    rows = np.empty(xt.shape, dtype=np.int32)
    for f, column in enumerate(xt):
        rows[f] = np.argsort(column, kind="stable")
    idx = np.arange(data.n)
    trees = []
    for _ in range(config.rounds):
        p = sigmoid(margin)
        g = w * (p - y)
        h = w * p * (1.0 - p)
        nodes = {name: [] for name, _, _ in TREE_FIELDS}
        step = np.empty(data.n)
        _grow_node(nodes, g, h, xt, config, idx, rows if config.max_depth > 0 else None, 0, step)
        trees.append(Tree(nodes))
        margin += config.eta * step
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
    table = model.table
    split = table.feature != _LEAF
    weight = 1.0 if kind == "frequency" else getattr(table, kind)[split]
    scores = np.zeros(model.d)
    # unbuffered and in node order: the same sums as adding node by node
    np.add.at(scores, table.feature[split], weight)
    return dict(zip(model.feature_names, scores.tolist()))
