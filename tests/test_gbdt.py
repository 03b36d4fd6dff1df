import gc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glassbox_credit import gbdt, persist

from glassbox_credit.data import Dataset
from glassbox_credit.errors import DataError
from glassbox_credit.gbdt import (
    TREE_FIELDS,
    GbdtConfig,
    GbdtModel,
    Tree,
    fit_gbdt,
    importance_native,
    split_gain,
)
from glassbox_credit.linear import sigmoid
from glassbox_credit.metrics import log_loss


def test_split_gain_known_value():
    # left (-2, 1), right (2, 1), parent (0, 2): 0.5 * (4/2 + 4/2 - 0/3) - 0 = 2
    assert split_gain(-2.0, 1.0, 0.0, 2.0, 1.0, 0.0) == 2.0


def test_split_gain_gamma_and_negative_hessian():
    assert split_gain(-2.0, 1.0, 0.0, 2.0, 1.0, 0.5) == 1.5
    with pytest.raises(DataError):
        split_gain(1.0, -0.1, 2.0, 0.9, 1.0, 0.0)


def test_split_gain_is_elementwise():
    g_l, h_l = np.array([[-2.0, 1.0], [0.5, -1.0]]), np.array([[1.0, 0.5], [2.0, 1.5]])
    got = split_gain(g_l, h_l, 0.25, 3.0, 1.0, 0.1)
    want = [[split_gain(a, b, 0.25, 3.0, 1.0, 0.1) for a, b in zip(ra, rb)]
            for ra, rb in zip(g_l, h_l)]
    assert got.tolist() == want
    with pytest.raises(DataError):
        split_gain(g_l, -h_l, 0.25, 3.0, 1.0, 0.0)


def test_gradients_match_finite_differences():
    """g and h of the per-sample loss -[y log p + (1-y) log(1-p)] at margin z."""
    eps = 1e-6
    rng = np.random.default_rng(5)
    for _ in range(50):
        z = rng.uniform(-4, 4)
        y = float(rng.integers(0, 2))

        def loss(margin):
            p = sigmoid(np.array([margin]))[0]
            return -(y * np.log(p) + (1 - y) * np.log(1 - p))

        def grad(margin):
            return sigmoid(np.array([margin]))[0] - y

        g = grad(z)
        h = sigmoid(np.array([z]))[0] * (1 - sigmoid(np.array([z]))[0])
        g_fd = (loss(z + eps) - loss(z - eps)) / (2 * eps)
        h_fd = (grad(z + eps) - grad(z - eps)) / (2 * eps)  # h is dg/dz
        assert g == pytest.approx(g_fd, rel=1e-6, abs=1e-9)
        assert h == pytest.approx(h_fd, rel=1e-6)


def test_base_score_is_weighted_base_rate_logit(tiny_data):
    model = fit_gbdt(tiny_data, GbdtConfig(rounds=1))
    rate = tiny_data.y.mean()
    assert model.base_score == pytest.approx(np.log(rate / (1 - rate)))


def test_rounds_must_be_positive():
    with pytest.raises(DataError):
        GbdtConfig(rounds=0)


def test_training_loss_monotone_and_gains_positive(tiny_data):
    config = GbdtConfig(rounds=20, eta=0.3)
    model = fit_gbdt(tiny_data, config)
    # replay the ensemble prefix by prefix
    losses = []
    margin = np.full(tiny_data.n, model.base_score)
    losses.append(log_loss(sigmoid(margin), tiny_data.y, tiny_data.w))
    for tree in model.trees:
        margin += config.eta * reference_predict(tree, tiny_data.X)
        losses.append(log_loss(sigmoid(margin), tiny_data.y, tiny_data.w))
    assert all(b < a for a, b in zip(losses, losses[1:]))
    for tree in model.trees:
        internal = [i for i, f in enumerate(tree.feature) if f != -1]
        assert all(tree.gain[i] > 0 for i in internal)


def test_split_tiebreak_lowest_feature_then_threshold():
    # two identical columns: the split must use feature 0
    col = np.repeat(np.arange(4.0), 8)
    X = np.column_stack([col, col])
    y = (col >= 2).astype(float)
    data = Dataset(X, y, np.ones(col.size), ["a", "b"])
    model = fit_gbdt(data, GbdtConfig(rounds=1, max_depth=1))
    root_feature = model.trees[0].feature[0]
    assert root_feature == 0


def test_root_threshold_is_a_midpoint(tiny_data):
    # the root sees every row, so its cut must bisect two adjacent values
    model = fit_gbdt(tiny_data, GbdtConfig(rounds=3, max_depth=1))
    for tree in model.trees:
        f, t = tree.feature[0], tree.threshold[0]
        assert f != -1
        col = np.sort(np.unique(tiny_data.X[:, f]))
        assert col[0] < t < col[-1]
        j = np.searchsorted(col, t)
        assert t == pytest.approx((col[j - 1] + col[j]) / 2.0)


def test_min_child_cover_respected(tiny_data):
    model = fit_gbdt(tiny_data, GbdtConfig(rounds=5, min_child_cover=20.0))
    for tree in model.trees:
        for i, f in enumerate(tree.feature):
            if f == -1:
                assert tree.cover[i] >= 20.0 or i == 0


def test_determinism(tiny_data):
    a = fit_gbdt(tiny_data, GbdtConfig(rounds=10))
    b = fit_gbdt(tiny_data, GbdtConfig(rounds=10))
    assert np.array_equal(a.predict_margin(tiny_data.X), b.predict_margin(tiny_data.X))


def test_fit_leaves_no_reference_cycles(tiny_data):
    # a cycle would keep each round's tree and gradient arrays alive until
    # the cyclic collector runs
    fit_gbdt(tiny_data, GbdtConfig(rounds=2))
    gc.collect()
    gc.disable()
    try:
        fit_gbdt(tiny_data, GbdtConfig(rounds=3))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_single_class_rejected():
    data = Dataset(np.zeros((4, 1)), np.ones(4), np.ones(4), ["x"])
    with pytest.raises(DataError):
        fit_gbdt(data, GbdtConfig(rounds=1))


def test_native_importance_modes(tiny_data):
    model = fit_gbdt(tiny_data, GbdtConfig(rounds=10))
    for method in ("gain", "cover", "frequency"):
        scores = importance_native(model, method)
        assert set(scores) == set(tiny_data.feature_names)
        assert all(v >= 0 for v in scores.values())
    assert all(v > 0 for v in importance_native(model, "frequency").values())
    with pytest.raises(DataError):
        importance_native(model, "magic")


def new_node(nodes) -> int:
    """Append a blank node to per-field node lists; returns its index."""
    for name, _, blank in TREE_FIELDS:
        nodes.setdefault(name, []).append(blank)
    return len(nodes["feature"]) - 1


def test_routing_left_strictly_below_threshold():
    tree = Tree({
        "feature": [0, -1, -1],
        "threshold": [1.0, 0.0, 0.0],
        "left": [1, -1, -1],
        "right": [2, -1, -1],
        "value": [0.0, -1.0, 1.0],
        "cover": [0.0, 1.0, 1.0],
        "gain": [0.0, 0.0, 0.0],
    })
    model = GbdtModel([tree], 0.0, 1.0, 1.0, 0.0, 1, ["x"])
    out = model.predict_margin(np.array([[0.9], [1.0], [1.1]]))
    assert out.tolist() == [-1.0, 1.0, 1.0]  # x < t goes left; ties go right


# Reference split search: the per-node, per-feature scan the presorted
# all-features scan replaced, kept as an oracle for byte-identical trees.
def reference_best_split(X, g, h, idx, cfg):
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
        k = int(np.argmax(gains))
        gain = float(gains[k])
        if gain <= 0.0:
            continue
        if best is None or gain > best[0]:
            thr = 0.5 * (xs_sorted[boundary[k]] + xs_sorted[boundary[k] + 1])
            best = (gain, f, float(thr))
    if best is None:
        return None
    gain, f, thr = best
    return gain, f, thr, X[idx, f] < thr


def reference_grow_node(nodes, X, g, h, cfg, idx, depth):
    node = new_node(nodes)
    G, H = g[idx].sum(), h[idx].sum()
    nodes["cover"][node] = float(H)
    found = reference_best_split(X, g, h, idx, cfg) if depth < cfg.max_depth else None
    if found is None:
        nodes["value"][node] = float(-G / (H + cfg.reg_lambda))
        return node
    gain, f, thr, left_mask = found
    nodes["feature"][node] = f
    nodes["threshold"][node] = thr
    nodes["gain"][node] = gain
    nodes["left"][node] = reference_grow_node(nodes, X, g, h, cfg, idx[left_mask], depth + 1)
    nodes["right"][node] = reference_grow_node(nodes, X, g, h, cfg, idx[~left_mask], depth + 1)
    return node


def reference_fit(data, cfg):
    X, y, w = data.X, data.y, data.w
    base_rate = float((w * y).sum() / w.sum())
    base_score = float(np.log(base_rate / (1.0 - base_rate)))
    margin = np.full(data.n, base_score)
    trees = []
    for _ in range(cfg.rounds):
        p = sigmoid(margin)
        nodes = {}
        reference_grow_node(nodes, X, w * (p - y), w * p * (1.0 - p), cfg, np.arange(data.n), 0)
        tree = Tree(nodes)
        trees.append(tree)
        margin += cfg.eta * reference_predict(tree, X)
    return GbdtModel(trees, base_score, cfg.eta, cfg.reg_lambda, cfg.reg_gamma,
                     cfg.max_depth, list(data.feature_names), cfg.as_dict())


@st.composite
def small_fits(draw):
    """Few rows over a few distinct values, so ties and constant columns are
    common; positive weights; every regularization knob drawn."""
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 4))
    cells = st.sampled_from([-1.0, 0.0, 0.5, 2.0])
    X = np.array(draw(st.lists(cells, min_size=n * d, max_size=n * d))).reshape(n, d)
    y = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n)))
    y[:2] = [0.0, 1.0]
    # weights from a small set make equal gains, and so the tie rules, common
    weights = draw(st.sampled_from([st.sampled_from([1.0, 2.0]), st.floats(0.1, 10.0)]))
    w = np.array(draw(st.lists(weights, min_size=n, max_size=n)))
    config = GbdtConfig(
        rounds=draw(st.integers(1, 3)),
        eta=draw(st.sampled_from([0.1, 0.3, 1.0])),
        max_depth=draw(st.integers(1, 6)),
        reg_lambda=draw(st.floats(0.0, 2.0)),
        reg_gamma=draw(st.floats(0.0, 1.0)),
        min_child_cover=draw(st.floats(0.0, 20.0)),
    )
    data = Dataset(X, y, w, [f"x{j}" for j in range(d)])
    return data, config, draw(st.sampled_from([1, 7, gbdt._SCAN_CELLS]))


@settings(max_examples=300)
@given(small_fits())
def test_presorted_scan_matches_per_node_reference(case):
    data, config, scan_cells = case
    # small chunks make the scan visit the features in several slices
    with mock.patch.object(gbdt, "_SCAN_CELLS", scan_cells):
        got = persist.dumps(fit_gbdt(data, config))
    assert got == persist.dumps(reference_fit(data, config))


# Reference routing and expectation: a per-node stack walk and a recursion
# per tree, kept as oracles that the node table's level-by-level routing and
# tree means must agree with bit for bit.
def reference_predict(tree, X):
    out = np.empty(X.shape[0])
    stack = [(0, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if tree.feature[node] == -1:
            out[idx] = tree.value[node]
            continue
        go_left = X[idx, tree.feature[node]] < tree.threshold[node]
        stack.append((tree.left[node], idx[go_left]))
        stack.append((tree.right[node], idx[~go_left]))
    return out


def reference_mean_value(tree, node=0):
    if tree.feature[node] == -1:
        return float(tree.value[node])
    left, right = tree.left[node], tree.right[node]
    cl, cr = float(tree.cover[left]), float(tree.cover[right])
    return (cl * reference_mean_value(tree, left) + cr * reference_mean_value(tree, right)) / (
        cl + cr
    )


THRESHOLDS = [-1.0, 0.0, 0.5, 2.0]
# every threshold, a neighbour on each side, and values beyond them all
ROW_VALUES = sorted(
    {v for t in THRESHOLDS for v in (np.nextafter(t, -np.inf), t, np.nextafter(t, np.inf))}
    | {-3.0, 3.0}
)


@st.composite
def hand_built_forests(draw):
    """One to three preorder trees of depth up to 6 on up to 4 features (a
    feature may repeat on a path; a tree may be a single leaf), and rows on,
    just below and just above their thresholds."""
    d = draw(st.integers(1, 4))
    trees = []
    for _ in range(draw(st.integers(1, 3))):
        max_depth = draw(st.integers(0, 6))
        nodes = {}

        def grow(depth):
            node = new_node(nodes)
            if depth < max_depth and draw(st.integers(0, 3)) < 3:
                nodes["feature"][node] = draw(st.integers(0, d - 1))
                nodes["threshold"][node] = draw(st.sampled_from(THRESHOLDS))
                left, right = grow(depth + 1), grow(depth + 1)
                nodes["left"][node], nodes["right"][node] = left, right
                nodes["cover"][node] = nodes["cover"][left] + nodes["cover"][right]
            else:
                nodes["value"][node] = draw(st.floats(-2.0, 2.0))
                nodes["cover"][node] = draw(st.floats(0.1, 10.0))
            return node

        grow(0)
        trees.append(Tree(nodes))
    model = GbdtModel(trees, draw(st.floats(-1.0, 1.0)), draw(st.floats(0.1, 1.0)), 1.0, 0.0,
                      6, [f"x{j}" for j in range(d)])
    n = draw(st.integers(0, 30))
    cells = draw(st.lists(st.sampled_from(ROW_VALUES), min_size=n * d, max_size=n * d))
    return model, np.array(cells).reshape(n, d)


@settings(max_examples=300)
@given(hand_built_forests(), st.sampled_from([1, 2, 7, gbdt.ROUTE_CELLS]))
def test_level_routing_matches_stack_walk(case, route_cells):
    model, X = case
    table = model.table
    # small chunks route the rows a few (row, tree) pairs at a time
    with mock.patch.object(gbdt, "ROUTE_CELLS", route_cells):
        leaves = table.route(X)
    for t, tree in enumerate(model.trees):
        assert table.value[leaves[t]].tobytes() == reference_predict(tree, X).tobytes()
        mean, expected = np.float64(table.means[t]), np.float64(reference_mean_value(tree))
        assert mean.tobytes() == expected.tobytes()
    # the margin adds the trees in order, as a tree-by-tree loop does
    margin = np.full(X.shape[0], model.base_score)
    for tree in model.trees:
        margin += model.eta * reference_predict(tree, X)
    assert model.predict_margin(X).tobytes() == margin.tobytes()
    for i in range(X.shape[0]):
        assert model.predict_margin(X[i:i + 1]).tobytes() == margin[i:i + 1].tobytes()


def test_native_importance_adds_node_by_node(tiny_data):
    model = fit_gbdt(tiny_data, GbdtConfig(rounds=15, max_depth=5))
    for kind in ("gain", "cover"):
        scores = np.zeros(model.d)
        for tree in model.trees:
            for f, value in zip(tree.feature, getattr(tree, kind)):
                if f != -1:
                    scores[f] += value
        assert list(importance_native(model, kind).values()) == scores.tolist()
