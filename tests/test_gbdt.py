import gc

import numpy as np
import pytest

from glassbox_credit.data import Dataset
from glassbox_credit.errors import DataError
from glassbox_credit.gbdt import (
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
    # 0.5 * (4/2 + 4/2 - 0/3) - 0 = 2
    assert split_gain(-2.0, 1.0, 2.0, 1.0, 1.0, 0.0) == 2.0


def test_split_gain_gamma_and_negative_hessian():
    assert split_gain(-2.0, 1.0, 2.0, 1.0, 1.0, 0.5) == 1.5
    with pytest.raises(DataError):
        split_gain(1.0, -0.1, 1.0, 1.0, 1.0, 0.0)


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
        margin += config.eta * tree.predict(tiny_data.X)
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


def test_routing_left_strictly_below_threshold():
    tree = Tree()
    root = tree.add_node()
    left = tree.add_node()
    right = tree.add_node()
    tree.feature[root] = 0
    tree.threshold[root] = 1.0
    tree.left[root], tree.right[root] = left, right
    tree.value[left], tree.value[right] = -1.0, 1.0
    tree.cover[left] = tree.cover[right] = 1.0
    out = tree.predict(np.array([[0.9], [1.0], [1.1]]))
    assert out.tolist() == [-1.0, 1.0, 1.0]  # x < t goes left; ties go right
