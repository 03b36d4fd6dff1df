from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from glassbox_credit import attribution
from glassbox_credit.attribution import (
    attributions_csv,
    conditional_expectation,
    global_importance,
    shapley_exact,
    tree_shap,
    tree_shap_batch,
)
from glassbox_credit.data import Dataset
from glassbox_credit.errors import DataError
from glassbox_credit.gbdt import TREE_FIELDS, GbdtConfig, GbdtModel, Tree, fit_gbdt


def new_node(nodes) -> int:
    """Append a blank node to per-field node lists; returns its index."""
    for name, _, blank in TREE_FIELDS:
        nodes.setdefault(name, []).append(blank)
    return len(nodes["feature"]) - 1


def stump(feature, threshold, left_value, right_value, left_cover, right_cover):
    return Tree({
        "feature": [feature, -1, -1],
        "threshold": [threshold, 0.0, 0.0],
        "left": [1, -1, -1],
        "right": [2, -1, -1],
        "value": [0.0, left_value, right_value],
        "cover": [left_cover + right_cover, left_cover, right_cover],
        "gain": [0.0, 0.0, 0.0],
    })


def random_model(rng, d, n_trees, depth, n=200):
    X = rng.standard_normal((n, d))
    y = (rng.random(n) < 0.4).astype(float)
    # force duplicate use of features along paths by keeping d small
    data = Dataset(X, y, np.ones(n), [f"x{j}" for j in range(d)])
    return fit_gbdt(data, GbdtConfig(rounds=n_trees, max_depth=depth, eta=0.3)), X


def test_conditional_expectation_known_value():
    # leaves -1 (cover 1) and +0.5 (cover 3): unconditional mean = 0.125
    tree = stump(0, 0.0, -1.0, 0.5, 1.0, 3.0)
    model = GbdtModel(
        trees=[tree], base_score=0.2, eta=0.5, reg_lambda=1.0,
        reg_gamma=0.0, max_depth=1, feature_names=["a"],
    )
    value = conditional_expectation(model, np.array([5.0]), frozenset())
    assert value == pytest.approx(0.2 + 0.5 * (1.0 * -1.0 + 3.0 * 0.5) / 4.0)
    # conditioning on feature 0 follows the branch
    assert conditional_expectation(model, np.array([5.0]), frozenset({0})) == (
        pytest.approx(0.2 + 0.5 * 0.5)
    )
    assert conditional_expectation(model, np.array([-5.0]), frozenset({0})) == (
        pytest.approx(0.2 - 0.5)
    )


def test_exact_shapley_local_accuracy_and_symmetry():
    rng = np.random.default_rng(0)
    model, X = random_model(rng, d=4, n_trees=5, depth=3)
    for i in range(5):
        att = shapley_exact(model, X[i])
        margin = float(model.predict_margin(X[i : i + 1])[0])
        assert att.base_value + att.values.sum() == pytest.approx(margin, abs=1e-9)


def test_tree_shap_matches_exact_enumeration():
    rng = np.random.default_rng(1)
    for d, n_trees, depth in [(2, 3, 2), (5, 8, 3), (8, 10, 4)]:
        model, X = random_model(rng, d=d, n_trees=n_trees, depth=depth)
        for i in range(10):
            fast = tree_shap(model, X[i])
            exact = shapley_exact(model, X[i])
            assert fast.base_value == pytest.approx(exact.base_value, abs=1e-9)
            assert np.abs(fast.values - exact.values).max() < 1e-9


def test_tree_shap_local_accuracy():
    rng = np.random.default_rng(2)
    model, X = random_model(rng, d=12, n_trees=30, depth=4)
    margins = model.predict_margin(X)
    for i in range(50):
        att = tree_shap(model, X[i])
        assert att.base_value + att.values.sum() == pytest.approx(
            margins[i], abs=1e-9
        )


def test_irrelevant_feature_gets_zero():
    # the model never touches feature 1, so its attribution must vanish
    tree = stump(0, 0.0, -1.0, 1.0, 2.0, 2.0)
    model = GbdtModel(
        trees=[tree], base_score=0.0, eta=1.0, reg_lambda=1.0,
        reg_gamma=0.0, max_depth=1, feature_names=["a", "b"],
    )
    att = tree_shap(model, np.array([0.5, 99.0]))
    assert att.values[1] == 0.0
    assert att.values[0] == pytest.approx(1.0 - 0.0)  # branch value minus mean


def test_exact_dimension_guard():
    rng = np.random.default_rng(3)
    model, X = random_model(rng, d=16, n_trees=2, depth=2)
    with pytest.raises(DataError):
        shapley_exact(model, X[0])


def test_global_importance_ranks_signal(additive_small):
    train, _, truth = additive_small
    model = fit_gbdt(train, GbdtConfig(rounds=30))
    ranked = global_importance(model, train, max_rows=1000)
    top10 = {int(name[1:]) for name in ranked.top(10)}
    assert len(top10 & set(truth.informative)) >= 8
    assert list(ranked.scores) == sorted(ranked.scores, reverse=True)


def test_global_importance_stride_determinism(additive_small):
    train, _, _ = additive_small
    model = fit_gbdt(train, GbdtConfig(rounds=10))
    a = global_importance(model, train, max_rows=500)
    b = global_importance(model, train, max_rows=500)
    assert a.names == b.names and a.scores == b.scores


def test_attributions_csv_sums_to_margin(tmp_path, tiny_data):
    model = fit_gbdt(tiny_data, GbdtConfig(rounds=8))
    path = tmp_path / "atts.csv"
    attributions_csv(model, tiny_data, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == tiny_data.n + 1
    margins = model.predict_margin(tiny_data.X)
    for i, line in enumerate(lines[1:]):
        parts = line.split(",")
        row = int(parts[0])
        assert row == i
        total = float(parts[1]) + sum(float(v) for v in parts[2:])
        assert total == pytest.approx(margins[row], abs=1e-9)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_rows_rejected(bad):
    rng = np.random.default_rng(4)
    model, X = random_model(rng, d=3, n_trees=3, depth=2)
    x = X[0].copy()
    x[1] = bad
    with pytest.raises(DataError, match="missing or infinite"):
        tree_shap(model, x)
    with pytest.raises(DataError, match="missing or infinite"):
        tree_shap_batch(model, np.vstack([X[:2], x]))
    with pytest.raises(DataError, match="missing or infinite"):
        tree_shap(model, np.full(3, bad))


# Few features and thresholds, so features repeat along a path and on both
# branches of a node, and rows land exactly on thresholds.
CUTS = [-0.5, 0.0, 0.5]
POINTS = [-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0]


@st.composite
def hand_built_models(draw):
    d = draw(st.integers(1, 5))
    max_depth = draw(st.integers(0, 5))

    def grow(nodes, depth):
        node = new_node(nodes)
        if depth < max_depth and draw(st.integers(0, 3)) < 3:  # split 3 times in 4
            # offset by depth: the simplest draw gives distinct features on a path
            nodes["feature"][node] = (depth + draw(st.integers(0, d - 1))) % d
            nodes["threshold"][node] = draw(st.sampled_from(CUTS))
            left, right = grow(nodes, depth + 1), grow(nodes, depth + 1)
            nodes["left"][node], nodes["right"][node] = left, right
            nodes["cover"][node] = nodes["cover"][left] + nodes["cover"][right]
        else:
            nodes["value"][node] = draw(st.floats(-2.0, 2.0))
            nodes["cover"][node] = draw(st.floats(0.5, 10.0))
        return node

    trees = []
    for _ in range(draw(st.integers(1, 3))):
        nodes = {}
        grow(nodes, 0)
        trees.append(Tree(nodes))
    model = GbdtModel(
        trees=trees, base_score=draw(st.floats(-1.0, 1.0)), eta=draw(st.floats(0.1, 1.0)),
        reg_lambda=1.0, reg_gamma=0.0, max_depth=max_depth,
        feature_names=[f"x{j}" for j in range(d)],
    )
    rows = draw(st.lists(st.lists(st.sampled_from(POINTS), min_size=d, max_size=d),
                         min_size=1, max_size=6))
    return model, np.array(rows)


@settings(max_examples=300)
@given(hand_built_models(), st.sampled_from([1, 5, attribution.CHUNK_ENTRIES]))
def test_batch_matches_exact_on_hand_built_trees(case, chunk_entries):
    model, X = case
    batch = tree_shap_batch(model, X)
    # small chunks explain the rows a few games at a time
    with mock.patch.object(attribution, "CHUNK_ENTRIES", chunk_entries):
        assert tree_shap_batch(model, X).tobytes() == batch.tobytes()
    for i, x in enumerate(X):
        exact = shapley_exact(model, x)
        assert np.abs(batch[i] - exact.values).max() < 1e-9
        single = tree_shap(model, x)
        assert np.array_equal(single.values, batch[i])
        assert single.base_value == pytest.approx(exact.base_value, abs=1e-9)


def test_deep_trees_explained_in_chunks():
    # depth 10 on 8 features: hundreds of leaves with up to 8 path features,
    # so 600 rows take many row chunks
    rng = np.random.default_rng(5)
    X = rng.standard_normal((3000, 8))
    y = (rng.random(3000) < 1.0 / (1.0 + np.exp(-X.sum(axis=1)))).astype(float)
    data = Dataset(X, y, np.ones(3000), [f"x{j}" for j in range(8)])
    model = fit_gbdt(data, GbdtConfig(rounds=2, max_depth=10, min_child_cover=0.5))
    slots = model.table.leaf_slots
    assert slots.zero.shape[1] > 4
    assert slots.zero.size * 100 > attribution.CHUNK_ENTRIES
    batch = tree_shap_batch(model, X[:600])
    margins = model.predict_margin(X[:600])
    base = tree_shap(model, X[0]).base_value
    assert np.abs(base + batch.sum(axis=1) - margins).max() < 1e-9
    for i in (0, 1, 599):
        assert np.abs(batch[i] - shapley_exact(model, X[i]).values).max() < 1e-9
        assert np.array_equal(tree_shap(model, X[i]).values, batch[i])


def test_long_path_sums_to_margin():
    # a chain of splits on 63 distinct features, one leaf off each split
    d = 63
    nodes = {}
    node = new_node(nodes)
    for f in range(d):
        leaf, rest = new_node(nodes), new_node(nodes)
        nodes["feature"][node], nodes["threshold"][node] = f, 0.0
        nodes["left"][node], nodes["right"][node] = leaf, rest
        nodes["value"][leaf], nodes["value"][rest] = float(f % 3), -1.0
        nodes["cover"][leaf] = nodes["cover"][rest] = 1.0
        node = rest
    tree = Tree(nodes)
    for node in reversed(range(len(tree.feature))):
        if tree.feature[node] != -1:
            tree.cover[node] = tree.cover[tree.left[node]] + tree.cover[tree.right[node]]
    model = GbdtModel(
        trees=[tree], base_score=0.0, eta=1.0, reg_lambda=1.0,
        reg_gamma=0.0, max_depth=d, feature_names=[f"x{j}" for j in range(d)],
    )
    X = np.ones((3, d))
    X[1, 40:] = -1.0
    X[2, :] = -1.0
    batch = tree_shap_batch(model, X)
    base = tree_shap(model, X[0]).base_value
    assert np.abs(base + batch.sum(axis=1) - model.predict_margin(X)).max() < 1e-9


def test_padded_slots_keep_each_trees_values():
    # trees of depth 1, 3 and 6 and a single leaf: the forest's slot table is
    # padded to the widest tree, and the single leaf attributes nothing
    rng = np.random.default_rng(6)
    X = rng.standard_normal((400, 6))
    y = (rng.random(400) < 1.0 / (1.0 + np.exp(-X[:, :3].sum(axis=1)))).astype(float)
    data = Dataset(X, y, np.ones(400), [f"x{j}" for j in range(6)])
    trees = [fit_gbdt(data, GbdtConfig(rounds=1, max_depth=depth)).trees[0] for depth in (3, 1, 6)]
    trees.insert(2, Tree({name: [blank] for name, _, blank in TREE_FIELDS}))
    forest = GbdtModel(trees, 0.1, 0.3, 1.0, 0.0, 6, list(data.feature_names))
    slots = forest.table.leaf_slots
    assert len(set(slots.width.tolist())) == 4 and slots.width[slots.tree == 2].tolist() == [0]
    batch = tree_shap_batch(forest, X[:50])
    # each tree explained alone, unpadded, then added in tree order
    expected = np.zeros_like(batch)
    for tree in trees:
        expected += tree_shap_batch(GbdtModel([tree], 0.0, 1.0, 1.0, 0.0, 6, forest.feature_names), X[:50])
    expected *= forest.eta
    assert batch.tobytes() == expected.tobytes()
    for i in (0, 17, 49):
        single = tree_shap(forest, X[i])
        assert single.values.tobytes() == batch[i].tobytes()
        exact = shapley_exact(forest, X[i])
        assert np.abs(single.values - exact.values).max() < 1e-9
        assert single.base_value == pytest.approx(exact.base_value, abs=1e-12)
