import numpy as np
import pytest

from glassbox_credit.data import Dataset
from glassbox_credit.errors import DataError
from glassbox_credit.pltr import (
    assemble_extended,
    fit_pair_split,
    fit_pltr,
    fit_stump,
)


def rule_data(n=3000, seed=21):
    """Two features; outcome decided by x0 > 1 with noise, x1 irrelevant."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 2))
    p = np.where(X[:, 0] > 1.0, 0.8, 0.2)
    y = (rng.random(n) < p).astype(float)
    return Dataset(X, y, np.ones(n), ["u", "v"])


def test_stump_threshold_near_rule_boundary():
    data = rule_data()
    stump = fit_stump(data, 0)
    assert stump.feature == 0
    assert stump.threshold == pytest.approx(1.0, abs=0.1)
    assert stump.gain > 0


def test_stump_gini_oracle():
    # four rows, split at 0.5 perfectly separates: known impurity reduction
    X = np.array([[0.0], [0.0], [1.0], [1.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    data = Dataset(X, y, np.ones(4), ["x"])
    stump = fit_stump(data, 0)
    assert stump.threshold == 0.5
    # parent gini 0.5, both children pure -> per-weight reduction = 0.5
    assert stump.gain == pytest.approx(0.5)


def test_stump_constant_feature_is_none():
    data = Dataset(np.ones((10, 1)), np.arange(10) % 2.0, np.ones(10), ["x"])
    assert fit_stump(data, 0) is None


def test_pair_split_root_is_stronger_feature():
    data = rule_data()
    spec = fit_pair_split(data, 0, 1)
    assert spec.root_feature == 0  # x0 carries the signal
    assert spec.second_feature == 1


def test_pltr_pair_splits_match_fit_pair_split():
    rng = np.random.default_rng(5)
    X = np.column_stack([rng.standard_normal(600), np.full(600, 2.0),
                         rng.integers(0, 3, 600), rng.standard_normal(600)])
    y = (rng.random(600) < np.where(X[:, 0] + X[:, 3] > 0, 0.8, 0.2)).astype(float)
    data = Dataset(X, y, np.ones(600), ["a", "b", "c", "d"])
    model = fit_pltr(data, lam=0.001)
    # the constant column b makes every pair with it degenerate
    expected = [fit_pair_split(data, j, q) for j in range(4) for q in range(j + 1, 4)]
    assert model.pair_splits == [p for p in expected if p is not None]
    assert model.stumps == [fit_stump(data, j) for j in (0, 2, 3)]
    assert model.skipped[0] == "constant feature b"
    assert sum(s.startswith("degenerate pair") for s in model.skipped) == 3


def test_extended_matrix_values():
    data = rule_data(n=50)
    stump = fit_stump(data, 0)
    pair = fit_pair_split(data, 0, 1)
    ext = assemble_extended(data, [stump], [pair])
    d = data.d
    nu = ext.X[:, d]
    assert np.array_equal(nu, (data.X[:, 0] > stump.threshold).astype(float))
    xi = ext.X[:, d + 1]
    expected = (
        (data.X[:, pair.root_feature] < pair.root_threshold)
        & (data.X[:, pair.second_feature] > pair.second_threshold)
    ).astype(float)
    assert np.array_equal(xi, expected)
    assert ext.feature_names[d].startswith("nu(")
    assert ext.feature_names[d + 1].startswith("xi(")


def test_pltr_names_and_sizes():
    data = rule_data(n=800)
    model = fit_pltr(data, lam=0.001)
    # 2 originals + 2 stumps + 1 pair indicator
    assert len(model.linear.feature_names) == 5
    assert model.predict_proba(data.X).shape == (800,)


def test_pltr_without_originals():
    data = rule_data(n=800)
    model = fit_pltr(data, lam=0.001, include_original=False)
    assert all("(" in n for n in model.linear.feature_names)


def test_pltr_feature_count_guard():
    data = rule_data(n=100)
    with pytest.raises(DataError):
        model = fit_pltr(data, lam=0.001)
        model.predict_proba(np.zeros((3, 5)))


def test_pltr_skips_constant_columns():
    rng = np.random.default_rng(3)
    X = np.column_stack([rng.standard_normal(500), np.full(500, 7.0)])
    y = (X[:, 0] > 0).astype(float)
    data = Dataset(X, y, np.ones(500), ["a", "b"])
    model = fit_pltr(data, lam=0.001)
    assert any("constant" in s for s in model.skipped)
