import numpy as np
import pytest
from hypothesis import settings

# Property tests replay the same examples on every run and keep no example
# database, so the suite stays deterministic.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")

from glassbox_credit import synth
from glassbox_credit.data import Dataset


@pytest.fixture(scope="session")
def additive_small():
    """Shared small additive dataset; session-scoped, never mutated."""
    train, test, truth = synth.generate("additive", n_train=4000, n_test=2000)
    return train, test, truth


@pytest.fixture(scope="session")
def xor_small():
    train, test, truth = synth.generate("xor", n_train=4000, n_test=2000)
    return train, test, truth


@pytest.fixture()
def tiny_data():
    """Deterministic 2-feature dataset with a clean linear signal."""
    rng = np.random.default_rng(7)
    X = rng.standard_normal((600, 2))
    p = 1.0 / (1.0 + np.exp(-(0.5 + 1.5 * X[:, 0] - X[:, 1])))
    y = (rng.random(600) < p).astype(float)
    return Dataset(X, y, np.ones(600), ["a", "b"])
