"""Synthetic credit-like data with known ground truth.

Closed form: 50 standard-normal features, the first 10 informative through
monotone bounded nonlinearities with gently decreasing effect sizes,
intercept tuned so the positive ("default") rate is about 20%. Presets add a
planted XOR-style interaction, near-duplicate copies of informative
features, or replace the margin with hard threshold rules (for the PLTR
contract). Generation is deterministic given the seed; presets fix it.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, write_atomic
from .errors import DataError
from .linear import sigmoid

D_TOTAL = 50
N_INFORMATIVE = 10
XOR_PAIR = (2, 5)
XOR_AMPLITUDE = 1.6
DUPLICATE_SOURCES = tuple(range(8))  # features copied in the redundant preset
DUPLICATE_OFFSET = 40
DUPLICATE_NOISE = 0.35
TARGET_RATE = 0.2
DEFAULT_SEED = 20240614
DEFAULT_N_TRAIN = 30_000
DEFAULT_N_TEST = 10_000

PRESETS = ("additive", "xor", "redundant", "threshold")


@dataclass
class SynthTruth:
    informative: list[int]
    duplicates: dict[int, int] = field(default_factory=dict)  # copy -> source
    xor_pair: tuple[int, int] | None = None
    bayes_margin_train: np.ndarray | None = None
    bayes_margin_test: np.ndarray | None = None


_EFFECT_SHIFTS = np.linspace(-0.9, 0.9, 10)


def _effect(j: int, x: np.ndarray) -> np.ndarray:
    # steep shifted sigmoidal shape; amplitude decays with rank so the
    # informative features have a well-defined importance order, and the
    # per-feature shift keeps a single linear fit from matching them all
    c = 0.9 - 0.05 * j
    return c * np.tanh(2.5 * (x - _EFFECT_SHIFTS[j]))


def _tune_intercept(raw_margin: np.ndarray, rate: float) -> float:
    lo, hi = -20.0, 20.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if sigmoid(raw_margin + mid).mean() > rate:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def generate(
    preset: str = "additive",
    n_train: int = DEFAULT_N_TRAIN,
    n_test: int = DEFAULT_N_TEST,
    seed: int = DEFAULT_SEED,
):
    """Returns (train, test, truth)."""
    if preset not in PRESETS:
        raise DataError(f"unknown preset {preset!r}; options: {PRESETS}")
    rng = np.random.default_rng(seed)
    n = n_train + n_test
    if preset == "threshold":
        return _generate_threshold(rng, n_train, n_test)
    X = rng.standard_normal((n, D_TOTAL))
    truth = SynthTruth(informative=list(range(N_INFORMATIVE)))
    if preset == "redundant":
        for i in DUPLICATE_SOURCES:
            copy = DUPLICATE_OFFSET + i
            X[:, copy] = X[:, i] + DUPLICATE_NOISE * rng.standard_normal(n)
            truth.duplicates[copy] = i
    margin = np.zeros(n)
    for j in range(N_INFORMATIVE):
        margin += _effect(j, X[:, j])
    if preset == "xor":
        a, b = XOR_PAIR
        margin += XOR_AMPLITUDE * np.where((X[:, a] > 0) != (X[:, b] > 0), 1.0, -1.0)
        truth.xor_pair = XOR_PAIR
    margin += _tune_intercept(margin, TARGET_RATE)
    y = (rng.random(n) < sigmoid(margin)).astype(float)
    names = [f"f{j:02d}" for j in range(D_TOTAL)]
    train = Dataset(X[:n_train], y[:n_train], np.ones(n_train), names)
    test = Dataset(X[n_train:], y[n_train:], np.ones(n_test), names)
    truth.bayes_margin_train = margin[:n_train]
    truth.bayes_margin_test = margin[n_train:]
    return train, test, truth


def _generate_threshold(rng, n_train, n_test):
    """Hard threshold rules on 10 features; linear-in-x models underfit."""
    d = 10
    n = n_train + n_test
    X = rng.standard_normal((n, d))
    margin = (
        1.8 * (X[:, 0] > 0.8)
        + 1.6 * ((X[:, 1] < -0.4) & (X[:, 2] > 0.4))
        + 1.2 * (X[:, 3] > 0.0)
        - 1.0 * (X[:, 4] > 1.0)
    )
    margin += _tune_intercept(margin, TARGET_RATE)
    y = (rng.random(n) < sigmoid(margin)).astype(float)
    names = [f"f{j:02d}" for j in range(d)]
    truth = SynthTruth(informative=[0, 1, 2, 3, 4])
    truth.bayes_margin_train = margin[:n_train]
    truth.bayes_margin_test = margin[n_train:]
    return (
        Dataset(X[:n_train], y[:n_train], np.ones(n_train), names),
        Dataset(X[n_train:], y[n_train:], np.ones(n_test), names),
        truth,
    )


TRAIN_DATE = "Mar-2015"
TEST_DATE = "Oct-2016"
CUTOFF = "2015-07-31"


def write_csv(preset: str, path, config_path=None, n_train=DEFAULT_N_TRAIN, n_test=DEFAULT_N_TEST,
              seed=DEFAULT_SEED):
    """Write the preset as a raw CSV (with categorical target and Mon-YYYY
    dates) plus a matching prep-config JSON, exercising the full ingestion
    path."""
    train, test, truth = generate(preset, n_train, n_test, seed)
    names = train.feature_names
    with write_atomic(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(names + ["loan_status", "issue_d"])
        for data, stamp in ((train, TRAIN_DATE), (test, TEST_DATE)):
            for i in range(data.n):
                writer.writerow(
                    [repr(float(v)) for v in data.X[i]]
                    + ["Charged Off" if data.y[i] == 1.0 else "Fully Paid", stamp]
                )
    if config_path is not None:
        with write_atomic(config_path) as fh:
            json.dump(
                {
                    "target": "loan_status",
                    "positive_label": "Charged Off",
                    "negative_label": "Fully Paid",
                    "date_column": "issue_d",
                    "split_cutoff": CUTOFF,
                    "categorical": [],
                    "imputation": "mean",
                    "engineer_fico": False,
                },
                fh,
                indent=2,
                sort_keys=True,
            )
    return truth
