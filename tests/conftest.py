import csv
import json

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


LC_NUMERIC = ["loan_amnt", "int_rate", "installment", "annual_inc", "dti", "revol_bal",
              "revol_util", "total_acc"]
LC_CATEGORIES = {
    "sub_grade": [f"{g}{i}" for g in "ABCDEFG" for i in range(1, 6)],
    "addr_state": [chr(65 + i // 26) + chr(65 + i % 26) for i in range(50)],
    "purpose": ["debt_consolidation", "credit_card", "home_improvement", "other",
                "major_purchase", "medical", "small_business", "car", "vacation", "moving",
                "house", "wedding", "renewable_energy", "educational"],
}
LC_STATUSES = ["Fully Paid", "Charged Off", "Current", "Late (31-120 days)"]
LC_MONTHS = ["Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"]


def write_lending_club_csv(path, config_path, n, seed=0):
    """A raw CSV of Lending Club's column kinds and its prep config: eight
    numeric columns with 5% blank cells, the FICO pair, ``sub_grade``,
    ``addr_state`` and ``purpose`` as categoricals of 35, 50 and 14 levels
    (``purpose`` 1% blank), four ``loan_status`` labels of which
    ``encode_target`` keeps two, and Mon-YYYY ``issue_d`` over 2012-2016,
    1% blank."""
    rng = np.random.default_rng(seed)
    numeric = np.round(rng.lognormal(2.0, 1.0, (n, len(LC_NUMERIC))), 2).tolist()
    blank = (rng.random((n, len(LC_NUMERIC))) < 0.05).tolist()
    fico = (660 + 5 * rng.integers(0, 30, n)).tolist()
    picks = {name: rng.integers(0, len(levels), n).tolist()
             for name, levels in LC_CATEGORIES.items()}
    purpose_blank = (rng.random(n) < 0.01).tolist()
    status = rng.choice(len(LC_STATUSES), n, p=[0.5, 0.2, 0.2, 0.1]).tolist()
    year, month = rng.integers(2012, 2017, n).tolist(), rng.integers(0, 12, n).tolist()
    date_blank = (rng.random(n) < 0.01).tolist()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(LC_NUMERIC + ["fico_range_low", "fico_range_high", *LC_CATEGORIES,
                                      "loan_status", "issue_d"])
        for i in range(n):
            cats = [levels[picks[name][i]] for name, levels in LC_CATEGORIES.items()]
            if purpose_blank[i]:
                cats[-1] = ""
            writer.writerow(
                ["" if b else repr(v) for v, b in zip(numeric[i], blank[i])]
                + [fico[i], fico[i] + 4] + cats
                + [LC_STATUSES[status[i]],
                   "" if date_blank[i] else f"{LC_MONTHS[month[i]]}-{year[i]}"])
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump({"target": "loan_status", "positive_label": "Charged Off",
                   "negative_label": "Fully Paid", "date_column": "issue_d",
                   "split_cutoff": "2015-06-30", "categorical": list(LC_CATEGORIES)}, fh)


@pytest.fixture(scope="session")
def lending_club_csv(tmp_path_factory):
    """(raw CSV, prep config) of 20 000 Lending-Club-shaped rows."""
    directory = tmp_path_factory.mktemp("lending_club")
    raw, prep = directory / "raw.csv", directory / "prep.json"
    write_lending_club_csv(raw, prep, 20_000)
    return raw, prep
