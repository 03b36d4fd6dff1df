import os
from unittest import mock

import numpy as np
import pytest

from glassbox_credit import synth
from glassbox_credit.data import PrepConfig, encode_target, ingest_csv, prepare
from glassbox_credit.errors import DataError
from glassbox_credit.metrics import auroc


def test_shapes_and_determinism():
    a_train, a_test, a_truth = synth.generate("additive", n_train=500, n_test=200)
    b_train, b_test, _ = synth.generate("additive", n_train=500, n_test=200)
    assert a_train.X.shape == (500, synth.D_TOTAL)
    assert a_test.X.shape == (200, synth.D_TOTAL)
    assert np.array_equal(a_train.X, b_train.X)
    assert np.array_equal(a_test.y, b_test.y)
    assert a_truth.informative == list(range(synth.N_INFORMATIVE))


def test_seed_changes_data():
    a, _, _ = synth.generate("additive", n_train=500, n_test=100, seed=1)
    b, _, _ = synth.generate("additive", n_train=500, n_test=100, seed=2)
    assert not np.array_equal(a.X, b.X)


def test_positive_rate_near_target():
    train, test, _ = synth.generate("additive", n_train=20_000, n_test=5_000)
    rate = np.concatenate([train.y, test.y]).mean()
    assert rate == pytest.approx(synth.TARGET_RATE, abs=0.02)


def test_bayes_margin_is_informative():
    train, _, truth = synth.generate("additive", n_train=5000, n_test=100)
    assert auroc(truth.bayes_margin_train, train.y) > 0.8


def test_redundant_preset_plants_duplicates():
    train, _, truth = synth.generate("redundant", n_train=3000, n_test=100)
    assert len(truth.duplicates) == 8
    for copy, source in truth.duplicates.items():
        rho = np.corrcoef(train.X[:, copy], train.X[:, source])[0, 1]
        assert rho > 0.9


def test_xor_preset_truth():
    _, _, truth = synth.generate("xor", n_train=500, n_test=100)
    assert truth.xor_pair == synth.XOR_PAIR


def test_threshold_preset_shape():
    train, _, _ = synth.generate("threshold", n_train=500, n_test=100)
    assert train.d == 10


def test_unknown_preset():
    with pytest.raises(DataError):
        synth.generate("mystery")


def test_write_csv_survives_full_ingestion(tmp_path):
    csv_path = tmp_path / "raw.csv"
    config_path = tmp_path / "prep.json"
    synth.write_csv("additive", csv_path, config_path, n_train=300, n_test=150)
    config = PrepConfig.from_json_file(config_path)
    table = encode_target(ingest_csv(csv_path, config), config)
    train, test = prepare(table, config)
    assert train.n == 300 and test.n == 150
    direct_train, direct_test, _ = synth.generate("additive", 300, 150)
    # the CSV path reproduces the in-memory data (column order may differ)
    col = train.feature_names.index("f00")
    assert np.allclose(train.X[:, col], direct_train.X[:, 0])
    assert np.array_equal(train.y, direct_train.y)


class _Unwritable:
    """A value csv.writer cannot turn into a cell (its str fails) and
    json.dump cannot encode."""

    def __str__(self):
        raise OSError("no space left on device")


@pytest.mark.parametrize("constant", ["TEST_DATE", "CUTOFF"], ids=["csv", "config"])
def test_write_csv_failing_midway_keeps_the_old_files(tmp_path, constant):
    # TEST_DATE fails the CSV after its train rows, CUTOFF the config after
    # its first keys; either way no file is left half written
    csv_path, config_path = tmp_path / "raw.csv", tmp_path / "prep.json"
    csv_path.write_text("old csv")
    config_path.write_text("old config")
    with mock.patch.object(synth, constant, _Unwritable()), pytest.raises((OSError, TypeError)):
        synth.write_csv("additive", csv_path, config_path, n_train=50, n_test=50)
    if constant == "TEST_DATE":
        assert csv_path.read_text() == "old csv"
    assert config_path.read_text() == "old config"
    assert sorted(os.listdir(tmp_path)) == ["prep.json", "raw.csv"]
