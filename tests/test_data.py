import json
import warnings

import numpy as np
import pytest

from glassbox_credit.data import (
    Dataset,
    PrepConfig,
    apply_class_weights,
    cache_dataset,
    check_matrix,
    class_weights,
    encode_target,
    engineer_fico,
    ingest_csv,
    load_cached_dataset,
    parse_date,
    prepare,
    read_raw_csv,
    standardize,
)
from glassbox_credit.errors import DataError


def make_config(**overrides):
    base = dict(
        target="loan_status",
        positive_label="Charged Off",
        negative_label="Fully Paid",
        date_column="issue_d",
        split_cutoff="2015-07-31",
        categorical=["grade"],
    )
    base.update(overrides)
    return PrepConfig(**base)


def write_csv(tmp_path, text, name="raw.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


RAW = """loan_status,issue_d,amount,grade,fico_range_high,fico_range_low
Fully Paid,Mar-2015,1000,A,700,680
Charged Off,2015-04,2000,B,660,640
Fully Paid,2015-05-02,,A,720,700
Charged Off,Oct-2016,1500,,680,660
Fully Paid,2016-11,3000,C,740,720
"""


def test_parse_date_formats():
    import datetime

    assert parse_date("2015-07-31") == datetime.date(2015, 7, 31)
    assert parse_date("2015-07") == datetime.date(2015, 7, 1)
    assert parse_date("Mar-2015") == datetime.date(2015, 3, 1)
    assert parse_date("") is None


def test_ingest_types_and_missing(tmp_path):
    config = make_config()
    table = ingest_csv(write_csv(tmp_path, RAW), config)
    assert table.kind("amount") == "numeric"
    assert table.kind("grade") == "categorical"
    assert table.kind("issue_d") == "date"
    amounts = table.values("amount")
    assert np.isnan(amounts[2])  # empty cell is missing


def test_ingest_ragged_row_rejected(tmp_path):
    bad = "a,b\n1,2\n3\n"
    with pytest.raises(DataError):
        ingest_csv(write_csv(tmp_path, bad), make_config(target="a", date_column="b"))


def test_ingest_missing_configured_column(tmp_path):
    with pytest.raises(DataError):
        ingest_csv(write_csv(tmp_path, "x,y\n1,2\n"), make_config())


def test_encode_target_filters_and_recodes(tmp_path):
    config = make_config()
    raw = RAW + "Late,2015-06,999,D,650,630\n"
    table = encode_target(ingest_csv(write_csv(tmp_path, raw), config), config)
    labels = table.values("loan_status")
    assert len(labels) == 5  # the "Late" row is gone
    assert set(labels.tolist()) == {0.0, 1.0}
    assert labels[1] == 1.0  # Charged Off -> 1


def test_engineer_fico_merges(tmp_path):
    config = make_config()
    table = engineer_fico(ingest_csv(write_csv(tmp_path, RAW), config))
    assert "fico_range_low" not in table.names
    merged = table.values("fico_range_high")
    assert merged[0] == 690.0  # mean of 700 and 680


def test_engineer_fico_absent_warns(tmp_path):
    text = "loan_status,issue_d,x\nFully Paid,Mar-2015,1\nCharged Off,Oct-2016,2\n"
    table = ingest_csv(write_csv(tmp_path, text), make_config())
    with pytest.warns(UserWarning):
        out = engineer_fico(table)
    assert out.names == table.names


@pytest.mark.parametrize("site", ["cli prepare", "run_full dataset"])
def test_engineer_fico_false_keeps_both_columns(tmp_path, capsys, site):
    from glassbox_credit.cli import main
    from glassbox_credit.pipeline import _load_experiment_datasets

    raw, cfg = write_csv(tmp_path, RAW), tmp_path / "prep.json"
    cfg.write_text(json.dumps(make_config(engineer_fico=False).as_dict()))
    if site == "cli prepare":
        assert main(["prepare", "--input", str(raw), "--config", str(cfg),
                     "--out-train", str(tmp_path / "train.csv"),
                     "--out-test", str(tmp_path / "test.csv")]) == 0
        capsys.readouterr()
        names = load_cached_dataset(tmp_path / "train.csv").feature_names
    else:
        spec = {"train_csv": str(raw), "prep_config": str(cfg)}
        names = _load_experiment_datasets(spec)[0].feature_names
    assert {"fico_range_high", "fico_range_low"} <= set(names)


def test_synth_csv_reads_without_warnings(tmp_path):
    from glassbox_credit import synth

    raw, cfg = tmp_path / "raw.csv", tmp_path / "prep.json"
    synth.write_csv("redundant", raw, cfg, n_train=200, n_test=100, seed=3)
    config = PrepConfig.from_json_file(cfg)
    assert not config.engineer_fico
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = read_raw_csv(raw, config)
    assert table.kind(config.target) == "numeric"


def test_read_raw_csv_merges_fico_by_default(tmp_path):
    table = read_raw_csv(write_csv(tmp_path, RAW), make_config())
    assert "fico_range_low" not in table.names
    assert table.values("fico_range_high")[0] == 690.0
    assert table.values("loan_status").tolist() == [0.0, 1.0, 0.0, 1.0, 0.0]


def prepared(tmp_path):
    config = make_config()
    table = ingest_csv(write_csv(tmp_path, RAW), config)
    table = encode_target(table, config)
    table = engineer_fico(table)
    return prepare(table, config), config


def test_prepare_split_and_encoding(tmp_path):
    (train, test), _ = prepared(tmp_path)
    assert train.n == 3 and test.n == 2  # cutoff 2015-07-31 inclusive
    assert "grade_A" in train.feature_names
    assert "grade_nan" in train.feature_names  # missing category column
    assert train.feature_names == test.feature_names


def test_prepare_imputes_with_train_mean(tmp_path):
    (train, test), _ = prepared(tmp_path)
    col = train.feature_names.index("amount")
    observed = [1000.0, 2000.0]
    assert train.X[2, col] == pytest.approx(np.mean(observed))


def test_prepare_unit_weights_and_labels(tmp_path):
    (train, test), _ = prepared(tmp_path)
    assert np.array_equal(train.w, np.ones(train.n))
    assert set(np.concatenate([train.y, test.y]).tolist()) <= {0.0, 1.0}


def test_class_weights_known_value():
    y = np.array([1.0, 1.0] + [0.0] * 8)
    w_neg, w_pos = class_weights(y)
    assert (w_neg, w_pos) == (0.625, 2.5)  # n/(2*n_c) with n=10
    weighted = apply_class_weights(Dataset(np.zeros((10, 1)), y, np.ones(10), ["x"]))
    assert weighted.w.sum() == pytest.approx(10.0)  # total mass preserved


def test_standardize_stats_and_zero_variance():
    X = np.array([[1.0, 5.0], [3.0, 5.0], [5.0, 5.0]])
    train = Dataset(X, np.array([0.0, 1.0, 0.0]), np.ones(3), ["a", "b"])
    test = Dataset(X[:1], np.array([1.0]), np.ones(1), ["a", "b"])
    ztrain, ztest, means, stds = standardize(train, test)
    assert means.tolist() == [3.0, 5.0]
    assert ztrain.X[:, 0].mean() == pytest.approx(0.0)
    assert ztrain.X[:, 0].std() == pytest.approx(1.0)
    assert np.array_equal(ztrain.X[:, 1], np.zeros(3))  # zero variance -> 0
    assert ztest.X[0, 0] == pytest.approx((1.0 - 3.0) / stds[0])


def test_dataset_select_features_preserves_column_order():
    X = np.arange(12.0).reshape(3, 4)
    data = Dataset(X, np.array([0.0, 1.0, 0.0]), np.ones(3), list("abcd"))
    # request in shuffled order; original layout wins
    sub = data.select_features(["d", "a", "c"])
    assert sub.feature_names == ["a", "c", "d"]
    assert np.array_equal(sub.X, X[:, [0, 2, 3]])


def test_dataset_validation():
    with pytest.raises(DataError):
        Dataset(np.zeros((2, 1)), np.array([0.0, 2.0]), np.ones(2), ["x"])
    with pytest.raises(DataError):
        Dataset(np.zeros((2, 1)), np.zeros(2), np.ones(3), ["x"])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DataError):
            Dataset(np.array([[0.0], [bad]]), np.array([0.0, 1.0]), np.ones(2), ["x"])


def test_dataset_rejects_duplicate_feature_names():
    with pytest.raises(DataError, match=r"duplicate feature names: \['a', 'b'\]"):
        Dataset(np.zeros((2, 5)), np.array([0.0, 1.0]), np.ones(2), list("abcab"))


def test_cli_prepare_exits_2_on_duplicate_encoded_names(tmp_path, capsys):
    from glassbox_credit.cli import main

    # categorical grade one-hot encodes to grade_A, next to a numeric grade_A
    raw = write_csv(tmp_path, """loan_status,issue_d,grade,grade_A
Fully Paid,Mar-2015,A,1
Charged Off,2015-04,B,2
Fully Paid,Oct-2016,A,3
Charged Off,2016-11,B,4
""")
    cfg = tmp_path / "prep.json"
    cfg.write_text(json.dumps(make_config().as_dict()))
    code = main(["prepare", "--input", str(raw), "--config", str(cfg),
                 "--out-train", str(tmp_path / "train.csv"),
                 "--out-test", str(tmp_path / "test.csv")])
    assert code == 2
    assert "duplicate feature names: ['grade_A']" in capsys.readouterr().err
    assert not (tmp_path / "train.csv").exists()


def test_check_matrix():
    assert check_matrix([1.0, 2.0], 2).shape == (1, 2)
    with pytest.raises(DataError, match="expected 3 features"):
        check_matrix(np.zeros((4, 2)), 3)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DataError, match="missing or infinite"):
            check_matrix([[0.0, bad]], 2)


@pytest.mark.parametrize("cell", ["inf", "-inf"])
def test_cli_prepare_exits_2_on_infinite_cell(tmp_path, capsys, cell):
    from glassbox_credit.cli import main

    raw = write_csv(tmp_path, RAW.replace("Mar-2015,1000", f"Mar-2015,{cell}"))
    cfg = tmp_path / "prep.json"
    cfg.write_text(json.dumps(make_config().as_dict()))
    code = main(["prepare", "--input", str(raw), "--config", str(cfg),
                 "--out-train", str(tmp_path / "train.csv"),
                 "--out-test", str(tmp_path / "test.csv")])
    assert code == 2
    assert "infinite" in capsys.readouterr().err
    assert not (tmp_path / "train.csv").exists()


def test_cache_round_trip(tmp_path):
    (train, _), _ = prepared(tmp_path)
    csv_path = tmp_path / "train_cached.csv"
    manifest = tmp_path / "train_cached.manifest.json"
    cache_dataset(train, csv_path, manifest)
    loaded = load_cached_dataset(csv_path)
    assert loaded.feature_names == train.feature_names
    assert np.array_equal(loaded.X, train.X)
    assert np.array_equal(loaded.y, train.y)
    assert json.loads(manifest.read_text())


CACHED_HEADER = "__label__,__weight__,a,b\n"


@pytest.mark.parametrize(
    "text,message",
    [
        ("", "empty file"),
        (CACHED_HEADER, "no data rows"),
        (CACHED_HEADER + "1.0,1.0,0.5,abc\n", "line 2"),
        (CACHED_HEADER + "1.0,1.0,0.5,2.0\n0.0,1.0,0.5\n", "line 3"),
        ("label,weight,a,b\n1.0,1.0,0.5,2.0\n", "not a cached dataset"),
        ("0.0,1.0,0.5,2.0\n1.0,1.0,0.5,2.0\n", "not a cached dataset"),
    ],
    ids=["empty", "header-only", "non-numeric", "ragged", "other-header", "raw-numeric"],
)
def test_malformed_cached_csv_rejected(tmp_path, text, message):
    path = write_csv(tmp_path, text, "cached.csv")
    with pytest.raises(DataError, match=message):
        load_cached_dataset(path)


def test_prep_config_validation(tmp_path):
    with pytest.raises(DataError):
        make_config(positive_label="Same", negative_label="Same")
    with pytest.raises(DataError):
        make_config(split_cutoff="not a date")
    with pytest.raises(DataError):
        make_config(imputation="median")
