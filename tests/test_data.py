import contextlib
import csv
import json
import math
import os
import re
import sys
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glassbox_credit import data as data_module
from glassbox_credit.data import (
    CACHE_COLUMNS,
    MISSING_CATEGORY,
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


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    """One directory for the files property tests rewrite on each example."""
    return tmp_path_factory.mktemp("cache")


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


# The column typing the single-pass ingest replaced, kept as an oracle:
# kinds, NaN placement, float bits and error messages must all agree.
def reference_ingest(path, config):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [row for row in reader]
    columns = {}
    for ci, name in enumerate(header):
        raw = [row[ci] for row in rows]
        if name == config.date_column:
            parsed = []
            for cell in raw:
                if cell.strip() == "":
                    parsed.append(None)
                    continue
                d = parse_date(cell)
                if d is None:
                    raise DataError(f"unparseable date {cell!r} in column {name!r}")
                parsed.append(d)
            columns[name] = ("date", parsed)
            continue
        numeric = True
        for cell in raw:
            if cell.strip() == "":
                continue
            try:
                float(cell)
            except ValueError:
                numeric = False
                break
        if numeric and any(cell.strip() != "" for cell in raw):
            vals = np.array([float(c) if c.strip() != "" else np.nan for c in raw], dtype=float)
            columns[name] = ("numeric", vals)
        else:
            columns[name] = ("categorical", [c if c.strip() != "" else None for c in raw])
    return header, columns


# Cells float reads in ways a hand-written parser might not: padding,
# digit separators, NaN spellings, a non-ASCII digit, signed zero.
RAW_CELLS = ["", " ", "1", "-0", "1.5", " 1.5 ", "1_000", "nan", "-inf", "1e5", "\u0663",
             "abc", "A", "Mar-2015"]
DATE_CELLS = ["", " ", "Mar-2015", "Apr-2015", " 2015-04 ", "2015-05-02", "Foo-2015",
              "2015-13"]


@st.composite
def raw_tables(draw):
    n = draw(st.integers(0, 6))
    width = draw(st.integers(0, 3))
    rows = []
    for _ in range(n):
        cells = draw(st.lists(st.sampled_from(RAW_CELLS), min_size=width, max_size=width))
        rows.append([draw(st.sampled_from(["Fully Paid", "x"])),
                     draw(st.sampled_from(DATE_CELLS))] + cells)
    header = ["loan_status", "issue_d"] + [f"c{j}" for j in range(width)]
    return header, rows


@settings(max_examples=300)
@given(raw_tables())
def test_ingest_matches_reference(cache_dir, table):
    path = cache_dir / "raw.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([table[0]] + table[1])
    config = make_config()
    try:
        want = reference_ingest(path, config)
    except DataError as exc:
        with pytest.raises(DataError, match=re.escape(str(exc))):
            ingest_csv(path, config)
        return
    got = ingest_csv(path, config)
    header, columns = want
    assert got.names == header
    for name in header:
        kind, vals = columns[name]
        assert got.kind(name) == kind
        if kind == "numeric":
            assert got.values(name).tobytes() == vals.tobytes()
        else:
            assert got.values(name).tolist() == vals


def _assert_ingest_matches_reference(path, config):
    try:
        header, columns = reference_ingest(path, config)
    except DataError as exc:
        with pytest.raises(DataError, match=re.escape(str(exc))):
            ingest_csv(path, config)
        return
    got = ingest_csv(path, config)
    assert got.names == header
    for name in header:
        kind, vals = columns[name]
        assert got.kind(name) == kind
        if kind == "numeric":
            assert got.values(name).tobytes() == vals.tobytes()
        else:
            assert got.values(name).tolist() == vals


@settings(max_examples=300)
@given(raw_tables(), st.integers(1, 3))
def test_ingest_in_small_chunks_matches_reference(cache_dir, table, chunk_rows):
    # columns turn to text, and bad dates appear, after the first chunk
    path = cache_dir / "raw.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([table[0]] + table[1])
    with mock.patch.object(data_module, "INGEST_CHUNK_ROWS", chunk_rows):
        _assert_ingest_matches_reference(path, make_config())


def _long_raw_csv(path, late_cells):
    """Rows in three chunks; ``late_cells`` maps (chunk, row in the chunk,
    column) to the cell that replaces the generated one."""
    size = data_module.INGEST_CHUNK_ROWS
    rows = [["Fully Paid" if i % 3 else "Charged Off", "Mar-2015" if i % 2 else "2016-01",
             repr(i * 0.25), "" if i % 7 == 0 else str(i % 5), "A" if i % 4 else ""]
            for i in range(2 * size + 10)]
    for (chunk, at, col), cell in late_cells.items():
        rows[chunk * size + at][col] = cell
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([["loan_status", "issue_d", "amount", "term", "grade"]] + rows)
    return path


@pytest.mark.parametrize(
    "late_cells",
    [
        {(1, 40, 2): "n/a"},  # amount turns to text in the second chunk
        {(1, 40, 3): "x", (2, 5, 2): "y"},  # two columns, in two later chunks
        {(1, 40, 1): "Foo-2015", (2, 5, 1): "Bar-2015"},  # the first bad date is named
        {(0, 3, 1): "Foo-2015", (2, 5, 2): ""},
    ],
    ids=["text-in-chunk-2", "text-in-chunks-2-and-3", "bad-dates-in-chunks-2-and-3",
         "bad-date-in-chunk-1"],
)
def test_ingest_across_chunks_matches_reference(tmp_path, late_cells):
    path = _long_raw_csv(tmp_path / "raw.csv", late_cells)
    _assert_ingest_matches_reference(path, make_config())


def test_ingest_names_a_ragged_row_before_an_earlier_bad_date(tmp_path):
    path = _long_raw_csv(tmp_path / "raw.csv", {(0, 3, 1): "Foo-2015"})
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("Fully Paid,Mar-2015\n")
    with pytest.raises(DataError, match="ragged CSV row"):
        ingest_csv(path, make_config())


def test_ingest_peak_memory_is_a_small_multiple_of_the_table(tmp_path):
    import tracemalloc

    n = 20_000
    rng = np.random.default_rng(5)
    path = tmp_path / "raw.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["loan_status", "issue_d", "grade", "a", "b", "c", "d"])
        for i, vals in enumerate(rng.standard_normal((n, 4)).tolist()):
            writer.writerow(["Fully Paid" if i % 5 else "Charged Off",
                             "Mar-2015" if i % 2 else "2016-01", "ABCDE"[i % 5]]
                            + [repr(v) for v in vals])
    tracemalloc.start()
    try:
        table = ingest_csv(path, make_config())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # arrays, and lists of references to one object per distinct cell
    size = sum(v.nbytes if isinstance(v, np.ndarray) else 8 * len(v)
               for _, v in table.columns.values())
    assert table.n_rows == n
    assert peak < 3 * size


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


def test_prepare_names_a_numeric_categorical_by_float_repr(tmp_path):
    raw = write_csv(tmp_path, """loan_status,issue_d,term
Fully Paid,Mar-2015,36
Charged Off,2015-04,60
Fully Paid,2015-05-02,
Charged Off,Oct-2016,36
Fully Paid,2016-11,60
""")
    config = make_config(categorical=["term"], engineer_fico=False)
    train, test = prepare(read_raw_csv(raw, config), config)
    assert train.feature_names == ["term_36.0", "term_60.0", "term_nan"]
    assert train.X.tolist() == [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    assert test.X.tolist() == [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]


# The list-based encode_target and prepare that one numpy array per raw
# column replaced, kept as an oracle over reference_ingest's columns, with a
# numeric column listed as categorical named by the repr of Python floats:
# X bytes, y, w, names, stats and error messages must all agree.
def _reference_select(columns, keep):
    return {name: (kind, vals[np.array(keep, dtype=bool)] if kind == "numeric"
                   else [v for v, k in zip(vals, keep) if k])
            for name, (kind, vals) in columns.items()}


def reference_prepare(header, columns, config):
    kind, labels = columns[config.target]
    if kind != "categorical":
        raise DataError("target column must be categorical before encoding")
    keep = [v in (config.positive_label, config.negative_label) for v in labels]
    if not any(keep):
        raise DataError("no rows with a recognized target label remain")
    columns = _reference_select(columns, keep)
    columns[config.target] = ("numeric", np.array(
        [1.0 if v == config.positive_label else 0.0 for v in columns[config.target][1]]))
    columns = _reference_select(columns, [d is not None for d in columns[config.date_column][1]])
    in_train = np.array([d <= config.cutoff_date for d in columns[config.date_column][1]],
                        dtype=bool)
    if not in_train.any():
        raise DataError("empty train split")
    if in_train.all():
        raise DataError("empty test split")
    blocks, names, impute_means = [], [], {}
    for name in header:
        if name in (config.target, config.date_column):
            continue
        kind, vals = columns[name]
        if name in config.categorical:
            if kind == "numeric":
                vals = [repr(v) if not math.isnan(v) else None for v in vals.tolist()]
            for cat in sorted({v if v is not None else MISSING_CATEGORY for v in vals}):
                blocks.append(np.array(
                    [1.0 if (v if v is not None else MISSING_CATEGORY) == cat else 0.0
                     for v in vals]))
                names.append(f"{name}_{cat}")
        elif kind == "numeric":
            col = vals.astype(float).copy()
            nan_mask = np.isnan(col)
            if nan_mask.any():
                train_vals = col[in_train & ~nan_mask]
                if train_vals.size == 0:
                    raise DataError(f"column {name!r} has no observed train values")
                mean = float(train_vals.mean())
                col[nan_mask] = mean
                impute_means[name] = mean
            blocks.append(col)
            names.append(name)
        else:
            raise DataError(f"categorical column {name!r} not listed in config.categorical")
    X = np.column_stack(blocks) if blocks else np.zeros((in_train.size, 0))
    y = columns[config.target][1]
    train, test = (Dataset(X[m], y[m], np.ones(int(m.sum())), list(names))
                   for m in (in_train, ~in_train))
    stats = {"imputation_means": impute_means, "split_cutoff": config.split_cutoff,
             "feature_names": list(names), "n_train": train.n, "n_test": test.n}
    return train, test, stats


# Numeric cells (blanks, NaN and inf spellings, values a repr names) and text
# cells ("nan" is a float, so a column of it and blanks turns numeric).
# Repeats weight the draws towards tables that prepare accepts.
PREP_NUMERIC_CELLS = ["", "1", "-0", "2.5", "36", "60", "1e5", "1", "2.5", "nan", "inf"]
PREP_TEXT_CELLS = ["", "A", "B", " A", "a", "nan", "é", "A", "B"]
PREP_LABELS = ["Fully Paid", "Charged Off"] * 3 + ["Current", ""]
PREP_DATES = ["", "Mar-2015", "2015-07-31", "2014-01-15", "2015-08", "Oct-2016", "2016-01-02"]


# (cells, listed in config.categorical) per column
PREP_COLUMNS = [(PREP_NUMERIC_CELLS, False)] * 2 + [(PREP_NUMERIC_CELLS, True)] \
    + [(PREP_TEXT_CELLS, True)] * 2 + [(PREP_TEXT_CELLS, False)]


@st.composite
def prep_tables(draw):
    n = draw(st.sampled_from([6, 10, 16, draw(st.integers(0, 16))]))
    width = draw(st.sampled_from([2, 3, 1, 0]))
    columns = [draw(st.sampled_from(PREP_COLUMNS)) for _ in range(width)]
    rows = [[draw(st.sampled_from(PREP_LABELS)), draw(st.sampled_from(PREP_DATES))]
            + [draw(st.sampled_from(cells)) for cells, _ in columns] for _ in range(n)]
    header = ["loan_status", "issue_d"] + [f"c{j}" for j in range(len(columns))]
    categorical = [f"c{j}" for j, (_, listed) in enumerate(columns) if listed]
    return header, rows, categorical


@settings(max_examples=400)
@given(prep_tables())
def test_prepare_matches_reference(cache_dir, table):
    header, rows, categorical = table
    path = cache_dir / "raw.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header] + rows)
    config = make_config(categorical=categorical, engineer_fico=False)
    try:
        want = reference_prepare(*reference_ingest(path, config), config)
    except DataError as exc:
        with pytest.raises(DataError, match=re.escape(str(exc))):
            prepare(read_raw_csv(path, config), config)
        return
    got = prepare(read_raw_csv(path, config), config, return_stats=True)
    assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
    assert got[2] == want[2]


def test_prepare_peak_memory_is_near_its_output(lending_club_csv):
    import tracemalloc

    raw, prep = lending_club_csv
    config = PrepConfig.from_json_file(prep)
    table = read_raw_csv(raw, config)
    tracemalloc.start()
    try:
        train, test = prepare(table, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    output = sum(a.nbytes for data in (train, test) for a in (data.X, data.y, data.w))
    assert train.d == 109  # 8 numeric, the merged FICO column, 35 + 50 + 14 + 1 one-hot
    # both splits are written in place; beyond them only the category codes
    # and the imputed copies of the numeric columns with blanks
    assert peak < 1.5 * output


def test_class_weights_known_value():
    y = np.array([1.0, 1.0] + [0.0] * 8)
    w_neg, w_pos = class_weights(y)
    assert (w_neg, w_pos) == (0.625, 2.5)  # n/(2*n_c) with n=10
    weighted = apply_class_weights(Dataset(np.zeros((10, 1)), y, np.ones(10), ["x"]))
    assert weighted.w.sum() == pytest.approx(10.0)  # total mass preserved


def test_class_weights_share_the_data():
    data = Dataset(np.arange(20.0).reshape(10, 2), np.array([1.0, 0.0] * 5), np.ones(10), ["a", "b"])
    weighted = apply_class_weights(data)
    assert np.shares_memory(weighted.X, data.X)
    assert np.shares_memory(weighted.y, data.y)
    assert not np.shares_memory(weighted.w, data.w)


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
CACHED_ROW = "1.0,1.0,0.5,2.0\n"
# numpy's loadtxt chunk size (numpy.lib._npyio_impl._loadtxt_chunksize); a
# bad cell past it must still be named at its own line.
LOADTXT_CHUNK_ROWS = 50_000


@pytest.mark.parametrize(
    "text,message",
    [
        ("", "empty file"),
        (CACHED_HEADER, "no data rows"),
        (CACHED_HEADER + "1.0,1.0,0.5,abc\n", "line 2"),
        (CACHED_HEADER + "1.0,1.0,0.5,2.0\n0.0,1.0,0.5\n", "line 3"),
        ("label,weight,a,b\n1.0,1.0,0.5,2.0\n", "not a cached dataset"),
        ("0.0,1.0,0.5,2.0\n1.0,1.0,0.5,2.0\n", "not a cached dataset"),
        (CACHED_HEADER + CACHED_ROW + "\n" + CACHED_ROW, "line 3"),
        (CACHED_HEADER + CACHED_ROW + " \t\n", "line 3"),
        (CACHED_HEADER + "1.0,1.0,0.5,2.0,\n", "line 2"),
        (CACHED_HEADER + CACHED_ROW + "#,1.0,0.5,2.0\n", "line 3"),
        (CACHED_HEADER + "1.0,1.0,0.5,2.0#\n", "line 2"),
        (CACHED_HEADER + "1.0,1.0,nan,2.0\n", "missing or infinite"),
        (CACHED_HEADER + CACHED_ROW + "0.0,1.0,0.5,-inf\n", "missing or infinite"),
        (CACHED_HEADER + CACHED_ROW * (LOADTXT_CHUNK_ROWS + 100) + "1.0,1.0,0.5,abc\n",
         f"line {LOADTXT_CHUNK_ROWS + 102}:"),
    ],
    ids=["empty", "header-only", "non-numeric", "ragged", "other-header", "raw-numeric",
         "blank-line", "whitespace-line", "trailing-comma", "hash-cell", "hash-suffix",
         "nan-cell", "inf-cell", "past-loadtxt-chunk"],
)
def test_malformed_cached_csv_rejected(tmp_path, text, message, capsys):
    from glassbox_credit.cli import main

    path = write_csv(tmp_path, text, "cached.csv")
    with pytest.raises(DataError, match=message):
        load_cached_dataset(path)
    code = main(["train", "--train", str(path), "--test", str(path), "--kind", "lr",
                 "--out-model", str(tmp_path / "model.json")])
    assert code == 2
    assert message.split(":")[0] in capsys.readouterr().err


def test_cached_csv_cells_only_float_reads_load_as_before(tmp_path):
    # np.loadtxt refuses quoted cells and digit separators; such files still
    # load to the numbers float gives. Unicode padding both accept.
    text = CACHED_HEADER + '"1.0",1.0,1_000,\u20032.5\u2003\r\n0.0,2.0,-0.0," 3"\r\n'
    data = load_cached_dataset(write_csv(tmp_path, text, "cached.csv"))
    assert data.y.tolist() == [1.0, 0.0] and data.w.tolist() == [1.0, 2.0]
    assert data.X.tolist() == [[1000.0, 2.5], [-0.0, 3.0]]
    assert np.signbit(data.X[1, 0])


def test_cache_load_holds_one_copy_of_the_matrix(tmp_path):
    import tracemalloc

    rng = np.random.default_rng(11)
    n, d = 5000, 54
    data = Dataset(rng.standard_normal((n, d)), (rng.random(n) < 0.2).astype(float),
                   np.ones(n), [f"f{j}" for j in range(d)])
    path = tmp_path / "cached.csv"
    cache_dataset(data, path, tmp_path / "cached.json")
    tracemalloc.start()
    try:
        loaded = load_cached_dataset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded.X, data.X) and loaded.X.flags.c_contiguous
    # np.loadtxt's result holds the label and weight columns too, and grows
    # by a quarter at a time: at most 1.25 * 56 / 54 = 1.30 X
    assert peak < 1.35 * loaded.X.nbytes


# The writer and reader the chunked writer and np.loadtxt reader replaced,
# kept as oracles: files must match byte for byte and loads bit for bit.
def reference_cache_csv(data, csv_path):
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CACHE_COLUMNS + data.feature_names)
        for i in range(data.n):
            writer.writerow(
                [repr(float(data.y[i])), repr(float(data.w[i]))]
                + [repr(float(v)) for v in data.X[i]]
            )


def reference_load_cached(csv_path):
    with open(csv_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise DataError(f"{csv_path}: empty file")
            if header[:2] != CACHE_COLUMNS:
                raise DataError(f"{csv_path}: not a cached dataset")
            rows = [list(map(float, row)) for row in reader]
        except (ValueError, csv.Error) as exc:
            raise DataError(f"{csv_path}, line {reader.line_num}: {exc}") from None
    if not rows:
        raise DataError(f"{csv_path}: no data rows")
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise DataError(f"{csv_path}, line {i + 2}: ragged")
    arr = np.array(rows, dtype=float)
    return Dataset(X=arr[:, 2:], y=arr[:, 0], w=arr[:, 1], feature_names=header[2:])


# Values where float repr is awkward: signed zero, subnormals, the largest
# finite floats, the switches to and from exponent notation (1e16, 1e-4,
# 1e-5) and their neighbours, and integer-valued floats.
EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
    1e308, -1e308, 1.7976931348623157e308, 1e16, 9999999999999998.0,
    1.0000000000000002e16, 1e-4, 9.999999999999999e-05, 1e-5, 1.0000000000000001e-05,
    1.0, -3.0, 123456789.0, 2.0**53, 0.1,
]
CELLS = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e-300, 1e-300),
    st.integers(-(2**60), 2**60).map(float),
)
FEATURE_NAMES = st.lists(
    st.text(st.sampled_from("ab ,\"'#\né_"), min_size=1, max_size=6),
    max_size=4, unique=True,
)


@st.composite
def cached_datasets(draw):
    names = draw(FEATURE_NAMES)
    n = draw(st.sampled_from([1, 2, 3, draw(st.integers(1, 9))]))
    X = np.array(draw(st.lists(CELLS, min_size=n * len(names), max_size=n * len(names))))
    y = draw(st.lists(st.sampled_from([0.0, -0.0, 1.0]), min_size=n, max_size=n))
    weights = st.one_of(st.sampled_from([1.0, 5e-324, 1e308, 0.5]),
                        st.floats(0.0, 1e308, exclude_min=True))
    w = draw(st.lists(weights, min_size=n, max_size=n))
    return Dataset(X.reshape(n, len(names)), y, w, names)


def same_bits(a: Dataset, b: Dataset) -> bool:
    return (a.feature_names == b.feature_names and a.X.shape == b.X.shape
            and all(u.tobytes() == v.tobytes() for u, v in ((a.X, b.X), (a.y, b.y), (a.w, b.w))))


@contextlib.contextmanager
def in_parts(parts):
    """Cache writes and reads split any matrix into up to ``parts`` parts."""
    with mock.patch.object(data_module, "SPLIT_MIN_CELLS", 1), \
            mock.patch.object(data_module, "_usable_cpus", lambda: parts):
        yield


@settings(max_examples=300)
@given(cached_datasets(), st.sampled_from([1, 2, 3, data_module.CACHE_CHUNK_ROWS]),
       st.sampled_from([1, 2, 3]))
def test_cache_matches_reference_bytes_and_bits(cache_dir, data, chunk_rows, parts):
    got, want = cache_dir / "got.csv", cache_dir / "want.csv"
    with mock.patch.object(data_module, "CACHE_CHUNK_ROWS", chunk_rows), in_parts(parts):
        cache_dataset(data, got, cache_dir / "got.json")
        # a clean file never needs the cell-by-cell reading
        with mock.patch.object(data_module, "_read_cached_rows", side_effect=AssertionError):
            loaded = load_cached_dataset(got)
    reference_cache_csv(data, want)
    assert got.read_bytes() == want.read_bytes()
    assert same_bits(loaded, reference_load_cached(want))
    assert same_bits(loaded, data)


def corrupt(text: str, draw) -> str:
    """``text`` with one line after the header damaged: a blank line
    inserted, or a cell added (empty or a number), dropped or replaced."""
    # A newline inside a quoted name is a bare "\n", so the header is lines[0].
    lines = text.split("\r\n")
    i = draw(st.integers(1, len(lines) - 1))
    cells = lines[i].split(",")
    j = draw(st.integers(0, len(cells) - 1))
    damage = draw(st.sampled_from(
        ["blank", "spaces", "comma", "extra", "hash", "hash-suffix", "drop", "nan", "inf",
         "abc", "1_0", "quoted", "padded", "empty"]))
    if damage in ("blank", "spaces"):
        lines.insert(i, "" if damage == "blank" else "  ")
    elif damage in ("comma", "extra"):
        lines[i] += "," if damage == "comma" else ",1.5"
    elif damage == "hash-suffix":
        lines[i] += "#x"
    elif damage == "drop":
        lines[i] = ",".join(cells[:j] + cells[j + 1:])
    else:
        cells[j] = {"hash": "#", "quoted": f'"{cells[j]}"', "padded": f" {cells[j]} ",
                    "empty": ""}.get(damage, damage)
        lines[i] = ",".join(cells)
    return "\r\n".join(lines)


def outcome(read, path):
    try:
        return read(path)
    except DataError:
        return DataError


@settings(max_examples=300)
@given(cached_datasets(), st.data(), st.sampled_from([1, 2, 3]))
def test_damaged_cache_loads_as_reference_or_fails(cache_dir, data, draw, parts):
    clean = cache_dir / "clean.csv"
    reference_cache_csv(data, clean)
    text = corrupt(clean.read_bytes().decode("utf-8"), draw.draw)
    damaged = cache_dir / "damaged.csv"
    damaged.write_bytes(text.encode("utf-8"))
    with in_parts(parts):
        got = outcome(load_cached_dataset, damaged)
    want = outcome(reference_load_cached, damaged)
    if want is DataError:
        assert got is DataError
    else:
        assert got is not DataError and same_bits(got, want)


@contextlib.contextmanager
def counting_forks():
    """The pids of the children ``os.fork`` makes meanwhile."""
    pids, fork = [], os.fork

    def spy():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    with mock.patch.object(os, "fork", spy):
        yield pids


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def random_dataset(n, d, seed=5):
    rng = np.random.default_rng(seed)
    return Dataset(rng.standard_normal((n, d)), (rng.random(n) < 0.2).astype(float),
                   rng.random(n) + 0.5, [f"f{j}" for j in range(d)])


def test_cache_in_two_parts_matches_one_part(tmp_path):
    data = random_dataset(5000, 54)
    files, loads = [], []
    for parts in (1, 2):
        path = tmp_path / f"parts{parts}.csv"
        with mock.patch.object(data_module, "_usable_cpus", lambda: parts), \
                counting_forks() as forks:
            cache_dataset(data, path, tmp_path / f"parts{parts}.json")
            loads.append(load_cached_dataset(path))
        # one child writes and one reads, at the default SPLIT_MIN_CELLS
        assert len(forks) == (0 if parts == 1 or data_module._fork_would_warn() else 2)
        files.append(path.read_bytes())
    assert files[0] == files[1]
    assert same_bits(loads[0], loads[1]) and same_bits(loads[1], data)


def test_cache_calls_leave_no_child_and_no_temporary_file(tmp_path):
    """After a write whose child fails, a load, a load whose child fails and
    a malformed load, no child is left to reap and only the files written
    are in the directory; each call gives what one part gives."""
    n = 600
    data = random_dataset(n, 4)
    path, want, bad = tmp_path / "cached.csv", tmp_path / "want.csv", tmp_path / "bad.csv"
    reference_cache_csv(data, want)
    parent = os.getpid()
    write_rows, parse_rows = data_module._write_rows, data_module._parse_rows

    def write_failing_in_child(*args):
        if os.getpid() != parent:
            raise OSError("no space left on device")
        write_rows(*args)

    def parse_failing_in_child(lines):
        if os.getpid() != parent:
            raise RuntimeError("child failed")
        return parse_rows(lines)

    with in_parts(2), counting_forks() as forks:
        with mock.patch.object(data_module, "_write_rows", write_failing_in_child):
            cache_dataset(data, path, tmp_path / "cached.json")
        assert_no_child_left()
        assert path.read_bytes() == want.read_bytes()
        assert same_bits(load_cached_dataset(path), data)
        assert_no_child_left()
        with mock.patch.object(data_module, "_parse_rows", parse_failing_in_child):
            assert same_bits(load_cached_dataset(path), data)
        assert_no_child_left()
        lines = want.read_bytes().decode().split("\r\n")
        lines[n] = lines[n].rsplit(",", 1)[0] + ",abc"  # the last row, in the child's part
        bad.write_bytes("\r\n".join(lines).encode())
        with pytest.raises(DataError, match=f"line {n + 1}: could not convert"):
            load_cached_dataset(bad)
        assert_no_child_left()
    assert len(forks) == (0 if data_module._fork_would_warn() else 4)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "bad.csv", "cached.csv", "cached.json", "want.csv"]


def test_empty_dataset_caches_its_header_only(tmp_path):
    path = tmp_path / "cached.csv"
    cache_dataset(Dataset(np.empty((0, 2)), [], [], ["a", "b"]), path, tmp_path / "cached.json")
    assert path.read_bytes() == b"__label__,__weight__,a,b\r\n"
    with pytest.raises(DataError, match="no data rows"):
        load_cached_dataset(path)


def test_cached_part_of_another_width_is_refused(tmp_path):
    # the cut falls after the third row, so the child parses only the wide
    # row: its array is well formed but one cell wider than the caller's
    path = write_csv(tmp_path, CACHED_HEADER + CACHED_ROW * 3 + "1.0,1.0,0.5,2.0,1.5\n",
                     "cached.csv")
    with in_parts(2), pytest.raises(DataError, match="line 5: 5 cells"):
        load_cached_dataset(path)


@pytest.mark.parametrize("case", ["no fork", "one cpu", "few cells", "other threads"])
def test_cache_stays_in_process(tmp_path, monkeypatch, case):
    data = random_dataset(600, 4)  # 3600 cells with the label and weight
    # the reader estimates the cells from the length of the first row
    monkeypatch.setattr(data_module, "SPLIT_MIN_CELLS", 36_000 if case == "few cells" else 1)
    monkeypatch.setattr(data_module, "_usable_cpus", lambda: 1 if case == "one cpu" else 2)
    monkeypatch.setattr(data_module, "_fork_would_warn", lambda: case == "other threads")
    forks = []

    def refuse():
        forks.append(1)
        raise OSError("fork refused")

    if case == "no fork":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", refuse)
    cache_dataset(data, tmp_path / "cached.csv", tmp_path / "cached.json")
    loaded = load_cached_dataset(tmp_path / "cached.csv")
    assert forks == [] and same_bits(loaded, data)


def test_fork_would_warn_with_other_threads_from_python_3_12(monkeypatch):
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        monkeypatch.setattr(sys, "version_info", (3, 11, 0))
        assert not data_module._fork_would_warn()
        monkeypatch.setattr(sys, "version_info", (3, 12, 0))
        assert data_module._fork_would_warn()
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_prep_config_validation(tmp_path):
    with pytest.raises(DataError):
        make_config(positive_label="Same", negative_label="Same")
    with pytest.raises(DataError):
        make_config(split_cutoff="not a date")
    with pytest.raises(DataError):
        make_config(imputation="median")
