"""Tabular ingestion and preprocessing.

The pipeline mirrors standard credit-data preparation: keep only resolved
loan outcomes as the binary target, average the two FICO bound columns,
one-hot encode configured categoricals (with an explicit column for missing
values), impute numeric missing values with the train-split mean, and split
train/test on a date cutoff.

Every raw column is one numpy array, from ingest to ``prepare``: float64
with NaN for numeric columns, an object array of ``str`` and None for
categorical ones, and ``datetime64[D]`` with NaT for the date column.
Ingestion reads the raw CSV a chunk of rows at a time: numeric cells go
into one float array per column, and each text or date cell into the number
of its distinct cell, each distinct cell converted once.
``prepare`` takes each categorical column's levels and codes once and
writes every encoded column straight into preallocated train and test
matrices.
A prepared Dataset is cached as CSV: every cell is a float ``repr``, written
from ``tolist()`` rows a chunk at a time and read back bit for bit by
``np.loadtxt`` into one buffer, in which the features are then packed into a
contiguous X; a file that ``np.loadtxt`` cannot read is rescanned cell by
cell so that the DataError names the line at fault.
``cache_dataset`` and ``load_cached_dataset`` split a matrix of at least
``SPLIT_MIN_CELLS`` cells into one contiguous part of rows per usable CPU:
the calling process does the first part and a child made with ``os.fork``
each other part, at the same time. They stay in one process where
``os.fork`` does not exist, one CPU is usable, the matrix is smaller, or
other threads run under Python 3.12 or later. The bytes written and the
bits read are the same for any number of parts, and no setting chooses it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import numbers
import os
import secrets
import shutil
import signal
import stat
import sys
import threading
import typing
import warnings
from collections import Counter
from dataclasses import MISSING, asdict, dataclass, field, fields
from datetime import date, datetime

import numpy as np

from .errors import DataError

FICO_HIGH = "fico_range_high"
FICO_LOW = "fico_range_low"
# The merged column keeps the high-bound name; encoded rankings use it.
FICO_MERGED = "fico_range_high"
MISSING_CATEGORY = "nan"
# Leading columns of a cached dataset CSV, before the features.
CACHE_COLUMNS = ["__label__", "__weight__"]
# Rows per block that cache_dataset converts to Python floats at a time.
CACHE_CHUNK_ROWS = 256
# Rows ingest_csv holds as strings at a time.
INGEST_CHUNK_ROWS = 256
# Cells from which cache_dataset and load_cached_dataset split a matrix's
# rows across CPUs. A fork and its reaping cost about 1.2 ms in a 60 MB
# process, what writing 2000 cells or reading 5000 saves on a second core.
SPLIT_MIN_CELLS = 50_000


@dataclass
class PrepConfig:
    target: str
    positive_label: str
    negative_label: str
    date_column: str
    split_cutoff: str  # last date (inclusive) that belongs to the train split
    categorical: list[str] = field(default_factory=list)
    imputation: str = "mean"
    engineer_fico: bool = True

    def __post_init__(self):
        if self.positive_label == self.negative_label:
            raise DataError("positive and negative labels must be distinct")
        self.cutoff_date = parse_date(self.split_cutoff)
        if self.cutoff_date is None:
            raise DataError(f"unparseable split cutoff {self.split_cutoff!r}")
        if self.imputation != "mean":
            raise DataError(f"unsupported imputation strategy {self.imputation!r}")

    @classmethod
    def from_json_file(cls, path) -> "PrepConfig":
        """The prep config in the JSON file at ``path``. DataError, naming
        the key, for an unknown key, a missing required key or a value of
        another type than the field's."""
        obj = read_json(path)
        hints = typing.get_type_hints(cls)
        check_config("prep", obj, {name: typing.get_origin(t) or t for name, t in hints.items()})
        for f in fields(cls):
            if f.name not in obj and f.default is MISSING and f.default_factory is MISSING:
                raise DataError(f"prep config lacks key {f.name!r}")
        if not all(isinstance(c, str) for c in obj.get("categorical", [])):
            raise DataError(f"prep config key 'categorical' must list str, got {obj['categorical']!r}")
        return cls(**obj)

    def as_dict(self) -> dict:
        return asdict(self)


def check_keys(what: str, overrides, keys) -> None:
    if not isinstance(overrides, dict):
        raise DataError(f"{what} config must be an object, got {overrides!r}")
    for key in overrides:
        if key not in keys:
            raise DataError(f"{what} config has unknown key {key!r}; options: {', '.join(keys)}")


# the values a config field of each default's type takes (bools aside)
_ACCEPTS = {int: numbers.Integral, float: numbers.Real, bool: bool, str: str, list: list,
            dict: dict}


def check_config(what: str, overrides, types: dict) -> None:
    """DataError unless ``overrides`` is an object whose every key is in
    ``types`` (key -> the type of its default) and whose every value has its
    key's type: an int takes ints but not bools, a float ints or floats, a
    bool bools, a str strings, a list lists and a dict dicts."""
    check_keys(what, overrides, types)
    for key, value in overrides.items():
        want = types[key]
        if not isinstance(value, _ACCEPTS[want]) or (want is not bool and isinstance(value, bool)):
            raise DataError(f"{what} config key {key!r} must be {want.__name__}, got {value!r}")


def _not_utf8(path, exc: UnicodeDecodeError, error=DataError) -> Exception:
    """The error for a file that is not UTF-8 text."""
    return error(f"{path}: not UTF-8 text ({exc.reason})")


def read_json(path, error=DataError):
    """The JSON value in the UTF-8 file at ``path``; ``error`` naming the
    file when it is not UTF-8 text or not JSON."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc, error) from None
    except json.JSONDecodeError as exc:
        raise error(f"{path}: not valid JSON: {exc}") from None


def parse_date(text: str) -> date | None:
    """Accepts ISO-8601 (YYYY-MM-DD or YYYY-MM) and 'Mon-YYYY'."""
    text = text.strip()
    if not text:
        return None
    try:
        return date.fromisoformat(text)
    except ValueError:
        pass
    for fmt in ("%Y-%m", "%b-%Y"):
        try:
            return datetime.strptime(text, fmt).date()
        except ValueError:
            continue
    return None


class RawTable:
    """Column-typed table of one numpy array per column: numeric columns
    are float64 with NaN for missing, categorical columns object arrays of
    ``str`` with None for missing, and the date column is ``datetime64[D]``
    with NaT for missing."""

    def __init__(self, names: list[str], columns: dict):
        if len(set(names)) != len(names):
            raise DataError("column names must be unique")
        lengths = {len(columns[n][1]) for n in names}
        if len(lengths) > 1:
            raise DataError("all columns must have equal length")
        self.names = list(names)
        self.columns = columns
        self.n_rows = lengths.pop() if lengths else 0

    def kind(self, name: str) -> str:
        return self.columns[name][0]

    def values(self, name: str) -> np.ndarray:
        return self.columns[name][1]

    def select_rows(self, mask) -> "RawTable":
        return RawTable(self.names, {n: (self.kind(n), self.values(n)[mask]) for n in self.names})


@dataclass
class Dataset:
    """Model-ready matrix: no missing values, binary labels, positive weights."""

    X: np.ndarray
    y: np.ndarray
    w: np.ndarray
    feature_names: list[str]

    def __post_init__(self):
        self.X = np.ascontiguousarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64)
        self.w = np.asarray(self.w, dtype=np.float64)
        if self.X.ndim != 2:
            raise DataError("X must be 2-D")
        n, d = self.X.shape
        if self.y.shape != (n,) or self.w.shape != (n,):
            raise DataError("y and w must match the number of rows")
        if d != len(self.feature_names):
            raise DataError("feature_names length must match X columns")
        duplicates = sorted(n for n, c in Counter(self.feature_names).items() if c > 1)
        if duplicates:
            raise DataError(f"duplicate feature names: {duplicates}")
        if not np.isfinite(self.X).all():
            raise DataError("X contains missing or infinite values")
        if not np.isin(self.y, (0.0, 1.0)).all():
            raise DataError("labels must be 0/1")
        if not (self.w > 0).all():
            raise DataError("sample weights must be positive")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def select_features(self, names: list[str]) -> "Dataset":
        """Column subset; selected columns keep their original order.
        Selecting every column shares X rather than copying it."""
        index = {n: i for i, n in enumerate(self.feature_names)}
        missing = [n for n in names if n not in index]
        if missing:
            raise DataError(f"unknown features: {missing}")
        idx = sorted(index[n] for n in names)
        return Dataset(
            X=self.X if idx == list(range(self.d)) else self.X[:, idx],
            y=self.y.copy(),
            w=self.w.copy(),
            feature_names=[self.feature_names[i] for i in idx],
        )

    def with_weights(self, w) -> "Dataset":
        """The same rows under weights ``w``; X and y are shared, not
        copied (nothing writes into a Dataset's arrays)."""
        return Dataset(self.X, self.y, np.asarray(w, float), list(self.feature_names))


def ingest_csv(path, config: PrepConfig) -> RawTable:
    """Read an RFC-4180 CSV with a header row and infer column types.

    A column is numeric when every non-empty cell parses as a float; the
    configured date column is parsed as dates; everything else is
    categorical text. Empty cells are missing.

    The rows are read ``INGEST_CHUNK_ROWS`` at a time, so the file never
    exists in memory as strings: numeric cells go straight into one float
    array per column, and each text or date cell becomes the number of its
    distinct cell, each distinct cell converted once. A column that stops
    parsing as float after its first chunk is read again, alone, in a
    second pass over the file.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file") from None
            if len(set(header)) != len(header):
                raise DataError("duplicate column names in header")
            for needed in (config.target, config.date_column):
                if needed and needed not in header:
                    raise DataError(f"missing column {needed!r}")
            cols = [_CellColumn(name) if name == config.date_column else _NumericColumn()
                    for name in header]
            for chunk in _row_chunks(reader, len(header)):
                for i, cells in enumerate(zip(*chunk)):
                    if cols[i] is None or cols[i].add(cells):
                        continue
                    if cols[i].n:  # text after floats: read the column again
                        cols[i] = None
                    else:
                        cols[i] = _CellColumn()
                        cols[i].add(cells)
        reread = [i for i, col in enumerate(cols) if col is None]
        if reread:
            with open(path, newline="", encoding="utf-8") as fh:
                reader = csv.reader(fh)
                next(reader)
                for i in reread:
                    cols[i] = _CellColumn()
                for chunk in _row_chunks(reader, len(header)):
                    for i in reread:
                        cols[i].add([row[i] for row in chunk])
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None
    return RawTable(header, {name: col.result() for name, col in zip(header, cols)})


def _row_chunks(reader, width: int):
    """The rows of ``reader`` in lists of up to ``INGEST_CHUNK_ROWS``.
    DataError at a chunk holding a row of another width than ``width``."""
    while chunk := list(itertools.islice(reader, INGEST_CHUNK_ROWS)):
        if set(map(len, chunk)) != {width}:
            raise DataError("ragged CSV row")
        yield chunk


class _NumericColumn:
    """A column read as floats into one array that grows in place; blank
    cells are NaN."""

    def __init__(self):
        self.values = np.empty(0)
        self.n = 0
        self.observed = False  # a non-blank cell was seen

    def add(self, cells) -> bool:
        """Append the chunk's floats; False, appending nothing, when a
        cell does not parse."""
        try:
            floats = [float(c) if c.strip() else math.nan for c in cells]
        except ValueError:
            return False
        end = self.n + len(floats)
        if end > self.values.size:
            # by a quarter, as np.loadtxt grows its result; no view of the
            # array exists, so realloc may move it
            self.values.resize(max(end, self.values.size * 5 // 4), refcheck=False)
        self.values[self.n:end] = floats
        self.n = end
        self.observed = self.observed or any(map(str.strip, cells))
        return True

    def result(self):
        if not self.observed:  # every cell blank (or no rows): categorical
            return ("categorical", np.full(self.n, None, dtype=object))
        self.values.resize(self.n, refcheck=False)
        return ("numeric", self.values)


class _CellColumn:
    """A text column, or the date column named ``date_column``: each row
    keeps the number of its distinct cell, and each distinct cell is
    converted once, in the order cells are first seen, to itself or to a
    date, a blank cell to None. The first cell, in row order, that is
    neither blank nor a date is named when the column is taken, so that a
    ragged row anywhere in the file is reported first."""

    def __init__(self, date_column: str | None = None):
        self.date_column = date_column
        self.codes = []  # per row, the number of its distinct cell
        self._index = {}  # distinct cell -> its number, in the order first seen

    def add(self, cells) -> bool:
        index = self._index
        for cell in dict.fromkeys(cells):
            index.setdefault(cell, len(index))
        self.codes.extend(map(index.__getitem__, cells))
        return True

    def result(self):
        cells = list(self._index)
        if self.date_column is None:
            distinct = np.array([c if c.strip() else None for c in cells], dtype=object)
            return ("categorical", distinct[self.codes])
        days = [parse_date(c) for c in cells]
        for cell, day in zip(cells, days):
            if day is None and cell.strip():
                raise DataError(f"unparseable date {cell!r} in column {self.date_column!r}")
        return ("date", np.array(days, dtype="datetime64[D]")[self.codes])


def encode_target(table: RawTable, config: PrepConfig) -> RawTable:
    """Keep only rows whose target is one of the two configured outcomes and
    recode it to 0/1 (negative -> 0, positive -> 1)."""
    if config.target not in table.names:
        raise DataError(f"missing column {config.target!r}")
    kind, vals = table.columns[config.target]
    if kind != "categorical":
        raise DataError("target column must be categorical before encoding")
    positive = vals == config.positive_label
    keep = positive | (vals == config.negative_label)
    if not keep.any():
        raise DataError("no rows with a recognized target label remain")
    table = table.select_rows(keep)
    table.columns[config.target] = ("numeric", positive[keep].astype(float))
    return table


def engineer_fico(table: RawTable) -> RawTable:
    """Replace the two FICO bound columns with their element-wise mean."""
    if FICO_HIGH not in table.names or FICO_LOW not in table.names:
        warnings.warn("fico columns absent; skipping fico averaging", stacklevel=2)
        return table
    if table.kind(FICO_HIGH) != "numeric" or table.kind(FICO_LOW) != "numeric":
        raise DataError("fico columns must be numeric")
    merged = 0.5 * (table.values(FICO_HIGH) + table.values(FICO_LOW))
    names = [n for n in table.names if n not in (FICO_HIGH, FICO_LOW)]
    columns = {n: table.columns[n] for n in names}
    names.append(FICO_MERGED)
    columns[FICO_MERGED] = ("numeric", merged)
    return RawTable(names, columns)


def read_raw_csv(path, config: PrepConfig) -> RawTable:
    """A raw CSV as ``prepare`` takes it: ingested, the target encoded, and
    the FICO bounds averaged when ``config.engineer_fico`` is set."""
    table = encode_target(ingest_csv(path, config), config)
    return engineer_fico(table) if config.engineer_fico else table


def prepare(table: RawTable, config: PrepConfig, return_stats: bool = False):
    """One-hot encode, impute with train means, and split on the date cutoff.

    Returns (train, test) Datasets with unit weights; pass
    ``return_stats=True`` to also get the imputation means and column layout
    for caching/reproducibility.
    """
    if config.target not in table.names or table.kind(config.target) != "numeric":
        raise DataError("target must be present and encoded before prepare")
    if config.date_column not in table.names:
        raise DataError("date column required for the temporal split")

    table = table.select_rows(~np.isnat(table.values(config.date_column)))
    in_train = table.values(config.date_column) <= np.datetime64(config.cutoff_date)
    if not in_train.any():
        raise DataError("empty train split")
    if in_train.all():
        raise DataError("empty test split")

    feature_cols = [
        n for n in table.names if n not in (config.target, config.date_column)
    ]
    names: list[str] = []
    # per feature column: its values, or its category codes and level count
    sources: list[tuple[np.ndarray, int | None]] = []
    impute_means: dict[str, float] = {}
    for name in feature_cols:
        kind, vals = table.columns[name]
        if name in config.categorical:
            if kind == "numeric":
                vals = np.array([repr(v) if not math.isnan(v) else None for v in vals.tolist()],
                                dtype=object)
            levels, codes = np.unique(np.where(np.equal(vals, None), MISSING_CATEGORY, vals),
                                      return_inverse=True)
            names += [f"{name}_{level}" for level in levels]
            sources.append((codes, len(levels)))
        elif kind == "numeric":
            nan_mask = np.isnan(vals)
            if nan_mask.any():
                train_vals = vals[in_train & ~nan_mask]
                if train_vals.size == 0:
                    raise DataError(f"column {name!r} has no observed train values")
                mean = float(train_vals.mean())
                vals = np.where(nan_mask, mean, vals)
                impute_means[name] = mean
            names.append(name)
            sources.append((vals, None))
        else:
            raise DataError(
                f"categorical column {name!r} not listed in config.categorical"
            )

    y = table.values(config.target)
    splits = []
    for rows in (in_train, ~in_train):
        X = np.empty((np.count_nonzero(rows), len(names)))
        j = 0
        for vals, n_levels in sources:
            if n_levels is None:
                X[:, j] = vals[rows]
                j += 1
            else:  # the column's one-hot block, from its codes gathered once
                X[:, j:j + n_levels] = vals[rows][:, None] == np.arange(n_levels)
                j += n_levels
        splits.append(Dataset(X=X, y=y[rows], w=np.ones(len(X)), feature_names=list(names)))
    train, test = splits
    if return_stats:
        stats = {
            "imputation_means": impute_means,
            "split_cutoff": config.split_cutoff,
            "feature_names": list(names),
            "n_train": train.n,
            "n_test": test.n,
        }
        return train, test, stats
    return train, test


def class_weights(y) -> tuple[float, float]:
    """Balanced weights n/(2*n_c); total weighted mass stays n."""
    y = np.asarray(y)
    n = y.size
    n_pos = int((y == 1).sum())
    n_neg = n - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("class weights need both classes present")
    return n / (2.0 * n_neg), n / (2.0 * n_pos)


def apply_class_weights(data: Dataset) -> Dataset:
    w_neg, w_pos = class_weights(data.y)
    return data.with_weights(np.where(data.y == 1.0, w_pos, w_neg))


def standardize(train: Dataset, test: Dataset):
    """Z-score both splits with train statistics (population std).

    Zero-variance columns map to all-zeros. Returns
    (train', test', means, stds).
    """
    means = train.X.mean(axis=0)
    stds = train.X.std(axis=0)  # population (1/n)

    def transform(data: Dataset) -> Dataset:
        return Dataset(zscore(data.X, means, stds), data.y.copy(), data.w.copy(),
                       list(data.feature_names))

    return transform(train), transform(test), means, stds


def check_matrix(X, width: int) -> np.ndarray:
    """``X`` as a 2-D float array of ``width`` finite columns (a single row
    may be 1-D); DataError otherwise. Every model kind scores through this."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.ndim != 2 or X.shape[1] != width:
        raise DataError(f"expected {width} features, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise DataError("X contains missing or infinite values")
    return X


def zscore(X, means, stds) -> np.ndarray:
    """(X - means) / stds per column; zero-variance columns map to zeros."""
    Z = X - means
    nonzero = stds > 0
    Z[:, nonzero] /= stds[nonzero]
    Z[:, ~nonzero] = 0.0
    return Z


@contextlib.contextmanager
def write_atomic(path):
    """Open ``path`` for writing text so that it is replaced only once the
    ``with`` block completes. The block writes, as a stream, to a temporary
    file in the same directory, which ``os.replace`` then moves over
    ``path``; a block that fails midway leaves any old file at ``path`` as
    it was and no partial or temporary file behind. A path that exists but
    is not a regular file, such as the /dev/stdout link, cannot be renamed
    over and is written in place. Newlines are written as given."""
    path = os.fspath(path)
    if os.path.lexists(path) and not stat.S_ISREG(os.lstat(path).st_mode):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
        return
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def cache_dataset(data: Dataset, csv_path, manifest_path, stats=None):
    """Write a prepared Dataset as CSV plus a sidecar JSON manifest.

    Each cell is the ``repr`` of a Python float, the shortest string that
    reads back to the same bits, and rows end in ``csv.writer``'s "\\r\\n".
    A float's repr never needs CSV quoting, so only the header goes through
    ``csv.writer``; the rows are joined directly, a chunk at a time, and
    split across CPUs as the module docstring says."""
    with write_atomic(csv_path) as fh:
        csv.writer(fh).writerow(self_cols := (CACHE_COLUMNS + data.feature_names))
        _write_cached_rows(fh, data)
    manifest = {
        "columns": self_cols,
        "column_types": ["numeric"] * len(self_cols),
        "n_rows": data.n,
    }
    if stats:
        manifest.update(stats)
    with write_atomic(manifest_path) as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)


def _write_rows(fh, data: Dataset, start: int, stop: int) -> None:
    """Write rows [start, stop) of ``data`` as cached CSV rows,
    ``CACHE_CHUNK_ROWS`` rows at a time."""
    for first in range(start, stop, CACHE_CHUNK_ROWS):
        rows = slice(first, min(first + CACHE_CHUNK_ROWS, stop))
        block = np.column_stack([data.y[rows], data.w[rows], data.X[rows]])
        fh.writelines(",".join(map(repr, row)) + "\r\n" for row in block.tolist())


def _write_cached_rows(fh, data: Dataset) -> None:
    """Write the rows of ``data`` to the text file ``fh`` after its header,
    in parts (``_in_parts``) when ``fh`` is a regular file: a child writes
    its rows to a sibling temporary file, which the caller appends after
    its own rows and removes, or, if the child failed, writes those rows
    itself. A pipe would stall the child once 64 KB wait in it."""
    regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
    bounds = []

    def cut(k):
        k = max(1, min(k, data.n))
        bounds[:] = [data.n * i // k for i in range(k + 1)]
        return bounds

    def work(start, stop, fd):
        if fd is None:
            _write_rows(fh, data, start, stop)
            return
        with open(f"{fh.name}.{start}", "x", encoding="utf-8", newline="") as part:
            _write_rows(part, data, start, stop)

    def merge(_, start, stop, fd, exited_ok):
        if not exited_ok():
            _write_rows(fh, data, start, stop)
            return
        fh.flush()
        with open(f"{fh.name}.{start}", "rb") as part:
            shutil.copyfileobj(part, fh.buffer)

    try:
        _in_parts(data.n * (data.d + 2) if regular else 0, cut, work, merge)
    finally:
        for start in bounds[1:-1]:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(f"{fh.name}.{start}")


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _fork_would_warn() -> bool:
    """Whether ``os.fork`` would warn that other threads run, as CPython
    3.12 and later do: a lock another thread holds stays locked in the
    child. Like CPython, this counts the process's threads on Linux and
    ``threading``'s elsewhere."""
    if sys.version_info < (3, 12):
        return False
    try:
        return len(os.listdir("/proc/self/task")) > 1
    except OSError:
        return threading.active_count() > 1


def _in_parts(cells: int, cut, work, merge):
    """Do ``work`` on a matrix's data rows in one contiguous part per
    usable CPU: the calling process does the first part and a child made
    with ``os.fork`` does each other part, at the same time.

    ``cut(k)`` gives the k + 1 bounds of k parts, or fewer bounds where the
    data has too few rows. ``work(start, stop, fd)`` does one part and
    returns the caller's result; ``fd`` is None in the caller and, in a
    child, the write end of a pipe to the caller. A child ends with
    ``os._exit``, status 0 once ``work`` returned and 1 if it raised, so it
    never returns into the caller's code or runs interpreter shutdown.
    After its own part, the caller takes each child's part in order through
    ``merge(result, start, stop, fd, exited_ok)``, which gets the read end
    of the child's pipe and ``exited_ok()``, which waits for the child and
    tells whether it exited with 0 (False for a child that could not be
    forked), and returns the new result. Every child is reaped before the
    call returns or raises; one still running then is killed.

    The work stays in the calling process, as one ``work`` call over
    ``cut(1)``, where ``os.fork`` does not exist, one CPU is usable, the
    matrix has fewer than ``SPLIT_MIN_CELLS`` cells or the fork would warn
    of other threads.
    """
    split = cells >= SPLIT_MIN_CELLS and hasattr(os, "fork") and not _fork_would_warn()
    bounds = cut(_usable_cpus() if split else 1)
    children = []  # [pid, or None once reaped or not forked; read end of its pipe]
    try:
        for start, stop in zip(bounds[1:-1], bounds[2:]):
            read_end, write_end = os.pipe()
            children.append([None, read_end])
            try:
                pid = os.fork()
            except OSError:  # merged as a failed child's part
                pid = None
            if pid == 0:
                status = 1
                try:
                    work(start, stop, write_end)
                    status = 0
                finally:
                    os._exit(status)
            children[-1][0] = pid
            os.close(write_end)
        result = work(bounds[0], bounds[1], None)
        for child, start, stop in zip(children, bounds[1:-1], bounds[2:]):

            def exited_ok(child=child):
                if child[0] is None:
                    return False
                status = os.waitpid(child[0], 0)[1]
                child[0] = None
                return os.waitstatus_to_exitcode(status) == 0

            result = merge(result, start, stop, child[1], exited_ok)
        return result
    finally:
        for pid, read_end in children:
            os.close(read_end)
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def load_cached_dataset(csv_path) -> Dataset:
    """Read a Dataset written by ``cache_dataset``. DataError when the file
    is empty, has no rows, lacks the leading label and weight columns, or
    holds a non-numeric cell, a blank line or a row of another width than
    the header.

    The header is read by ``csv.reader``, so quoted feature names parse; the
    rows by ``np.loadtxt``, which reads every float ``cache_dataset`` writes
    to the bits ``float`` gives. Any file ``np.loadtxt`` cannot read is read
    again cell by cell with ``csv.reader`` and ``float``, which names the
    line at fault or, for cells only ``float`` accepts (quoted numbers,
    digit separators), gives the same numbers. The rows are parsed in parts
    across CPUs as the module docstring says; anything unexpected in a part
    sends the whole file through the cell-by-cell reading."""
    with open(csv_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = _cached_header(csv_path, reader)
        try:
            arr = _load_rows(csv_path, fh, reader.line_num, len(header))
        except ValueError:
            arr = None
        if arr is None or arr.shape[1] != len(header):
            fh.seek(0)
            arr = _read_cached_rows(csv_path, fh)
    y, w = arr[:, 0].copy(), arr[:, 1].copy()
    return Dataset(X=_pack_features(arr), y=y, w=w, feature_names=header[2:])


def _load_rows(csv_path, fh, header_lines: int, width: int) -> np.ndarray:
    """``np.loadtxt``'s array of the lines of ``fh`` after the header's
    ``header_lines`` lines (``csv.reader``'s count: a quoted name can hold
    a newline). In parts (``_in_parts``) when ``fh`` is a regular file: the
    data is cut just after a newline, each part parses its own byte range,
    and a child sends its array's shape and bytes through its pipe into the
    caller's array, grown in place. ValueError where a part does, where a
    child's array has another width than the caller's, and where a child
    fails."""
    fd = fh.fileno()
    info = os.fstat(fd)
    start = size = cells = 0
    if stat.S_ISREG(info.st_mode):
        fh.seek(0)
        start = sum(len(line.encode()) for line in itertools.islice(fh, header_lines))
        size = info.st_size
        first_row = _line_end(fd, start, size) - start
        # as many rows as the first row's length divides into the data
        cells = (size - start) * width // first_row if first_row else 0

    def cut(k):
        bounds = [start]
        for i in range(1, k):
            end = _line_end(fd, max(bounds[-1], start + (size - start) * i // k), size)
            if end < size:
                bounds.append(end)
        return bounds + [size]

    def work(begin, end, pipe):
        if pipe is None:
            return _parse_rows(fh if end == size else _lines_within(fh, end - begin))
        with open(csv_path, "rb") as raw:
            raw.seek(begin)
            with io.TextIOWrapper(raw, encoding="utf-8", newline="") as part:
                arr = _parse_rows(_lines_within(part, end - begin))
        with open(pipe, "wb") as out:
            out.write(np.array(arr.shape, dtype=np.int64).tobytes())
            out.write(arr)

    def merge(arr, begin, end, pipe, exited_ok):
        shape = np.empty(2, dtype=np.int64)
        _read_into(pipe, shape)
        if shape[1] != arr.shape[1]:
            raise ValueError("parts of different widths")
        n = arr.shape[0]
        arr.resize((n + shape[0], arr.shape[1]), refcheck=False)
        _read_into(pipe, arr[n:])
        if not exited_ok():
            raise ValueError("a part failed")
        return arr

    return _in_parts(cells, cut, work, merge)


def _parse_rows(lines) -> np.ndarray:
    return np.loadtxt(_data_lines(lines), delimiter=",", dtype=float, ndmin=2, comments=None)


def _line_end(fd: int, pos: int, size: int) -> int:
    """The offset just after the first newline at or after ``pos`` in the
    file ``fd`` of ``size`` bytes, or ``size`` where there is none."""
    while pos < size:
        block = os.pread(fd, 1 << 16, pos)
        if not block:
            break
        found = block.find(b"\n")
        if found >= 0:
            return pos + found + 1
        pos += len(block)
    return size


def _lines_within(fh, n_bytes: int):
    """The lines of the text file ``fh`` that its next ``n_bytes`` bytes of
    UTF-8 hold."""
    for line in fh:
        yield line
        n_bytes -= len(line.encode())
        if n_bytes <= 0:
            return


def _read_into(fd: int, out: np.ndarray) -> None:
    """Fill the contiguous ``out`` from ``fd``. ValueError at end of file
    before it is full."""
    view = memoryview(out).cast("B")
    while view:
        got = os.readv(fd, [view])
        if not got:
            raise ValueError("a part ended early")
        view = view[got:]


def _pack_features(arr: np.ndarray) -> np.ndarray:
    """The columns after the label and weight of the C-ordered ``arr``, as
    a contiguous view of its buffer: each row's features are moved to the
    front, ``CACHE_CHUNK_ROWS`` rows at a time, overwriting ``arr``."""
    n, d = arr.shape[0], arr.shape[1] - 2
    flat = arr.reshape(-1)
    for start in range(0, n, CACHE_CHUNK_ROWS):
        stop = min(start + CACHE_CHUNK_ROWS, n)
        # numpy copies a block through a temporary where it overlaps its target
        flat[start * d:stop * d].reshape(stop - start, d)[...] = arr[start:stop, 2:]
    return flat[:n * d].reshape(n, d)


def _bad_line(csv_path, reader, exc) -> DataError:
    """DataError naming the line ``reader`` is at, or the file where it is
    not UTF-8 text: text is decoded ahead of the line being read."""
    if isinstance(exc, UnicodeDecodeError):
        return _not_utf8(csv_path, exc)
    return DataError(f"{csv_path}, line {reader.line_num}: {exc}")


def _cached_header(csv_path, reader) -> list[str]:
    try:
        header = next(reader, None)
    except (ValueError, csv.Error) as exc:
        raise _bad_line(csv_path, reader, exc) from None
    if header is None:
        raise DataError(f"{csv_path}: empty file")
    if header[:2] != CACHE_COLUMNS:
        raise DataError(
            f"{csv_path}: not a cached dataset: the header must start with "
            + ",".join(CACHE_COLUMNS)
        )
    return header


def _data_lines(fh):
    """The remaining lines of ``fh`` for ``np.loadtxt``. ValueError at a
    blank line, which ``np.loadtxt`` would skip, and when there is none."""
    line = None
    for line in fh:
        if line.isspace():
            raise ValueError("blank line")
        yield line
    if line is None:
        raise ValueError("no data rows")


def _read_cached_rows(csv_path, fh) -> np.ndarray:
    """The rows of a cached dataset, parsed cell by cell with ``float``.
    DataError names the line of the first cell ``float`` rejects or, failing
    that, of the first row whose width differs from the header's."""
    reader = csv.reader(fh)
    header = _cached_header(csv_path, reader)
    first_row_line = reader.line_num + 1
    try:
        rows = [list(map(float, row)) for row in reader]
    except (ValueError, csv.Error) as exc:
        raise _bad_line(csv_path, reader, exc) from None
    if not rows:
        raise DataError(f"{csv_path}: no data rows")
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise DataError(
                f"{csv_path}, line {first_row_line + i}: {len(row)} cells, "
                f"the header has {len(header)}"
            )
    return np.array(rows, dtype=float)
