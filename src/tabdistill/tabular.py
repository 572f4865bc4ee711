"""Dataset representation: CSV ingestion, which infers the kind of every
column, feature transforms, constant-column pruning, deterministic splitting
and feature encoding.

Datasets are immutable after construction. Every operation returns a new
Dataset; a row is named by its position.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from tabdistill.errors import (
    DataError,
    SchemaMismatchError,
    require_choice,
    require_integer,
    require_number,
)

COLUMN_KINDS = ("bool", "int", "float", "categorical")

SCHEMA_FORMAT = "tabdistill.schema/v1"

# one-hot expansion keeps at most this many explicit categories per column;
# everything else lands in a shared "other" bucket
MAX_ONE_HOT = 64

# the feature transforms apply_transform knows
TRANSFORM_KINDS = ("standardize", "quantile")

_BOOL_TOKENS = {"true": True, "false": False, "True": True, "False": False,
                "TRUE": True, "FALSE": False}
# label cells after stripping: 0/1 or a bool token
_LABEL_TOKENS = {"0": 0, "1": 1, **{k: int(v) for k, v in _BOOL_TOKENS.items()}}

_DTYPES = {"bool": bool, "int": np.int64, "float": np.float64}


@dataclass(frozen=True)
class Column:
    """One column of a schema. ``categories`` maps dense integer codes back
    to the original strings and is present only for categorical columns."""

    name: str
    kind: str
    categories: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        require_choice(self.kind, f"column {self.name!r} kind", COLUMN_KINDS)
        if (self.kind == "categorical") != (self.categories is not None):
            raise DataError(f"column {self.name!r}: categories <=> kind categorical")


@dataclass(frozen=True)
class Schema:
    """Ordered column layout of a dataset, including the label column.

    Column order is stable and defines feature index order everywhere
    downstream.
    """

    columns: tuple[Column, ...]
    label_column: str

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise DataError("duplicate column names in schema")
        try:
            label = self.column(self.label_column)
        except KeyError:
            raise DataError(f"label column {self.label_column!r} not in schema") from None
        require_choice(label.kind, "label column kind", ("bool", "int"))

    def column(self, name: str) -> Column:
        for c in self.columns:
            if c.name == name:
                return c
        raise KeyError(name)

    @property
    def feature_columns(self) -> tuple[Column, ...]:
        return tuple(c for c in self.columns if c.name != self.label_column)

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.feature_columns)

    def to_json_dict(self) -> dict:
        return {
            "format": SCHEMA_FORMAT,
            "label_column": self.label_column,
            "columns": [
                {"name": c.name, "kind": c.kind,
                 **({"categories": list(c.categories)} if c.categories is not None else {})}
                for c in self.columns
            ],
        }


@dataclass(frozen=True)
class SplitSpec:
    """Train/valid fractions; the remainder is the test split."""

    train_fraction: float = 0.6
    valid_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "seed", require_integer(self.seed, "split seed"))
        for name in ("train_fraction", "valid_fraction"):
            require_number(getattr(self, name), name, 0, 1, "()")
        if self.train_fraction + self.valid_fraction >= 1.0:
            raise DataError("train_fraction + valid_fraction must be < 1")


@dataclass(frozen=True)
class Dataset:
    """Immutable typed table with a binary label column.

    Feature columns are stored as numpy arrays keyed by position in
    ``schema.feature_columns``: bool columns as bool arrays, int as int64,
    float as float64, categorical as int64 codes into ``Column.categories``.
    """

    schema: Schema
    feature_arrays: tuple[np.ndarray, ...]
    labels: np.ndarray

    def __post_init__(self):
        n = len(self.labels)
        if n < 1:
            raise DataError("dataset must contain at least one row")
        for col, arr in zip(self.schema.feature_columns, self.feature_arrays):
            if len(arr) != n:
                raise DataError(f"column {col.name!r} length mismatch")
        if not np.isin(self.labels, (0, 1)).all():
            raise DataError("labels must be 0 or 1")

    @property
    def n_rows(self) -> int:
        return len(self.labels)

    def take(self, indices: np.ndarray) -> "Dataset":
        """The rows at positions ``indices``, in that order."""
        idx = np.asarray(indices)
        return Dataset(self.schema, tuple(a[idx] for a in self.feature_arrays), self.labels[idx])


def _parse_column(kind: str, values: Sequence[str]) -> list:
    """Every cell of a column parsed as ``kind``; KeyError or ValueError when
    any cell does not parse."""
    if kind == "bool":
        return list(map(_BOOL_TOKENS.__getitem__, values))
    return list(map(int if kind == "int" else float, map(str.strip, values)))


def _infer_column(values: Sequence[str]) -> tuple[str, Optional[list]]:
    """The first of bool, int, float whose parser accepts every cell, with
    the parsed cells; categorical (and None) when none does."""
    for kind in ("bool", "int", "float"):
        try:
            return kind, _parse_column(kind, values)
        except (KeyError, ValueError):
            pass
    return "categorical", None


def _bad_cell(path: Path, name: str, kind: str, values: Sequence[str]) -> DataError:
    """The error for the first cell of a column that ``kind`` rejects: the
    column's own parser and cast, run on one cell at a time."""
    for row, raw in enumerate(values, 1):
        try:
            value = np.array(_parse_column(kind, [raw]), dtype=_DTYPES[kind])[0]
        except (KeyError, ValueError):
            problem = {"bool": "is not a boolean", "int": "is not an integer",
                       "float": "is not a number"}[kind]
        except OverflowError:
            problem = "is outside the int64 range"
        else:
            if not (kind == "float" and np.isnan(value)):
                continue
            problem = "parses as NaN, a missing value"
        return DataError(f"{path}: row {row}, column {name!r}: {raw!r} {problem}")


def ingest_csv(path: str | Path, label_column: str) -> Dataset:
    """Read an RFC-4180-style UTF-8 CSV (header mandatory) into a Dataset.
    A leading UTF-8 byte-order mark is skipped.

    Each feature column gets the first kind, tried in this order, whose
    parser accepts every cell:

    1. bool: the exact tokens true/false, True/False, TRUE/FALSE;
    2. int: Python ``int`` of the whitespace-stripped cell, so signs and
       ``1_000`` parse;
    3. float: Python ``float`` of the stripped cell, so ``1.0``, ``-2e3``
       and ``inf`` parse;
    4. categorical otherwise, with values interned to dense integer codes
       in order of first appearance.

    Labels are 0/1 or a bool token. Every error is a DataError naming the
    file; a file that cannot be read (missing, a directory, not UTF-8, a
    field past the csv module's limit) is reported as unreadable, a bad
    cell with its row and column. Besides labels that are not 0/1, these
    are errors: an integer outside the int64 range, a float cell that
    parses as NaN, and a blank cell in a column whose other cells all parse
    as bool, int or float (a column of blank cells only stays categorical).
    """
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            rows = list(reader)
    except (OSError, ValueError, csv.Error) as exc:  # also not UTF-8, a NUL in the path
        raise DataError(f"{path}: unreadable CSV: {exc}") from None
    if header is None:
        raise DataError(f"{path}: empty file")

    if label_column not in header:
        raise DataError(f"{path}: label column {label_column!r} not found "
                        f"(columns: {header})")
    if not rows:
        raise DataError(f"{path}: no data rows")
    width = len(header)
    if set(map(len, rows)) != {width}:
        for i, r in enumerate(rows):
            if len(r) != width:
                raise DataError(f"{path}: row {i + 1} has {len(r)} cells, expected {width}")

    by_name = dict(zip(header, zip(*rows)))
    del rows  # the column tuples hold the cells now

    raw_labels = by_name[label_column]
    try:
        labels = np.array(list(map(_LABEL_TOKENS.__getitem__, map(str.strip, raw_labels))),
                          dtype=np.int64)
    except KeyError:
        row, raw = next((i, v) for i, v in enumerate(raw_labels, 1)
                        if v.strip() not in _LABEL_TOKENS)
        raise DataError(f"{path}: row {row}, column {label_column!r}: "
                        f"label {raw!r} is not 0/1") from None

    columns: list[Column] = []
    arrays: list[np.ndarray] = []
    for name in header:
        if name == label_column:
            columns.append(Column(name, "int"))
            continue
        values = by_name[name]
        kind, parsed = _infer_column(values)
        if kind == "categorical":
            # a blank cell must not turn a bool or numeric column categorical;
            # the blank fails the kind of the other cells, so a bad cell is found
            nonblank = [v for v in values if v.strip()]
            if 0 < len(nonblank) < len(values):
                other = _infer_column(nonblank)[0]
                if other != "categorical":
                    raise _bad_cell(path, name, other, values)
            codes = {v: j for j, v in enumerate(dict.fromkeys(values))}
            arrays.append(np.array(list(map(codes.__getitem__, values)), dtype=np.int64))
            columns.append(Column(name, kind, tuple(codes)))
            continue
        try:
            arr = np.array(parsed, dtype=_DTYPES[kind])
        except OverflowError:
            raise _bad_cell(path, name, kind, values) from None
        if kind == "float" and np.isnan(arr).any():
            raise _bad_cell(path, name, kind, values)
        arrays.append(arr)
        columns.append(Column(name, kind))

    schema = Schema(tuple(columns), label_column)
    return Dataset(schema=schema, feature_arrays=tuple(arrays), labels=labels)


def remove_constant_columns(ds: Dataset) -> tuple[Dataset, list[str]]:
    """Drop every feature column with fewer than two distinct values.

    The label column is never removed; surviving column order is preserved.
    """
    removed: list[str] = []
    kept_arrays: list[np.ndarray] = []
    for col, arr in zip(ds.schema.feature_columns, ds.feature_arrays):
        if len(np.unique(arr)) < 2:
            removed.append(col.name)
        else:
            kept_arrays.append(arr)
    if not removed:
        return ds, []
    # removed holds feature names only, so the label column always survives
    schema = Schema(tuple(c for c in ds.schema.columns if c.name not in removed),
                    ds.schema.label_column)
    return Dataset(schema, tuple(kept_arrays), ds.labels), removed


def _midranks_against(fit_sorted: np.ndarray, values: np.ndarray) -> np.ndarray:
    # rank r = #(fit < v) + (#(fit == v) + 1) / 2, the mid-rank convention
    lo = np.searchsorted(fit_sorted, values, side="left")
    hi = np.searchsorted(fit_sorted, values, side="right")
    return lo + (hi - lo + 1) / 2.0


def apply_transform(ds: Dataset, kind: str, fit_rows: Sequence[int]) -> Dataset:
    """Transform all int/float feature columns, fitting statistics on the
    rows at positions ``fit_rows`` and applying them to every row.

    standardize: (x - mean) / std with population std, std=0 replaced by 1.
    quantile: mid-rank empirical CDF r / (n + 1) over the fit values,
    mapping every value into (0, 1).
    """
    require_choice(kind, "transform", TRANSFORM_KINDS)
    fit_rows = np.asarray(fit_rows, dtype=np.intp)
    if len(fit_rows) == 0 or fit_rows.min() < 0 or fit_rows.max() >= ds.n_rows:
        raise DataError(f"fit_rows must be a non-empty list of positions below {ds.n_rows}")

    arrays = iter(ds.feature_arrays)
    columns: list[Column] = []
    new_arrays: list[np.ndarray] = []
    for col in ds.schema.columns:
        if col.name == ds.schema.label_column:
            columns.append(col)
            continue
        arr = next(arrays)
        if col.kind in ("int", "float"):
            x = arr.astype(np.float64)
            fit = x[fit_rows]
            if kind == "standardize":
                mean = fit.mean()
                std = fit.std()  # population std
                if std == 0.0:
                    std = 1.0
                arr = (x - mean) / std
            else:
                fit_sorted = np.sort(fit)
                arr = _midranks_against(fit_sorted, x) / (len(fit_sorted) + 1)
            col = Column(col.name, "float")
        columns.append(col)
        new_arrays.append(arr)
    return Dataset(Schema(tuple(columns), ds.schema.label_column), tuple(new_arrays), ds.labels)


def split_indices(n: int, spec: SplitSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic positional (train, valid, test) partition of range(n)."""
    if n < 3:
        raise DataError("need at least 3 rows to split")
    n_train = int(round(n * spec.train_fraction))
    n_valid = int(round(n * spec.valid_fraction))
    n_test = n - n_train - n_valid
    if min(n_train, n_valid, n_test) < 1:
        raise DataError(f"split fractions produce an empty partition "
                        f"(sizes {n_train}/{n_valid}/{n_test})")
    perm = np.random.default_rng(spec.seed).permutation(n)
    return (np.sort(perm[:n_train]),
            np.sort(perm[n_train:n_train + n_valid]),
            np.sort(perm[n_train + n_valid:]))


def split(ds: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset, Dataset]:
    """Partition into (train, valid, test); exact and deterministic per seed."""
    tr, va, te = split_indices(ds.n_rows, spec)
    return ds.take(tr), ds.take(va), ds.take(te)


def _numeric(kinds: tuple[str, ...]) -> tuple[str, ...]:
    return tuple("float" if kind == "int" else kind for kind in kinds)


@dataclass(frozen=True)
class FeatureEncoder:
    """Maps a Dataset onto the float feature matrix learners consume.

    bool -> {0.0, 1.0}; int/float -> float64; categorical -> one-hot over
    the most frequent categories seen at fit time (capped at MAX_ONE_HOT)
    plus an "other" bucket for everything unseen or beyond the cap.
    Encoders are fit once on training data and stored with the model so
    train and inference rows share one layout.
    """

    column_names: tuple[str, ...]
    column_kinds: tuple[str, ...]
    # per categorical column: the category strings that get their own column
    kept_categories: dict[str, tuple[str, ...]] = field(default_factory=dict)

    @classmethod
    def fit(cls, ds: Dataset) -> "FeatureEncoder":
        if not ds.schema.feature_columns:
            raise DataError("dataset has no feature columns to encode")
        kept: dict[str, tuple[str, ...]] = {}
        for col, arr in zip(ds.schema.feature_columns, ds.feature_arrays):
            if col.kind != "categorical":
                continue
            counts = np.bincount(arr, minlength=len(col.categories))
            # most frequent first; ties by code order for determinism
            order = np.lexsort((np.arange(len(counts)), -counts))
            top = sorted(order[:MAX_ONE_HOT].tolist())
            kept[col.name] = tuple(col.categories[i] for i in top)
        return cls(
            column_names=ds.schema.feature_names,
            column_kinds=tuple(c.kind for c in ds.schema.feature_columns),
            kept_categories=kept,
        )

    def check_schema(self, ds: Dataset) -> None:
        """Rows need the fitted column names and kinds; int and float count as
        one numeric kind, since ``transform`` casts both to float64."""
        names = ds.schema.feature_names
        kinds = tuple(c.kind for c in ds.schema.feature_columns)
        if names != self.column_names or _numeric(kinds) != _numeric(self.column_kinds):
            raise SchemaMismatchError(
                f"rows have columns {list(zip(names, kinds))}, model expects "
                f"{list(zip(self.column_names, self.column_kinds))}")

    def transform(self, ds: Dataset) -> np.ndarray:
        """The float64 matrix, allocated once: each bool or numeric column is
        cast into its slot, each one-hot block set through a lookup table."""
        self.check_schema(ds)
        out = np.zeros((ds.n_rows, self.width))
        rows = np.arange(ds.n_rows)
        j = 0  # first output column of the current feature
        for col, arr in zip(ds.schema.feature_columns, ds.feature_arrays):
            if col.kind != "categorical":
                out[:, j] = arr
                j += 1
                continue
            kept = self.kept_categories[col.name]
            index = {cat: k for k, cat in enumerate(kept, j)}
            # output column of each of this dataset's category codes
            lut = np.array([index.get(cat, j + len(kept)) for cat in col.categories],
                           dtype=np.intp)
            out[rows, lut[arr]] = 1.0
            j += len(kept) + 1
        return out

    @property
    def width(self) -> int:
        """The number of matrix columns: one per bool or numeric column, and
        per categorical column one per kept category plus "other"."""
        return sum(len(self.kept_categories[name]) + 1 if kind == "categorical" else 1
                   for name, kind in zip(self.column_names, self.column_kinds))

    def to_json_dict(self) -> dict:
        return {
            "column_names": list(self.column_names),
            "column_kinds": list(self.column_kinds),
            "kept_categories": {k: list(v) for k, v in self.kept_categories.items()},
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "FeatureEncoder":
        """The encoder from its document; names, kinds and category lists that
        are not lists of strings or break the ``Column`` rules raise DataError."""
        names, kinds, kept = doc["column_names"], doc["column_kinds"], doc["kept_categories"]
        if not (_strings(names) and isinstance(kinds, list) and len(kinds) == len(names)
                and isinstance(kept, dict) and set(kept) <= set(names)
                and all(map(_strings, kept.values()))):
            raise DataError("encoder must hold one name and kind per column and "
                            "lists of category strings keyed by column name")
        for name, kind in zip(names, kinds):
            Column(name, kind, tuple(kept[name]) if name in kept else None)
        return cls(tuple(names), tuple(kinds), {k: tuple(v) for k, v in kept.items()})


def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)
