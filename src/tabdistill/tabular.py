"""Dataset representation: CSV ingestion, schema inference, feature
transforms, constant-column pruning, deterministic splitting and feature
encoding.

Datasets are immutable after construction. Every operation returns a new
Dataset; row ids are assigned at ingestion and preserved through filtering
and splitting so dropped rows stay traceable.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from tabdistill.errors import DataError, SchemaMismatchError, SerializationError

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

_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)
_DTYPES = {"bool": bool, "int": np.int64, "float": np.float64}


@dataclass(frozen=True)
class Column:
    """One column of a schema. ``categories`` maps dense integer codes back
    to the original strings and is present only for categorical columns."""

    name: str
    kind: str
    categories: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        if self.kind not in COLUMN_KINDS:
            raise DataError(f"unknown column kind {self.kind!r} for {self.name!r}")
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
        if label.kind not in ("bool", "int"):
            raise DataError("label column must be of kind bool or int")

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

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Schema":
        if doc.get("format") != SCHEMA_FORMAT:
            raise SerializationError(f"unknown schema format {doc.get('format')!r}")
        cols = tuple(
            Column(d["name"], d["kind"],
                   tuple(d["categories"]) if "categories" in d else None)
            for d in doc["columns"]
        )
        return cls(cols, doc["label_column"])


@dataclass(frozen=True)
class SplitSpec:
    """Train/valid fractions; the remainder is the test split."""

    train_fraction: float
    valid_fraction: float
    seed: int

    def __post_init__(self):
        if not (0.0 < self.train_fraction < 1.0 and 0.0 < self.valid_fraction < 1.0):
            raise DataError("split fractions must lie in (0, 1)")
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
    row_ids: np.ndarray

    def __post_init__(self):
        n = len(self.labels)
        if n < 1:
            raise DataError("dataset must contain at least one row")
        for col, arr in zip(self.schema.feature_columns, self.feature_arrays):
            if len(arr) != n:
                raise DataError(f"column {col.name!r} length mismatch")
        if len(self.row_ids) != n:
            raise DataError("row_ids length mismatch")
        ids = np.sort(self.row_ids)
        if (ids[1:] == ids[:-1]).any():
            raise DataError("row_ids must be unique")
        if not np.isin(self.labels, (0, 1)).all():
            raise DataError("labels must be 0 or 1")

    @property
    def n_rows(self) -> int:
        return len(self.labels)

    @property
    def n_features(self) -> int:
        return len(self.feature_arrays)

    def column_values(self, name: str) -> np.ndarray:
        for col, arr in zip(self.schema.feature_columns, self.feature_arrays):
            if col.name == name:
                return arr
        raise KeyError(name)

    def take(self, indices: np.ndarray) -> "Dataset":
        """Positional row selection; row ids travel with their rows."""
        idx = np.asarray(indices)
        return Dataset(
            schema=self.schema,
            feature_arrays=tuple(a[idx] for a in self.feature_arrays),
            labels=self.labels[idx],
            row_ids=self.row_ids[idx],
        )

    def with_schema(self, schema: Schema, feature_arrays: tuple[np.ndarray, ...]) -> "Dataset":
        return Dataset(schema=schema, feature_arrays=feature_arrays,
                       labels=self.labels, row_ids=self.row_ids)


def _parse_column(kind: str, values: Sequence[str]) -> list:
    """Every cell of a column parsed as ``kind`` with the same rules as the
    per-cell parsers below; KeyError or ValueError when any cell does not."""
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


def _cell_problem(kind: str, raw: str) -> Optional[str]:
    """Why ``raw`` is not a valid cell of a ``kind`` column, or None."""
    if kind == "bool":
        return None if raw in _BOOL_TOKENS else f"{raw!r} is not a boolean"
    if kind == "int":
        v = _parse_number(int, raw)
        if v is None:
            return f"{raw!r} is not an integer"
        return None if _INT64_MIN <= v <= _INT64_MAX else f"{raw!r} is outside the int64 range"
    v = _parse_number(float, raw)
    if v is None:
        return f"{raw!r} is not a number"
    return f"{raw!r} parses as NaN, a missing value" if math.isnan(v) else None


def _bad_cell(path: Path, name: str, kind: str, values: Sequence[str]) -> DataError:
    """The error for the first cell of a column that ``kind`` rejects."""
    row, problem = next((i, p) for i, v in enumerate(values, 1)
                        if (p := _cell_problem(kind, v)) is not None)
    return DataError(f"{path}: row {row}, column {name!r}: {problem}")


def _parse_number(convert, s: str):
    """``convert`` (int or float) of the stripped cell; None when it raises,
    as it does for a blank cell."""
    try:
        return convert(s.strip())
    except ValueError:
        return None


def _parse_label(raw: str, row: int, column: str) -> int:
    v = _LABEL_TOKENS.get(raw.strip())
    if v is None:
        raise DataError(f"row {row}, column {column!r}: label {raw!r} is not 0/1")
    return v


def ingest_csv(path: str | Path, label_column: str,
               schema_hint: Optional[Schema] = None) -> Dataset:
    """Read an RFC-4180-style CSV (header mandatory) into a Dataset.

    Without ``schema_hint`` each feature column gets the first kind, tried
    in this order, whose parser accepts every cell:

    1. bool: the exact tokens true/false, True/False, TRUE/FALSE;
    2. int: Python ``int`` of the whitespace-stripped cell, so signs and
       ``1_000`` parse;
    3. float: Python ``float`` of the stripped cell, so ``1.0``, ``-2e3``
       and ``inf`` parse;
    4. categorical otherwise, with values interned to dense integer codes
       in order of first appearance.

    Labels are 0/1 or a bool token. Every error is a DataError; a bad cell
    is reported with its row and column. Besides cells a hinted kind
    rejects and labels that are not 0/1, these are errors: an integer
    outside the int64 range, a float cell that parses as NaN, and a blank
    cell in a column whose other cells all parse as bool, int or float (a
    column of blank cells only stays categorical).
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        rows = list(reader)

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

    if schema_hint is not None:
        if [c.name for c in schema_hint.columns] != header:
            raise DataError(f"{path}: header does not match schema hint")
        if schema_hint.label_column != label_column:
            raise DataError("schema hint label column disagrees with argument")
        kinds = {c.name: c.kind for c in schema_hint.columns}
    else:
        kinds = {label_column: "int"}

    raw_labels = by_name[label_column]
    try:
        labels = np.array(list(map(_LABEL_TOKENS.__getitem__, map(str.strip, raw_labels))),
                          dtype=np.int64)
    except KeyError:
        labels = np.array([_parse_label(v, i + 1, label_column)
                           for i, v in enumerate(raw_labels)], dtype=np.int64)

    columns: list[Column] = []
    arrays: list[np.ndarray] = []
    for name in header:
        if name == label_column:
            columns.append(Column(name, kinds[name]))
            continue
        values = by_name[name]
        parsed = None
        kind = kinds.get(name)
        if kind is None:
            kind, parsed = _infer_column(values)
            if kind == "categorical" and "" in map(str.strip, values):
                # a blank cell must not turn a bool or numeric column categorical
                nonblank = [v for v in values if v.strip()]
                if nonblank:
                    kind = _infer_column(nonblank)[0]
        if kind == "categorical":
            codes = {v: j for j, v in enumerate(dict.fromkeys(values))}
            arrays.append(np.array(list(map(codes.__getitem__, values)), dtype=np.int64))
            columns.append(Column(name, kind, tuple(codes)))
            continue
        try:
            if parsed is None:
                parsed = _parse_column(kind, values)
            arr = np.array(parsed, dtype=_DTYPES[kind])
        except (KeyError, ValueError, OverflowError):
            raise _bad_cell(path, name, kind, values) from None
        if kind == "float" and np.isnan(arr).any():
            raise _bad_cell(path, name, kind, values)
        arrays.append(arr)
        columns.append(Column(name, kind))

    schema = Schema(tuple(columns), label_column)
    return Dataset(schema=schema, feature_arrays=tuple(arrays), labels=labels,
                   row_ids=np.arange(len(labels), dtype=np.int64))


def write_csv(ds: Dataset, path: str | Path) -> None:
    """Write a Dataset back to CSV; inverse of ingest_csv up to formatting."""
    path = Path(path)
    feature_cols = {c.name: (c, arr) for c, arr in
                    zip(ds.schema.feature_columns, ds.feature_arrays)}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([c.name for c in ds.schema.columns])
        for i in range(ds.n_rows):
            row = []
            for c in ds.schema.columns:
                if c.name == ds.schema.label_column:
                    row.append(str(int(ds.labels[i])))
                    continue
                col, arr = feature_cols[c.name]
                if col.kind == "bool":
                    row.append("true" if arr[i] else "false")
                elif col.kind == "int":
                    row.append(str(int(arr[i])))
                elif col.kind == "float":
                    row.append(repr(float(arr[i])))
                else:
                    row.append(col.categories[int(arr[i])])
            writer.writerow(row)


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
    return ds.with_schema(schema, tuple(kept_arrays)), removed


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
    if kind not in TRANSFORM_KINDS:
        raise DataError(f"unknown transform kind {kind!r}")
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
    return ds.with_schema(Schema(tuple(columns), ds.schema.label_column), tuple(new_arrays))


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
        names = ds.schema.feature_names
        kinds = tuple(c.kind for c in ds.schema.feature_columns)
        if names != self.column_names or kinds != self.column_kinds:
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
        """``len(output_names)`` without formatting the names."""
        return sum(len(self.kept_categories[name]) + 1 if kind == "categorical" else 1
                   for name, kind in zip(self.column_names, self.column_kinds))

    @property
    def output_names(self) -> tuple[str, ...]:
        names: list[str] = []
        for name, kind in zip(self.column_names, self.column_kinds):
            if kind == "categorical":
                names.extend(f"{name}={cat}" for cat in self.kept_categories[name])
                names.append(f"{name}=<other>")
            else:
                names.append(name)
        return tuple(names)

    def to_json_dict(self) -> dict:
        return {
            "column_names": list(self.column_names),
            "column_kinds": list(self.column_kinds),
            "kept_categories": {k: list(v) for k, v in self.kept_categories.items()},
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "FeatureEncoder":
        return cls(
            column_names=tuple(doc["column_names"]),
            column_kinds=tuple(doc["column_kinds"]),
            kept_categories={k: tuple(v) for k, v in doc["kept_categories"].items()},
        )
