"""Dataset representation: CSV ingestion, which infers the kind of every
column, feature transforms, constant-column pruning, deterministic splitting
and feature encoding.

Datasets are immutable after construction. Every operation returns a new
Dataset; a row is named by its position.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Iterator, Optional, Sequence

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

    def take(self, positions: Sequence[int]) -> "Dataset":
        """The rows at ``positions``, in that order; a position may repeat.
        A bool mask, fractional or negative positions and positions past the
        end raise DataError rather than being read as other rows."""
        idx = np.asarray(positions)
        if (idx.ndim != 1 or idx.dtype.kind not in "iu"
                or len(idx) and (idx.min() < 0 or idx.max() >= self.n_rows)):
            raise DataError(f"rows are taken by a list of integer positions below {self.n_rows}")
        return Dataset(self.schema, tuple(a[idx] for a in self.feature_arrays), self.labels[idx])


def _parse_cells(kind: str, cells: Sequence[str]) -> np.ndarray:
    """The cells parsed as ``kind`` into its dtype; KeyError or ValueError
    when a cell does not parse, OverflowError when every cell is an int and
    one lies outside the int64 range."""
    if kind == "bool":
        return np.fromiter(map(_BOOL_TOKENS.__getitem__, cells), bool, len(cells))
    try:
        return np.fromiter(map(int if kind == "int" else float, map(str.strip, cells)),
                           _DTYPES[kind], len(cells))
    except OverflowError:
        list(map(int, map(str.strip, cells)))  # a later cell that is no int raises ValueError
        raise


def _first_kind(kinds: Sequence[str], cells: Sequence[str]) -> tuple[str, Optional[np.ndarray]]:
    """The first of ``kinds`` whose parser accepts every cell, with the parsed
    cells (None when an int lies outside int64); categorical and None when
    none does."""
    for kind in kinds:
        try:
            return kind, _parse_cells(kind, cells)
        except (KeyError, ValueError):
            pass
        except OverflowError:
            return kind, None
    return "categorical", None


# the kinds a column of nonblank cells of each kind can still take: a bool
# token is no number, so a bool column that meets another cell is categorical
_KINDS_FROM = {None: ("bool", "int", "float"), "bool": ("bool",),
               "int": ("int", "float"), "float": ("float",)}

# rows per block of the CSV reader; at most one block of cells is held as
# strings, so ingest memory is one block plus the result arrays
_INGEST_BLOCK_ROWS = 1024


def _read_blocks(path: Path) -> Iterator:
    """The header row (None for an empty file), then the data rows in blocks
    of ``_INGEST_BLOCK_ROWS``; a file that cannot be read (missing, a
    directory, not UTF-8, a field past the csv module's limit, a NUL in the
    path) raises DataError."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            yield next(reader, None)
            for row in reader:
                yield [row, *islice(reader, _INGEST_BLOCK_ROWS - 1)]
    except (OSError, ValueError, csv.Error) as exc:
        raise DataError(f"{path}: unreadable CSV: {exc}") from None


class _ColumnReader:
    """One feature column of a CSV, parsed a block of rows at a time.

    ``kind`` is the kind of the nonblank cells so far (None before the
    first) and ``parts`` holds their arrays, or once the kind is categorical
    the codes of every cell. A kind that changes after earlier rows were
    parsed (int to float, anything to categorical, blank rows to a typed
    cell) sets ``changed``, and the file is then read once more with the
    column starting at its final kind: casting int64 parts would turn ``-0``
    into 0.0 and cannot hold ints beyond int64, and categories need the
    original strings. A column that starts at its final kind keeps it, so
    ``error``, the first cell its kind rejects, is found in the block that
    holds it.
    """

    def __init__(self, name: str, kind: Optional[str] = None):
        self.name, self.kind = name, kind
        self.changed = False
        self.error: Optional[str] = None
        self.parts: list[np.ndarray] = []
        self.codes: dict[str, int] = {}

    def add(self, cells: Sequence[str], start: int) -> None:
        """Parse the cells of the block of rows that starts at row ``start``."""
        kind, parsed = self.kind, None
        if kind != "categorical":
            kind, parsed = _first_kind(_KINDS_FROM[kind], cells)
            if kind == "categorical" and not all(map(str.strip, cells)):
                # after a blank cell the kind is that of the nonblank cells,
                # and the column is an error unless it ends categorical
                typed = [v for v in cells if v.strip()]
                kind, parsed = (_first_kind(_KINDS_FROM[self.kind], typed)[0] if typed
                                else self.kind), None
        if kind != self.kind and start > 1:
            self.changed = True
        self.kind = kind
        if kind == "categorical":
            for v in dict.fromkeys(cells):
                self.codes.setdefault(v, len(self.codes))
            self.parts.append(np.fromiter(map(self.codes.__getitem__, cells), np.int64, len(cells)))
        elif parsed is not None and (kind != "float" or np.isfinite(parsed).all()):
            self.parts.append(parsed)
        elif kind and not self.error:
            self.error = _bad_cell(self.name, kind, cells, start)

    def finish(self) -> tuple[Column, np.ndarray]:
        """The column and its array."""
        parts, self.parts = self.parts, []
        categories = tuple(self.codes) if self.kind == "categorical" else None
        return Column(self.name, self.kind, categories), np.concatenate(parts)


def _bad_cell(name: str, kind: str, cells: Sequence[str], start: int) -> Optional[str]:
    """The first of ``cells``, rows ``start`` on, that ``kind`` rejects, with
    its row and column: the column's own parser, run on one cell at a time."""
    for row, raw in enumerate(cells, start):
        try:
            value = _parse_cells(kind, [raw])[0]
        except (KeyError, ValueError):
            problem = {"bool": "is not a boolean", "int": "is not an integer",
                       "float": "is not a number"}[kind]
        except OverflowError:
            problem = "is outside the int64 range"
        else:
            if kind != "float" or np.isfinite(value):
                continue
            problem = ("parses as NaN, a missing value" if np.isnan(value)
                       else "parses as infinity, not a finite number")
        return f"row {row}, column {name!r}: {raw!r} {problem}"


def _read_columns(path: Path, label_column: str,
                  kinds: dict[str, str]) -> tuple[list[str], np.ndarray, dict[str, _ColumnReader]]:
    """One pass over the file: its header, its labels and a reader per
    feature column, each starting at its kind in ``kinds`` (not yet known
    when absent). Raises the errors a pass decides at EOF, in this order:
    unreadable; empty file, missing label, no rows; first short or long
    row; first bad label."""
    blocks = _read_blocks(path)
    header = next(blocks)
    if header is None:
        raise DataError(f"{path}: empty file")

    width = len(header)
    has_label = label_column in header
    # each name in order of first appearance, read from its last column, as
    # a dict built from the header would
    index = {name: j for j, name in enumerate(header)}
    readers = {name: _ColumnReader(name, kinds.get(name)) for name in index if name != label_column}
    label_parts: list[np.ndarray] = []
    n_rows = 0
    bad_width = bad_label = None
    for block in blocks:
        start, n_rows = n_rows + 1, n_rows + len(block)
        # once an error is decided, the rest of the file is only read through,
        # looking for rows of the wrong width while that error is a label
        if not has_label or bad_width:
            continue
        if set(map(len, block)) != {width}:
            i, r = next((i, r) for i, r in enumerate(block, start) if len(r) != width)
            bad_width = f"row {i} has {len(r)} cells, expected {width}"
            continue
        if bad_label:
            continue
        columns = list(zip(*block))
        cells = columns[index[label_column]]
        try:
            label_parts.append(np.fromiter(map(_LABEL_TOKENS.__getitem__, map(str.strip, cells)),
                                           np.int64, len(cells)))
        except KeyError:
            i, raw = next((i, v) for i, v in enumerate(cells, start)
                          if v.strip() not in _LABEL_TOKENS)
            bad_label = f"row {i}, column {label_column!r}: label {raw!r} is not 0/1"
            continue
        for name, reader in readers.items():
            reader.add(columns[index[name]], start)
        del block, columns, cells  # so that no cell is alive while the next block is read

    if not has_label:
        raise DataError(f"{path}: label column {label_column!r} not found "
                        f"(columns: {header})")
    if not n_rows:
        raise DataError(f"{path}: no data rows")
    if bad_width or bad_label:
        raise DataError(f"{path}: {bad_width or bad_label}")
    return header, np.concatenate(label_parts), readers


def ingest_csv(path: str | Path, label_column: str) -> Dataset:
    """Read an RFC-4180-style UTF-8 CSV (header mandatory) into a Dataset.
    A leading UTF-8 byte-order mark is skipped.

    Each feature column gets the first kind, tried in this order, whose
    parser accepts every cell:

    1. bool: the exact tokens true/false, True/False, TRUE/FALSE;
    2. int: Python ``int`` of the whitespace-stripped cell, so signs and
       ``1_000`` parse;
    3. float: Python ``float`` of the stripped cell, so ``1.0`` and
       ``-2e3`` parse;
    4. categorical otherwise, with values interned to dense integer codes
       in order of first appearance.

    Labels are 0/1 or a bool token. Every error is a DataError naming the
    file; a file that cannot be read (missing, a directory, not UTF-8, a
    field past the csv module's limit) is reported as unreadable, a bad
    cell with its row and column. Besides labels that are not 0/1, these
    are errors: an integer outside the int64 range, a float cell that
    parses as NaN or as infinity (``inf``, ``-Infinity``, ``1e999``), and
    a blank cell in a column whose other cells all parse as bool, int or
    float (a column of blank cells only stays categorical).

    The file is read ``_INGEST_BLOCK_ROWS`` (1,024) rows at a time, each
    block parsed straight into typed per-column parts, so memory is bounded
    by one block of strings plus the result arrays. It is read at most
    twice: once more, with every column starting at its final kind, only
    when some column's kind changed after earlier rows were parsed or a
    column holds only blanks. A bad cell is found in the block that holds
    it. Errors are decided once the whole file has been read, so an
    unreadable file is reported as such wherever the fault lies; then
    come the feature columns in header order.
    """
    path = Path(path)
    header, labels, readers = _read_columns(path, label_column, {})
    if any(reader.changed or reader.kind is None for reader in readers.values()):
        # a column of blank cells only ends categorical
        kinds = {name: reader.kind or "categorical" for name, reader in readers.items()}
        del labels, readers  # so that the first pass's parts go before the second's
        header, labels, readers = _read_columns(path, label_column, kinds)
    for reader in readers.values():
        if reader.error:
            raise DataError(f"{path}: {reader.error}")

    features = {name: reader.finish() for name, reader in readers.items()}
    columns = [Column(name, "int") if name == label_column else features[name][0]
               for name in header]
    arrays = [features[name][1] for name in header if name != label_column]
    return Dataset(Schema(tuple(columns), label_column), tuple(arrays), labels)


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

    standardize: (x - mean) / std with population std, std=0 replaced by 1;
    a column where that is not finite everywhere raises DataError.
    quantile: mid-rank empirical CDF r / (n + 1) over the fit values,
    mapping every value into (0, 1).
    """
    require_choice(kind, "transform", TRANSFORM_KINDS)
    arrays = zip(ds.feature_arrays, ds.take(fit_rows).feature_arrays)
    columns: list[Column] = []
    new_arrays: list[np.ndarray] = []
    for col in ds.schema.columns:
        if col.name == ds.schema.label_column:
            columns.append(col)
            continue
        arr, fit = next(arrays)
        if col.kind in ("int", "float"):
            x = arr.astype(np.float64)
            fit = fit.astype(np.float64)
            if kind == "standardize":
                # cells near the float64 limit can overflow; the column is
                # then refused by name, with no numpy warning on the way
                with np.errstate(all="ignore"):
                    mean = fit.mean()
                    std = fit.std() or 1.0  # population std; 0 becomes 1
                    arr = (x - mean) / std
                if not np.isfinite(arr).all():
                    raise DataError(f"column {col.name!r}: standardize leaves the float64 "
                                    f"range (fit mean {float(mean):g}, std {float(std):g})")
            else:
                fit_sorted = np.sort(fit)
                arr = _midranks_against(fit_sorted, x) / (len(fit_sorted) + 1)
            col = Column(col.name, "float")
        columns.append(col)
        new_arrays.append(arr)
    return Dataset(Schema(tuple(columns), ds.schema.label_column), tuple(new_arrays), ds.labels)


def split_indices(n: int, spec: SplitSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic positional (train, valid, test) partition of range(n)."""
    n = require_integer(n, "number of rows to split")
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
