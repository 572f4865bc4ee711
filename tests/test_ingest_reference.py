"""Column-wise CSV ingest and lookup-table categorical encoding against
references that keep the per-cell implementations they replaced.

Every Dataset must match the reference byte for byte: schema JSON, every
feature array's dtype and bytes, the labels, and the encoded matrix.
Errors the reference raises must carry the same message. The only
differences allowed are the errors the per-cell code lacked: an integer
outside the int64 range, a float cell that parses as NaN, and a blank cell in
a column whose other cells are all bools or numbers. Those are checked
against a per-cell oracle that names the first offending row and column."""

import csv
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tabdistill.errors import DataError
from tabdistill.tabular import (
    MAX_ONE_HOT,
    Column,
    Dataset,
    FeatureEncoder,
    Schema,
    ingest_csv,
)

_spec = importlib.util.spec_from_file_location(
    "bench_gen", Path(__file__).resolve().parents[1] / "benchmarks" / "gen.py")
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)


# ---- references: the per-cell implementations, kept as they were ----

_REF_BOOL_TOKENS = {"true": True, "false": False, "True": True, "False": False,
                    "TRUE": True, "FALSE": False}


def _ref_infer_kind(values):
    if all(v in _REF_BOOL_TOKENS for v in values):
        return "bool"
    if all(_ref_parse_int(v) is not None for v in values):
        return "int"
    if all(_ref_parse_float(v) is not None for v in values):
        return "float"
    return "categorical"


def _ref_parse_int(s):
    t = s.strip()
    if not t:
        return None
    try:
        return int(t)
    except ValueError:
        return None


def _ref_parse_float(s):
    t = s.strip()
    if not t:
        return None
    try:
        return float(t)
    except ValueError:
        return None


def _ref_parse_label(path, raw, row, column):
    v = raw.strip()
    if v in ("0", "1"):
        return int(v)
    if v in _REF_BOOL_TOKENS:
        return int(_REF_BOOL_TOKENS[v])
    raise DataError(f"{path}: row {row}, column {column!r}: label {raw!r} is not 0/1")


def reference_ingest_csv(path, label_column):
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
    for i, r in enumerate(rows):
        if len(r) != width:
            raise DataError(f"{path}: row {i + 1} has {len(r)} cells, expected {width}")

    by_name = {name: [r[j] for r in rows] for j, name in enumerate(header)}

    kinds = {name: _ref_infer_kind(by_name[name])
             for name in header if name != label_column}
    kinds[label_column] = "int"

    labels = np.array(
        [_ref_parse_label(path, v, i + 1, label_column) for i, v in enumerate(by_name[label_column])],
        dtype=np.int64,
    )

    columns = []
    arrays = []
    for name in header:
        if name == label_column:
            columns.append(Column(name, kinds[name]))
            continue
        kind = kinds[name]
        raw = by_name[name]
        if kind == "bool":
            vals = []
            for i, v in enumerate(raw):
                if v not in _REF_BOOL_TOKENS:
                    raise DataError(f"{path}: row {i + 1}, column {name!r}: "
                                    f"{v!r} is not a boolean")
                vals.append(_REF_BOOL_TOKENS[v])
            arrays.append(np.array(vals, dtype=bool))
            columns.append(Column(name, "bool"))
        elif kind == "int":
            vals = []
            for i, v in enumerate(raw):
                parsed = _ref_parse_int(v)
                if parsed is None:
                    raise DataError(f"{path}: row {i + 1}, column {name!r}: "
                                    f"{v!r} is not an integer")
                vals.append(parsed)
            arrays.append(np.array(vals, dtype=np.int64))
            columns.append(Column(name, "int"))
        elif kind == "float":
            vals = []
            for i, v in enumerate(raw):
                parsed = _ref_parse_float(v)
                if parsed is None:
                    raise DataError(f"{path}: row {i + 1}, column {name!r}: "
                                    f"{v!r} is not a number")
                vals.append(parsed)
            arrays.append(np.array(vals, dtype=np.float64))
            columns.append(Column(name, "float"))
        else:  # categorical
            codes = {}
            vals = []
            for v in raw:
                if v not in codes:
                    codes[v] = len(codes)
                vals.append(codes[v])
            arrays.append(np.array(vals, dtype=np.int64))
            columns.append(Column(name, "categorical", tuple(codes)))

    schema = Schema(tuple(columns), label_column)
    return Dataset(schema=schema, feature_arrays=tuple(arrays), labels=labels)


def reference_transform(enc, ds):
    enc.check_schema(ds)
    blocks = []
    for col, arr in zip(ds.schema.feature_columns, ds.feature_arrays):
        if col.kind == "bool":
            blocks.append(arr.astype(np.float64)[:, None])
        elif col.kind in ("int", "float"):
            blocks.append(arr.astype(np.float64)[:, None])
        else:
            kept = enc.kept_categories[col.name]
            index = {cat: j for j, cat in enumerate(kept)}
            out = np.zeros((len(arr), len(kept) + 1))
            cols = np.array([index.get(col.categories[code], len(kept))
                             for code in arr])
            out[np.arange(len(arr)), cols] = 1.0
            blocks.append(out)
    return np.hstack(blocks)


# ---- comparison helpers ----

def _assert_same_bytes(a, b):
    assert a.dtype == b.dtype
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def _assert_same_dataset(got, want):
    assert (json.dumps(got.schema.to_json_dict(), sort_keys=True)
            == json.dumps(want.schema.to_json_dict(), sort_keys=True))
    assert len(got.feature_arrays) == len(want.feature_arrays)
    for a, b in zip(got.feature_arrays, want.feature_arrays):
        _assert_same_bytes(a, b)
    _assert_same_bytes(got.labels, want.labels)


def _check_against_reference(path, label="label", fit_on=None):
    """Ingest ``path`` both ways and compare datasets and encodings; the
    encoder is fit on ``fit_on`` (another CSV) when given, else on the data."""
    got = ingest_csv(path, label)
    want = reference_ingest_csv(path, label)
    _assert_same_dataset(got, want)
    fit_ds = ingest_csv(fit_on, label) if fit_on is not None else got
    enc = FeatureEncoder.fit(fit_ds)
    _assert_same_bytes(enc.transform(got), reference_transform(enc, want))
    return got


def _write_rows(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _write_columns(path, columns: dict):
    names = list(columns)
    rows = list(zip(*(columns[n] for n in names)))
    return _write_rows(path, names, rows)


# ---- fixed inputs ----

class TestWorkloadCsvs:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_numeric_nonlinear(self, tmp_path, seed):
        features, labels = gen.numeric_nonlinear(500, seed)
        gen.write_csv(features, labels, tmp_path / "data.csv")
        ds = _check_against_reference(tmp_path / "data.csv")
        assert {c.kind for c in ds.schema.feature_columns} == {"float"}

    @pytest.mark.parametrize("seed", [0, 7])
    def test_mixed_types_batch_scored_by_a_training_encoder(self, tmp_path, seed):
        # the scoring shape: an encoder fit on a training file, applied to a
        # batch whose categories appear in another order
        features, labels = gen.mixed_types(300, seed * 100)
        gen.write_csv(features, labels, tmp_path / "train.csv")
        features, labels = gen.mixed_types(4000, seed * 100 + 1)
        gen.write_csv(features, labels, tmp_path / "batch.csv")
        ds = _check_against_reference(tmp_path / "batch.csv", fit_on=tmp_path / "train.csv")
        kinds = [c.kind for c in ds.schema.feature_columns]
        assert kinds == ["float"] * 6 + ["int", "bool", "categorical", "categorical"]
        _check_against_reference(tmp_path / "train.csv")


class TestTokens:
    def test_padded_signed_exponent_and_underscore_numbers(self, tmp_path):
        path = _write_columns(tmp_path / "a.csv", {
            "i": [" 3", "-2 ", "+7", "1_000", "\t0\t", "-0"],
            "f": [" 1.5", "-2e3", "+.5", "1_000.25", "6E-2 ", "1e999"],
            "label": ["0", "1", " 1 ", "true", "FALSE", "0"],
        })
        ds = _check_against_reference(path)
        assert [c.kind for c in ds.schema.feature_columns] == ["int", "float"]
        np.testing.assert_array_equal(ds.feature_arrays[0], [3, -2, 7, 1000, 0, 0])
        assert ds.feature_arrays[1][-1] == np.inf

    def test_one_float_makes_an_integer_column_float(self, tmp_path):
        path = _write_columns(tmp_path / "a.csv", {
            "x": ["1", "2", "1.0", "4"], "label": ["0", "1", "0", "1"]})
        ds = _check_against_reference(path)
        assert ds.schema.column("x").kind == "float"

    def test_all_six_bool_spellings(self, tmp_path):
        spellings = ["true", "false", "True", "False", "TRUE", "FALSE"]
        path = _write_columns(tmp_path / "a.csv", {
            "b": spellings, "label": spellings[::-1]})
        ds = _check_against_reference(path)
        assert ds.schema.column("b").kind == "bool"
        np.testing.assert_array_equal(ds.feature_arrays[0], [1, 0, 1, 0, 1, 0])

    def test_near_bool_tokens_are_categorical(self, tmp_path):
        path = _write_columns(tmp_path / "a.csv", {
            "b": ["true", " true", "tRUE", "1"], "label": ["0", "1", "0", "1"]})
        ds = _check_against_reference(path)
        assert ds.schema.column("b").categories == ("true", " true", "tRUE", "1")

    def test_quoted_cells_with_commas(self, tmp_path):
        path = _write_columns(tmp_path / "a.csv", {
            "c": ["a,b", "c", 'say "hi", then', "a,b", "x\ny"],
            "n": ["1", "2", "3", "4", "5"],
            "label": ["0", "1", "0", "1", "1"]})
        assert "\"a,b\"" in path.read_text()
        ds = _check_against_reference(path)
        assert ds.schema.column("c").categories == ("a,b", "c", 'say "hi", then', "x\ny")

    def test_more_categories_than_one_hot_columns(self, tmp_path):
        rng = np.random.default_rng(3)
        levels = [f"lvl{i}" for i in range(MAX_ONE_HOT + 30)]
        fit_codes = rng.integers(0, len(levels) - 10, 600)  # 10 levels unseen at fit
        score_codes = rng.integers(0, len(levels), 900)
        _write_columns(tmp_path / "fit.csv", {
            "c": [levels[k] for k in fit_codes],
            "label": [str(k % 2) for k in range(600)]})
        path = _write_columns(tmp_path / "score.csv", {
            "c": [levels[k] for k in score_codes],
            "label": [str(k % 2) for k in range(900)]})
        _check_against_reference(tmp_path / "fit.csv")
        _check_against_reference(path, fit_on=tmp_path / "fit.csv")
        enc = FeatureEncoder.fit(ingest_csv(tmp_path / "fit.csv", "label"))
        x = enc.transform(ingest_csv(path, "label"))
        assert x.shape == (900, MAX_ONE_HOT + 1)
        assert x[:, -1].sum() > 0  # the other bucket is used

    def test_duplicate_header_names_rejected_alike(self, tmp_path):
        path = _write_rows(tmp_path / "a.csv", ["x", "x", "label"], [["1", "a", "0"]])
        with pytest.raises(DataError) as want:
            reference_ingest_csv(path, "label")
        with pytest.raises(DataError) as got:
            ingest_csv(path, "label")
        assert str(got.value) == str(want.value)


class TestErrorMessages:
    def _same_error(self, path, label="label"):
        with pytest.raises(DataError) as want:
            reference_ingest_csv(path, label)
        with pytest.raises(DataError) as got:
            ingest_csv(path, label)
        assert str(got.value) == str(want.value)
        return str(got.value)

    def test_bad_label(self, tmp_path):
        path = _write_columns(tmp_path / "a.csv", {"x": ["1", "2"], "label": ["1", "2"]})
        assert self._same_error(path) == f"{path}: row 2, column 'label': label '2' is not 0/1"

    def test_short_row(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("x,label\n1,0\n2\n3,1\n")
        assert self._same_error(path).endswith("row 2 has 1 cells, expected 2")

    def test_missing_label_empty_file_and_no_rows(self, tmp_path):
        self._same_error(_write_columns(tmp_path / "a.csv", {"x": ["1"], "y": ["0"]}))
        (tmp_path / "b.csv").write_text("")
        self._same_error(tmp_path / "b.csv")
        (tmp_path / "c.csv").write_text("x,label\n")
        self._same_error(tmp_path / "c.csv")


class TestNewCellErrors:
    """Cells the per-cell ingest accepted silently or crashed on."""

    def _error(self, tmp_path, columns):
        path = _write_columns(tmp_path / "a.csv", columns)
        with pytest.raises(DataError) as got:
            ingest_csv(path, "label")
        return str(got.value).removeprefix(f"{path}: ")

    def test_integer_beyond_int64(self, tmp_path):
        big = "99999999999999999999999"
        with pytest.raises(OverflowError):
            reference_ingest_csv(_write_columns(tmp_path / "r.csv", {
                "i": ["1", big], "label": ["0", "1"]}), "label")
        assert self._error(tmp_path, {"i": ["1", big], "label": ["0", "1"]}) == \
            f"row 2, column 'i': {big!r} is outside the int64 range"
        assert self._error(tmp_path, {"i": ["-9223372036854775809", "1"],
                                      "label": ["0", "1"]}).startswith("row 1, column 'i'")

    def test_int64_extremes_still_parse(self, tmp_path):
        path = _write_columns(tmp_path / "a.csv", {
            "i": ["-9223372036854775808", "9223372036854775807"], "label": ["0", "1"]})
        ds = _check_against_reference(path)
        assert ds.feature_arrays[0].tolist() == [-2**63, 2**63 - 1]

    @pytest.mark.parametrize("values,kind_text", [
        (["1", "2", "", "4"], "'' is not an integer"),
        (["1.5", "2", " ", "4"], "' ' is not a number"),
        (["true", "false", "", "true"], "'' is not a boolean"),
    ])
    def test_blank_cell_in_a_typed_column(self, tmp_path, values, kind_text):
        assert self._error(tmp_path, {"x": values, "label": ["0", "1", "0", "1"]}) == \
            f"row 3, column 'x': {kind_text}"

    def test_blank_cells_in_a_categorical_column_stay_categories(self, tmp_path):
        path = _write_columns(tmp_path / "a.csv", {
            "c": ["a", "", "b"], "blank": ["", " ", ""], "label": ["0", "1", "0"]})
        ds = _check_against_reference(path)
        assert ds.schema.column("c").categories == ("a", "", "b")
        assert ds.schema.column("blank").categories == ("", " ")

    @pytest.mark.parametrize("token", ["nan", " NaN", "-nan"])
    def test_nan_cell(self, tmp_path, token):
        assert self._error(tmp_path, {"f": ["0.5", token], "label": ["0", "1"]}) == \
            f"row 2, column 'f': {token!r} parses as NaN, a missing value"

    def test_first_bad_column_and_row_is_named(self, tmp_path):
        assert self._error(tmp_path, {
            "ok": ["a", "b", "c"], "x": ["1", "nan", ""], "y": ["", "1", "2"],
            "label": ["0", "1", "0"]}) == "row 2, column 'x': 'nan' parses as NaN, a missing value"


# ---- random token lists ----

_TOKENS = ["true", "false", "True", "False", "TRUE", "FALSE", " true", "tRUE",
           "0", "1", "-3", "+4", " 5 ", "1_000", "1__0", "0x10", "٣", "\x1c7",
           "9223372036854775807", "9223372036854775808", "-9223372036854775809",
           "99999999999999999999999", "1.0", ".5", "-2e3", "1e999", "inf", "-Infinity",
           "nan", " NaN", "", " ", "a", "b,c", 'q"uote', "x\ny", "é"]
_LABELS = ["0", "1", " 1", "true", "FALSE"]


def _oracle_error(columns: dict, label: str):
    """(row, column) of the first cell the column-wise ingest must reject
    beyond what the reference rejects, in header order; None if there is none."""
    for name, values in columns.items():
        if name == label:
            continue
        kind = _ref_infer_kind(values)
        if kind == "categorical":
            nonblank = [v for v in values if v.strip()]
            if nonblank and len(nonblank) < len(values):
                kind = _ref_infer_kind(nonblank)
        for row, v in enumerate(values, 1):
            if kind == "bool":
                bad = v not in _REF_BOOL_TOKENS
            elif kind == "int":
                p = _ref_parse_int(v)
                bad = p is None or not (-2**63 <= p < 2**63)
            elif kind == "float":
                p = _ref_parse_float(v)
                bad = p is None or math.isnan(p)
            else:
                bad = False
            if bad:
                return row, name
    return None


@st.composite
def _tables(draw):
    n_rows = draw(st.integers(1, 6))
    n_cols = draw(st.integers(1, 3))
    columns = {}
    for j in range(n_cols):
        # most columns draw from a small pool so that whole columns of one
        # kind, with a stray token or two, are common
        pool = st.sampled_from(draw(st.lists(st.sampled_from(_TOKENS), min_size=1,
                                             max_size=4)))
        if draw(st.booleans()):
            pool = pool | st.sampled_from(_TOKENS)
        columns[f"c{j}"] = draw(st.lists(pool, min_size=n_rows, max_size=n_rows))
    labels = _LABELS + ["2"] if draw(st.integers(0, 9)) == 0 else _LABELS
    columns["label"] = draw(st.lists(st.sampled_from(labels), min_size=n_rows,
                                     max_size=n_rows))
    return columns


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(columns=_tables())
def test_random_token_columns_match_the_reference(tmp_path, columns):
    path = _write_columns(tmp_path / "t.csv", columns)
    try:
        want = reference_ingest_csv(path, "label")
        want_error = None
    except (DataError, OverflowError) as exc:
        want, want_error = None, exc
    try:
        got = ingest_csv(path, "label")
        got_error = None
    except DataError as exc:
        got, got_error = None, exc

    label_ok = all(v.strip() in ("0", "1") or v.strip() in _REF_BOOL_TOKENS
                   for v in columns["label"])
    expected = _oracle_error(columns, "label") if label_ok else None
    if expected is not None:
        row, name = expected
        prefix = f"{path}: row {row}, column {name!r}: "
        assert got_error is not None and str(got_error).startswith(prefix)
        if isinstance(want_error, DataError) and str(want_error).startswith(prefix):
            assert str(got_error) == str(want_error)
    elif want_error is not None:
        assert isinstance(want_error, DataError)
        assert got_error is not None and str(got_error) == str(want_error)
    else:
        assert got_error is None, got_error
        _assert_same_dataset(got, want)
        enc = FeatureEncoder.fit(got)
        _assert_same_bytes(enc.transform(got), reference_transform(enc, want))
