import json

import numpy as np
import pytest

from tabdistill.cli import main as cli_main
from tabdistill.errors import DataError
from tabdistill.tabular import (
    MAX_ONE_HOT,
    Column,
    Dataset,
    FeatureEncoder,
    Schema,
    SplitSpec,
    apply_transform,
    ingest_csv,
    remove_constant_columns,
    split,
)

from helpers import (
    dataset_from_arrays,
    encoder_output_names,
    mixed_type_dataset,
    write_dataset_csv,
)


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestIngest:
    def test_three_row_float_file(self, tmp_path):
        p = _write(tmp_path, "a.csv", "f1,label\n1.5,0\n2.5,1\n3.0,1\n")
        ds = ingest_csv(p, "label")
        assert ds.n_rows == 3
        assert len(ds.feature_arrays) == 1
        assert ds.schema.column("f1").kind == "float"
        np.testing.assert_array_equal(ds.labels, [0, 1, 1])

    def test_categorical_inference(self, tmp_path):
        p = _write(tmp_path, "a.csv", "c,label\na,0\nb,1\na,1\n")
        ds = ingest_csv(p, "label")
        col = ds.schema.column("c")
        assert col.kind == "categorical"
        assert col.categories == ("a", "b")
        np.testing.assert_array_equal(ds.feature_arrays[0], [0, 1, 0])

    def test_bool_and_int_inference(self, tmp_path):
        p = _write(tmp_path, "a.csv", "b,i,label\ntrue,3,0\nfalse,-2,1\ntrue,7,0\n")
        ds = ingest_csv(p, "label")
        assert ds.schema.column("b").kind == "bool"
        assert ds.schema.column("i").kind == "int"

    def test_missing_label_column_reports_name(self, tmp_path):
        p = _write(tmp_path, "a.csv", "f1,y\n1,0\n")
        with pytest.raises(DataError, match="label"):
            ingest_csv(p, "label")

    def test_unparseable_cell_reports_row_and_column(self, tmp_path):
        p = _write(tmp_path, "a.csv", "f1,label\n1,0\n,1\n")
        with pytest.raises(DataError, match="row 2.*'f1'.*not an integer"):
            ingest_csv(p, "label")

    def test_empty_file(self, tmp_path):
        p = _write(tmp_path, "a.csv", "")
        with pytest.raises(DataError, match="empty"):
            ingest_csv(p, "label")

    def test_roundtrip_identity(self, tmp_path):
        p = _write(tmp_path, "a.csv",
                   "b,i,f,c,label\ntrue,3,1.25,x,0\nfalse,-2,0.5,y,1\ntrue,7,2.0,x,1\n")
        ds = ingest_csv(p, "label")
        out = tmp_path / "b.csv"
        write_dataset_csv(ds, out)
        ds2 = ingest_csv(out, "label")
        assert ds2.schema == ds.schema
        np.testing.assert_array_equal(ds2.labels, ds.labels)
        for a, b in zip(ds.feature_arrays, ds2.feature_arrays):
            np.testing.assert_array_equal(a, b)

    def test_schema_persistence_roundtrip(self, tmp_path, capsys):
        p = _write(tmp_path, "a.csv", "c,label\na,0\nb,1\n")
        ds = ingest_csv(p, "label")
        out = tmp_path / "schema.json"
        assert cli_main(["ingest", "--data", str(p), "--label", "label",
                         "--schema-out", str(out)]) == 0
        assert json.loads(out.read_text(encoding="utf-8")) == ds.schema.to_json_dict()

    @pytest.mark.parametrize("text", ["label,x,c\n0,1.5,a\n1,2.5,b\n1,3.0,a\n",
                                      "x,c,label\n1.5,a,0\n2.5,b,1\n3.0,a,1\n"],
                             ids=["label_first", "feature_first"])
    def test_leading_byte_order_mark_is_skipped(self, tmp_path, text):
        # spreadsheet programs write "UTF-8 with BOM"; the mark is not part
        # of the first column's name
        plain = tmp_path / "plain.csv"
        plain.write_bytes(text.encode("utf-8"))
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        a, b = ingest_csv(plain, "label"), ingest_csv(marked, "label")
        assert b.schema.to_json_dict() == a.schema.to_json_dict()
        assert b.schema.column("x").kind == "float"
        np.testing.assert_array_equal(b.labels, a.labels)
        for x, y in zip(a.feature_arrays, b.feature_arrays):
            np.testing.assert_array_equal(x, y)

    def test_cli_ingest_of_a_file_with_a_byte_order_mark(self, tmp_path, capsys):
        p = tmp_path / "a.csv"
        p.write_bytes(b"\xef\xbb\xbflabel,x\n0,1.5\n1,2.5\n")
        assert cli_main(["ingest", "--data", str(p), "--label", "label"]) == 0
        assert json.loads(capsys.readouterr().out)["label_column"] == "label"


class TestRemoveConstantColumns:
    def test_constant_column_removed(self):
        ds = dataset_from_arrays({"a": [5.0, 5.0, 5.0], "b": [1.0, 2.0, 3.0]},
                                 [0, 1, 0])
        out, removed = remove_constant_columns(ds)
        assert removed == ["a"]
        assert out.schema.feature_names == ("b",)

    def test_no_constants_is_identity(self):
        ds = dataset_from_arrays({"a": [1.0, 2.0, 3.0]}, [0, 1, 0])
        out, removed = remove_constant_columns(ds)
        assert removed == []
        assert out is ds

    def test_five_appended_all_one_columns(self):
        rng = np.random.default_rng(0)
        feats = {"x": rng.standard_normal(50)}
        for j in range(5):
            feats[f"one{j}"] = np.ones(50)
        ds = dataset_from_arrays(feats, rng.integers(0, 2, 50))
        out, removed = remove_constant_columns(ds)
        assert removed == [f"one{j}" for j in range(5)]
        assert out.schema.feature_names == ("x",)

    def test_idempotent(self):
        ds = dataset_from_arrays({"a": [5.0, 5.0], "b": [1.0, 2.0]}, [0, 1])
        once, _ = remove_constant_columns(ds)
        twice, removed = remove_constant_columns(once)
        assert removed == []
        assert twice.schema == once.schema


class TestTransforms:
    def test_standardize_hand_computed(self):
        ds = dataset_from_arrays({"a": [1.0, 2.0, 3.0]}, [0, 1, 0])
        out = apply_transform(ds, "standardize", fit_rows=np.arange(ds.n_rows))
        # population std of {1,2,3} is sqrt(2/3)
        expected = (np.array([1.0, 2.0, 3.0]) - 2.0) / np.sqrt(2.0 / 3.0)
        np.testing.assert_allclose(out.feature_arrays[0], expected, atol=1e-6)
        np.testing.assert_allclose(out.feature_arrays[0],
                                   [-1.2247, 0.0, 1.2247], atol=1e-4)

    def test_standardize_constant_column_guard(self):
        ds = dataset_from_arrays({"a": [4.0, 4.0, 4.0]}, [0, 1, 0])
        out = apply_transform(ds, "standardize", fit_rows=np.arange(ds.n_rows))
        np.testing.assert_array_equal(out.feature_arrays[0], [0.0, 0.0, 0.0])

    def test_quantile_midrank(self):
        ds = dataset_from_arrays({"a": [10.0, 20.0, 30.0]}, [0, 1, 0])
        out = apply_transform(ds, "quantile", fit_rows=np.arange(ds.n_rows))
        np.testing.assert_allclose(out.feature_arrays[0], [0.25, 0.5, 0.75])

    def test_quantile_ties_share_midrank(self):
        ds = dataset_from_arrays({"a": [1.0, 1.0, 2.0, 3.0]}, [0, 1, 0, 1])
        out = apply_transform(ds, "quantile", fit_rows=np.arange(ds.n_rows))
        vals = out.feature_arrays[0]
        assert vals[0] == vals[1]
        np.testing.assert_allclose(vals, [1.5 / 5, 1.5 / 5, 3 / 5, 4 / 5])

    def test_fit_rows_only_drive_statistics(self):
        ds = dataset_from_arrays({"a": [0.0, 1.0, 100.0]}, [0, 1, 0])
        out = apply_transform(ds, "standardize", fit_rows=[0, 1])
        # mean 0.5, std 0.5 from the two fit rows
        np.testing.assert_allclose(out.feature_arrays[0], [-1.0, 1.0, 199.0])

    def test_fit_rows_are_positions_after_take(self):
        base = dataset_from_arrays({"a": [0.0, 1.0, 2.0, 3.0, 40.0]}, [0, 1, 0, 1, 0])
        ds = base.take(np.array([4, 2, 0, 3, 1]))  # base rows 4, 2, 0, 3, 1 at positions 0..4
        out = apply_transform(ds, "standardize", fit_rows=[1, 2])
        # positions 1 and 2 hold 2.0 and 0.0: mean 1, std 1
        np.testing.assert_array_equal(out.feature_arrays[0], [39.0, 1.0, -1.0, 2.0, 0.0])

    def test_standardize_preserves_order(self):
        rng = np.random.default_rng(3)
        vals = rng.standard_normal(60)
        ds = dataset_from_arrays({"a": vals}, rng.integers(0, 2, 60))
        out = apply_transform(ds, "standardize", fit_rows=np.arange(ds.n_rows))
        assert (np.argsort(out.feature_arrays[0]) == np.argsort(vals)).all()

    def test_empty_fit_rows(self):
        ds = dataset_from_arrays({"a": [1.0, 2.0]}, [0, 1])
        with pytest.raises(DataError):
            apply_transform(ds, "standardize", fit_rows=[])
        for outside in ([-1], [0, 2]):
            with pytest.raises(DataError, match="positions below 2"):
                apply_transform(ds, "standardize", fit_rows=outside)

    def test_int_column_becomes_float(self):
        ds = dataset_from_arrays({"i": np.array([1, 2, 3])}, [0, 1, 0])
        assert ds.schema.column("i").kind == "int"
        out = apply_transform(ds, "standardize", fit_rows=np.arange(ds.n_rows))
        assert out.schema.column("i").kind == "float"

    def test_bool_and_categorical_untouched(self):
        ds = dataset_from_arrays({"b": np.array([True, False, True]),
                                  "x": [1.0, 2.0, 3.0]}, [0, 1, 0])
        out = apply_transform(ds, "quantile", fit_rows=np.arange(ds.n_rows))
        np.testing.assert_array_equal(out.feature_arrays[0], [True, False, True])
        assert out.schema.column("b").kind == "bool"


class TestRowIds:
    """A row is named by its position; ``take`` reorders and may repeat rows."""

    def test_take_by_permutation_builds(self):
        ds = dataset_from_arrays({"a": np.arange(6.0)}, [0, 1] * 3)
        perm = np.array([4, 0, 5, 2, 1, 3])
        out = ds.take(perm)
        np.testing.assert_array_equal(out.feature_arrays[0], perm.astype(float))

    def test_take_may_repeat_a_position(self):
        ds = dataset_from_arrays({"a": np.arange(2.0)}, [0, 1])
        out = ds.take([0, 1, 0])
        np.testing.assert_array_equal(out.feature_arrays[0], [0.0, 1.0, 0.0])
        np.testing.assert_array_equal(out.labels, [0, 1, 0])


class TestSplit:
    def test_60_20_on_ten_rows(self):
        ds = dataset_from_arrays({"a": np.arange(10.0)}, [0, 1] * 5)
        tr, va, te = split(ds, SplitSpec(0.6, 0.2, seed=1))
        assert (tr.n_rows, va.n_rows, te.n_rows) == (6, 2, 2)

    def test_same_seed_identical(self):
        ds = dataset_from_arrays({"a": np.arange(100.0)},
                                 np.tile([0, 1], 50))
        a = split(ds, SplitSpec(0.6, 0.2, seed=5))
        b = split(ds, SplitSpec(0.6, 0.2, seed=5))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.feature_arrays[0], y.feature_arrays[0])

    def test_partition_exact_and_disjoint(self):
        rng = np.random.default_rng(0)
        ds = dataset_from_arrays({"a": rng.standard_normal(53)},
                                 rng.integers(0, 2, 53))
        tr, va, te = split(ds, SplitSpec(0.5, 0.25, seed=9))
        # each value of "a" is unique, so it names its row
        all_rows = np.concatenate([tr.feature_arrays[0], va.feature_arrays[0],
                                   te.feature_arrays[0]])
        assert len(all_rows) == 53
        assert set(all_rows) == set(ds.feature_arrays[0])

    def test_empty_partition_rejected(self):
        ds = dataset_from_arrays({"a": [1.0, 2.0, 3.0]}, [0, 1, 0])
        with pytest.raises(DataError, match="empty"):
            split(ds, SplitSpec(0.9, 0.05, seed=0))


class TestFeatureEncoder:
    def test_one_hot_layout_with_other_bucket(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("c,label\nred,0\nblue,1\nred,1\n")
        ds = ingest_csv(p, "label")
        enc = FeatureEncoder.fit(ds)
        x = enc.transform(ds)
        assert x.shape == (3, 3)  # red, blue, <other>
        np.testing.assert_array_equal(x[:, 2], [0.0, 0.0, 0.0])
        assert x[0].tolist() == [1.0, 0.0, 0.0]

    def test_cardinality_cap(self):
        rng = np.random.default_rng(0)
        cats = tuple(f"v{i}" for i in range(80))
        codes = rng.integers(0, 80, size=500)
        schema = Schema((Column("c", "categorical", cats), Column("label", "int")),
                        "label")
        ds = Dataset(schema, (codes.astype(np.int64),),
                     rng.integers(0, 2, 500).astype(np.int64))
        enc = FeatureEncoder.fit(ds)
        x = enc.transform(ds)
        assert x.shape[1] == 65  # 64 kept + other
        assert (x.sum(axis=1) == 1.0).all()

    def test_width_counts_output_columns(self):
        ds = mixed_type_dataset(500, seed=1, levels=MAX_ONE_HOT + 9,
                                codes=np.arange(500) % (MAX_ONE_HOT + 9))
        enc = FeatureEncoder.fit(ds)
        assert enc.width == len(encoder_output_names(enc)) == 3 + (MAX_ONE_HOT + 1) + (3 + 1)
        assert enc.transform(ds).shape == (500, enc.width)

    def test_no_feature_columns_is_data_error(self):
        ds = dataset_from_arrays({}, [0, 1, 0])
        with pytest.raises(DataError, match="no feature columns"):
            FeatureEncoder.fit(ds)

    _DOC = {"column_names": ["n", "c"], "column_kinds": ["float", "categorical"],
            "kept_categories": {"c": ["red", "blue"]}}

    def test_document_round_trips(self):
        enc = FeatureEncoder.from_json_dict(self._DOC)
        assert enc.to_json_dict() == self._DOC and enc.width == 4

    @pytest.mark.parametrize("key, value", [
        pytest.param("column_names", "nc", id="names-a-string"),
        pytest.param("column_names", ["n", 3], id="name-not-a-string"),
        pytest.param("column_kinds", ["float"], id="one-kind-short"),
        pytest.param("column_kinds", "float", id="kinds-a-string"),
        pytest.param("column_kinds", ["x", "categorical"], id="unknown-kind"),
        pytest.param("column_kinds", ["float", "int"], id="categories-of-a-numeric-column"),
        pytest.param("kept_categories", {}, id="categorical-without-categories"),
        pytest.param("kept_categories", {"c": ["red"], "z": ["a"]}, id="unknown-column"),
        pytest.param("kept_categories", {"c": "red"}, id="categories-a-string"),
        pytest.param("kept_categories", {"c": [1]}, id="category-not-a-string"),
        pytest.param("kept_categories", [["red"]], id="categories-a-list"),
    ])
    def test_malformed_document_is_data_error(self, key, value):
        with pytest.raises(DataError):
            FeatureEncoder.from_json_dict({**self._DOC, key: value})
