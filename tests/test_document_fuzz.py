"""Mutated pipeline configs, model documents and ensemble documents either
load or raise a TabDistillError; no other exception escapes. So do random
CSV bytes through ``ingest_csv``.

Each document case starts from a well-formed document and applies one
mutation at a drawn place in it: a value replaced by any JSON value, an
entry dropped, or an unknown entry added. A model whose mutated encoder
loads must hold that encoder as written. The runs are derandomized, so CI
sees the same cases every time."""

import json
import tempfile
from functools import lru_cache
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tabdistill.ensemble import load_ensemble
from tabdistill.errors import DataError, TabDistillError
from tabdistill.learners import (
    TrainingTarget,
    deserialize_model,
    gbdt_spec,
    mlp_spec,
    serialize_model,
    train,
)
from tabdistill.pipeline import PipelineConfig
from tabdistill.tabular import COLUMN_KINDS, Dataset, ingest_csv

from helpers import separable_dataset

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=5)

_FUZZ = settings(max_examples=250, deadline=None, derandomize=True)


def _places(node, path=()):
    """Every place in a JSON document, as the path of keys leading to it."""
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _places(child, (*path, key))


@st.composite
def _mutated(draw, doc):
    """A deep copy of ``doc`` with one mutation at a place drawn from all of
    its places."""
    doc = json.loads(json.dumps(doc))
    path = draw(st.sampled_from(list(_places(doc))))
    if not path:
        return draw(_JSON)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    node = parent[path[-1]]
    action = draw(st.sampled_from(["replace", "drop", "add"]))
    if action == "add" and isinstance(node, dict):
        node[draw(st.text(max_size=6))] = draw(_JSON)
    elif action == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(_JSON)
    return doc


_CONFIG = {
    "data": {"path": "data.csv", "label_column": "label"},
    "split": {"train_fraction": 0.6, "valid_fraction": 0.2, "seed": 3},
    "preprocess": {"remove_constant_columns": True, "transform": "quantile"},
    "families": {
        "a": {"learner": {"kind": "gbdt", "params": {"rounds": 5, "learning_rate": 0.3},
                          "seed": 42},
              "distill": {"generations": 2, "beta": 0.7, "denoise_threshold": 0.99,
                          "teacher_mode": "from_last", "target_mode": "row_weighted",
                          "include_original": False}},
        "b": {"learner": {"kind": "mlp",
                          "params": {"hidden_sizes": [4], "epochs": 2, "batch_norm": True}}},
    },
    "ensemble_opt": {"max_iterations": 3, "mutation_factor": 0.5, "crossover_rate": 0.9,
                     "lower_bound": 0.0, "upper_bound": 1.0, "prune_epsilon": 0.01},
    "final_distill": {"learner": {"kind": "gbdt", "params": {"rounds": 5}},
                      "beta": 0.7, "threshold": 0.99},
    "output_dir": "out",
    "seed": 0,
}


@lru_cache(maxsize=None)
def _model_docs() -> tuple[str, str]:
    ds = separable_dataset(60, seed=31)
    gbdt = train(gbdt_spec(rounds=2, max_depth=2), ds, TrainingTarget.hard())
    mlp = train(mlp_spec(epochs=2, hidden_sizes=(3,), batch_norm=True), ds,
                TrainingTarget.hard())
    return json.dumps(serialize_model(gbdt)), json.dumps(serialize_model(mlp))


@_FUZZ
@given(data=st.data())
def test_mutated_pipeline_config_builds_or_is_data_error(data):
    doc = data.draw(_mutated(_CONFIG))
    try:
        cfg = PipelineConfig.from_json_dict(doc)
    except TabDistillError:
        return
    cfg.run_id()


@_FUZZ
@given(data=st.data())
def test_mutated_gbdt_document_loads_or_is_tabdistill_error(data):
    doc = data.draw(_mutated(json.loads(_model_docs()[0])))
    try:
        deserialize_model(doc)
    except TabDistillError:
        pass


@_FUZZ
@given(data=st.data())
def test_mutated_mlp_document_loads_or_is_tabdistill_error(data):
    doc = data.draw(_mutated(json.loads(_model_docs()[1])))
    try:
        deserialize_model(doc)
    except TabDistillError:
        pass


@_FUZZ
@given(data=st.data(), which=st.sampled_from([0, 1]))
def test_mutated_encoder_loads_as_written_or_is_tabdistill_error(data, which):
    doc = json.loads(_model_docs()[which])
    doc["encoder"] = data.draw(_mutated(doc["encoder"]))
    try:
        encoder = deserialize_model(doc).encoder
    except TabDistillError:
        return
    fields = ("column_names", "column_kinds", "kept_categories")
    assert encoder.to_json_dict() == {key: doc["encoder"][key] for key in fields}
    assert set(encoder.column_kinds) <= set(COLUMN_KINDS)


def _load_ensemble(doc) -> None:
    """``load_ensemble`` of ``doc`` next to the two model documents."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, text in zip(("gbdt.json", "mlp.json"), _model_docs()):
            (root / name).write_text(text, encoding="utf-8")
        (root / "ensemble.json").write_text(json.dumps(doc), encoding="utf-8")
        try:
            load_ensemble(root / "ensemble.json")
        except TabDistillError:
            pass


_ENSEMBLE = {"format": "tabdistill.ensemble/v1", "members": ["gbdt.json", "mlp.json"],
             "weights": [0.25, 0.75]}


@_FUZZ
@given(data=st.data())
def test_mutated_ensemble_document_loads_or_is_tabdistill_error(data):
    _load_ensemble(data.draw(_mutated(_ENSEMBLE)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(name=st.sampled_from(["", ".", "..", "\x00", "gbdt.json\x00", "ensemble.json"])
       | st.text(max_size=6))
def test_any_member_name_loads_or_is_tabdistill_error(name):
    # a directory, a missing file, a NUL byte or a document of another kind
    _load_ensemble({**_ENSEMBLE, "members": ["gbdt.json", name]})


# CSV bytes biased toward what the reader and the column parsers act on:
# separators, quotes, line ends, bool, int and float tokens, blank cells and
# bytes that are not UTF-8
_CELLS = st.sampled_from([
    b"", b" ", b"true", b"FALSE", b"0", b" 1 ", b"-3", b"1_000", b"99999999999999999999",
    b"2.5", b"-1e3", b"1e400", b"nan", b"inf", b"red", b'"a,b"', b'"', b'""', b"\xe9",
    b"\x00"])
_LABELS = st.sampled_from([b"0", b"1", b"True", b" 0 ", b"2", b""])


@st.composite
def _csv_bytes(draw) -> bytes:
    """A header of one to three names ending in ``label``, then rows of
    cells that mostly match its width."""
    width = draw(st.integers(1, 3))
    lines = [b",".join([b"a", b"b"][:width - 1] + [b"label"])]
    for _ in range(draw(st.integers(0, 6))):
        cells = draw(st.sampled_from([width] * 6 + [width + 1, width - 1]))
        lines.append(b",".join([*(draw(_CELLS) for _ in range(cells - 1)), draw(_LABELS)]))
    return draw(st.sampled_from([b"\n", b"\r\n", b"\r"])).join(lines)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(content=_csv_bytes())
def test_random_csv_bytes_ingest_or_are_data_error(content):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_bytes(content)
        try:
            ds = ingest_csv(path, "label")
        except DataError:
            return
    assert isinstance(ds, Dataset)
    # the 1e400 and inf tokens parse as floats, which no float column may hold
    assert all(np.isfinite(a).all() for c, a in zip(ds.schema.feature_columns, ds.feature_arrays)
               if c.kind == "float")
