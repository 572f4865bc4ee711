import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import tabdistill
from tabdistill.cli import main as cli_main
from tabdistill.distill import DistillConfig, distill_step
from tabdistill.ensemble import DEConfig, EnsembleModel
from tabdistill.errors import DataError
from tabdistill.learners import (
    GBDTModel,
    MLPModel,
    TrainingTarget,
    gbdt_spec,
    load_model,
    mlp_spec,
    serialize_model,
    train,
)
from tabdistill.metrics import pearson
from tabdistill.pipeline import (
    PipelineConfig,
    StageError,
    distill_to_deployment,
    load_config,
    run_pipeline,
)
from tabdistill.tabular import SplitSpec, split_indices

from helpers import (
    dataset_from_arrays,
    first_leaf,
    noisy_nonlinear_dataset,
    separable_dataset,
    write_dataset_csv,
)


def _minimal_config(tmp_path, data_name="data.csv", seed=0, rounds=5):
    return {
        "data": {"path": data_name, "label_column": "label"},
        "split": {"train_fraction": 0.6, "valid_fraction": 0.2},
        "preprocess": {"remove_constant_columns": True, "transform": None},
        "families": {
            "a": {"learner": {"kind": "gbdt", "params": {"rounds": rounds},
                              "seed": 42},
                  "distill": None},
        },
        "ensemble_opt": None,
        "final_distill": {"learner": {"kind": "gbdt",
                                      "params": {"rounds": rounds}, "seed": 42},
                          "beta": 0.0, "threshold": 1.0},
        "output_dir": str(tmp_path / "out"),
        "seed": seed,
    }


def _write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestMinimalPipeline:
    def test_degenerate_pipeline_reproduces_teacher(self, tmp_path):
        ds = separable_dataset(300, seed=0)
        write_dataset_csv(ds, tmp_path / "data.csv")
        cfg = PipelineConfig.from_json_dict(_minimal_config(tmp_path),
                                            base_dir=tmp_path)
        report = run_pipeline(cfg)

        metrics = report["metrics"]
        teacher_auc = metrics["teacher"]["auc"]
        for key in ("best_single", "uniform_ensemble", "optimized_ensemble",
                    "final_model"):
            assert metrics[key]["auc"] == teacher_auc
        assert metrics["gain_over_teacher"] == 0.0

        run_dir = tmp_path / "out" / report["run_id"]
        teacher = load_model(run_dir / "models" / "a_gen0.json")
        final = load_model(run_dir / "models" / "final.json")
        probe = separable_dataset(100, seed=1)
        np.testing.assert_array_equal(teacher.predict(probe), final.predict(probe))

    def test_rerun_is_bit_identical(self, tmp_path):
        ds = noisy_nonlinear_dataset(240, seed=2)
        write_dataset_csv(ds, tmp_path / "data.csv")
        doc = _minimal_config(tmp_path, rounds=3)
        cfg = PipelineConfig.from_json_dict(doc, base_dir=tmp_path)
        first = run_pipeline(cfg)
        run_dir = tmp_path / "out" / first["run_id"]
        report_bytes = (run_dir / "report.json").read_bytes()
        model_bytes = (run_dir / "models" / "final.json").read_bytes()

        second = run_pipeline(cfg)
        assert (run_dir / "report.json").read_bytes() == report_bytes
        assert (run_dir / "models" / "final.json").read_bytes() == model_bytes
        assert first == second


class TestFullPipeline:
    def test_two_families_with_optimization(self, tmp_path):
        ds = noisy_nonlinear_dataset(500, seed=3)
        write_dataset_csv(ds, tmp_path / "data.csv")
        doc = _minimal_config(tmp_path)
        doc["families"]["a"]["distill"] = {"generations": 2, "beta": 0.7,
                                           "denoise_threshold": 0.99}
        doc["families"]["b"] = {
            "learner": {"kind": "mlp",
                        "params": {"epochs": 10, "hidden_sizes": [8]}},
            "distill": {"generations": 2, "beta": 0.7},
        }
        doc["ensemble_opt"] = {"max_iterations": 10}
        doc["final_distill"] = {"learner": {"kind": "gbdt",
                                            "params": {"rounds": 20}},
                                "beta": 0.7, "threshold": 0.99}
        cfg = PipelineConfig.from_json_dict(doc, base_dir=tmp_path)
        report = run_pipeline(cfg)

        assert set(report["families"]) == {"a", "b"}
        assert len(report["families"]["a"]["ledger"]) == 3
        assert len(report["families"]["b"]["ledger"]) == 3
        assert len(report["ensemble"]["weights"]) == 6
        run_dir = tmp_path / "out" / report["run_id"]
        assert (run_dir / "weights_audit.csv").exists()
        assert (run_dir / "ledger_a.csv").exists()
        assert (run_dir / "ledger_b.csv").exists()
        # optimized ensemble beats or ties every incumbent on validation
        audit = report["ensemble"]["audit"]
        assert audit["validation_auc"] >= max(audit["member_aucs"]) - 1e-9
        assert audit["validation_auc"] >= audit["uniform_auc"] - 1e-9
        assert audit["family_sizes"] == [3, 3]
        # the baseline teacher is the first family of the final learner's kind
        assert report["metrics"]["teacher"]["family"] == "a"

    def test_one_family_audit_keeps_an_empty_b(self, tmp_path):
        write_dataset_csv(noisy_nonlinear_dataset(300, seed=6), tmp_path / "data.csv")
        doc = _minimal_config(tmp_path, rounds=3)
        doc["families"]["a"]["distill"] = {"generations": 2}
        doc["ensemble_opt"] = {"max_iterations": 3}
        report = run_pipeline(PipelineConfig.from_json_dict(doc, base_dir=tmp_path))
        assert report["ensemble"]["audit"]["family_sizes"] == [3, 0]
        assert report["config"]["families"]["b"] is None

    def test_no_test_leakage(self, tmp_path):
        base = noisy_nonlinear_dataset(300, seed=4)
        fresh = noisy_nonlinear_dataset(300, seed=5)
        spec = SplitSpec(0.6, 0.2, seed=0)
        _, _, test_idx = split_indices(300, spec)

        swapped_feats = {}
        for name, base_col, fresh_col in zip(base.schema.feature_names,
                                             base.feature_arrays, fresh.feature_arrays):
            col = base_col.copy()
            col[test_idx] = fresh_col[test_idx]
            swapped_feats[name] = col
        labels = base.labels.copy()
        labels[test_idx] = fresh.labels[test_idx]
        swapped = dataset_from_arrays(swapped_feats, labels)

        write_dataset_csv(base, tmp_path / "base.csv")
        write_dataset_csv(swapped, tmp_path / "swapped.csv")

        doc = _minimal_config(tmp_path, data_name="base.csv")
        doc["families"]["a"]["distill"] = {"generations": 1}
        cfg_a = PipelineConfig.from_json_dict(doc, base_dir=tmp_path)
        report_a = run_pipeline(cfg_a)
        doc_b = dict(doc, data={"path": "swapped.csv", "label_column": "label"})
        cfg_b = PipelineConfig.from_json_dict(doc_b, base_dir=tmp_path)
        report_b = run_pipeline(cfg_b)

        dir_a = tmp_path / "out" / report_a["run_id"]
        dir_b = tmp_path / "out" / report_b["run_id"]
        for name in ("models/a_gen0.json", "models/a_gen1.json", "models/final.json"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
        assert report_a["ensemble"]["weights"] == report_b["ensemble"]["weights"]
        assert report_a["metrics"] != report_b["metrics"]

    def test_stage_error_names_stage(self, tmp_path):
        ds = separable_dataset(50, seed=6)
        write_dataset_csv(ds, tmp_path / "data.csv")
        doc = _minimal_config(tmp_path)
        doc["split"] = {"train_fraction": 0.98, "valid_fraction": 0.01}
        cfg = PipelineConfig.from_json_dict(doc, base_dir=tmp_path)
        with pytest.raises(StageError, match="preprocess"):
            run_pipeline(cfg)


class TestPredictOnce:
    """run_pipeline predicts each model at most once on each split; every
    later consumer reads the stored predictions."""

    @pytest.mark.parametrize("teacher_mode", ["from_last", "from_ensemble"])
    @pytest.mark.parametrize("ensemble_opt", [None, {"max_iterations": 3}])
    @pytest.mark.parametrize("final_kind", ["gbdt", "mlp"])
    def test_each_model_scores_each_split_once(self, tmp_path, monkeypatch,
                                               teacher_mode, ensemble_opt, final_kind):
        ds = noisy_nonlinear_dataset(300, seed=13)
        write_dataset_csv(ds, tmp_path / "data.csv")
        doc = _minimal_config(tmp_path, rounds=3)
        doc["families"]["a"]["distill"] = {"generations": 2, "teacher_mode": teacher_mode}
        # family b trains its teacher only
        doc["families"]["b"] = {"learner": {"kind": "mlp",
                                            "params": {"epochs": 3, "hidden_sizes": [4]}},
                                "distill": None}
        doc["ensemble_opt"] = ensemble_opt
        doc["final_distill"] = {"learner": {"kind": final_kind, "params": {}},
                                "beta": 0.7, "threshold": 0.95}
        if final_kind == "mlp":
            doc["final_distill"]["learner"]["params"] = {"epochs": 2, "hidden_sizes": [4]}

        calls, alive = Counter(), []
        for cls in (GBDTModel, MLPModel):
            def counted(model, rows, _predict=cls.predict):
                alive.append((model, rows))  # keeps every counted id unique
                calls[(id(model), id(rows))] += 1
                return _predict(model, rows)
            monkeypatch.setattr(cls, "predict", counted)

        report = run_pipeline(PipelineConfig.from_json_dict(doc, base_dir=tmp_path))
        members = len(report["ensemble"]["member_files"])
        assert members == 4
        assert max(calls.values()) == 1
        # every member on train, valid and test, and the final model on test
        assert len(calls) == 3 * members + 1


class TestDeploymentDistillation:
    def test_beta_zero_is_plain_retraining(self):
        ds = separable_dataset(300, seed=7)
        spec = gbdt_spec(rounds=5, seed=3)
        teacher = train(spec, ds, TrainingTarget.hard())
        ens = EnsembleModel([teacher], [1.0])
        student = distill_to_deployment(ens.predict(ds), ds, spec, beta=0.0, threshold=1.0)
        probe = separable_dataset(100, seed=8)
        np.testing.assert_array_equal(teacher.predict(probe), student.predict(probe))

    @pytest.mark.parametrize("target_mode", ["row_weighted", "label_sampled"])
    def test_teacher_scores_stand_in_for_the_ensemble(self, target_mode):
        ds = noisy_nonlinear_dataset(300, seed=13)
        gb = train(gbdt_spec(rounds=4), ds, TrainingTarget.hard())
        nn = train(mlp_spec(epochs=3, hidden_sizes=(4,)), ds, TrainingTarget.hard())
        scores = EnsembleModel([gb, nn], [0.3, 0.7]).predict(ds)
        spec = gbdt_spec(rounds=4, seed=5)
        deployed = distill_to_deployment(scores, ds, spec, 0.7, 0.9, None, target_mode, 11)
        direct = train(spec, *distill_step(ds, scores, 0.7, 0.9, target_mode, 11))
        assert serialize_model(deployed) == serialize_model(direct)

    def test_near_self_distillation_tracks_teacher(self):
        ds = noisy_nonlinear_dataset(2000, seed=9)
        test = noisy_nonlinear_dataset(600, seed=10)
        spec = gbdt_spec(rounds=40, seed=4)
        teacher = train(spec, ds, TrainingTarget.hard())
        student = distill_to_deployment(EnsembleModel([teacher], [1.0]).predict(ds), ds, spec,
                                        beta=1.0, threshold=1.0)
        corr = pearson(teacher.predict(test), student.predict(test))
        assert corr >= 0.95

    def test_heterogeneous_ensemble_yields_standalone_gbdt(self, tmp_path):
        ds = noisy_nonlinear_dataset(300, seed=11)
        gb = train(gbdt_spec(rounds=5), ds, TrainingTarget.hard())
        nn = train(mlp_spec(epochs=5, hidden_sizes=(8,)), ds, TrainingTarget.hard())
        ens = EnsembleModel([gb, nn], [1.0, 1.0])
        student = distill_to_deployment(ens.predict(ds), ds, gbdt_spec(rounds=5), beta=0.7,
                                        threshold=0.99)
        assert student.kind == "gbdt"
        from tabdistill.learners import save_model
        out = tmp_path / "final.json"
        save_model(student, out)
        doc = json.loads(out.read_text())
        assert "members" not in doc
        restored = load_model(out)
        probe = noisy_nonlinear_dataset(50, seed=12)
        np.testing.assert_array_equal(student.predict(probe), restored.predict(probe))


class TestCli:
    def _write_csv(self, tmp_path, n=120, seed=0):
        ds = separable_dataset(n, seed=seed)
        path = tmp_path / "data.csv"
        write_dataset_csv(ds, path)
        return path

    def test_ingest_reports_schema(self, tmp_path, capsys):
        path = self._write_csv(tmp_path)
        assert cli_main(["ingest", "--data", str(path), "--label", "label"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["rows"] == 120
        assert out["label_column"] == "label"

    def test_train_then_evaluate_matches_exactly(self, tmp_path, capsys):
        path = self._write_csv(tmp_path)
        model_path = tmp_path / "model.json"
        assert cli_main(["train", "--data", str(path), "--label", "label",
                         "--out", str(model_path), "--kind", "gbdt",
                         "--params", '{"rounds": 5}']) == 0
        train_report = json.loads(capsys.readouterr().out)["train"]
        assert cli_main(["evaluate", "--model", str(model_path), "--data",
                         str(path), "--label", "label"]) == 0
        eval_report = json.loads(capsys.readouterr().out)
        assert eval_report["auc"] == train_report["auc"]

    def test_evaluate_int_cells_on_a_float_column(self, tmp_path, capsys):
        # the model's x is a float column; integer cells score as their floats
        lines = [f"{x},{y}" for x, y in zip([0.5, 1.5, 2.5, 3.5] * 10, [0, 0, 1, 1] * 10)]
        (tmp_path / "fit.csv").write_text("x,label\n" + "\n".join(lines) + "\n")
        (tmp_path / "ints.csv").write_text("x,label\n1,0\n2,0\n3,1\n")
        (tmp_path / "floats.csv").write_text("x,label\n1.0,0\n2.0,0\n3.0,1\n")
        model = str(tmp_path / "m.json")
        assert cli_main(["train", "--data", str(tmp_path / "fit.csv"), "--label", "label",
                         "--out", model, "--params", '{"rounds": 3}']) == 0
        reports = []
        for name in ("ints.csv", "floats.csv"):
            capsys.readouterr()
            assert cli_main(["evaluate", "--model", model, "--data",
                             str(tmp_path / name), "--label", "label"]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        assert reports[0] == reports[1]

    def test_malformed_model_is_data_error(self, tmp_path, capsys):
        path = self._write_csv(tmp_path)
        model_path = tmp_path / "model.json"
        assert cli_main(["train", "--data", str(path), "--label", "label",
                         "--out", str(model_path), "--kind", "gbdt",
                         "--params", '{"rounds": 2}']) == 0
        capsys.readouterr()
        doc = json.loads(model_path.read_text())
        del doc["trees"]
        model_path.write_text(json.dumps(doc))
        assert cli_main(["evaluate", "--model", str(model_path), "--data",
                         str(path), "--label", "label"]) == 2
        assert "trees" in capsys.readouterr().err

    def test_missing_config_is_data_error_naming_path(self, tmp_path, capsys):
        code = cli_main(["pipeline", "--config", str(tmp_path / "missing.json")])
        assert code == 2
        assert "missing.json" in capsys.readouterr().err

    def test_verify_fast_passes(self, tmp_path, capsys):
        assert cli_main(["verify", "--fast", "--out",
                         str(tmp_path / "verify.json")]) == 0
        report = json.loads((tmp_path / "verify.json").read_text())
        assert report["passed"] is True

    def test_distill_ensemble_opt_deploy_chain(self, tmp_path, capsys):
        path = self._write_csv(tmp_path, n=200, seed=1)
        out_dir = tmp_path / "chain"
        assert cli_main(["distill", "--data", str(path), "--label", "label",
                         "--out-dir", str(out_dir), "--generations", "2",
                         "--kind", "gbdt", "--params", '{"rounds": 4}']) == 0
        capsys.readouterr()
        models = sorted(str(p) for p in out_dir.glob("gen*.json"))
        assert len(models) == 3
        ens_path = tmp_path / "ens.json"
        assert cli_main(["ensemble-opt", "--models", *models, "--valid",
                         str(path), "--label", "label", "--out",
                         str(ens_path)]) == 0
        capsys.readouterr()
        final_path = tmp_path / "final.json"
        assert cli_main(["deploy-distill", "--ensemble", str(ens_path),
                         "--data", str(path), "--label", "label", "--out",
                         str(final_path), "--params", '{"rounds": 4}']) == 0
        capsys.readouterr()
        assert cli_main(["evaluate", "--model", str(final_path), "--data",
                         str(path), "--label", "label"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert 0.0 <= report["auc"] <= 1.0

    def test_pipeline_subcommand_runs(self, tmp_path, capsys):
        ds = separable_dataset(200, seed=2)
        write_dataset_csv(ds, tmp_path / "data.csv")
        cfg_path = _write_config(tmp_path, _minimal_config(tmp_path, rounds=3))
        assert cli_main(["pipeline", "--config", str(cfg_path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert "run_id" in out and "metrics" in out

    def test_all_constant_features_exit_2(self, tmp_path, capsys):
        # remove_constant_columns leaves no feature to train on
        rows = "".join(f"1,x,{i % 2}\n" for i in range(20))
        (tmp_path / "data.csv").write_text("a,b,label\n" + rows)
        doc = _minimal_config(tmp_path)
        doc["data"]["path"] = str(tmp_path / "data.csv")
        doc["families"]["b"] = {"learner": {"kind": "mlp", "params": {"epochs": 2}}}
        assert cli_main(["pipeline", "--config", str(_write_config(tmp_path, doc))]) == 2
        err = capsys.readouterr().err
        assert "no feature columns" in err and err.count("\n") == 1

    def test_usage_error_exit_code(self):
        assert cli_main(["train", "--data", "x.csv"]) == 1

    def test_training_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "data.csv"
        path.write_text("f1,label\n1.0,0\ninf,1\n2.0,0\n")
        code = cli_main(["train", "--data", str(path), "--label", "label",
                         "--out", str(tmp_path / "m.json"),
                         "--params", '{"rounds": 2}'])
        assert code == 3
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, params, named", [
        pytest.param("mlp", '{"hidden_sizes": 3}', "hidden_sizes", id="hidden_sizes-int"),
        pytest.param("gbdt", "{bad", "--params is not valid JSON", id="not-json"),
        pytest.param("gbdt", "[1]", "JSON object", id="not-object"),
        pytest.param("gbdt", '{"learning_rate": Infinity}', "learning_rate",
                     id="learning_rate-inf"),
        pytest.param("mlp", '{"momentum": true}', "momentum", id="momentum-bool"),
        pytest.param("mlp", '{"batch_norm": "yes"}', "batch_norm", id="batch_norm-str"),
    ])
    def test_malformed_params_exit_2(self, tmp_path, capsys, kind, params, named,
                                     seed="0"):
        path = self._write_csv(tmp_path)
        assert cli_main(["train", "--data", str(path), "--label", "label",
                         "--out", str(tmp_path / "m.json"), "--kind", kind,
                         "--params", params, "--seed", seed]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err
        assert not (tmp_path / "m.json").exists()

    def test_negative_learner_seed_exit_2(self, tmp_path, capsys):
        self.test_malformed_params_exit_2(tmp_path, capsys, "mlp", '{"epochs": 1}',
                                          "learner seed", seed="-1")

    @pytest.mark.parametrize("command, named", [
        pytest.param(["distill", "--generations", "1", "--seed", "-1"], "split seed", id="distill"),
        pytest.param(["verify", "--fast", "--seed", "-20"], "verify seed", id="verify"),
    ])
    def test_negative_seed_exit_2(self, tmp_path, capsys, command, named):
        seed = command[-1]
        if command[0] == "distill":
            command = [*command, "--data", str(self._write_csv(tmp_path)), "--label", "label",
                       "--out-dir", str(tmp_path / "chain"), "--params", '{"rounds": 2}']
        assert cli_main(command) == 2
        assert capsys.readouterr().err == f"error: {named} must be an integer >= 0, got {seed}\n"
        assert not (tmp_path / "chain").exists()

    def test_verification_failure_exit_code(self, monkeypatch, capsys):
        import tabdistill.cli as cli_module

        monkeypatch.setattr(cli_module, "run_verification",
                            lambda seed, fast: {"passed": False})
        assert cli_main(["verify", "--fast"]) == 4

    def _train_model(self, tmp_path, capsys, kind="gbdt", params='{"rounds": 2}'):
        path = self._write_csv(tmp_path)
        model_path = tmp_path / "model.json"
        assert cli_main(["train", "--data", str(path), "--label", "label",
                         "--out", str(model_path), "--kind", kind,
                         "--params", params]) == 0
        capsys.readouterr()
        return path, model_path

    @pytest.mark.parametrize("doc", [
        {"format": "tabdistill.ensemble/v1", "weights": [1.0]},
        {"format": "tabdistill.ensemble/v1", "members": ["model.json"],
         "weights": [0.5, 0.5]},
    ], ids=["no_members", "length_mismatch"])
    def test_malformed_ensemble_is_data_error(self, tmp_path, capsys, doc):
        path, _ = self._train_model(tmp_path, capsys)
        ens_path = tmp_path / "ens.json"
        ens_path.write_text(json.dumps(doc))
        code = cli_main(["deploy-distill", "--ensemble", str(ens_path),
                         "--data", str(path), "--label", "label",
                         "--out", str(tmp_path / "final.json")])
        assert code == 2
        assert "ens.json" in capsys.readouterr().err

    def test_directory_as_model_is_data_error(self, tmp_path, capsys):
        path = self._write_csv(tmp_path)
        assert cli_main(["evaluate", "--model", str(tmp_path), "--data",
                         str(path), "--label", "label"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_blank_ensemble_member_is_data_error(self, tmp_path, capsys):
        path, _ = self._train_model(tmp_path, capsys)
        ens_path = tmp_path / "ens.json"
        ens_path.write_text(json.dumps({"format": "tabdistill.ensemble/v1",
                                        "members": [""], "weights": [1.0]}))
        code = cli_main(["deploy-distill", "--ensemble", str(ens_path),
                         "--data", str(path), "--label", "label",
                         "--out", str(tmp_path / "final.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("reader, named", [
        pytest.param("config", "is unreadable or not valid JSON", id="config"),
        pytest.param("model", "unreadable model document", id="model"),
        pytest.param("ensemble", "unreadable ensemble document", id="ensemble"),
        pytest.param("params", "--params is not valid JSON", id="params"),
    ])
    def test_deeply_nested_json_is_data_error(self, tmp_path, capsys, reader, named):
        # nesting beyond the JSON parser's depth fails like any other bad JSON
        nested = "[" * 100_000 + "]" * 100_000
        path = self._write_csv(tmp_path)
        doc = tmp_path / "doc.json"
        doc.write_text(nested)
        data = ["--data", str(path), "--label", "label"]
        argv = {"config": ["pipeline", "--config", str(doc)],
                "model": ["evaluate", "--model", str(doc), *data],
                "ensemble": ["deploy-distill", "--ensemble", str(doc), *data,
                             "--out", str(tmp_path / "m.json")],
                "params": ["train", *data, "--out", str(tmp_path / "m.json"),
                           "--params", nested]}[reader]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda doc: doc.update(base_logit=float("inf")), id="base_logit"),
        pytest.param(lambda doc: first_leaf(doc["trees"][1]).update(value=float("-inf")),
                     id="leaf"),
    ])
    def test_infinite_gbdt_number_is_data_error(self, tmp_path, capsys, edit):
        path, model_path = self._train_model(tmp_path, capsys)
        doc = json.loads(model_path.read_text())
        edit(doc)
        model_path.write_text(json.dumps(doc))  # written as JSON's Infinity
        assert cli_main(["evaluate", "--model", str(model_path), "--data",
                         str(path), "--label", "label"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "finite" in err

    def test_wrong_width_mlp_layer_is_data_error(self, tmp_path, capsys):
        path, model_path = self._train_model(
            tmp_path, capsys, "mlp", '{"hidden_sizes": [4], "epochs": 2}')
        doc = json.loads(model_path.read_text())
        doc["layers"][0]["W"].append(doc["layers"][0]["W"][0])
        model_path.write_text(json.dumps(doc))
        assert cli_main(["evaluate", "--model", str(model_path), "--data",
                         str(path), "--label", "label"]) == 2
        assert "shape" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["ingest", "train", "evaluate", "pipeline"])
    @pytest.mark.parametrize("name, content", [
        pytest.param("latin1.csv", b"x,label\n0.5,0\ncaf\xe9,1\n", id="not-utf-8"),
        pytest.param("long.csv", b"x,label\n" + b"a" * 200_000 + b",1\n", id="long-field"),
        pytest.param("d\x00.csv", None, id="nul-in-path"),
        pytest.param("missing.csv", None, id="missing"),
        pytest.param("folder.csv", "directory", id="directory"),
    ])
    def test_unreadable_csv_exit_2(self, tmp_path, capsys, command, name, content):
        # one line naming the file, and a pipeline leaves no run directory
        if content == "directory":
            (tmp_path / name).mkdir()
        elif content is not None:
            (tmp_path / name).write_bytes(content)
        if command == "pipeline":
            doc = _minimal_config(tmp_path, data_name=name)
            argv = ["pipeline", "--config", str(_write_config(tmp_path, doc))]
        else:
            argv = [command, "--data", str(tmp_path / name), "--label", "label"]
        if command == "train":
            argv += ["--out", str(tmp_path / "m.json")]
        if command == "evaluate":
            argv += ["--model", str(self._train_model(tmp_path, capsys)[1])]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{name}: unreadable CSV" in err
        assert not (tmp_path / "out").exists() and not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("name", ["missing.csv", "folder.csv"])
    def test_missing_or_directory_csv_is_an_ingest_stage_error(self, tmp_path, name):
        # a library caller gets the stage and a DataError, not a raw OSError
        (tmp_path / "folder.csv").mkdir()
        cfg = PipelineConfig.from_json_dict(_minimal_config(tmp_path, data_name=name),
                                            base_dir=tmp_path)
        with pytest.raises(StageError) as caught:
            run_pipeline(cfg)
        assert caught.value.stage == "ingest" and isinstance(caught.value.cause, DataError)
        assert not (tmp_path / "out").exists()


def _drop(*path):
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        del doc[path[-1]]
    return edit


def _put(value, *path):
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return edit


class TestMalformedConfig:
    """Every malformed pipeline config ends in exit code 2 with a one-line
    message naming the offending entry, never a traceback."""

    @pytest.mark.parametrize("edit, named", [
        (lambda doc: {"seed": 1}, "'data'"),
        (_drop("data", "label_column"), "data.label_column"),
        (_drop("data", "path"), "data.path"),
        (_put(3, "data", "path"), "data.path"),
        (_drop("families", "a", "learner", "kind"), "families.a.learner.kind"),
        (_put({"kind": "gbdt", "params": [1]}, "families", "a", "learner"),
         "families.a.learner.params"),
        (_put({"kind": "mlp", "params": {"hidden_sizes": ["x"]}}, "families", "a",
              "learner"), "families.a.learner"),
        (_put({"generations": 1, "gens": 2}, "families", "a", "distill"), "gens"),
        (_put({"generations": 1.5}, "families", "a", "distill"), "generations"),
        (_put({"beta": "x"}, "families", "a", "distill"), "families.a.distill"),
        (_put([1], "families", "a", "distill"), "families.a.distill"),
        (_put({"max_iterations": 3, "iterations": 3}, "ensemble_opt"), "iterations"),
        (_put({"max_iterations": 1.5}, "ensemble_opt"), "max_iterations"),
        (_put({"population_size": "8"}, "ensemble_opt"), "population_size"),
        (_put({"seed": -1}, "ensemble_opt"), "seed"),
        (lambda doc: [doc], "JSON object"),
        (_put("x", "split", "train_fraction"), "split.train_fraction"),
        (_put(None, "split"), "'split'"),
        (_put("x", "seed"), "'seed'"),
        (_put(1.5, "seed"), "'seed'"),
        (_put(-1, "seed"), "'seed'"),
        (_put(-2, "split", "seed"), "split.seed"),
        (_put(-3, "families", "a", "learner", "seed"), "families.a.learner.seed"),
        (_put("false", "preprocess", "remove_constant_columns"),
         "preprocess.remove_constant_columns"),
        (_put(None, "final_distill", "learner"), "final_distill.learner"),
        (_put([], "final_distill", "beta"), "final_distill.beta"),
        (_put(7, "output_dir"), "output_dir"),
        (_put({"learner": {"kind": "gbdt"}}, "families", "c"),
         "pipeline config 'families' has unknown keys ['c']"),
        (_drop("families", "a"), 'pipeline config needs families["a"]'),
        (_put("log", "preprocess", "transform"), "preprocess.transform"),
        (_put(3, "preprocess", "transform"), "preprocess.transform"),
        (_put({}, "final_distil"), "pipeline config has unknown keys ['final_distil']"),
        (_put({"max_iterations": 3}, "ensemble"),
         "pipeline config has unknown keys ['ensemble']"),
        (_put("y", "data", "label"), "pipeline config 'data' has unknown keys ['label']"),
        (_put(0.5, "split", "train_frac"),
         "pipeline config 'split' has unknown keys ['train_frac']"),
        (_put("quantile", "preprocess", "transfrom"),
         "pipeline config 'preprocess' has unknown keys ['transfrom']"),
        (_put({"generations": 1}, "families", "a", "distil"),
         "pipeline config 'families.a' has unknown keys ['distil']"),
        (_put(1, "families", "a", "learner", "sead"),
         "pipeline config 'families.a.learner' has unknown keys ['sead']"),
        (_put(0.5, "final_distill", "treshold"),
         "pipeline config 'final_distill' has unknown keys ['treshold']"),
        (_put(1, "final_distill", "learner", "sead"),
         "pipeline config 'final_distill.learner' has unknown keys ['sead']"),
        # a string or bool where a number or a flag belongs; explicit ids keep
        # the generated ids above unchanged
        pytest.param(_put({"include_original": "no"}, "families", "a", "distill"),
                     "pipeline config 'families.a.distill': include_original must be "
                     "true or false", id="include_original-str"),
        pytest.param(_put({"beta": True}, "families", "a", "distill"),
                     "pipeline config 'families.a.distill': beta must lie in [0, 1]",
                     id="distill-beta-bool"),
        pytest.param(_put(True, "final_distill", "beta"),
                     "pipeline config 'final_distill.beta': beta must lie in [0, 1]",
                     id="final_distill-beta-bool"),
        pytest.param(_put("0.5", "split", "train_fraction"),
                     "pipeline config 'split.train_fraction': train_fraction must lie in "
                     "(0, 1)", id="train_fraction-str"),
        pytest.param(_put({"mutation_factor": True}, "ensemble_opt"),
                     "pipeline config 'ensemble_opt': mutation factor must lie in (0, 2]",
                     id="mutation_factor-bool"),
    ])
    def test_cli_names_the_bad_entry(self, tmp_path, capsys, edit, named):
        doc = _minimal_config(tmp_path)
        doc = edit(doc) or doc
        path = _write_config(tmp_path, doc)
        assert cli_main(["pipeline", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit, named", [
        pytest.param(_put(1.5, "final_distill", "beta"),
                     "pipeline config 'final_distill.beta': beta must lie in [0, 1]",
                     id="beta-above-1"),
        pytest.param(_put(-0.1, "final_distill", "beta"), "final_distill.beta",
                     id="beta-below-0"),
        pytest.param(_put(0, "final_distill", "threshold"),
                     "pipeline config 'final_distill.threshold': "
                     "denoise threshold must lie in (0, 1]",
                     id="threshold-0"),
        pytest.param(_put(-1, "final_distill", "threshold"), "final_distill.threshold",
                     id="threshold-negative"),
        pytest.param(_put(1.01, "final_distill", "threshold"), "final_distill.threshold",
                     id="threshold-above-1"),
        pytest.param(_put({"upper_bound": float("inf")}, "ensemble_opt"),
                     "pipeline config 'ensemble_opt': bounds must be finite",
                     id="upper_bound-inf"),
        pytest.param(_put({"lower_bound": float("-inf")}, "ensemble_opt"), "ensemble_opt",
                     id="lower_bound-inf"),
        pytest.param(_put({"prune_epsilon": float("nan")}, "ensemble_opt"),
                     "pipeline config 'ensemble_opt': prune_epsilon must be nonnegative",
                     id="prune_epsilon-nan"),
    ])
    def test_cli_names_the_out_of_range_entry(self, tmp_path, capsys, edit, named):
        self.test_cli_names_the_bad_entry(tmp_path, capsys, edit, named)

    def test_top_level_list_with_overrides(self, tmp_path, capsys):
        path = _write_config(tmp_path, [_minimal_config(tmp_path)])
        assert cli_main(["pipeline", "--config", str(path), "--seed", "3",
                         "--out", str(tmp_path / "o")]) == 2
        assert "JSON object" in capsys.readouterr().err

    def test_invalid_json_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"seed": 1,')
        assert cli_main(["pipeline", "--config", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_config_that_is_not_utf8_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b'{"seed": 1, "output_dir": "\xff"}')
        assert cli_main(["pipeline", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err

    def test_config_is_read_as_utf8_under_any_locale(self, tmp_path):
        # the data file does not exist, so on every platform the run ends in
        # exit 2 once the config is read; reading it with the C locale's
        # ASCII codec would end in a traceback instead
        doc = _minimal_config(tmp_path, data_name="d\u00e4t\u00e4.csv")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        src = str(Path(tabdistill.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "tabdistill.cli", "pipeline", "--config", str(path)],
            env={**os.environ, "PYTHONPATH": src, "PYTHONUTF8": "0", "LC_ALL": "C"},
            capture_output=True, text=True, errors="replace")
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_overrides_replace_top_level_entries(self, tmp_path):
        doc = _minimal_config(tmp_path, seed=1)
        path = _write_config(tmp_path, doc)
        overridden = load_config(path, {"seed": 5, "output_dir": "elsewhere"})
        expected = PipelineConfig.from_json_dict(
            dict(doc, seed=5, output_dir="elsewhere"), base_dir=tmp_path)
        assert overridden == expected
        assert load_config(path) == PipelineConfig.from_json_dict(doc, base_dir=tmp_path)

    @pytest.mark.parametrize("params", [
        {"rounds": 2.5, "max_depth": 1.9}, {"rounds": 2.0}, {"max_depth": "3"},
        {"rounds": True}])
    def test_non_integer_learner_params_exit_2(self, tmp_path, capsys, params):
        doc = _minimal_config(tmp_path)
        doc["families"]["a"]["learner"]["params"] = params
        path = _write_config(tmp_path, doc)
        assert cli_main(["pipeline", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "families.a.learner" in err
        assert "must be an integer" in err
        assert not (tmp_path / "out").exists()

    def test_non_integer_cli_learner_params_exit_2(self, tmp_path, capsys):
        ds = noisy_nonlinear_dataset(60, seed=1)
        write_dataset_csv(ds, tmp_path / "data.csv")
        assert cli_main(["train", "--data", str(tmp_path / "data.csv"), "--label", "label",
                         "--kind", "mlp", "--params", '{"hidden_sizes": [4.5]}',
                         "--out", str(tmp_path / "m.json")]) == 2
        assert "hidden size" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("make", [
        lambda: DEConfig(max_iterations=1.5),
        lambda: DEConfig(max_iterations=-1),
        lambda: DEConfig(population_size=True),
        lambda: DEConfig(population_size=2),
        lambda: DEConfig(seed="1"),
        lambda: DistillConfig(generations=2.0),
        lambda: DistillConfig(generations=0),
        lambda: DistillConfig(seed=-3),
        lambda: DEConfig(crossover_rate="0.5"),
        lambda: SplitSpec("0.5", 0.2, 0),
        lambda: DistillConfig(denoise_threshold="0.5"),
        lambda: DistillConfig(include_original="no"),
    ])
    def test_integer_fields_are_checked_when_built(self, make):
        with pytest.raises(DataError):
            make()

    def test_numpy_integers_are_accepted(self):
        assert DEConfig(max_iterations=np.int64(3)).max_iterations == 3
        assert DistillConfig(generations=np.int32(2)).generations == 2

    def test_numpy_integers_serialize_like_ints(self, tmp_path):
        de = DEConfig(max_iterations=np.int64(3), population_size=np.int64(8),
                      seed=np.int32(1))
        assert json.dumps(asdict(de)) == json.dumps(
            asdict(DEConfig(max_iterations=3, population_size=8, seed=1)))
        dc = DistillConfig(generations=np.int64(2), seed=np.int16(5))
        assert type(dc.generations) is int and type(dc.seed) is int
        json.dumps(asdict(dc))

        def config(ints):
            doc = _minimal_config(tmp_path)
            doc["families"]["a"]["distill"] = {"generations": ints(2), "seed": ints(7)}
            doc["ensemble_opt"] = {"max_iterations": ints(4), "seed": ints(9)}
            return PipelineConfig.from_json_dict(doc)

        assert config(np.int64).run_id() == config(int).run_id()

    @pytest.mark.parametrize("edit, named, message", [
        (_put({"generations": 1.5}, "families", "a", "distill"), "families.a.distill",
         "generations must be an integer"),
        (_put({"max_iterations": 2.5}, "ensemble_opt"), "ensemble_opt",
         "max_iterations must be an integer"),
        (_put({"beta": 1.5}, "families", "a", "distill"), "families.a.distill",
         "beta must lie in [0, 1]"),
    ])
    def test_config_value_errors_name_the_section(self, tmp_path, capsys, edit, named,
                                                  message):
        doc = _minimal_config(tmp_path)
        edit(doc)
        path = _write_config(tmp_path, doc)
        assert cli_main(["pipeline", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: pipeline config {named!r}: ")
        assert message in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()


_GBDT_PARAMS = {"max_depth": 6, "learning_rate": 0.3, "l2_leaf_penalty": 1.0,
                "min_child_weight": 1.0}


class TestConfigEcho:
    """The echo is what the run id hashes: these literal dicts pin it, and
    with it the seed each family derives from its position."""

    def test_one_family_echoes_b_as_null(self):
        doc = {"data": {"path": "d.csv", "label_column": "y"},
               "families": {"a": {"learner": {"kind": "gbdt", "params": {"rounds": 3}},
                                  "distill": {"generations": 2}}}}
        cfg = PipelineConfig.from_json_dict(doc)
        assert cfg.echo() == {
            "data": {"path": "d.csv", "label_column": "y"},
            "split": {"train_fraction": 0.6, "valid_fraction": 0.2, "seed": 0},
            "preprocess": {"remove_constant_columns": True, "transform": None},
            "families": {
                "a": {"learner": {"kind": "gbdt", "params": {"rounds": 3, **_GBDT_PARAMS},
                                  "seed": 1000},
                      "distill": {"beta": 0.7, "denoise_threshold": 0.99,
                                  "generations": 2, "teacher_mode": "from_last",
                                  "target_mode": "row_weighted",
                                  "include_original": False, "seed": 2000}},
                "b": None},
            "ensemble_opt": None,
            "final_distill": {"learner": {"kind": "gbdt",
                                          "params": {"rounds": 100, **_GBDT_PARAMS},
                                          "seed": 6000},
                              "beta": 0.7, "threshold": 0.99},
            "output_dir": "out",
            "seed": 0,
        }
        assert cfg.run_id() == "71bb9d862b77"

    def test_two_families_written_b_first(self):
        doc = {"data": {"path": "d.csv", "label_column": "y"},
               "families": {
                   "b": {"learner": {"kind": "mlp",
                                     "params": {"hidden_sizes": [4], "epochs": 2}},
                         "distill": {"beta": 0.5}},
                   "a": {"learner": {"kind": "gbdt", "params": {"rounds": 3}},
                         "distill": {"generations": 2}}}}
        cfg = PipelineConfig.from_json_dict(doc)
        assert cfg.echo()["families"] == {
            "a": {"learner": {"kind": "gbdt", "params": {"rounds": 3, **_GBDT_PARAMS},
                              "seed": 1000},
                  "distill": {"beta": 0.7, "denoise_threshold": 0.99, "generations": 2,
                              "teacher_mode": "from_last", "target_mode": "row_weighted",
                              "include_original": False, "seed": 2000}},
            "b": {"learner": {"kind": "mlp",
                              "params": {"hidden_sizes": [4], "epochs": 2,
                                         "batch_size": 256, "learning_rate": 0.01,
                                         "patience": 10, "batch_norm": False,
                                         "momentum": 0.9},
                              "seed": 3000},
                  "distill": {"beta": 0.5, "denoise_threshold": 0.99, "generations": 5,
                              "teacher_mode": "from_last", "target_mode": "row_weighted",
                              "include_original": False, "seed": 4000}},
        }
        assert cfg.run_id() == "f1dd249e1bc2"
