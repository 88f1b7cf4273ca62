"""Command-line interface and model-file persistence."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from kplsvm import cli, model_io, modelsel, qp
from kplsvm.data import load_csv
from kplsvm.errors import DataError, TrainingError
from kplsvm.kernels import KernelSpec
from kplsvm.loss import LossSpec, canonical
from kplsvm.modelsel import evaluate
from kplsvm.trainer import TrainParams, train


@pytest.fixture(scope="module")
def monk3_files(tmp_path_factory):
    """monk3 train/test CSVs plus the corpus manifest directory."""
    root = tmp_path_factory.mktemp("monk3")
    corpus = root / "corpus"
    assert cli.main(["make-data", "--outdir", str(corpus),
                     "--include", "monk3"]) == 0
    lines = (corpus / "monk3.csv").read_text(encoding="utf-8").splitlines()
    train_p = root / "monk3_train.csv"
    test_p = root / "monk3_test.csv"
    train_p.write_text("\n".join(lines[:122]) + "\n", encoding="utf-8")
    test_p.write_text("\n".join(lines[122:]) + "\n", encoding="utf-8")
    return {"train": train_p, "test": test_p, "corpus": corpus}


@pytest.fixture()
def trained_model(monk3_files, tmp_path):
    out = tmp_path / "m.model"
    code = cli.main(["train", "--data", str(monk3_files["train"]),
                     "--c0", "0.125", "--taus", "-0.4,1",
                     "--epsilons", "0.5,-3.5", "--out", str(out)])
    assert code == 0
    return out


class TestModelIO:
    def fit_small(self, rbf=False):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(16, 3))
        y = np.where(X[:, 0] + 0.3 * X[:, 1] > 0, 1.0, -1.0)
        kernel = KernelSpec(kind="rbf", q=2.0) if rbf else KernelSpec()
        params = TrainParams(loss=LossSpec(taus=(-0.4, 1.0),
                                           epsilons=(0.5, -3.5)),
                             c0=0.5, kernel=kernel)
        return train(X, y, params), X

    def test_round_trip_bit_identical(self, tmp_path):
        for rbf in (False, True):
            model, X = self.fit_small(rbf)
            p = tmp_path / f"m{rbf}.json"
            model_io.save_model(model, p)
            loaded = model_io.load_model(p)
            assert np.array_equal(model.decision_function(X),
                                  loaded.decision_function(X))
            assert loaded.kernel == model.kernel
            assert loaded.loss == model.loss
            # and a second save of the loaded model is byte-identical
            p2 = tmp_path / f"m{rbf}_again.json"
            model_io.save_model(loaded, p2)
            assert p.read_bytes() == p2.read_bytes()

    def test_unknown_version_rejected(self, tmp_path):
        model, _ = self.fit_small()
        doc = model_io.model_to_dict(model)
        doc["format_version"] = 99
        with pytest.raises(DataError, match="format_version"):
            model_io.model_from_dict(doc)

    def test_structural_validation(self):
        model, _ = self.fit_small()
        good = model_io.model_to_dict(model)
        bad = dict(good)
        bad["beta"] = bad["beta"][:-1]
        with pytest.raises(DataError, match="beta"):
            model_io.model_from_dict(bad)
        bad = dict(good)
        bad["normalizer"] = {"mins": [0.0], "maxs": [1.0]}
        with pytest.raises(DataError, match="normalizer"):
            model_io.model_from_dict(bad)
        bad = dict(good)
        del bad["bias"]
        with pytest.raises(DataError, match="bias"):
            model_io.model_from_dict(bad)
        # wrong-typed or out-of-range values name their field
        for key, value in (
                ("bias", "x"), ("bias", float("nan")),
                ("c0", None), ("c0", 0.0), ("c0", float("inf")),
                ("c0", 10 ** 400),      # a JSON integer too large for a float
                ("loss", {"taus": 5}),
                ("loss", {"taus": [0.5], "epsilons": []}),
                ("support_x", [[0.0, 1.0, 2.0], [0.0]]),
                ("beta", ["a"] * len(good["beta"])),
                ("beta", [10 ** 400] * len(good["beta"])),
                ("kernel", {**good["kernel"], "q": "wide"}),
                ("normalizer", {**good["normalizer"], "maxs": "a"}),
                ("diagnostics", [1])):
            bad = dict(good)
            bad[key] = value
            with pytest.raises(DataError, match=key):
                model_io.model_from_dict(bad)

    def test_infinite_rbf_width_rejected(self, tmp_path):
        model, _ = self.fit_small(rbf=True)
        p = tmp_path / "m.json"
        model_io.save_model(model, p)
        text = p.read_text(encoding="utf-8")
        assert '"q": 2.0' in text
        p.write_text(text.replace('"q": 2.0', '"q": Infinity'),
                     encoding="utf-8")
        with pytest.raises(DataError, match="finite"):
            model_io.load_model(p)

    def test_infinite_linear_width_rejected(self, tmp_path):
        model, _ = self.fit_small()
        p = tmp_path / "m.json"
        model_io.save_model(model, p)
        text = p.read_text(encoding="utf-8")
        assert '"kind": "linear"' in text and '"q": 1.0' in text
        p.write_text(text.replace('"q": 1.0', '"q": Infinity'),
                     encoding="utf-8")
        with pytest.raises(DataError, match="finite"):
            model_io.load_model(p)

    def test_not_json_is_data_error(self, tmp_path):
        p = tmp_path / "junk.model"
        p.write_bytes(b"\x00\x01 not json")
        with pytest.raises(DataError):
            model_io.load_model(p)

    def test_write_then_rename(self, tmp_path):
        model, _ = self.fit_small()
        p = tmp_path / "m.json"
        model_io.save_model(model, p)
        assert not (tmp_path / "m.json.tmp").exists()
        # a failing write never clobbers an existing good file
        before = p.read_bytes()
        with pytest.raises(OSError):
            model_io.save_model(model, tmp_path / "no_dir" / "m.json")
        assert p.read_bytes() == before

    def test_diagnostics_survive_as_plain_json(self, tmp_path):
        model, _ = self.fit_small()
        p = tmp_path / "m.json"
        model_io.save_model(model, p)
        loaded = model_io.load_model(p)
        assert loaded.diagnostics == model.diagnostics
        assert json.loads(p.read_text(encoding="utf-8"))["format_version"] == 1


class TestTrainCommand:
    def test_summary_and_test_accuracy(self, monk3_files, tmp_path, capsys):
        out = tmp_path / "m.model"
        code = cli.main(["train", "--data", str(monk3_files["train"]),
                         "--c0", "0.125", "--taus", "-0.4,1",
                         "--epsilons", "0.5,-3.5", "--out", str(out),
                         "--test", str(monk3_files["test"])])
        assert code == 0
        text = capsys.readouterr().out
        assert "training accuracy:" in text
        assert "support vectors:" in text
        assert "kkt max residual:" in text
        assert "wall time:" in text
        assert "class balance: p =" in text
        test_acc = float(text.split("test accuracy:")[1].strip())
        assert abs(test_acc - 88.889) <= 2.0
        assert out.exists()

    def test_unfactorable_gram_is_a_solver_error(self, monk3_files,
                                                 tmp_path, capsys,
                                                 monkeypatch):
        # dpotrf fails at every jitter, so gram_factor gives up
        monkeypatch.setattr(qp, "_potrf", lambda a, **kwargs: (a, 1))
        code = cli.main(["train", "--data", str(monk3_files["train"]),
                         "--kernel", "rbf", "--c0", "1", "--taus", "0.4",
                         "--epsilons", "0.5",
                         "--out", str(tmp_path / "m.model")])
        assert code == cli.EXIT_SOLVER == 4
        assert "solver error: Gram matrix is not positive semidefinite" \
            in capsys.readouterr().err

    def test_empty_loss_rejected(self, monk3_files, tmp_path):
        code = cli.main(["train", "--data", str(monk3_files["train"]),
                         "--c0", "1", "--taus", "", "--epsilons", "",
                         "--out", str(tmp_path / "m.model")])
        assert code == cli.EXIT_SOLVER

    def test_flag_errors(self, monk3_files, tmp_path, capsys):
        base = ["train", "--data", str(monk3_files["train"]), "--c0", "1",
                "--out", str(tmp_path / "m.model")]
        assert cli.main(base + ["--taus", "0,1", "--epsilons", "0"]) \
            == cli.EXIT_USAGE
        assert cli.main(base + ["--taus", "zero", "--epsilons", "0"]) \
            == cli.EXIT_USAGE
        # values LossSpec refuses
        assert cli.main(base + ["--taus", "nan", "--epsilons", "0"]) \
            == cli.EXIT_USAGE
        assert cli.main(base + ["--taus", "0", "--epsilons", "inf"]) \
            == cli.EXIT_USAGE
        capsys.readouterr()

    @pytest.mark.parametrize("q", ["inf", "nan"])
    def test_non_finite_linear_width_is_data_error(self, q, monk3_files,
                                                   tmp_path, capsys):
        out = tmp_path / "m.model"
        code = cli.main(["train", "--data", str(monk3_files["train"]),
                         "--c0", "1", "--kernel", "linear", "--q", q,
                         "--out", str(out)])
        assert code == cli.EXIT_DATA
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("c0", ["-1", "0", "nan", "inf"])
    def test_bad_c0_is_usage_error(self, c0, monk3_files, tmp_path, capsys):
        out = tmp_path / "m.model"
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--data", str(monk3_files["train"]),
                      f"--c0={c0}", "--out", str(out)])
        assert exc.value.code == cli.EXIT_USAGE
        assert "--c0: must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_data_file(self, tmp_path):
        code = cli.main(["train", "--data", str(tmp_path / "none.csv"),
                         "--c0", "1", "--out", str(tmp_path / "m.model")])
        assert code == cli.EXIT_DATA

    def test_no_balance_flag(self, monk3_files, tmp_path, capsys):
        code = cli.main(["train", "--data", str(monk3_files["train"]),
                         "--c0", "0.125", "--no-balance",
                         "--out", str(tmp_path / "m.model")])
        assert code == 0
        assert "class balance" not in capsys.readouterr().out
        loaded = model_io.load_model(tmp_path / "m.model")
        assert loaded.diagnostics["balanced"] is False


class TestPredictEval:
    def test_predictions_match_library(self, trained_model, monk3_files,
                                       tmp_path, capsys):
        out = tmp_path / "preds.txt"
        assert cli.main(["predict", "--model", str(trained_model),
                         "--data", str(monk3_files["test"]),
                         "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        model = model_io.load_model(trained_model)
        ds = load_csv(monk3_files["test"])
        assert [int(v) for v in model.predict(ds.X)] == \
            [int(s) for s in lines]
        assert set(lines) <= {"1", "-1"}

    def test_eval_matches_evaluate_exactly(self, trained_model, monk3_files,
                                           capsys):
        assert cli.main(["eval", "--model", str(trained_model),
                         "--data", str(monk3_files["test"])]) == 0
        printed = float(capsys.readouterr().out.strip())
        model = model_io.load_model(trained_model)
        ds = load_csv(monk3_files["test"])
        assert printed == evaluate(model, ds.X, ds.y)

    def test_predict_stdout_and_eval_out_file(self, trained_model,
                                              monk3_files, tmp_path, capsys):
        assert cli.main(["predict", "--model", str(trained_model),
                         "--data", str(monk3_files["test"])]) == 0
        n_lines = len(capsys.readouterr().out.splitlines())
        assert n_lines == 432
        acc_file = tmp_path / "acc.txt"
        assert cli.main(["eval", "--model", str(trained_model),
                         "--data", str(monk3_files["test"]),
                         "--out", str(acc_file)]) == 0
        body = acc_file.read_text(encoding="utf-8")
        assert body.strip() == capsys.readouterr().out.strip()

    def test_dimension_mismatch(self, trained_model, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,0.5\n0,0.25\n", encoding="utf-8")
        assert cli.main(["predict", "--model", str(trained_model),
                         "--data", str(bad)]) == cli.EXIT_DATA
        capsys.readouterr()

    def test_malformed_model_is_data_error(self, trained_model, monk3_files,
                                           tmp_path, capsys):
        doc = json.loads(trained_model.read_text(encoding="utf-8"))
        doc["bias"] = float("nan")
        bad = tmp_path / "bad.model"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["predict", "--model", str(bad),
                         "--data", str(monk3_files["test"])]) == cli.EXIT_DATA
        assert "bias" in capsys.readouterr().err

    @pytest.mark.parametrize("field, key, retype", [
        ("format_version", None, lambda v: True),
        ("c0", None, lambda v: True),
        ("bias", None, str),
        ("kernel", "q", str),
        ("loss", "taus", lambda v: [str(t) for t in v]),
        ("loss", "epsilons", lambda v: [True] * len(v)),
        ("support_x", None, lambda v: [[str(a) for a in row] for row in v]),
        ("beta", None, lambda v: [str(b) for b in v]),
        ("normalizer", "maxs", lambda v: [str(a) for a in v]),
    ], ids=["format_version", "c0", "bias", "kernel.q", "loss.taus",
            "loss.epsilons", "support_x", "beta", "normalizer.maxs"])
    def test_numbers_must_be_json_numbers(self, field, key, retype,
                                          trained_model, monk3_files,
                                          tmp_path, capsys):
        # a numeric string or a boolean is no JSON number, though float()
        # would take either
        doc = json.loads(trained_model.read_text(encoding="utf-8"))
        if key is None:
            doc[field] = retype(doc[field])
        else:
            doc[field][key] = retype(doc[field][key])
        bad = tmp_path / "bad.model"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["predict", "--model", str(bad),
                         "--data", str(monk3_files["test"])]) == cli.EXIT_DATA
        assert field in capsys.readouterr().err


class TestLossCurve:
    def test_reference_point(self, capsys):
        assert cli.main(["loss-curve", "--taus", "0.4,0",
                         "--epsilons", "0,0", "--range", "-1:1",
                         "--step", "0.5"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[0] == "u,loss"
        table = {float(r.split(",")[0]): float(r.split(",")[1])
                 for r in rows[1:]}
        assert table[-1.0] == 0.4          # max(-1, 0.4, 0)
        assert table[1.0] == 1.0
        assert table[0.0] == 0.0

    def test_file_output_and_range_validation(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        assert cli.main(["loss-curve", "--taus", "0", "--epsilons", "0",
                         "--range", "0:1", "--step", "0.25",
                         "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8").startswith("u,loss\n")
        assert cli.main(["loss-curve", "--taus", "0", "--epsilons", "0",
                         "--range", "3:1"]) == cli.EXIT_USAGE
        assert cli.main(["loss-curve", "--taus", "0", "--epsilons", "0",
                         "--range", "nope"]) == cli.EXIT_USAGE
        # non-finite bounds, step or point count, and 10^12 points,
        # refused before anything is allocated
        for flags in (["--step", "inf"], ["--step", "nan"],
                      ["--range", "0:inf"], ["--range=-inf:0"],
                      ["--range", "nan:1"],
                      ["--range", "0:1e300", "--step", "1e-300"],
                      ["--range", "0:1", "--step", "1e-12"]):
            assert cli.main(["loss-curve", "--taus", "0", "--epsilons", "0",
                             *flags]) == cli.EXIT_USAGE, flags
        # loss values LossSpec refuses
        for flags in (["--taus", "nan", "--epsilons", "0"],
                      ["--taus", "0", "--epsilons", "inf"]):
            assert cli.main(["loss-curve", *flags]) == cli.EXIT_USAGE, flags
        capsys.readouterr()


class TestVerify:
    def test_fresh_model_passes(self, trained_model, monk3_files, capsys):
        assert cli.main(["verify", "--model", str(trained_model),
                         "--data", str(monk3_files["train"])]) == 0
        text = capsys.readouterr().out
        for field in ("stationarity_w", "complementarity_max",
                      "primal_feasibility_max", "max residual"):
            assert field in text
        assert "verification OK" in text

    def test_impossible_tolerance_fails(self, trained_model, monk3_files,
                                        capsys):
        assert cli.main(["verify", "--model", str(trained_model),
                         "--data", str(monk3_files["train"]),
                         "--tol", "1e-300"]) == cli.EXIT_VERIFY
        capsys.readouterr()

    def test_unnormalized_model_passes(self, tmp_path, capsys):
        # haberman's raw features span far more than [-1, 1], so a refit
        # with normalization on would not reproduce the stored scores
        corpus = tmp_path / "corpus"
        assert cli.main(["make-data", "--outdir", str(corpus),
                         "--include", "haberman"]) == 0
        data = corpus / "haberman.csv"
        ds = load_csv(data)
        params = TrainParams(loss=LossSpec(taus=(0.4,), epsilons=(0.5,)),
                             c0=1.0)
        model = train(ds.X, ds.y, params, normalize=False)
        assert model.normalizer is None
        model_io.save_model(model, tmp_path / "m.model")
        assert cli.main(["verify", "--model", str(tmp_path / "m.model"),
                         "--data", str(data)]) == 0
        assert "verification OK" in capsys.readouterr().out

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_bad_tol_is_usage_error(self, tol, trained_model, monk3_files,
                                    capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--model", str(trained_model),
                      "--data", str(monk3_files["train"]), "--tol", tol])
        assert exc.value.code == cli.EXIT_USAGE
        assert "--tol" in capsys.readouterr().err

    def test_wrong_data_detected(self, trained_model, monk3_files, capsys):
        # verifying against the test half is not the training problem:
        # either a residual or the score drift must trip
        code = cli.main(["verify", "--model", str(trained_model),
                         "--data", str(monk3_files["test"])])
        assert code == cli.EXIT_VERIFY
        capsys.readouterr()


class TestGridSearchCommand:
    def test_holdout_protocol_run(self, monk3_files, tmp_path, capsys):
        records = tmp_path / "cells.csv"
        code = cli.main(["grid-search", "--data",
                         str(monk3_files["corpus"] / "monk3.csv"),
                         "--n-train", "122", "--predefined-split",
                         "--criterion", "holdout",
                         "--c0-grid", "0.125,1", "--tau-grid", "-0.4,0,0.4",
                         "--eps-grid", "0,0.5", "--out", str(records)])
        assert code == 0
        text = capsys.readouterr().out
        assert "stage 1: C0 =" in text
        for family in ("hinge", "pinball", "2pl", "3pl"):
            assert f"{family}: accuracy" in text
        header = records.read_text(encoding="utf-8").splitlines()[0]
        assert header.startswith("dataset,family,accuracy,time_s,c0,q")

    def test_failed_families_and_cells_are_reported(self, monk3_files,
                                                    capsys, monkeypatch):
        # only the hinge problem trains; every stage-2 cell fails
        real = modelsel.train
        hinge = canonical(LossSpec((0.0,), (0.0,)))

        def hinge_only(X, y, params):
            if params.loss != hinge:
                raise TrainingError("refused")
            return real(X, y, params)

        monkeypatch.setattr(modelsel, "train", hinge_only)
        code = cli.main(["grid-search", "--data",
                         str(monk3_files["corpus"] / "monk3.csv"),
                         "--n-train", "122", "--seed", "3", "--folds", "3",
                         "--jobs", "1", "--c0-grid", "0.125,1",
                         "--tau-grid", "-0.4,0.4", "--eps-grid", "0.5"])
        assert code == 0
        text = capsys.readouterr().out
        assert "stage 1: C0 =" in text and "[cv3]" in text
        assert "hinge: accuracy" in text
        for family in ("pinball", "2pl", "3pl"):
            assert f"{family}: no successful cell" in text
        # 2 hinge cells, then 2 pinball, 2 two-piece and 4 three-piece
        assert "failed cells: 8 / 10" in text

    def test_seed_env_override(self, monk3_files, tmp_path, capsys,
                               monkeypatch):
        args = ["grid-search", "--data",
                str(monk3_files["corpus"] / "monk3.csv"),
                "--n-train", "122", "--criterion", "holdout",
                "--c0-grid", "0.125", "--tau-grid", "0",
                "--eps-grid", "0"]
        monkeypatch.setenv("KPLSVM_SEED", "7")
        assert cli.main(args) == 0
        with_seed_7 = capsys.readouterr().out
        monkeypatch.setenv("KPLSVM_SEED", "8")
        assert cli.main(args) == 0
        with_seed_8 = capsys.readouterr().out
        monkeypatch.setenv("KPLSVM_SEED", "7")
        assert cli.main(args) == 0
        assert capsys.readouterr().out == with_seed_7
        assert with_seed_7 != with_seed_8

    def test_predefined_split_reads_no_seed(self, monk3_files, capsys,
                                            monkeypatch):
        # a predefined split is not seeded, so KPLSVM_SEED is not read
        monkeypatch.setenv("KPLSVM_SEED", "abc")
        code = cli.main(["grid-search", "--data",
                         str(monk3_files["corpus"] / "monk3.csv"),
                         "--n-train", "122", "--predefined-split",
                         "--criterion", "holdout", "--c0-grid", "1",
                         "--tau-grid", "0", "--eps-grid", "0"])
        assert code == 0
        assert "stage 1: C0 = 1" in capsys.readouterr().out

    @pytest.mark.parametrize("flags", [("--c0-grid", "-1"),
                                       ("--q-grid", "nan"),
                                       ("--tau-grid", "0.4,0"),
                                       ("--eps-grid", "")])
    @pytest.mark.parametrize("command", ["grid-search", "bench"])
    def test_refused_grid_is_usage_error(self, command, flags, monk3_files,
                                         tmp_path, capsys):
        # GridSpec refuses the values; the flag, not the data, is at fault
        if command == "grid-search":
            args = ["grid-search", "--data",
                    str(monk3_files["corpus"] / "monk3.csv"),
                    "--n-train", "122", "--kernel", "rbf"]
        else:
            args = ["bench", "--manifest",
                    str(monk3_files["corpus"] / "manifest.csv"),
                    "--outdir", str(tmp_path / "rep"), "--kernel", "rbf"]
        assert cli.main(args + list(flags)) == cli.EXIT_USAGE
        assert flags[0][2:].replace("-", "_") in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()

    def test_negative_seed_flag_is_usage_error(self, monk3_files, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["grid-search", "--data",
                      str(monk3_files["corpus"] / "monk3.csv"),
                      "--n-train", "122", "--seed", "-1"])
        assert exc.value.code == cli.EXIT_USAGE
        assert "--seed" in capsys.readouterr().err

    def test_negative_env_seed_is_data_error(self, monk3_files, capsys,
                                             monkeypatch):
        monkeypatch.setenv("KPLSVM_SEED", "-5")
        code = cli.main(["grid-search", "--data",
                         str(monk3_files["corpus"] / "monk3.csv"),
                         "--n-train", "122", "--c0-grid", "1",
                         "--tau-grid", "0", "--eps-grid", "0"])
        assert code == cli.EXIT_DATA
        assert "non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [("--folds", "1"), ("--folds", "0"),
                                       ("--jobs", "0"), ("--jobs", "-3"),
                                       ("--jobs", "two")])
    @pytest.mark.parametrize("command", ["grid-search", "bench"])
    def test_bad_folds_or_jobs_is_usage_error(self, command, flags,
                                              monk3_files, tmp_path, capsys):
        if command == "grid-search":
            args = ["grid-search", "--data",
                    str(monk3_files["corpus"] / "monk3.csv"),
                    "--n-train", "122"]
        else:
            args = ["bench", "--manifest",
                    str(monk3_files["corpus"] / "manifest.csv"),
                    "--outdir", str(tmp_path / "rep")]
        with pytest.raises(SystemExit) as exc:
            cli.main(args + list(flags))
        assert exc.value.code == cli.EXIT_USAGE
        assert flags[0] in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()


class TestBenchCommand:
    def test_replay_linear_monk3(self, monk3_files, tmp_path, capsys):
        outdir = tmp_path / "rep"
        code = cli.main(["bench", "--manifest",
                         str(monk3_files["corpus"] / "manifest.csv"),
                         "--outdir", str(outdir),
                         "--replay", "benchmarks/replay_linear.csv",
                         "--no-timing"])
        assert code == 0
        capsys.readouterr()
        rows = [r.split(",") for r in
                (outdir / "consolidated.csv")
                .read_text(encoding="utf-8").splitlines()[1:]]
        acc = {r[1]: float(r[2]) for r in rows
               if r[0] == "monk3" and r[2]}
        assert abs(acc["hinge"] - 82.639) <= 2.0
        assert abs(acc["3pl"] - 88.889) <= 2.0
        assert acc["hinge"] <= acc["pinball"] <= acc["2pl"] <= acc["3pl"]

    def test_search_mode_writes_records(self, monk3_files, tmp_path, capsys):
        outdir = tmp_path / "rep"
        code = cli.main(["bench", "--manifest",
                         str(monk3_files["corpus"] / "manifest.csv"),
                         "--outdir", str(outdir),
                         "--criterion", "holdout",
                         "--c0-grid", "0.125", "--q-grid", "1",
                         "--tau-grid", "0", "--eps-grid", "0",
                         "--no-timing"])
        assert code == 0
        capsys.readouterr()
        assert (outdir / "monk3_records.csv").exists()
        assert (outdir / "consolidated.csv").exists()

    def test_replay_row_missing_free_column_is_data_error(
            self, monk3_files, tmp_path, capsys):
        rp = tmp_path / "replay.csv"
        rp.write_text("dataset,family,c0,q,tau1,tau2,eps1,eps2\n"
                      "monk3,2pl,1,,0.4,,,\n", encoding="utf-8")
        code = cli.main(["bench", "--manifest",
                         str(monk3_files["corpus"] / "manifest.csv"),
                         "--outdir", str(tmp_path / "rep"),
                         "--replay", str(rp)])
        assert code == cli.EXIT_DATA
        assert f"{rp}:2: 2pl needs eps1" in capsys.readouterr().err

    def test_rbf_replay_bad_width_is_recorded(self, monk3_files, tmp_path,
                                              capsys):
        # as a bad C0 is: that row fails and the run goes on
        rp = tmp_path / "replay.csv"
        rp.write_text("dataset,family,c0,q,tau1,tau2,eps1,eps2\n"
                      "monk3,hinge,1,2,,,,\n"
                      "monk3,pinball,1,-1,0.4,,,\n", encoding="utf-8")
        outdir = tmp_path / "rep"
        code = cli.main(["bench", "--manifest",
                         str(monk3_files["corpus"] / "manifest.csv"),
                         "--outdir", str(outdir), "--include", "monk3",
                         "--replay", str(rp), "--kernel", "rbf",
                         "--no-timing"])
        assert code == 0
        capsys.readouterr()
        rows = {r.split(",")[1]: r.split(",") for r in
                (outdir / "consolidated.csv")
                .read_text(encoding="utf-8").splitlines()[1:]}
        assert rows["hinge"][2] != "" and rows["pinball"][2] == ""

    def test_unknown_include_is_data_error(self, monk3_files, tmp_path,
                                           capsys):
        code = cli.main(["bench", "--manifest",
                         str(monk3_files["corpus"] / "manifest.csv"),
                         "--outdir", str(tmp_path / "rep"),
                         "--include", "monk3_typo"])
        assert code == cli.EXIT_DATA
        assert "monk3_typo" in capsys.readouterr().err
        assert not (tmp_path / "rep" / "consolidated.csv").exists()

    def test_replay_preset_tables_parse(self):
        from kplsvm.modelsel import _load_replay_table
        lin = _load_replay_table("benchmarks/replay_linear.csv")
        rbf = _load_replay_table("benchmarks/replay_rbf.csv")
        assert len(lin) == 19 and all(len(v) == 4 for v in lin.values())
        assert len(rbf) == 8 and all(len(v) == 4 for v in rbf.values())
        fam3 = [row for row in lin["monk1"] if row[0] == "3pl"][0]
        assert fam3[1] == 0.0625
        assert fam3[3] == (1.0, -0.6) and fam3[4] == (1.5, 1.0)


class TestNotUtf8:
    """A file that does not decode as UTF-8 is a data error naming it."""

    @pytest.mark.parametrize("command", [
        "predict --model", "train --data csv", "train --data libsvm",
        "bench --manifest", "bench --replay"])
    def test_is_data_error(self, command, monk3_files, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff")
        manifest = str(monk3_files["corpus"] / "manifest.csv")
        train = ["train", "--data", str(bad), "--c0", "1", "--taus", "0.4",
                 "--epsilons", "0.5", "--out", str(tmp_path / "m.model")]
        bench = ["bench", "--outdir", str(tmp_path / "rep"), "--no-timing"]
        argv = {
            "predict --model": ["predict", "--model", str(bad),
                                "--data", str(monk3_files["test"])],
            "train --data csv": train,
            "train --data libsvm": train + ["--format", "libsvm"],
            "bench --manifest": bench + ["--manifest", str(bad)],
            "bench --replay": bench + ["--manifest", manifest,
                                       "--replay", str(bad)],
        }[command]
        assert cli.main(argv) == cli.EXIT_DATA
        assert f"{bad}: not UTF-8 text" in capsys.readouterr().err

    def test_bench_dataset_is_a_warning_row(self, monk3_files, tmp_path,
                                            capsys):
        # the run goes on to the manifest's next dataset
        (tmp_path / "latin1.csv").write_bytes("1,caf\xe9\n".encode("latin-1"))
        corpus = monk3_files["corpus"]
        monk3 = (corpus / "manifest.csv").read_text(
            encoding="utf-8").splitlines()[1]
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(
            "name,path,format,n_train,seed\nlatin1,latin1.csv,csv,1,\n"
            + monk3.replace("monk3.csv", str(corpus / "monk3.csv")) + "\n",
            encoding="utf-8")
        outdir = tmp_path / "rep"
        code = cli.main(["bench", "--manifest", str(manifest),
                         "--outdir", str(outdir),
                         "--replay", "benchmarks/replay_linear.csv",
                         "--no-timing"])
        assert code == 0
        capsys.readouterr()
        rows = (outdir / "consolidated.csv").read_text(
            encoding="utf-8").splitlines()[1:]
        latin1 = [r for r in rows if r.startswith("latin1,")]
        assert len(latin1) == 1 and "not UTF-8 text" in latin1[0]
        assert sum(r.startswith("monk3,") for r in rows) >= 4


class TestMakeDataCommand:
    def test_unknown_include_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        code = cli.main(["make-data", "--outdir", str(out),
                         "--include", "haberman,habermann"])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "habermann" in err and "haberman," not in err
        assert not out.exists()


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run([sys.executable, "-m", "kplsvm.cli",
                               "loss-curve", "--taus", "0",
                               "--epsilons", "0", "--range", "0:1",
                               "--step", "1"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "u,loss"

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["transmogrify"])
        assert exc.value.code == 2

    def test_fuse_list_flags(self):
        fused = cli._fuse_list_flags(
            ["train", "--taus", "-0.4,1", "--epsilons", "0.5,-3.5",
             "--out", "m", "--range", "-1:1"])
        assert "--taus=-0.4,1" in fused
        assert "--epsilons=0.5,-3.5" in fused
        assert "--range=-1:1" in fused
        assert "--out" in fused and "m" in fused
