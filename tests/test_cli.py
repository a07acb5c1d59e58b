"""End-to-end command behavior on a small corpus: artifacts, determinism,
exit codes."""

import contextlib
import csv
import dataclasses
import hashlib
import json
import os
import shutil
import socket
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from zids import dataset as ds
from zids import preprocess as pp
from zids import _blas, cli, mlp, synthetic
from zids.cli import ExperimentConfig, main
from conftest import SMALL_PROFILE, run_cli


class TestConfig:
    def test_master_seed_fills_unset(self):
        cfg = ExperimentConfig(seed=42).resolved()
        assert cfg.split_seed == 42
        assert cfg.train_seed == 42
        assert cfg.background_seed == 42
        assert cfg.explain_seed == 42  # defaults to the background sample

    def test_explicit_seeds_kept(self):
        cfg = ExperimentConfig(seed=1, split_seed=7, explain_seed=9).resolved()
        assert cfg.split_seed == 7
        assert cfg.explain_seed == 9
        assert cfg.train_seed == 1

    def test_bad_variant(self):
        with pytest.raises(Exception):
            ExperimentConfig(variant="huge").resolved()

    def test_config_file_merge(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"epochs": 7, "variant": "base"}))

        class Args:
            pass

        args = Args()
        args.config = str(config)
        args.epochs = 3  # flag overrides file
        from zids.cli import load_config

        cfg = load_config(args)
        assert cfg.epochs == 3
        assert cfg.variant == "base"

    def test_prepare_out_beats_config_beats_default(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"prepared_dir": "from-config"}))

        def prepared_dir(*argv):
            args = cli.build_parser().parse_args(["prepare", *argv])
            return cli.load_config(args).prepared_dir

        assert prepared_dir() == "prepared"
        assert prepared_dir("--config", str(config)) == "from-config"
        assert prepared_dir("--config", str(config), "--out", "from-flag") == "from-flag"

    @pytest.mark.parametrize("field", [
        "seed", "split_seed", "train_seed", "background_seed", "explain_seed",
        "coalition_seed"])
    def test_negative_seed_in_config_is_usage_error(self, tmp_path, capsys, field):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({field: -1}))
        out = tmp_path / "x"
        rc = run_cli("train", "--config", config, "--prepared", tmp_path / "void",
                     "--out", out)
        err = capsys.readouterr().err
        assert rc == 1
        assert err == f"error: {field} must be >= 0: -1\n"
        assert not out.exists()

    def test_unknown_config_field(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"nonsense": 1}))

        class Args:
            pass

        args = Args()
        args.config = str(path)
        from zids.cli import ConfigError, load_config

        with pytest.raises(ConfigError):
            load_config(args)

    @pytest.mark.parametrize(
        "doc",
        [{"epochs": "5"}, {"hidden_dims": "256,112"}, 5, {"epochs": True},
         {"hidden_dims": []}, {"hidden_dims": [0]}],
        ids=["string-epochs", "string-hidden-dims", "not-an-object", "bool-epochs",
             "empty-hidden-dims", "zero-hidden-dim"],
    )
    def test_mistyped_config_is_usage_error(self, tmp_path, capsys, doc):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))

        class Args:
            pass

        args = Args()
        args.config = str(path)
        from zids.cli import ConfigError, load_config

        with pytest.raises(ConfigError):
            load_config(args)
        rc = run_cli("train", "--config", path, "--prepared", tmp_path / "void",
                     "--out", tmp_path / "x")
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1


class TestPrepare:
    def test_artifacts(self, small_experiment):
        prepared = small_experiment.prepared
        for name in ("train.zids", "test.zids", "counts.csv", "manifest.json"):
            assert (prepared / name).exists()
        assert not (prepared / "schema.json").exists()
        _, _, columns = pp.read_container_columns(prepared / "train.zids")
        assert [c.name for c in columns] == ["coarse", "fine"]

    def test_counts_match_streaming_oracle(self, small_experiment):
        seen = Counter(
            ds.CATEGORY_OF[patterns[code].rsplit(",", 1)[1]]
            for patterns, codes in ds.iter_strings(lambda: open(small_experiment.corpus))
            for code in codes
        )
        expected = {category: seen[category] for category in ds.CATEGORIES}
        got = dict(
            line.split(",")
            for line in (small_experiment.prepared / "counts.csv")
            .read_text()
            .strip()
            .splitlines()[1:]
        )
        assert {k: int(v) for k, v in got.items()} == expected

    def test_rerun_byte_identical(self, small_experiment, tmp_path):
        again = tmp_path / "prep2"
        rc = run_cli("prepare", "--data", small_experiment.corpus, "--out", again,
                     "--seed", 0)
        assert rc == 0
        for name in ("train.zids", "test.zids", "counts.csv"):
            assert (again / name).read_bytes() == (
                small_experiment.prepared / name
            ).read_bytes()

    def test_split_sizes(self, small_experiment):
        manifest = json.loads((small_experiment.prepared / "manifest.json").read_text())
        data = manifest["data"]
        assert data["train_rows"] + data["test_rows"] == data["rows"]
        assert data["coarse_classes"] == 4
        assert data["fine_classes"] == len(SMALL_PROFILE)

    def test_scaling_fits_train_only(self, small_experiment):
        train = pp.read_container(small_experiment.prepared / "train.zids", "coarse")
        n_cont = len(ds.CONTINUOUS_POSITIONS)
        assert train.x[:, :n_cont].min() >= 0.0
        assert train.x[:, :n_cont].max() <= 1.0

    def test_artifact_digests_pinned(self, small_experiment):
        """Guards the encoding against drift: any change to parsing,
        encoding, splitting, scaling or the container bytes shows here."""
        expected = {
            "train.zids": "a6d559f66be4f796bec3056197e3863d186648491d55a1a6a02668573e286de1",
            "test.zids": "b4662c84c53977d0987164ba12368e1029b150a433dfbfa29e7fcb2b3905c5eb",
            "counts.csv": "e5026a2778992373417f38d555a0fcfcb75b2a6b95e62c942244ad775b438f79",
        }
        got = {
            name: hashlib.sha256((small_experiment.prepared / name).read_bytes()).hexdigest()
            for name in expected
        }
        assert got == expected

    def test_container_contents_pinned(self, small_experiment):
        """Pins what the containers hold, apart from their layout: the
        digests were taken from the format-1 files of the same corpus, whose
        rows were stored dense and scaled, as read_container gives them."""
        expected = {
            "train.zids": "3ff7ad8a5b02b1eb92d025c5de34d3a0cf7d7737638684abb906952a6b1c4a10",
            "test.zids": "97274a4d07bfdb2537e18d95f366b7c95ed93a89fc0f0cec9c9e5fa41806e043",
        }
        got = {}
        for name in expected:
            path = small_experiment.prepared / name
            _, scaling, columns = pp.read_container_columns(path)
            x = pp.read_container(path, "coarse").rows().dense()
            h = hashlib.sha256(np.ascontiguousarray(x, dtype="<f4").tobytes())
            h.update(np.asarray(scaling, dtype="<f8").tobytes())
            for c in columns:
                h.update(json.dumps([c.name, c.class_names]).encode("utf-8"))
                h.update(np.asarray(c.y, dtype="<u2").tobytes())
            got[name] = h.hexdigest()
        assert got == expected

    def test_corpus_digest_pinned(self, small_experiment):
        """Pins the generator's wire text, which the containers above do not
        see in full: "0.00" and "0.0" parse to the same float."""
        digest = hashlib.sha256(small_experiment.corpus.read_bytes()).hexdigest()
        assert digest == "1ba6c5b26445df007f89c18e799ccdda685befd716a0ac9ba0f8863d027cfac2"

    def test_missing_file_exit_code(self, tmp_path, capsys):
        rc = run_cli("prepare", "--data", tmp_path / "nope.kdd", "--out", tmp_path / "o")
        assert rc == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("fraction, empty", [(0.00001, "test"), (0.99999, "train")])
    def test_empty_split_is_usage_error(
        self, small_experiment, tmp_path, capsys, fraction, empty
    ):
        out = tmp_path / "prepared"
        rc = run_cli("prepare", "--data", small_experiment.corpus, "--out", out,
                     "--test-fraction", fraction)
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and f"{empty} split" in err[0]
        assert not out.exists()

    def test_gzip_input(self, tmp_path):
        import gzip

        corpus = tmp_path / "c.kdd.gz"
        lines = synthetic.generate_lines({"normal": 30, "smurf": 30}, seed=0)
        with gzip.open(corpus, "wt") as fh:
            fh.write("".join(line + "\n" for line in lines))
        rc = run_cli("prepare", "--data", corpus, "--out", tmp_path / "out", "--seed", 1)
        assert rc == 0


class TestTrain:
    def test_truncated_artifacts(self, small_experiment):
        run = small_experiment.train("truncated")
        assert (run / "model.zmlp").exists()
        history = (run / "history.csv").read_text().strip().splitlines()
        assert history[0] == "epoch,train_loss,val_loss,val_accuracy"
        assert len(history) == 1 + 20
        manifest = json.loads((run / "manifest.json").read_text())
        assert manifest["config"]["granularity"] == "coarse"
        assert manifest["model"]["class_weights"] is None

    def test_weighted_variant_logs_weights(self, small_experiment):
        run = small_experiment.train("weighted-truncated")
        manifest = json.loads((run / "manifest.json").read_text())
        weights = manifest["model"]["class_weights"]
        assert weights is not None and len(weights) == 4
        assert abs(np.mean(weights) - 1.0) <= 1e-9

    def test_hidden_dims_override(self, small_experiment, tmp_path):
        out = tmp_path / "tiny"
        rc = run_cli("train", "--prepared", small_experiment.prepared,
                     "--variant", "truncated", "--out", out, "--seed", 0,
                     "--hidden-dims", "8", "--epochs", 2)
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        d = manifest["config"]["dims"][0]
        assert manifest["config"]["dims"] == [d, 8, 4]
        assert manifest["model"]["parameter_count"] == (d + 1) * 8 + 9 * 4

    def test_bad_variant_is_usage_error(self, small_experiment, tmp_path):
        rc = run_cli("train", "--prepared", small_experiment.prepared,
                     "--variant", "gigantic", "--out", tmp_path / "x")
        assert rc == 1

    def test_bad_epochs_is_usage_error(self, small_experiment, tmp_path):
        rc = run_cli("train", "--prepared", small_experiment.prepared,
                     "--variant", "truncated", "--out", tmp_path / "x",
                     "--epochs", 0)
        assert rc == 1
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("dims", ["abc", "0", ""])
    def test_bad_hidden_dims_is_usage_error(self, tmp_path, capsys, dims):
        rc = run_cli("train", "--prepared", tmp_path / "void", "--variant", "truncated",
                     "--out", tmp_path / "x", "--hidden-dims", dims)
        assert rc == 1
        err = capsys.readouterr().err
        assert "hidden dims" in err
        assert len(err.strip().splitlines()) == 1

    def test_containers_naming_other_columns_are_data_error(
        self, small_experiment, tmp_path, capsys
    ):
        """train.zids and test.zids must name the same columns, not only
        have the same width: here test.zids lists its flag values in
        reverse order."""
        prepared = tmp_path / "prepared"
        shutil.copytree(small_experiment.prepared, prepared)
        rows, scaling, columns = pp.read_container_columns(prepared / "test.zids")
        name, values = rows.fields[-1]
        fields = (*rows.fields[:-1], (name, values[::-1]))
        pp.write_container(prepared / "test.zids", dataclasses.replace(rows, fields=fields),
                           scaling, columns)
        out = tmp_path / "x"
        rc = run_cli("train", "--prepared", prepared, "--variant", "truncated",
                     "--epochs", 1, "--out", out)
        assert rc == 2
        at = pp.read_container(prepared / "train.zids", "coarse").d - len(values)
        assert capsys.readouterr().err == (
            f"data error: {prepared / 'test.zids'} names column {at} "
            f"'flag={values[-1]}' where train.zids names 'flag={values[0]}'\n")
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_learning_rate_is_usage_error(
        self, small_experiment, tmp_path, capsys, source, value
    ):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"learning_rate": value}))  # NaN, Infinity
        lr = ("--learning-rate", value) if source == "flag" else ("--config", config)
        out = tmp_path / "x"
        rc = run_cli("train", "--prepared", small_experiment.prepared,
                     "--variant", "truncated", "--epochs", 1, "--out", out, *lr)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: learning_rate must be finite and > 0")
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_overflowing_training_is_numeric_failure(self, small_experiment, tmp_path,
                                                     capsys):
        """Steps this large overflow the float32 network in the first epoch:
        exit 3 on one line, with no floating-point warning (an error under
        this suite's filterwarnings)."""
        out = tmp_path / "x"
        rc = run_cli("train", "--prepared", small_experiment.prepared,
                     "--variant", "truncated", "--epochs", 2,
                     "--learning-rate", "1e30", "--out", out)
        assert rc == 3
        assert capsys.readouterr().err == "numeric failure: non-finite loss at epoch 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("knob", [("--epochs", 0), ("--learning-rate", "nan")])
    def test_bad_knob_beats_missing_prepared_dir(self, tmp_path, capsys, knob):
        """Training knobs are checked before any container is read."""
        out = tmp_path / "x"
        rc = run_cli("train", "--prepared", tmp_path / "void", "--variant", "truncated",
                     "--out", out, *knob)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_missing_prepared_dir(self, tmp_path):
        rc = run_cli("train", "--prepared", tmp_path / "void",
                     "--variant", "truncated", "--out", tmp_path / "x")
        assert rc == 2
        assert not (tmp_path / "x").exists()
        rc = run_cli("train", "--prepared", tmp_path / "void",
                     "--variant", "truncated", "--out", tmp_path / "a" / "b" / "c")
        assert rc == 2
        assert not (tmp_path / "a").exists()

    def test_empty_validation_set_is_data_error(
        self, small_experiment, tmp_path, capsys
    ):
        prepared = tmp_path / "prepared"
        prepared.mkdir()
        source = small_experiment.prepared
        (prepared / "train.zids").write_bytes((source / "train.zids").read_bytes())
        rows, scaling, columns = pp.read_container_columns(source / "test.zids")
        pp.write_container(
            prepared / "test.zids", rows[:0], scaling,
            [pp.LabelColumn(c.name, c.class_names, c.y[:0]) for c in columns],
        )
        out = tmp_path / "x"
        rc = run_cli("train", "--prepared", prepared, "--variant", "truncated",
                     "--out", out)
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "validation set has no rows" in err[0]
        assert not out.exists()


class TestEvaluate:
    def test_report_row_order(self, small_experiment):
        rep = small_experiment.evaluate("truncated")
        assert [c["name"] for c in rep["classes"]] == list(ds.CATEGORIES)

    def test_confusion_consistent_with_accuracy(self, small_experiment):
        small_experiment.evaluate("truncated")
        eval_dir = small_experiment.root / "eval_truncated"
        lines = (eval_dir / "confusion.csv").read_text().strip().splitlines()
        matrix = np.array([r.split(",")[1:] for r in lines[1:]], dtype=int)
        rep = json.loads((eval_dir / "report.json").read_text())
        assert rep["accuracy"] == pytest.approx(
            np.trace(matrix) / matrix.sum(), abs=1e-12
        )
        assert matrix.sum() == rep["total_support"]

    def test_fine_model_picks_fine_column(self, small_experiment):
        rep = small_experiment.evaluate("base")
        assert len(rep["classes"]) == len(SMALL_PROFILE)

    def test_width_mismatch_exit_code(self, small_experiment, tmp_path):
        other_corpus = tmp_path / "other.kdd"
        synthetic.write_corpus(other_corpus, {"normal": 40, "smurf": 40}, seed=1)
        rc = run_cli("prepare", "--data", other_corpus, "--out", tmp_path / "otherprep",
                     "--seed", 0)
        assert rc == 0
        model = small_experiment.train("truncated") / "model.zmlp"
        rc = run_cli("evaluate", "--model", model,
                     "--test", tmp_path / "otherprep" / "test.zids",
                     "--out", tmp_path / "res")
        assert rc == 2

    def test_four_fine_labels_each_model_reads_its_own_column(
        self, tmp_path, capsys
    ):
        # The fine and the coarse column both have 4 classes; each model
        # is scored under the column its file names.
        corpus = tmp_path / "four.kdd"
        synthetic.write_corpus(
            corpus, {"normal": 300, "smurf": 300, "neptune": 200, "satan": 100}, seed=0
        )
        prepared = tmp_path / "prep"
        assert run_cli("prepare", "--data", corpus, "--out", prepared,
                       "--seed", 0) == 0
        expected = {"base": ["neptune", "normal", "satan", "smurf"],
                    "truncated": list(ds.CATEGORIES)}
        for variant, class_names in expected.items():
            run, out = tmp_path / variant, tmp_path / f"eval_{variant}"
            assert run_cli("train", "--prepared", prepared, "--variant", variant,
                           "--out", run, "--seed", 0, "--epochs", 2) == 0
            assert run_cli("evaluate", "--model", run / "model.zmlp",
                           "--test", prepared / "test.zids", "--out", out) == 0
            rep = json.loads((out / "report.json").read_text())
            assert [c["name"] for c in rep["classes"]] == class_names
            manifest = json.loads((run / "manifest.json").read_text())
            assert rep["accuracy"] == manifest["result"]["final_val_accuracy"]
        capsys.readouterr()
        out = tmp_path / "explain_base"
        rc = run_cli("explain", "--model", tmp_path / "base" / "model.zmlp",
                     "--prepared", prepared, "--out", out, "--budget", 64)
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "coarse model" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "explain"])
    def test_container_naming_other_values_is_data_error(
        self, small_experiment, tmp_path, capsys, command
    ):
        """The model names its input columns: a test.zids of the model's
        width whose service value http is renamed zzz (and the values
        re-sorted) is refused."""
        prepared = tmp_path / "prepared"
        shutil.copytree(small_experiment.prepared, prepared)
        test = prepared / "test.zids"
        rows, scaling, columns = pp.read_container_columns(test)
        (name, values), = [f for f in rows.fields if f[0] == "service"]
        in_old_order = ["zzz" if v == "http" else v for v in values]
        renamed = sorted(in_old_order)
        new_code = np.array([renamed.index(v) for v in in_old_order])
        j = rows.fields.index((name, values))
        codes = rows.codes.copy()
        codes[j] = new_code[codes[j]]
        fields = (*rows.fields[:j], (name, tuple(renamed)), *rows.fields[j + 1:])
        pp.write_container(test, dataclasses.replace(rows, codes=codes, fields=fields),
                           scaling, columns)
        model = small_experiment.train("truncated") / "model.zmlp"
        out = tmp_path / "out"
        argv = {"evaluate": ("evaluate", "--model", model, "--test", test),
                "explain": ("explain", "--model", model, "--prepared", prepared,
                            "--budget", 64)}[command]
        capsys.readouterr()
        rc = run_cli(*argv, "--out", out)
        assert rc == 2
        i = values.index("http")
        at = len(rows.float_names) + sum(rows.widths[:j]) + i
        assert capsys.readouterr().err == (
            f"data error: {test} names column {at} 'service={renamed[i]}' "
            "where the model names 'service=http'\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "variant", ["base", "weighted-base", "truncated", "weighted-truncated"]
    )
    def test_accuracy_equals_final_validation_accuracy(
        self, small_experiment, variant
    ):
        # the full test split is the validation set of every epoch
        rep = small_experiment.evaluate(variant)
        manifest = json.loads(
            (small_experiment.train(variant) / "manifest.json").read_text()
        )
        assert rep["accuracy"] == manifest["result"]["final_val_accuracy"]

    def test_format_1_container_is_data_error(self, small_experiment, tmp_path, capsys):
        blob = bytearray((small_experiment.prepared / "test.zids").read_bytes())
        blob[4:8] = (1).to_bytes(4, "little")
        old = tmp_path / "test.zids"
        old.write_bytes(bytes(blob))
        out = tmp_path / "eval"
        rc = run_cli("evaluate", "--model",
                     small_experiment.train("truncated") / "model.zmlp",
                     "--test", old, "--out", out)
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"data error: {old}: unsupported format version 1 (supported: 5)"]
        assert not out.exists()

    def test_report_command_pretty_prints(self, small_experiment, capsys):
        small_experiment.evaluate("truncated")
        rc = run_cli("report", "--report",
                     small_experiment.root / "eval_truncated" / "report.json")
        assert rc == 0
        out = capsys.readouterr().out
        assert "Weighted average" in out

    @pytest.mark.parametrize("doc", [{"classes": []}, []])
    def test_report_command_rejects_malformed_report(self, tmp_path, capsys, doc):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(doc))
        rc = run_cli("report", "--report", path)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:")
        assert len(err.strip().splitlines()) == 1


class TestExplain:
    def test_artifacts(self, small_experiment):
        out = small_experiment.explain("truncated")
        top5 = (out / "top5.csv").read_text().strip().splitlines()
        assert top5[0] == "class,rank,feature,mean_abs_shap"
        assert len(top5) == 1 + 4 * 5  # five rows per coarse class
        for category in ds.CATEGORIES:
            per_class = (out / f"shap_{category}.csv").read_text().splitlines()
            assert per_class[0].startswith("base_value,")
            assert len(per_class) == 2 + 12  # header rows + explained rows

    def test_names_come_from_the_container(self, small_experiment, tmp_path):
        """explain takes the encoded column names from test.zids: each
        shap_*.csv header names the container's columns."""
        prepared = tmp_path / "prepared"
        shutil.copytree(small_experiment.prepared, prepared)
        out = tmp_path / "explain"
        rc = run_cli("explain", "--model",
                     small_experiment.train("truncated") / "model.zmlp",
                     "--prepared", prepared, "--out", out, "--budget", 64,
                     "--explain-n", 2, "--background-n", 4)
        assert rc == 0
        names = pp.read_container(prepared / "test.zids", "coarse").feature_names
        assert names[0] == "duration" and "service=http" in names
        for category in ds.CATEGORIES:
            lines = (out / f"shap_{category}.csv").read_text().splitlines()
            assert next(csv.reader([lines[1]])) == names

    def test_efficiency_logged_within_tolerance(self, small_experiment):
        out = small_experiment.explain("truncated")
        manifest = json.loads((out / "manifest.json").read_text())
        residuals = manifest["efficiency_max_residual"]
        assert set(residuals) == set(ds.CATEGORIES)
        assert max(residuals.values()) <= 1e-6

    def test_seeds_change_sample_indices(self, small_experiment, tmp_path):
        model = small_experiment.train("truncated") / "model.zmlp"
        outs = []
        for seed in (1, 2):
            out = tmp_path / f"ex{seed}"
            rc = run_cli("explain", "--model", model,
                         "--prepared", small_experiment.prepared, "--out", out,
                         "--seed", seed, "--budget", 64, "--explain-n", 4,
                         "--background-n", 8)
            assert rc == 0
            outs.append(json.loads((out / "manifest.json").read_text()))
        assert (outs[0]["samples"]["explained_indices"]
                != outs[1]["samples"]["explained_indices"])

    def test_default_out_is_beside_the_model(self, small_experiment, tmp_path,
                                             monkeypatch):
        """Without --out, train writes runs/<variant> and explain the
        explain directory beside its model, so explaining one variant
        leaves another variant's training run as it was."""
        monkeypatch.chdir(tmp_path)
        for variant in ("truncated", "weighted-truncated"):
            assert run_cli("train", "--prepared", small_experiment.prepared,
                           "--variant", variant, "--epochs", 1) == 0
        trained = sorted(os.listdir(tmp_path / "runs" / "truncated"))
        assert run_cli("explain", "--model", "runs/weighted-truncated/model.zmlp",
                       "--prepared", small_experiment.prepared, "--budget", 64,
                       "--explain-n", 3, "--background-n", 5) == 0
        assert sorted(os.listdir(tmp_path / "runs" / "truncated")) == trained
        manifest = json.loads((tmp_path / "runs/truncated/manifest.json").read_text())
        assert manifest["command"] == "train"
        out = tmp_path / "runs" / "weighted-truncated" / "explain"
        assert json.loads((out / "manifest.json").read_text())["command"] == "explain"
        assert (out / "top5.csv").is_file()

    def test_fine_model_rejected(self, small_experiment, tmp_path):
        model = small_experiment.train("base") / "model.zmlp"
        rc = run_cli("explain", "--model", model,
                     "--prepared", small_experiment.prepared,
                     "--out", tmp_path / "bad", "--budget", 64)
        assert rc == 2

    def test_budget_below_two_is_usage_error(self, small_experiment, tmp_path, capsys):
        model = small_experiment.train("truncated") / "model.zmlp"
        rc = run_cli("explain", "--model", model,
                     "--prepared", small_experiment.prepared,
                     "--out", tmp_path / "tiny", "--budget", 1)
        assert rc == 1
        assert "budget" in capsys.readouterr().err
        assert not (tmp_path / "tiny").exists()

    @pytest.mark.parametrize("missing", ["--prepared", "--model"])
    def test_budget_beats_missing_input(self, small_experiment, tmp_path, capsys, missing):
        """The budget is checked before the model or any container is read."""
        paths = {"--model": small_experiment.train("truncated") / "model.zmlp",
                 "--prepared": small_experiment.prepared, missing: tmp_path / "void"}
        out = tmp_path / "x"
        capsys.readouterr()
        rc = run_cli("explain", *(a for flag, path in paths.items() for a in (flag, path)),
                     "--out", out, "--budget", 1)
        err = capsys.readouterr().err
        assert rc == 1
        assert err == "error: budget must be >= 2: 1\n"
        assert not out.exists()

    def test_ridge_fallback_warns(self, small_experiment, tmp_path, capsys):
        """A default explain needs no ridge and prints no warning; at budget 2
        the coalition system is singular and the ridge fallback says so."""
        model = small_experiment.train("truncated") / "model.zmlp"
        for budget in ((), ("--budget", 2)):
            out = tmp_path / f"budget{len(budget)}"
            capsys.readouterr()
            assert run_cli("explain", "--model", model, "--prepared",
                           small_experiment.prepared, "--out", out, *budget) == 0
            warnings = [line for line in capsys.readouterr().err.splitlines()
                        if line.startswith("warning:")]
            ridge_used = json.loads((out / "manifest.json").read_text())["numerics"]["ridge_used"]
            assert ridge_used is bool(budget)
            assert len(warnings) == (1 if budget else 0), warnings

    def test_manifest_records_numerics(self, small_experiment):
        out = small_experiment.explain("truncated")
        manifest = json.loads((out / "manifest.json").read_text())
        numerics = manifest["numerics"]
        config = manifest["config"]
        masked = config["explain_n"] * config["budget"] * config["background_n"]
        assert numerics["masked_rows"] == masked
        rows = config["explain_n"] + config["background_n"]
        assert rows < numerics["model_rows"] < rows + masked
        assert numerics["ridge_used"] is False
        assert 1.0 <= numerics["gram_condition"] < 1e6
        blas_threads = manifest["threads"]["blas_threads"]
        assert blas_threads is None or isinstance(blas_threads, int)
        assert 1 <= numerics["workers"] <= (blas_threads or 1)
        # the explained rows are the first of the background rows, so every
        # pair of two distinct explained rows is evaluated once for both
        test = pp.read_container(small_experiment.prepared / "test.zids", "coarse")
        explained = test.rows(np.array(manifest["samples"]["explained_indices"])).dense()
        distinct = len({row.tobytes() for row in explained})
        assert 1 < distinct <= config["explain_n"]
        assert numerics["shared_pairs"] == distinct * (distinct - 1) // 2

    def test_explained_rows_sent_to_the_model_once(self, small_experiment,
                                                   tmp_path, monkeypatch):
        """The efficiency residuals reuse kernel_shap's f(x): the explained
        rows, float32 as stored, reach the model in one call."""
        model = small_experiment.train("truncated") / "model.zmlp"
        digests = []
        forward = mlp.forward

        def counting(net, z):
            digests.append(hashlib.sha256(np.ascontiguousarray(z).tobytes()).digest())
            return forward(net, z)

        monkeypatch.setattr(mlp, "forward", counting)
        out = tmp_path / "once"
        assert run_cli("explain", "--model", model, "--prepared", small_experiment.prepared,
                       "--out", out, "--budget", 64, "--explain-n", 5) == 0
        monkeypatch.undo()
        manifest = json.loads((out / "manifest.json").read_text())
        test = pp.read_container(small_experiment.prepared / "test.zids", "coarse")
        idx = np.array(manifest["samples"]["explained_indices"])
        rows = test.rows(idx).dense(np.empty((idx.size, test.d), np.float32))
        assert digests.count(hashlib.sha256(rows.tobytes()).digest()) == 1
        assert max(manifest["efficiency_max_residual"].values()) <= 1e-6

    def test_manifest_counts_constant_features(self, small_experiment):
        """Per explained row, the encoded columns where it equals every
        background row; the manifest keeps their least and most."""
        manifest = json.loads(
            (small_experiment.explain("truncated") / "manifest.json").read_text()
        )
        test = pp.read_container(small_experiment.prepared / "test.zids", "coarse")
        samples = manifest["samples"]
        bg = test.rows(np.array(samples["background_indices"])).dense()
        rows = test.rows(np.array(samples["explained_indices"])).dense()
        counts = [int((bg == row).all(axis=0).sum()) for row in rows]
        assert manifest["numerics"]["constant_features"] == {
            "min": min(counts), "max": max(counts)}
        assert 0 < min(counts) < test.d

    def test_one_worker_writes_the_same_artifacts(self, small_experiment,
                                                  tmp_path, monkeypatch):
        pooled = small_experiment.explain("truncated")
        pinned = _blas.single_threaded

        @contextlib.contextmanager
        def one_worker():  # BLAS still at 1 thread, as under the pool
            with pinned():
                yield 1

        monkeypatch.setattr(_blas, "single_threaded", one_worker)
        out = tmp_path / "serial"
        rc = run_cli("explain", "--model",
                     small_experiment.train("truncated") / "model.zmlp",
                     "--prepared", small_experiment.prepared, "--out", out,
                     "--seed", small_experiment.seed, "--budget", 300,
                     "--explain-n", 12, "--background-n", 25)
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["numerics"]["workers"] == 1
        names = sorted(p.name for p in pooled.iterdir())
        assert sorted(p.name for p in out.iterdir()) == names
        for name in names:
            if name != "manifest.json":
                assert (out / name).read_bytes() == (pooled / name).read_bytes(), name


class TestLockAndUsage:
    def test_locked_directory(self, small_experiment, tmp_path):
        out = tmp_path / "locked"
        out.mkdir()
        (out / ".zids.lock").write_text("999999")
        rc = run_cli("train", "--prepared", small_experiment.prepared,
                     "--variant", "truncated", "--out", out)
        assert rc == 1

    @staticmethod
    def dead_pid():
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()
        return child.pid

    def prepare_into_locked(self, small_experiment, tmp_path, lock_text):
        out = tmp_path / "locked"
        out.mkdir()
        (out / ".zids.lock").write_text(lock_text)
        rc = run_cli("prepare", "--data", small_experiment.corpus, "--out", out)
        return rc, out

    def test_stale_lock_taken_over(self, small_experiment, tmp_path, capsys):
        pid = self.dead_pid()
        rc, out = self.prepare_into_locked(
            small_experiment, tmp_path, f"{pid} {socket.gethostname()}")
        assert rc == 0
        err = capsys.readouterr().err
        assert err == (f"warning: took over the lock {out / '.zids.lock'} "
                       f"of dead process {pid}\n")
        assert (out / "train.zids").is_file()
        assert not (out / ".zids.lock").exists()

    @pytest.mark.parametrize(
        "owner", ["live_pid", "other_host", "no_host", "huge_pid", "unicode_digit"])
    def test_lock_kept(self, small_experiment, tmp_path, capsys, owner):
        host = socket.gethostname()
        lock_text = {
            "live_pid": f"{os.getpid()} {host}",
            "other_host": f"{self.dead_pid()} not-{host}",
            "no_host": str(self.dead_pid()),
            "huge_pid": f"{2**64} {host}",  # more than os.kill takes
            "unicode_digit": f"\u00b2 {host}",  # "²": isdigit(), yet not int()
        }[owner]
        rc, out = self.prepare_into_locked(small_experiment, tmp_path, lock_text)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: output directory is locked")
        assert (out / ".zids.lock").read_text() == lock_text
        assert sorted(p.name for p in out.iterdir()) == [".zids.lock"]

    def test_lock_names_pid_and_host(self, tmp_path):
        out = tmp_path / "out"
        with cli._locked_dir(out):
            text = (out / ".zids.lock").read_text()
        assert text == f"{os.getpid()} {socket.gethostname()}"

    def test_failed_command_keeps_existing_out_dir(self, tmp_path):
        out = tmp_path / "existing"
        out.mkdir()
        rc = run_cli("train", "--prepared", tmp_path / "void",
                     "--variant", "truncated", "--out", out)
        assert rc == 2
        assert out.is_dir() and not any(out.iterdir())

    def test_lock_released_after_run(self, small_experiment):
        run = small_experiment.train("truncated")
        assert not (run / ".zids.lock").exists()

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 1

    def test_no_command(self):
        assert main([]) == 1


class TestEndToEndDeterminism:
    def test_two_runs_byte_identical(self, tmp_path):
        """Full chain twice with one config; artifacts must match exactly."""
        corpus = tmp_path / "corpus.kdd"
        synthetic.write_corpus(corpus, SMALL_PROFILE, seed=0)
        artifacts = {}
        for run in ("one", "two"):
            root = tmp_path / run
            assert run_cli("prepare", "--data", corpus, "--out", root / "prep",
                           "--seed", 3) == 0
            assert run_cli("train", "--prepared", root / "prep",
                           "--variant", "weighted-truncated",
                           "--out", root / "model", "--seed", 3,
                           "--epochs", 5) == 0
            assert run_cli("evaluate", "--model", root / "model" / "model.zmlp",
                           "--test", root / "prep" / "test.zids",
                           "--out", root / "eval") == 0
            assert run_cli("explain", "--model", root / "model" / "model.zmlp",
                           "--prepared", root / "prep", "--out", root / "shap",
                           "--seed", 3, "--budget", 128, "--explain-n", 5,
                           "--background-n", 10) == 0
            artifacts[run] = {
                str(p.relative_to(root)): p.read_bytes()
                for p in sorted(root.rglob("*"))
                if p.is_file() and p.name != "manifest.json"
            }
        assert artifacts["one"].keys() == artifacts["two"].keys()
        for name in artifacts["one"]:
            assert artifacts["one"][name] == artifacts["two"][name], name
