"""End-to-end command behavior on a small corpus: artifacts, determinism,
exit codes."""

import hashlib
import json
from collections import Counter

import numpy as np
import pytest

from zids import dataset as ds
from zids import preprocess as pp
from zids import synthetic
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
        for name in ("train.zids", "test.zids", "schema.json", "counts.csv",
                     "manifest.json"):
            assert (prepared / name).exists()
        _, _, columns = pp.read_container_columns(prepared / "train.zids")
        assert [c.name for c in columns] == ["coarse", "fine"]

    def test_counts_match_streaming_oracle(self, small_experiment):
        tax = ds.default_taxonomy()
        with open(small_experiment.corpus) as stream:
            seen = Counter(
                tax.category_of(label)
                for block in ds.iter_blocks(stream)
                for label in block.labels
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
        for name in ("train.zids", "test.zids", "schema.json", "counts.csv"):
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
        train = pp.read_container(small_experiment.prepared / "train.zids")
        n_cont = len(ds.CONTINUOUS_POSITIONS)
        assert train.x[:, :n_cont].min() >= 0.0
        assert train.x[:, :n_cont].max() <= 1.0

    def test_artifact_digests_pinned(self, small_experiment):
        """Guards the encoding against drift: any change to parsing,
        encoding, splitting, scaling or the container bytes shows here."""
        expected = {
            "train.zids": "ca95ff190f5d3e6e78e52e550339e24f44ef686bd8ed882dc5c6c00a8a79bb82",
            "test.zids": "15d841ecafc9b36a3c1b421caa4d1b932f90fed933622156789d0ac36d5b9ca4",
            "schema.json": "fa35f4703e850596aae9d1be9b82a7018abef6301ad965fd2a05d45d22d00e3a",
            "counts.csv": "e5026a2778992373417f38d555a0fcfcb75b2a6b95e62c942244ad775b438f79",
        }
        got = {
            name: hashlib.sha256((small_experiment.prepared / name).read_bytes()).hexdigest()
            for name in expected
        }
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
        x, scaling, columns = pp.read_container_columns(source / "test.zids")
        pp.write_container(
            prepared / "test.zids", x[:0], scaling,
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

    def test_ambiguous_label_column_is_data_error(self, tmp_path, capsys):
        # four fine labels: the fine and the coarse column both have 4 classes
        corpus = tmp_path / "four.kdd"
        synthetic.write_corpus(
            corpus, {"normal": 300, "smurf": 300, "neptune": 200, "satan": 100}, seed=0
        )
        prepared, run = tmp_path / "prep", tmp_path / "run"
        assert run_cli("prepare", "--data", corpus, "--out", prepared,
                       "--seed", 0) == 0
        assert run_cli("train", "--prepared", prepared, "--variant", "base",
                       "--out", run, "--seed", 0, "--epochs", 2) == 0
        capsys.readouterr()
        out = tmp_path / "eval"
        rc = run_cli("evaluate", "--model", run / "model.zmlp",
                     "--test", prepared / "test.zids", "--out", out)
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "['coarse', 'fine']" in err[0]
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


class TestLockAndUsage:
    def test_locked_directory(self, small_experiment, tmp_path):
        out = tmp_path / "locked"
        out.mkdir()
        (out / ".zids.lock").write_text("999999")
        rc = run_cli("train", "--prepared", small_experiment.prepared,
                     "--variant", "truncated", "--out", out)
        assert rc == 1

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
