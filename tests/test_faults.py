"""Damaged artifacts and inputs: the command that reads one exits with one
stderr line, no traceback and no output directory."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import zids
from zids import synthetic
from conftest import run_cli

# (artifact, command that reads it)
READERS = [
    ("train.zids", "train"),
    ("test.zids", "train"),
    ("test.zids", "evaluate"),
    ("test.zids", "explain"),
    ("model.zmlp", "evaluate"),
    ("model.zmlp", "explain"),
]

# A header byte of each format: the high half of the row count N of a
# container, the layer count of a model.
HEADER_BYTE = {"train.zids": 14, "test.zids": 14, "model.zmlp": 8}


def damage(path, fault: str) -> None:
    blob = bytearray(path.read_bytes())
    if fault == "truncated":
        del blob[len(blob) // 2:]
    else:
        at = {"header": HEADER_BYTE[path.name], "body": len(blob) // 2,
              "trailer": len(blob) - 1}[fault]
        blob[at] ^= 0xFF
    path.write_bytes(bytes(blob))


def assert_one_line_error(capsys, rc, code, out=None):
    err = capsys.readouterr().err
    assert rc == code
    assert len(err.strip().splitlines()) == 1, err
    assert "Traceback" not in err
    assert out is None or not out.exists()
    return err


@pytest.mark.parametrize("fault", ["header", "body", "trailer", "truncated"])
@pytest.mark.parametrize("artifact, command", READERS)
def test_damaged_artifact_is_one_line_data_error(
    small_experiment, tmp_path, capsys, artifact, command, fault
):
    prepared = tmp_path / "prepared"
    shutil.copytree(small_experiment.prepared, prepared)
    model = tmp_path / "model.zmlp"
    shutil.copy(small_experiment.train("truncated") / "model.zmlp", model)
    damage(model if artifact == "model.zmlp" else prepared / artifact, fault)
    out = tmp_path / "out"
    argv = {
        "train": ("train", "--prepared", prepared, "--variant", "truncated",
                  "--epochs", 1),
        "evaluate": ("evaluate", "--model", model,
                     "--test", prepared / "test.zids"),
        "explain": ("explain", "--model", model, "--prepared", prepared,
                    "--budget", 64),
    }[command]
    capsys.readouterr()
    rc = run_cli(*argv, "--out", out)
    err = assert_one_line_error(capsys, rc, 2, out)
    assert err.startswith("data error: corrupt")


# schema.json edits that explain must refuse, by the message they give.
SCHEMA_FAULTS = {
    "empty": (lambda doc: {}, "malformed feature schema"),
    "renamed_key": (
        lambda doc: {**doc, "vocabularies": {
            ("services" if k == "service" else k): v
            for k, v in doc["vocabularies"].items()}},
        "malformed feature schema",
    ),
    "service_3_short": (
        lambda doc: {**doc, "vocabularies": {
            **doc["vocabularies"], "service": doc["vocabularies"]["service"][:-3]}},
        "encoded columns",
    ),
    "flag_5_long": (
        lambda doc: {**doc, "vocabularies": {
            **doc["vocabularies"],
            "flag": doc["vocabularies"]["flag"] + [f"zz{i}" for i in range(5)]}},
        "encoded columns",
    ),
}


@pytest.mark.parametrize("fault", sorted(SCHEMA_FAULTS))
def test_explain_refuses_schema_that_does_not_fit(
    small_experiment, tmp_path, capsys, fault
):
    edit, message = SCHEMA_FAULTS[fault]
    prepared = tmp_path / "prepared"
    shutil.copytree(small_experiment.prepared, prepared)
    schema = prepared / "schema.json"
    schema.write_text(json.dumps(edit(json.loads(schema.read_text()))))
    model = small_experiment.train("truncated") / "model.zmlp"
    out = tmp_path / "out"
    capsys.readouterr()
    rc = run_cli("explain", "--model", model, "--prepared", prepared,
                 "--budget", 64, "--out", out)
    err = assert_one_line_error(capsys, rc, 2, out)
    assert err.startswith("data error:") and message in err


def non_utf8_corpus(path: Path) -> Path:
    lines = synthetic.generate_lines({"normal": 20, "smurf": 20}, seed=0)
    blob = "".join(line + "\n" for line in lines).encode("utf-8")
    at = blob.index(b",http,")  # a service name on some line
    path.write_bytes(blob[:at + 1] + b"\xff" + blob[at + 2:])
    return path


def test_non_utf8_corpus_is_data_error(tmp_path, capsys):
    corpus = non_utf8_corpus(tmp_path / "corpus.kdd")
    out = tmp_path / "out"
    rc = run_cli("prepare", "--data", corpus, "--out", out)
    err = assert_one_line_error(capsys, rc, 2, out)
    assert err == f"data error: {corpus}: not UTF-8 text: invalid start byte\n"


def test_non_utf8_report_is_data_error(small_experiment, tmp_path, capsys):
    small_experiment.evaluate("truncated")
    good = small_experiment.root / "eval_truncated" / "report.json"
    report = tmp_path / "report.json"
    report.write_bytes(good.read_bytes().replace(b"Normal", b"N\xffrmal", 1))
    capsys.readouterr()
    rc = run_cli("report", "--report", report)
    err = assert_one_line_error(capsys, rc, 2)
    assert err.startswith(f"data error: {report}: not UTF-8 text")


def test_non_utf8_config_is_usage_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_bytes(b'{"epochs": 2, "variant": "tr\xffncated"}')
    out = tmp_path / "out"
    rc = run_cli("train", "--config", config, "--prepared", tmp_path / "void",
                 "--out", out)
    err = assert_one_line_error(capsys, rc, 1, out)
    assert err.startswith("error: config file is not valid JSON")


def test_entry_point_exit_code(tmp_path):
    """`python -m zids` reaches the exit code through entry() and sys.exit."""
    corpus = non_utf8_corpus(tmp_path / "corpus.kdd")
    src = str(Path(zids.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "zids", "prepare", "--data", str(corpus),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("data error:") and "not UTF-8" in proc.stderr
    assert not (tmp_path / "out").exists()
