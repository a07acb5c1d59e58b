"""Damaged artifacts: the command that reads one exits 2 with one line."""

import shutil

import pytest

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
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.strip().splitlines()) == 1, err
    assert err.startswith("data error: corrupt") and "Traceback" not in err
    assert not out.exists()
