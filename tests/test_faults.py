"""Damaged artifacts and inputs: the command that reads one exits with one
stderr line, no traceback and no output directory."""

import argparse
import ast
import contextlib
import gzip
import io
import os
import shutil
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

import zids
from zids import cli, mlp, synthetic
from zids import preprocess as pp
from zids import dataset as ds
from conftest import SMALL_PROFILE, run_cli

# (artifact, command that reads it)
READERS = [
    ("train.zids", "train"),
    ("test.zids", "train"),
    ("test.zids", "evaluate"),
    ("test.zids", "explain"),
    ("model.zmlp", "evaluate"),
    ("model.zmlp", "explain"),
]


def reader_command(command, model, prepared, out):
    """The argv of a command that reads the containers in prepared and,
    but for train, the model."""
    return {
        "train": ("train", "--prepared", prepared, "--variant", "truncated",
                  "--epochs", 1),
        "evaluate": ("evaluate", "--model", model, "--test", prepared / "test.zids"),
        "explain": ("explain", "--model", model, "--prepared", prepared,
                    "--budget", 64),
    }[command] + ("--out", out)


# A header byte of each artifact, under its checksum like every byte before
# the CRC: in the high half of a container's row count N, and the low byte
# of the length of a model's label column name.
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
    capsys.readouterr()
    rc = run_cli(*reader_command(command, model, prepared, out))
    err = assert_one_line_error(capsys, rc, 2, out)
    assert err.startswith("data error: corrupt")


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
    assert err.startswith(f"error: {config}: config file is not valid JSON")


@pytest.mark.parametrize("text, message", [
    ("{", "Expecting property name enclosed in double quotes"),
    ('{"classes": 3}', "report field 'classes' is missing or mistyped"),
], ids=["not-json", "wrong-shape"])
def test_bad_report_is_data_error_naming_it(tmp_path, capsys, text, message):
    report = tmp_path / "report.json"
    report.write_text(text)
    rc = run_cli("report", "--report", report)
    err = assert_one_line_error(capsys, rc, 2)
    assert err.startswith(f"data error: {report}: {message}")


@pytest.mark.parametrize("text, message", [
    ("{", "config file is not valid JSON"),
    ("[2]", "config file must hold a JSON object"),
    ('{"epoch": 2}', "unknown config fields: ['epoch']"),
    ('{"epochs": "2"}', "config field epochs must be int: '2'"),
], ids=["not-json", "not-object", "unknown-field", "mistyped-field"])
def test_bad_config_is_usage_error_naming_it(tmp_path, capsys, text, message):
    config = tmp_path / "config.json"
    config.write_text(text)
    out = tmp_path / "out"
    rc = run_cli("train", "--config", config, "--prepared", tmp_path / "void",
                 "--out", out)
    err = assert_one_line_error(capsys, rc, 1, out)
    assert err.startswith(f"error: {config}: {message}")


@pytest.mark.parametrize("kind, message", [
    ("missing", "No such file or directory"),
    ("directory", "Is a directory"),
])
def test_unreadable_config_is_usage_error_naming_it(tmp_path, capsys, kind, message):
    config = tmp_path / "config.json"
    if kind == "directory":
        config.mkdir()
    out = tmp_path / "out"
    rc = run_cli("train", "--config", config, "--prepared", tmp_path / "void",
                 "--out", out)
    err = assert_one_line_error(capsys, rc, 1, out)
    assert err == f"error: {config}: cannot read config file: {message}\n"


def corpus_lines():
    """The lines of a 400-row corpus."""
    return synthetic.generate_lines({"normal": 200, "smurf": 200}, seed=0)


@pytest.mark.parametrize("fault", ["truncated", "xored"])
def test_damaged_gzip_corpus_is_data_error(tmp_path, capsys, fault):
    corpus = tmp_path / "corpus.kdd.gz"
    with gzip.open(corpus, "wt", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in corpus_lines()))
    blob = bytearray(corpus.read_bytes())
    if fault == "truncated":
        del blob[len(blob) // 2:]
    else:
        for at in range(12, 30):
            blob[at] ^= 0x5A
    corpus.write_bytes(bytes(blob))
    out = tmp_path / "out"
    rc = run_cli("prepare", "--data", corpus, "--out", out)
    err = assert_one_line_error(capsys, rc, 2, out)
    assert err.startswith(f"data error: {corpus}: damaged gzip file:")


def make_line(label="normal.", src_bytes="215"):
    values = ["0"] * 41
    values[1:6] = "tcp", "http", "SF", src_bytes, "45076"
    return ",".join(values) + f",{label}"


FORTY_ONE_FIELDS = ",".join(["0"] * 40) + ",normal."

# The error prepare reports, by the earliest bad line, though pass 1 finds
# structural errors and pass 2 bad cells.
PRECEDENCE = {
    "one_row_bad_cell": (
        [make_line(src_bytes="abc")], "data error: line 1, column 4:"),
    "bad_cell_then_41_fields": (
        [make_line(src_bytes="abc"), FORTY_ONE_FIELDS], "data error: line 1, column 4:"),
    "unknown_label_then_bad_cell": (
        [make_line("mystery."), make_line(src_bytes="abc")],
        "data error: line 1: unknown label: 'mystery'"),
    "bad_cell_in_second_block": (
        [make_line()] * 1500 + [make_line(src_bytes="-215")]
        + [make_line()] * 98 + [FORTY_ONE_FIELDS],
        "data error: line 1501, column 4:"),
}


@pytest.mark.parametrize("case", sorted(PRECEDENCE))
def test_prepare_reports_earliest_error(tmp_path, capsys, case):
    lines, message = PRECEDENCE[case]
    corpus = tmp_path / "corpus.kdd"
    corpus.write_text("".join(line + "\n" for line in lines))
    out = tmp_path / "out"
    rc = run_cli("prepare", "--data", corpus, "--out", out)
    err = assert_one_line_error(capsys, rc, 2, out)
    assert err.startswith(message)


def test_corpus_that_changes_between_passes(tmp_path, capsys, monkeypatch):
    corpus = tmp_path / "corpus.kdd"
    lines = corpus_lines()
    corpus.write_text("".join(line + "\n" for line in lines))
    opens = []

    @contextlib.contextmanager
    def second_open_one_row_short(path):
        opens.append(path)
        shown = lines if len(opens) == 1 else lines[:-1]
        yield io.StringIO("".join(line + "\n" for line in shown))

    monkeypatch.setattr(cli, "_open_text", second_open_one_row_short)
    out = tmp_path / "out"
    rc = run_cli("prepare", "--data", corpus, "--out", out)
    err = assert_one_line_error(capsys, rc, 2, out)
    assert err == (f"data error: {corpus}: 400 records on the first read, "
                   "399 on the second; the file changed while it was read\n")
    assert len(opens) == 2


# lines of make_line() that fill the first chunk and start the second
LATER_CHUNK = ds.CHUNK_CHARS // len(make_line()) + 100


def gained_line(monkeypatch, corpus, lines):
    """The second read of corpus shows one line more than the first."""
    opens = []

    @contextlib.contextmanager
    def second_open_one_row_more(path):
        opens.append(path)
        shown = lines if len(opens) == 1 else lines + lines[:1]
        yield io.StringIO("".join(line + "\n" for line in shown))

    monkeypatch.setattr(cli, "_open_text", second_open_one_row_more)


# Failures once pass 2 has started writing the containers: (lines, the
# setup of the run, extra flags, exit code, the error line's start).
AFTER_PASS_2_STARTS = {
    "bad_cell_in_a_later_chunk": (
        [make_line()] * LATER_CHUNK + [make_line(src_bytes="abc")],
        None, (), 2, f"data error: line {LATER_CHUNK + 1}, column 4:"),
    "corpus_gains_a_line": (
        [make_line()] * LATER_CHUNK, gained_line, (), 2,
        f"data error: {{corpus}}: {LATER_CHUNK} records on the first read, "
        f"{LATER_CHUNK + 1} on the second; the file changed while it was read\n"),
    "empty_test_split": (
        corpus_lines(), None, ("--test-fraction", 0.001), 1,
        "error: test fraction 0.001 leaves the test split of 400 rows empty\n"),
}


@pytest.mark.parametrize("case", sorted(AFTER_PASS_2_STARTS))
def test_prepare_failing_in_pass_2_leaves_no_container(tmp_path, capsys, monkeypatch, case):
    """A prepare that fails once its containers are being written leaves
    neither a container nor a temporary file in an --out that existed."""
    lines, setup, flags, code, message = AFTER_PASS_2_STARTS[case]
    corpus = tmp_path / "corpus.kdd"
    corpus.write_text("".join(line + "\n" for line in lines))
    if setup is not None:
        setup(monkeypatch, corpus, lines)
    out = tmp_path / "out"
    out.mkdir()
    rc = run_cli("prepare", "--data", corpus, "--out", out, *flags)
    err = assert_one_line_error(capsys, rc, code)
    assert err.startswith(message.format(corpus=corpus)), err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("gap, message", [
    (ds.CHUNK_CHARS // 10, "not UTF-8 text: invalid start byte"),
    (ds.CHUNK_CHARS + 50_000, "line 2: expected 42 fields, found 41"),
])
def test_bad_byte_after_structural_error(tmp_path, capsys, gap, message):
    """A non-UTF-8 byte wins over an earlier structural error when it lies
    in the same read of about CHUNK_CHARS characters; past that read, the
    structural error wins."""
    n = gap // (len(make_line()) + 1) + 3
    blob = "".join(line + "\n" for line in [make_line(), FORTY_ONE_FIELDS]
                   + [make_line()] * n).encode("utf-8")
    at = blob.index(b",http,", gap)
    corpus = tmp_path / "corpus.kdd"
    corpus.write_bytes(blob[:at + 1] + b"\xff" + blob[at + 2:])
    out = tmp_path / "out"
    rc = run_cli("prepare", "--data", corpus, "--out", out)
    err = assert_one_line_error(capsys, rc, 2, out)
    assert err.startswith("data error:") and message in err


@pytest.mark.parametrize("out_exists", [True, False])
def test_failed_replace_keeps_earlier_artifacts(tmp_path, capsys, monkeypatch, out_exists):
    """Every artifact is written to a temporary file that then replaces
    it: when the replace fails, the earlier artifacts stay as they were
    and no temporary file is left."""
    corpus = tmp_path / "corpus.kdd"
    corpus.write_text("".join(line + "\n" for line in corpus_lines()))
    out = tmp_path / "out"
    if out_exists:
        assert run_cli("prepare", "--data", corpus, "--out", out, "--seed", 0) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()} if out_exists else None
    capsys.readouterr()

    def refuse(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", refuse)
    rc = run_cli("prepare", "--data", corpus, "--out", out, "--seed", 1)
    err = assert_one_line_error(capsys, rc, 2, None if out_exists else out)
    assert err == "data error: [Errno 28] No space left on device\n"
    if out_exists:
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_failed_lock_write_closes_the_lock(tmp_path, capsys, monkeypatch):
    """When the lock's text cannot be written, the command exits with one
    line and leaves no open descriptor, no lock and no directory."""
    corpus = tmp_path / "corpus.kdd"
    corpus.write_text("".join(line + "\n" for line in corpus_lines()))
    out = tmp_path / "out"
    written = []

    def refuse(fd, data):
        written.append(fd)
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "write", refuse)
    rc = run_cli("prepare", "--data", corpus, "--out", out)
    monkeypatch.undo()
    assert len(written) == 1
    with pytest.raises(OSError):
        os.fstat(written[0])
    err = assert_one_line_error(capsys, rc, 2, out)
    assert err == "data error: [Errno 28] No space left on device\n"


def _writes(call: ast.Call) -> bool:
    """Whether a call writes a file: Path.write_text/write_bytes, or an
    open() whose mode writes."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    modes = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
    return any(isinstance(m, ast.Constant) and isinstance(m.value, str)
               and set(m.value) & set("wax+") for m in modes)


def test_every_write_goes_through_write_atomic():
    """No file is written but through the atomic primitive, the temporary
    file of _atomic.atomic_file, which write_atomic and the checked
    envelope writers use."""
    offenders = []
    for path in sorted(Path(zids.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        helper = {
            id(node)
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == "atomic_file"
            for node in ast.walk(fn)
        }
        offenders += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and id(node) not in helper and _writes(node)
        ]
    assert offenders == []


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


OUT_OF_MEMORY = """
import resource, sys
limit = 4 << 30  # no overcommit setting lets the allocations asked for succeed
_, hard = resource.getrlimit(resource.RLIMIT_AS)
if hard != resource.RLIM_INFINITY:
    limit = min(limit, hard)
resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
from zids.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("command", ["explain", "train"])
def test_out_of_memory_is_one_line_usage_error(small_experiment, tmp_path, command):
    """A size too large to allocate, from a flag, ends in one error line,
    exit 1, not a traceback; the address space is capped at 4 GiB."""
    argv = {
        "explain": ("explain", "--model",
                    small_experiment.train("truncated") / "model.zmlp",
                    "--prepared", small_experiment.prepared, "--budget", 10**13),
        "train": ("train", "--prepared", small_experiment.prepared,
                  "--variant", "truncated", "--epochs", 1, "--hidden-dims", 10**11),
    }[command]
    out = tmp_path / "out"
    src = str(Path(zids.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", OUT_OF_MEMORY, *map(str, argv), "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("error: Unable to allocate")
    assert not out.exists()


def recrc(blob: bytearray) -> bytes:
    """The blob with its trailing CRC32 recomputed over the bytes before it."""
    blob[-4:] = zlib.crc32(blob[:-4]).to_bytes(4, "little")
    return bytes(blob)


def out_of_range_code(blob: bytearray) -> None:
    # the last row's service code set to the largest u16, which no field's
    # value count reaches
    n, n_float, _ = struct.unpack_from("<QII", blob, 8)
    codes_at = 24 + 4 * n * n_float
    struct.pack_into("<H", blob, codes_at + 2 * (2 * n - 1), 0xFFFF)


def wide_block_widths(blob: bytearray) -> None:
    # protocol_type's value count, the width of its one-hot block, set
    # far past the value names the file holds
    n, n_float, n_fields = struct.unpack_from("<QII", blob, 8)
    at = 24 + 4 * n * n_float + 2 * n * n_fields  # the scaling table
    for _ in range(n_float):  # name, min, max
        at += 4 + struct.unpack_from("<I", blob, at)[0] + 16
    at += 4 + struct.unpack_from("<I", blob, at)[0]  # the field's name
    struct.pack_into("<I", blob, at, 0xFFFFFFFF)


# faults that keep the checksum valid, by the message they give
CRAFTED = {
    "block_widths": (wide_block_widths, "unexpected end of file"),
    "code": (out_of_range_code, "of field 1 is not below its block width"),
}


@pytest.mark.parametrize("fault", sorted(CRAFTED))
@pytest.mark.parametrize("artifact, command", READERS[:4])
def test_crafted_container_is_one_line_data_error(
    small_experiment, tmp_path, capsys, artifact, command, fault
):
    craft, message = CRAFTED[fault]
    prepared = tmp_path / "prepared"
    shutil.copytree(small_experiment.prepared, prepared)
    path = prepared / artifact
    blob = bytearray(path.read_bytes())
    craft(blob)
    path.write_bytes(recrc(blob))
    model = small_experiment.train("truncated") / "model.zmlp"
    out = tmp_path / "out"
    capsys.readouterr()
    rc = run_cli(*reader_command(command, model, prepared, out))
    err = assert_one_line_error(capsys, rc, 2, out)
    assert err.startswith(f"data error: corrupt dataset container: {path}: ")
    assert message in err


@pytest.mark.parametrize("artifact, command", READERS[:4])
def test_label_past_its_classes_is_one_line_data_error(
    small_experiment, tmp_path, capsys, artifact, command
):
    """A container written with a coarse label of 7 under 4 class names,
    its checksum valid, is refused by the reader with the file's name."""
    prepared = tmp_path / "prepared"
    shutil.copytree(small_experiment.prepared, prepared)
    path = prepared / artifact
    rows, scaling, columns = pp.read_container_columns(path)
    coarse = columns[0]
    y = coarse.y.copy()
    y[-1] = 7
    columns[0] = pp.LabelColumn(coarse.name, coarse.class_names, y)
    pp.write_container(path, rows, scaling, columns)
    model = small_experiment.train("truncated") / "model.zmlp"
    out = tmp_path / "out"
    capsys.readouterr()
    rc = run_cli(*reader_command(command, model, prepared, out))
    err = assert_one_line_error(capsys, rc, 2, out)
    assert err == (f"data error: corrupt dataset container: {path}: label 7 of "
                   "column 'coarse' is not below its 4 classes\n")


def test_format_2_container_is_one_line_data_error(small_experiment, tmp_path, capsys):
    path = tmp_path / "test.zids"
    blob = bytearray((small_experiment.prepared / "test.zids").read_bytes())
    blob[4:8] = (2).to_bytes(4, "little")
    path.write_bytes(recrc(blob))
    out = tmp_path / "out"
    capsys.readouterr()
    rc = run_cli("evaluate", "--model",
                 small_experiment.train("truncated") / "model.zmlp",
                 "--test", path, "--out", out)
    err = assert_one_line_error(capsys, rc, 2, out)
    assert err == f"data error: {path}: unsupported format version 2 (supported: 5)\n"


def test_format_3_container_is_one_line_data_error(small_experiment, tmp_path, capsys):
    """Format 3 kept the one-hot block widths in its header and named no
    column; no reader for it is kept."""
    prepared = tmp_path / "prepared"
    shutil.copytree(small_experiment.prepared, prepared)
    path = prepared / "train.zids"
    blob = bytearray(path.read_bytes())
    blob[4:8] = (3).to_bytes(4, "little")
    path.write_bytes(recrc(blob))
    out = tmp_path / "out"
    capsys.readouterr()
    rc = run_cli("train", "--prepared", prepared, "--variant", "truncated",
                 "--epochs", 1, "--out", out)
    err = assert_one_line_error(capsys, rc, 2, out)
    assert err == f"data error: {path}: unsupported format version 3 (supported: 5)\n"


def test_format_4_container_is_one_line_data_error(small_experiment, tmp_path, capsys):
    """Format 4 had format 5's layout with the float columns stored
    scaled; no reader for it is kept."""
    prepared = tmp_path / "prepared"
    shutil.copytree(small_experiment.prepared, prepared)
    path = prepared / "test.zids"
    blob = bytearray(path.read_bytes())
    blob[4:8] = (4).to_bytes(4, "little")
    path.write_bytes(recrc(blob))
    model = small_experiment.train("truncated") / "model.zmlp"
    out = tmp_path / "out"
    capsys.readouterr()
    rc = run_cli("evaluate", "--model", model, "--test", path, "--out", out)
    err = assert_one_line_error(capsys, rc, 2, out)
    assert err == f"data error: {path}: unsupported format version 4 (supported: 5)\n"


def assert_old_model_refused(small_experiment, tmp_path, capsys, command, version):
    """A model file of an older format version exits 2 on its version. Its
    checksum is the one that format wrote: for formats 2 and 3 over the
    bytes after the version, so it would not hold under today's rule."""
    model = tmp_path / "model.zmlp"
    blob = bytearray((small_experiment.train("truncated") / "model.zmlp").read_bytes())
    blob[4:8] = version.to_bytes(4, "little")
    covered = blob[8:-4] if version < 4 else blob[:-4]
    blob[-4:] = zlib.crc32(covered).to_bytes(4, "little")
    model.write_bytes(bytes(blob))
    out = tmp_path / "out"
    capsys.readouterr()
    rc = run_cli(*reader_command(command, model, small_experiment.prepared, out))
    err = assert_one_line_error(capsys, rc, 2, out)
    assert err == (f"data error: {model}: unsupported format version {version} "
                   f"(supported: {mlp.MODEL_VERSION})\n")


@pytest.mark.parametrize("command", ["evaluate", "explain"])
def test_format_2_model_is_one_line_data_error(small_experiment, tmp_path, capsys, command):
    """Format 2 stored the layer sizes and named no input column; no reader
    for it is kept."""
    assert_old_model_refused(small_experiment, tmp_path, capsys, command, 2)


@pytest.mark.parametrize("command", ["evaluate", "explain"])
def test_format_3_model_is_one_line_data_error(small_experiment, tmp_path, capsys, command):
    """Format 3 had format 4's layout, but its checksum left out the magic
    and the version; no reader for it is kept."""
    assert_old_model_refused(small_experiment, tmp_path, capsys, command, 3)


@pytest.mark.parametrize("command", ["evaluate", "explain"])
def test_format_4_model_is_one_line_data_error(small_experiment, tmp_path, capsys, command):
    """Format 4 had format 5's layout with float64 parameters; no reader
    for it is kept."""
    assert_old_model_refused(small_experiment, tmp_path, capsys, command, 4)


@pytest.mark.parametrize("command", ["evaluate", "explain"])
def test_crafted_model_name_count_is_one_line_data_error(
    small_experiment, tmp_path, capsys, command
):
    """A checksum-valid model whose feature name count is the largest u32."""
    model = tmp_path / "model.zmlp"
    blob = bytearray((small_experiment.train("truncated") / "model.zmlp").read_bytes())
    at = 12 + struct.unpack_from("<I", blob, 8)[0]  # past the label column's name
    d = pp.read_container(small_experiment.prepared / "test.zids", "coarse").d
    assert blob[at:at + 4] == struct.pack("<I", d)  # the feature name count
    struct.pack_into("<I", blob, at, 0xFFFFFFFF)
    model.write_bytes(recrc(blob))
    out = tmp_path / "out"
    capsys.readouterr()
    rc = run_cli(*reader_command(command, model, small_experiment.prepared, out))
    err = assert_one_line_error(capsys, rc, 2, out)
    assert err.startswith(f"data error: corrupt model file: {model}: ")


@pytest.mark.parametrize("out_exists", [True, False])
def test_vocabulary_past_code_range_is_data_error(
    tmp_path, capsys, monkeypatch, out_exists
):
    """A categorical field with more values than u16 codes can number
    stops prepare before any container is written."""
    corpus = tmp_path / "corpus.kdd"
    lines = corpus_lines()
    corpus.write_text("".join(line + "\n" for line in lines))
    out = tmp_path / "out"
    if out_exists:
        assert run_cli("prepare", "--data", corpus, "--out", out, "--seed", 0) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()} if out_exists else None
    services = len({line.split(",")[2] for line in lines})
    monkeypatch.setattr(pp, "MAX_VOCABULARY", services - 1)

    def no_write(*args):
        raise AssertionError("a container was written")

    monkeypatch.setattr(pp, "stream_container", no_write)
    capsys.readouterr()
    rc = run_cli("prepare", "--data", corpus, "--out", out, "--seed", 1)
    err = assert_one_line_error(capsys, rc, 2, None if out_exists else out)
    assert err == (f"data error: feature service has {services} distinct values; "
                   f"containers hold at most {services - 1}\n")
    if out_exists:
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_weighted_training_without_a_class_names_container_and_class(tmp_path, capsys):
    """A train split without Probe rows cannot take class weights: one
    line that names train.zids, the class and its label column. The
    unweighted variant trains on the same split."""
    profile = {label: n for label, n in SMALL_PROFILE.items()
               if ds.CATEGORY_OF[label] != ds.PROBE}
    synthetic.write_corpus(tmp_path / "corpus.kdd", profile, seed=0)
    prepared = tmp_path / "prepared"
    assert run_cli("prepare", "--data", tmp_path / "corpus.kdd", "--out", prepared) == 0
    capsys.readouterr()
    out = tmp_path / "weighted"
    rc = run_cli("train", "--prepared", prepared, "--variant", "weighted-truncated",
                 "--epochs", 1, "--out", out)
    err = assert_one_line_error(capsys, rc, 2, out)
    assert f"{prepared / 'train.zids'} has no row of class 'Probe' (coarse)" in err
    assert run_cli("train", "--prepared", prepared, "--variant", "truncated",
                   "--epochs", 1, "--out", tmp_path / "plain") == 0


@pytest.mark.parametrize("knob", ["background_n", "explain_n"])
def test_sample_past_the_test_split_names_knob_and_container(
    small_experiment, tmp_path, capsys, knob
):
    test = small_experiment.prepared / "test.zids"
    rows = pp.read_container(test, "coarse").n
    out = tmp_path / "out"
    capsys.readouterr()
    rc = run_cli("explain", "--model", small_experiment.train("truncated") / "model.zmlp",
                 "--prepared", small_experiment.prepared, "--budget", 64,
                 "--" + knob.replace("_", "-"), rows + 1, "--out", out)
    err = assert_one_line_error(capsys, rc, 2, out)
    assert err == f"data error: {test} has {rows} rows; {knob} is {rows + 1}\n"


def numeric_flags():
    """(command, flag, value) for each numeric flag of prepare, train and
    explain, at each of -1, 0, nan and inf that the flag's type accepts."""
    (commands,) = [action.choices for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    cases = []
    for command in ("prepare", "train", "explain"):
        for action in commands[command]._actions:
            if action.type not in (int, float, cli._parse_hidden_dims):
                continue
            for value in ("-1", "0", "nan", "inf"):
                try:
                    action.type(value)
                except (ValueError, argparse.ArgumentTypeError):
                    continue
                cases.append((command, action.option_strings[0], value))
    return cases


@pytest.mark.parametrize("command, flag, value", numeric_flags())
def test_numeric_flag_sweep(small_experiment, tmp_path, capsys, command, flag, value):
    """Each value either runs or fails with an exit code, one stderr line,
    no traceback and no output directory. The other flags keep each run
    small, and the swept flag comes last, so it wins."""
    base = {
        "prepare": ("prepare", "--data", small_experiment.corpus),
        "train": ("train", "--prepared", small_experiment.prepared,
                  "--variant", "truncated", "--epochs", 1, "--hidden-dims", 8),
        "explain": ("explain", "--model",
                    small_experiment.train("truncated") / "model.zmlp",
                    "--prepared", small_experiment.prepared, "--budget", 64,
                    "--background-n", 4, "--explain-n", 2),
    }[command]
    out = tmp_path / "out"
    capsys.readouterr()
    rc = run_cli(*base, "--out", out, flag, value)
    assert rc in (0, 1, 2, 3)
    if rc != 0:
        assert_one_line_error(capsys, rc, rc, out)
