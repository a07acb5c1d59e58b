"""The chunked readers of `dataset` against their per-line path.

Both readers split a plain chunk with numpy and run the per-line code on
any other; forcing every chunk onto the per-line path must not change
anything prepare takes from a corpus. The chunks are a few hundred
characters, so lines and errors straddle chunk boundaries.
"""

import gzip
import io
import json

import pytest

from zids import cli
from zids import dataset as ds
from zids import synthetic
from zids.errors import ZidsError

LINES = synthetic.generate_lines({"normal": 30, "smurf": 25, "satan": 5}, seed=5)


def edited(edit):
    lines = list(LINES)
    edit(lines)
    return lines


def with_cell(line, column, value):
    parts = line.split(",")
    parts[column] = value
    return ",".join(parts)


def joined(lines, end="\n"):
    return "".join(line + end for line in lines)


def blank_lines(lines):
    for at in (40, 21, 20, 0):
        lines.insert(at, "")
    lines.insert(30, " \t ")


def spaces_and_tabs(lines):
    lines[3] = "  " + lines[3]
    lines[9] = lines[9] + "\t "
    lines[10] = "\t" + lines[10] + " "


def label_case(lines):
    lines[4] = lines[4].rsplit(",", 1)[0] + ",SMURF."
    lines[12] = lines[12].rsplit(",", 1)[0] + ",smurf"
    lines[13] = lines[13].rsplit(",", 1)[0] + ",Normal"


def non_ascii_service(lines):
    lines[7] = with_cell(lines[7], 2, "café")
    lines[31] = with_cell(lines[31], 2, "ħttp")


def wide_service(lines):
    lines[25] = with_cell(lines[25], 2, "s" * 700)  # wider than a chunk


def bad_cell_then_41_fields(lines):
    lines[8] = with_cell(lines[8], 5, "-3")
    lines[50] = lines[50].split(",", 1)[1]


def fields_41_then_43(lines):
    """82 commas over two lines, as two good lines have."""
    lines[15] = lines[15].split(",", 1)[1]
    lines[16] = "0," + lines[16]


def fields_43_then_41(lines):
    lines[15] = "0," + lines[15]
    lines[16] = lines[16].split(",", 1)[1]


def unknown_label_then_bad_cell(lines):
    lines[33] = lines[33].rsplit(",", 1)[0] + ",quantum."
    lines[45] = with_cell(lines[45], 7, "x")


def bad_cell_in_last_line(lines):
    lines[-1] = with_cell(lines[-1], 22, "1e999")


# name -> corpus text
CORPORA = {
    "plain": joined(LINES),
    "crlf": joined(LINES[:30]) + joined(LINES[30:], "\r\n"),
    "lone_cr": joined(LINES[:20]) + LINES[20] + "\r" + joined(LINES[21:]),
    "blank_lines": joined(edited(blank_lines)),
    "spaces_and_tabs": joined(edited(spaces_and_tabs)),
    "label_case": joined(edited(label_case)),
    "non_ascii_service": joined(edited(non_ascii_service)),
    "no_final_newline": joined(LINES)[:-1],
    "wide_service": joined(edited(wide_service)),
    "bad_cell_then_41_fields": joined(edited(bad_cell_then_41_fields)),
    "fields_41_then_43": joined(edited(fields_41_then_43)),
    "fields_43_then_41": joined(edited(fields_43_then_41)),
    "unknown_label_then_bad_cell": joined(edited(unknown_label_then_bad_cell)),
    "bad_cell_in_last_line": joined(edited(bad_cell_in_last_line)),
}


def recorded(open_stream, blocks, errors, stats=None):
    """The blocks of iter_strings, each also appended to blocks; the
    error it raises, if any, ends them and is appended to errors."""
    try:
        for block in ds.iter_strings(open_stream, stats):
            blocks.append(block)
            yield block
    except ZidsError as exc:
        errors.append(exc)


def outcome(open_stream):
    """Everything prepare's two passes take from a corpus: each block's
    rows and distinct patterns, the sorted vocabularies and codes, the
    continuous blocks and the error that prepare reports, if any. Where
    pass 1 raises, pass 2 reads up to the line of that error, as the
    second read of iter_strings does, and must raise nothing there."""
    read, errors, continuous = [], [], []
    stats = ds.ChunkStats(), ds.ChunkStats()
    vocabs, codes = ds.string_fields(recorded(open_stream, read, errors, stats[0]))
    blocks = [([patterns[c] for c in block_codes], sorted(set(patterns)))
              for patterns, block_codes in read]
    error = errors[0] if errors else None
    try:
        with open_stream() as stream:
            stop = None if error is None else error.line_no
            for block in ds.iter_continuous(stream, stop, stats[1]):
                continuous.append(block.tolist())
    except ZidsError as exc:
        assert error is None, f"pass 1 raised {error!r}, but {exc!r} is earlier"
        error = exc
    described = None if error is None else (
        type(error).__name__, error.line_no, getattr(error, "column", None),
        getattr(error, "label", None), str(error))
    return {
        "blocks": blocks,
        "vocabularies": [(vocab, c.tolist()) for vocab, c in zip(vocabs, codes)],
        "continuous": continuous,
        "error": described,
    }, stats


@pytest.fixture(params=[257, 1000])
def small_chunks(request, monkeypatch):
    monkeypatch.setattr(ds, "CHUNK_CHARS", request.param)
    return monkeypatch


def compare(open_stream, small_chunks):
    got, (pass_1, pass_2) = outcome(open_stream)
    with small_chunks.context() as m:
        m.setattr(ds, "_plain", lambda chunk: None)
        expected, (per_line_1, per_line_2) = outcome(open_stream)
    assert got == expected
    assert per_line_1.per_line == per_line_1.chunks
    assert per_line_2.per_line == per_line_2.chunks
    # the numpy path took part, on at least one chunk of each pass
    assert pass_1.per_line < pass_1.chunks
    assert pass_2.per_line < pass_2.chunks
    return got, pass_1, pass_2


# The corpora with a line that pass 1 cannot take on the numpy path.
PER_LINE = {"blank_lines", "spaces_and_tabs", "non_ascii_service", "wide_service",
            "bad_cell_then_41_fields", "fields_41_then_43", "fields_43_then_41",
            "unknown_label_then_bad_cell"}


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_file_matches_per_line_path(tmp_path, small_chunks, name):
    path = tmp_path / f"{name}.kdd"
    path.write_bytes(CORPORA[name].encode("utf-8"))
    _, pass_1, _ = compare(lambda: cli._open_text(path), small_chunks)
    # _open_text turns "\r\n" and a lone "\r" into "\n"
    assert (pass_1.per_line > 0) == (name in PER_LINE)


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_text_matches_per_line_path(small_chunks, name):
    text = CORPORA[name]
    _, pass_1, _ = compare(lambda: io.StringIO(text), small_chunks)
    # StringIO keeps each "\r" in its line, for the per-line path to strip
    # or count as part of a field
    assert (pass_1.per_line > 0) == (name in PER_LINE | {"crlf", "lone_cr"})


def test_gzip_matches_per_line_path(tmp_path, small_chunks):
    path = tmp_path / "corpus.kdd.gz"
    with gzip.open(path, "wb") as fh:
        fh.write(CORPORA["blank_lines"].encode("utf-8"))
    got, _, _ = compare(lambda: cli._open_text(path), small_chunks)
    assert got["error"] is None


def test_errors_straddle_chunks(tmp_path, small_chunks):
    path = tmp_path / "corpus.kdd"
    path.write_text(CORPORA["bad_cell_then_41_fields"])
    got, _, _ = compare(lambda: cli._open_text(path), small_chunks)
    assert got["error"][:3] == ("FieldTypeError", 9, 5)
    path.write_text(CORPORA["unknown_label_then_bad_cell"])
    got, _, _ = compare(lambda: cli._open_text(path), small_chunks)
    assert got["error"][:4] == ("UnknownLabelError", 34, None, "quantum")


# The corpora whose pass 1 raises, read as files.
PASS_1_ERRORS = {"bad_cell_then_41_fields", "fields_41_then_43", "fields_43_then_41",
                 "unknown_label_then_bad_cell"}


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_pass_1_matches_fields_split_by_hand(tmp_path, small_chunks, name):
    """The vocabularies and per-row codes pass 1 gives equal those built
    from line.split(","): the sorted set of each field, with the label
    lowercased and its trailing dot removed. Where pass 1 raises, the
    rows it yielded before are the corpus's first rows."""
    path = tmp_path / f"{name}.kdd"
    path.write_bytes(CORPORA[name].encode("utf-8"))
    read, errors = [], []
    vocabs, codes = ds.string_fields(recorded(lambda: cli._open_text(path), read, errors))
    raised = bool(errors)
    assert raised == (name in PASS_1_ERRORS)
    yielded = sum(len(block_codes) for _, block_codes in read)
    rows = [line.strip().split(",") for line in CORPORA[name].splitlines() if line.strip()]
    if raised:
        rows = rows[:yielded]
    assert yielded == len(rows)
    assert all(len(row) == ds.NUM_FIELDS for row in rows)
    assert len(vocabs) == len(codes) == (4 if rows else 0)
    for column, vocab, field_codes in zip((1, 2, 3, 41), vocabs, codes):
        values = [row[column] for row in rows]
        if column == 41:
            values = [v.lower().removesuffix(".") for v in values]
        assert vocab == sorted(set(values))
        assert field_codes.tolist() == [vocab.index(v) for v in values]


@pytest.mark.parametrize("name, error", [
    ("plain", None),
    ("bad_cell_in_last_line", None),  # pass 1 converts no number
    ("bad_cell_then_41_fields", ("FieldTypeError", 9)),
    ("unknown_label_then_bad_cell", ("UnknownLabelError", 34)),
])
def test_second_read_only_on_error(small_chunks, name, error):
    """iter_strings opens the corpus once, and a second time only when a
    line fails, to find a bad cell before it; the bad cell comes first in
    one corpus and after the failing line in the other."""
    opens = []

    def open_stream():
        opens.append(name)
        return io.StringIO(CORPORA[name])

    got = None
    try:
        for _ in ds.iter_strings(open_stream):
            pass
    except ZidsError as exc:
        got = type(exc).__name__, exc.line_no
    assert (got, len(opens)) == (error, 1 if error is None else 2)


def test_blocks_straddle_chunks(monkeypatch):
    """1,500 plain lines in 1,000-character chunks: every chunk takes the
    numpy path and gives each pass one block of its rows, and the rows,
    vocabularies and values are those of the lines read as one chunk."""
    lines = synthetic.generate_lines({"normal": 900, "neptune": 600}, seed=2)
    text = joined(lines)
    whole, _ = outcome(lambda: io.StringIO(text))
    assert len(whole["blocks"]) == len(whole["continuous"]) == 1
    monkeypatch.setattr(ds, "CHUNK_CHARS", 1000)
    cut, (pass_1, pass_2) = outcome(lambda: io.StringIO(text))
    assert pass_1.per_line == pass_2.per_line == 0
    assert pass_1.chunks == pass_2.chunks == len(cut["blocks"]) > 100
    assert [len(b[0]) for b in cut["blocks"]] == [len(b) for b in cut["continuous"]]
    assert [row for block in cut["blocks"] for row in block[0]] == whole["blocks"][0][0]
    assert [row for block in cut["continuous"] for row in block] == whole["continuous"][0]
    assert (cut["vocabularies"], cut["error"]) == (whole["vocabularies"], None)


def test_block_values_are_the_blocks_own(monkeypatch):
    """Each block, from the numpy path or the per-line one, lists only the
    patterns its rows hold, as int32 codes that use every pattern."""
    monkeypatch.setattr(ds, "CHUNK_CHARS", 1000)
    http = with_cell(LINES[0], 2, "http")
    lines = [http] * 30 + [with_cell(http, 2, "ftp")] * 30
    lines.insert(45, "")  # sends the chunk that holds it to the per-line path
    stats = ds.ChunkStats()
    blocks = list(ds.iter_strings(lambda: io.StringIO(joined(lines)), stats))
    assert 0 < stats.per_line < stats.chunks == len(blocks)
    services = [sorted(p.split(",")[1] for p in patterns) for patterns, _ in blocks]
    assert services[0] == ["http"] and services[-1] == ["ftp"]
    assert ["ftp", "http"] in services
    for patterns, codes in blocks:
        assert codes.dtype.name == "int32"
        assert sorted(set(codes.tolist())) == list(range(len(patterns)))


def test_artifacts_do_not_depend_on_chunk_size(tmp_path, monkeypatch):
    """Interning follows the chunks, but the vocabularies are sorted after
    pass 1, so prepare writes the same bytes at any chunk size."""
    lines = synthetic.generate_lines(
        {"normal": 150, "smurf": 100, "neptune": 30, "satan": 20}, seed=7)
    text = joined(lines[:100]) + "\n" + joined(lines[100:200], "\r\n") + joined(lines[200:])
    corpus = tmp_path / "corpus.kdd"
    corpus.write_bytes(text.encode("utf-8"))
    artifacts = []
    for chars in (257, 1000, ds.CHUNK_CHARS):
        monkeypatch.setattr(ds, "CHUNK_CHARS", chars)
        out = tmp_path / f"prepared_{chars}"
        assert cli.main(["prepare", "--data", str(corpus), "--out", str(out), "--seed", "0"]) == 0
        artifacts.append({name: (out / name).read_bytes()
                          for name in ("train.zids", "test.zids", "counts.csv")})
        pass_1 = json.loads((out / "manifest.json").read_text())["chunks"]["pass_1"]
        assert pass_1["per_line"] > 0  # the chunk with the blank line
    assert artifacts[0] == artifacts[1] == artifacts[2]


def test_manifest_counts_chunks(tmp_path, monkeypatch):
    monkeypatch.setattr(ds, "CHUNK_CHARS", 1000)
    corpus = tmp_path / "corpus.kdd"
    corpus.write_text(CORPORA["blank_lines"])
    out = tmp_path / "prepared"
    assert cli.main(["prepare", "--data", str(corpus), "--out", str(out)]) == 0
    chunks = json.loads((out / "manifest.json").read_text())["chunks"]
    _, (pass_1, pass_2) = outcome(lambda: cli._open_text(corpus))
    assert chunks == {
        "pass_1": {"chunks": pass_1.chunks, "per_line": pass_1.per_line},
        "pass_2": {"chunks": pass_2.chunks, "per_line": pass_2.per_line},
    }
    assert chunks["pass_1"]["chunks"] > chunks["pass_1"]["per_line"] > 0
