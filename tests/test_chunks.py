"""The chunked readers of `dataset` against their per-line path.

Pass 1 (iter_strings) splits a plain chunk with numpy and runs the
per-line code on any other; forcing every chunk onto the per-line path
must not change anything prepare takes from a corpus. Pass 2
(iter_continuous) strips every line, counts the chunks where that
changed a line or dropped a blank one, and converts each distinct line
of a chunk once, which the corpora with repeated lines check against a
conversion of every line. The chunks are a few hundred characters, so
lines and errors straddle chunk boundaries.
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


def bad_cell_then_unknown_label(lines):
    lines[8] = with_cell(lines[8], 4, "-215")
    lines[40] = lines[40].rsplit(",", 1)[0] + ",mystery."


def bad_cell_in_last_line(lines):
    lines[-1] = with_cell(lines[-1], 22, "1e999")


# Pass 2 converts each distinct line of a chunk once. Each of the first 20
# lines three times in a row, as KDD99 repeats its rows: a 257-character
# chunk holds two lines, so even those hold repeats.
REPEATS = [line for line in LINES[:20] for _ in range(3)]
BAD = with_cell(LINES[3], 5, "-3")


def repeats_edited(edit):
    lines = list(REPEATS)
    edit(lines)
    return lines


def bad_line_repeated(lines):
    """Lines 11 and 12, and line 41 in another chunk, are one bad line."""
    lines[10] = lines[11] = lines[40] = BAD


def bad_line_after_repeats(lines):
    """Line 14 differs from the copies of its line around it."""
    lines[13] = with_cell(lines[13], 7, "x")


def blanks_among_repeats(lines):
    """Blank, whitespace and padded copies among the repeats, then lines
    26 and 28 (as numbered once these are in) are one bad line."""
    lines[19] = lines[21] = BAD
    lines[17] = "  " + lines[17] + "\t"
    for at in (18, 16, 7, 6, 0):
        lines.insert(at, "")
    lines.insert(3, " \t ")


# name -> the error of each corpus with repeats, as (type, line, column)
REPEAT_ERRORS = {
    "repeats": None,
    "bad_line_repeated": ("FieldTypeError", 11, 5),
    "bad_line_after_repeats": ("FieldTypeError", 14, 7),
    "blanks_among_repeats": ("FieldTypeError", 26, 5),
}


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
    "bad_cell_then_unknown_label": joined(edited(bad_cell_then_unknown_label)),
    "bad_cell_in_last_line": joined(edited(bad_cell_in_last_line)),
    "repeats": joined(REPEATS),
    "bad_line_repeated": joined(repeats_edited(bad_line_repeated)),
    "bad_line_after_repeats": joined(repeats_edited(bad_line_after_repeats)),
    "blanks_among_repeats": joined(repeats_edited(blanks_among_repeats)),
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
        expected, (per_line_1, _) = outcome(open_stream)
    assert got == expected
    assert per_line_1.per_line == per_line_1.chunks
    # the numpy path took part, on at least one chunk
    assert pass_1.per_line < pass_1.chunks
    return got, pass_1, pass_2


# The corpora with a line that pass 1 cannot take on the numpy path.
PER_LINE = {"blank_lines", "spaces_and_tabs", "blanks_among_repeats",
            "non_ascii_service", "wide_service",
            "bad_cell_then_41_fields", "fields_41_then_43", "fields_43_then_41",
            "unknown_label_then_bad_cell", "bad_cell_then_unknown_label"}
# The corpora with a line that pass 2 strips or drops, before any error.
STRIPPED = {"blank_lines", "spaces_and_tabs", "blanks_among_repeats"}


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_file_matches_per_line_path(tmp_path, small_chunks, name):
    path = tmp_path / f"{name}.kdd"
    path.write_bytes(CORPORA[name].encode("utf-8"))
    _, pass_1, pass_2 = compare(lambda: cli._open_text(path), small_chunks)
    # _open_text turns "\r\n" and a lone "\r" into "\n"
    assert (pass_1.per_line > 0) == (name in PER_LINE)
    assert (pass_2.per_line > 0) == (name in STRIPPED)


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_text_matches_per_line_path(small_chunks, name):
    text = CORPORA[name]
    _, pass_1, pass_2 = compare(lambda: io.StringIO(text), small_chunks)
    # StringIO keeps each "\r" in its line, for the per-line path to strip
    # or count as part of a field
    assert (pass_1.per_line > 0) == (name in PER_LINE | {"crlf", "lone_cr"})
    assert (pass_2.per_line > 0) == (name in STRIPPED | {"crlf"})


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
    path.write_text(CORPORA["bad_cell_then_unknown_label"])
    got, _, _ = compare(lambda: cli._open_text(path), small_chunks)
    assert got["error"][:3] == ("FieldTypeError", 9, 4)


# The corpora whose pass 1 raises, read as files.
PASS_1_ERRORS = {"bad_cell_then_41_fields", "fields_41_then_43", "fields_43_then_41",
                 "unknown_label_then_bad_cell", "bad_cell_then_unknown_label"}


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
    ("bad_cell_then_unknown_label", ("FieldTypeError", 9)),
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


def line_by_line(text, stop=None):
    """The continuous blocks of each chunk from _checked_floats over every
    stripped, non-blank line of the chunk before line stop, the error it
    raises, as (type, line, column), and the chunks that hold a line
    before stop."""
    got = {"blocks": [], "error": None, "chunks": 0}
    line_no = 1
    try:
        for chunk in ds._chunks(io.StringIO(text), ds.ChunkStats()):
            if stop is not None and line_no >= stop:
                break
            got["chunks"] += 1
            lines = ds._lines(chunk)
            numbered = [(number, line.strip()) for number, line in enumerate(lines, line_no)
                        if line.strip() and (stop is None or number < stop)]
            if numbered:
                numbers, kept = zip(*numbered)
                got["blocks"].append(ds._checked_floats(list(kept), numbers))
            line_no += len(lines)
    except ZidsError as exc:
        got["error"] = type(exc).__name__, exc.line_no, exc.column
    return got


def spy_on_continuous(monkeypatch):
    """A list that gets the number of lines of each block _continuous
    converts from now on."""
    given = []
    continuous = ds._continuous

    def spy(lines, line_numbers):
        block = continuous(lines, line_numbers)
        given.append(len(lines))
        return block

    monkeypatch.setattr(ds, "_continuous", spy)
    return given


def distinct_lines(monkeypatch, text, stop=None):
    """What line_by_line gives, from iter_continuous (the chunks those it
    read), and the lines _continuous converted for its blocks."""
    given = spy_on_continuous(monkeypatch)
    stats = ds.ChunkStats()
    got = {"blocks": [], "error": None}
    try:
        for block in ds.iter_continuous(io.StringIO(text), stop, stats):
            got["blocks"].append(block)
    except ZidsError as exc:
        got["error"] = type(exc).__name__, exc.line_no, exc.column
    return {**got, "chunks": stats.chunks}, sum(given)


def assert_same_bits(got, expected):
    assert [(b.dtype, b.shape) for b in got["blocks"]] == [
        (b.dtype, b.shape) for b in expected["blocks"]]
    assert [b.tobytes() for b in got["blocks"]] == [b.tobytes() for b in expected["blocks"]]
    assert (got["error"], got["chunks"]) == (expected["error"], expected["chunks"])


@pytest.mark.parametrize("name", sorted(REPEAT_ERRORS))
def test_repeated_lines_convert_once(small_chunks, name):
    """Every block equals the line-by-line conversion of all its chunk's
    lines, bit for bit; an error names the first copy of the first bad
    line, at its own line and column; _continuous is given fewer lines
    than the rows it stands for."""
    text = CORPORA[name]
    got, given = distinct_lines(small_chunks, text)
    assert_same_bits(got, line_by_line(text))
    assert got["error"] == REPEAT_ERRORS[name]
    assert given < sum(map(len, got["blocks"]))


@pytest.mark.parametrize("name, stop", [
    ("repeats", 2), ("repeats", 3), ("repeats", 11), ("repeats", 12),
    ("blanks_among_repeats", 4), ("blanks_among_repeats", 5),
    ("blanks_among_repeats", 22), ("blanks_among_repeats", 23),
    ("blanks_among_repeats", 26),
    ("bad_line_repeated", 11),
])
def test_stop_inside_repeats(small_chunks, name, stop):
    """A stop inside a run of copies of one line (in "repeats", lines 10
    to 12; in "blanks_among_repeats", lines 2, 3 and 5 around a
    whitespace line, and 20, 22 and a padded 23 around a blank one) ends
    the blocks before it, and before a bad line at it, and no chunk
    after the one that holds line stop - 1 is read."""
    text = CORPORA[name]
    got, given = distinct_lines(small_chunks, text, stop)
    assert_same_bits(got, line_by_line(text, stop))
    assert got["error"] is None
    rows = sum(map(len, got["blocks"]))
    assert rows == sum(1 for line in text.split("\n")[:stop - 1] if line.strip())
    assert given <= rows


def test_each_distinct_line_of_a_chunk_converted_once(experiment, monkeypatch):
    """On the 1x corpus, _continuous is given each chunk's distinct lines:
    fewer lines than the corpus has rows."""
    with cli._open_text(experiment.corpus) as text:
        distinct = [len(set(filter(None, map(str.strip, ds._lines(chunk)))))
                    for chunk in ds._chunks(text, ds.ChunkStats())]
    given = spy_on_continuous(monkeypatch)
    with cli._open_text(experiment.corpus) as text:
        rows = sum(map(len, ds.iter_continuous(text)))
    assert given == distinct
    assert sum(given) < rows == 27_752
