"""Parsing, feature names, and taxonomy behavior."""

import io

import numpy as np
import pytest

from zids import dataset as ds
from zids import preprocess as pp
from zids import synthetic
from conftest import read_counts, run_cli
from zids.errors import (
    FieldTypeError,
    MalformedLineError,
    UnknownLabelError,
)

# The 23 labels of the KDD99 training file.
TRAINING_LABELS = [
    "back", "buffer_overflow", "ftp_write", "guess_passwd", "imap", "ipsweep",
    "land", "loadmodule", "multihop", "neptune", "nmap", "normal", "perl",
    "phf", "pod", "portsweep", "rootkit", "satan", "smurf", "spy", "teardrop",
    "warezclient", "warezmaster",
]


def make_line(label="normal.", protocol="tcp", service="http", flag="SF"):
    values = ["0"] * ds.NUM_FEATURES
    values[1], values[2], values[3] = protocol, service, flag
    values[4], values[5] = "215", "45076"
    return ",".join(values) + f",{label}"


def decoded(block):
    """An iter_strings block as (protocols, services, flags, labels) lists
    with one value per row."""
    patterns, codes = block
    return tuple([patterns[c].split(",")[f] for c in codes] for f in range(4))


def parse(text):
    """The string-field blocks and continuous blocks of a KDD99 text, read
    as `zids prepare` reads it in its two passes."""
    fields = [decoded(block) for block in ds.iter_strings(lambda: io.StringIO(text))]
    return fields, list(ds.iter_continuous(io.StringIO(text)))


def labels(text):
    fields, _ = parse(text)
    return [label for *_, block_labels in fields for label in block_labels]


def prepare(tmp_path, lines, name="prepared"):
    """Run `zids prepare` on the lines; returns its exit code and output dir."""
    corpus = tmp_path / f"{name}.kdd"
    corpus.write_text("".join(line + "\n" for line in lines))
    out = tmp_path / name
    return run_cli("prepare", "--data", corpus, "--out", out, "--seed", 0), out


def container_fields(out):
    """(feature name, value names) of each coded field of test.zids."""
    return pp.read_container(out / "test.zids", "coarse").fields


class TestParse:
    def test_basic_line(self):
        (fields,), (continuous,) = parse(make_line("normal."))
        assert fields == (["tcp"], ["http"], ["SF"], ["normal"])
        assert len(fields) - 1 + continuous.shape[1] == 41
        assert continuous.shape == (1, 38)

    def test_label_normalization(self):
        assert labels(make_line("SMURF.")) == ["smurf"]

    def test_empty_lines_skipped(self):
        text = "\n" + make_line() + "\n\n" + make_line("smurf.") + "\n"
        assert labels(text) == ["normal", "smurf"]

    def test_wrong_field_count(self):
        short = ",".join(["0"] * 40) + ",normal."
        with pytest.raises(MalformedLineError) as err:
            parse(short)
        assert err.value.field_count == 41
        assert err.value.line_no == 1

    def test_string_fields_raise_their_error(self):
        text = make_line() + "\n" + make_line("mystery.") + "\n" + make_line()
        blocks = []
        with pytest.raises(UnknownLabelError) as err:
            for block in ds.iter_strings(lambda: io.StringIO(text)):
                blocks.append(decoded(block))
        assert (err.value.line_no, err.value.label) == (2, "mystery")
        assert blocks == []  # the chunk that holds the bad line is not yielded

    def test_string_fields_convert_no_number(self):
        bad_cell = make_line().replace(",215,", ",abc,", 1)
        blocks = [decoded(block) for block in ds.iter_strings(lambda: io.StringIO(bad_cell))]
        assert blocks == [(["tcp"], ["http"], ["SF"], ["normal"])]

    def test_bad_continuous_field(self):
        values = ["0"] * ds.NUM_FEATURES
        values[1], values[2], values[3] = "tcp", "http", "SF"
        values[4] = "abc"
        with pytest.raises(FieldTypeError) as err:
            parse(",".join(values) + ",normal.")
        assert err.value.column == 4

    @pytest.mark.parametrize("bad", ["-1", "inf", "nan"])
    def test_non_finite_or_negative(self, bad):
        values = ["0"] * ds.NUM_FEATURES
        values[1], values[2], values[3] = "tcp", "http", "SF"
        values[0] = bad
        with pytest.raises(FieldTypeError):
            parse(",".join(values) + ",normal.")

    def test_line_numbers_count_raw_lines(self):
        text = make_line() + "\n\n" + ",".join(["0"] * 40) + ",x.\n"
        with pytest.raises(MalformedLineError) as err:
            parse(text)
        assert err.value.line_no == 3

    def test_type_error_wins_over_later_malformed_line(self):
        values = ["0"] * ds.NUM_FEATURES
        values[1], values[2], values[3] = "tcp", "http", "SF"
        values[7] = "x"
        text = ",".join(values) + ",normal.\n" + ",".join(["0"] * 40) + ",normal.\n"
        with pytest.raises(FieldTypeError) as err:
            parse(text)
        assert (err.value.line_no, err.value.column) == (1, 7)

    def test_bad_cell_past_first_block_has_absolute_line(self, monkeypatch):
        monkeypatch.setattr(ds, "CHUNK_CHARS", 10_000)
        lines = [make_line()] * 1600
        lines[1500] = make_line().replace(",215,", ",-215,", 1)
        assert len("\n".join(lines[:1500])) > 10 * ds.CHUNK_CHARS
        with pytest.raises(FieldTypeError) as err:
            parse("\n".join(lines))
        assert (err.value.line_no, err.value.column) == (1501, 4)

    def test_continuous_stops_before_line(self):
        text = make_line() + "\n\n" + make_line().replace(",215,", ",-1,", 1)
        (block,) = ds.iter_continuous(io.StringIO(text), stop=3)
        assert block.shape == (1, 38)

    def test_blocks_keep_line_numbers_and_values(self, monkeypatch):
        monkeypatch.setattr(ds, "CHUNK_CHARS", 10_000)
        lines = [make_line(label="SMURF.")] * 1027
        lines[-1] = make_line().replace(",215,", ",1_000,", 1)  # float() only
        text = "\n\n".join(lines)
        fields, continuous = parse(text)
        assert len(fields) == len(continuous) > 10  # one block per chunk
        assert [len(b[3]) for b in fields] == [len(b) for b in continuous]
        assert sum(len(b) for b in continuous) == len(lines)
        assert fields[0][3][0] == "smurf"
        assert tuple(f[0] for f in fields[0][:3]) == ("tcp", "http", "SF")
        src_bytes = ds.CONTINUOUS_POSITIONS.index(4)
        assert continuous[0].dtype == np.float64
        assert continuous[0][0, src_bytes] == 215.0
        assert continuous[-1][-1, src_bytes] == 1000.0
        # Line numbers count the blank lines: the last row is line 2n - 1.
        with pytest.raises(FieldTypeError) as err:
            parse(text.replace(",1_000,", ",1_000x,"))
        assert err.value.line_no == 2 * len(lines) - 1

    def test_prepare_reports_bad_cell(self, tmp_path, capsys):
        corpus = tmp_path / "bad.kdd"
        lines = synthetic.generate_lines({"normal": 30, "smurf": 30}, seed=0)
        parts = lines[41].split(",")
        parts[9] = "lots"
        lines[41] = ",".join(parts)
        corpus.write_text("\n".join(lines) + "\n")
        rc = run_cli("prepare", "--data", corpus, "--out", tmp_path / "out")
        assert rc == 2
        err = capsys.readouterr().err
        assert "line 42, column 9" in err
        assert len(err.strip().splitlines()) == 1

    def test_round_trip(self):
        lines = synthetic.generate_lines(profile={"normal": 40, "smurf": 25}, seed=3)
        fields, continuous = parse("".join(line + "\n" for line in lines))
        split = [line.split(",") for line in lines]
        for i, column in enumerate((1, 2, 3, 41)):
            got = [v for block in fields for v in block[i]]
            assert got == [f[column].removesuffix(".") for f in split]
        expected = [[float(f[i]) for i in ds.CONTINUOUS_POSITIONS] for f in split]
        assert np.array_equal(np.concatenate(continuous), np.array(expected))

    def test_iter_kdd(self):
        text = make_line("SMURF.") + "\n\n" + make_line()
        records = list(ds.iter_kdd(io.StringIO(text)))
        assert [r.label for r in records] == ["smurf", "normal"]
        assert records[0].values == tuple(make_line().split(",")[:-1])
        bad_cell = make_line().replace(",215,", ",-215,", 1)
        with pytest.raises(FieldTypeError) as err:
            list(ds.iter_kdd([bad_cell, make_line("mystery.")]))
        assert err.value.line_no == 1


class TestSchema:
    def test_vocabulary_sorted(self, tmp_path):
        rc, out = prepare(tmp_path, [
            make_line(protocol="tcp"),
            make_line(protocol="udp"),
            make_line(protocol="icmp"),
        ])
        assert rc == 0
        assert container_fields(out)[0] == ("protocol_type", ("icmp", "tcp", "udp"))

    def test_single_record_vocabularies(self, tmp_path):
        # two copies of one line: a single row leaves the test split empty
        rc, out = prepare(tmp_path, [make_line()] * 2)
        assert rc == 0
        assert [(name, len(values)) for name, values in container_fields(out)] == [
            ("protocol_type", 1), ("service", 1), ("flag", 1)]

    def test_empty_input(self, tmp_path, capsys):
        rc, out = prepare(tmp_path, ["", ""])
        assert rc == 2
        err = capsys.readouterr().err
        assert "no records" in err and len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_order_insensitive(self, tmp_path):
        lines = synthetic.generate_lines(profile={"normal": 60, "neptune": 40}, seed=1)
        rc_a, out_a = prepare(tmp_path, lines, "forward")
        rc_b, out_b = prepare(tmp_path, lines[::-1], "reversed")
        assert rc_a == rc_b == 0
        assert container_fields(out_a) == container_fields(out_b)

    def test_descriptor_kinds(self, tmp_path):
        """The containers name the three categorical features as their
        coded fields and the other 38, in wire order, as float columns."""
        rc, out = prepare(tmp_path, [make_line()] * 2)
        assert rc == 0
        assert ds.CATEGORICAL_POSITIONS == (1, 2, 3)
        test = pp.read_container(out / "test.zids", "coarse")
        assert [name for name, _ in test.fields] == list(ds.FEATURE_NAMES[1:4])
        assert list(test.float_names) == [
            name for i, name in enumerate(ds.FEATURE_NAMES) if i not in (1, 2, 3)]
        assert not (out / "schema.json").exists()


class TestTaxonomy:
    def test_key_assignments(self):
        assert ds.CATEGORY_OF["smurf"] == ds.DOS
        assert ds.CATEGORY_OF["neptune"] == ds.DOS
        assert ds.CATEGORY_OF["normal"] == ds.NORMAL
        assert ds.CATEGORY_OF["spy"] == ds.UNAUTHORIZED
        assert ds.CATEGORY_OF["satan"] == ds.PROBE

    def test_total_over_training_labels(self):
        assert set(TRAINING_LABELS) <= set(ds.CATEGORY_OF)

    def test_extended_labels_covered(self):
        extended = {"apache2", "mscan", "saint", "snmpguess", "httptunnel", "xterm"}
        assert extended <= set(ds.CATEGORY_OF)

    def test_only_normal_is_normal(self):
        assert [l for l, c in ds.CATEGORY_OF.items() if c == ds.NORMAL] == ["normal"]

    def test_unknown_label(self):
        with pytest.raises(UnknownLabelError) as err:
            parse(make_line() + "\n\n" + make_line("Quantum_Worm."))
        assert (err.value.line_no, err.value.label) == (3, "quantum_worm")

    @pytest.mark.parametrize("label", ["", "."])
    def test_empty_label_is_unknown(self, label):
        """42 fields with an empty label: not a wrong field count."""
        with pytest.raises(UnknownLabelError) as err:
            parse("\n".join([make_line()] * 3 + [make_line(label)]))
        assert (err.value.line_no, err.value.label) == (4, "")

    @pytest.mark.parametrize("later", ["bad_cell", "41_fields"])
    def test_unknown_label_wins_over_later_bad_line(self, later):
        line_2 = {
            "bad_cell": make_line().replace(",215,", ",-215,", 1),
            "41_fields": ",".join(["0"] * 40) + ",normal.",
        }[later]
        with pytest.raises(UnknownLabelError) as err:
            parse(make_line("mystery.") + "\n" + line_2)
        assert (err.value.line_no, err.value.label) == (1, "mystery")

    def test_bad_cell_wins_over_later_unknown_label(self):
        bad_cell = make_line().replace(",215,", ",-215,", 1)
        with pytest.raises(FieldTypeError) as err:
            parse(bad_cell + "\n" + make_line("mystery."))
        assert err.value.line_no == 1


class TestCoarseCounts:
    def test_hand_counts(self, tmp_path):
        rc, out = prepare(tmp_path, [
            make_line("normal."), make_line("smurf."), make_line("smurf."),
            make_line("satan."), make_line("spy."),
        ])
        assert rc == 0
        counts = read_counts(out / "counts.csv")
        assert counts == {ds.NORMAL: 1, ds.DOS: 2, ds.PROBE: 1, ds.UNAUTHORIZED: 1}

    def test_empty(self):
        lines = ds.counts_csv({}).decode().strip().splitlines()[1:]
        assert [line.split(",")[0] for line in lines] == list(ds.CATEGORIES)
        assert all(line.split(",")[1] == "0" for line in lines)

    def test_counts_sum_to_total(self, tmp_path):
        lines = synthetic.generate_lines(seed=2, profile={
            "normal": 90, "smurf": 200, "satan": 12, "spy": 2, "perl": 3})
        rc, out = prepare(tmp_path, lines)
        assert rc == 0
        assert sum(read_counts(out / "counts.csv").values()) == len(lines)

    def test_unknown_label_raises(self, tmp_path, capsys):
        rc, out = prepare(tmp_path, [make_line(), make_line("mystery.")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "data error: line 2: unknown label: 'mystery'\n"
        assert not out.exists()

    @pytest.mark.parametrize("label", ["", "."])
    def test_empty_label_raises(self, tmp_path, capsys, label):
        rc, out = prepare(tmp_path, [make_line()] * 3 + [make_line(label)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "data error: line 4: unknown label: ''\n"
        assert not out.exists()

    def test_counts_csv_shape(self):
        assert ds.counts_csv({c: i for i, c in enumerate(ds.CATEGORIES)}) == (
            b"category,count\r\n"
            b"Normal,0\r\n"
            b"DoS,1\r\n"
            b"Probe,2\r\n"
            b"UnauthorizedAccess,3\r\n"
        )
        assert ds.counts_csv({}).endswith(b"\r\nUnauthorizedAccess,0\r\n")
