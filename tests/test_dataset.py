"""Parsing, schema, and taxonomy behavior."""

import io

import numpy as np
import pytest

from zids import dataset as ds
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


def parse(text):
    """Every block of a KDD99 text, as a file opened in text mode yields it."""
    return list(ds.iter_blocks(io.StringIO(text)))


def labels(blocks):
    return [label for block in blocks for label in block.labels]


def prepare(tmp_path, lines, name="prepared"):
    """Run `zids prepare` on the lines; returns its exit code and output dir."""
    corpus = tmp_path / f"{name}.kdd"
    corpus.write_text("".join(line + "\n" for line in lines))
    out = tmp_path / name
    return run_cli("prepare", "--data", corpus, "--out", out, "--seed", 0), out


def prepared_schema(out):
    return ds.FeatureSchema.from_json((out / "schema.json").read_text())


class TestParse:
    def test_basic_line(self):
        (block,) = parse(make_line("normal."))
        assert len(block) == 1
        assert block.labels[0] == "normal"
        assert len(block.categorical[0]) + block.continuous.shape[1] == 41
        assert block.categorical[0][0] == "tcp"

    def test_label_normalization(self):
        assert labels(parse(make_line("SMURF."))) == ["smurf"]

    def test_empty_lines_skipped(self):
        text = "\n" + make_line() + "\n\n" + make_line("smurf.") + "\n"
        assert labels(parse(text)) == ["normal", "smurf"]

    def test_wrong_field_count(self):
        short = ",".join(["0"] * 40) + ",normal."
        with pytest.raises(MalformedLineError) as err:
            parse(short)
        assert err.value.field_count == 41
        assert err.value.line_no == 1

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

    def test_bad_cell_past_first_block_has_absolute_line(self):
        lines = [make_line()] * 1600
        lines[1500] = make_line().replace(",215,", ",-215,", 1)
        assert 1500 > ds.BLOCK_ROWS
        with pytest.raises(FieldTypeError) as err:
            parse("\n".join(lines))
        assert (err.value.line_no, err.value.column) == (1501, 4)

    def test_blocks_keep_line_numbers_and_values(self):
        lines = [make_line(label="SMURF.")] * (ds.BLOCK_ROWS + 3)
        lines[-1] = make_line().replace(",215,", ",1_000,", 1)  # float() only
        blocks = parse("\n\n".join(lines))
        assert [len(b) for b in blocks] == [ds.BLOCK_ROWS, 3]
        assert blocks[1].line_numbers == [2 * i + 1 for i in range(ds.BLOCK_ROWS, ds.BLOCK_ROWS + 3)]
        assert blocks[0].labels[0] == "smurf"
        assert blocks[0].categorical[0] == ("tcp", "http", "SF")
        src_bytes = ds.CONTINUOUS_POSITIONS.index(4)
        assert blocks[0].continuous.dtype == np.float64
        assert blocks[0].continuous[0, src_bytes] == 215.0
        assert blocks[1].continuous[-1, src_bytes] == 1000.0
        assert blocks[1].lines[-1].split(",")[4] == "1_000"

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
        text = "".join(line + "\n" for line in lines)
        blocks = parse(text)
        assert "".join(line + "\n" for b in blocks for line in b.lines) == text
        assert labels(blocks) == [line.rsplit(",", 1)[1][:-1] for line in lines]
        fields = [line.split(",") for line in lines]
        assert [c for b in blocks for c in b.categorical] == [
            tuple(f[1:4]) for f in fields
        ]
        continuous = np.concatenate([b.continuous for b in blocks])
        expected = [[float(f[i]) for i in ds.CONTINUOUS_POSITIONS] for f in fields]
        assert np.array_equal(continuous, np.array(expected))


class TestSchema:
    def test_vocabulary_sorted(self, tmp_path):
        rc, out = prepare(tmp_path, [
            make_line(protocol="tcp"),
            make_line(protocol="udp"),
            make_line(protocol="icmp"),
        ])
        assert rc == 0
        schema = prepared_schema(out)
        assert schema.vocabularies["protocol_type"] == ("icmp", "tcp", "udp")

    def test_single_record_vocabularies(self, tmp_path):
        # two copies of one line: a single row leaves the test split empty
        rc, out = prepare(tmp_path, [make_line()] * 2)
        assert rc == 0
        assert all(len(v) == 1 for v in prepared_schema(out).vocabularies.values())

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
        assert prepared_schema(out_a) == prepared_schema(out_b)

    def test_descriptor_kinds(self, tmp_path):
        rc, out = prepare(tmp_path, [make_line()] * 2)
        assert rc == 0
        schema = prepared_schema(out)
        assert len(schema.features) == 41
        kinds = [f.kind for f in schema.features]
        assert [i for i, k in enumerate(kinds) if k == "categorical"] == [1, 2, 3]

    def test_json_round_trip(self):
        schema = ds.schema_from_vocabularies(
            {"protocol_type": ["tcp"], "service": ["http", "ftp"], "flag": ["SF"]}
        )
        assert ds.FeatureSchema.from_json(schema.to_json()) == schema


class TestTaxonomy:
    def test_key_assignments(self):
        tax = ds.default_taxonomy()
        assert tax.category_of("smurf") == ds.DOS
        assert tax.category_of("neptune") == ds.DOS
        assert tax.category_of("normal") == ds.NORMAL
        assert tax.category_of("spy") == ds.UNAUTHORIZED
        assert tax.category_of("satan") == ds.PROBE

    def test_total_over_training_labels(self):
        tax = ds.default_taxonomy()
        for label in TRAINING_LABELS:
            tax.category_of(label)  # must not raise

    def test_extended_labels_covered(self):
        tax = ds.default_taxonomy()
        for label in ("apache2", "mscan", "saint", "snmpguess", "httptunnel", "xterm"):
            tax.category_of(label)

    def test_only_normal_is_normal(self):
        tax = ds.default_taxonomy()
        assert [l for l, c in tax.mapping.items() if c == ds.NORMAL] == ["normal"]

    def test_unknown_label(self):
        with pytest.raises(UnknownLabelError) as err:
            ds.default_taxonomy().category_of("quantum_worm")
        assert err.value.label == "quantum_worm"


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
        assert "mystery" in err and len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_counts_csv_shape(self):
        text = ds.counts_csv({c: i for i, c in enumerate(ds.CATEGORIES)}).decode()
        lines = text.strip().splitlines()
        assert lines[0] == "category,count"
        assert lines[1] == "Normal,0"
        assert len(lines) == 5
