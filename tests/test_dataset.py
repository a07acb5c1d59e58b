"""Parsing, schema, and taxonomy behavior."""

import io

import numpy as np
import pytest

from zids import dataset as ds
from zids import synthetic
from conftest import run_cli
from zids.errors import (
    EmptyInputError,
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


class TestParse:
    def test_basic_line(self):
        records = ds.parse_kdd(io.StringIO(make_line("normal.")))
        assert len(records) == 1
        assert records[0].label == "normal"
        assert len(records[0].values) == 41
        assert records[0].values[1] == "tcp"

    def test_label_normalization(self):
        records = ds.parse_kdd(io.StringIO(make_line("SMURF.")))
        assert records[0].label == "smurf"

    def test_bytes_stream(self):
        records = ds.parse_kdd(io.BytesIO(make_line().encode()))
        assert records[0].label == "normal"

    def test_empty_lines_skipped(self):
        text = "\n" + make_line() + "\n\n" + make_line("smurf.") + "\n"
        records = ds.parse_kdd(io.StringIO(text))
        assert [r.label for r in records] == ["normal", "smurf"]

    def test_wrong_field_count(self):
        short = ",".join(["0"] * 40) + ",normal."
        with pytest.raises(MalformedLineError) as err:
            ds.parse_kdd(io.StringIO(short))
        assert err.value.field_count == 41
        assert err.value.line_no == 1

    def test_bad_continuous_field(self):
        values = ["0"] * ds.NUM_FEATURES
        values[1], values[2], values[3] = "tcp", "http", "SF"
        values[4] = "abc"
        with pytest.raises(FieldTypeError) as err:
            ds.parse_kdd(io.StringIO(",".join(values) + ",normal."))
        assert err.value.column == 4

    @pytest.mark.parametrize("bad", ["-1", "inf", "nan"])
    def test_non_finite_or_negative(self, bad):
        values = ["0"] * ds.NUM_FEATURES
        values[1], values[2], values[3] = "tcp", "http", "SF"
        values[0] = bad
        with pytest.raises(FieldTypeError):
            ds.parse_kdd(io.StringIO(",".join(values) + ",normal."))

    def test_line_numbers_count_raw_lines(self):
        text = make_line() + "\n\n" + ",".join(["0"] * 40) + ",x.\n"
        with pytest.raises(MalformedLineError) as err:
            ds.parse_kdd(io.StringIO(text))
        assert err.value.line_no == 3

    def test_type_error_wins_over_later_malformed_line(self):
        values = ["0"] * ds.NUM_FEATURES
        values[1], values[2], values[3] = "tcp", "http", "SF"
        values[7] = "x"
        text = ",".join(values) + ",normal.\n" + ",".join(["0"] * 40) + ",normal.\n"
        with pytest.raises(FieldTypeError) as err:
            ds.parse_kdd(io.StringIO(text))
        assert (err.value.line_no, err.value.column) == (1, 7)

    def test_bad_cell_past_first_block_has_absolute_line(self):
        lines = [make_line()] * 1600
        lines[1500] = make_line().replace(",215,", ",-215,", 1)
        assert 1500 > ds.BLOCK_ROWS
        with pytest.raises(FieldTypeError) as err:
            ds.parse_kdd(io.StringIO("\n".join(lines)))
        assert (err.value.line_no, err.value.column) == (1501, 4)

    def test_blocks_keep_line_numbers_and_values(self):
        lines = [make_line(label="SMURF.")] * (ds.BLOCK_ROWS + 3)
        lines[-1] = make_line().replace(",215,", ",1_000,", 1)  # float() only
        blocks = list(ds.iter_blocks(io.StringIO("\n\n".join(lines))))
        assert [len(b) for b in blocks] == [ds.BLOCK_ROWS, 3]
        assert blocks[1].line_numbers == [2 * i + 1 for i in range(ds.BLOCK_ROWS, ds.BLOCK_ROWS + 3)]
        assert blocks[0].labels[0] == "smurf"
        assert blocks[0].categorical[0] == ("tcp", "http", "SF")
        src_bytes = ds.CONTINUOUS_POSITIONS.index(4)
        assert blocks[0].continuous.dtype == np.float64
        assert blocks[0].continuous[0, src_bytes] == 215.0
        assert blocks[1].continuous[-1, src_bytes] == 1000.0
        assert ds.parse_kdd(io.StringIO(lines[-1]))[0].values[4] == "1_000"

    def test_prepare_reports_bad_cell(self, tmp_path, capsys):
        corpus = tmp_path / "bad.kdd"
        records = synthetic.generate_records({"normal": 30, "smurf": 30}, seed=0)
        lines = ds.serialize_kdd(records).splitlines()
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
        records = synthetic.generate_records(profile={"normal": 40, "smurf": 25}, seed=3)
        text = ds.serialize_kdd(records)
        again = ds.parse_kdd(io.StringIO(text))
        assert again == records


class TestSchema:
    def test_vocabulary_sorted(self):
        lines = [
            make_line(protocol="tcp"),
            make_line(protocol="udp"),
            make_line(protocol="icmp"),
        ]
        schema = ds.build_schema(ds.parse_kdd(io.StringIO("\n".join(lines))))
        assert schema.vocabularies["protocol_type"] == ("icmp", "tcp", "udp")

    def test_single_record_vocabularies(self):
        schema = ds.build_schema(ds.parse_kdd(io.StringIO(make_line())))
        assert all(len(v) == 1 for v in schema.vocabularies.values())

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            ds.build_schema([])

    def test_order_insensitive(self):
        records = synthetic.generate_records(profile={"normal": 60, "neptune": 40}, seed=1)
        schema_a = ds.build_schema(records)
        schema_b = ds.build_schema(list(reversed(records)))
        assert schema_a == schema_b

    def test_descriptor_kinds(self):
        schema = ds.build_schema(ds.parse_kdd(io.StringIO(make_line())))
        assert len(schema.features) == 41
        kinds = [f.kind for f in schema.features]
        assert [i for i, k in enumerate(kinds) if k == "categorical"] == [1, 2, 3]

    def test_json_round_trip(self):
        schema = ds.build_schema(ds.parse_kdd(io.StringIO(make_line())))
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
        assert tax.labels_in(ds.NORMAL) == ("normal",)

    def test_unknown_label(self):
        with pytest.raises(UnknownLabelError) as err:
            ds.default_taxonomy().category_of("quantum_worm")
        assert err.value.label == "quantum_worm"


class TestCoarseCounts:
    def test_hand_counts(self):
        lines = [make_line("normal."), make_line("smurf."), make_line("smurf."),
                 make_line("satan."), make_line("spy.")]
        counts = ds.coarse_counts(
            ds.parse_kdd(io.StringIO("\n".join(lines))), ds.default_taxonomy()
        )
        assert counts == {ds.NORMAL: 1, ds.DOS: 2, ds.PROBE: 1, ds.UNAUTHORIZED: 1}

    def test_empty(self):
        counts = ds.coarse_counts([], ds.default_taxonomy())
        assert all(v == 0 for v in counts.values())
        assert list(counts) == list(ds.CATEGORIES)

    def test_counts_sum_to_total(self):
        records = synthetic.generate_records(seed=2, profile={
            "normal": 90, "smurf": 200, "satan": 12, "spy": 2, "perl": 3})
        counts = ds.coarse_counts(records, ds.default_taxonomy())
        assert sum(counts.values()) == len(records)

    def test_unknown_label_raises(self):
        record = ds.RawRecord(values=("0",) * 41, label="mystery")
        with pytest.raises(UnknownLabelError):
            ds.coarse_counts([record], ds.default_taxonomy())

    def test_counts_csv_shape(self):
        text = ds.counts_csv({c: i for i, c in enumerate(ds.CATEGORIES)}).decode()
        lines = text.strip().splitlines()
        assert lines[0] == "category,count"
        assert lines[1] == "Normal,0"
        assert len(lines) == 5
