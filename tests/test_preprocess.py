"""Encoding, stratified splitting, class weights, sampling, container I/O."""

import io
import zlib
from dataclasses import dataclass

import numpy as np
import pytest

from zids import dataset as ds
from zids import preprocess as pp
from zids import synthetic
from conftest import read_counts, run_cli
from zids.errors import (
    CorruptContainerError,
    MissingClassError,
    OutOfRangeError,
    VersionMismatchError,
    ZidsError,
)


FLOAT_NAMES = tuple(ds.FEATURE_NAMES[pos] for pos in ds.CONTINUOUS_POSITIONS)
PROFILE = {
    "normal": 300, "smurf": 500, "neptune": 150, "satan": 30,
    "ipsweep": 20, "guess_passwd": 12, "warezclient": 10, "spy": 2,
}


@dataclass
class Corpus:
    """The profile's lines through prepare's two readers: their unscaled
    continuous values and their coarse class indices."""

    lines: list
    labels: list
    x: np.ndarray
    y: np.ndarray
    k: int = len(ds.CATEGORIES)

    @property
    def n(self):
        return self.x.shape[0]

    def scaled(self, fit_rows=None):
        """x min-max scaled on its first fit_rows rows (all by default)."""
        x = self.x.copy()
        scaling = pp.fit_scaling(x[:fit_rows])
        pp.apply_scaling(x, scaling, FLOAT_NAMES)
        return x, scaling


@pytest.fixture(scope="module")
def corpus():
    lines = synthetic.generate_lines(seed=4, profile=PROFILE)
    text = "".join(line + "\n" for line in lines)
    x = np.concatenate(list(ds.iter_continuous(io.StringIO(text)))).astype(np.float32)
    labels = [
        patterns[code].rsplit(",", 1)[1]
        for patterns, codes in ds.iter_strings(lambda: io.StringIO(text))
        for code in codes
    ]
    y = np.array([ds.CATEGORIES.index(ds.CATEGORY_OF[l]) for l in labels])
    return Corpus(lines, labels, x, y)


@pytest.fixture(scope="module")
def prepared(corpus, tmp_path_factory):
    """`zids prepare` output for the same lines."""
    root = tmp_path_factory.mktemp("prepare")
    path = root / "corpus.kdd"
    path.write_text("".join(line + "\n" for line in corpus.lines))
    assert run_cli("prepare", "--data", path, "--out", root / "out", "--seed", 0) == 0
    return root / "out"


class TestEncode:
    def test_width_arithmetic(self):
        fields = (("protocol_type", tuple(f"p{i}" for i in range(3))),
                  ("service", tuple(f"s{i}" for i in range(70))),
                  ("flag", tuple(f"f{i}" for i in range(11))))
        rows = pp.Rows(np.zeros((1, 38), dtype=np.float32),
                       np.zeros((3, 1), dtype=np.uint16), fields,
                       tuple(ds.FEATURE_NAMES[pos] for pos in ds.CONTINUOUS_POSITIONS))
        assert rows.widths == (3, 70, 11)
        assert rows.d == 122
        assert len(rows.names) == 122

    def test_set_one_hot_names_its_columns(self):
        """Row i gets a 1.0 in the column named after each field's value at
        take[i], and nothing else changes."""
        fields = (("protocol_type", ("icmp", "tcp", "udp")),
                  ("service", ("ftp", "http", "smtp", "telnet")),
                  ("flag", ("S0", "SF")))
        codes = [np.array([2, 0, 1], dtype=np.int32),
                 np.array([3, 1, 0], dtype=np.int32),
                 np.array([0, 1, 1], dtype=np.int32)]
        take = np.array([1, 1, 2, 0])
        n_cont = len(ds.CONTINUOUS_POSITIONS)
        float_names = tuple(ds.FEATURE_NAMES[pos] for pos in ds.CONTINUOUS_POSITIONS)
        rows = pp.Rows(np.zeros((3, n_cont), dtype=np.float32), fields=fields,
                       float_names=float_names)
        x = np.zeros((take.size, rows.d), dtype=np.float32)
        x[:, :n_cont] = 7.0
        pp.set_one_hot(x, codes, take, rows.widths)
        names = rows.names
        assert names[:n_cont] == list(float_names)
        hot = [[names[j] for j in np.flatnonzero(row[n_cont:] == 1.0) + n_cont]
               for row in x]
        assert hot == [
            ["protocol_type=icmp", "service=http", "flag=SF"],
            ["protocol_type=icmp", "service=http", "flag=SF"],
            ["protocol_type=tcp", "service=ftp", "flag=SF"],
            ["protocol_type=udp", "service=telnet", "flag=S0"],
        ]
        assert np.all(x[:, :n_cont] == 7.0)
        assert x[:, n_cont:].sum() == 3 * take.size

    def test_one_hot_blocks(self, corpus, prepared):
        """Each container row holds its line's continuous values, scaled,
        and a one-hot of each categorical value, in wire order; the
        container names each field's sorted values."""
        fine = sorted(set(corpus.labels))
        y_fine = np.array([fine.index(label) for label in corpus.labels])
        fields = [line.split(",") for line in corpus.lines]
        vocabularies = {ds.FEATURE_NAMES[pos]: sorted({f[pos] for f in fields})
                        for pos in ds.CATEGORICAL_POSITIONS}
        n_cont = len(ds.CONTINUOUS_POSITIONS)
        splits = pp.split_indices(y_fine, len(fine), 0.33, seed=0)
        for name, idx in zip(("train", "test"), splits):
            enc = pp.read_container(prepared / f"{name}.zids", "fine")
            assert enc.float_names == tuple(
                ds.FEATURE_NAMES[pos] for pos in ds.CONTINUOUS_POSITIONS)
            assert enc.fields == tuple(
                (ds.FEATURE_NAMES[pos], tuple(vocabularies[ds.FEATURE_NAMES[pos]]))
                for pos in ds.CATEGORICAL_POSITIONS)
            assert np.array_equal(enc.y, y_fine[idx])
            cont = corpus.x[idx]
            pp.apply_scaling(cont, enc.scaling, enc.float_names)
            assert np.array_equal(enc.x, cont)
            dense = enc.rows().dense()
            assert dense.shape[1] == enc.d == len(enc.feature_names)
            assert np.array_equal(dense[:, :n_cont], cont)
            base = n_cont
            for pos in ds.CATEGORICAL_POSITIONS:
                vocab = vocabularies[ds.FEATURE_NAMES[pos]]
                one_hot = np.zeros((idx.size, len(vocab)), dtype=np.float32)
                one_hot[np.arange(idx.size),
                        [vocab.index(fields[i][pos]) for i in idx]] = 1.0
                assert np.array_equal(dense[:, base:base + len(vocab)], one_hot)
                base += len(vocab)

    def test_coarse_classes(self, prepared):
        for split in ("train", "test"):
            enc = pp.read_container(prepared / f"{split}.zids", "coarse")
            assert enc.class_names == list(ds.CATEGORIES)
            assert enc.k == 4
            assert enc.y.min() >= 0 and enc.y.max() < 4

    def test_fine_classes_sorted(self, corpus, prepared):
        enc = pp.read_container(prepared / "train.zids", "fine")
        assert enc.class_names == sorted(set(corpus.labels))

    def test_label_histogram_matches_counts_csv(self, prepared):
        hist = sum(
            np.bincount(pp.read_container(prepared / f"{split}.zids", "coarse").y,
                        minlength=4)
            for split in ("train", "test")
        )
        counts = read_counts(prepared / "counts.csv")
        assert [counts[c] for c in ds.CATEGORIES] == list(hist)

    def test_scaling_in_unit_interval_on_fit_data(self, corpus):
        x, _ = corpus.scaled()
        n_cont = len(ds.CONTINUOUS_POSITIONS)
        cont = x[:, :n_cont]
        assert cont.min() >= 0.0 and cont.max() <= 1.0

    def test_constant_feature_scales_to_zero(self, corpus):
        x, scaling = corpus.scaled()
        # num_outbound_cmds is always zero in the corpus
        col = ds.CONTINUOUS_POSITIONS.index(
            ds.FEATURE_NAMES.index("num_outbound_cmds")
        )
        assert np.all(x[:, col] == 0.0)
        lo, hi = scaling[col]
        assert lo == hi

    def test_range_below_float32_normal_scales_to_zero(self):
        tiny = np.finfo(np.float32).tiny
        x = np.array([[0.0, 0.0, 1.0, 5.0],
                      [1e-45, tiny, 3.0, 5.0]], dtype=np.float32)
        pp.apply_scaling(x, pp.fit_scaling(x), ("a", "b", "c", "d"))
        # a subnormal range maps to 0 like a zero one; the smallest normal
        # range still scales, to 2**-126 * 2**126 == 1 exactly
        assert np.array_equal(x, [[0, 0, 0, 0], [0, 1, 1, 0]])

    def test_scaling_past_float32_is_data_error(self):
        """A range just above float32's smallest normal has an inverse
        near 8.3e37, so 100 scales past float32's range: a data error
        naming the column, and no overflow warning."""
        scaling = [(0.0, 1.0), (0.0, float(np.float32(1.2e-38)))]
        x = np.array([[1.0, 1.2e-38], [0.5, 1e-39]], dtype=np.float32)
        pp.apply_scaling(x, scaling, ("a", "b"))  # within float32's range
        assert x[0].tolist() == pytest.approx([1.0, 1.0])
        x = np.array([[1.0, 0.0], [0.5, 100.0]], dtype=np.float32)
        with pytest.raises(ZidsError, match="^b: a value scales past float32's range"):
            pp.apply_scaling(x, scaling, ("a", "b"))

    def test_applied_scaling_may_exceed_unit(self, corpus):
        x, _ = corpus.scaled(fit_rows=100)
        n_cont = len(ds.CONTINUOUS_POSITIONS)
        assert x[:, :n_cont].max() >= 1.0  # out-of-range values allowed

    def test_shared_class_names(self, corpus, prepared):
        names = sorted(set(corpus.labels))
        for split in ("train", "test"):
            enc = pp.read_container(prepared / f"{split}.zids", "fine")
            assert enc.class_names == names



class TestStratifiedSplit:
    def test_two_samples(self):
        y = np.array([0, 0])
        train, test = pp.split_indices(y, 1, 0.33, seed=0)
        assert train.size == 1 and test.size == 1

    def test_singleton_goes_to_train(self):
        y = np.array([0, 1, 1, 1])
        train, test = pp.split_indices(y, 2, 0.5, seed=0)
        assert 0 in train and 0 not in test

    def test_partition(self, corpus):
        train_idx, test_idx = pp.split_indices(corpus.y, corpus.k, 0.33, seed=9)
        assert train_idx.dtype == test_idx.dtype == np.int32
        assert np.intersect1d(train_idx, test_idx).size == 0
        assert np.array_equal(
            np.sort(np.concatenate([train_idx, test_idx])), np.arange(corpus.n)
        )
        assert train_idx.size + test_idx.size == corpus.n

    def test_per_class_bound(self, corpus):
        _, test_idx = pp.split_indices(corpus.y, corpus.k, 0.33, seed=9)
        for c in range(corpus.k):
            n_c = int((corpus.y == c).sum())
            t_c = int((corpus.y[test_idx] == c).sum())
            assert abs(t_c - n_c * 0.33) < 1.0

    def test_determinism(self, corpus):
        a = pp.split_indices(corpus.y, corpus.k, 0.33, seed=5)
        b = pp.split_indices(corpus.y, corpus.k, 0.33, seed=5)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        c = pp.split_indices(corpus.y, corpus.k, 0.33, seed=6)
        assert not np.array_equal(a[1], c[1])

    def test_degenerate_class(self):
        y = np.array([0, 0, 2, 2])  # class 1 missing
        with pytest.raises(MissingClassError) as err:
            pp.split_indices(y, 3, 0.33, seed=0)
        assert err.value.class_index == 1

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            pp.split_indices(np.array([0, 0]), 1, 1.5, seed=0)

    def test_allocation_rule(self):
        assert pp.allocate_test_count(2, 0.33) == 1
        assert pp.allocate_test_count(1, 0.33) == 0
        assert pp.allocate_test_count(1, 0.9) == 0  # singleton guard
        assert pp.allocate_test_count(100, 0.33) == 33
        assert pp.allocate_test_count(979, 0.33) == 323


class TestClassWeights:
    def test_uniform_is_ones(self):
        y = np.array([0, 1, 2, 0, 1, 2])
        w = pp.class_weights(y, 3)
        assert np.all(w.w == 1.0)

    def test_ninety_ten(self):
        y = np.array([0] * 90 + [1] * 10)
        w = pp.class_weights(y, 2)
        assert np.allclose(w.w, [0.2, 1.8], atol=1e-12)

    def test_rarest_class_heaviest(self, corpus):
        w = pp.class_weights(corpus.y, corpus.k)
        counts = np.bincount(corpus.y, minlength=corpus.k)
        assert np.argmax(w.w) == np.argmin(counts)
        assert abs(w.w.mean() - 1.0) <= 1e-12

    def test_missing_class(self):
        with pytest.raises(MissingClassError):
            pp.class_weights(np.array([0, 0, 2]), 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            pp.ClassWeights(np.array([2.0, 1.0]))  # mean != 1
        with pytest.raises(ValueError):
            pp.ClassWeights(np.array([-1.0, 3.0]))


class TestSampleRows:
    def test_full_sample_is_permutation(self, corpus):
        sampled = corpus.y[pp.sample_indices(corpus.n, corpus.n, seed=3)]
        assert sampled.size == corpus.n
        assert not np.array_equal(sampled, corpus.y)  # actually permuted
        assert np.array_equal(np.sort(sampled), np.sort(corpus.y))

    def test_determinism(self):
        assert np.array_equal(pp.sample_indices(100, 10, 7), pp.sample_indices(100, 10, 7))
        assert not np.array_equal(pp.sample_indices(100, 10, 7), pp.sample_indices(100, 10, 8))

    def test_distinct(self):
        idx = pp.sample_indices(50, 50, 0)
        assert len(set(idx)) == 50

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            pp.sample_indices(10, 11, 0)
        with pytest.raises(OutOfRangeError):
            pp.sample_indices(10, 0, 0)


class TestContainer:
    def make(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.random((20, 4)).astype(np.float32)
        codes = np.stack([rng.integers(0, w, 20) for w in (2, 5)]).astype(np.uint16)
        scaling = [(0.0, 1.0)] * 4
        fields = (("p", ("a", "b")), ("s", tuple("vwxyz")))
        columns = [
            pp.LabelColumn("coarse", ["a", "b", "c", "d"],
                           rng.integers(0, 4, 20).astype(np.int32)),
            pp.LabelColumn("fine", [f"f{i}" for i in range(6)],
                           rng.integers(0, 6, 20).astype(np.int32)),
        ]
        path = tmp_path / "data.zids"
        pp.write_container(path, pp.Rows(x, codes, fields, ("u0", "u1", "u2", "u3")),
                           scaling, columns)
        return path, x, scaling, columns

    def test_round_trip(self, tmp_path):
        path, x, scaling, columns = self.make(tmp_path)
        loaded = pp.read_container(path, "coarse")
        assert np.array_equal(loaded.x, x)
        assert loaded.rows().widths == (2, 5) and loaded.d == 11
        assert loaded.feature_names == ["u0", "u1", "u2", "u3", "p=a", "p=b",
                                        "s=v", "s=w", "s=x", "s=y", "s=z"]
        assert np.array_equal(loaded.y, columns[0].y)
        assert loaded.class_names == columns[0].class_names
        assert loaded.scaling == scaling
        dense = loaded.rows().dense()
        assert np.array_equal(dense[:, :4], x)
        assert np.all(dense[:, 4:6].sum(axis=1) == 1)
        assert np.all(dense[:, 6:].sum(axis=1) == 1)

    def test_rows_make_dense_in_pieces(self, tmp_path):
        path, *_ = self.make(tmp_path)
        rows, _, _ = pp.read_container_columns(path)
        whole = rows.dense()
        take = np.array([19, 3, 3, 0, 7])
        assert np.array_equal(rows[5:15].dense(), whole[5:15])
        assert np.array_equal(rows[::-3].dense(), whole[::-3])
        assert np.array_equal(rows[2:][1:4].dense(), whole[3:6])
        assert len(rows[5:15]) == 10
        subset = pp.Rows(rows.x, rows.codes, rows.fields, take=take)
        assert np.array_equal(subset.dense(), whole[take])
        assert np.array_equal(subset[1:4].dense(), whole[take[1:4]])
        # a dense matrix is the case with no coded fields
        assert np.array_equal(pp.Rows(whole, take=take).dense(), whole[take])

    def test_select_column(self, tmp_path):
        path, _, _, columns = self.make(tmp_path)
        fine = pp.read_container(path, "fine")
        assert np.array_equal(fine.y, columns[1].y)
        _, _, stored = pp.read_container_columns(path)
        assert [c.name for c in stored] == ["coarse", "fine"]
        with pytest.raises(CorruptContainerError):
            pp.read_container(path, "nope")

    def test_missing_label_column_names_the_file(self, tmp_path):
        path, *_ = self.make(tmp_path)
        with pytest.raises(CorruptContainerError) as exc:
            pp.read_container(path, "nope")
        assert str(exc.value) == (f"corrupt dataset container: {path}: no label "
                                  "column 'nope'; available: ['coarse', 'fine']")

    def test_bit_identical_rewrite(self, tmp_path):
        path, x, scaling, columns = self.make(tmp_path)
        second = tmp_path / "again.zids"
        rows, _, _ = pp.read_container_columns(path)
        pp.write_container(second, rows, scaling, columns)
        assert path.read_bytes() == second.read_bytes()

    def test_prepared_container_rewrites_to_its_bytes(self, small_experiment, tmp_path):
        """write_container of what read_container_columns gives back writes
        the bytes prepare streamed, block by block, for both containers;
        the train container's scaling is that of its stored rows. A stream
        left unfinished leaves no file."""
        for name in ("train.zids", "test.zids"):
            path = small_experiment.prepared / name
            rows, scaling, columns = pp.read_container_columns(path)
            pp.write_container(tmp_path / name, rows, scaling, columns)
            assert (tmp_path / name).read_bytes() == path.read_bytes()
            if name == "train.zids":
                assert scaling == pp.fit_scaling(rows.x)

        with pytest.raises(ValueError, match="left unfinished"):
            with pp.stream_container(tmp_path / "left.zids", len(rows),
                                     rows.float_names, rows.fields) as stream:
                stream.add(rows.x)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["test.zids", "train.zids"]

    def test_stream_refuses_rows_it_cannot_store(self, small_experiment, tmp_path):
        """add() takes only rows of the float column count, and finish()
        only every row and one scaling entry per float column; a refused
        stream leaves no file."""
        rows, scaling, columns = pp.read_container_columns(
            small_experiment.prepared / "test.zids")
        codes = rows.codes[:, rows.take]
        path = tmp_path / "refused.zids"
        with pytest.raises(ValueError, match="columns for"):
            with pp.stream_container(path, len(rows), rows.float_names,
                                     rows.fields) as stream:
                stream.add(rows.x[:, 1:])
        for added, table in ((rows.x[1:], scaling), (rows.x, scaling[1:])):
            with pytest.raises(ValueError, match="scaling entries for"):
                with pp.stream_container(path, len(rows), rows.float_names,
                                         rows.fields) as stream:
                    stream.add(added)
                    stream.finish(table, codes, columns)
        assert not path.exists()

    def test_truncated(self, tmp_path):
        path, *_ = self.make(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CorruptContainerError):
            pp.read_container_columns(path)

    def test_bad_magic(self, tmp_path):
        path, *_ = self.make(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptContainerError):
            pp.read_container_columns(path)

    def test_trailing_bytes(self, tmp_path):
        path, *_ = self.make(tmp_path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(CorruptContainerError):
            pp.read_container_columns(path)

    def test_version_mismatch(self, tmp_path):
        path, *_ = self.make(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionMismatchError) as exc:
            pp.read_container_columns(path)
        assert str(exc.value).startswith(f"{path}: unsupported format version 99 ")

    def test_checksum_covers_every_byte(self, tmp_path):
        path, *_ = self.make(tmp_path)
        blob = path.read_bytes()
        for at in range(8, len(blob)):  # past magic and version
            damaged = bytearray(blob)
            damaged[at] ^= 0x01
            path.write_bytes(bytes(damaged))
            with pytest.raises(CorruptContainerError):
                pp.read_container_columns(path)

    @pytest.mark.parametrize("at", [12, 14, 15])
    def test_row_count_checked_before_allocating(self, tmp_path, at):
        # a flipped high byte of N asks for terabytes; the checksum is
        # made valid, so the header sizes, not the checksum, refuse it
        path, *_ = self.make(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[at] ^= 0xFF
        blob[-4:] = zlib.crc32(blob[:-4]).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptContainerError, match="header sizes"):
            pp.read_container_columns(path)
