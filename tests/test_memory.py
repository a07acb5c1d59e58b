"""Memory held by prepare, containers, training and KernelSHAP, as
tracemalloc counts it (numpy reports its buffers to tracemalloc)."""

import contextlib
import json
import tracemalloc

import numpy as np
import pytest

from zids import _blas, cli, mlp, shap
from zids import preprocess as pp

ROWS = 100_000
WIDTHS = (3, 70, 11)  # the full-file vocabularies: d = 38 + 84 = 122
FIELDS = tuple((f"field{j}", tuple(f"v{i}" for i in range(w))) for j, w in enumerate(WIDTHS))


@pytest.fixture(scope="module")
def container(tmp_path_factory):
    rng = np.random.default_rng(0)
    x = rng.random((ROWS, 38), dtype=np.float32)
    codes = np.stack([rng.integers(0, w, ROWS) for w in WIDTHS]).astype(np.uint16)
    y = rng.integers(0, 4, ROWS)
    path = tmp_path_factory.mktemp("memory") / "train.zids"
    pp.write_container(
        path, pp.Rows(x, codes, FIELDS, tuple(f"c{i}" for i in range(38))),
        [(0.0, 1.0)] * 38,
        [pp.LabelColumn("coarse", ["a", "b", "c", "d"], y)],
    )
    return path


def traced_peak(fn):
    """fn's result and the most bytes it held at once beyond the start."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak - start


def prepare_peak(experiment, tmp_path):
    """A prepare of the 1x corpus: its tracemalloc peak, and the bytes of
    one (rows, 38) float32 matrix of all its rows (4.0 MiB)."""
    argv = ["prepare", "--data", str(experiment.corpus), "--out", str(tmp_path / "p")]
    rc, peak = traced_peak(lambda: cli.main(argv))
    assert rc == 0
    rows = json.loads((tmp_path / "p" / "manifest.json").read_text())["data"]["rows"]
    return peak, rows * 38 * 4


def test_prepare_holds_the_float_columns_once(experiment, tmp_path):
    """The peak leaves no room for a second copy of the float columns of
    every row."""
    peak, matrix = prepare_peak(experiment, tmp_path)
    assert peak < matrix + 4 * 2**20


def test_prepare_holds_no_split_matrix(experiment, tmp_path):
    """Pass 2 appends each block's rows to the containers as it reads
    them, unscaled: the peak stays below one float32 matrix of the float
    columns."""
    peak, matrix = prepare_peak(experiment, tmp_path)
    assert peak < matrix


def test_read_holds_no_more_than_the_file(container):
    data, peak = traced_peak(lambda: pp.read_container(container, "coarse"))
    assert data.d == 122
    assert peak <= container.stat().st_size + 64 * 2**10


def test_training_holds_no_dense_copy_of_the_rows(container):
    data = pp.read_container(container, "coarse")
    model = mlp.init([data.d, 16, data.k], seed=0)
    config = mlp.TrainConfig(epochs=1)
    _, peak = traced_peak(lambda: mlp.train(model, data, data, config))
    # the smallest (n, d) float array, float32, would take this much alone
    assert peak < ROWS * data.d * 4


def test_kernel_shap_streams_the_shared_pairs(monkeypatch):
    """Rows that are their own background share every pair of rows, and
    no two masked rows are alike when every column differs. The outputs
    of the pairs are added up step by step, so the call holds far less
    than a store of every pair's outputs would."""
    single_threaded = _blas.single_threaded

    @contextlib.contextmanager
    def two_workers():  # the peak grows with the workers; pin them
        with single_threaded():
            yield 2

    monkeypatch.setattr(_blas, "single_threaded", two_workers)
    rows = np.random.default_rng(1).normal(size=(60, 20))
    model = mlp.init([20, 8, 3], seed=0)
    expl, peak = traced_peak(lambda: shap.kernel_shap(
        lambda z: mlp.forward(model, z), rows, rows, budget=512))
    assert expl.shared_pairs == 60 * 59 // 2
    stored_outputs = expl.model_rows * 3 * 8  # float64, indices not counted
    assert stored_outputs > 16 * 2**20
    assert peak < stored_outputs / 2
