"""Memory held by containers and training, as tracemalloc counts it (numpy
reports its buffers to tracemalloc)."""

import tracemalloc

import numpy as np
import pytest

from zids import mlp
from zids import preprocess as pp

ROWS = 100_000
WIDTHS = (3, 70, 11)  # the full-file vocabularies: d = 38 + 84 = 122


@pytest.fixture(scope="module")
def container(tmp_path_factory):
    rng = np.random.default_rng(0)
    x = rng.random((ROWS, 38), dtype=np.float32)
    codes = np.stack([rng.integers(0, w, ROWS) for w in WIDTHS]).astype(np.uint16)
    y = rng.integers(0, 4, ROWS)
    path = tmp_path_factory.mktemp("memory") / "train.zids"
    pp.write_container(
        path, pp.Rows(x, codes, WIDTHS), [(0.0, 1.0)] * 38,
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
