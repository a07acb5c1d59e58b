"""Dense feed-forward classifier: forward pass, weighted cross-entropy,
analytic backpropagation, Adam/SGD training loop, and model files.

The network runs in the dtype of its parameters: init() makes float64
models by default, and the CLI trains float32 ones, which model files
store. Activations, gradients and optimizer moments take that dtype;
losses and weight sums are float64. Batch inputs are dense matrices or
preprocess.Rows, made dense in the parameters' dtype one batch or one
inference piece at a time.

Every inference forward pass (forward(), and so predict(), the
per-epoch validation of train() and explain's model) runs in zero-padded
pieces of _PIECE_ROWS rows. BLAS may take another path, and give other
bits, at another row count; at one fixed count a row's probabilities are
a function of the row alone, whatever call or position it comes in, and
the activations stay _PIECE_ROWS tall. Training steps run on their
batches as they are.

A model file (format 5, in the envelope of _atomic that containers
share) names the model's inputs and classes; their counts give its input
and output widths, so only the hidden layer sizes are stored, then the
float32 parameters.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._atomic import checked_file, csv_bytes, pack_names, pack_str, read_checked
from .errors import (
    BadDimsError,
    CorruptModelError,
    NonFiniteLossError,
    ShapeMismatchError,
    ZidsError,
)
from .preprocess import ClassWeights, EncodedDataset, Rows

MODEL_MAGIC = b"ZMLP"
MODEL_VERSION = 5

LOG_FLOOR = 1e-12  # added inside log() so hard zeros stay finite
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
_SUM_ROWS = 65536  # rows per block of _probability_blocks(), one loss sum each
_PIECE_ROWS = 1024  # rows of every inference matmul, zero-padded
_PAIRWISE_MIN = 8  # np.sum adds rows this long and longer in blocks


@dataclass
class MlpModel:
    """Per-layer weight matrices and bias vectors, and the names of the
    model's inputs and outputs.

    weights[i] has shape (dims[i], dims[i+1]); hidden layers use the
    rectifier, the output is a softmax over dims[-1] classes. The inputs
    are the encoded columns feature_names; the classes are class_names in
    the container label column `label_column`.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    label_column: str
    feature_names: list[str]
    class_names: list[str]

    @property
    def dims(self) -> list[int]:
        """Layer sizes: the input width, then each layer's output width."""
        return [self.weights[0].shape[0], *(w.shape[1] for w in self.weights)]

    @property
    def n_classes(self) -> int:
        return self.weights[-1].shape[1]


@dataclass
class TrainConfig:
    epochs: int = 20
    batch_size: int = 1024
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    seed: int = 0
    class_weights: Optional[ClassWeights] = None

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1: {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1: {self.batch_size}")
        if not 0 < self.learning_rate < math.inf:  # also refuses NaN
            raise ValueError(f"learning_rate must be finite and > 0: {self.learning_rate}")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"optimizer must be 'adam' or 'sgd': {self.optimizer}")


@dataclass
class EpochStats:
    train_loss: float
    val_loss: float
    val_accuracy: float


def init(dims: Sequence[int], seed: int, dtype=np.float64) -> MlpModel:
    """Glorot-uniform weights, zero biases, deterministic per seed, in
    dtype: the float64 draws rounded to it.

    The inputs are named f0, f1, ... and the classes class_0, class_1, ...
    under no label column. Raises BadDimsError for fewer than two sizes,
    a size below 1, or a layer larger than numpy can address.
    """
    dims = [int(d) for d in dims]
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise BadDimsError(f"dims must be >= 2 positive sizes: {dims}")
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        try:
            w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        except ValueError:  # a size numpy cannot address
            raise BadDimsError(f"layer {fan_in}x{fan_out} too large: {dims}") from None
        weights.append(w.astype(dtype, copy=False))
        biases.append(np.zeros(fan_out, dtype))
    feature_names = [f"f{i}" for i in range(dims[0])]
    class_names = [f"class_{i}" for i in range(dims[-1])]
    return MlpModel(weights, biases, "", feature_names, class_names)


def count_parameters(model: MlpModel) -> int:
    """Total trainable parameters: sum of (fan_in + 1) * fan_out."""
    return sum(
        (fan_in + 1) * fan_out
        for fan_in, fan_out in zip(model.dims[:-1], model.dims[1:])
    )


def _check_shape(model: MlpModel, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[1] != model.dims[0]:
        raise ShapeMismatchError(
            f"input shape {x.shape} does not match model width {model.dims[0]}"
        )
    return x


def _check_rows(model: MlpModel, x_batch) -> Rows:
    """x_batch, Rows or a dense matrix, as Rows of the model's width."""
    if isinstance(x_batch, Rows):
        if x_batch.d != model.dims[0]:
            raise ShapeMismatchError(
                f"input width {x_batch.d} does not match model width {model.dims[0]}"
            )
        return x_batch
    return Rows(_check_shape(model, x_batch))


def _check_labels(y: np.ndarray, n: int, k: int) -> np.ndarray:
    """y as an array of n class indices, each in 0..k-1."""
    y = np.asarray(y)
    if y.ndim != 1 or y.shape[0] != n:
        raise ShapeMismatchError(f"labels {y.shape} incompatible with {n} rows")
    if n and (y.min() < 0 or y.max() >= k):
        raise ShapeMismatchError(f"label out of range for {k} classes")
    return y


def _forward_into(
    model: MlpModel, x: np.ndarray, acts: list[np.ndarray], row: np.ndarray
) -> np.ndarray:
    """Forward pass of the rows x, writing layer i's output into acts[i].

    x and every array are in the parameters' dtype. acts[i] is
    (n, dims[i+1]) and row an (n, 1) scratch for the softmax row max and
    row sum. Hidden layers apply the rectifier, the last layer a softmax,
    each in place. Returns acts[-1], the class probabilities.

    The softmax works column by column instead of reducing along rows,
    which costs more than the arithmetic on a few classes. Its row max is
    np.maximum over the columns. Its row sum is ((h0 + h1) + h2) + ...
    below _PAIRWISE_MIN columns, which is the order np.sum adds a row that
    short in, and np.sum itself from there on; so the probabilities keep
    np.max's and np.sum's bits.
    """
    last = len(acts) - 1
    h = x
    for i, (w, b, z) in enumerate(zip(model.weights, model.biases, acts)):
        np.matmul(h, w, out=z)
        z += b
        if i < last:
            np.maximum(z, 0.0, out=z)
        h = z
    k = h.shape[1]
    np.copyto(row, h[:, :1])
    for j in range(1, k):
        np.maximum(row, h[:, j : j + 1], out=row)
    h -= row
    np.exp(h, out=h)
    if k < _PAIRWISE_MIN:
        np.copyto(row, h[:, :1])
        for j in range(1, k):
            row += h[:, j : j + 1]
    else:
        np.sum(h, axis=1, keepdims=True, out=row)
    h /= row
    return h


def forward(model: MlpModel, x_batch) -> np.ndarray:
    """Class probabilities, in the parameters' dtype, one row per row of
    x_batch (Rows or a dense matrix); rows sum to 1.

    The rows run in pieces of _PIECE_ROWS, each made dense on its own and
    zero-padded to that height, so a row's probabilities do not depend on
    the call it comes in. Every call returns a new array.
    """
    data = _check_rows(model, x_batch)
    n, dtype = len(data), model.weights[0].dtype
    probs = np.empty((n, model.n_classes), dtype)
    x = np.empty((_PIECE_ROWS, model.dims[0]), dtype)
    acts = [np.empty((_PIECE_ROWS, d), dtype) for d in model.dims[1:]]
    row = np.empty((_PIECE_ROWS, 1), dtype)
    for start in range(0, n, _PIECE_ROWS):
        piece = data[start : start + _PIECE_ROWS]
        m = len(piece)
        piece.dense(x[:m])
        x[m:] = 0.0
        probs[start : start + m] = _forward_into(model, x, acts, row)[:m]
    return probs


def _probability_blocks(model: MlpModel, x):
    """Yield (rows, probs) for each _SUM_ROWS-row block of x, in order:
    rows is the block's slice of x's rows and probs its class
    probabilities, from one forward() call.

    x is Rows or a dense matrix of the model's width.
    """
    data = _check_rows(model, x)
    for start in range(0, len(data), _SUM_ROWS):
        rows = slice(start, min(start + _SUM_ROWS, len(data)))
        yield rows, forward(model, data[rows])


def predict(model: MlpModel, x_batch) -> np.ndarray:
    """Argmax class per row of x_batch, Rows or a dense matrix; ties
    resolve to the lowest index.

    Memory stays bounded: see _probability_blocks().
    """
    x = _check_rows(model, x_batch)
    preds = np.empty(len(x), dtype=np.intp)
    for rows, probs in _probability_blocks(model, x):
        preds[rows] = np.argmax(probs, axis=1)
    return preds


def _sample_weights(
    y: np.ndarray, k: int, weights: Optional[ClassWeights], out: np.ndarray
) -> np.ndarray:
    """Class weight of each label in y, written into out; ones if unweighted.

    The labels must already lie in 0..k-1: mode="clip" lets np.take write
    straight into out, where mode="raise" would buffer.
    """
    if weights is None:
        out.fill(1.0)
        return out
    if weights.w.size != k:
        raise ShapeMismatchError(
            f"{weights.w.size} class weights for {k} classes"
        )
    return np.take(weights.w, y, out=out, mode="clip")


def loss(
    probs: np.ndarray, y: np.ndarray, weights: Optional[ClassWeights] = None
) -> float:
    """Cross-entropy averaged with per-sample class weights.

    Normalized by the total weight of the batch, so all-ones weights
    reduce exactly to the unweighted mean.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2:
        raise ShapeMismatchError(f"probs {probs.shape} is not a matrix")
    y = _check_labels(np.asarray(y, dtype=np.int64), probs.shape[0], probs.shape[1])
    nll, weight_sum = _nll_sum(probs, y, weights)
    return nll / weight_sum


def _nll_sum(
    probs: np.ndarray, y: np.ndarray, weights: Optional[ClassWeights]
) -> tuple[float, float]:
    """Weighted negative log-likelihood summed over rows, and the weight sum."""
    n = y.shape[0]
    w = _sample_weights(y, probs.shape[1], weights, np.empty(n))
    return _nll_of_picked(probs[np.arange(n), y], w, np.empty(n)), float(w.sum())


def _nll_of_picked(picked: np.ndarray, w: np.ndarray, out: np.ndarray) -> float:
    """Sum of -w * log(p) over the rows' true-class probabilities p, in
    float64 whatever picked's dtype, with out as float64 scratch."""
    # min() keeps the floored argument <= 1 so the loss never goes negative
    # when float softmax saturates a probability at exactly 1.0
    np.add(picked, LOG_FLOOR, out=out, dtype=np.float64)
    np.minimum(out, 1.0, out=out)
    np.log(out, out=out)
    out *= w
    return float(-out.sum())


def _parameters(model: MlpModel) -> list[np.ndarray]:
    """Weights and biases, layer by layer: w0, b0, w1, b1, ..."""
    return [p for pair in zip(model.weights, model.biases) for p in pair]


class _Workspace:
    """The arrays of one training step, reused from step to step.

    Sized for `rows` input rows; a smaller batch works on views of the
    leading rows. The network's arrays take the parameters' dtype; the
    sample weights and the loss terms stay float64. Backprop leaves its
    gradients in grads_w and grads_b, and `scratch` holds one pair of
    arrays per parameter for the update.
    """

    def __init__(self, model: MlpModel, rows: int):
        widths = model.dims[1:]
        dtype = model.weights[0].dtype
        self.rows = rows
        self.x = np.empty((rows, model.dims[0]), dtype)
        self.acts = [np.empty((rows, d), dtype) for d in widths]
        self.deltas = [np.empty((rows, d), dtype) for d in widths]
        self.alive = [np.empty((rows, d), dtype=bool) for d in widths[:-1]]
        self.row = np.empty((rows, 1), dtype)
        self.scale = np.empty((rows, 1), dtype)
        self.y = np.empty(rows, dtype=np.intp)
        self.flat = np.empty(rows, dtype=np.intp)
        self.row_start = np.arange(rows, dtype=np.intp) * widths[-1]
        self.w = np.empty(rows)
        self.picked = np.empty(rows, dtype)
        self.nll = np.empty(rows)
        self.grads_w = [np.empty_like(w) for w in model.weights]
        self.grads_b = [np.empty_like(b) for b in model.biases]
        self.scratch = [
            (np.empty_like(p), np.empty_like(p)) for p in _parameters(model)
        ]

    def gradients(self) -> list[np.ndarray]:
        """Gradients in _parameters() order."""
        return [g for pair in zip(self.grads_w, self.grads_b) for g in pair]


def _loss_and_gradients(
    model: MlpModel,
    ws: _Workspace,
    x: Rows,
    y: np.ndarray,
    weights: Optional[ClassWeights],
) -> tuple[float, float]:
    """Forward pass, weighted loss and backprop of one batch, inside ws.

    x holds n <= ws.rows rows, made dense straight into ws.x. The gradients
    of loss() land in ws.grads_w and ws.grads_b. Returns the weighted
    negative log-likelihood sum and the weight sum of the batch.
    """
    n = len(x)
    yb = ws.y[:n]
    np.copyto(yb, _check_labels(y, n, model.n_classes), casting="unsafe")
    xb = x.dense(ws.x[:n])
    acts = [a[:n] for a in ws.acts]
    probs = _forward_into(model, xb, acts, ws.row[:n])

    w = _sample_weights(yb, model.n_classes, weights, ws.w[:n])
    flat = np.add(ws.row_start[:n], yb, out=ws.flat[:n])  # (i, y[i]) in probs
    picked = ws.picked[:n]
    np.take(probs.ravel(), flat, out=picked, mode="clip")  # flat is in range
    nll = _nll_of_picked(picked, w, ws.nll[:n])

    # d loss / d logits = (probs - onehot(y)) * w / sum(w)
    delta = ws.deltas[-1][:n]
    np.copyto(delta, probs)
    picked -= 1.0
    np.put(delta.ravel(), flat, picked)
    weight_sum = w.sum()
    scale = np.divide(w[:, None], weight_sum, out=ws.scale[:n])
    delta *= scale

    inputs = [xb] + acts[:-1]
    for i in range(len(model.weights) - 1, -1, -1):
        np.matmul(inputs[i].T, delta, out=ws.grads_w[i])
        np.sum(delta, axis=0, out=ws.grads_b[i])
        if i > 0:
            prev = np.matmul(delta, model.weights[i].T, out=ws.deltas[i - 1][:n])
            # Zeroes delta where the rectifier cut the unit off. Such an
            # entry may become -0.0, which no sum or update below can tell
            # from 0.0; multiplying is several times faster than a masked
            # assignment on an irregular mask.
            prev *= np.greater(inputs[i], 0.0, out=ws.alive[i - 1][:n])
            delta = prev
    return nll, float(weight_sum)


def gradients(
    model: MlpModel,
    x_batch: np.ndarray,
    y: np.ndarray,
    weights: Optional[ClassWeights] = None,
):
    """Analytic gradients of loss() w.r.t. every weight matrix and bias.

    Every call returns new arrays.
    """
    x = _check_rows(model, x_batch)
    ws = _Workspace(model, len(x))
    _loss_and_gradients(model, ws, x, y, weights)
    return ws.grads_w, ws.grads_b


class _Adam:
    def __init__(self, model: MlpModel, config: TrainConfig, rows: int):
        self.lr = config.learning_rate
        self.t = 0
        self.m = [np.zeros_like(p) for p in _parameters(model)]
        self.v = [np.zeros_like(p) for p in _parameters(model)]
        self.workspace = _Workspace(model, rows)

    def step(self, model: MlpModel) -> None:
        """Update in place: m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g,
        p -= lr * (m/c1) / (sqrt(v/c2) + eps), in that operation order,
        with (b1, b2, eps) = (ADAM_BETA1, ADAM_BETA2, ADAM_EPS)."""
        self.t += 1
        c1 = 1.0 - ADAM_BETA1**self.t
        c2 = 1.0 - ADAM_BETA2**self.t
        ws = self.workspace
        for p, g, m, v, (s, r) in zip(
            _parameters(model), ws.gradients(), self.m, self.v, ws.scratch
        ):
            m *= ADAM_BETA1
            m += np.multiply(1.0 - ADAM_BETA1, g, out=s)
            v *= ADAM_BETA2
            np.multiply(1.0 - ADAM_BETA2, g, out=s)
            s *= g
            v += s
            np.divide(m, c1, out=s)
            np.multiply(self.lr, s, out=s)
            np.divide(v, c2, out=r)
            np.sqrt(r, out=r)
            r += ADAM_EPS
            s /= r
            p -= s


class _Sgd:
    def __init__(self, model: MlpModel, config: TrainConfig, rows: int):
        self.lr = config.learning_rate
        self.workspace = _Workspace(model, rows)

    def step(self, model: MlpModel) -> None:
        ws = self.workspace
        for p, g, (s, _) in zip(_parameters(model), ws.gradients(), ws.scratch):
            p -= np.multiply(self.lr, g, out=s)


def optimizer_step(
    model: MlpModel,
    x_batch: np.ndarray,
    y: np.ndarray,
    config: TrainConfig,
    state=None,
):
    """One minibatch update on x_batch, Rows or a dense matrix; returns
    (state, batch_loss).

    The state owns the step's workspace, sized to the first batch and
    replaced when a larger batch arrives.
    """
    x = _check_rows(model, x_batch)
    n = len(x)
    if state is None:
        state = (_Adam if config.optimizer == "adam" else _Sgd)(model, config, n)
    elif n > state.workspace.rows:
        state.workspace = _Workspace(model, n)
    nll, weight_sum = _loss_and_gradients(
        model, state.workspace, x, y, config.class_weights
    )
    state.step(model)
    return state, nll / weight_sum


def _evaluate(
    model: MlpModel,
    x,
    y: np.ndarray,
    weights: Optional[ClassWeights],
) -> tuple[float, float]:
    """Full-pass loss and accuracy over the blocks of _probability_blocks().

    The loss is summed once per block, then the block sums in order.
    """
    x = _check_rows(model, x)
    n = len(x)
    total_nll = 0.0
    total_w = 0.0
    correct = 0
    for rows, probs in _probability_blocks(model, x):
        yb = np.asarray(y[rows], dtype=np.int64)
        nll, weight_sum = _nll_sum(probs, yb, weights)
        total_nll += nll
        total_w += weight_sum
        correct += int((np.argmax(probs, axis=1) == yb).sum())
    return total_nll / total_w, correct / n


def train(
    model: MlpModel,
    train_ds: EncodedDataset,
    val_ds: EncodedDataset,
    config: TrainConfig,
) -> tuple[MlpModel, list[EpochStats]]:
    """Train in place for config.epochs epochs, validating after each.

    Every epoch reshuffles the training rows with the seeded generator and
    applies one optimizer step per minibatch. No early stopping; the
    history always has exactly config.epochs entries. A loss that
    overflows raises NonFiniteLossError at the end of its epoch, with no
    floating-point warning on the way.
    """
    for name, data in (("training", train_ds), ("validation", val_ds)):
        if data.n == 0:
            raise ZidsError(f"the {name} set has no rows")
    if train_ds.d != model.dims[0] or val_ds.d != model.dims[0]:
        raise ShapeMismatchError(
            f"data width {train_ds.d}/{val_ds.d} vs model width {model.dims[0]}"
        )
    k = model.n_classes
    if train_ds.y.max() >= k or val_ds.y.max() >= k:
        raise ShapeMismatchError(f"label out of range for {k} classes")

    rng = np.random.default_rng(config.seed)
    state = None
    history: list[EpochStats] = []
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, config.epochs + 1):
            perm = rng.permutation(train_ds.n)
            batch_losses = []
            for start in range(0, train_ds.n, config.batch_size):
                take = perm[start : start + config.batch_size]
                state, batch_loss = optimizer_step(
                    model, train_ds.rows(take), train_ds.y[take], config, state
                )
                batch_losses.append(batch_loss)
            train_loss = float(np.mean(batch_losses))
            val_loss, val_accuracy = _evaluate(
                model, val_ds.rows(), val_ds.y, config.class_weights
            )
            if not (np.isfinite(train_loss) and np.isfinite(val_loss)):
                raise NonFiniteLossError(epoch)
            history.append(EpochStats(train_loss, val_loss, val_accuracy))
    return model, history


def history_csv(history: Sequence[EpochStats]) -> bytes:
    """CSV rendering: epoch,train_loss,val_loss,val_accuracy."""
    return csv_bytes([
        ["epoch", "train_loss", "val_loss", "val_accuracy"],
        *([i, repr(s.train_loss), repr(s.val_loss), repr(s.val_accuracy)]
          for i, s in enumerate(history, start=1)),
    ])


def save(model: MlpModel, path) -> None:
    """Write the model in a "ZMLP" envelope (see _atomic): label column,
    feature names, class names, hidden sizes, then the float32
    little-endian weights and biases, layer by layer.

    The parameters must be float32: others would be rounded, and load()
    would not give them back. They must be finite: load() refuses a file
    with a NaN or an infinity.
    """
    dims = model.dims
    if [len(model.feature_names), len(model.class_names)] != [dims[0], dims[-1]]:
        raise ShapeMismatchError(f"feature and class names do not fit layer sizes {dims}")
    params = _parameters(model)
    if any(p.dtype != np.float32 for p in params):
        raise TypeError(f"model files store float32 parameters, not "
                        f"{sorted({p.dtype.name for p in params})}")
    if not all(np.isfinite(p).all() for p in params):
        raise ValueError("model files store finite parameters only")
    hidden = dims[1:-1]
    with checked_file(path, MODEL_MAGIC, MODEL_VERSION) as envelope:
        envelope.append(pack_str(model.label_column))
        envelope.append(pack_names(model.feature_names))
        envelope.append(pack_names(model.class_names))
        envelope.append(struct.pack(f"<{len(hidden) + 1}I", len(hidden), *hidden))
        for p in params:
            envelope.append(np.ascontiguousarray(p, dtype="<f4"))


def _parse_model(body) -> MlpModel:
    label_column = body.string()
    feature_names = body.names()
    class_names = body.names()
    (n_hidden,) = body.unpack("<I")
    hidden = body.unpack(f"<{n_hidden}I")
    dims = [len(feature_names), *hidden, len(class_names)]
    if any(d < 1 for d in dims):
        raise ValueError(f"bad dims {dims}")
    # copies: the parameters sit at any offset of the file's bytes
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(body.array("<f4", (fan_in, fan_out)).astype(np.float32))
        biases.append(body.array("<f4", (fan_out,)).astype(np.float32))
    if not all(np.isfinite(p).all() for p in weights + biases):
        raise ValueError("a weight or bias is not finite")
    return MlpModel(weights, biases, label_column, feature_names, class_names)


def load(path) -> MlpModel:
    """Read a model file back, with float32 parameters; bit-exact inverse
    of save(). A file that fails its checks, including one with a parameter
    that is not finite, raises CorruptModelError, its reason led by the
    path."""
    return read_checked(path, MODEL_MAGIC, MODEL_VERSION, CorruptModelError, _parse_model)
