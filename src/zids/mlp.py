"""Dense feed-forward classifier: forward pass, weighted cross-entropy,
analytic backpropagation, Adam/SGD training loop, and model files.

All parameter math runs in float64; input matrices may be float32 and are
promoted per batch.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    BadDimsError,
    CorruptModelError,
    NonFiniteLossError,
    ShapeMismatchError,
    VersionMismatchError,
)
from .preprocess import ClassWeights, EncodedDataset

MODEL_MAGIC = b"ZMLP"
MODEL_VERSION = 1

LOG_FLOOR = 1e-12  # added inside log() so hard zeros stay finite
_CHUNK_ROWS = 65536  # rows per forward pass in predict() and _evaluate()


@dataclass
class MlpModel:
    """Layer sizes plus per-layer weight matrices and bias vectors.

    weights[i] has shape (dims[i], dims[i+1]); hidden layers use the
    rectifier, the output is a softmax over dims[-1] classes.
    """

    dims: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def n_classes(self) -> int:
        return self.dims[-1]


@dataclass
class TrainConfig:
    epochs: int = 20
    batch_size: int = 1024
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    class_weights: Optional[ClassWeights] = None

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1: {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1: {self.batch_size}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0: {self.learning_rate}")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"optimizer must be 'adam' or 'sgd': {self.optimizer}")


@dataclass
class EpochStats:
    train_loss: float
    val_loss: float
    val_accuracy: float


TrainHistory = list  # of EpochStats, one per epoch


def init(dims: Sequence[int], seed: int) -> MlpModel:
    """Glorot-uniform weights, zero biases, deterministic per seed."""
    dims = [int(d) for d in dims]
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise BadDimsError(f"dims must be >= 2 positive sizes: {dims}")
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpModel(dims=dims, weights=weights, biases=biases)


def count_parameters(model: MlpModel) -> int:
    """Total trainable parameters: sum of (fan_in + 1) * fan_out."""
    return sum(
        (fan_in + 1) * fan_out
        for fan_in, fan_out in zip(model.dims[:-1], model.dims[1:])
    )


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _check_shape(model: MlpModel, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[1] != model.dims[0]:
        raise ShapeMismatchError(
            f"input shape {x.shape} does not match model width {model.dims[0]}"
        )
    return x


def _check_input(model: MlpModel, x: np.ndarray) -> np.ndarray:
    return _check_shape(model, x).astype(np.float64, copy=False)


def _forward_cached(model: MlpModel, x: np.ndarray):
    """Forward pass keeping post-activation values for backprop."""
    activations = [x]
    h = x
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = h @ w + b
        h = _softmax(z) if i == last else np.maximum(z, 0.0)
        activations.append(h)
    return activations


def forward(model: MlpModel, x_batch: np.ndarray) -> np.ndarray:
    """Class probabilities, one row per input row; rows sum to 1."""
    x = _check_input(model, x_batch)
    return _forward_cached(model, x)[-1]


def predict(model: MlpModel, x_batch: np.ndarray) -> np.ndarray:
    """Argmax class per row; ties resolve to the lowest index.

    Runs forward() on _CHUNK_ROWS rows at a time to bound memory.
    """
    x = _check_shape(model, x_batch)
    preds = np.empty(x.shape[0], dtype=np.intp)
    for start in range(0, x.shape[0], _CHUNK_ROWS):
        rows = slice(start, start + _CHUNK_ROWS)
        preds[rows] = np.argmax(forward(model, x[rows]), axis=1)
    return preds


def _sample_weights(
    y: np.ndarray, k: int, weights: Optional[ClassWeights]
) -> np.ndarray:
    if weights is None:
        return np.ones(y.shape[0])
    if weights.w.size != k:
        raise ShapeMismatchError(
            f"{weights.w.size} class weights for {k} classes"
        )
    return weights.w[y]


def loss(
    probs: np.ndarray, y: np.ndarray, weights: Optional[ClassWeights] = None
) -> float:
    """Cross-entropy averaged with per-sample class weights.

    Normalized by the total weight of the batch, so all-ones weights
    reduce exactly to the unweighted mean.
    """
    probs = np.asarray(probs, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if probs.ndim != 2 or y.ndim != 1 or probs.shape[0] != y.shape[0]:
        raise ShapeMismatchError(
            f"probs {probs.shape} incompatible with labels {y.shape}"
        )
    nll, weight_sum = _nll_sum(probs, y, weights)
    return nll / weight_sum


def _nll_sum(
    probs: np.ndarray, y: np.ndarray, weights: Optional[ClassWeights]
) -> tuple[float, float]:
    """Weighted negative log-likelihood summed over rows, and the weight sum."""
    w = _sample_weights(y, probs.shape[1], weights)
    picked = probs[np.arange(y.shape[0]), y]
    # min() keeps the floored argument <= 1 so the loss never goes negative
    # when float softmax saturates a probability at exactly 1.0
    nll = -(w * np.log(np.minimum(picked + LOG_FLOOR, 1.0))).sum()
    return float(nll), float(w.sum())


def _backprop(
    model: MlpModel,
    activations: list[np.ndarray],
    y: np.ndarray,
    weights: Optional[ClassWeights],
):
    probs = activations[-1]
    n, k = probs.shape
    w = _sample_weights(y, k, weights)
    scale = w / w.sum()

    delta = probs.copy()
    delta[np.arange(n), y] -= 1.0
    delta *= scale[:, None]

    grads_w = [np.empty(0)] * len(model.weights)
    grads_b = [np.empty(0)] * len(model.biases)
    for i in range(len(model.weights) - 1, -1, -1):
        grads_w[i] = activations[i].T @ delta
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = delta @ model.weights[i].T
            delta[activations[i] <= 0.0] = 0.0
    return grads_w, grads_b


def gradients(
    model: MlpModel,
    x_batch: np.ndarray,
    y: np.ndarray,
    weights: Optional[ClassWeights] = None,
):
    """Analytic gradients of loss() w.r.t. every weight matrix and bias."""
    x = _check_input(model, x_batch)
    y = np.asarray(y, dtype=np.int64)
    if y.ndim != 1 or y.shape[0] != x.shape[0]:
        raise ShapeMismatchError(f"labels {y.shape} incompatible with {x.shape}")
    activations = _forward_cached(model, x)
    return _backprop(model, activations, y, weights)


class _Adam:
    def __init__(self, model: MlpModel, config: TrainConfig):
        self.lr = config.learning_rate
        self.b1 = config.beta1
        self.b2 = config.beta2
        self.eps = config.eps
        self.t = 0
        self.m_w = [np.zeros_like(w) for w in model.weights]
        self.v_w = [np.zeros_like(w) for w in model.weights]
        self.m_b = [np.zeros_like(b) for b in model.biases]
        self.v_b = [np.zeros_like(b) for b in model.biases]

    def step(self, model, grads_w, grads_b):
        self.t += 1
        c1 = 1.0 - self.b1**self.t
        c2 = 1.0 - self.b2**self.t
        for i in range(len(model.weights)):
            for p, g, m, v in (
                (model.weights[i], grads_w[i], self.m_w[i], self.v_w[i]),
                (model.biases[i], grads_b[i], self.m_b[i], self.v_b[i]),
            ):
                m *= self.b1
                m += (1.0 - self.b1) * g
                v *= self.b2
                v += (1.0 - self.b2) * g * g
                p -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


class _Sgd:
    def __init__(self, model: MlpModel, config: TrainConfig):
        self.lr = config.learning_rate

    def step(self, model, grads_w, grads_b):
        for i in range(len(model.weights)):
            model.weights[i] -= self.lr * grads_w[i]
            model.biases[i] -= self.lr * grads_b[i]


def optimizer_step(
    model: MlpModel,
    x_batch: np.ndarray,
    y: np.ndarray,
    config: TrainConfig,
    state=None,
):
    """One minibatch update; returns (state, batch_loss)."""
    if state is None:
        state = _Adam(model, config) if config.optimizer == "adam" else _Sgd(
            model, config
        )
    x = _check_input(model, x_batch)
    y = np.asarray(y, dtype=np.int64)
    activations = _forward_cached(model, x)
    batch_loss = loss(activations[-1], y, config.class_weights)
    grads_w, grads_b = _backprop(model, activations, y, config.class_weights)
    state.step(model, grads_w, grads_b)
    return state, batch_loss


def _evaluate(
    model: MlpModel,
    x: np.ndarray,
    y: np.ndarray,
    weights: Optional[ClassWeights],
) -> tuple[float, float]:
    """Full-pass loss and accuracy, _CHUNK_ROWS rows at a time."""
    n = x.shape[0]
    total_nll = 0.0
    total_w = 0.0
    correct = 0
    for start in range(0, n, _CHUNK_ROWS):
        rows = slice(start, start + _CHUNK_ROWS)
        yb = np.asarray(y[rows], dtype=np.int64)
        probs = forward(model, x[rows])
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
    history always has exactly config.epochs entries.
    """
    if train_ds.d != model.dims[0] or val_ds.d != model.dims[0]:
        raise ShapeMismatchError(
            f"data width {train_ds.d}/{val_ds.d} vs model width {model.dims[0]}"
        )
    k = model.n_classes
    if train_ds.y.max(initial=-1) >= k or val_ds.y.max(initial=-1) >= k:
        raise ShapeMismatchError(f"label out of range for {k} classes")

    rng = np.random.default_rng(config.seed)
    state = None
    history: list[EpochStats] = []
    for epoch in range(1, config.epochs + 1):
        perm = rng.permutation(train_ds.n)
        batch_losses = []
        for start in range(0, train_ds.n, config.batch_size):
            take = perm[start : start + config.batch_size]
            state, batch_loss = optimizer_step(
                model, train_ds.x[take], train_ds.y[take], config, state
            )
            batch_losses.append(batch_loss)
        train_loss = float(np.mean(batch_losses))
        val_loss, val_accuracy = _evaluate(
            model, val_ds.x, val_ds.y, config.class_weights
        )
        if not (np.isfinite(train_loss) and np.isfinite(val_loss)):
            raise NonFiniteLossError(epoch)
        history.append(EpochStats(train_loss, val_loss, val_accuracy))
    return model, history


def history_csv(history: Sequence[EpochStats]) -> bytes:
    """CSV rendering: epoch,train_loss,val_loss,val_accuracy."""
    lines = ["epoch,train_loss,val_loss,val_accuracy"]
    for i, stats in enumerate(history, start=1):
        lines.append(
            f"{i},{stats.train_loss!r},{stats.val_loss!r},{stats.val_accuracy!r}"
        )
    return ("\r\n".join(lines) + "\r\n").encode("utf-8")


def save(model: MlpModel, path) -> None:
    """Write the model: dims header, float64 little-endian parameters,
    trailing CRC32 of the payload."""
    payload = bytearray()
    payload += struct.pack("<I", len(model.dims))
    payload += struct.pack(f"<{len(model.dims)}I", *model.dims)
    for w, b in zip(model.weights, model.biases):
        payload += np.ascontiguousarray(w, dtype="<f8").tobytes()
        payload += np.ascontiguousarray(b, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<I", MODEL_VERSION))
        fh.write(payload)
        fh.write(struct.pack("<I", zlib.crc32(payload)))


def load(path) -> MlpModel:
    """Read a model file back; bit-exact inverse of save()."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 12 or blob[:4] != MODEL_MAGIC:
        raise CorruptModelError("bad magic")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != MODEL_VERSION:
        raise VersionMismatchError(version, MODEL_VERSION)
    payload, stored = blob[8:-4], blob[-4:]
    if struct.pack("<I", zlib.crc32(payload)) != stored:
        raise CorruptModelError("checksum mismatch")
    try:
        (n_dims,) = struct.unpack_from("<I", payload, 0)
        dims = list(struct.unpack_from(f"<{n_dims}I", payload, 4))
        offset = 4 + 4 * n_dims
        weights = []
        biases = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            w_bytes = fan_in * fan_out * 8
            w = np.frombuffer(payload, dtype="<f8", count=fan_in * fan_out,
                              offset=offset).reshape(fan_in, fan_out)
            offset += w_bytes
            b = np.frombuffer(payload, dtype="<f8", count=fan_out, offset=offset)
            offset += fan_out * 8
            weights.append(w.copy())
            biases.append(b.copy())
    except (struct.error, ValueError) as exc:
        raise CorruptModelError(str(exc)) from None
    if offset != len(payload):
        raise CorruptModelError("payload length mismatch")
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise CorruptModelError(f"bad dims {dims}")
    return MlpModel(dims=dims, weights=weights, biases=biases)
