"""From-scratch feed-forward networks and the SGD training loop.

A model is a stack of affine layers; hidden layers get batch
normalization on their pre-activations followed by ReLU, the output layer
is a plain sigmoid so gains land in (0, 1). Training uses minibatch SGD
with per-sample learning-rate semantics: one update subtracts
``lr * sum_of_sample_gradients``.

The loss couples to the envelope objectives through the gain model:
the network emits gains g, the estimated envelope is ``g * noisy`` and the
objective compares it against the clean envelope, so gradients w.r.t. the
gains are the objective gradients scaled by the noisy envelope.

The learning-rate schedule multiplies lr by `decay` whenever the
validation cost exceeds the best seen so far, and training halts once lr
drops below `floor` (or at `max_epochs`). The best-validation model is
returned.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import cost

BN_EPS = 1e-5
BN_MOMENTUM = 0.9  # running = momentum * running + (1 - momentum) * batch

DEFAULT_HIDDEN = (512, 512, 512)
OBJECTIVES = ("elc", "emse")

MODEL_MAGIC = b"ASTOI"
MODEL_VERSION = 1


class NumericError(RuntimeError):
    """Training produced a non-finite cost."""


class ModelFormatError(ValueError):
    """Model file is corrupt, truncated, or has the wrong shape."""


@dataclass
class BatchNorm:
    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray

    def copy(self) -> "BatchNorm":
        return BatchNorm(
            self.gamma.copy(), self.beta.copy(), self.running_mean.copy(), self.running_var.copy()
        )


@dataclass
class Layer:
    weights: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    activation: str  # 'relu' | 'sigmoid'
    batch_norm: BatchNorm | None = None

    def copy(self) -> "Layer":
        return Layer(
            self.weights.copy(),
            self.bias.copy(),
            self.activation,
            self.batch_norm.copy() if self.batch_norm else None,
        )


@dataclass
class MlpModel:
    layers: list[Layer]

    @property
    def input_dim(self) -> int:
        return self.layers[0].weights.shape[1]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].weights.shape[0]

    def copy(self) -> "MlpModel":
        return MlpModel([la.copy() for la in self.layers])

    def param_bytes(self) -> bytes:
        """Concatenated parameter bytes; handy for bit-exactness checks."""
        chunks = []
        for la in self.layers:
            chunks += [la.weights.tobytes(), la.bias.tobytes()]
            if la.batch_norm:
                bn = la.batch_norm
                chunks += [
                    bn.gamma.tobytes(),
                    bn.beta.tobytes(),
                    bn.running_mean.tobytes(),
                    bn.running_var.tobytes(),
                ]
        return b"".join(chunks)


def init_model(layer_dims: Sequence[int], seed: int) -> MlpModel:
    """Seeded init: He-uniform for ReLU layers, Xavier-uniform for the
    sigmoid output, zero biases, identity batch norm."""
    if len(layer_dims) < 2:
        raise ValueError("need at least input and output dims")
    rng = np.random.default_rng(seed)
    layers = []
    n_layers = len(layer_dims) - 1
    for i in range(n_layers):
        fan_in, fan_out = layer_dims[i], layer_dims[i + 1]
        last = i == n_layers - 1
        bound = np.sqrt(6.0 / (fan_in + fan_out)) if last else np.sqrt(6.0 / fan_in)
        w = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        bn = (
            None
            if last
            else BatchNorm(np.ones(fan_out), np.zeros(fan_out), np.zeros(fan_out), np.ones(fan_out))
        )
        layers.append(Layer(w, np.zeros(fan_out), "sigmoid" if last else "relu", bn))
    return MlpModel(layers)


def _as_input(model: MlpModel, batch: np.ndarray) -> np.ndarray:
    a = np.asarray(batch, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != model.input_dim:
        raise ValueError(f"expected (B, {model.input_dim}) input, got {a.shape}")
    return a


def _forward_cached(model: MlpModel, batch: np.ndarray, train_mode: bool):
    a = _as_input(model, batch)
    caches = []
    for layer in model.layers:
        z = a @ layer.weights.T + layer.bias
        c = {"a_in": a, "z": z}
        if layer.batch_norm is not None:
            bn = layer.batch_norm
            if train_mode:
                mu = z.mean(axis=0)
                var = z.var(axis=0)
            else:
                mu, var = bn.running_mean, bn.running_var
            istd = 1.0 / np.sqrt(var + BN_EPS)
            zh = (z - mu) * istd
            z = bn.gamma * zh + bn.beta
            c.update(mu=mu, var=var, istd=istd, zh=zh)
        if layer.activation == "relu":
            a = np.maximum(z, 0.0)
        else:
            a = 1.0 / (1.0 + np.exp(-z))
        c["a_out"] = a
        caches.append(c)
    return a, caches


def forward(model: MlpModel, batch: np.ndarray, mode: str = "infer") -> np.ndarray:
    """Run the network. mode='train' uses batch statistics for batch norm,
    'infer' the stored running statistics, computed in place without the
    training caches. Does not mutate the model."""
    if mode not in ("train", "infer"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "train":
        return _forward_cached(model, batch, True)[0]
    # same operations in the same order as _forward_cached, in place and
    # without caches, so inference gives the same bits
    a = _as_input(model, batch)
    for layer in model.layers:
        a = a @ layer.weights.T
        a += layer.bias
        if layer.batch_norm is not None:
            bn = layer.batch_norm
            a -= bn.running_mean
            a *= 1.0 / np.sqrt(bn.running_var + BN_EPS)
            a *= bn.gamma
            a += bn.beta
        if layer.activation == "relu":
            np.maximum(a, 0.0, out=a)
        else:
            np.negative(a, out=a)
            np.exp(a, out=a)
            a += 1.0
            np.divide(1.0, a, out=a)
    return a


@dataclass
class LayerGrads:
    d_weights: np.ndarray
    d_bias: np.ndarray
    d_gamma: np.ndarray | None = None
    d_beta: np.ndarray | None = None


@dataclass
class BackwardResult:
    grads: list[LayerGrads]
    loss_sum: float  # sum over samples of the minimized objective
    n_degenerate: int
    batch_stats: list  # (mu, var) per layer with batch norm, for running updates


def _loss_and_grad(gains, clean, noisy, objective):
    """Per-sample loss of the minimized objective and gradient w.r.t. gains.

    Per-band mode: clean/noisy are (B, N) and gains (B, N). Joint mode:
    clean/noisy are (B, J, N), gains (B, J*N); the per-sample loss is the
    mean over bands. Degenerate correlation windows contribute zero.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    joint = clean.ndim == 3
    if joint:
        b, j, n = clean.shape
        g = gains.reshape(b * j, n)
        x = clean.reshape(b * j, n)
        y = noisy.reshape(b * j, n)
    else:
        g, x, y = gains, clean, noisy
    xh = g * y
    if objective == "elc":
        values, grads, valid = cost.elc_batch(x, xh)
        loss = -values
        d_xh = -grads
    else:
        loss, d_xh, valid = cost.emse_batch(x, xh)
    d_g = d_xh * y
    n_degenerate = int(np.count_nonzero(~valid))
    if joint:
        loss = loss.reshape(b, j).mean(axis=1)
        d_g = d_g.reshape(b, j * n) / j
    return loss, d_g, n_degenerate


def backward(
    model: MlpModel,
    batch: np.ndarray,
    clean: np.ndarray,
    noisy: np.ndarray,
    objective: str,
    mode: str = "train",
) -> BackwardResult:
    """Full backprop through loss, gain coupling, sigmoid/ReLU and batch norm.

    Returns summed-over-samples gradients for every weight, bias, gamma and
    beta (sum semantics to match the per-sample learning rate)."""
    gains, caches = _forward_cached(model, batch, mode == "train")
    loss, d_a, n_degenerate = _loss_and_grad(gains, np.asarray(clean), np.asarray(noisy), objective)

    grads: list[LayerGrads] = []
    stats = []
    for layer, c in zip(reversed(model.layers), reversed(caches)):
        if layer.activation == "sigmoid":
            d_z = d_a * c["a_out"] * (1.0 - c["a_out"])
        else:
            d_z = d_a * (c["a_out"] > 0)
        g = LayerGrads(None, None)
        if layer.batch_norm is not None:
            bn = layer.batch_norm
            g.d_gamma = np.einsum("bi,bi->i", d_z, c["zh"])
            g.d_beta = d_z.sum(axis=0)
            d_zh = d_z * bn.gamma
            if mode == "train":
                b = batch.shape[0]
                d_z = (c["istd"] / b) * (
                    b * d_zh
                    - d_zh.sum(axis=0)
                    - c["zh"] * np.einsum("bi,bi->i", d_zh, c["zh"])
                )
            else:
                d_z = d_zh * c["istd"]
            stats.append((c["mu"], c["var"]))
        g.d_weights = d_z.T @ c["a_in"]
        g.d_bias = d_z.sum(axis=0)
        d_a = d_z @ layer.weights
        grads.append(g)
    return BackwardResult(grads[::-1], float(loss.sum()), n_degenerate, stats[::-1])


@dataclass
class LrSchedule:
    """Validation-driven decay: lr is scaled by `decay` whenever the
    validation cost exceeds the best value seen so far."""

    lr: float
    decay: float = 0.7
    floor: float = 1e-10
    best: float = field(default=np.inf)

    def observe(self, validation_cost: float) -> bool:
        """Record one epoch's validation cost; returns True if lr decayed."""
        decayed = validation_cost > self.best
        if decayed:
            self.lr *= self.decay
        if validation_cost < self.best:
            self.best = validation_cost
        return decayed

    @property
    def below_floor(self) -> bool:
        return self.lr < self.floor


@dataclass(frozen=True)
class TrainConfig:
    objective: str = "elc"
    initial_lr_per_sample: float | None = None  # default depends on objective
    lr_decay: float = 0.7
    lr_floor: float = 1e-10
    max_epochs: int = 200
    minibatch: int = 256
    seed: int = 0

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}")

    @property
    def lr0(self) -> float:
        if self.initial_lr_per_sample is not None:
            return self.initial_lr_per_sample
        return 0.01 if self.objective == "elc" else 5e-5


@dataclass
class EpochStats:
    train_cost: float
    validation_cost: float
    lr: float
    n_degenerate: int


@dataclass
class TrainReport:
    epochs: list[EpochStats]
    stop_reason: str  # 'max_epochs' | 'lr_floor'


@dataclass
class ArrayDataset:
    """Materialized training arrays: network inputs plus the clean/noisy
    envelope targets the loss couples through."""

    features: np.ndarray  # (S, D)
    clean: np.ndarray  # (S, N) or (S, J, N) for joint training
    noisy: np.ndarray

    def __post_init__(self):
        if len(self.features) != len(self.clean) or len(self.clean) != len(self.noisy):
            raise ValueError("features/clean/noisy lengths differ")
        if len(self.features) == 0:
            raise ValueError("empty dataset")

    def __len__(self):
        return len(self.features)


def _apply_update(model: MlpModel, res: BackwardResult, lr: float):
    bn_idx = 0
    for layer, g in zip(model.layers, res.grads):
        layer.weights -= lr * g.d_weights
        layer.bias -= lr * g.d_bias
        if layer.batch_norm is not None:
            bn = layer.batch_norm
            bn.gamma -= lr * g.d_gamma
            bn.beta -= lr * g.d_beta
            mu, var = res.batch_stats[bn_idx]
            bn.running_mean[:] = BN_MOMENTUM * bn.running_mean + (1 - BN_MOMENTUM) * mu
            bn.running_var[:] = BN_MOMENTUM * bn.running_var + (1 - BN_MOMENTUM) * var
            bn_idx += 1


def evaluate_cost(model: MlpModel, data: ArrayDataset, objective: str, batch: int = 4096) -> float:
    """Mean per-sample cost in inference mode (running batch-norm stats)."""
    total = 0.0
    for lo in range(0, len(data), batch):
        sl = slice(lo, lo + batch)
        # same bits as forward(mode="infer"); validation keeps the cached path
        # because the in-place one raised the train benchmark's peak RSS by
        # about 25 MB in 3 of 6 runs
        gains, _ = _forward_cached(model, data.features[sl], False)
        loss, _, _ = _loss_and_grad(gains, data.clean[sl], data.noisy[sl], objective)
        total += float(loss.sum())
    return total / len(data)


def train(
    model: MlpModel,
    train_data: ArrayDataset,
    validation_data: ArrayDataset,
    config: TrainConfig = TrainConfig(),
) -> tuple[MlpModel, TrainReport]:
    """Minibatch SGD with the validation-driven lr schedule.

    Deterministic for a given (model, data, config): shuffling comes from
    config.seed only. Returns the best-validation model and a per-epoch
    report.
    """
    rng = np.random.default_rng(config.seed)
    schedule = LrSchedule(config.lr0, config.lr_decay, config.lr_floor)
    best_model = model.copy()
    best_val = np.inf
    epochs: list[EpochStats] = []
    stop_reason = "max_epochs"

    for _epoch in range(config.max_epochs):
        if schedule.below_floor:
            stop_reason = "lr_floor"
            break
        perm = rng.permutation(len(train_data))
        cost_sum = 0.0
        degenerate = 0
        for lo in range(0, len(perm), config.minibatch):
            rows = perm[lo : lo + config.minibatch]
            res = backward(
                model,
                train_data.features[rows],
                train_data.clean[rows],
                train_data.noisy[rows],
                config.objective,
                mode="train",
            )
            _apply_update(model, res, schedule.lr)
            cost_sum += res.loss_sum
            degenerate += res.n_degenerate
        train_cost = cost_sum / len(perm)
        val_cost = evaluate_cost(model, validation_data, config.objective)
        if not (np.isfinite(train_cost) and np.isfinite(val_cost)):
            raise NumericError(
                f"non-finite cost at epoch {len(epochs)}: train={train_cost}, val={val_cost}"
            )
        if val_cost < best_val:
            best_val = val_cost
            best_model = model.copy()
        schedule.observe(val_cost)
        epochs.append(EpochStats(train_cost, val_cost, schedule.lr, degenerate))
    return best_model, TrainReport(epochs, stop_reason)


@dataclass
class FeatureNorm:
    """Per-dimension standardization with training-set statistics."""

    mean: np.ndarray
    std: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        return (x - self.mean) / self.std


# ---------------------------------------------------------------------------
# model files: little-endian, magic + version + objective + dims, f64 body,
# trailing CRC32 over everything before it


def save_model(model: MlpModel, path, objective: str = "elc") -> None:
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    head = bytearray()
    head += MODEL_MAGIC
    head += struct.pack("<IBI", MODEL_VERSION, OBJECTIVES.index(objective), len(model.layers))
    for layer in model.layers:
        out_dim, in_dim = layer.weights.shape
        act = 0 if layer.activation == "relu" else 1
        head += struct.pack("<IIBB", in_dim, out_dim, act, 1 if layer.batch_norm else 0)
    body = bytearray()
    for layer in model.layers:
        body += np.ascontiguousarray(layer.weights, dtype="<f8").tobytes()
        body += np.ascontiguousarray(layer.bias, dtype="<f8").tobytes()
        if layer.batch_norm:
            bn = layer.batch_norm
            for arr in (bn.gamma, bn.beta, bn.running_mean, bn.running_var):
                body += np.ascontiguousarray(arr, dtype="<f8").tobytes()
    blob = bytes(head) + bytes(body)
    with open(path, "wb") as fh:
        fh.write(blob)
        fh.write(struct.pack("<I", zlib.crc32(blob)))


def load_model(path, expected_input_dim=None, expected_output_dim=None):
    """Load a model file; returns (model, objective). Raises
    ModelFormatError on bad magic/version/CRC/truncation or a dimension
    mismatch against the expected dims."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MODEL_MAGIC) + 13:
        raise ModelFormatError(f"{path}: truncated model file")
    payload, crc_bytes = blob[:-4], blob[-4:]
    if struct.unpack("<I", crc_bytes)[0] != zlib.crc32(payload):
        raise ModelFormatError(f"{path}: CRC mismatch (corrupt or truncated)")
    if payload[:5] != MODEL_MAGIC:
        raise ModelFormatError(f"{path}: bad magic")
    version, obj_tag, n_layers = struct.unpack("<IBI", payload[5:14])
    if version != MODEL_VERSION:
        raise ModelFormatError(f"{path}: unsupported format version {version}")
    if obj_tag >= len(OBJECTIVES):
        raise ModelFormatError(f"{path}: unknown objective tag {obj_tag}")
    pos = 14
    dims = []
    for _ in range(n_layers):
        if pos + 10 > len(payload):
            raise ModelFormatError(f"{path}: truncated layer table")
        in_dim, out_dim, act, has_bn = struct.unpack("<IIBB", payload[pos : pos + 10])
        pos += 10
        dims.append((in_dim, out_dim, act, has_bn))

    def take(n_vals):
        nonlocal pos
        end = pos + 8 * n_vals
        if end > len(payload):
            raise ModelFormatError(f"{path}: truncated parameter body")
        arr = np.frombuffer(payload[pos:end], dtype="<f8").copy()
        pos = end
        return arr

    layers = []
    for in_dim, out_dim, act, has_bn in dims:
        w = take(in_dim * out_dim).reshape(out_dim, in_dim)
        b = take(out_dim)
        bn = None
        if has_bn:
            bn = BatchNorm(take(out_dim), take(out_dim), take(out_dim), take(out_dim))
        layers.append(Layer(w, b, "relu" if act == 0 else "sigmoid", bn))
    if pos != len(payload):
        raise ModelFormatError(f"{path}: {len(payload) - pos} trailing bytes")
    model = MlpModel(layers)
    if expected_input_dim is not None and model.input_dim != expected_input_dim:
        raise ModelFormatError(
            f"{path}: input dim {model.input_dim} != expected {expected_input_dim}"
        )
    if expected_output_dim is not None and model.output_dim != expected_output_dim:
        raise ModelFormatError(
            f"{path}: output dim {model.output_dim} != expected {expected_output_dim}"
        )
    return model, OBJECTIVES[obj_tag]
