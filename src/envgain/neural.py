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

One layer loop serves inference, validation and the training step:
`forward` runs it in inference mode (the stored running batch-norm
statistics); `backward`, its one training-mode caller, uses batch
statistics and fills the backprop caches, and its `loss_sum` is the loss
`verification` differentiates numerically. The step is lean but keeps
the bits of the textbook formulas: the layer loop and the backward pass
work in place wherever an array is their own (bias, batch-norm centring
and scaling, activations, the sigmoid and batch-norm derivatives, the
weight update), with the same operations in the same order, so every
parameter and cost is unchanged. Batch variance is taken from the
centred pre-activations exactly as `np.var` does it, and the input
gradient of the first layer, which nothing reads, is not computed.
"""

from __future__ import annotations

import copy
import struct
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import cost, framed

BN_EPS = 1e-5
BN_MOMENTUM = 0.9  # running = momentum * running + (1 - momentum) * batch

DEFAULT_HIDDEN = (512, 512, 512)
OBJECTIVES = ("elc", "emse")
EVAL_BATCH = 4096  # rows per inference forward in `evaluate_cost`


class NumericError(RuntimeError):
    """Training produced a non-finite cost, parameter or network output."""


class ModelFormatError(ValueError):
    """Model file is corrupt, truncated, or has the wrong shape."""


MODEL_FRAME = framed.Frame(b"ASTOI", 1, "model file", ModelFormatError)


@dataclass
class BatchNorm:
    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray


@dataclass
class Layer:
    weights: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    activation: str  # 'relu' | 'sigmoid'
    batch_norm: BatchNorm | None = None

    def params(self) -> list[np.ndarray]:
        """Parameter arrays in file order: weights, bias, then batch norm."""
        bn = self.batch_norm
        extra = [bn.gamma, bn.beta, bn.running_mean, bn.running_var] if bn else []
        return [self.weights, self.bias, *extra]


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
        return copy.deepcopy(self)

    def param_bytes(self) -> bytes:
        """Concatenated parameter bytes; handy for bit-exactness checks."""
        return b"".join(a.tobytes() for la in self.layers for a in la.params())

    def is_finite(self) -> bool:
        return all(np.isfinite(a).all() for la in self.layers for a in la.params())


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


def _run_layers(model: MlpModel, batch: np.ndarray, train_mode: bool, caches: list | None = None):
    """The one layer loop: batch-norm statistics from the batch in train
    mode, the stored running ones otherwise. Works in place on each layer's
    own pre-activation; when `caches` is a list it also appends one backprop
    cache per layer (input, batch-norm mu/var/istd and normalized values,
    output), which costs one extra array per batch-norm layer."""
    a = _as_input(model, batch)
    for layer in model.layers:
        z = a @ layer.weights.T
        z += layer.bias
        c = {"a_in": a}
        if layer.batch_norm is not None:
            bn = layer.batch_norm
            if train_mode:
                # np.var's own steps: centre, square, sum, divide by B
                mu = z.mean(axis=0)
                z -= mu
                var = np.square(z).sum(axis=0) / z.shape[0]
            else:
                mu, var = bn.running_mean, bn.running_var
                z -= mu
            istd = 1.0 / np.sqrt(var + BN_EPS)
            z *= istd
            if caches is None:
                z *= bn.gamma
            else:
                c.update(mu=mu, var=var, istd=istd, zh=z)
                z = z * bn.gamma
            z += bn.beta
        if layer.activation == "relu":
            np.maximum(z, 0.0, out=z)
        else:
            np.negative(z, out=z)
            with np.errstate(over="ignore"):  # exp(>709) = inf gives the gain 1/inf = 0
                np.exp(z, out=z)
            z += 1.0
            np.divide(1.0, z, out=z)
        if caches is not None:
            c["a_out"] = z
            caches.append(c)
        a = z
    return a


def forward(model: MlpModel, batch: np.ndarray) -> np.ndarray:
    """Run the network in inference mode: batch norm uses the stored
    running statistics. Does not mutate the model."""
    return _run_layers(model, batch, False)


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

    gains are (B, J*N) for J bands side by side, clean/noisy (B, N) or
    (B, J, N); the per-sample loss is the mean over the J bands. Degenerate
    correlation windows contribute zero.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    b, n = clean.shape[0], clean.shape[-1]
    j = gains.shape[1] // n
    g, x, y = (a.reshape(b * j, n) for a in (gains, clean, noisy))
    xh = g * y
    if objective == "elc":
        values, grads, valid = cost.elc_batch(x, xh)
        loss = -values
        d_xh = -grads
    else:
        loss, d_xh, valid = cost.emse_batch(x, xh)
    d_g = d_xh * y
    n_degenerate = int(np.count_nonzero(~valid))
    return loss.reshape(b, j).mean(axis=1), d_g.reshape(b, j * n) / j, n_degenerate


def backward(
    model: MlpModel,
    batch: np.ndarray,
    clean: np.ndarray,
    noisy: np.ndarray,
    objective: str,
) -> BackwardResult:
    """Full backprop of one training step through loss, gain coupling,
    sigmoid/ReLU and batch norm with batch statistics.

    Returns summed-over-samples gradients for every weight, bias, gamma and
    beta (sum semantics to match the per-sample learning rate)."""
    caches: list = []
    gains = _run_layers(model, batch, True, caches)
    loss, d_a, n_degenerate = _loss_and_grad(gains, np.asarray(clean), np.asarray(noisy), objective)

    grads: list[LayerGrads] = []
    stats = []
    first = model.layers[0]
    for layer, c in zip(reversed(model.layers), reversed(caches)):
        d_z = d_a  # every d_a is a fresh array, so it is reused in place
        if layer.activation == "sigmoid":
            d_z *= c["a_out"]
            d_z *= 1.0 - c["a_out"]
        else:
            d_z *= c["a_out"] > 0
        g = LayerGrads(None, None)
        if layer.batch_norm is not None:
            bn, zh = layer.batch_norm, c["zh"]
            g.d_gamma = np.einsum("bi,bi->i", d_z, zh)
            g.d_beta = d_z.sum(axis=0)
            d_z *= bn.gamma  # now d_zh
            b = batch.shape[0]
            d_zh_sum = d_z.sum(axis=0)
            d_zh_zh = np.einsum("bi,bi->i", d_z, zh)
            d_z *= b
            d_z -= d_zh_sum
            d_z -= zh * d_zh_zh
            d_z *= c["istd"] / b
            stats.append((c["mu"], c["var"]))
        g.d_weights = d_z.T @ c["a_in"]
        g.d_bias = d_z.sum(axis=0)
        if layer is not first:  # the input gradient of the first layer is never read
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
    train_s: float  # wall seconds of the epoch's minibatch loop
    validation_s: float  # wall seconds of its validation pass


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
        g.d_weights *= lr  # the step's own array; lr * g and g * lr are the same bits
        layer.weights -= g.d_weights
        layer.bias -= lr * g.d_bias
        if layer.batch_norm is not None:
            bn = layer.batch_norm
            bn.gamma -= lr * g.d_gamma
            bn.beta -= lr * g.d_beta
            mu, var = res.batch_stats[bn_idx]
            bn.running_mean[:] = BN_MOMENTUM * bn.running_mean + (1 - BN_MOMENTUM) * mu
            bn.running_var[:] = BN_MOMENTUM * bn.running_var + (1 - BN_MOMENTUM) * var
            bn_idx += 1


def evaluate_cost(model: MlpModel, data: ArrayDataset, objective: str) -> float:
    """Mean per-sample cost in inference mode (running batch-norm stats)."""
    total = 0.0
    for lo in range(0, len(data), EVAL_BATCH):
        sl = slice(lo, lo + EVAL_BATCH)
        gains = forward(model, data.features[sl])
        if not np.isfinite(gains).all():
            raise NumericError("non-finite network output")
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
    best_model = None  # copied after each improving epoch; the first always improves
    epochs: list[EpochStats] = []
    stop_reason = "max_epochs"

    # a diverging network overflows; the checks below, not numpy's warnings, report it
    with np.errstate(over="ignore", invalid="ignore"):
        for _epoch in range(config.max_epochs):
            if schedule.below_floor:
                stop_reason = "lr_floor"
                break
            started = time.perf_counter()
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
                )
                _apply_update(model, res, schedule.lr)
                cost_sum += res.loss_sum
                degenerate += res.n_degenerate
                del res  # free this step's gradients before the next step makes its own
            train_cost = cost_sum / len(perm)
            trained = time.perf_counter()
            # the ELC loss scores a NaN window as degenerate, with value and
            # gradient 0, so a diverged network can show a finite cost
            if not model.is_finite():
                raise NumericError(
                    f"non-finite parameters at epoch {len(epochs)}, lr {schedule.lr:g}")
            val_cost = evaluate_cost(model, validation_data, config.objective)
            validated = time.perf_counter()
            if not (np.isfinite(train_cost) and np.isfinite(val_cost)):
                raise NumericError(
                    f"non-finite cost at epoch {len(epochs)}: train={train_cost}, val={val_cost}"
                )
            if val_cost < schedule.best:  # before `observe` records it
                best_model = model.copy()
            schedule.observe(val_cost)
            epochs.append(EpochStats(train_cost, val_cost, schedule.lr, degenerate,
                                     trained - started, validated - trained))
    if best_model is None:  # no epoch ran
        best_model = model.copy()
    return best_model, TrainReport(epochs, stop_reason)


@dataclass
class FeatureNorm:
    """Per-dimension standardization with training-set statistics."""

    mean: np.ndarray
    std: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        """(x - mean) / std as a new array. It cannot work in place:
        `ClassicalSystem.gains` passes a read-only strided view whose rows
        overlap in memory. Training normalizes its own gathered copies in
        place with these two operations (`pipeline.train_networks`)."""
        out = x - self.mean  # one new array, also from a read-only view
        out /= self.std
        return out


# ---------------------------------------------------------------------------
# model files (frame: see `framed`); body: objective tag, layer count, per
# layer (in, out, activation, has-BN), then every layer's f64 parameters


def save_model(model: MlpModel, path, objective: str = "elc") -> None:
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    parts = [struct.pack("<BI", OBJECTIVES.index(objective), len(model.layers))]
    for layer in model.layers:
        out_dim, in_dim = layer.weights.shape
        act = 0 if layer.activation == "relu" else 1
        parts.append(struct.pack("<IIBB", in_dim, out_dim, act, 1 if layer.batch_norm else 0))
    for layer in model.layers:
        parts += [np.ascontiguousarray(a, dtype="<f8") for a in layer.params()]
    framed.write(path, MODEL_FRAME, parts)


def load_model(path, expected_input_dim=None, expected_output_dim=None):
    """Load a model file; returns (model, objective). Raises
    ModelFormatError on bad magic/version/CRC/truncation, an inconsistent
    layer table, non-finite parameters or a dimension mismatch against the
    expected dims."""
    body = framed.Reader(path, MODEL_FRAME)
    obj_tag, n_layers = body.unpack("<BI")
    if obj_tag >= len(OBJECTIVES):
        raise ModelFormatError(f"{path}: unknown objective tag {obj_tag}")
    if n_layers == 0:
        raise ModelFormatError(f"{path}: no layers")
    dims = []
    for i in range(n_layers):
        in_dim, out_dim, act, has_bn = body.unpack("<IIBB")
        if act > 1 or has_bn > 1 or (dims and in_dim != dims[-1][1]):
            raise ModelFormatError(f"{path}: inconsistent layer table at layer {i}")
        dims.append((in_dim, out_dim, act, has_bn))
    layers = []
    for in_dim, out_dim, act, has_bn in dims:
        w = body.array("<f8", in_dim * out_dim).reshape(out_dim, in_dim)
        b = body.array("<f8", out_dim)
        bn = BatchNorm(*(body.array("<f8", out_dim) for _ in range(4))) if has_bn else None
        layers.append(Layer(w, b, "relu" if act == 0 else "sigmoid", bn))
    body.done()
    model = MlpModel(layers)
    if not model.is_finite():
        raise ModelFormatError(f"{path}: non-finite parameters")
    for side, dim, expected in (("input", model.input_dim, expected_input_dim),
                                ("output", model.output_dim, expected_output_dim)):
        if expected is not None and dim != expected:
            raise ModelFormatError(f"{path}: {side} dim {dim} != expected {expected}")
    return model, OBJECTIVES[obj_tag]
