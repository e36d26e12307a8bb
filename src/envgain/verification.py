"""Self-contained numeric verification of the analytic gradients.

Backs the `envgain verify` CLI subcommand: checks the analytic envelope
correlation gradient against central finite differences, the closed-form
gradient-norm identity, the shape of the gradient norm as a function of
the correlation (symmetric, maximal at 0, zero at +-1, monotone in |L|,
strictly positive away from the optimum), and a full finite-difference
check of network backpropagation for both objectives, through the
training step's batch-statistics batch norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cost, neural

FD_STEP = 1e-6


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _orthonormal_pair(n: int, seed: int):
    """Two centered, orthonormal vectors of length n."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(n)
    u -= u.mean()
    u /= np.linalg.norm(u)
    v = rng.standard_normal(n)
    v -= v.mean()
    v -= u * np.dot(u, v)
    v /= np.linalg.norm(v)
    return u, v


def correlation_grid_pairs(n_points: int = 201, n: int = 30, seed: int = 7):
    """Vector pairs (clean, estimate) whose correlation sweeps [-1, 1].

    The estimate has unit centered norm, so the closed-form gradient norm
    should equal sqrt(1 - L^2) exactly.
    """
    u, v = _orthonormal_pair(n, seed)
    grid = np.linspace(-1.0, 1.0, n_points)
    pairs = []
    for ell in grid:
        estimate = ell * u + np.sqrt(max(0.0, 1.0 - ell * ell)) * v
        pairs.append((u + 2.0, estimate + 0.5))  # mean offsets exercise centering
    return grid, pairs


def check_elc_gradient(n_pairs: int = 10_000, n: int = 30, seed: int = 0) -> CheckResult:
    """Analytic gradient vs central finite differences, per-pair tolerance
    of 1e-6 * (1 + max |analytic|)."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, (n_pairs, n))
    xh = rng.uniform(0.0, 1.0, (n_pairs, n))
    _, grads, valid = cost.elc_batch(x, xh)
    fd = np.empty_like(grads)
    for m in range(n):
        step = np.zeros(n)
        step[m] = FD_STEP
        up, _ = cost.elc_value_batch(x, xh + step)
        dn, _ = cost.elc_value_batch(x, xh - step)
        fd[:, m] = (up - dn) / (2 * FD_STEP)
    tol = FD_STEP * (1.0 + np.max(np.abs(grads), axis=1))
    err = np.max(np.abs(grads - fd), axis=1)
    worst = float((err / tol)[valid].max())
    ok = bool(np.all(err[valid] <= tol[valid]) and valid.all())
    return CheckResult(
        "elc gradient vs finite differences",
        ok,
        f"{int(valid.sum())} pairs, worst err/tol = {worst:.3e}",
    )


def check_grad_norm_identity(n_pairs: int = 10_000, n: int = 30, seed: int = 1) -> CheckResult:
    """| ||grad||_2 - sqrt(1-L^2)/||centered estimate|| | <= 1e-9."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, (n_pairs, n))
    xh = rng.uniform(0.0, 1.0, (n_pairs, n))
    values, grads, valid = cost.elc_batch(x, xh)
    hc = xh - xh.mean(axis=1, keepdims=True)
    closed = np.sqrt(np.maximum(0.0, 1.0 - values**2)) / np.linalg.norm(hc, axis=1)
    gap = np.abs(np.linalg.norm(grads, axis=1) - closed)[valid]
    worst = float(gap.max())
    return CheckResult(
        "gradient-norm identity",
        bool(worst <= 1e-9 and valid.all()),
        f"max |direct - closed form| = {worst:.3e}",
    )


def check_grad_norm_shape(n_points: int = 201) -> CheckResult:
    """Fig-style shape of the gradient norm over a correlation grid."""
    grid, pairs = correlation_grid_pairs(n_points)
    norms = np.array([cost.elc_grad_norm(x, xh) for x, xh in pairs])
    expected = np.sqrt(np.maximum(0.0, 1.0 - grid**2))
    problems = []
    if np.max(np.abs(norms - expected)) > 1e-9:
        problems.append("norm != sqrt(1-L^2) at unit centered norm")
    if np.max(np.abs(norms - norms[::-1])) > 1e-9:
        problems.append("not symmetric in L")
    if abs(norms[n_points // 2] - norms.max()) > 1e-12:
        problems.append("maximum not at L = 0")
    if norms[0] > 1e-9 or norms[-1] > 1e-9:
        problems.append("not zero at |L| = 1")
    right = norms[n_points // 2 :]
    if np.any(np.diff(right) > 1e-12):
        problems.append("not monotone decreasing for L > 0")
    interior = norms[1:-1]
    if np.any(interior <= 0.0):
        problems.append("zero step length away from the optimum")
    return CheckResult(
        "gradient-norm shape over the correlation range",
        not problems,
        "; ".join(problems) if problems else f"{n_points}-point grid clean",
    )


def _rel_err(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / (1.0 + abs(analytic) + abs(numeric))


def check_network_gradients(seed: int = 3) -> CheckResult:
    """Central finite differences over every parameter of a 6->4->4->4->3
    model, batch of 2, for both objectives, in train mode (batch-norm
    statistics from the batch), the only mode `backward` has."""
    rng = np.random.default_rng(seed)
    batch = rng.uniform(-1.0, 1.0, (2, 6))
    noisy = rng.uniform(0.5, 2.0, (2, 3))
    clean = noisy * rng.uniform(0.2, 1.0, (2, 3))
    worst = 0.0
    for objective in ("elc", "emse"):
        model = neural.init_model([6, 4, 4, 4, 3], seed=seed)
        res = neural.backward(model, batch, clean, noisy, objective)

        def total_loss():
            gains = neural.forward(model, batch, mode="train")
            loss, _, _ = neural._loss_and_grad(gains, clean, noisy, objective)
            return float(loss.sum())

        for layer, grads in zip(model.layers, res.grads):
            params = [(layer.weights, grads.d_weights), (layer.bias, grads.d_bias)]
            if layer.batch_norm is not None:
                params += [
                    (layer.batch_norm.gamma, grads.d_gamma),
                    (layer.batch_norm.beta, grads.d_beta),
                ]
            for arr, grad in params:
                flat, gflat = arr.reshape(-1), grad.reshape(-1)
                for i in range(flat.size):
                    h = FD_STEP * (1.0 + abs(flat[i]))
                    orig = flat[i]
                    flat[i] = orig + h
                    up = total_loss()
                    flat[i] = orig - h
                    dn = total_loss()
                    flat[i] = orig
                    worst = max(worst, _rel_err(gflat[i], (up - dn) / (2 * h)))
    return CheckResult(
        "network backpropagation vs finite differences",
        worst <= 1e-5,
        f"max relative error = {worst:.3e}",
    )


def run_verification(n_pairs: int = 10_000):
    """All checks; returns a list of CheckResult."""
    return [
        check_elc_gradient(n_pairs),
        check_grad_norm_identity(n_pairs),
        check_grad_norm_shape(),
        check_network_gradients(),
    ]
