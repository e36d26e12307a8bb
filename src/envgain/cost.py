"""Envelope-domain training objectives.

ELC is the Pearson-style linear correlation between mean-centered clean
and estimated envelope vectors; training maximizes it (the trainer
minimizes its negative). EMSE is the plain mean squared error between the
same vectors.

The analytic ELC gradient with respect to estimate entry m is

    L * (x_m - mean(x)) / dot(xh_c, x_c)  -  L * (xh_m - mean(xh)) / dot(xh_c, xh_c)

with ``_c`` denoting mean-centered vectors. Its euclidean norm obeys

    ||grad|| = sqrt(1 - L**2) / ||xh_c||

where the denominator is the norm of the *centered* estimate; the identity
fails for the raw norm whenever the estimate has a nonzero mean, and the
test suite pins this numerically.

All forms run on one row kernel. The batch forms flag degenerate rows
(a centered norm, or for gradients the cross inner product, below EPS)
as invalid, with value 0 and zero gradient; the scalar forms are one-row
calls that raise `DegenerateEnvelopeError` on a zero-variance vector.
"""

import numpy as np

EPS = 1e-12


class DegenerateEnvelopeError(ValueError):
    """A vector has (numerically) zero variance; correlation is undefined."""


def _matching_rows(clean, estimate):
    x = np.asarray(clean, dtype=np.float64)
    h = np.asarray(estimate, dtype=np.float64)
    if x.shape != h.shape or x.ndim != 2:
        raise ValueError("expected matching (B, N) arrays")
    return x, h


def _elc_rows(clean, estimate):
    """The ELC kernel on matching (B, N) rows: the centered rows xc and hc,
    hn = ||hc||, the cross inner products, and values: the correlation where
    both norms reach EPS (`varied`), else 0. No row depends on another."""
    x, h = _matching_rows(clean, estimate)
    xc = x - x.mean(axis=1, keepdims=True)
    hc = h - h.mean(axis=1, keepdims=True)
    xn = np.linalg.norm(xc, axis=1)
    hn = np.linalg.norm(hc, axis=1)
    cross = np.einsum("ij,ij->i", hc, xc)
    varied = (xn >= EPS) & (hn >= EPS)
    values = np.where(varied, cross / np.where(varied, xn * hn, 1.0), 0.0)
    return xc, hc, hn, cross, values, varied


def _one_row(clean, estimate):
    """(value, centered estimate norm) of two 1-D vectors, by the kernel."""
    if np.ndim(clean) != 1 or np.ndim(estimate) != 1:
        raise ValueError("expected two 1-D vectors")
    _, _, hn, _, values, varied = _elc_rows(np.asarray(clean)[None], np.asarray(estimate)[None])
    if not varied[0]:
        raise DegenerateEnvelopeError("a vector has zero variance")
    return values[0], hn[0]


def elc(clean, estimate) -> float:
    """Linear correlation of mean-centered vectors, in [-1, 1]."""
    return float(_one_row(clean, estimate)[0])


def elc_grad_norm(clean, estimate) -> float:
    """Closed-form euclidean norm of the ELC gradient: sqrt(1-L^2)/||centered estimate||.

    Unlike the gradient, which divides by the centered cross inner product,
    it is defined (and maximal) at zero correlation; only zero-variance
    inputs are rejected.
    """
    value, hn = _one_row(clean, estimate)
    return float(np.sqrt(max(0.0, 1.0 - value * value)) / hn)


def elc_batch(clean: np.ndarray, estimate: np.ndarray):
    """Vectorized ELC values and gradients over rows: (values, grads, valid).

    Rows of zero variance or zero centered cross inner product are invalid,
    with value 0 and zero gradient. On valid rows the values have the bits
    of `elc_value_batch`; values and gradients agree with the textbook 1-D
    forms to rounding, not bit for bit (within 1e-14 at unit scale).
    """
    xc, hc, hn, cross, values, varied = _elc_rows(clean, estimate)
    valid = varied & (np.abs(cross) >= EPS)
    values = np.where(valid, values, 0.0)
    safe_cross = np.where(valid, cross, 1.0)
    safe_hn2 = np.where(valid, hn * hn, 1.0)
    grads = values[:, None] * (xc / safe_cross[:, None] - hc / safe_hn2[:, None])
    grads[~valid] = 0.0
    return values, grads, valid


def elc_value_batch(clean: np.ndarray, estimate: np.ndarray):
    """Vectorized ELC values over rows, without gradients: (values, valid).

    valid requires only non-degenerate variance (a zero cross inner product
    is a legitimate correlation of 0); invalid rows carry 0."""
    *_, values, valid = _elc_rows(clean, estimate)
    return values, valid


def emse_batch(clean: np.ndarray, estimate: np.ndarray):
    """Vectorized EMSE values and gradients (2/N)(xh - x) over rows; all valid."""
    x, h = _matching_rows(clean, estimate)
    d = h - x
    values = np.mean(d * d, axis=1)
    grads = 2.0 * d / x.shape[1]
    return values, grads, np.ones(x.shape[0], dtype=bool)
