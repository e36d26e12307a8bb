"""Reference computations the benchmark checks envgain's outputs against.

Everything here is written from the method's definition with numpy and the
standard library only; nothing is imported from envgain or scipy. The code
favours plain loops and direct formulas over speed: it runs once per
benchmark run, outside the timed phase, on a small seeded subset.

Conventions (the method's, not the program's code): 10 kHz working rate,
periodic Hann window of 256 samples with hop 128, frames start at sample 0
and only whole frames are kept; 15 one-third-octave bands from 150 Hz whose
edges lie a factor 2**(1/6) either side of the centre; envelope vectors of
N = 30 frames.
"""

from __future__ import annotations

import math
import wave

import numpy as np

FS = 10000
WIN = 256
HOP = 128
N_BANDS = 15
FIRST_CENTER_HZ = 150.0
N_ENV = 30
BN_EPS = 1e-5
DEGENERATE_EPS = 1e-12
OLA_FLOOR = 1e-15

# resampler: Kaiser-windowed sinc, 64 taps per phase, beta 8.6
TAPS_PER_PHASE = 64
KAISER_BETA = 8.6


def hann(n: int = WIN) -> np.ndarray:
    """Periodic (DFT-even) Hann window."""
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def pad_to_frames(x: np.ndarray) -> np.ndarray:
    """Zero-pad the tail so the last sample falls inside a whole frame."""
    x = np.asarray(x, dtype=np.float64)
    if len(x) < WIN:
        return np.concatenate([x, np.zeros(WIN - len(x))])
    rem = (len(x) - WIN) % HOP
    return x if rem == 0 else np.concatenate([x, np.zeros(HOP - rem)])


def stft(x: np.ndarray) -> np.ndarray:
    """Complex single-sided STFT, shape (M, WIN/2 + 1), whole frames only."""
    x = np.asarray(x, dtype=np.float64)
    m = (len(x) - WIN) // HOP + 1
    w = hann()
    frames = np.stack([x[i * HOP : i * HOP + WIN] * w for i in range(m)])
    return np.fft.rfft(frames, axis=1)


def istft(spec: np.ndarray) -> np.ndarray:
    """Weighted overlap-add: window each inverse frame again, sum, and divide
    by the summed squared window."""
    w = hann()
    frames = np.fft.irfft(spec, n=WIN, axis=1) * w
    m = len(frames)
    out = np.zeros((m - 1) * HOP + WIN)
    den = np.zeros_like(out)
    for i in range(m):
        out[i * HOP : i * HOP + WIN] += frames[i]
        den[i * HOP : i * HOP + WIN] += w * w
    return out / np.maximum(den, OLA_FLOOR)


def band_bins(n_bands: int = N_BANDS, first_center_hz: float = FIRST_CENTER_HZ) -> list[np.ndarray]:
    """STFT bin indices of each one-third-octave band: lower <= f < upper."""
    freqs = np.arange(WIN // 2 + 1) * FS / WIN
    out = []
    for j in range(n_bands):
        center = first_center_hz * 2.0 ** (j / 3.0)
        lower, upper = center / 2.0 ** (1 / 6), center * 2.0 ** (1 / 6)
        out.append(np.flatnonzero((freqs >= lower) & (freqs < upper)))
    return out


def envelopes(spec: np.ndarray) -> np.ndarray:
    """Band envelopes (J, M): root of the summed squared magnitudes."""
    power = np.abs(spec) ** 2
    return np.stack([np.sqrt(power[:, bins].sum(axis=1)) for bins in band_bins()])


def signal_envelopes(x: np.ndarray, pad: bool) -> np.ndarray:
    return envelopes(stft(pad_to_frames(x) if pad else x))


# ---------------------------------------------------------------------------
# network


def mlp_forward(layers, x: np.ndarray) -> np.ndarray:
    """Inference pass. `layers` is a list of (weights (out, in), bias,
    batch_norm, activation) where batch_norm is None or (gamma, beta,
    running_mean, running_var) and activation is 'relu' or 'sigmoid'."""
    a = np.asarray(x, dtype=np.float64)
    for weights, bias, batch_norm, activation in layers:
        z = a @ weights.T + bias
        if batch_norm is not None:
            gamma, beta, mean, var = batch_norm
            z = gamma * (z - mean) / np.sqrt(var + BN_EPS) + beta
        a = np.maximum(z, 0.0) if activation == "relu" else 1.0 / (1.0 + np.exp(-z))
    return a


def pearson_rows(clean: np.ndarray, estimate: np.ndarray, need_cross: bool):
    """Row-wise correlation of mean-centred vectors and its validity mask.

    A row is valid when both centred norms reach DEGENERATE_EPS and, if
    need_cross, so does the magnitude of the centred cross product (the
    training objective skips such rows; the score only needs variance)."""
    xc = clean - clean.mean(axis=1, keepdims=True)
    hc = estimate - estimate.mean(axis=1, keepdims=True)
    xn = np.sqrt((xc * xc).sum(axis=1))
    hn = np.sqrt((hc * hc).sum(axis=1))
    cross = (xc * hc).sum(axis=1)
    valid = (xn >= DEGENERATE_EPS) & (hn >= DEGENERATE_EPS)
    if need_cross:
        valid &= np.abs(cross) >= DEGENERATE_EPS
    corr = np.zeros(len(clean))
    corr[valid] = cross[valid] / (xn[valid] * hn[valid])
    return corr, valid


def mean_cost(gains, clean, noisy, objective: str) -> float:
    """Mean per-sample training cost of gains applied to noisy envelopes.

    Per-band rows are (S, N); joint rows are (S, J, N) with the per-sample
    cost the mean over bands. 'elc' is the negated correlation (degenerate
    rows cost 0), 'emse' the mean squared error."""
    clean = np.asarray(clean, dtype=np.float64)
    rows = len(clean)
    n = clean.shape[-1]
    x = clean.reshape(-1, n)
    est = np.asarray(gains).reshape(-1, n) * np.asarray(noisy).reshape(-1, n)
    if objective == "elc":
        corr, _ = pearson_rows(x, est, need_cross=True)
        per_vector = -corr
    else:
        per_vector = ((est - x) ** 2).mean(axis=1)
    return float(per_vector.reshape(rows, -1).mean(axis=1).sum() / rows)


# ---------------------------------------------------------------------------
# enhancement


def overlap_average(vectors: np.ndarray, n_frames: int, first_frame: int, fill=None) -> np.ndarray:
    """Average overlapping estimates per frame.

    Entry d of vector v refers to frame first_frame + v + d. Frames that no
    vector reaches take `fill`; with fill None they are an error."""
    v, n = vectors.shape[:2]
    sums = np.zeros((n_frames,) + vectors.shape[2:])
    counts = np.zeros(n_frames)
    for d in range(n):
        sums[first_frame + d : first_frame + d + v] += vectors[:, d]
        counts[first_frame + d : first_frame + d + v] += 1
    if fill is None and np.any(counts == 0):
        raise ValueError("uncovered frame")
    covered = counts > 0
    out = np.full_like(sums, np.nan if fill is None else fill)
    out[covered] = (sums[covered].T / counts[covered]).T
    return out


def enhance_envelope_system(x, feature_mean, feature_std, band_layers, joint_layers) -> np.ndarray:
    """Per-band (band_layers: one layer list per band) or joint
    (joint_layers) envelope-gain enhancement of x at the working rate."""
    spec = stft(pad_to_frames(x))
    env = envelopes(spec)
    j, m = env.shape
    v = m - N_ENV + 1
    feats = np.stack([np.log1p(env[:, i : i + N_ENV]).reshape(-1) for i in range(v)])
    feats = (feats - feature_mean) / feature_std
    if joint_layers is not None:
        per_band = mlp_forward(joint_layers, feats).reshape(v, j, N_ENV).transpose(1, 0, 2)
    else:
        per_band = np.stack([mlp_forward(layers, feats) for layers in band_layers])
    band_gains = np.stack([overlap_average(per_band[b], m, 0) for b in range(j)])
    bin_gains = np.zeros(spec.shape)
    for b, bins in enumerate(band_bins()):
        bin_gains[:, bins] = band_gains[b][:, None]
    return istft(spec * bin_gains)[: len(x)]


def enhance_classical(x, feature_mean, feature_std, layers, context: int, predict: int) -> np.ndarray:
    """Per-bin magnitude-gain enhancement: each step sees `context` frames of
    log noisy magnitudes and predicts gains for its last `predict` frames."""
    spec = stft(pad_to_frames(x))
    mag = np.abs(spec)
    m, k = mag.shape
    v = m - context + 1
    feats = np.stack([np.log1p(mag[i : i + context]).reshape(-1) for i in range(v)])
    pred = mlp_forward(layers, (feats - feature_mean) / feature_std).reshape(v, predict, k)
    gains = overlap_average(pred, m, context - predict, fill=1.0)
    return istft(spec * gains)[: len(x)]


def envelope_score(clean, processed) -> float:
    """Mean envelope correlation over all (band, N-frame window) pairs whose
    centred envelopes both have non-zero norm."""
    ce = signal_envelopes(clean, pad=True)
    pe = signal_envelopes(processed, pad=True)
    total, used = 0.0, 0
    for band in range(len(ce)):
        cw = np.stack([ce[band, i : i + N_ENV] for i in range(ce.shape[1] - N_ENV + 1)])
        pw = np.stack([pe[band, i : i + N_ENV] for i in range(pe.shape[1] - N_ENV + 1)])
        corr, valid = pearson_rows(cw, pw, need_cross=False)
        total += corr[valid].sum()
        used += int(valid.sum())
    return total / used


# ---------------------------------------------------------------------------
# audio


def resample_to_working_rate(x: np.ndarray, fs: int) -> np.ndarray:
    """Polyphase resampling to 10 kHz with a Kaiser-windowed sinc lowpass.

    The filter has TAPS_PER_PHASE * max(up, down) + 1 taps, cut-off at the
    lower Nyquist, unit DC gain per phase; output sample i sits at input
    time i * down / up, so the filter is applied centred."""
    x = np.asarray(x, dtype=np.float64)
    if fs == FS:
        return x.copy()
    g = math.gcd(FS, fs)
    up, down = FS // g, fs // g
    max_rate = max(up, down)
    numtaps = TAPS_PER_PHASE * max_rate + 1
    half = (numtaps - 1) // 2
    t = np.arange(numtaps) - half
    cutoff = 1.0 / max_rate
    taps = cutoff * np.sinc(cutoff * t) * np.kaiser(numtaps, KAISER_BETA)
    taps *= up / taps.sum()
    stuffed = np.zeros(len(x) * up)
    stuffed[::up] = x
    full = np.convolve(stuffed, taps)
    n_out = -(-len(x) * up // down)
    return full[half : half + n_out * down : down]


def read_wav16(path) -> tuple[np.ndarray, int]:
    """Mono 16-bit PCM WAV as floats in [-1, 1) and its sample rate."""
    with wave.open(str(path), "rb") as fh:
        if fh.getnchannels() != 1 or fh.getsampwidth() != 2:
            raise ValueError(f"{path}: expected mono 16-bit PCM")
        data = fh.readframes(fh.getnframes())
        rate = fh.getframerate()
    return np.frombuffer(data, dtype="<i2").astype(np.float64) / 32768.0, rate


def write_wav16(x: np.ndarray, rate: int, path) -> None:
    """Mono 16-bit PCM WAV; x must lie in [-1, 1)."""
    q = np.round(np.asarray(x) * 32768.0)
    if q.min() < -32768 or q.max() > 32767:
        raise ValueError("sample out of 16-bit range")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(rate)
        fh.writeframes(q.astype("<i2").tobytes())
