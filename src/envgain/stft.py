"""Short-time spectral analysis and synthesis.

Conventions, fixed so results are reproducible bit-for-bit:

* periodic (DFT-even) Hann analysis window, which is exactly COLA at the
  50% overlap used here;
* frame m covers samples ``[m*hop, m*hop + window_len)`` starting at
  sample 0 with no pre-padding, and only frames that fit entirely inside
  the signal are produced: ``M = (len - window_len) // hop + 1``; the
  frames are a read-only strided view of the signal, not a copy;
* the one spectral value is the complex (M, fft_size/2 + 1) spectrum that
  `analyze` returns; `magnitude` is its absolute value, which is all that
  envelopes, features and scores read. `apply_gain` scales the spectrum
  by real gains, which scales the magnitudes and keeps the phase;
* synthesis applies the Hann window again, overlap-adds, and divides by
  the accumulated squared window, so analyze -> synthesize is the identity
  on the fully-overlapped interior. Edge samples (first/last half window)
  are not exactly reconstructed.

The pipeline layer zero-pads signals to a whole number of frames before
analysis when full coverage is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signal_io import WORKING_RATE_HZ, TimeSignal

DEFAULT_FFT_SIZE = 256

# Floor for the accumulated squared synthesis window; only relevant where
# the window is exactly zero (sample 0 of the first frame).
_OLA_FLOOR = 1e-15


def hann_periodic(n: int) -> np.ndarray:
    """Periodic Hann window of length n."""
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


@dataclass(frozen=True)
class StftConfig:
    """One free value: the window is as long as the FFT, the hop half of it."""

    fft_size: int = DEFAULT_FFT_SIZE

    def __post_init__(self):
        if self.fft_size <= 0 or self.fft_size % 2:
            raise ValueError(f"fft_size must be a positive even number, got {self.fft_size}")

    @property
    def window_len(self) -> int:
        return self.fft_size

    @property
    def hop(self) -> int:
        return self.fft_size // 2

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


def frame_signal(x: np.ndarray, config: StftConfig) -> np.ndarray:
    """Read-only (M, window_len) view of x's frames per the module convention."""
    config.n_frames(len(x))  # rejects a signal shorter than one window
    return np.lib.stride_tricks.sliding_window_view(x, config.window_len)[:: config.hop]


def pad_to_frames(x: np.ndarray, config: StftConfig) -> np.ndarray:
    """Zero-pad the tail so every sample falls inside some analysis frame."""
    n = len(x)
    if n < config.window_len:
        return np.concatenate([x, np.zeros(config.window_len - n)])
    rem = (n - config.window_len) % config.hop
    if rem == 0:
        return x
    return np.concatenate([x, np.zeros(config.hop - rem)])


def analyze(signal, config: StftConfig = StftConfig()) -> np.ndarray:
    """Complex (M, fft_size/2 + 1) Hann-windowed rfft frames of a
    TimeSignal or sample array."""
    x = np.asarray(getattr(signal, "samples", signal), dtype=np.float64)
    return np.fft.rfft(frame_signal(x, config) * config.window(), n=config.fft_size, axis=1)


def magnitude(signal, config: StftConfig = StftConfig()) -> np.ndarray:
    """STFT magnitudes of a TimeSignal or sample array, (M, fft_size/2 + 1):
    ``np.abs(analyze(signal, config))``."""
    return np.abs(analyze(signal, config))


def synthesize(spectrum: np.ndarray, config: StftConfig = StftConfig()) -> TimeSignal:
    """Weighted overlap-add inverse of `analyze`, at the working rate.

    Returns ``(M-1)*hop + window_len`` samples. Interior samples match the
    analyzed signal to near machine precision; edge half-windows do not.
    Known defect, kept because bench/reference.py pins it: near the first
    and last samples only one squared window covers the output and it is
    tiny (about 3.6e-8 at sample 1), so edge content that is not an exact
    resynthesis is amplified; non-uniform gains push those samples past
    full scale.
    """
    spectrum = np.asarray(spectrum)
    if spectrum.ndim != 2 or spectrum.shape[1] != config.n_bins:
        raise ValueError(f"expected an (M, {config.n_bins}) spectrum, got {spectrum.shape}")
    win = config.window()
    frames = np.fft.irfft(spectrum, n=config.fft_size, axis=1)[:, : config.window_len] * win

    # with hop = window_len / 2 output block b is frame b's first half plus
    # frame b-1's second half: at most two addends per sample, from zero
    hop = config.hop
    out = np.zeros((len(frames) + 1, hop))
    out[:-1] += frames[:, :hop]
    out[1:] += frames[:, hop:]
    wsq = win * win
    den = np.zeros_like(out)
    den[:-1] += wsq[:hop]
    den[1:] += wsq[hop:]
    return TimeSignal((out / np.maximum(den, _OLA_FLOOR)).reshape(-1), WORKING_RATE_HZ)


def apply_gain(spectrum: np.ndarray, gains: np.ndarray) -> np.ndarray:
    """Scale a complex spectrum elementwise by non-negative real gains: the
    magnitudes are multiplied, the phase is unchanged."""
    g = np.asarray(gains, dtype=np.float64)
    if g.shape != spectrum.shape:
        raise ValueError(f"gain shape {g.shape} != spectrum shape {spectrum.shape}")
    if not np.all(np.isfinite(g)) or np.any(g < 0):
        raise ValueError("gains must be finite and non-negative")
    return spectrum * g
