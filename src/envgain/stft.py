"""Short-time spectral analysis and synthesis.

The analysis is fixed: a 256-point FFT over 256-sample frames (25.6 ms at
the 10 kHz working rate), a hop of half that and N_BINS = 129 bins. These
are module constants, and nothing takes them as a parameter. Conventions,
fixed so results are reproducible bit-for-bit:

* periodic (DFT-even) Hann analysis window, which is exactly COLA at the
  50% overlap used here;
* frame m covers samples ``[m*HOP, m*HOP + FFT_SIZE)`` starting at
  sample 0 with no pre-padding, and only frames that fit entirely inside
  the signal are produced: ``M = (len - FFT_SIZE) // HOP + 1``; the
  frames are a read-only strided view of the signal, not a copy;
* the one spectral value is the complex (M, N_BINS) spectrum that
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

FFT_SIZE = 256  # also the window length
HOP = FFT_SIZE // 2
N_BINS = FFT_SIZE // 2 + 1

# Floor for the accumulated squared synthesis window; only relevant where
# the window is exactly zero (sample 0 of the first frame).
_OLA_FLOOR = 1e-15


def hann_periodic(n: int) -> np.ndarray:
    """Periodic Hann window of length n."""
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


WINDOW = hann_periodic(FFT_SIZE)
WINDOW.flags.writeable = False


@dataclass(frozen=True)
class StftConfig:
    """The fixed analysis as a value, for the system classes that carry one:
    every instance is equal, and its `n_bins` is N_BINS."""

    n_bins = N_BINS


def frame_signal(x: np.ndarray) -> np.ndarray:
    """Read-only (M, FFT_SIZE) view of x's frames per the module convention."""
    if len(x) < FFT_SIZE:
        raise ValueError(f"signal of {len(x)} samples shorter than one window ({FFT_SIZE})")
    return np.lib.stride_tricks.sliding_window_view(x, FFT_SIZE)[::HOP]


def pad_to_frames(x: np.ndarray) -> np.ndarray:
    """Zero-pad the tail so every sample falls inside some analysis frame."""
    n = len(x)
    if n < FFT_SIZE:
        return np.concatenate([x, np.zeros(FFT_SIZE - n)])
    rem = (n - FFT_SIZE) % HOP
    if rem == 0:
        return x
    return np.concatenate([x, np.zeros(HOP - rem)])


def analyze(signal) -> np.ndarray:
    """Complex (M, N_BINS) Hann-windowed rfft frames of a TimeSignal or
    sample array."""
    x = np.asarray(getattr(signal, "samples", signal), dtype=np.float64)
    return np.fft.rfft(frame_signal(x) * WINDOW, n=FFT_SIZE, axis=1)


def magnitude(signal) -> np.ndarray:
    """STFT magnitudes of a TimeSignal or sample array, (M, N_BINS):
    ``np.abs(analyze(signal))``."""
    return np.abs(analyze(signal))


def synthesize(spectrum: np.ndarray) -> TimeSignal:
    """Weighted overlap-add inverse of `analyze`, at the working rate.

    Returns ``(M-1)*HOP + FFT_SIZE`` samples. Interior samples match the
    analyzed signal to near machine precision; edge half-windows do not.
    Known defect, kept because bench/reference.py pins it: near the first
    and last samples only one squared window covers the output and it is
    tiny (about 3.6e-8 at sample 1), so edge content that is not an exact
    resynthesis is amplified; non-uniform gains push those samples past
    full scale.
    """
    spectrum = np.asarray(spectrum)
    if spectrum.ndim != 2 or spectrum.shape[1] != N_BINS:
        raise ValueError(f"expected an (M, {N_BINS}) spectrum, got {spectrum.shape}")
    frames = np.fft.irfft(spectrum, n=FFT_SIZE, axis=1) * WINDOW

    # with HOP = FFT_SIZE / 2 output block b is frame b's first half plus
    # frame b-1's second half: at most two addends per sample, from zero
    out = np.zeros((len(frames) + 1, HOP))
    out[:-1] += frames[:, :HOP]
    out[1:] += frames[:, HOP:]
    wsq = WINDOW * WINDOW
    den = np.zeros_like(out)
    den[:-1] += wsq[:HOP]
    den[1:] += wsq[HOP:]
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
