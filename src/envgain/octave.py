"""One-third-octave band layout and short-time temporal envelopes.

Band j has center frequency ``first_center * 2**(j/3)`` and edges a factor
``2**(1/6)`` to either side, so adjacent band edges meet exactly. An STFT
bin with center frequency ``k * fs / K`` belongs to band j iff
``lower_edge(j) <= f_bin < upper_edge(j)``; bin ranges are stored half-open
as ``[k1, k2)``.

Band envelopes are the root-sum-square of the band's magnitude bins per
frame. A length-N envelope vector for (band j, frame m) holds the N most
recent envelope values ending at frame m; with the default N = 30 and
12.8 ms hop one vector spans 384 ms. Per-window gain vectors share that
alignment; `average_overlapping_gains` averages them into per-frame gains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stft import Spectrogram

N_BANDS = 15
FIRST_CENTER_HZ = 150.0
ENVELOPE_LEN = 30

EDGE_RATIO = 2.0 ** (1.0 / 6.0)


@dataclass(frozen=True)
class Band:
    center_hz: float
    k1: int  # first STFT bin, inclusive
    k2: int  # one past the last STFT bin

    @property
    def n_bins(self) -> int:
        return self.k2 - self.k1


@dataclass(frozen=True)
class BandLayout:
    bands: tuple[Band, ...]
    fft_size: int
    sample_rate_hz: int

    @property
    def n_bands(self) -> int:
        return len(self.bands)

    @property
    def lower_edge_hz(self) -> float:
        return self.bands[0].center_hz / EDGE_RATIO

    @property
    def upper_edge_hz(self) -> float:
        return self.bands[-1].center_hz * EDGE_RATIO


@dataclass(frozen=True)
class EnvelopeVector:
    """N most recent envelope values of one band, ending at `frame`."""

    values: np.ndarray
    band: int
    frame: int


def build_band_layout(
    fft_size: int = 256,
    sample_rate_hz: int = 10000,
    n_bands: int = N_BANDS,
    first_center_hz: float = FIRST_CENTER_HZ,
) -> BandLayout:
    """Assign STFT bins to one-third-octave bands.

    Raises ValueError if any band ends up empty or extends past Nyquist.
    """
    bin_hz = sample_rate_hz / fft_size
    n_bins = fft_size // 2 + 1
    bands = []
    for j in range(n_bands):
        center = first_center_hz * 2.0 ** (j / 3.0)
        lower = center / EDGE_RATIO
        upper = center * EDGE_RATIO
        k1 = int(np.ceil(lower / bin_hz))
        k2 = int(np.ceil(upper / bin_hz))
        if k2 > n_bins:
            raise ValueError(
                f"band {j} (center {center:.1f} Hz) extends past Nyquist for fs={sample_rate_hz}"
            )
        if k2 <= k1:
            raise ValueError(f"band {j} (center {center:.1f} Hz) contains no STFT bin")
        bands.append(Band(center, k1, k2))
    return BandLayout(tuple(bands), fft_size, sample_rate_hz)


def envelopes(spec: Spectrogram, layout: BandLayout) -> np.ndarray:
    """Band envelope matrix, shape (J, M): root-sum-square per band, frame."""
    if layout.bands[-1].k2 > spec.config.n_bins:
        raise ValueError("layout bin range exceeds spectrogram bins")
    mag = spec.magnitude
    out = np.empty((layout.n_bands, spec.n_frames))
    for j, band in enumerate(layout.bands):
        out[j] = np.sqrt(np.sum(mag[:, band.k1 : band.k2] ** 2, axis=1))
    return out


def frame_envelope(env: np.ndarray, band: int, frame: int, n: int = ENVELOPE_LEN) -> EnvelopeVector:
    """The length-n envelope vector of `band` ending at `frame`."""
    if frame < n - 1:
        raise ValueError(f"frame {frame} has fewer than n={n} context frames")
    if frame >= env.shape[1]:
        raise ValueError(f"frame {frame} out of range (M={env.shape[1]})")
    return EnvelopeVector(env[band, frame - n + 1 : frame + 1].copy(), band, frame)


def band_gains_to_stft_gains(
    band_gains: np.ndarray,
    layout: BandLayout,
    out_of_band: str = "zero",
) -> np.ndarray:
    """Expand per-band gains (J, M) to a per-bin gain matrix (M, K/2+1).

    Every bin inside band j at frame m receives that band's gain. Bins
    outside all bands get 0 ("zero" policy, the default) or 1
    ("passthrough").
    """
    gains = np.asarray(band_gains, dtype=np.float64)
    if gains.shape[0] != layout.n_bands:
        raise ValueError(f"expected {layout.n_bands} band rows, got {gains.shape[0]}")
    if out_of_band not in ("zero", "passthrough"):
        raise ValueError(f"unknown out-of-band policy {out_of_band!r}")
    n_bins = layout.fft_size // 2 + 1
    fill = 0.0 if out_of_band == "zero" else 1.0
    out = np.full((gains.shape[1], n_bins), fill)
    for j, band in enumerate(layout.bands):
        out[:, band.k1 : band.k2] = gains[j][:, None]
    return out


def average_overlapping_gains(
    vectors: np.ndarray, n_frames: int, first_frame: int, fill: float | None = None
) -> np.ndarray:
    """Average overlapping per-window gain estimates per frame.

    `vectors` has shape (V, N, *rest): V consecutive windows of N frames
    each, trailing axes (bands, bins) averaged independently. Entry d of
    window v estimates frame ``first_frame + v + d``, so interior frames
    are averaged over up to N estimates and edge frames over however many
    exist. Returns (n_frames, *rest). Frames no window covers get `fill`,
    or raise ValueError when `fill` is None.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    v, n = vectors.shape[:2]
    if first_frame < 0 or first_frame + v + n - 1 > n_frames:
        raise ValueError(
            f"{v} windows of {n} frames from frame {first_frame} exceed {n_frames} frames"
        )
    sums = np.zeros((n_frames, *vectors.shape[2:]))
    counts = np.zeros(n_frames, dtype=np.int64)
    # the window covering frame f at offset d is v = f - first_frame - d, so
    # descending offsets add each frame's estimates in ascending window order
    for d in range(n - 1, -1, -1):
        lo = first_frame + d
        sums[lo : lo + v] += vectors[:, d]
        counts[lo : lo + v] += 1
    out = sums / np.maximum(counts, 1).reshape(-1, *(1,) * (sums.ndim - 1))
    uncovered = counts == 0
    if uncovered.any():
        if fill is None:
            missing = int(np.flatnonzero(uncovered)[0])
            raise ValueError(f"frame {missing} not covered by any gain vector")
        out[uncovered] = fill
    return out
