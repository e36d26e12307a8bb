"""One-third-octave band layout and short-time temporal envelopes.

The layout is STOI's (Taal et al., IEEE TASLP 2011) on this repo's fixed
256-point analysis (`stft`), built once at import as `LAYOUT`: 15 bands at
the 10 kHz working rate, band j centred at ``150 Hz * 2**(j/3)`` with edges
a factor ``2**(1/6)`` to either side, so adjacent band edges meet exactly
and the top one, 4,277 Hz, lies below Nyquist. An STFT bin with center
frequency ``k * fs / FFT_SIZE`` belongs to band j iff
``lower_edge(j) <= f_bin < upper_edge(j)``; bin ranges are stored
half-open as ``[k1, k2)``, and bins outside every band get gain 0.

Band envelopes are the root-sum-square of the band's magnitude bins per
frame, computed from an (M, N_BINS) STFT magnitude array (`stft.magnitude`,
or ``np.abs`` of the complex spectrum `stft.analyze` returns). A length-N
envelope vector for (band j, frame m) holds the N = ENVELOPE_LEN = 30 most
recent envelope values ending at frame m; with the 12.8 ms hop one vector
spans 384 ms. Per-window gain vectors share that alignment;
`average_overlapping_gains` averages them into per-frame gains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signal_io import WORKING_RATE_HZ
from .stft import FFT_SIZE, HOP, N_BINS

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

    @property
    def n_bands(self) -> int:
        return len(self.bands)


def build_band_layout() -> BandLayout:
    """Assign the STFT bins to the bands; every band holds at least one."""
    bin_hz = WORKING_RATE_HZ / FFT_SIZE
    centers = (FIRST_CENTER_HZ * 2.0 ** (j / 3.0) for j in range(N_BANDS))
    return BandLayout(tuple(Band(c, int(np.ceil(c / EDGE_RATIO / bin_hz)),
                                 int(np.ceil(c * EDGE_RATIO / bin_hz))) for c in centers))


LAYOUT = build_band_layout()


def check_header(fft_size, hop, n_env=ENVELOPE_LEN, sample_rate_hz=WORKING_RATE_HZ,
                 n_bands=N_BANDS, first_center_hz=FIRST_CENTER_HZ) -> None:
    """Refuse a stored record's header unless every field is the fixed
    front end's: the STFT, the envelope length, the rate, the band count
    and the first centre (a record that stores none of the last four, the
    classical kind, leaves them out). Raises ValueError naming the first
    field that is not so."""
    for name, stored, value in (("fft_size", fft_size, FFT_SIZE), ("hop", hop, HOP),
                                ("n_env", n_env, ENVELOPE_LEN),
                                ("sample_rate_hz", sample_rate_hz, WORKING_RATE_HZ),
                                ("n_bands", n_bands, N_BANDS),
                                ("first_center_hz", first_center_hz, FIRST_CENTER_HZ)):
        if stored != value:
            raise ValueError(f"{name} = {stored!r} is not {value!r}")


def envelopes(magnitude: np.ndarray) -> np.ndarray:
    """Band envelope matrix, shape (J, M), of an (M, N_BINS) STFT magnitude
    array: root-sum-square of each band's bins, per frame."""
    mag = np.asarray(magnitude, dtype=np.float64)
    if mag.ndim != 2:
        raise ValueError(f"expected an (M, bins) magnitude array, got shape {mag.shape}")
    if LAYOUT.bands[-1].k2 > mag.shape[1]:
        raise ValueError("layout bin range exceeds the magnitude array's bins")
    sq = mag * mag  # squared once; each band sums its columns
    out = np.empty((LAYOUT.n_bands, mag.shape[0]))
    for j, band in enumerate(LAYOUT.bands):
        np.sum(sq[:, band.k1 : band.k2], axis=1, out=out[j])
    return np.sqrt(out, out=out)


def band_gains_to_stft_gains(band_gains: np.ndarray) -> np.ndarray:
    """Expand per-band gains (J, M) to a per-bin gain matrix (M, N_BINS).

    Every bin inside band j at frame m receives that band's gain; bins
    outside every band get 0.
    """
    gains = np.asarray(band_gains, dtype=np.float64)
    if gains.shape[0] != LAYOUT.n_bands:
        raise ValueError(f"expected {LAYOUT.n_bands} band rows, got {gains.shape[0]}")
    out = np.zeros((gains.shape[1], N_BINS))
    for j, band in enumerate(LAYOUT.bands):
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
