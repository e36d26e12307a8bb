"""Classical short-time spectral-amplitude baseline.

A single network takes a fixed window, CONTEXT_FRAMES = 30 consecutive
frames of log-compressed noisy magnitude spectra, and emits sigmoid gains
for its PREDICT_FRAMES = 5 most recent frames (all N_BINS bins each).
Successive steps overlap, so up to 5 gain estimates exist per frame; they
are averaged. The objective is the MSE between the gained noisy magnitudes
and the clean magnitudes, i.e. the same estimate-vs-target MSE as the
envelope trainer, applied across frequency instead of within a band.
Leading frames that no prediction window reaches pass through with unit
gain. Its dataset and its input come from the envelope networks' front
end in `mixing` (`joined`, `windows`, `log_windows`), kept in magnitudes,
and `pipeline.train_networks` trains it with the row salt and norm chunk
that `MagnitudeDataset` names. The system itself,
`pipeline.ClassicalSystem`, is served, saved and loaded as every kind is:
`pipeline.enhance`, `save_system` and `load_system`. The names
`ClassicalSystem`, `save_classical` and `classical_enhance` remain here
only because the benchmark (`bench/run.py`) reads them.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

import numpy as np

from . import neural
from .mixing import CONTEXT_FRAMES, DEFAULT_SNR_RANGE_DB, PREDICT_FRAMES, frame_index, joined
from .mixing import log_windows, mixture_magnitudes, windows
from .pipeline import ClassicalSystem, train_networks
# bench/run.py's names for the one enhancement and save path of every kind
from .pipeline import enhance as classical_enhance
from .pipeline import save_system as save_classical
from .signal_io import TimeSignal
from .stft import StftConfig


class MagnitudeDataset:
    """Per-utterance clean/noisy magnitude matrices (M, N_BINS) plus a flat
    (utterance, frame) index of valid context end frames."""

    context = CONTEXT_FRAMES
    predict = PREDICT_FRAMES
    row_salt = 0xBA5E
    norm_chunk = 2048

    def __init__(self, clean_mag, noisy_mag, index):
        self.clean_mag = clean_mag
        self.noisy_mag = noisy_mag
        self.index = np.asarray(index, dtype=np.int64).reshape(-1, 2)

    @property
    def n_frames(self) -> int:
        return len(self.index)

    def features(self, rows) -> np.ndarray:
        """`log_windows` of the noisy magnitudes: (R, context*N_BINS)."""
        return log_windows(*joined(self.index, rows, self.context, self.noisy_mag, 0),
                           self.context, 0)

    def targets(self, rows):
        """Clean and noisy magnitudes of each row's last `predict` frames:
        two (R, predict*N_BINS) arrays."""
        cuts = (windows(*joined(self.index, rows, self.predict, mags, 0), self.predict, 0)
                for mags in (self.clean_mag, self.noisy_mag))
        return [cut.reshape(len(cut), -1) for cut in cuts]


def build_magnitude_dataset(
    speech_list: Sequence[TimeSignal],
    noise: TimeSignal,
    seed: int = 0,
    snr_range_db=DEFAULT_SNR_RANGE_DB,
) -> MagnitudeDataset:
    """Magnitude-domain counterpart of mixing.build_dataset: the magnitudes
    of `mixing.mixture_magnitudes`, kept as they are."""
    kept = mixture_magnitudes(speech_list, noise, seed, snr_range_db, np.asarray)
    clean_mags, noisy_mags = [clean for clean, _, _ in kept], [noisy for _, noisy, _ in kept]
    index = frame_index([mag.shape[0] for mag in clean_mags], CONTEXT_FRAMES)
    return MagnitudeDataset(clean_mags, noisy_mags, index)


def train_classical(
    train_ds: MagnitudeDataset,
    val_ds: MagnitudeDataset,
    config: neural.TrainConfig = neural.TrainConfig(objective="emse"),
    hidden: Sequence[int] = neural.DEFAULT_HIDDEN,
    max_train_frames: int | None = None,
    max_val_frames: int | None = None,
) -> tuple[ClassicalSystem, neural.TrainReport]:
    """Train the spectral-magnitude MSE baseline (objective is always the
    magnitude-domain MSE)."""
    config = replace(config, objective="emse")
    (model,), (report,), norm = train_networks(
        train_ds, val_ds, [None], config, hidden, max_train_frames, max_val_frames
    )
    return ClassicalSystem(model, StftConfig(), norm), report

