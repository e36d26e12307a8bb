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
end in `mixing`, kept in magnitudes; `pipeline.enhance` (bound here as
`classical_enhance`) serves it through `ClassicalSystem.gains`, and
`pipeline._train` trains it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import modeldir, neural
from .mixing import CONTEXT_FRAMES, DEFAULT_SNR_RANGE_DB, PREDICT_FRAMES, _joined, _windows
from .mixing import frame_index, log_windows, mixture_magnitudes
from .octave import average_overlapping_gains
from .pipeline import _forward_side_by_side, _train
from .pipeline import enhance as classical_enhance  # the shared path, by its old name
from .signal_io import TimeSignal
from .stft import FFT_SIZE, StftConfig


class MagnitudeDataset:
    """Per-utterance clean/noisy magnitude matrices (M, N_BINS) plus a flat
    (utterance, frame) index of valid context end frames."""

    context = CONTEXT_FRAMES
    predict = PREDICT_FRAMES

    def __init__(self, clean_mag, noisy_mag, index):
        self.clean_mag = clean_mag
        self.noisy_mag = noisy_mag
        self.index = np.asarray(index, dtype=np.int64).reshape(-1, 2)

    @property
    def n_frames(self) -> int:
        return len(self.index)

    def features(self, rows) -> np.ndarray:
        """`log_windows` of the noisy magnitudes: (R, context*N_BINS)."""
        return log_windows(*_joined(self.index, rows, self.context, self.noisy_mag, 0),
                           self.context, 0)

    def targets(self, rows):
        """Clean and noisy magnitudes of each row's last `predict` frames:
        two (R, predict*N_BINS) arrays."""
        windows = (_windows(*_joined(self.index, rows, self.predict, mags, 0), self.predict, 0)
                   for mags in (self.clean_mag, self.noisy_mag))
        return [w.reshape(len(w), -1) for w in windows]


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


@dataclass
class ClassicalSystem:
    model: neural.MlpModel
    stft_config: StftConfig  # always StftConfig()
    feature_norm: neural.FeatureNorm
    context = CONTEXT_FRAMES
    predict = PREDICT_FRAMES

    def __post_init__(self):
        if self.stft_config != StftConfig():
            raise ValueError(f"the STFT configuration is not the fixed {FFT_SIZE}-point one")

    def gains(self, mag: np.ndarray) -> np.ndarray:
        """(M, N_BINS) STFT gains of (M, N_BINS) noisy magnitudes."""
        feats = self.feature_norm.apply(log_windows(mag, slice(None), self.context, 0))
        pred = _forward_side_by_side([self.model], feats)
        # window v ends at frame context-1+v and predicts its last `predict` frames
        pred = pred.reshape(len(pred), self.predict, mag.shape[1])
        return average_overlapping_gains(pred, len(mag), self.context - self.predict, fill=1.0)


def train_classical(
    train_ds: MagnitudeDataset,
    val_ds: MagnitudeDataset,
    config: neural.TrainConfig = neural.TrainConfig(objective="emse"),
    hidden: Sequence[int] = neural.DEFAULT_HIDDEN,
    max_train_frames: int | None = None,
    max_val_frames: int | None = None,
) -> tuple[ClassicalSystem, neural.TrainReport]:
    """Train the spectral-magnitude MSE baseline (objective is always the
    magnitude-domain MSE), with its own row salt and feature-norm chunk."""
    config = replace(config, objective="emse")
    (model,), (report,), norm = _train(
        train_ds, val_ds, [None], config, hidden, max_train_frames, max_val_frames,
        salt=0xBA5E, chunk=2048,
    )
    return ClassicalSystem(model, StftConfig(), norm), report


def save_classical(system: ClassicalSystem, dirpath) -> None:
    modeldir.save(dirpath, "classical", system.feature_norm, [system.model])


def load_classical(dirpath) -> ClassicalSystem:
    return classical_of(*modeldir.read(dirpath, ("classical",)))


def classical_of(fields: dict, norm: neural.FeatureNorm, models: list) -> ClassicalSystem:
    """The system of what `modeldir.read` returns for a classical directory."""
    return ClassicalSystem(models[0], StftConfig(), norm)
