"""Classical short-time spectral-amplitude baseline.

A single network consumes 30 consecutive frames of log-compressed noisy
magnitude spectra and emits sigmoid gains for the 5 most recent frames of
the context (all K/2+1 bins each). Successive steps overlap, so up to 5
gain estimates exist per frame; they are averaged. The objective is the
MSE between the gained noisy magnitudes and the clean magnitudes, i.e.
the same estimate-vs-target MSE as the envelope trainer, applied across
frequency instead of within a band. Leading frames that no prediction
window reaches pass through with unit gain.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import neural
from .mixing import DEFAULT_SNR_RANGE_DB, _mixtures
from .octave import average_overlapping_gains
from .pipeline import (
    _analyze_noisy, _load_norm, _parse_kv, _resynthesize, _save_norm, _select_rows, _streaming_norm,
)
from .signal_io import TimeSignal
from .stft import Spectrogram, StftConfig, analyze

CONTEXT_FRAMES = 30
PREDICT_FRAMES = 5


class MagnitudeDataset:
    """Per-utterance clean/noisy magnitude matrices (M, K/2+1) plus a flat
    (utterance, frame) index of valid context end frames."""

    def __init__(self, clean_mag, noisy_mag, index, stft_config=StftConfig(),
                 context=CONTEXT_FRAMES, predict=PREDICT_FRAMES):
        self.clean_mag = clean_mag
        self.noisy_mag = noisy_mag
        self.index = np.asarray(index, dtype=np.int64).reshape(-1, 2)
        self.stft_config = stft_config
        self.context = context
        self.predict = predict

    @property
    def n_bins(self) -> int:
        return self.clean_mag[0].shape[1]

    @property
    def n_frames(self) -> int:
        return len(self.index)

    def features(self, rows) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.int64)
        out = np.empty((len(rows), self.context * self.n_bins))
        for i, (utt, frame) in enumerate(self.index[rows]):
            window = self.noisy_mag[utt][frame - self.context + 1 : frame + 1]
            out[i] = np.log1p(window).reshape(-1)
        return out

    def targets(self, rows):
        rows = np.asarray(rows, dtype=np.int64)
        shape = (len(rows), self.predict * self.n_bins)
        clean = np.empty(shape)
        noisy = np.empty(shape)
        for i, (utt, frame) in enumerate(self.index[rows]):
            sl = slice(frame - self.predict + 1, frame + 1)
            clean[i] = self.clean_mag[utt][sl].reshape(-1)
            noisy[i] = self.noisy_mag[utt][sl].reshape(-1)
        return clean, noisy


def build_magnitude_dataset(
    speech_list: Sequence[TimeSignal],
    noise: TimeSignal,
    seed: int = 0,
    snr_range_db=DEFAULT_SNR_RANGE_DB,
    snr_list_db=None,
    stft_config: StftConfig = StftConfig(),
    context: int = CONTEXT_FRAMES,
    predict: int = PREDICT_FRAMES,
) -> MagnitudeDataset:
    """Magnitude-domain counterpart of mixing.build_dataset."""
    clean_mags, noisy_mags, index = [], [], []
    mixtures = _mixtures(speech_list, noise, seed, snr_range_db, snr_list_db)
    for u, (speech, mixture, _) in enumerate(mixtures):
        clean_mags.append(analyze(speech, stft_config).magnitude)
        noisy_mags.append(analyze(mixture, stft_config).magnitude)
        for frame in range(context - 1, clean_mags[-1].shape[0]):
            index.append((u, frame))
    return MagnitudeDataset(clean_mags, noisy_mags, index, stft_config, context, predict)


@dataclass
class ClassicalSystem:
    model: neural.MlpModel
    stft_config: StftConfig
    feature_norm: neural.FeatureNorm
    context: int = CONTEXT_FRAMES
    predict: int = PREDICT_FRAMES


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
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0xBA5E]))
    train_rows = _select_rows(train_ds.n_frames, max_train_frames, rng)
    val_rows = _select_rows(val_ds.n_frames, max_val_frames, rng)

    norm = _streaming_norm(train_ds.features, train_rows, 2048)
    keys = np.random.SeedSequence(config.seed).generate_state(2)
    dims = [train_ds.context * train_ds.n_bins, *hidden, train_ds.predict * train_ds.n_bins]
    model = neural.init_model(dims, seed=int(keys[0]))

    def materialize(ds, rows):
        clean, noisy = ds.targets(rows)
        return neural.ArrayDataset(norm.apply(ds.features(rows)), clean, noisy)

    model, report = neural.train(
        model,
        materialize(train_ds, train_rows),
        materialize(val_ds, val_rows),
        replace(config, seed=int(keys[1])),
    )
    return ClassicalSystem(model, train_ds.stft_config, norm, train_ds.context, train_ds.predict), report


def _gains(system: ClassicalSystem, spec: Spectrogram) -> np.ndarray:
    mag = spec.magnitude
    m, n_bins = mag.shape
    if m < system.context:
        raise ValueError(f"input too short: {m} frames, need >= {system.context}")

    windows = np.lib.stride_tricks.sliding_window_view(mag, system.context, axis=0)  # (V, B, C)
    feats = np.log1p(windows.transpose(0, 2, 1).reshape(windows.shape[0], -1))
    feats = system.feature_norm.apply(feats)
    pred = np.empty((len(feats), system.predict * n_bins))
    for lo in range(0, len(feats), 2048):
        pred[lo : lo + 2048] = neural.forward(system.model, feats[lo : lo + 2048])
    # window v ends at frame context-1+v and predicts its last `predict` frames
    pred = pred.reshape(len(pred), system.predict, n_bins)
    return average_overlapping_gains(pred, m, system.context - system.predict, fill=1.0)


def classical_gains(system: ClassicalSystem, noisy: TimeSignal) -> np.ndarray:
    """Per-bin gain matrix (M, K/2+1) with overlapping 5-frame estimates
    averaged; frames before the first prediction window get gain 1."""
    return _gains(system, _analyze_noisy(noisy, system.stft_config))


def classical_enhance(system: ClassicalSystem, noisy: TimeSignal) -> TimeSignal:
    """Gain the noisy magnitudes and resynthesize with the noisy phase,
    from one analysis of the noisy input."""
    spec = _analyze_noisy(noisy, system.stft_config)
    return _resynthesize(noisy, spec, _gains(system, spec))


def save_classical(system: ClassicalSystem, dirpath) -> None:
    d = Path(dirpath)
    d.mkdir(parents=True, exist_ok=True)
    cfg = system.stft_config
    lines = [
        "kind = classical",
        f"context = {system.context}",
        f"predict = {system.predict}",
        f"fft_size = {cfg.fft_size}",
        f"hop = {cfg.hop}",
    ]
    (d / "system.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    _save_norm(system.feature_norm, d / "feature_norm.bin")
    neural.save_model(system.model, d / "baseline.mdl", "emse")


def load_classical(dirpath) -> ClassicalSystem:
    d = Path(dirpath)
    meta = _parse_kv(d / "system.txt")
    if meta.get("kind") != "classical":
        raise ValueError(f"{dirpath}: not a classical baseline model directory")
    cfg = StftConfig(int(meta["fft_size"]), int(meta["fft_size"]), int(meta["hop"]))
    context, predict = int(meta["context"]), int(meta["predict"])
    n_bins = cfg.n_bins
    model, _ = neural.load_model(
        d / "baseline.mdl",
        expected_input_dim=context * n_bins,
        expected_output_dim=predict * n_bins,
    )
    return ClassicalSystem(model, cfg, _load_norm(d / "feature_norm.bin"), context, predict)
