"""End-to-end enhancement, scoring and evaluation.

An EnhancementSystem bundles the trained per-band gain networks (or one
joint-output network), the band layout, STFT configuration and feature
normalization. Enhancement analyzes the noisy audio once, collects each
network's gain vectors as one (V, J, N) array, averages the overlapping
estimates per frame, maps band gains onto STFT bins (uniform within a
band) and resynthesizes from the same spectrogram with the noisy phase.
Output duration equals input duration.

Scoring averages the envelope correlation over all (band, window) pairs;
the intelligibility score exposed here is the clip-free variant of that
same average, so `score_approx_stoi` and `score_elc` agree exactly.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import cost, neural
from .mixing import EnvelopeDataset, mix_at_snr
from .octave import (
    ENVELOPE_LEN,
    BandLayout,
    average_overlapping_gains,
    band_gains_to_stft_gains,
    build_band_layout,
    envelopes,
)
from .signal_io import WORKING_RATE_HZ, TimeSignal
from .stft import Spectrogram, StftConfig, analyze, apply_gain, pad_to_frames, synthesize

NORM_MAGIC = b"ASTON"
NORM_VERSION = 1

_FEATURE_CHUNK = 4096


@dataclass
class EnhancementSystem:
    band_models: list[neural.MlpModel] | None  # one per band, or None if joint
    joint_model: neural.MlpModel | None
    layout: BandLayout
    stft_config: StftConfig
    feature_norm: neural.FeatureNorm
    objective: str
    n_env: int = ENVELOPE_LEN
    out_of_band: str = "zero"

    def __post_init__(self):
        if (self.band_models is None) == (self.joint_model is None):
            raise ValueError("exactly one of band_models / joint_model must be set")
        if self.band_models is not None and len(self.band_models) != self.layout.n_bands:
            raise ValueError(
                f"{len(self.band_models)} band models for {self.layout.n_bands} bands"
            )
        dim = self.layout.n_bands * self.n_env
        model = self.joint_model or self.band_models[0]
        if model.input_dim != dim or len(self.feature_norm.mean) != dim:
            raise ValueError("model/feature-norm input dims do not match layout * n_env")

    @property
    def is_joint(self) -> bool:
        return self.joint_model is not None


def _compatible(a: EnhancementSystem, b: EnhancementSystem) -> bool:
    return (
        a.stft_config == b.stft_config
        and a.n_env == b.n_env
        and a.layout.fft_size == b.layout.fft_size
        and a.layout.sample_rate_hz == b.layout.sample_rate_hz
        and [band.center_hz for band in a.layout.bands]
        == [band.center_hz for band in b.layout.bands]
    )


def _require_working_rate(sig: TimeSignal, what: str):
    if sig.sample_rate_hz != WORKING_RATE_HZ:
        raise ValueError(f"{what} must be at the {WORKING_RATE_HZ} Hz working rate")


def _analyze_noisy(noisy: TimeSignal, config: StftConfig) -> Spectrogram:
    _require_working_rate(noisy, "noisy input")
    return analyze(pad_to_frames(noisy.samples, config), config)


def _gain_vectors(system: EnhancementSystem, spec: Spectrogram) -> np.ndarray:
    env = envelopes(spec, system.layout)
    j, m = env.shape
    n = system.n_env
    if m < n:
        raise ValueError(f"input too short: {m} frames, need >= {n}")
    v = m - n + 1
    windows = np.lib.stride_tricks.sliding_window_view(env, n, axis=1)  # (J, V, N)
    feats = np.log1p(windows.transpose(1, 0, 2).reshape(v, j * n))
    feats = system.feature_norm.apply(feats)

    out = np.empty((v, j, n))
    for lo in range(0, v, _FEATURE_CHUNK):
        sl = slice(lo, min(lo + _FEATURE_CHUNK, v))
        if system.is_joint:
            out[sl] = neural.forward(system.joint_model, feats[sl]).reshape(-1, j, n)
        else:
            for band in range(j):
                out[sl, band] = neural.forward(system.band_models[band], feats[sl])
    return out


def _band_gains(system: EnhancementSystem, spec: Spectrogram) -> np.ndarray:
    vectors = _gain_vectors(system, spec)  # (V, J, N); window v starts at frame v
    return average_overlapping_gains(vectors.transpose(0, 2, 1), spec.n_frames, 0).T


def _resynthesize(noisy: TimeSignal, spec: Spectrogram, stft_gains: np.ndarray) -> TimeSignal:
    out = synthesize(apply_gain(spec, stft_gains))
    return TimeSignal(out.samples[: len(noisy)], WORKING_RATE_HZ)


def predict_gain_vectors(system: EnhancementSystem, noisy: TimeSignal) -> np.ndarray:
    """Raw network gain vectors for every valid frame: (V, J, N), where the
    v-th row belongs to the envelope vector ending at frame n_env-1+v."""
    return _gain_vectors(system, _analyze_noisy(noisy, system.stft_config))


def predict_band_gains(system: EnhancementSystem, noisy: TimeSignal) -> np.ndarray:
    """Per-frame band gains (J, M): the gain vectors of every window
    averaged per frame by `average_overlapping_gains`."""
    return _band_gains(system, _analyze_noisy(noisy, system.stft_config))


def enhance_with_band_gains(
    noisy: TimeSignal,
    band_gains: np.ndarray,
    layout: BandLayout,
    config: StftConfig = StftConfig(),
    out_of_band: str = "zero",
) -> TimeSignal:
    """Apply per-frame band gains to a noisy signal and resynthesize with
    the noisy phase. Used by both the networks and oracle-gain harnesses."""
    spec = _analyze_noisy(noisy, config)
    return _resynthesize(noisy, spec, band_gains_to_stft_gains(band_gains, layout, out_of_band))


def enhance(system: EnhancementSystem, noisy: TimeSignal) -> TimeSignal:
    """Noisy waveform in, enhanced waveform of identical duration out.

    The noisy input is analyzed once; its spectrogram feeds both the
    networks and the resynthesis."""
    spec = _analyze_noisy(noisy, system.stft_config)
    gains = band_gains_to_stft_gains(_band_gains(system, spec), system.layout, system.out_of_band)
    return _resynthesize(noisy, spec, gains)


def oracle_band_gains(
    clean: TimeSignal,
    noisy: TimeSignal,
    layout: BandLayout,
    config: StftConfig = StftConfig(),
) -> np.ndarray:
    """Ideal per-frame band gains min(1, X/Y); silent noisy bands get 0."""
    if len(clean) != len(noisy):
        raise ValueError("clean and noisy lengths differ")
    clean_env = envelopes(analyze(pad_to_frames(clean.samples, config), config), layout)
    noisy_env = envelopes(analyze(pad_to_frames(noisy.samples, config), config), layout)
    with np.errstate(divide="ignore", invalid="ignore"):
        gains = np.where(noisy_env > 0, np.minimum(1.0, clean_env / noisy_env), 0.0)
    return gains


def score_elc(
    clean: TimeSignal,
    processed: TimeSignal,
    layout: BandLayout | None = None,
    config: StftConfig = StftConfig(),
    n_env: int = ENVELOPE_LEN,
    return_counts: bool = False,
):
    """Mean envelope correlation over all valid (band, window) pairs.

    Windows where either centered envelope norm is (numerically) zero are
    skipped; pass return_counts=True to get (score, n_used, n_skipped).
    """
    if len(clean) != len(processed):
        raise ValueError(f"length mismatch: {len(clean)} vs {len(processed)}")
    _require_working_rate(clean, "clean")
    _require_working_rate(processed, "processed")
    if layout is None:
        layout = build_band_layout(config.fft_size, WORKING_RATE_HZ)
    clean_env = envelopes(analyze(pad_to_frames(clean.samples, config), config), layout)
    proc_env = envelopes(analyze(pad_to_frames(processed.samples, config), config), layout)
    if clean_env.shape[1] < n_env:
        raise ValueError(f"too short to score: {clean_env.shape[1]} frames, need >= {n_env}")

    total = 0.0
    used = 0
    skipped = 0
    for j in range(layout.n_bands):
        cw = np.lib.stride_tricks.sliding_window_view(clean_env[j], n_env)
        pw = np.lib.stride_tricks.sliding_window_view(proc_env[j], n_env)
        values, valid = cost.elc_value_batch(cw, pw)
        total += float(values[valid].sum())
        used += int(np.count_nonzero(valid))
        skipped += int(np.count_nonzero(~valid))
    if used == 0:
        raise ValueError("no non-degenerate envelope windows to score")
    score = total / used
    if return_counts:
        return score, used, skipped
    return score


def score_approx_stoi(clean, processed, **kwargs):
    """Clip-free intelligibility score; identical to `score_elc` by
    construction."""
    return score_elc(clean, processed, **kwargs)


def gain_correlation(
    system_a: EnhancementSystem,
    system_b: EnhancementSystem,
    signals: Sequence[TimeSignal],
) -> float:
    """Pearson correlation between the two systems' concatenated gain-vector
    entries over the same inputs."""
    if not _compatible(system_a, system_b):
        raise ValueError("systems have different layout or STFT configuration")
    ga, gb = [], []
    for sig in signals:
        ga.append(predict_gain_vectors(system_a, sig).reshape(-1))
        gb.append(predict_gain_vectors(system_b, sig).reshape(-1))
    a = np.concatenate(ga)
    b = np.concatenate(gb)
    ac = a - a.mean()
    bc = b - b.mean()
    na, nb = np.linalg.norm(ac), np.linalg.norm(bc)
    if na < cost.EPS or nb < cost.EPS:
        raise cost.DegenerateEnvelopeError("gain sequence has zero variance")
    return float(np.dot(ac, bc) / (na * nb))


# ---------------------------------------------------------------------------
# training front-end


def _materialize(
    ds: EnvelopeDataset,
    rows: np.ndarray,
    norm: neural.FeatureNorm,
    band: int | None,
) -> neural.ArrayDataset:
    feats = norm.apply(ds.features(rows))
    if band is None:
        clean, noisy = ds.joint_targets(rows)
    else:
        clean, noisy = ds.band_targets(rows, band)
    return neural.ArrayDataset(feats, clean, noisy)


def _select_rows(n: int, cap: int | None, rng: np.random.Generator) -> np.ndarray:
    if cap is None or n <= cap:
        return np.arange(n)
    return np.sort(rng.choice(n, size=cap, replace=False))


def _streaming_norm(features, rows: np.ndarray, chunk: int) -> neural.FeatureNorm:
    """Per-dimension mean and std of `features(rows)`, gathered `chunk` rows
    at a time; the chunk size fixes the summation order."""
    sums = sqsums = 0.0
    for lo in range(0, len(rows), chunk):
        block = features(rows[lo : lo + chunk])
        sums = sums + block.sum(axis=0)
        sqsums = sqsums + (block**2).sum(axis=0)
    mean = sums / len(rows)
    var = np.maximum(sqsums / len(rows) - mean**2, 0.0)
    return neural.FeatureNorm(mean, np.maximum(np.sqrt(var), 1e-8))


def compute_feature_norm_for(ds: EnvelopeDataset, rows=None) -> neural.FeatureNorm:
    rows = np.arange(ds.n_frames) if rows is None else rows
    return _streaming_norm(ds.features, rows, _FEATURE_CHUNK)


def _training_rows(train_ds, val_ds, config, max_train_frames, max_val_frames):
    """Seeded train/validation row selection, shared by every band so that
    training band 0..14 in one process or in 15 processes gives identical
    models and an identical feature norm."""
    row_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0x5E1EC7]))
    train_rows = _select_rows(train_ds.n_frames, max_train_frames, row_rng)
    val_rows = _select_rows(val_ds.n_frames, max_val_frames, row_rng)
    return train_rows, val_rows


def _band_keys(seed: int, n_bands: int) -> np.ndarray:
    # 2 keys (init, shuffle) per band; the first pair doubles for joint mode
    return np.random.SeedSequence(seed).generate_state(2 * n_bands + 2)


def train_band_model(
    train_ds: EnvelopeDataset,
    val_ds: EnvelopeDataset,
    band: int,
    config: neural.TrainConfig = neural.TrainConfig(),
    hidden: Sequence[int] = neural.DEFAULT_HIDDEN,
    max_train_frames: int | None = None,
    max_val_frames: int | None = None,
) -> tuple[neural.MlpModel, neural.TrainReport, neural.FeatureNorm]:
    """Train the gain network of a single band. Seed derivation matches
    `train_enhancement_system`, so bands can be trained in parallel
    processes and assembled afterwards."""
    train_rows, val_rows = _training_rows(train_ds, val_ds, config, max_train_frames, max_val_frames)
    norm = compute_feature_norm_for(train_ds, train_rows)
    keys = _band_keys(config.seed, train_ds.n_bands)
    dims = [train_ds.n_bands * train_ds.n_env, *hidden, train_ds.n_env]
    model = neural.init_model(dims, seed=int(keys[2 * band]))
    tdata = _materialize(train_ds, train_rows, norm, band=band)
    vdata = _materialize(val_ds, val_rows, norm, band=band)
    model, report = neural.train(model, tdata, vdata, replace(config, seed=int(keys[2 * band + 1])))
    return model, report, norm


def train_enhancement_system(
    train_ds: EnvelopeDataset,
    val_ds: EnvelopeDataset,
    config: neural.TrainConfig = neural.TrainConfig(),
    hidden: Sequence[int] = neural.DEFAULT_HIDDEN,
    joint: bool = False,
    out_of_band: str = "zero",
    max_train_frames: int | None = None,
    max_val_frames: int | None = None,
) -> tuple[EnhancementSystem, list[neural.TrainReport]]:
    """Train one gain network per band (or a single joint network).

    Per-band models get independent seeded substreams derived from
    config.seed, so the whole system is reproducible bit-for-bit.
    """
    n_bands = train_ds.n_bands
    feat_dim = n_bands * train_ds.n_env
    train_rows, val_rows = _training_rows(train_ds, val_ds, config, max_train_frames, max_val_frames)
    norm = compute_feature_norm_for(train_ds, train_rows)
    # feature matrices are identical for every band; materialize once
    train_feats = norm.apply(train_ds.features(train_rows))
    val_feats = norm.apply(val_ds.features(val_rows))

    keys = _band_keys(config.seed, n_bands)
    reports: list[neural.TrainReport] = []
    if joint:
        dims = [feat_dim, *hidden, feat_dim]
        model = neural.init_model(dims, seed=int(keys[0]))
        tdata = neural.ArrayDataset(train_feats, *train_ds.joint_targets(train_rows))
        vdata = neural.ArrayDataset(val_feats, *val_ds.joint_targets(val_rows))
        model, report = neural.train(model, tdata, vdata, replace(config, seed=int(keys[1])))
        reports.append(report)
        band_models, joint_model = None, model
    else:
        band_models = []
        for j in range(n_bands):
            dims = [feat_dim, *hidden, train_ds.n_env]
            model = neural.init_model(dims, seed=int(keys[2 * j]))
            tdata = neural.ArrayDataset(train_feats, *train_ds.band_targets(train_rows, j))
            vdata = neural.ArrayDataset(val_feats, *val_ds.band_targets(val_rows, j))
            model, report = neural.train(
                model, tdata, vdata, replace(config, seed=int(keys[2 * j + 1]))
            )
            band_models.append(model)
            reports.append(report)
        joint_model = None

    system = EnhancementSystem(
        band_models=band_models,
        joint_model=joint_model,
        layout=train_ds.layout,
        stft_config=train_ds.stft_config,
        feature_norm=norm,
        objective=config.objective,
        n_env=train_ds.n_env,
        out_of_band=out_of_band,
    )
    return system, reports


# ---------------------------------------------------------------------------
# evaluation tables


@dataclass(frozen=True)
class EvalRow:
    noise_type: str
    snr_db: float
    elc_unprocessed: float
    elc_enhanced: float
    stoi_unprocessed: float
    stoi_enhanced: float


def evaluate_system(
    system,
    clean_list: Sequence[TimeSignal],
    noise: TimeSignal,
    snrs_db: Sequence[float],
    seed: int = 0,
    noise_type: str = "noise",
    enhancer=None,
) -> list[EvalRow]:
    """Mix each clean utterance at each SNR, enhance, score; one row of
    means per SNR. `enhancer` overrides the default enhance(system, .)
    (e.g. for the classical baseline)."""
    enhance_fn = enhancer or (lambda sig: enhance(system, sig))
    layout = getattr(system, "layout", None) or build_band_layout()
    config = getattr(system, "stft_config", StftConfig())
    rows = []
    for snr in snrs_db:
        # SeedSequence entropy must be non-negative; fold the signed SNR key
        snr_key = int(round(snr * 1000)) % (1 << 32)
        children = np.random.SeedSequence([seed, snr_key]).spawn(len(clean_list))
        elc_up, elc_enh = [], []
        for child, clean in zip(children, clean_list):
            noisy, _ = mix_at_snr(clean, noise, snr, np.random.default_rng(child))
            enhanced = enhance_fn(noisy)
            elc_up.append(score_elc(clean, noisy, layout, config))
            elc_enh.append(score_elc(clean, enhanced, layout, config))
        up, enh = float(np.mean(elc_up)), float(np.mean(elc_enh))
        # score_approx_stoi is score_elc by construction: score once, fill both
        rows.append(EvalRow(noise_type, float(snr), up, enh, up, enh))
    return rows


_TABLE_COLUMNS = ("noise", "snr_db", "elc_up", "elc_enh", "stoi_up", "stoi_enh")


def report_tables(rows: Sequence[EvalRow], fmt: str = "text") -> str:
    """Render evaluation rows sorted by (noise type, SNR), 2 decimals."""
    if fmt not in ("text", "csv"):
        raise ValueError(f"unknown format {fmt!r}")
    ordered = sorted(rows, key=lambda r: (r.noise_type, r.snr_db))
    cells = [
        (
            r.noise_type,
            f"{r.snr_db:g}",
            f"{r.elc_unprocessed:.2f}",
            f"{r.elc_enhanced:.2f}",
            f"{r.stoi_unprocessed:.2f}",
            f"{r.stoi_enhanced:.2f}",
        )
        for r in ordered
    ]
    if fmt == "csv":
        lines = [",".join(_TABLE_COLUMNS)]
        lines += [",".join(row) for row in cells]
        return "\n".join(lines) + "\n"
    widths = [
        max(len(col), *(len(row[i]) for row in cells)) if cells else len(col)
        for i, col in enumerate(_TABLE_COLUMNS)
    ]
    lines = ["  ".join(col.ljust(widths[i]) for i, col in enumerate(_TABLE_COLUMNS))]
    for row in cells:
        lines.append("  ".join(val.rjust(widths[i]) for i, val in enumerate(row)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# system save / load


def _save_norm(norm: neural.FeatureNorm, path):
    out = bytearray()
    out += NORM_MAGIC
    out += struct.pack("<II", NORM_VERSION, len(norm.mean))
    out += np.ascontiguousarray(norm.mean, dtype="<f8").tobytes()
    out += np.ascontiguousarray(norm.std, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(bytes(out))
        fh.write(struct.pack("<I", zlib.crc32(bytes(out))))


def _load_norm(path) -> neural.FeatureNorm:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 17 or blob[:5] != NORM_MAGIC:
        raise neural.ModelFormatError(f"{path}: not a feature-norm file")
    payload, crc = blob[:-4], struct.unpack("<I", blob[-4:])[0]
    if crc != zlib.crc32(payload):
        raise neural.ModelFormatError(f"{path}: CRC mismatch")
    version, dim = struct.unpack("<II", payload[5:13])
    if version != NORM_VERSION:
        raise neural.ModelFormatError(f"{path}: unsupported version {version}")
    vals = np.frombuffer(payload[13:], dtype="<f8")
    if vals.size != 2 * dim:
        raise neural.ModelFormatError(f"{path}: truncated feature-norm body")
    mean, std = vals[:dim].copy(), vals[dim:].copy()
    if not np.all(np.isfinite(mean)):
        raise neural.ModelFormatError(f"{path}: non-finite feature mean")
    if not np.all(np.isfinite(std) & (std > 0)):
        raise neural.ModelFormatError(f"{path}: feature std must be finite and positive")
    return neural.FeatureNorm(mean, std)


def save_system(system: EnhancementSystem, dirpath) -> None:
    d = Path(dirpath)
    d.mkdir(parents=True, exist_ok=True)
    cfg = system.stft_config
    lines = [
        f"kind = {'joint' if system.is_joint else 'per-band'}",
        f"objective = {system.objective}",
        f"n_bands = {system.layout.n_bands}",
        f"n_env = {system.n_env}",
        f"fft_size = {cfg.fft_size}",
        f"hop = {cfg.hop}",
        f"sample_rate_hz = {system.layout.sample_rate_hz}",
        f"first_center_hz = {system.layout.bands[0].center_hz:g}",
        f"out_of_band = {system.out_of_band}",
    ]
    (d / "system.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    _save_norm(system.feature_norm, d / "feature_norm.bin")
    if system.is_joint:
        neural.save_model(system.joint_model, d / "joint.mdl", system.objective)
    else:
        for j, model in enumerate(system.band_models):
            neural.save_model(model, d / f"band_{j:02d}.mdl", system.objective)


def _parse_kv(path) -> dict:
    out = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}: malformed line {line!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        out[key] = val
    return out


def load_system(dirpath) -> EnhancementSystem:
    d = Path(dirpath)
    meta = _parse_kv(d / "system.txt")
    n_bands = int(meta["n_bands"])
    n_env = int(meta["n_env"])
    cfg = StftConfig(int(meta["fft_size"]), int(meta["fft_size"]), int(meta["hop"]))
    layout = build_band_layout(
        cfg.fft_size, int(meta["sample_rate_hz"]), n_bands, float(meta["first_center_hz"])
    )
    norm = _load_norm(d / "feature_norm.bin")
    feat_dim = n_bands * n_env
    if meta["kind"] == "joint":
        model, objective = neural.load_model(
            d / "joint.mdl", expected_input_dim=feat_dim, expected_output_dim=feat_dim
        )
        band_models, joint_model = None, model
    else:
        band_models = []
        objective = meta["objective"]
        for j in range(n_bands):
            model, objective = neural.load_model(
                d / f"band_{j:02d}.mdl", expected_input_dim=feat_dim, expected_output_dim=n_env
            )
            band_models.append(model)
        joint_model = None
    return EnhancementSystem(
        band_models=band_models,
        joint_model=joint_model,
        layout=layout,
        stft_config=cfg,
        feature_norm=norm,
        objective=meta["objective"],
        n_env=n_env,
        out_of_band=meta.get("out_of_band", "zero"),
    )
