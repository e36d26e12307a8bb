"""End-to-end enhancement, scoring and evaluation.

An EnhancementSystem holds its gain networks as one ordered list, J
per-band networks of width N or one joint network of width J*N, whose
outputs placed side by side form a window's (J, N) gain vector, with its
feature normalization. The analysis, the band layout and N are the fixed
ones of `stft` and `octave`, everywhere. Every system, this one or the
classical baseline, supplies `gains`: (M, N_BINS) noisy STFT magnitudes
in, (M, N_BINS) STFT gains out. Here those are the gain vectors of every
window as one (V, J, N) array, their overlapping estimates averaged per
frame and spread uniformly over each band's bins; bins outside every band
get gain 0.
`enhance` analyzes the noisy audio once into its complex STFT, scales
that by the system's gains of its magnitudes, so the noisy phase is kept,
and resynthesizes; output duration equals input duration.

Scoring averages the envelope correlation over all (band, window) pairs;
the intelligibility score exposed here is the clip-free variant of that
same average, so `score_approx_stoi` and `score_elc` agree exactly. A
score is computed from the two signals' band envelopes, all (band,
window) pairs in one batch. Evaluation computes each clean utterance's
envelopes once and analyzes each mixture once, for both its score and
its enhancement; `seeded_mixtures` yields the same mixtures one at a time.

Inference runs each network on each block of feature rows as its own
task, training fits each band's network as its own task, and evaluation
mixes, enhances and scores each (SNR, utterance) item as its own task, on
the cores BLAS leaves idle (see `fanout`), as do the set-up's pseudo-speech
syllables, dataset mixtures and model-directory network writes; the
forwards of an evaluation item run serially in its thread. Outputs are a
function of the seed, the inputs, the BLAS build and the BLAS thread
count, never of the number of worker threads.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import cost, mixing, modeldir, neural
from .fanout import fan_out
from .mixing import EnvelopeDataset, active_speech_level, log_windows
from .octave import (
    ENVELOPE_LEN,
    LAYOUT,
    BandLayout,
    average_overlapping_gains,
    band_gains_to_stft_gains,
    envelopes,
)
from .signal_io import WORKING_RATE_HZ, TimeSignal
from .stft import FFT_SIZE, StftConfig, analyze, apply_gain, magnitude, pad_to_frames, synthesize

_FEATURE_CHUNK = 4096
_MIN_TASKS = 4  # a constant, not the worker count: bits must not depend on the latter


@dataclass
class EnhancementSystem:
    band_models: list[neural.MlpModel] | None  # one per band, or None if joint
    joint_model: neural.MlpModel | None
    layout: BandLayout  # always octave.LAYOUT
    stft_config: StftConfig  # always StftConfig()
    feature_norm: neural.FeatureNorm
    objective: str
    n_env = ENVELOPE_LEN

    def __post_init__(self):
        if (self.band_models is None) == (self.joint_model is None):
            raise ValueError("exactly one of band_models / joint_model must be set")
        if self.layout != LAYOUT:
            raise ValueError(f"the layout is not the band layout of a {FFT_SIZE}-point FFT")
        if self.stft_config != StftConfig():
            raise ValueError(f"the STFT configuration is not the fixed {FFT_SIZE}-point one")
        spec = modeldir.KINDS[self.kind]
        if len(self.models) != len(spec.files) or len(self.feature_norm.mean) != spec.n_in or any(
            (m.input_dim, m.output_dim) != (spec.n_in, spec.n_out) for m in self.models
        ):
            raise ValueError(f"need {len(spec.files)} model(s) of {spec.n_in} inputs and "
                             f"{spec.n_out} outputs, and a {spec.n_in}-dim feature norm")

    @property
    def is_joint(self) -> bool:
        return self.joint_model is not None

    @property
    def kind(self) -> str:
        """Its model-directory kind (see `modeldir.KINDS`)."""
        return "joint" if self.is_joint else "per-band"

    @property
    def models(self) -> list[neural.MlpModel]:
        """The networks in band order; outputs side by side give the gains."""
        return [self.joint_model] if self.is_joint else self.band_models

    def gains(self, mag: np.ndarray) -> np.ndarray:
        """(M, N_BINS) STFT gains of (M, N_BINS) noisy magnitudes."""
        vectors = _gain_vectors(self, mag)  # (V, J, N); window v starts at frame v
        band_gains = average_overlapping_gains(vectors.transpose(0, 2, 1), len(mag), 0).T
        return band_gains_to_stft_gains(band_gains)


def _require_working_rate(sig: TimeSignal, what: str):
    if sig.sample_rate_hz != WORKING_RATE_HZ:
        raise ValueError(f"{what} must be at the {WORKING_RATE_HZ} Hz working rate")


def _padded_noisy(noisy: TimeSignal) -> np.ndarray:
    _require_working_rate(noisy, "noisy input")
    return pad_to_frames(noisy.samples)


def _gain_vectors(system: EnhancementSystem, mag: np.ndarray) -> np.ndarray:
    feats = system.feature_norm.apply(log_windows(envelopes(mag), slice(None), ENVELOPE_LEN, 1))
    return _forward_side_by_side(system.models, feats).reshape(len(feats), -1, ENVELOPE_LEN)


def _row_block(rows: int, n_models: int) -> int:
    """Rows per inference task: the rows in equal blocks, as few as give
    `_MIN_TASKS` (row block, network) tasks in all, at most `_FEATURE_CHUNK`
    rows each. 15 per-band networks take their rows in one block; one joint
    or classical network in 4."""
    blocks = -(-_MIN_TASKS // n_models)
    return max(1, min(_FEATURE_CHUNK, -(-rows // blocks)))


def _forward_side_by_side(models, feats: np.ndarray) -> np.ndarray:
    """Run every model over the rows of `feats`, one `_row_block` at a time,
    and place their outputs side by side: (rows, sum of output dims).

    The inference of every gain network: each (row block, model) task
    writes its own block of the output, through `fan_out`. Every
    `neural.forward` call has the arguments of the serial loop, so the
    output has its bits at any worker count."""
    edges = np.cumsum([0, *(m.output_dim for m in models)])
    out = np.empty((len(feats), edges[-1]))
    block = _row_block(len(feats), len(models))
    tasks = [(slice(lo, lo + block), model, a, b)
             for lo in range(0, len(feats), block)
             for model, a, b in zip(models, edges, edges[1:])]

    def run(task):
        rows, model, a, b = task
        out[rows, a:b] = neural.forward(model, feats[rows])

    fan_out(run, tasks)
    return out


def _resynthesize(noisy: TimeSignal, spectrum: np.ndarray, stft_gains: np.ndarray) -> TimeSignal:
    out = synthesize(apply_gain(spectrum, stft_gains))
    return TimeSignal(out.samples[: len(noisy)], WORKING_RATE_HZ)


def enhance_with_band_gains(noisy: TimeSignal, band_gains: np.ndarray) -> TimeSignal:
    """Apply per-frame band gains to a noisy signal and resynthesize with
    the noisy phase. Used by both the networks and oracle-gain harnesses."""
    spectrum = analyze(_padded_noisy(noisy))
    return _resynthesize(noisy, spectrum, band_gains_to_stft_gains(band_gains))


def _analyze_and_enhance(system, noisy: TimeSignal) -> tuple[np.ndarray, TimeSignal]:
    """The noisy STFT magnitudes and the enhanced signal, from one analysis."""
    spectrum = analyze(_padded_noisy(noisy))
    mag = np.abs(spectrum)
    return mag, _resynthesize(noisy, spectrum, system.gains(mag))


def enhance(system, noisy: TimeSignal) -> TimeSignal:
    """Noisy waveform in, enhanced waveform of identical duration out, for
    an EnhancementSystem or a baseline.ClassicalSystem."""
    return _analyze_and_enhance(system, noisy)[1]


def oracle_band_gains(clean: TimeSignal, noisy: TimeSignal) -> np.ndarray:
    """Ideal per-frame band gains min(1, X/Y); silent noisy bands get 0."""
    if len(clean) != len(noisy):
        raise ValueError("clean and noisy lengths differ")
    clean_env, noisy_env = _envelopes_of(clean), _envelopes_of(noisy)
    with np.errstate(divide="ignore", invalid="ignore"):
        gains = np.where(noisy_env > 0, np.minimum(1.0, clean_env / noisy_env), 0.0)
    return gains


def _require_scorable(clean: TimeSignal, processed: TimeSignal):
    if len(clean) != len(processed):
        raise ValueError(f"length mismatch: {len(clean)} vs {len(processed)}")
    _require_working_rate(clean, "clean")
    _require_working_rate(processed, "processed")


def _envelopes_of(sig: TimeSignal) -> np.ndarray:
    """(J, M) band envelopes of a signal padded to whole frames."""
    return envelopes(magnitude(pad_to_frames(sig.samples)))


def _score_envelopes(clean_env: np.ndarray, proc_env: np.ndarray, return_counts: bool = False):
    """Mean envelope correlation over every (band, window) pair of two (J, M)
    envelope arrays, all bands in one `elc_value_batch` call.

    Each row's value does not depend on the rows beside it, and the valid
    values are summed band by band in band order, so the score has the bits
    of scoring the bands one at a time.
    """
    n_env = ENVELOPE_LEN
    if clean_env.shape[1] < n_env:
        raise ValueError(f"too short to score: {clean_env.shape[1]} frames, need >= {n_env}")
    windows = [
        np.lib.stride_tricks.sliding_window_view(env, n_env, axis=1) for env in (clean_env, proc_env)
    ]
    n_bands, n_windows = windows[0].shape[:2]
    values, valid = cost.elc_value_batch(*(w.reshape(n_bands * n_windows, n_env) for w in windows))
    values, valid = values.reshape(n_bands, n_windows), valid.reshape(n_bands, n_windows)
    total = 0.0
    for j in range(n_bands):
        total += float(values[j][valid[j]].sum())
    used = int(np.count_nonzero(valid))
    if used == 0:
        raise ValueError("no non-degenerate envelope windows to score")
    score = total / used
    if return_counts:
        return score, used, valid.size - used
    return score


def score_elc(clean: TimeSignal, processed: TimeSignal, return_counts: bool = False):
    """Mean envelope correlation over all valid (band, window) pairs of
    ENVELOPE_LEN frames.

    Windows where either centered envelope norm is (numerically) zero are
    skipped; pass return_counts=True to get (score, n_used, n_skipped).
    """
    _require_scorable(clean, processed)
    return _score_envelopes(_envelopes_of(clean), _envelopes_of(processed), return_counts)


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
    ga, gb = [], []
    for sig in signals:
        mag = magnitude(_padded_noisy(sig))  # one analysis serves both systems
        ga.append(_gain_vectors(system_a, mag).reshape(-1))
        gb.append(_gain_vectors(system_b, mag).reshape(-1))
    try:
        return cost.elc(np.concatenate(ga), np.concatenate(gb))
    except cost.DegenerateEnvelopeError:
        raise cost.DegenerateEnvelopeError("gain sequence has zero variance") from None


# ---------------------------------------------------------------------------
# training front-end


def _select_rows(n: int, cap: int | None, rng: np.random.Generator) -> np.ndarray:
    if cap is None or n <= cap:
        return np.arange(n)
    return np.sort(rng.choice(n, size=cap, replace=False))


def compute_feature_norm_for(feats: np.ndarray,
                             chunk: int = _FEATURE_CHUNK) -> neural.FeatureNorm:
    """Per-dimension mean and std of the rows of `feats`, summed `chunk` rows
    at a time; the chunk size fixes the summation order. `einsum` adds each
    row's squares in row order, as `(block**2).sum(axis=0)` does, without a
    chunk-sized array of squares. A width-1 block is squared first: numpy
    sums its one contiguous axis pairwise, which `einsum` does not."""
    sums = sqsums = 0.0
    for lo in range(0, len(feats), chunk):
        block = feats[lo : lo + chunk]
        sums = sums + block.sum(axis=0)
        if block.shape[1] == 1:
            sqsums = sqsums + (block**2).sum(axis=0)
        else:
            sqsums = sqsums + np.einsum("ij,ij->j", block, block)
    mean = sums / len(feats)
    var = np.maximum(sqsums / len(feats) - mean**2, 0.0)
    return neural.FeatureNorm(mean, np.maximum(np.sqrt(var), 1e-8))


def _train(train_ds, val_ds, bands, config: neural.TrainConfig, hidden: Sequence[int],
           max_train_frames, max_val_frames, salt: int = 0x5E1EC7, chunk: int = _FEATURE_CHUNK):
    """The one training front end of every gain network: envelope or
    magnitude datasets in, (models, reports, feature norm) out, one network
    per entry of `bands` (see `_fit`).

    Train and validation rows are drawn from the stream
    SeedSequence([config.seed, salt]). Each split's features are gathered
    once; the feature norm of the training rows is summed `chunk` rows at a
    time, and both matrices are then normalized in place, with the bits of
    `FeatureNorm.apply`. Every network shares the rows, the norm and the
    normalized features, so a band's network and the norm have the same
    bits whichever other bands `bands` lists. The networks
    train as independent tasks (`fan_out`), so their bits do not depend on
    the worker count either. An empty split is refused."""
    for name, ds in (("train", train_ds), ("validation", val_ds)):
        if ds.n_frames == 0:
            raise ValueError(f"the {name} split has no rows: its utterances are too short")
    row_rng = np.random.default_rng(np.random.SeedSequence([config.seed, salt]))
    train_rows = _select_rows(train_ds.n_frames, max_train_frames, row_rng)
    val_rows = _select_rows(val_ds.n_frames, max_val_frames, row_rng)
    pairs = ((train_ds, train_rows), (val_ds, val_rows))
    sets = [(ds, rows, ds.features(rows)) for ds, rows in pairs]
    norm = compute_feature_norm_for(sets[0][2], chunk)
    for _, _, feats in sets:  # FeatureNorm.apply's two operations, in place
        feats -= norm.mean
        feats /= norm.std
    fits = fan_out(lambda band: _fit(sets, band, config, hidden), bands)
    models, reports = (list(column) for column in zip(*fits))
    return models, reports, norm


def _fit(sets, band: int | None, config: neural.TrainConfig, hidden: Sequence[int]):
    """Train the network of one envelope band, or with `band` None one
    network over every target (the joint or the classical network), with
    seed keys 2s and 2s+1 of config.seed for s = band (0 for None)."""
    s = band or 0
    keys = np.random.SeedSequence(config.seed).generate_state(2 * s + 2)
    pick = () if band is None else (slice(band, band + 1),)
    tdata, vdata = (
        neural.ArrayDataset(feats, *ds.targets(rows, *pick)) for ds, rows, feats in sets
    )
    dims = [tdata.features.shape[1], *hidden, tdata.clean[0].size]
    model = neural.init_model(dims, seed=int(keys[2 * s]))
    return neural.train(model, tdata, vdata, replace(config, seed=int(keys[2 * s + 1])))


def train_enhancement_system(
    train_ds: EnvelopeDataset,
    val_ds: EnvelopeDataset,
    config: neural.TrainConfig = neural.TrainConfig(),
    hidden: Sequence[int] = neural.DEFAULT_HIDDEN,
    joint: bool = False,
    max_train_frames: int | None = None,
    max_val_frames: int | None = None,
) -> tuple[EnhancementSystem, list[neural.TrainReport]]:
    """Train one gain network per band (or a single joint network).

    Per-band models get independent seeded substreams derived from
    config.seed, so the whole system is reproducible bit-for-bit.
    """
    bands = [None] if joint else range(train_ds.n_bands)
    models, reports, norm = _train(
        train_ds, val_ds, bands, config, hidden, max_train_frames, max_val_frames
    )
    system = EnhancementSystem(
        band_models=None if joint else models,
        joint_model=models[0] if joint else None,
        layout=LAYOUT,
        stft_config=StftConfig(),
        feature_norm=norm,
        objective=config.objective,
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


def _mixture_seeds(n: int, snr_db: float, seed: int) -> list:
    """The n children of SeedSequence([seed, SNR key]), one per utterance."""
    key = snr_db * 1000
    if not np.isfinite(key):
        raise ValueError(f"SNR {snr_db:g} dB is too large to key a mixture seed")
    # SeedSequence entropy must be non-negative; fold the signed SNR key
    snr_key = int(round(key)) % (1 << 32)
    return np.random.SeedSequence([seed, snr_key]).spawn(n)


def seeded_mixtures(clean_list, levels, noise: TimeSignal, snr_db: float, seed: int):
    """Yield each utterance, of active level `levels[i]`, mixed at snr_db with
    the noise cut of child i of `_mixture_seeds`: the mixtures that
    `evaluate_system` scores at this SNR and seed, one at a time."""
    children = _mixture_seeds(len(clean_list), snr_db, seed)
    for child, clean, level in zip(children, clean_list, levels):
        yield mixing.mix_at_level(clean, level, noise, snr_db, np.random.default_rng(child))[0]


def evaluate_system(
    system,
    clean_list: Sequence[TimeSignal],
    noise: TimeSignal,
    snrs_db: Sequence[float],
    seed: int = 0,
    noise_type: str = "noise",
) -> list[EvalRow]:
    """Mix each clean utterance at each SNR, enhance, score; one row of
    means per SNR. `system` is anything `enhance` takes; it is scored as
    `score_elc` scores. Each (SNR, utterance) item is one `fan_out` task."""
    if not clean_list:
        raise ValueError("evaluate_system: clean_list is empty, nothing to score")
    # the same at every SNR: each utterance's level and scoring reference
    levels = [active_speech_level(clean) for clean in clean_list]
    clean_envs = [_envelopes_of(clean) for clean in clean_list]
    n = len(clean_list)
    items = [(snr, i, child) for snr in snrs_db
             for i, child in enumerate(_mixture_seeds(n, snr, seed))]

    def score(item):
        snr, i, child = item
        noisy = mixing.mix_at_level(clean_list[i], levels[i], noise, snr,
                                    np.random.default_rng(child))[0]
        noisy_mag, enhanced = _analyze_and_enhance(system, noisy)
        # score_elc(clean, x); x has the clean's length and rate
        return (_score_envelopes(clean_envs[i], envelopes(noisy_mag)),
                _score_envelopes(clean_envs[i], _envelopes_of(enhanced)))

    scores = fan_out(score, items)
    rows = []
    for k, snr in enumerate(snrs_db):
        elc_up, elc_enh = zip(*scores[k * n : (k + 1) * n])
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
# system save / load (format: see `modeldir`)


def save_system(system: EnhancementSystem, dirpath) -> None:
    modeldir.save(dirpath, system.kind, system.feature_norm, system.models, system.objective)


def load_system(dirpath) -> EnhancementSystem:
    return system_of(*modeldir.read(dirpath, ("per-band", "joint")))


def system_of(fields: dict, norm: neural.FeatureNorm, models: list) -> EnhancementSystem:
    """The system of what `modeldir.read` returns for a per-band or joint directory."""
    joint = fields["kind"] == "joint"
    return EnhancementSystem(None if joint else models, models[0] if joint else None, LAYOUT,
                             StftConfig(), norm, fields["objective"])
