"""End-to-end enhancement, scoring and evaluation.

An EnhancementSystem holds its gain networks as one ordered list, J
per-band networks of width N or one joint network of width J*N, whose
outputs placed side by side form a window's (J, N) gain vector; the band
layout, STFT configuration and feature normalization come with it. Every
system, this one or the classical baseline, supplies `gains`: (M, K/2+1)
noisy STFT magnitudes in, (M, K/2+1) STFT gains out. Here those are the
gain vectors of every window as one (V, J, N) array, their overlapping
estimates averaged per frame and spread uniformly over each band's bins.
`enhance` analyzes the noisy audio once into its complex STFT, scales
that by the system's gains of its magnitudes, so the noisy phase is kept,
and resynthesizes; output duration equals input duration.

Scoring averages the envelope correlation over all (band, window) pairs;
the intelligibility score exposed here is the clip-free variant of that
same average, so `score_approx_stoi` and `score_elc` agree exactly. A
score is computed from the two signals' band envelopes, all (band,
window) pairs in one batch. Evaluation computes each clean utterance's
envelopes once and analyzes each mixture once, for both its score and
its enhancement.

Inference runs each network on each chunk of feature rows as its own
task, and training fits each band's network as its own task, on the cores
BLAS leaves idle (see `_fan_out`). Outputs are a function of the seed, the
inputs, the BLAS build and the BLAS thread count, never of the number of
worker threads.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import cost, mixing, modeldir, neural
from .mixing import EnvelopeDataset, active_speech_level, log_windows
from .octave import (
    ENVELOPE_LEN,
    BandLayout,
    average_overlapping_gains,
    band_gains_to_stft_gains,
    build_band_layout,
    envelopes,
)
from .signal_io import WORKING_RATE_HZ, TimeSignal
from .stft import StftConfig, analyze, apply_gain, magnitude, pad_to_frames, synthesize

_FEATURE_CHUNK = 4096


def _worker_count(environ, cores: int) -> int:
    """Threads for `_fan_out`: the usable cores divided by the BLAS thread
    count, at least 1. The BLAS count is that of the first variable
    OpenBLAS reads that holds a positive integer; with none set, OpenBLAS
    runs a thread per core and leaves no core idle."""
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            blas = int(environ.get(name, ""))
        except ValueError:
            continue
        if blas > 0:
            return max(1, cores // blas)
    return 1


_CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_WORKERS = _worker_count(os.environ, _CORES)
_POOL: ThreadPoolExecutor | None = None
_POOL_SIZE = 0
_POOL_LOCK = threading.Lock()


def _pool(workers: int) -> ThreadPoolExecutor:
    """The process's thread pool, made on first use and made anew when a
    call wants more threads than it has."""
    global _POOL, _POOL_SIZE
    with _POOL_LOCK:
        if workers > _POOL_SIZE:
            if _POOL is not None:
                _POOL.shutdown(wait=False)  # its threads end once idle
            _POOL, _POOL_SIZE = ThreadPoolExecutor(workers, thread_name_prefix="envgain"), workers
        return _POOL


def _forget_pool():
    """A forked child has the pool object but none of its threads."""
    global _POOL, _POOL_SIZE, _POOL_LOCK
    _POOL, _POOL_SIZE, _POOL_LOCK = None, 0, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _fan_out(run, tasks: Sequence) -> list:
    """`[run(task) for task in tasks]`, the tasks spread over up to
    `_WORKERS` threads of the process's pool; the one fan-out of inference
    and training. A single task, or a single worker, runs in the caller's
    thread.

    Tasks start in list order. Once a task has raised, no further task
    starts; the tasks in flight run to their end, and the error of the
    earliest failed task is raised, which is the error the serial loop
    raises. An interrupt of the caller also starts no further task and
    waits for those in flight."""
    workers = min(len(tasks), _WORKERS)
    if workers <= 1:
        return [run(task) for task in tasks]
    lock, stop = threading.Lock(), threading.Event()
    order = iter(range(len(tasks)))
    results, errors = [None] * len(tasks), {}

    def claim():
        with lock:
            return None if stop.is_set() else next(order, None)

    def drain():
        while (i := claim()) is not None:
            try:
                results[i] = run(tasks[i])
            except BaseException as exc:  # raised again in the caller
                errors[i] = exc
                stop.set()

    pool = _pool(workers)
    futures = [pool.submit(drain) for _ in range(workers)]
    try:
        wait(futures)
    except BaseException:
        stop.set()
        wait(futures)
        raise
    if errors:
        raise errors[min(errors)]
    return results


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
        dim = self.layout.n_bands * self.n_env
        count = 1 if self.is_joint else self.layout.n_bands
        if len(self.models) != count or len(self.feature_norm.mean) != dim or any(
            (m.input_dim, m.output_dim) != (dim, dim // count) for m in self.models
        ):
            raise ValueError(f"need {count} model(s) of {dim} inputs and {dim // count} "
                             f"outputs, and a {dim}-dim feature norm")

    @property
    def is_joint(self) -> bool:
        return self.joint_model is not None

    @property
    def models(self) -> list[neural.MlpModel]:
        """The networks in band order; outputs side by side give the gains."""
        return [self.joint_model] if self.is_joint else self.band_models

    def gains(self, mag: np.ndarray) -> np.ndarray:
        """(M, K/2+1) STFT gains of (M, K/2+1) noisy magnitudes."""
        vectors = _gain_vectors(self, mag)  # (V, J, N); window v starts at frame v
        band_gains = average_overlapping_gains(vectors.transpose(0, 2, 1), len(mag), 0).T
        return band_gains_to_stft_gains(band_gains, self.layout, self.out_of_band)


def _require_working_rate(sig: TimeSignal, what: str):
    if sig.sample_rate_hz != WORKING_RATE_HZ:
        raise ValueError(f"{what} must be at the {WORKING_RATE_HZ} Hz working rate")


def _padded_noisy(noisy: TimeSignal, config: StftConfig) -> np.ndarray:
    _require_working_rate(noisy, "noisy input")
    return pad_to_frames(noisy.samples, config)


def _gain_vectors(system: EnhancementSystem, mag: np.ndarray) -> np.ndarray:
    env, n = envelopes(mag, system.layout), system.n_env
    feats = system.feature_norm.apply(log_windows(env, slice(None), n, 1))
    return _forward_side_by_side(system.models, feats, _FEATURE_CHUNK).reshape(len(feats), -1, n)


def _forward_side_by_side(models, feats: np.ndarray, chunk: int) -> np.ndarray:
    """Run every model over the rows of `feats`, `chunk` rows at a time, and
    place their outputs side by side: (rows, sum of output dims).

    The inference of every gain network: each (row chunk, model) task
    writes its own block of the output, through `_fan_out`. Every
    `neural.forward` call has the arguments of the serial loop, so the
    output has its bits at any worker count."""
    edges = np.cumsum([0, *(m.output_dim for m in models)])
    out = np.empty((len(feats), edges[-1]))
    tasks = [(slice(lo, lo + chunk), model, a, b)
             for lo in range(0, len(feats), chunk)
             for model, a, b in zip(models, edges, edges[1:])]

    def run(task):
        rows, model, a, b = task
        out[rows, a:b] = neural.forward(model, feats[rows])

    _fan_out(run, tasks)
    return out


def _resynthesize(noisy: TimeSignal, spectrum: np.ndarray, stft_gains: np.ndarray,
                  config: StftConfig) -> TimeSignal:
    out = synthesize(apply_gain(spectrum, stft_gains), config)
    return TimeSignal(out.samples[: len(noisy)], WORKING_RATE_HZ)


def predict_gain_vectors(system: EnhancementSystem, noisy: TimeSignal) -> np.ndarray:
    """Raw network gain vectors for every valid frame: (V, J, N), where the
    v-th row belongs to the envelope vector ending at frame n_env-1+v."""
    config = system.stft_config
    return _gain_vectors(system, magnitude(_padded_noisy(noisy, config), config))


def enhance_with_band_gains(
    noisy: TimeSignal,
    band_gains: np.ndarray,
    layout: BandLayout,
    config: StftConfig = StftConfig(),
    out_of_band: str = "zero",
) -> TimeSignal:
    """Apply per-frame band gains to a noisy signal and resynthesize with
    the noisy phase. Used by both the networks and oracle-gain harnesses."""
    spectrum = analyze(_padded_noisy(noisy, config), config)
    stft_gains = band_gains_to_stft_gains(band_gains, layout, out_of_band)
    return _resynthesize(noisy, spectrum, stft_gains, config)


def _analyze_and_enhance(system, noisy: TimeSignal) -> tuple[np.ndarray, TimeSignal]:
    """The noisy STFT magnitudes and the enhanced signal, from one analysis."""
    config = system.stft_config
    spectrum = analyze(_padded_noisy(noisy, config), config)
    mag = np.abs(spectrum)
    return mag, _resynthesize(noisy, spectrum, system.gains(mag), config)


def enhance(system, noisy: TimeSignal) -> TimeSignal:
    """Noisy waveform in, enhanced waveform of identical duration out, for
    an EnhancementSystem or a baseline.ClassicalSystem."""
    return _analyze_and_enhance(system, noisy)[1]


def oracle_band_gains(
    clean: TimeSignal,
    noisy: TimeSignal,
    layout: BandLayout,
    config: StftConfig = StftConfig(),
) -> np.ndarray:
    """Ideal per-frame band gains min(1, X/Y); silent noisy bands get 0."""
    if len(clean) != len(noisy):
        raise ValueError("clean and noisy lengths differ")
    clean_env = _envelopes_of(clean, layout, config)
    noisy_env = _envelopes_of(noisy, layout, config)
    with np.errstate(divide="ignore", invalid="ignore"):
        gains = np.where(noisy_env > 0, np.minimum(1.0, clean_env / noisy_env), 0.0)
    return gains


def _require_scorable(clean: TimeSignal, processed: TimeSignal):
    if len(clean) != len(processed):
        raise ValueError(f"length mismatch: {len(clean)} vs {len(processed)}")
    _require_working_rate(clean, "clean")
    _require_working_rate(processed, "processed")


def _envelopes_of(sig: TimeSignal, layout: BandLayout, config: StftConfig) -> np.ndarray:
    """(J, M) band envelopes of a signal padded to whole frames."""
    return envelopes(magnitude(pad_to_frames(sig.samples, config), config), layout)


def _score_envelopes(clean_env: np.ndarray, proc_env: np.ndarray, n_env: int,
                     return_counts: bool = False):
    """Mean envelope correlation over every (band, window) pair of two (J, M)
    envelope arrays, all bands in one `elc_value_batch` call.

    Each row's value does not depend on the rows beside it, and the valid
    values are summed band by band in band order, so the score has the bits
    of scoring the bands one at a time.
    """
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
    _require_scorable(clean, processed)
    if layout is None:
        layout = build_band_layout(config.fft_size, WORKING_RATE_HZ)
    clean_env = _envelopes_of(clean, layout, config)
    proc_env = _envelopes_of(processed, layout, config)
    return _score_envelopes(clean_env, proc_env, n_env, return_counts)


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
    shapes = [(s.stft_config, s.n_env, s.layout) for s in (system_a, system_b)]
    if shapes[0] != shapes[1]:
        raise ValueError("systems have different layout or STFT configuration")
    ga, gb = [], []
    for sig in signals:
        # the configs match, so one analysis serves both systems
        mag = magnitude(_padded_noisy(sig, system_a.stft_config), system_a.stft_config)
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
    normalized features, so training band 0..14 in one process or in 15
    processes gives identical models and an identical norm. The networks
    train as independent tasks (`_fan_out`), so their bits do not depend on
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
    fits = _fan_out(lambda band: _fit(sets, band, config, hidden), bands)
    # Memory a pool thread frees stays in that thread's malloc arena, where
    # the caller cannot reuse it. So the caller copies each model it keeps,
    # and the pool's arenas hold no more than the fits in flight.
    models, reports = [], []
    while fits:
        model, report = fits.pop(0)
        models.append(model.copy())
        reports.append(report)
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
    (model,), (report,), norm = _train(
        train_ds, val_ds, [band], config, hidden, max_train_frames, max_val_frames
    )
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
    bands = [None] if joint else range(train_ds.n_bands)
    models, reports, norm = _train(
        train_ds, val_ds, bands, config, hidden, max_train_frames, max_val_frames
    )
    system = EnhancementSystem(
        band_models=None if joint else models,
        joint_model=models[0] if joint else None,
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


def _seeded_mixtures(clean_list, levels, noise: TimeSignal, snr_db: float, seed: int):
    """Yield each utterance, of active level `levels[i]`, mixed at snr_db with
    the noise cut of child i of SeedSequence([seed, SNR key])."""
    key = snr_db * 1000
    if not np.isfinite(key):
        raise ValueError(f"SNR {snr_db:g} dB is too large to key a mixture seed")
    # SeedSequence entropy must be non-negative; fold the signed SNR key
    snr_key = int(round(key)) % (1 << 32)
    children = np.random.SeedSequence([seed, snr_key]).spawn(len(clean_list))
    for child, clean, level in zip(children, clean_list, levels):
        yield mixing._mix_at_level(clean, level, noise, snr_db, np.random.default_rng(child))[0]


def evaluate_system(
    system,
    clean_list: Sequence[TimeSignal],
    noise: TimeSignal,
    snrs_db: Sequence[float],
    seed: int = 0,
    noise_type: str = "noise",
) -> list[EvalRow]:
    """Mix each clean utterance at each SNR, enhance, score; one row of
    means per SNR. `system` is anything `enhance` takes; one without a band
    layout is scored with the layout `score_elc` uses for its STFT config."""
    config = system.stft_config
    layout = getattr(system, "layout", None) or build_band_layout(config.fft_size, WORKING_RATE_HZ)
    # the same at every SNR: each utterance's level and scoring reference
    levels = [active_speech_level(clean) for clean in clean_list]
    clean_envs = [_envelopes_of(clean, layout, config) for clean in clean_list]
    rows = []
    for snr in snrs_db:
        elc_up, elc_enh = [], []
        mixtures = _seeded_mixtures(clean_list, levels, noise, snr, seed)
        for clean, clean_env, noisy in zip(clean_list, clean_envs, mixtures):
            noisy_mag, enhanced = _analyze_and_enhance(system, noisy)
            # score_elc(clean, x, layout, config); x has the clean's length and rate
            noisy_env = envelopes(noisy_mag, layout)
            enhanced_env = _envelopes_of(enhanced, layout, config)
            elc_up.append(_score_envelopes(clean_env, noisy_env, ENVELOPE_LEN))
            elc_enh.append(_score_envelopes(clean_env, enhanced_env, ENVELOPE_LEN))
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
    kind = "joint" if system.is_joint else "per-band"
    fields = modeldir.envelope_fields(kind, system.objective, system, system.out_of_band)
    models = dict(zip(modeldir.model_files(fields), system.models))
    modeldir.save(dirpath, fields, system.feature_norm, models, system.objective)


def load_system(dirpath) -> EnhancementSystem:
    fields, cfg, layout, norm, models = modeldir.read(dirpath, modeldir.ENVELOPE_KINDS)
    joint = fields["kind"] == "joint"
    return EnhancementSystem(
        None if joint else models, models[0] if joint else None, layout, cfg, norm,
        fields["objective"], fields["n_env"], fields["out_of_band"],
    )
