"""Noisy mixtures and the one dataset front end of both gain-network families.

SNR is defined against the *active* speech level (speech-pause-free power,
estimated in the style of ITU-T P.56 method B) while the noise side uses
plain overall RMS. Mixtures therefore satisfy

    active_level(speech) - overall_level(scaled_noise) == snr_db

to within floating-point rounding.

The front end, which `baseline` shares: `mixture_magnitudes` is the mixing
and analysis loop of both dataset builders, `frame_index` their (utterance,
frame) rows, `joined` and `windows` the window gather of their features
and targets, and `log_windows` the network input, read alike by training
features and by each system's `gains`.

A synthetic "pseudo-speech" generator (amplitude-modulated harmonic
syllables with pauses) stands in for licensed corpora so the whole
pipeline runs at desk scale; real recordings plug in through the same
file-list manifests.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import framed
from .fanout import fan_out
from .octave import ENVELOPE_LEN, FIRST_CENTER_HZ, N_BANDS, check_header, envelopes
from .signal_io import WORKING_RATE_HZ, TimeSignal, to_working_rate
from .stft import FFT_SIZE, HOP, magnitude

# Active-level estimator parameters (P.56 method-B style).
LEVEL_SMOOTH_TC_S = 0.030
LEVEL_HANGOVER_S = 0.2
LEVEL_MARGIN_DB = 15.9
_LADDER_MAX = 80

SSN_FIR_TAPS = 512
SSN_MIN_REFERENCE_S = 30.0
# Welch segments transformed per rFFT call: bounds the transient to a few MB
# whatever the reference length; no output depends on it
_WELCH_BLOCK = 256

SPLITS = ("train", "validation", "test")
DEFAULT_SNR_RANGE_DB = (-5.0, 10.0)
# the classical baseline's window: this many frames of noisy magnitudes in,
# gains for the last PREDICT_FRAMES of them out
CONTEXT_FRAMES = 30
PREDICT_FRAMES = 5


@dataclass(frozen=True)
class MixSpec:
    """Resolved mixing record for one utterance."""

    snr_db: float
    noise_source: str
    split: str
    seed: int


def active_speech_level(sig: TimeSignal) -> float:
    """Active speech level in dB relative to unit amplitude.

    Envelope from two cascaded 30 ms exponential smoothers of |x|; a ladder
    of thresholds at successive halvings of the envelope peak, each with a
    0.2 s hangover, yields (activity count, level) pairs; the active level
    is interpolated where level-minus-threshold crosses the 15.9 dB margin.
    The ladder is relative to the envelope peak, so scaling the input by a
    shifts the result by exactly 20*log10(a).

    A sample is active at threshold t when the envelope reached t within
    the hangover, i.e. when the maximum of the envelope over the trailing
    hangover window (the sample itself and the `hang` before it) is >= t.
    That trailing maximum, a `maximum_filter1d` of width `hang + 1` moved
    back by `hang // 2` with the first sample held before the start, is
    computed once, and each rung only counts the samples where it reaches
    the rung's threshold.
    """
    from scipy import ndimage, signal

    x = sig.samples
    sq = float(np.sum(x * x))
    if not np.isfinite(sq):
        raise ValueError("active level undefined for a signal with non-finite power")
    if sq <= 0.0:
        raise ValueError("active level undefined for an all-silent signal")
    fs = sig.sample_rate_hz
    g = np.exp(-1.0 / (fs * LEVEL_SMOOTH_TC_S))
    p = signal.lfilter([1 - g], [1, -g], np.abs(x))
    env = signal.lfilter([1 - g], [1, -g], p)
    env_peak = float(env.max())
    if env_peak <= 0.0:
        raise ValueError("active level undefined for an all-silent signal")

    hang = int(round(LEVEL_HANGOVER_S * fs))
    held = ndimage.maximum_filter1d(env, hang + 1, mode="nearest", origin=hang // 2)
    prev = None  # (margin_gap_db, level_db)
    for j in range(1, _LADDER_MAX):
        thresh = env_peak * 2.0 ** (-j)
        count = int(np.count_nonzero(held >= thresh))
        if count == 0:
            continue
        level_db = 10.0 * np.log10(sq / count)
        gap_db = level_db - 20.0 * np.log10(thresh)
        if gap_db >= LEVEL_MARGIN_DB:
            if prev is None:
                return level_db
            prev_gap, prev_level = prev
            t = (LEVEL_MARGIN_DB - prev_gap) / (gap_db - prev_gap)
            return prev_level + t * (level_db - prev_level)
        prev = (gap_db, level_db)
    # pathological dynamic range; fall back to the last rung
    return prev[1]


def overall_level(sig: TimeSignal) -> float:
    """Plain RMS level in dB relative to unit amplitude."""
    rms = np.sqrt(np.mean(sig.samples**2))
    if rms <= 0.0:
        raise ValueError("overall level undefined for an all-silent signal")
    return float(20.0 * np.log10(rms))


def mix_at_snr(speech: TimeSignal, noise: TimeSignal, snr_db: float, rng=0):
    """Scale a random contiguous noise cut so the mixture hits snr_db.

    Returns (mixture, scaled_noise). `rng` seeds the segment choice.
    """
    return mix_at_level(speech, active_speech_level(speech), noise, snr_db, rng)


def mix_at_level(speech: TimeSignal, speech_level: float, noise: TimeSignal, snr_db: float, rng):
    """`mix_at_snr` for a speech signal whose active level is already known."""
    if noise.sample_rate_hz != speech.sample_rate_hz:
        raise ValueError("speech and noise sample rates differ")
    if len(noise) < len(speech):
        raise ValueError(f"noise ({len(noise)}) shorter than speech ({len(speech)})")
    rng = np.random.default_rng(rng)  # a Generator passes through as it is
    start = int(rng.integers(0, len(noise) - len(speech) + 1))
    cut = noise.samples[start : start + len(speech)]
    cut_rms = np.sqrt(np.mean(cut**2))
    if cut_rms <= 0.0:
        raise ValueError("silent noise segment")
    target_noise_level = speech_level - snr_db
    with np.errstate(over="ignore"):  # an overflow is refused just below
        gain = 10.0 ** ((target_noise_level - 20.0 * np.log10(cut_rms)) / 20.0)
    if not np.isfinite(gain):
        raise ValueError(f"noise gain for {snr_db:g} dB SNR is not finite")
    scaled = cut * gain
    return (
        TimeSignal(speech.samples + scaled, speech.sample_rate_hz),
        TimeSignal(scaled, speech.sample_rate_hz),
    )


def _welch_psd(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`scipy.signal.welch(x, WORKING_RATE_HZ, nperseg=SSN_FIR_TAPS)`, bit for bit.

    The same arithmetic in the same order: each half-overlapping segment
    loses its mean, is multiplied by the periodic Hann window scaled to unit
    power density (scipy's factor, with Python's sequential `sum`) and goes
    through `rfft`; the one-sided power `re^2 + im^2` is doubled off DC and
    Nyquist and averaged over segments from one C-contiguous (bins, segments)
    matrix. Segments are a strided view, transformed `_WELCH_BLOCK` at a
    time, so no per-segment Python step and no complex spectrogram of the
    whole signal is held. `len(x)` must be at least `SSN_FIR_TAPS`.
    """
    import scipy.fft
    from scipy import signal

    n_fft = SSN_FIR_TAPS
    hop = n_fft // 2
    win = signal.get_window("hann", n_fft)
    win = win * (1 / np.sqrt(sum(win.real**2 + win.imag**2) / (1 / WORKING_RATE_HZ)))
    segments = np.lib.stride_tricks.sliding_window_view(x, n_fft)[::hop]
    n_seg = len(segments)  # (len(x) - hop) // hop, as scipy counts them
    power = np.empty((n_fft // 2 + 1, n_seg))
    for start in range(0, n_seg, _WELCH_BLOCK):
        block = segments[start : start + _WELCH_BLOCK]
        spec = scipy.fft.rfft((block - block.mean(axis=-1, keepdims=True)) * win, axis=-1)
        power[:, start : start + len(block)] = (spec.real**2 + spec.imag**2).T
    power[1:-1] *= 2
    return scipy.fft.rfftfreq(n_fft, 1 / WORKING_RATE_HZ), power.mean(axis=-1)


def synth_ssn(reference_speech: Sequence[TimeSignal], duration_s: float, seed: int) -> TimeSignal:
    """Speech-shaped noise: white Gaussian noise through a 512-tap FIR
    fitted to the Welch long-term spectrum of the reference material
    (`_welch_psd`: scipy's Welch estimate, 512-point Hann segments at 50%
    overlap, with the same bits). Output is normalized to unit RMS."""
    from scipy import signal

    refs = [to_working_rate(r) for r in reference_speech]
    total_s = sum(r.duration_s for r in refs)
    if total_s < SSN_MIN_REFERENCE_S:
        raise ValueError(
            f"need >= {SSN_MIN_REFERENCE_S:.0f} s of reference speech, got {total_s:.1f} s"
        )
    ref = np.concatenate([r.samples for r in refs])
    freqs, psd = _welch_psd(ref)
    amp = np.sqrt(psd)
    amp /= amp.max()
    gain = amp.copy()
    gain[-1] = 0.0  # even tap count forces a Nyquist null; far above the bands
    taps = signal.firwin2(SSN_FIR_TAPS, freqs / (WORKING_RATE_HZ / 2), gain)

    n = int(round(duration_s * WORKING_RATE_HZ))
    rng = np.random.default_rng(seed)
    white = rng.standard_normal(n + SSN_FIR_TAPS)
    shaped = signal.lfilter(taps, [1.0], white)[SSN_FIR_TAPS:]
    shaped /= np.sqrt(np.mean(shaped**2))
    return TimeSignal(shaped, WORKING_RATE_HZ)


def synth_babble(
    reference_speech: Sequence[TimeSignal],
    num_speakers: int = 6,
    duration_s: float = 60.0,
    seed: int = 0,
) -> TimeSignal:
    """Multi-talker babble: num_speakers concatenated, level-equalized
    utterance streams summed and normalized to unit RMS."""
    if len(reference_speech) < num_speakers:
        raise ValueError(
            f"need >= {num_speakers} distinct reference utterances, got {len(reference_speech)}"
        )
    rng = np.random.default_rng(seed)
    refs = [to_working_rate(r) for r in reference_speech]
    order = rng.permutation(len(refs))
    streams = [[] for _ in range(num_speakers)]
    for i, utt_idx in enumerate(order):
        streams[i % num_speakers].append(utt_idx)

    n = int(round(duration_s * WORKING_RATE_HZ))
    total = np.zeros(n)
    for speaker_utts in streams:
        pieces = []
        length = 0
        k = 0
        while length < n:
            utt = refs[speaker_utts[k % len(speaker_utts)]].samples
            rms = np.sqrt(np.mean(utt**2))
            if rms <= 0.0:
                raise ValueError("silent reference utterance")
            pieces.append(utt / rms)
            length += len(utt)
            k += 1
        total += np.concatenate(pieces)[:n]
    total /= np.sqrt(np.mean(total**2))
    return TimeSignal(total, WORKING_RATE_HZ)


def split_noise(noise: TimeSignal, train_s: float, val_s: float, test_s: float):
    """Three contiguous, disjoint segments in order (train, val, test)."""
    fs = noise.sample_rate_hz
    lens = [int(round(s * fs)) for s in (train_s, val_s, test_s)]
    if min(lens) < 0 or sum(lens) > len(noise):
        raise ValueError(f"cannot cut segments of {lens} samples from {len(noise)} noise samples")
    out = []
    pos = 0
    for ln in lens:
        out.append(TimeSignal(noise.samples[pos : pos + ln], fs))
        pos += ln
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _hiss_filter(fs) -> tuple[np.ndarray, np.ndarray]:
    """Band-pass (b, a) of pseudo speech's 2-4.5 kHz hiss, designed once per rate."""
    from scipy import signal

    b, a = signal.butter(4, [2000 / (fs / 2), 4500 / (fs / 2)], btype="band")
    b.flags.writeable = a.flags.writeable = False
    return b, a


def pseudo_speech(duration_s: float, seed: int, fs: int = WORKING_RATE_HZ) -> TimeSignal:
    """Deterministic speech-like test material.

    Harmonic syllables with drifting pitch, a touch of band-passed hiss,
    raised-cosine amplitude modulation at syllabic rate and random pauses;
    normalized to 0.1 RMS. Harmonics and hiss reach 4.5 kHz, so `fs` is an
    integer above 9,000 Hz. One serial pass makes every draw of the stream
    in order: per syllable its pause, length, pitch contour, H harmonic
    phases, hiss noise and envelope scale. Each syllable is then a `fan_out`
    task that writes its own slice of the output: its harmonics as one
    (H, dur) block, one `cos` call, summed in harmonic order, plus its
    filtered hiss, times its envelope. The bits do not depend on the worker
    count.
    """
    if not isinstance(fs, (int, np.integer)) or fs <= 9000:
        raise ValueError(f"fs must be an integer above 9000 Hz, got {fs!r}")
    if not (np.isfinite(duration_s) and round(duration_s * fs) >= 2):
        raise ValueError(f"duration_s must be finite and at least 2 samples at {fs} Hz, "
                         f"got {duration_s!r}")
    from scipy import signal  # here, not in the fan-out's threads

    rng = np.random.default_rng(seed)
    n = int(round(duration_s * fs))
    out = np.zeros(n)
    hiss_b, hiss_a = _hiss_filter(fs)
    syllables = []  # (start, pitch contour, harmonic phases, hiss noise, envelope scale)
    pos = 0
    while pos < n:
        if syllables and rng.random() < 0.22:  # inter-word pause
            pos += int(rng.uniform(0.12, 0.40) * fs)
            continue
        dur = min(int(rng.uniform(0.12, 0.28) * fs), n - pos)
        if dur <= 1:
            break
        t = np.arange(dur) / fs
        f0 = rng.uniform(110, 200) * (
            1.0 + 0.08 * np.sin(2 * np.pi * rng.uniform(1.5, 4.0) * t + rng.uniform(0, 2 * np.pi))
        )
        offsets = rng.uniform(0, 2 * np.pi, size=int(4500 // f0.max()))
        syllables.append((pos, f0, offsets, rng.standard_normal(dur), rng.uniform(0.35, 1.0)))
        pos += dur

    def syllable(draws):
        start, f0, offsets, hiss, scale = draws
        dur = len(f0)
        harmonics = np.arange(1, len(offsets) + 1)
        block = np.multiply.outer(harmonics, 2 * np.pi * np.cumsum(f0) / fs)
        block += offsets[:, None]
        np.cos(block, out=block)
        block *= (1.0 / harmonics)[:, None]
        wave = np.add.reduce(block, axis=0)  # row by row, in harmonic order
        wave += 0.08 * signal.lfilter(hiss_b, hiss_a, hiss)
        out[start : start + dur] = wave * (np.sin(np.pi * np.arange(dur) / dur) ** 2 * scale)

    fan_out(syllable, syllables)
    rms = np.sqrt(np.mean(out**2))
    if rms <= 0.0:
        raise ValueError(f"pseudo_speech produced silence for duration {duration_s}")
    return TimeSignal(0.1 * out / rms, fs)


def pseudo_corpus(n_utterances: int, utterance_s: float, seed: int) -> list[TimeSignal]:
    """n deterministic pseudo-speech utterances with independent substreams,
    made as `fan_out` tasks; the bits do not depend on the worker count."""
    children = np.random.SeedSequence(seed).spawn(n_utterances)
    return fan_out(lambda child: pseudo_speech(utterance_s, child), children)


def frame_index(lengths, width: int) -> np.ndarray:
    """The (utterance, frame) rows of utterances of `lengths` frames, (R, 2)
    int64: each frame that ends a full `width`-frame window, in utterance
    then frame order. An utterance shorter than one window has none."""
    counts = np.maximum(np.asarray(lengths, dtype=np.int64) - (width - 1), 0)
    utt = np.repeat(np.arange(len(counts)), counts)
    frame = np.arange(len(utt)) - (np.cumsum(counts) - counts)[utt] + (width - 1)
    return np.stack([utt, frame], axis=1)


def windows(frames, starts, width: int, axis: int) -> np.ndarray:
    """The `width`-frame windows of `frames` (frame axis `axis`) that start at
    `starts`, an index array (a C-ordered copy) or a slice (a view): rows
    first, each window in the axis order of `frames`, (R, *window shape)."""
    if frames.shape[axis] < width:
        raise ValueError(f"input too short: {frames.shape[axis]} frames, need >= {width}")
    ndim = frames.ndim
    axis %= ndim
    views = np.lib.stride_tricks.sliding_window_view(frames, width, axis=axis)
    # views are (..., V on `axis`, ..., width): windows first, width onto `axis`
    return views.transpose(axis, *(ndim if i == axis else i for i in range(ndim)))[starts]


def log_windows(frames, starts, width: int, axis: int) -> np.ndarray:
    """The input of every gain network: the `windows` of log(1 + frames),
    each flattened, (R, width * other dims). Each frame is log-compressed
    once, whatever the windows that hold it."""
    cut = windows(np.log1p(frames), starts, width, axis)
    return cut.reshape(len(cut), -1)


def joined(index, rows, width: int, sources, axis: int):
    """The per-utterance arrays of `sources` joined along their frame axis,
    and where in them the `width`-frame window that ends at each requested
    row's frame starts; `index` maps a row to its (utterance, frame)."""
    idx = index[np.asarray(rows, dtype=np.int64)]
    first_frame = np.cumsum([0, *(src.shape[axis] for src in sources[:-1])])
    return np.concatenate(sources, axis=axis), first_frame[idx[:, 0]] + idx[:, 1] - (width - 1)


class EnvelopeDataset:
    """Envelope-domain dataset stored per utterance.

    Keeps clean/noisy band-envelope matrices (J, M) per utterance plus a
    flat (utterance, frame) index of valid frames; per-sample feature
    vectors and windows of `n_env` = ENVELOPE_LEN frames are materialized
    on demand. One valid frame holds one training sample per band.
    `pipeline.train_networks` draws its rows from the stream salted with
    `row_salt` and sums the feature norm `norm_chunk` rows at a time.
    """

    n_env = ENVELOPE_LEN
    row_salt = 0x5E1EC7
    norm_chunk = 4096

    def __init__(self, clean_env, noisy_env, index, mixes=None):
        self.clean_env = clean_env
        self.noisy_env = noisy_env
        self.index = np.asarray(index, dtype=np.int64).reshape(-1, 2)
        self.mixes = list(mixes) if mixes else []
        if clean_env and clean_env[0].shape[:-1] != (N_BANDS,):
            raise ValueError(f"envelope matrices must be ({N_BANDS}, M)")

    @property
    def n_bands(self) -> int:
        return self.clean_env[0].shape[0]

    @property
    def n_frames(self) -> int:
        """Number of valid (utterance, frame) rows; samples = n_frames * J."""
        return len(self.index)

    def __len__(self) -> int:
        return self.n_frames * self.n_bands

    def features(self, rows) -> np.ndarray:
        """`log_windows` of the noisy envelopes, flattened band-major: (R, J*N)."""
        return log_windows(*joined(self.index, rows, self.n_env, self.noisy_env, 1), self.n_env, 1)

    def targets(self, rows, bands: slice = slice(None)):
        """Clean and noisy envelope windows of the selected bands: two
        (R, bands, N) arrays."""
        return [windows(*joined(self.index, rows, self.n_env, [env[bands] for env in envs], 1),
                        self.n_env, 1) for envs in (self.clean_env, self.noisy_env)]


def mixture_magnitudes(speech_list, noise, seed, snr_range_db, keep) -> list:
    """The mixing loop of every dataset builder: per utterance, (keep(clean
    STFT magnitudes), keep(noisy STFT magnitudes), snr), the magnitudes each
    (M, N_BINS) at the working rate. Each utterance is a `fan_out` task on
    its own seeded stream, which draws its SNR uniformly from `snr_range_db`
    and then its noise cut (`mix_at_snr`); `keep` reduces the two magnitude
    arrays, inside the task, to what the builder stores."""
    noise = to_working_rate(noise)

    def mix(task):
        child, raw = task
        rng = np.random.default_rng(child)
        speech = to_working_rate(raw)
        snr = float(rng.uniform(*snr_range_db))
        mixture = mix_at_snr(speech, noise, snr, rng)[0]
        return keep(magnitude(speech)), keep(magnitude(mixture)), snr

    children = np.random.SeedSequence(seed).spawn(len(speech_list))
    return fan_out(mix, list(zip(children, speech_list)))


def build_dataset(
    speech_list: Sequence[TimeSignal],
    noise: TimeSignal,
    split: str = "train",
    seed: int = 0,
    snr_range_db=DEFAULT_SNR_RANGE_DB,
    noise_source: str = "noise",
) -> EnvelopeDataset:
    """Mix each utterance at a per-utterance SNR, drawn uniformly from
    `snr_range_db`, and keep the band envelopes of its clean and noisy
    magnitudes (`mixture_magnitudes`). Fully deterministic for a given seed.
    """
    if split not in SPLITS:
        raise ValueError(f"unknown split {split!r}")
    if not 0 <= seed < 2**63:  # a pack stores it as a signed 64-bit integer
        raise ValueError(f"seed {seed} does not fit a pack's 64-bit seed field")
    kept = mixture_magnitudes(speech_list, noise, seed, snr_range_db, envelopes)
    clean_envs, noisy_envs = [clean for clean, _, _ in kept], [noisy for _, noisy, _ in kept]
    mixes = [MixSpec(snr, noise_source, split, seed) for _, _, snr in kept]
    index = frame_index([env.shape[1] for env in clean_envs], ENVELOPE_LEN)
    return EnvelopeDataset(clean_envs, noisy_envs, index, mixes)


def read_manifest(path) -> list[str]:
    """File-list manifest: one WAV path per line, '#' starts a comment."""
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                entries.append(line)
    return entries


# ---------------------------------------------------------------------------
# optional binary dataset cache (frame: see `framed`); body: counts, STFT
# and band-layout header (the fixed values, as the format has always stored
# them), per-utterance envelopes, the index, mix records


class DatasetFormatError(ValueError):
    """Dataset pack is corrupt, truncated, or internally inconsistent."""


DATASET_FRAME = framed.Frame(b"ASTOD", 1, "dataset pack", DatasetFormatError)


def save_dataset(ds: EnvelopeDataset, path) -> None:
    parts = [
        struct.pack("<III", len(ds.clean_env), ds.n_bands, ENVELOPE_LEN),
        struct.pack("<IIId", FFT_SIZE, HOP, WORKING_RATE_HZ, FIRST_CENTER_HZ),
        struct.pack("<Q", ds.n_frames),
    ]
    for clean, noisy in zip(ds.clean_env, ds.noisy_env):
        parts.append(struct.pack("<I", clean.shape[1]))
        parts += [np.ascontiguousarray(a, dtype="<f8") for a in (clean, noisy)]
    parts.append(np.ascontiguousarray(ds.index, dtype="<i8"))
    parts.append(struct.pack("<I", len(ds.mixes)))
    for mix in ds.mixes:
        parts.append(struct.pack("<d", mix.snr_db))
        parts += [framed.pack_text(mix.noise_source), framed.pack_text(mix.split)]
        parts.append(struct.pack("<q", mix.seed))
    framed.write(path, DATASET_FRAME, parts)


def load_dataset(path) -> EnvelopeDataset:
    """Read a pack written by `save_dataset`. Raises DatasetFormatError on
    bad magic, version or CRC, on any record that runs past the end of the
    payload or leaves bytes after it, on header fields `octave.check_header`
    refuses, on a pack of no utterances, on negative or non-finite envelope
    values, and on index rows that point past the stored utterances or
    frames."""
    body = framed.Reader(path, DATASET_FRAME)
    n_utts, n_bands, n_env = body.unpack("<III")
    fft_size, hop, fs, first_center = body.unpack("<IIId")
    try:
        check_header(fft_size, hop, n_env, fs, n_bands, first_center)
    except ValueError as exc:
        raise DatasetFormatError(f"{path}: bad STFT or band header: {exc}") from None
    if n_utts == 0:
        raise DatasetFormatError(f"{path}: no utterances")
    (n_rows,) = body.unpack("<Q")
    clean_envs, noisy_envs = [], []
    for _ in range(n_utts):
        (m,) = body.unpack("<I")
        clean_envs.append(body.array("<f8", n_bands * m).reshape(n_bands, m))
        noisy_envs.append(body.array("<f8", n_bands * m).reshape(n_bands, m))
    index = body.array("<i8", 2 * n_rows).reshape(-1, 2)
    (n_mixes,) = body.unpack("<I")
    mixes = []
    for _ in range(n_mixes):
        (snr,) = body.unpack("<d")
        source, split = body.text(), body.text()
        (seed,) = body.unpack("<q")
        mixes.append(MixSpec(snr, source, split, seed))
    body.done()
    if not all(((env >= 0) & (env < np.inf)).all() for env in clean_envs + noisy_envs):
        raise DatasetFormatError(f"{path}: envelope values must be finite and non-negative")
    utt, frame = index.T
    lengths = np.array([env.shape[1] for env in clean_envs])
    bad = (utt < 0) | (utt >= n_utts)
    bad[~bad] = (frame[~bad] < n_env - 1) | (frame[~bad] >= lengths[utt[~bad]])
    if bad.any():
        row = int(np.argmax(bad))
        raise DatasetFormatError(
            f"{path}: index row {row} {tuple(index[row].tolist())} points past the stored frames"
        )
    return EnvelopeDataset(clean_envs, noisy_envs, index, mixes)
