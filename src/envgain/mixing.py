"""Noisy-mixture construction and envelope dataset assembly.

SNR is defined against the *active* speech level (speech-pause-free power,
estimated in the style of ITU-T P.56 method B) while the noise side uses
plain overall RMS. Mixtures therefore satisfy

    active_level(speech) - overall_level(scaled_noise) == snr_db

to within floating-point rounding.

A synthetic "pseudo-speech" generator (amplitude-modulated harmonic
syllables with pauses) stands in for licensed corpora so the whole
pipeline runs at desk scale; real recordings plug in through the same
file-list manifests.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import signal as _sig

from .octave import ENVELOPE_LEN, BandLayout, build_band_layout, envelopes
from .signal_io import WORKING_RATE_HZ, TimeSignal, to_working_rate
from .stft import StftConfig, analyze

# Active-level estimator parameters (P.56 method-B style).
LEVEL_SMOOTH_TC_S = 0.030
LEVEL_HANGOVER_S = 0.2
LEVEL_MARGIN_DB = 15.9
_LADDER_MAX = 80

SSN_FIR_TAPS = 512
SSN_MIN_REFERENCE_S = 30.0

DATASET_MAGIC = b"ASTOD"
DATASET_VERSION = 1

SPLITS = ("train", "validation", "test")
DEFAULT_SNR_RANGE_DB = (-5.0, 10.0)


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
    """
    x = sig.samples
    sq = float(np.sum(x * x))
    if sq <= 0.0:
        raise ValueError("active level undefined for an all-silent signal")
    fs = sig.sample_rate_hz
    g = np.exp(-1.0 / (fs * LEVEL_SMOOTH_TC_S))
    p = _sig.lfilter([1 - g], [1, -g], np.abs(x))
    env = _sig.lfilter([1 - g], [1, -g], p)
    env_peak = float(env.max())
    if env_peak <= 0.0:
        raise ValueError("active level undefined for an all-silent signal")

    hang = int(round(LEVEL_HANGOVER_S * fs))
    idx = np.arange(len(x))
    prev = None  # (margin_gap_db, level_db)
    for j in range(1, _LADDER_MAX):
        thresh = env_peak * 2.0 ** (-j)
        last_on = np.maximum.accumulate(np.where(env >= thresh, idx, -(10**12)))
        count = int(np.count_nonzero(idx - last_on <= hang))
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


def _as_rng(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def mix_at_snr(speech: TimeSignal, noise: TimeSignal, snr_db: float, rng=0):
    """Scale a random contiguous noise cut so the mixture hits snr_db.

    Returns (mixture, scaled_noise). `rng` seeds the segment choice.
    """
    if noise.sample_rate_hz != speech.sample_rate_hz:
        raise ValueError("speech and noise sample rates differ")
    if len(noise) < len(speech):
        raise ValueError(f"noise ({len(noise)}) shorter than speech ({len(speech)})")
    rng = _as_rng(rng)
    start = int(rng.integers(0, len(noise) - len(speech) + 1))
    cut = noise.samples[start : start + len(speech)]
    cut_rms = np.sqrt(np.mean(cut**2))
    if cut_rms <= 0.0:
        raise ValueError("silent noise segment")
    speech_level = active_speech_level(speech)
    target_noise_level = speech_level - snr_db
    gain = 10.0 ** ((target_noise_level - 20.0 * np.log10(cut_rms)) / 20.0)
    scaled = cut * gain
    return (
        TimeSignal(speech.samples + scaled, speech.sample_rate_hz),
        TimeSignal(scaled, speech.sample_rate_hz),
    )


def synth_ssn(reference_speech: Sequence[TimeSignal], duration_s: float, seed: int) -> TimeSignal:
    """Speech-shaped noise: white Gaussian noise through a 512-tap FIR
    fitted to the Welch long-term spectrum of the reference material.
    Output is normalized to unit RMS."""
    refs = [to_working_rate(r) for r in reference_speech]
    total_s = sum(r.duration_s for r in refs)
    if total_s < SSN_MIN_REFERENCE_S:
        raise ValueError(
            f"need >= {SSN_MIN_REFERENCE_S:.0f} s of reference speech, got {total_s:.1f} s"
        )
    ref = np.concatenate([r.samples for r in refs])
    freqs, psd = _sig.welch(ref, WORKING_RATE_HZ, nperseg=SSN_FIR_TAPS)
    amp = np.sqrt(psd)
    amp /= amp.max()
    gain = amp.copy()
    gain[-1] = 0.0  # even tap count forces a Nyquist null; far above the bands
    taps = _sig.firwin2(SSN_FIR_TAPS, freqs / (WORKING_RATE_HZ / 2), gain)

    n = int(round(duration_s * WORKING_RATE_HZ))
    rng = np.random.default_rng(seed)
    white = rng.standard_normal(n + SSN_FIR_TAPS)
    shaped = _sig.lfilter(taps, [1.0], white)[SSN_FIR_TAPS:]
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
    if sum(lens) > len(noise):
        raise ValueError(f"noise of {len(noise)} samples too short for requested split")
    out = []
    pos = 0
    for ln in lens:
        out.append(TimeSignal(noise.samples[pos : pos + ln], fs))
        pos += ln
    return tuple(out)


def pseudo_speech(duration_s: float, seed: int, fs: int = WORKING_RATE_HZ) -> TimeSignal:
    """Deterministic speech-like test material.

    Harmonic syllables with drifting pitch, a touch of band-passed hiss,
    raised-cosine amplitude modulation at syllabic rate and random pauses;
    normalized to 0.1 RMS.
    """
    rng = np.random.default_rng(seed)
    n = int(round(duration_s * fs))
    out = np.zeros(n)
    hiss_b, hiss_a = _sig.butter(4, [2000 / (fs / 2), 4500 / (fs / 2)], btype="band")
    pos = 0
    wrote = False
    while pos < n:
        if wrote and rng.random() < 0.22:  # inter-word pause
            pos += int(rng.uniform(0.12, 0.40) * fs)
            continue
        dur = min(int(rng.uniform(0.12, 0.28) * fs), n - pos)
        if dur <= 1:
            break
        t = np.arange(dur) / fs
        f0 = rng.uniform(110, 200) * (
            1.0 + 0.08 * np.sin(2 * np.pi * rng.uniform(1.5, 4.0) * t + rng.uniform(0, 2 * np.pi))
        )
        phase = 2 * np.pi * np.cumsum(f0) / fs
        syllable = np.zeros(dur)
        for h in range(1, int(4500 // f0.max()) + 1):
            syllable += (1.0 / h) * np.cos(h * phase + rng.uniform(0, 2 * np.pi))
        syllable += 0.08 * _sig.lfilter(hiss_b, hiss_a, rng.standard_normal(dur))
        env = np.sin(np.pi * np.arange(dur) / dur) ** 2 * rng.uniform(0.35, 1.0)
        out[pos : pos + dur] = syllable * env
        pos += dur
        wrote = True
    rms = np.sqrt(np.mean(out**2))
    if rms <= 0.0:
        raise ValueError(f"pseudo_speech produced silence for duration {duration_s}")
    return TimeSignal(0.1 * out / rms, fs)


def pseudo_corpus(n_utterances: int, utterance_s: float, seed: int) -> list[TimeSignal]:
    """n deterministic pseudo-speech utterances with independent substreams."""
    children = np.random.SeedSequence(seed).spawn(n_utterances)
    return [pseudo_speech(utterance_s, child) for child in children]


class EnvelopeDataset:
    """Envelope-domain dataset stored per utterance.

    Keeps clean/noisy band-envelope matrices (J, M) per utterance plus a
    flat (utterance, frame) index of valid frames; per-sample feature
    vectors and windows are materialized on demand. One valid frame holds
    one training sample per band.
    """

    def __init__(
        self,
        clean_env,
        noisy_env,
        index,
        n_env=ENVELOPE_LEN,
        mixes=None,
        layout: BandLayout | None = None,
        stft_config: StftConfig = StftConfig(),
    ):
        self.clean_env = clean_env
        self.noisy_env = noisy_env
        self.index = np.asarray(index, dtype=np.int64).reshape(-1, 2)
        self.n_env = int(n_env)
        self.mixes = list(mixes) if mixes else []
        self.stft_config = stft_config
        self.layout = layout or build_band_layout(stft_config.fft_size, WORKING_RATE_HZ)
        if clean_env and clean_env[0].ndim != 2:
            raise ValueError("envelope matrices must be (J, M)")

    @property
    def n_bands(self) -> int:
        return self.clean_env[0].shape[0]

    @property
    def n_frames(self) -> int:
        """Number of valid (utterance, frame) rows; samples = n_frames * J."""
        return len(self.index)

    def __len__(self) -> int:
        return self.n_frames * self.n_bands

    def window(self, utt: int, frame: int):
        sl = slice(frame - self.n_env + 1, frame + 1)
        return self.clean_env[utt][:, sl], self.noisy_env[utt][:, sl]

    def _gather(self, rows, source) -> np.ndarray:
        """Stack (J, N) windows for the requested rows: (R, J, N)."""
        rows = np.asarray(rows, dtype=np.int64)
        idx = self.index[rows]
        out = np.empty((len(rows), self.n_bands, self.n_env))
        for utt in np.unique(idx[:, 0]):
            sel = np.flatnonzero(idx[:, 0] == utt)
            views = np.lib.stride_tricks.sliding_window_view(source[utt], self.n_env, axis=1)
            out[sel] = views[:, idx[sel, 1] - (self.n_env - 1), :].transpose(1, 0, 2)
        return out

    def features(self, rows) -> np.ndarray:
        """log(1 + noisy envelope) context, flattened band-major: (R, J*N)."""
        gathered = self._gather(rows, self.noisy_env)
        return np.log1p(gathered.reshape(len(gathered), -1))

    def band_targets(self, rows, band: int):
        rows = np.asarray(rows, dtype=np.int64)
        idx = self.index[rows]
        clean = np.empty((len(rows), self.n_env))
        noisy = np.empty((len(rows), self.n_env))
        for utt in np.unique(idx[:, 0]):
            sel = np.flatnonzero(idx[:, 0] == utt)
            starts = idx[sel, 1] - (self.n_env - 1)
            cview = np.lib.stride_tricks.sliding_window_view(self.clean_env[utt][band], self.n_env)
            yview = np.lib.stride_tricks.sliding_window_view(self.noisy_env[utt][band], self.n_env)
            clean[sel] = cview[starts]
            noisy[sel] = yview[starts]
        return clean, noisy

    def joint_targets(self, rows):
        return self._gather(rows, self.clean_env), self._gather(rows, self.noisy_env)


def _mixtures(speech_list, noise, seed, snr_range_db, snr_list_db):
    """Yield (speech, mixture, snr) per utterance at the working rate. Each
    utterance has its own seeded stream; the SNR cycles through
    `snr_list_db` when given, else is drawn uniformly from `snr_range_db`."""
    noise = to_working_rate(noise)
    children = np.random.SeedSequence(seed).spawn(len(speech_list))
    for u, raw in enumerate(speech_list):
        rng = np.random.default_rng(children[u])
        speech = to_working_rate(raw)
        if snr_list_db is not None:
            snr = float(snr_list_db[u % len(snr_list_db)])
        else:
            snr = float(rng.uniform(*snr_range_db))
        yield speech, mix_at_snr(speech, noise, snr, rng)[0], snr


def build_dataset(
    speech_list: Sequence[TimeSignal],
    noise: TimeSignal,
    split: str = "train",
    seed: int = 0,
    snr_range_db=DEFAULT_SNR_RANGE_DB,
    snr_list_db=None,
    noise_source: str = "noise",
    layout: BandLayout | None = None,
    stft_config: StftConfig = StftConfig(),
    n_env: int = ENVELOPE_LEN,
) -> EnvelopeDataset:
    """Mix each utterance at a per-utterance SNR and extract envelope pairs.

    Train/validation splits draw the SNR uniformly from `snr_range_db`;
    passing `snr_list_db` instead cycles through the explicit list (the
    test-split convention). Fully deterministic for a given seed.
    """
    if split not in SPLITS:
        raise ValueError(f"unknown split {split!r}")
    if layout is None:
        layout = build_band_layout(stft_config.fft_size, WORKING_RATE_HZ)
    clean_envs, noisy_envs, index, mixes = [], [], [], []
    mixtures = _mixtures(speech_list, noise, seed, snr_range_db, snr_list_db)
    for u, (speech, mixture, snr) in enumerate(mixtures):
        mixes.append(MixSpec(snr, noise_source, split, seed))

        clean_e = envelopes(analyze(speech, stft_config), layout)
        noisy_e = envelopes(analyze(mixture, stft_config), layout)
        clean_envs.append(clean_e)
        noisy_envs.append(noisy_e)
        m = clean_e.shape[1]
        for frame in range(n_env - 1, m):
            index.append((u, frame))
    return EnvelopeDataset(clean_envs, noisy_envs, index, n_env, mixes, layout, stft_config)


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
# optional binary dataset cache (same conventions as the model files)


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<H", len(raw)) + raw


def save_dataset(ds: EnvelopeDataset, path) -> None:
    out = bytearray()
    out += DATASET_MAGIC
    n_utts = len(ds.clean_env)
    out += struct.pack("<IIII", DATASET_VERSION, n_utts, ds.n_bands, ds.n_env)
    cfg = ds.stft_config
    out += struct.pack(
        "<IIId", cfg.fft_size, cfg.hop, ds.layout.sample_rate_hz, ds.layout.bands[0].center_hz
    )
    out += struct.pack("<Q", ds.n_frames)
    for clean, noisy in zip(ds.clean_env, ds.noisy_env):
        out += struct.pack("<I", clean.shape[1])
        out += np.ascontiguousarray(clean, dtype="<f8").tobytes()
        out += np.ascontiguousarray(noisy, dtype="<f8").tobytes()
    out += np.ascontiguousarray(ds.index, dtype="<i8").tobytes()
    out += struct.pack("<I", len(ds.mixes))
    for mix in ds.mixes:
        out += struct.pack("<d", mix.snr_db)
        out += _pack_str(mix.noise_source)
        out += _pack_str(mix.split)
        out += struct.pack("<q", mix.seed)
    with open(path, "wb") as fh:
        fh.write(bytes(out))
        fh.write(struct.pack("<I", zlib.crc32(bytes(out))))


class DatasetFormatError(ValueError):
    """Dataset pack is corrupt, truncated, or internally inconsistent."""


def load_dataset(path) -> EnvelopeDataset:
    """Read a pack written by `save_dataset`. Raises DatasetFormatError on
    bad magic, version or CRC, and on any record that runs past the end of
    the payload or leaves bytes after it."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 29 or blob[:5] != DATASET_MAGIC:
        raise DatasetFormatError(f"{path}: not a dataset pack")
    payload, crc = blob[:-4], struct.unpack("<I", blob[-4:])[0]
    if crc != zlib.crc32(payload):
        raise DatasetFormatError(f"{path}: CRC mismatch")
    pos = 5

    def take(n_bytes: int) -> bytes:
        nonlocal pos
        if n_bytes > len(payload) - pos:
            raise DatasetFormatError(f"{path}: truncated dataset pack at byte {pos}")
        pos += n_bytes
        return payload[pos - n_bytes : pos]

    def unpack(fmt: str) -> tuple:
        return struct.unpack(fmt, take(struct.calcsize(fmt)))

    def array(dtype: str, count: int) -> np.ndarray:
        return np.frombuffer(take(8 * count), dtype=dtype).copy()

    version, n_utts, n_bands, n_env = unpack("<IIII")
    if version != DATASET_VERSION:
        raise DatasetFormatError(f"{path}: unsupported dataset version {version}")
    fft_size, hop, fs, first_center = unpack("<IIId")
    (n_rows,) = unpack("<Q")
    clean_envs, noisy_envs = [], []
    for _ in range(n_utts):
        (m,) = unpack("<I")
        clean_envs.append(array("<f8", n_bands * m).reshape(n_bands, m))
        noisy_envs.append(array("<f8", n_bands * m).reshape(n_bands, m))
    index = array("<i8", 2 * n_rows).reshape(-1, 2)
    (n_mixes,) = unpack("<I")
    mixes = []
    for _ in range(n_mixes):
        (snr,) = unpack("<d")
        source = take(unpack("<H")[0]).decode("utf-8")
        split = take(unpack("<H")[0]).decode("utf-8")
        (seed,) = unpack("<q")
        mixes.append(MixSpec(snr, source, split, seed))
    if pos != len(payload):
        raise DatasetFormatError(f"{path}: {len(payload) - pos} trailing bytes")
    cfg = StftConfig(fft_size, fft_size, hop)
    layout = build_band_layout(fft_size, fs, n_bands, first_center)
    return EnvelopeDataset(clean_envs, noisy_envs, index, n_env, mixes, layout, cfg)
