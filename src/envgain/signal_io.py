"""Mono audio I/O, resampling to the 10 kHz working rate, and test tones.

Everything downstream (STFT, band envelopes, training) assumes mono float64
signals at ``WORKING_RATE_HZ``. WAV reading is a small hand-rolled RIFF
parser so that missing files, malformed headers and unsupported encodings
are reported as distinct error types.
"""

from __future__ import annotations

import io
import math
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import signal as _sig

from . import framed

WORKING_RATE_HZ = 10000
MIN_INPUT_RATE_HZ = 8000
# The resampler's filter grows with the rate, so absurd rates are refused.
MAX_INPUT_RATE_HZ = 384_000

# Polyphase anti-alias filter: Kaiser-windowed sinc, 64 taps per phase.
RESAMPLE_TAPS_PER_PHASE = 64
RESAMPLE_KAISER_BETA = 8.6


class WavError(Exception):
    """Base class for WAV file problems."""


class MalformedWavError(WavError):
    """File is not a well-formed RIFF/WAVE container."""


class UnsupportedWavError(WavError):
    """Well-formed WAV, but an encoding this reader does not handle."""


@dataclass(frozen=True)
class TimeSignal:
    """Mono sampled waveform. Treat as immutable once constructed."""

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("TimeSignal requires a non-empty 1-D sample array")
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        object.__setattr__(self, "samples", arr)

    def __len__(self):
        return self.samples.size

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate_hz


def _read_exact(fh, n, what):
    data = fh.read(n)
    if len(data) != n:
        raise MalformedWavError(f"truncated WAV file while reading {what}")
    return data


def read_wav(path) -> TimeSignal:
    """Read a PCM WAV file, returning channel 0 scaled to [-1, 1].

    Supports 8/16/24/32-bit integer PCM and 32-bit IEEE float, including
    the WAVE_FORMAT_EXTENSIBLE wrapper. Multichannel files are reduced to
    channel 0 with a warning.
    """
    # in memory, a chunk size lie reads what is there instead of allocating it
    with io.BytesIO(Path(path).read_bytes()) as fh:
        riff, _size, wave_id = struct.unpack("<4sI4s", _read_exact(fh, 12, "RIFF header"))
        if riff != b"RIFF" or wave_id != b"WAVE":
            raise MalformedWavError(f"{path}: not a RIFF/WAVE file")

        fmt = None
        data = None
        while True:
            head = fh.read(8)
            if len(head) == 0:
                break
            if len(head) != 8:
                raise MalformedWavError(f"{path}: truncated chunk header")
            chunk_id, chunk_size = struct.unpack("<4sI", head)
            if chunk_id == b"fmt ":
                if chunk_size < 16:
                    raise MalformedWavError(f"{path}: fmt chunk too small")
                fmt = struct.unpack("<HHIIHH", _read_exact(fh, 16, "fmt chunk")[:16])
                extra = chunk_size - 16
                ext = _read_exact(fh, extra, "fmt extension") if extra else b""
                if fmt[0] == 0xFFFE:
                    # extensible: the real format code is the first 2 bytes of the GUID
                    if len(ext) < 24:
                        raise MalformedWavError(f"{path}: bad WAVE_FORMAT_EXTENSIBLE fmt chunk")
                    sub = struct.unpack("<H", ext[8:10])[0]
                    fmt = (sub,) + fmt[1:]
            elif chunk_id == b"data":
                data = _read_exact(fh, chunk_size, "data chunk")
            else:
                fh.seek(chunk_size, 1)
            if chunk_size & 1:  # chunks are word-aligned
                fh.seek(1, 1)

        if fmt is None or data is None:
            raise MalformedWavError(f"{path}: missing fmt or data chunk")

    code, n_channels, rate, _byte_rate, block_align, bits = fmt
    if n_channels < 1 or rate <= 0:
        raise MalformedWavError(f"{path}: nonsense fmt fields")
    if rate > MAX_INPUT_RATE_HZ:
        raise UnsupportedWavError(
            f"{path}: sample rate {rate} Hz above the {MAX_INPUT_RATE_HZ} Hz maximum"
        )

    # format code 1 is integer PCM, 3 IEEE float
    if (code, bits) not in ((1, 8), (1, 16), (1, 24), (1, 32), (3, 32)):
        raise UnsupportedWavError(f"{path}: format code {code}, {bits}-bit not supported")
    frame_bytes = bits // 8 * n_channels
    if len(data) % frame_bytes:
        raise MalformedWavError(
            f"{path}: data chunk of {len(data)} bytes is not whole {frame_bytes}-byte frames"
        )

    if code == 3:
        samples = np.frombuffer(data, dtype="<f4").astype(np.float64)
        if not np.all(np.isfinite(samples)):  # integer formats cannot hold NaN or inf
            raise MalformedWavError(f"{path}: float data holds NaN or infinite samples")
    elif bits == 8:
        samples = (np.frombuffer(data, dtype=np.uint8).astype(np.float64) - 128.0) / 128.0
    elif bits == 24:
        raw = np.frombuffer(data, dtype=np.uint8).reshape(-1, 3)
        vals = (
            raw[:, 0].astype(np.int32)
            | (raw[:, 1].astype(np.int32) << 8)
            | (raw[:, 2].astype(np.int32) << 16)
        )
        vals = np.where(vals >= 1 << 23, vals - (1 << 24), vals)
        samples = vals.astype(np.float64) / float(1 << 23)
    else:  # 16 or 32 bits
        samples = np.frombuffer(data, dtype=f"<i{bits // 8}") / float(1 << (bits - 1))

    if n_channels > 1:
        warnings.warn(f"{path}: {n_channels} channels, keeping channel 0")
        samples = samples.reshape(-1, n_channels)[:, 0].copy()
    if samples.size == 0:
        raise MalformedWavError(f"{path}: empty data chunk")
    return TimeSignal(samples, int(rate))


def write_wav(sig: TimeSignal, path) -> None:
    """Write 16-bit PCM mono WAV, atomically; amplitudes are clamped to [-1, 1].

    Quantization rounds half away from zero; +1.0 maps to 32767.
    """
    x = np.asarray(sig.samples, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("cannot write non-finite samples")
    x = np.clip(x, -1.0, 1.0)
    scaled = x * 32768.0
    q = np.where(scaled >= 0, np.floor(scaled + 0.5), np.ceil(scaled - 0.5))
    q = np.clip(q, -32768, 32767).astype("<i2")

    payload = q.tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(payload),
        b"WAVE",
        b"fmt ",
        16,
        1,  # PCM
        1,  # mono
        sig.sample_rate_hz,
        sig.sample_rate_hz * 2,
        2,
        16,
        b"data",
        len(payload),
    )
    with framed.replacing(path) as fh:
        fh.write(header)
        fh.write(payload)


def to_working_rate(sig: TimeSignal) -> TimeSignal:
    """Resample to 10 kHz with a Kaiser-windowed polyphase lowpass.

    Inputs below 8 kHz or above 384 kHz are rejected. A 10 kHz input is
    returned as is, not copied: a `TimeSignal` is immutable by contract.
    """
    if sig.sample_rate_hz < MIN_INPUT_RATE_HZ:
        raise ValueError(
            f"sample rate {sig.sample_rate_hz} Hz below the {MIN_INPUT_RATE_HZ} Hz minimum"
        )
    if sig.sample_rate_hz > MAX_INPUT_RATE_HZ:
        raise ValueError(
            f"sample rate {sig.sample_rate_hz} Hz above the {MAX_INPUT_RATE_HZ} Hz maximum"
        )
    if sig.sample_rate_hz == WORKING_RATE_HZ:
        return sig

    g = math.gcd(WORKING_RATE_HZ, sig.sample_rate_hz)
    up, down = WORKING_RATE_HZ // g, sig.sample_rate_hz // g
    max_rate = max(up, down)
    taps = _sig.firwin(
        RESAMPLE_TAPS_PER_PHASE * max_rate + 1,
        1.0 / max_rate,
        window=("kaiser", RESAMPLE_KAISER_BETA),
    )
    out = _sig.resample_poly(sig.samples, up, down, window=taps)
    return TimeSignal(out, WORKING_RATE_HZ)


def synth_tone(freq_hz: float, duration_s: float, amplitude: float) -> TimeSignal:
    """Deterministic test tone at the working rate.

    Cosine phase, so the first sample sits on the crest and the peak equals
    ``amplitude`` exactly.
    """
    if not 0.0 < freq_hz < WORKING_RATE_HZ / 2:
        raise ValueError("frequency must lie strictly between 0 Hz and Nyquist (5 kHz)")
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    n = int(round(duration_s * WORKING_RATE_HZ))
    t = np.arange(n, dtype=np.float64) / WORKING_RATE_HZ
    return TimeSignal(amplitude * np.cos(2.0 * np.pi * freq_hz * t), WORKING_RATE_HZ)
