"""WAV round trips, fuzzed and partial WAV files, resampling quality, and
tone generation."""

import hashlib
import io
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from envgain import framed
from envgain.signal_io import (
    MAX_INPUT_RATE_HZ,
    WORKING_RATE_HZ,
    MalformedWavError,
    TimeSignal,
    UnsupportedWavError,
    WavError,
    read_wav,
    synth_tone,
    to_working_rate,
    write_wav,
)

QSTEP = 1.0 / 32768.0  # one 16-bit quantization step


def make_wav_bytes(samples_i16, rate=10000, fmt_code=1, bits=16, channels=1):
    """Hand-assembled RIFF/WAVE bytes, independent of write_wav."""
    payload = struct.pack(f"<{len(samples_i16)}h", *samples_i16)
    block = channels * bits // 8
    return struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload), b"WAVE",
        b"fmt ", 16, fmt_code, channels, rate, rate * block, block, bits,
        b"data", len(payload),
    ) + payload


class TestReadWav:
    def test_full_scale_and_zero_mapping(self, tmp_path):
        path = tmp_path / "t.wav"
        path.write_bytes(make_wav_bytes([32767, 0, -32768]))
        sig = read_wav(path)
        assert sig.sample_rate_hz == 10000
        assert sig.samples[0] == pytest.approx(32767 / 32768)
        assert sig.samples[1] == 0.0
        assert sig.samples[2] == -1.0

    def test_round_trip_random_signals(self, tmp_path):
        rng = np.random.default_rng(0)
        for trial in range(5):
            x = rng.uniform(-1, 1, 2000)
            sig = TimeSignal(x, WORKING_RATE_HZ)
            write_wav(sig, tmp_path / "r.wav")
            back = read_wav(tmp_path / "r.wav")
            assert back.sample_rate_hz == WORKING_RATE_HZ
            assert np.max(np.abs(back.samples - x)) <= QSTEP

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_wav(tmp_path / "nope.wav")

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"RIFX" + b"\x00" * 40)
        with pytest.raises(MalformedWavError):
            read_wav(path)

    def test_unsupported_encoding(self, tmp_path):
        path = tmp_path / "adpcm.wav"
        path.write_bytes(make_wav_bytes([0, 0], fmt_code=2))
        with pytest.raises(UnsupportedWavError):
            read_wav(path)

    def test_flipped_rate_byte_rejected(self, tmp_path):
        # the top byte of a 10 kHz rate field flipped: 0x80002710 Hz
        raw = bytearray(make_wav_bytes([1, 2, 3, 4]))
        raw[27] ^= 0x80
        path = tmp_path / "flipped.wav"
        path.write_bytes(bytes(raw))
        with pytest.raises(UnsupportedWavError, match=f"{path}: sample rate 2147493648 Hz"):
            read_wav(path)

    def test_highest_rate_loads(self, tmp_path):
        path = tmp_path / "hi.wav"
        path.write_bytes(make_wav_bytes([0, 100, -100] * 128, rate=MAX_INPUT_RATE_HZ))
        sig = read_wav(path)
        assert sig.sample_rate_hz == MAX_INPUT_RATE_HZ == 384_000
        assert len(to_working_rate(sig)) == 10

    def test_float32_payload(self, tmp_path):
        vals = np.array([0.5, -0.25, 1.0], dtype="<f4")
        payload = vals.tobytes()
        head = struct.pack(
            "<4sI4s4sIHHIIHH4sI",
            b"RIFF", 36 + len(payload), b"WAVE",
            b"fmt ", 16, 3, 1, 16000, 16000 * 4, 4, 32,
            b"data", len(payload),
        )
        path = tmp_path / "f32.wav"
        path.write_bytes(head + payload)
        sig = read_wav(path)
        assert sig.sample_rate_hz == 16000
        assert np.allclose(sig.samples, [0.5, -0.25, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_float_sample_rejected(self, tmp_path, bad):
        payload = np.array([0.5, bad, -0.25], dtype="<f4").tobytes()
        path = tmp_path / "bad.wav"
        path.write_bytes(chunked_wav(payload, fmt_code=3, bits=32))
        with pytest.raises(MalformedWavError, match=r"bad\.wav.*NaN or infinite"):
            read_wav(path)

    def test_stereo_takes_channel_zero(self, tmp_path):
        path = tmp_path / "st.wav"
        # interleaved L/R: L = 100, 300; R = 200, 400
        path.write_bytes(make_wav_bytes([100, 200, 300, 400], channels=2))
        with pytest.warns(UserWarning):
            sig = read_wav(path)
        assert np.allclose(sig.samples * 32768, [100, 300])


class TestWriteWav:
    def test_zero_signal_zero_payload(self, tmp_path):
        path = tmp_path / "z.wav"
        write_wav(TimeSignal(np.zeros(64), WORKING_RATE_HZ), path)
        raw = path.read_bytes()
        assert raw[44:] == b"\x00" * 128

    def test_clamp_above_full_scale(self, tmp_path):
        path = tmp_path / "c.wav"
        write_wav(TimeSignal(np.array([2.0, -3.0]), WORKING_RATE_HZ), path)
        vals = np.frombuffer(path.read_bytes()[44:], dtype="<i2")
        assert vals[0] == 32767
        assert vals[1] == -32768

    def test_double_round_trip_idempotent(self, tmp_path):
        rng = np.random.default_rng(1)
        sig = TimeSignal(rng.uniform(-1, 1, 500), WORKING_RATE_HZ)
        write_wav(sig, tmp_path / "a.wav")
        once = read_wav(tmp_path / "a.wav")
        write_wav(once, tmp_path / "b.wav")
        twice = read_wav(tmp_path / "b.wav")
        assert np.array_equal(once.samples, twice.samples)

    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "out.wav"
        write_wav(TimeSignal(np.full(64, 0.25), WORKING_RATE_HZ), path)
        old = path.read_bytes()

        class FailingFile(io.FileIO):  # opens, writes 8 bytes, then fails
            def write(self, data):
                super().write(bytes(data)[:8])
                raise OSError("no space left on device")

        monkeypatch.setattr(framed, "open", FailingFile, raising=False)
        with pytest.raises(OSError, match="no space left on device"):
            write_wav(TimeSignal(np.full(64, -0.5), WORKING_RATE_HZ), path)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["out.wav"]  # no temp file left

    @pytest.mark.parametrize("rate, digest", [
        (10000, "456b304fe6150add691c6c349cb1226ed5c36e775cef468bb48b048e59d3b57e"),
        (16000, "e0656929401c04252d3c0f12c7f5431ca3a5489b3031a626a272d3995b52eb6f"),
    ])
    def test_file_bytes_are_pinned(self, tmp_path, rate, digest):
        """1,001 samples (an odd length), 199 of them beyond full scale."""
        x = np.random.default_rng(11).uniform(-1.25, 1.25, 1001)
        write_wav(TimeSignal(x, rate), tmp_path / "pinned.wav")
        raw = (tmp_path / "pinned.wav").read_bytes()
        assert len(raw) == 44 + 2 * 1001
        assert hashlib.sha256(raw).hexdigest() == digest


def chunked_wav(payload, fmt_code=1, bits=16, channels=1, rate=10000):
    """RIFF/WAVE bytes around an arbitrary data payload, word-aligned."""
    block = channels * bits // 8
    pad = b"\0" * (len(payload) & 1)
    return struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload) + len(pad), b"WAVE",
        b"fmt ", 16, fmt_code, channels, rate, rate * block, block, bits,
        b"data", len(payload),
    ) + payload + pad


# the 14 bytes after the format code in every KSDATAFORMAT_SUBTYPE GUID
KSDATAFORMAT_GUID_TAIL = bytes.fromhex("000000001000800000aa00389b71")


def extensible_wav(payload, fmt_code=1, bits=16, channels=1, rate=10000, ext_len=24):
    """`chunked_wav` with a WAVE_FORMAT_EXTENSIBLE fmt chunk whose extension
    (cbSize, valid bits, channel mask, subformat GUID) is cut to `ext_len`."""
    block = channels * bits // 8
    ext = (struct.pack("<HHIH", 22, bits, 0, fmt_code) + KSDATAFORMAT_GUID_TAIL)[:ext_len]
    fmt = struct.pack("<HHIIHH", 0xFFFE, channels, rate, rate * block, block, bits) + ext
    pad = b"\0" * (len(payload) & 1)
    body = (b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(payload)) + payload + pad)
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


class TestExtensibleFormat:
    @pytest.mark.parametrize("fmt_code, bits, channels", [
        (1, 16, 1), (1, 24, 1), (1, 32, 1), (3, 32, 1), (1, 24, 2), (1, 8, 1),
    ])
    def test_same_bits_as_plain_format(self, tmp_path, fmt_code, bits, channels):
        rng = np.random.default_rng(bits + channels)
        if fmt_code == 3:
            payload = rng.uniform(-1, 1, 40 * channels).astype("<f4").tobytes()
        else:
            payload = rng.integers(0, 256, 40 * bits // 8 * channels, dtype=np.uint8).tobytes()
        (tmp_path / "plain.wav").write_bytes(chunked_wav(payload, fmt_code, bits, channels))
        (tmp_path / "ext.wav").write_bytes(extensible_wav(payload, fmt_code, bits, channels))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            plain, ext = read_wav(tmp_path / "plain.wav"), read_wav(tmp_path / "ext.wav")
        assert ext.sample_rate_hz == plain.sample_rate_hz
        assert np.array_equal(ext.samples, plain.samples)

    @pytest.mark.parametrize("ext_len", [0, 2, 22])
    def test_short_extension_rejected(self, tmp_path, ext_len):
        path = tmp_path / "short.wav"
        path.write_bytes(extensible_wav(b"\0\0" * 8, ext_len=ext_len))
        with pytest.raises(MalformedWavError, match="bad WAVE_FORMAT_EXTENSIBLE fmt chunk"):
            read_wav(path)

    def test_unsupported_subformat_rejected(self, tmp_path):
        path = tmp_path / "alaw.wav"
        path.write_bytes(extensible_wav(b"\0" * 8, fmt_code=6, bits=8))
        with pytest.raises(UnsupportedWavError, match="format code 6, 8-bit not supported"):
            read_wav(path)


class TestPartialFrames:
    @pytest.mark.parametrize("fmt_code, bits, channels, size", [
        (1, 16, 1, 1), (1, 16, 1, 3), (1, 32, 1, 6), (3, 32, 1, 5), (1, 24, 1, 7),
        (1, 16, 2, 6), (1, 24, 2, 9), (1, 8, 3, 4),
    ])
    def test_data_not_whole_frames_rejected(self, tmp_path, fmt_code, bits, channels, size):
        path = tmp_path / "p.wav"
        path.write_bytes(chunked_wav(bytes(range(size)), fmt_code, bits, channels))
        frame = bits // 8 * channels
        with pytest.raises(MalformedWavError,
                           match=f"data chunk of {size} bytes is not whole {frame}-byte frames"):
            read_wav(path)

    @pytest.mark.parametrize("fmt_code, bits, channels", [
        (1, 8, 1), (1, 16, 1), (1, 24, 1), (1, 32, 1), (3, 32, 1), (1, 24, 2), (1, 16, 3),
    ])
    def test_whole_frames_decode(self, tmp_path, fmt_code, bits, channels):
        rng = np.random.default_rng(bits + channels)
        width = bits // 8
        if fmt_code == 3:
            payload = rng.uniform(-1, 1, 5 * channels).astype("<f4").tobytes()
        else:
            payload = rng.integers(0, 256, 5 * width * channels, dtype=np.uint8).tobytes()
        path = tmp_path / "w.wav"
        path.write_bytes(chunked_wav(payload, fmt_code, bits, channels))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sig = read_wav(path)
        # channel 0 of every frame, decoded one sample at a time
        firsts = [payload[i : i + width] for i in range(0, len(payload), width * channels)]
        if fmt_code == 3:
            expected = [struct.unpack("<f", b)[0] for b in firsts]
        elif bits == 8:
            expected = [(b[0] - 128) / 128 for b in firsts]
        else:
            expected = [int.from_bytes(b, "little", signed=True) / 2 ** (bits - 1) for b in firsts]
        assert np.array_equal(sig.samples, expected)


def _valid_wavs():
    rng = np.random.default_rng(11)
    return {
        "16-bit mono": chunked_wav(rng.integers(-32768, 32768, 40).astype("<i2").tobytes()),
        "24-bit mono": chunked_wav(rng.integers(0, 256, 120, dtype=np.uint8).tobytes(), bits=24),
        "16-bit stereo": chunked_wav(
            rng.integers(-32768, 32768, 80).astype("<i2").tobytes(), channels=2
        ),
    }


VALID_WAVS = _valid_wavs()


class TestFuzzedWav:
    @pytest.mark.parametrize("name", sorted(VALID_WAVS))
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_only_wav_errors_escape(self, tmp_path_factory, name, data):
        """Truncate at a random length, lie in a chunk size, or flip a byte
        of the fmt chunk: reading either succeeds or raises a WavError."""
        raw = bytearray(VALID_WAVS[name])
        defect = data.draw(st.sampled_from(["truncate", "size lie", "fmt flip"]), label="defect")
        if defect == "truncate":
            raw = raw[: data.draw(st.integers(0, len(raw) - 1), label="cut")]
        elif defect == "size lie":
            offset = data.draw(st.sampled_from([4, 16, 40]), label="chunk")  # RIFF, fmt, data
            size = data.draw(st.one_of(st.integers(0, 300), st.integers(0, 2**32 - 1)),
                             label="size")
            raw[offset : offset + 4] = struct.pack("<I", size)
        else:
            pos = data.draw(st.integers(20, 35), label="pos")  # the 16-byte fmt body
            raw[pos] ^= data.draw(st.integers(1, 255), label="xor")
        path = tmp_path_factory.getbasetemp() / "fuzz.wav"
        path.write_bytes(bytes(raw))
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                sig = read_wav(path)
        except WavError:
            return
        assert sig.samples.ndim == 1 and len(sig) > 0 and sig.sample_rate_hz > 0


class TestToWorkingRate:
    def test_identity_at_10k(self):
        rng = np.random.default_rng(2)
        sig = TimeSignal(rng.standard_normal(1234), 10000)
        out = to_working_rate(sig)
        assert out.sample_rate_hz == 10000
        assert np.array_equal(out.samples, sig.samples)

    def test_working_rate_input_is_not_copied(self):
        sig = TimeSignal(np.zeros(100), WORKING_RATE_HZ)
        assert to_working_rate(sig) is sig

    def test_sine_amplitude_preserved(self):
        # 1 kHz sine at 16 kHz -> 10 kHz; amplitude fit away from edges
        fs = 16000
        t = np.arange(fs) / fs
        sig = TimeSignal(0.5 * np.sin(2 * np.pi * 1000 * t), fs)
        out = to_working_rate(sig)
        assert out.sample_rate_hz == WORKING_RATE_HZ
        n = np.arange(len(out))
        basis = np.column_stack([
            np.sin(2 * np.pi * 1000 * n / WORKING_RATE_HZ),
            np.cos(2 * np.pi * 1000 * n / WORKING_RATE_HZ),
        ])
        interior = slice(500, len(out) - 500)
        coef, *_ = np.linalg.lstsq(basis[interior], out.samples[interior], rcond=None)
        amp = np.hypot(*coef)
        assert abs(20 * np.log10(amp / 0.5)) < 0.1

    def test_downsample_length(self):
        out = to_working_rate(TimeSignal(np.zeros(1000), 20000))
        assert len(out) == 500
        out = to_working_rate(TimeSignal(np.zeros(999), 20000))
        assert len(out) == 500  # ceil, i.e. round-half-up of 499.5

    def test_energy_preserved_for_band_limited_input(self):
        from scipy import signal as sp

        rng = np.random.default_rng(3)
        fs = 16000
        b, a = sp.butter(8, 3500 / (fs / 2))
        x = sp.lfilter(b, a, rng.standard_normal(fs * 2))
        out = to_working_rate(TimeSignal(x, fs))
        e_in = np.mean(x**2)
        e_out = np.mean(out.samples**2)
        assert abs(e_out / e_in - 1.0) < 0.01

    def test_rejects_low_rate(self):
        with pytest.raises(ValueError):
            to_working_rate(TimeSignal(np.zeros(100), 7999))

    def test_rejects_high_rate(self):
        # 400 kHz is above the ceiling but would resample cheaply (up 1, down 40)
        with pytest.raises(ValueError, match="400000 Hz above the 384000 Hz maximum"):
            to_working_rate(TimeSignal(np.zeros(100), 400_000))

    @pytest.mark.parametrize("fs", [8000, 11025, 16000, 22050, 32000, 37800, 44056, 44100,
                                    48000, 88200, 96000, 176400, 192000, 352800, 384000])
    def test_standard_rates_resample(self, fs):
        n = fs // 50
        out = to_working_rate(TimeSignal(np.ones(n), fs))
        assert out.sample_rate_hz == WORKING_RATE_HZ
        assert len(out) == -(-n * WORKING_RATE_HZ // fs)

    @pytest.mark.parametrize("fs", [44_099, 96_001])
    def test_rate_of_too_many_phases_refused_before_a_filter(self, fs, monkeypatch):
        from scipy import signal as sp

        def no_filter(*args, **kwargs):
            raise AssertionError("a filter was designed")

        monkeypatch.setattr(sp, "firwin", no_filter)
        with pytest.raises(ValueError, match=f"sample rate {fs} Hz needs a 10000/{fs} "
                                             f"resampler of {fs} phases"):
            to_working_rate(TimeSignal(np.zeros(fs // 2), fs))


class TestSynthTone:
    def test_zero_amplitude_gives_zeros(self):
        sig = synth_tone(100.0, 1.0, 0.0)
        assert len(sig) == 10000
        assert np.all(sig.samples == 0.0)

    def test_construction(self):
        sig = synth_tone(1000.0, 0.1, 0.5)
        assert len(sig) == 1000
        assert np.max(np.abs(sig.samples)) == 0.5

    @pytest.mark.parametrize("freq", [10.0, 53.7, 997.0, 3333.0])
    def test_rms_matches_analytic(self, freq):
        amp = 0.4
        sig = synth_tone(freq, 1.0, amp)
        rms = np.sqrt(np.mean(sig.samples**2))
        assert rms == pytest.approx(amp / np.sqrt(2), rel=0.01)

    def test_rejects_nyquist_and_zero(self):
        with pytest.raises(ValueError):
            synth_tone(5000.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            synth_tone(0.0, 1.0, 0.5)

    def test_deterministic(self):
        a = synth_tone(440.0, 0.5, 0.3)
        b = synth_tone(440.0, 0.5, 0.3)
        assert np.array_equal(a.samples, b.samples)
