"""STFT analysis/synthesis: reconstruction, Parseval, linearity, and the
strided frame view and magnitude-only analysis pinned to the index-gather
forms they replaced. `analyze` returns the complex spectrum; magnitudes
and phases are read from it with `np.abs` and `np.angle`."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from envgain.octave import check_header
from envgain.signal_io import TimeSignal
from envgain.stft import (
    FFT_SIZE,
    HOP,
    N_BINS,
    WINDOW,
    StftConfig,
    analyze,
    apply_gain,
    frame_signal,
    hann_periodic,
    magnitude,
    pad_to_frames,
    synthesize,
)


def direct_dft_magnitudes(frame):
    """Single-frame single-sided magnitudes by explicit summation (oracle)."""
    k_max = len(frame) // 2 + 1
    n = np.arange(len(frame))
    mags = np.empty(k_max)
    for k in range(k_max):
        mags[k] = np.abs(np.sum(frame * np.exp(-2j * np.pi * k * n / len(frame))))
    return mags


class TestAnalyze:
    def test_dc_frame_concentrates_in_bin_zero(self):
        x = np.ones(256)
        mag = np.abs(analyze(x))
        assert len(mag) == 1
        oracle = direct_dft_magnitudes(x * hann_periodic(256))
        assert np.allclose(mag[0], oracle, atol=1e-9)
        # periodic Hann sums to exactly half the window length
        assert mag[0, 0] == pytest.approx(128.0, abs=1e-9)
        assert np.all(mag[0, 2:] < 1e-9)

    def test_zero_signal(self):
        spec = analyze(np.zeros(1024))
        assert np.all(np.abs(spec) == 0.0)

    def test_pure_sine_hits_single_bin(self):
        # 1250 Hz at fs=10000, K=256 lands exactly on bin 32
        n = np.arange(256 + 5 * 128)
        x = np.sin(2 * np.pi * 1250 * n / 10000)
        mag = np.abs(analyze(x))
        assert np.all(np.argmax(mag, axis=1) == 32)
        oracle = direct_dft_magnitudes(x[:256] * hann_periodic(256))
        assert np.allclose(mag[0], oracle, atol=1e-9)

    def test_frame_count_formula(self):
        for n in (256, 257, 384, 385, 512, 1000):
            spec = analyze(np.ones(n))
            assert spec.shape == ((n - 256) // 128 + 1, N_BINS)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            analyze(np.ones(255))

    def test_linearity_in_amplitude(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(1000)
        base = analyze(x)
        scaled = analyze(2.5 * x)
        assert np.allclose(np.abs(scaled), 2.5 * np.abs(base), rtol=1e-12, atol=1e-12)
        significant = np.abs(base) > 1e-6
        phase_diff = np.angle(np.exp(1j * (np.angle(scaled) - np.angle(base))))
        assert np.max(np.abs(phase_diff[significant])) < 1e-9

    def test_parseval_per_frame(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(256 + 4 * 128)
        mag = np.abs(analyze(x))
        win = hann_periodic(256)
        for m in range(len(mag)):
            frame = x[m * 128 : m * 128 + 256] * win
            e_time = np.sum(frame**2)
            m2 = mag[m] ** 2
            e_freq = (m2[0] + 2 * m2[1:-1].sum() + m2[-1]) / 256
            assert abs(e_freq / e_time - 1.0) < 1e-9


def index_gather_frames(x):
    """The fancy-index framing `frame_signal` used before its strided view."""
    m = (len(x) - FFT_SIZE) // HOP + 1
    idx = np.arange(FFT_SIZE)[None, :] + HOP * np.arange(m)[:, None]
    return x[idx]


signals = st.builds(
    lambda seed, n: np.random.default_rng(seed).standard_normal(n),
    st.integers(0, 2**32 - 1), st.integers(256, 3000),
)


class TestFrontEnd:
    @settings(max_examples=60, deadline=None)
    @given(signals)
    def test_strided_frames_equal_index_gather(self, x):
        frames = frame_signal(x)
        assert np.array_equal(frames, index_gather_frames(x))
        assert not frames.flags.writeable
        assert np.shares_memory(frames, x)

    @settings(max_examples=60, deadline=None)
    @given(signals)
    def test_magnitude_is_analyze_magnitude(self, x):
        assert np.array_equal(magnitude(x), np.abs(analyze(x)))
        sig = TimeSignal(x, 10000)
        assert np.array_equal(magnitude(sig), np.abs(analyze(sig)))

    @settings(max_examples=30, deadline=None)
    @given(signals)
    def test_analyze_equals_index_gather_rfft(self, x):
        spec = np.fft.rfft(index_gather_frames(x) * WINDOW, n=FFT_SIZE, axis=1)
        assert np.array_equal(analyze(x), spec)

    def test_short_signal_rejected(self):
        with pytest.raises(ValueError, match="shorter than one window"):
            frame_signal(np.zeros(255))
        with pytest.raises(ValueError, match="shorter than one window"):
            magnitude(np.zeros(255))


class TestSynthesize:
    def test_round_trip_interior(self):
        rng = np.random.default_rng(2)
        for trial in range(10):
            x = rng.standard_normal(rng.integers(3 * 256, 6 * 256))
            out = synthesize(analyze(x)).samples
            interior = slice(256, len(out) - 256)
            err = np.max(np.abs(out[interior] - x[: len(out)][interior]))
            assert err <= 1e-10 * np.max(np.abs(x))

    def test_zero_spectrogram(self):
        shape = (4, N_BINS)
        out = synthesize(np.zeros(shape, dtype=complex))
        assert np.all(out.samples == 0.0)

    def test_magnitude_scaling_scales_output(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(1024)
        spec = analyze(x)
        base = synthesize(spec).samples
        doubled = synthesize(2.0 * spec).samples
        assert np.allclose(doubled, 2.0 * base, rtol=1e-12, atol=1e-12)

    def test_output_length(self):
        spec = analyze(np.ones(256 + 7 * 128))
        out = synthesize(spec)
        assert len(out) == 256 + 7 * 128

    @pytest.mark.parametrize("n_frames", [1, 2, 3, 8, 41])
    def test_matches_per_frame_overlap_add(self, n_frames):
        rng = np.random.default_rng(n_frames)
        shape = (n_frames, N_BINS)
        spec = rng.uniform(0, 2, shape) * np.exp(1j * rng.uniform(-np.pi, np.pi, shape))
        # the per-frame loop the strided overlap-add replaced
        win = WINDOW
        frames = np.fft.irfft(spec, n=FFT_SIZE, axis=1)
        frames = frames[:, : FFT_SIZE] * win
        out = np.zeros((n_frames - 1) * HOP + FFT_SIZE)
        den = np.zeros_like(out)
        for i in range(n_frames):
            sl = slice(i * HOP, i * HOP + FFT_SIZE)
            out[sl] += frames[i]
            den[sl] += win * win
        expected = out / np.maximum(den, 1e-15)
        assert np.array_equal(synthesize(spec).samples, expected)

    def test_rejects_spectrum_of_another_config(self):
        spec = np.fft.rfft(np.ones((3, 512)), axis=1)  # 257 bins, a 512-point analysis's
        with pytest.raises(ValueError, match=r"expected an \(M, 129\) spectrum"):
            synthesize(spec)


class TestApplyGain:
    def _spec(self):
        rng = np.random.default_rng(4)
        return analyze(rng.standard_normal(800))

    def test_unit_gain_identity(self):
        spec = self._spec()
        out = apply_gain(spec, np.ones(spec.shape))
        assert np.array_equal(out, spec)

    def test_zero_gain(self):
        spec = self._spec()
        out = apply_gain(spec, np.zeros(spec.shape))
        assert np.all(out == 0.0)

    def test_half_gain(self):
        spec = self._spec()
        out = apply_gain(spec, np.full(spec.shape, 0.5))
        assert np.allclose(np.abs(out), 0.5 * np.abs(spec), rtol=0, atol=0)
        assert np.array_equal(np.angle(out), np.angle(spec))

    def test_rejects_negative_and_mismatched(self):
        spec = self._spec()
        with pytest.raises(ValueError):
            apply_gain(spec, -np.ones(spec.shape))
        with pytest.raises(ValueError):
            apply_gain(spec, np.ones((1, N_BINS)))


class TestPadding:
    def test_pad_covers_all_samples(self):
        for n in (256, 300, 511, 512, 513):
            padded = pad_to_frames(np.ones(n))
            assert (len(padded) - 256) % 128 == 0
            assert len(padded) >= n
            m = len(frame_signal(padded))
            assert (m - 1) * 128 + 256 == len(padded)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 4 * FFT_SIZE))
    def test_pad_is_the_shortest_whole_frame_length(self, n):
        # the smallest L >= max(n, FFT_SIZE) with (L - FFT_SIZE) % HOP == 0
        x = np.arange(1.0, n + 1.0)
        padded = pad_to_frames(x)
        shortest = max(n, FFT_SIZE)
        shortest += -(shortest - FFT_SIZE) % HOP
        assert len(padded) == shortest
        assert np.array_equal(padded[:n], x) and not padded[n:].any()

    def test_synthesize_returns_working_rate(self):
        out = synthesize(analyze(np.ones(512)))
        assert isinstance(out, TimeSignal)
        assert out.sample_rate_hz == 10000


class TestConfig:
    def test_invariants(self):
        # the window is as long as the FFT, the hop half of it
        assert (FFT_SIZE, HOP, N_BINS, len(WINDOW)) == (256, 128, 129, 256)
        assert np.array_equal(WINDOW, hann_periodic(256)) and not WINDOW.flags.writeable
        assert StftConfig() == StftConfig() and StftConfig().n_bins == 129

    def test_window_is_the_periodic_hann(self):
        # zero at the frame start, one at its centre, halves that sum to one
        assert WINDOW[0] == 0.0 and WINDOW[HOP] == 1.0
        assert np.max(np.abs(WINDOW[:HOP] + WINDOW[HOP:] - 1.0)) <= 1e-15

    @pytest.mark.parametrize("fft_size", [255, 0, -256])
    def test_odd_or_nonpositive_fft_size_rejected(self, fft_size):
        # no analysis takes an FFT size; a stored header with another is refused
        with pytest.raises(ValueError, match=f"^fft_size = {fft_size} is not 256$"):
            check_header(fft_size, HOP)
