"""STFT analysis/synthesis: reconstruction, Parseval, linearity."""

import numpy as np
import pytest

from envgain.signal_io import TimeSignal
from envgain.stft import (
    Spectrogram,
    StftConfig,
    analyze,
    apply_gain,
    hann_periodic,
    pad_to_frames,
    synthesize,
)

CFG = StftConfig()


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
        spec = analyze(x, CFG)
        assert spec.n_frames == 1
        oracle = direct_dft_magnitudes(x * hann_periodic(256))
        assert np.allclose(spec.magnitude[0], oracle, atol=1e-9)
        # periodic Hann sums to exactly half the window length
        assert spec.magnitude[0, 0] == pytest.approx(128.0, abs=1e-9)
        assert np.all(spec.magnitude[0, 2:] < 1e-9)

    def test_zero_signal(self):
        spec = analyze(np.zeros(1024), CFG)
        assert np.all(spec.magnitude == 0.0)

    def test_pure_sine_hits_single_bin(self):
        # 1250 Hz at fs=10000, K=256 lands exactly on bin 32
        n = np.arange(256 + 5 * 128)
        x = np.sin(2 * np.pi * 1250 * n / 10000)
        spec = analyze(x, CFG)
        assert np.all(np.argmax(spec.magnitude, axis=1) == 32)
        oracle = direct_dft_magnitudes(x[:256] * hann_periodic(256))
        assert np.allclose(spec.magnitude[0], oracle, atol=1e-9)

    def test_frame_count_formula(self):
        for n in (256, 257, 384, 385, 512, 1000):
            spec = analyze(np.ones(n), CFG)
            assert spec.n_frames == (n - 256) // 128 + 1

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            analyze(np.ones(255), CFG)

    def test_linearity_in_amplitude(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(1000)
        base = analyze(x, CFG)
        scaled = analyze(2.5 * x, CFG)
        assert np.allclose(scaled.magnitude, 2.5 * base.magnitude, rtol=1e-12, atol=1e-12)
        significant = base.magnitude > 1e-6
        phase_diff = np.angle(np.exp(1j * (scaled.phase - base.phase)))
        assert np.max(np.abs(phase_diff[significant])) < 1e-9

    def test_parseval_per_frame(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(256 + 4 * 128)
        spec = analyze(x, CFG)
        win = hann_periodic(256)
        for m in range(spec.n_frames):
            frame = x[m * 128 : m * 128 + 256] * win
            e_time = np.sum(frame**2)
            m2 = spec.magnitude[m] ** 2
            e_freq = (m2[0] + 2 * m2[1:-1].sum() + m2[-1]) / 256
            assert abs(e_freq / e_time - 1.0) < 1e-9


class TestSynthesize:
    def test_round_trip_interior(self):
        rng = np.random.default_rng(2)
        for trial in range(10):
            x = rng.standard_normal(rng.integers(3 * 256, 6 * 256))
            out = synthesize(analyze(x, CFG)).samples
            interior = slice(256, len(out) - 256)
            err = np.max(np.abs(out[interior] - x[: len(out)][interior]))
            assert err <= 1e-10 * np.max(np.abs(x))

    def test_zero_spectrogram(self):
        shape = (4, CFG.n_bins)
        out = synthesize(Spectrogram(np.zeros(shape), np.zeros(shape), CFG))
        assert np.all(out.samples == 0.0)

    def test_magnitude_scaling_scales_output(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(1024)
        spec = analyze(x, CFG)
        base = synthesize(spec).samples
        doubled = synthesize(Spectrogram(2.0 * spec.magnitude, spec.phase, CFG)).samples
        assert np.allclose(doubled, 2.0 * base, rtol=1e-12, atol=1e-12)

    def test_output_length(self):
        spec = analyze(np.ones(256 + 7 * 128), CFG)
        out = synthesize(spec)
        assert len(out) == 256 + 7 * 128

    @pytest.mark.parametrize("n_frames", [1, 2, 3, 8, 41])
    def test_matches_per_frame_overlap_add(self, n_frames):
        rng = np.random.default_rng(n_frames)
        shape = (n_frames, CFG.n_bins)
        spec = Spectrogram(rng.uniform(0, 2, shape), rng.uniform(-np.pi, np.pi, shape), CFG)
        # the per-frame loop the strided overlap-add replaced
        win = CFG.window()
        frames = np.fft.irfft(spec.magnitude * np.exp(1j * spec.phase), n=CFG.fft_size, axis=1)
        frames = frames[:, : CFG.window_len] * win
        out = np.zeros((n_frames - 1) * CFG.hop + CFG.window_len)
        den = np.zeros_like(out)
        for i in range(n_frames):
            sl = slice(i * CFG.hop, i * CFG.hop + CFG.window_len)
            out[sl] += frames[i]
            den[sl] += win * win
        expected = out / np.maximum(den, 1e-15)
        assert np.array_equal(synthesize(spec).samples, expected)


class TestApplyGain:
    def _spec(self):
        rng = np.random.default_rng(4)
        return analyze(rng.standard_normal(800), CFG)

    def test_unit_gain_identity(self):
        spec = self._spec()
        out = apply_gain(spec, np.ones_like(spec.magnitude))
        assert np.array_equal(out.magnitude, spec.magnitude)
        assert np.array_equal(out.phase, spec.phase)

    def test_zero_gain(self):
        spec = self._spec()
        out = apply_gain(spec, np.zeros_like(spec.magnitude))
        assert np.all(out.magnitude == 0.0)
        assert np.array_equal(out.phase, spec.phase)

    def test_half_gain(self):
        spec = self._spec()
        out = apply_gain(spec, np.full_like(spec.magnitude, 0.5))
        assert np.allclose(out.magnitude, 0.5 * spec.magnitude, rtol=0, atol=0)

    def test_rejects_negative_and_mismatched(self):
        spec = self._spec()
        with pytest.raises(ValueError):
            apply_gain(spec, -np.ones_like(spec.magnitude))
        with pytest.raises(ValueError):
            apply_gain(spec, np.ones((1, CFG.n_bins)))

    def test_rejects_shape_mismatch_spectrogram(self):
        with pytest.raises(ValueError):
            Spectrogram(np.zeros((3, CFG.n_bins)), np.zeros((2, CFG.n_bins)), CFG)


class TestPadding:
    def test_pad_covers_all_samples(self):
        for n in (256, 300, 511, 512, 513):
            padded = pad_to_frames(np.ones(n), CFG)
            assert (len(padded) - 256) % 128 == 0
            assert len(padded) >= n
            m = CFG.n_frames(len(padded))
            assert (m - 1) * 128 + 256 == len(padded)

    def test_synthesize_returns_working_rate(self):
        out = synthesize(analyze(np.ones(512), CFG))
        assert isinstance(out, TimeSignal)
        assert out.sample_rate_hz == 10000


class TestConfig:
    def test_invariants(self):
        with pytest.raises(ValueError):
            StftConfig(256, 256, 64)  # hop must be half the window
        with pytest.raises(ValueError):
            StftConfig(512, 256, 128)  # fft must equal window length
        assert CFG.n_bins == 129
