"""Hand cases for the benchmark's reference computations and span recorder.

    python3 -m pytest bench/test_reference.py
"""

import time
import types

import numpy as np
import pytest

import reference as ref
from spans import SpanRecorder, traced


def tone(freq_hz, seconds, fs=ref.FS):
    return np.cos(2 * np.pi * freq_hz * np.arange(int(seconds * fs)) / fs)


def test_bands_are_contiguous_and_nonempty():
    bins = ref.band_bins()
    assert len(bins) == ref.N_BANDS
    assert all(len(b) > 0 for b in bins)
    assert all(b[0] == a[-1] + 1 for a, b in zip(bins, bins[1:]))


@pytest.mark.parametrize("band", [0, 5, 10, 14])
def test_tone_envelope_lands_in_its_band(band):
    center = ref.FIRST_CENTER_HZ * 2 ** (band / 3)
    env = ref.signal_envelopes(tone(center, 1.0), pad=False)
    assert env.shape == (ref.N_BANDS, (ref.FS - ref.WIN) // ref.HOP + 1)
    loudest = env.mean(axis=1)
    assert np.argmax(loudest) == band
    # a stationary tone has a nearly flat envelope (only its mirror image
    # at -f beats with it) and leaves the distant bands nearly silent
    assert np.ptp(env[band]) < 0.02 * env[band].max()
    far = [j for j in range(ref.N_BANDS) if abs(j - band) > 2]
    assert loudest[far].max() < 0.01 * loudest[band]


def test_correlation_with_affine_copy_is_one():
    x = np.random.default_rng(0).uniform(size=(6, ref.N_ENV))
    corr, valid = ref.pearson_rows(x, 3.0 * x + 2.0, need_cross=True)
    assert valid.all() and np.allclose(corr, 1.0, rtol=0, atol=1e-12)
    corr, _ = ref.pearson_rows(x, 1.0 - 0.5 * x, need_cross=True)
    assert np.allclose(corr, -1.0, rtol=0, atol=1e-12)


def test_constant_vector_is_degenerate():
    x = np.random.default_rng(1).uniform(size=(2, ref.N_ENV))
    y = x.copy()
    y[1] = 0.7
    corr, valid = ref.pearson_rows(x, y, need_cross=False)
    assert valid.tolist() == [True, False] and corr[1] == 0.0


def test_envelope_score_of_scaled_copy_is_one():
    x = np.random.default_rng(2).standard_normal(ref.FS)
    assert ref.envelope_score(x, 0.25 * x) == pytest.approx(1.0, abs=1e-12)


def test_identity_gains_rebuild_interior():
    x = np.random.default_rng(3).standard_normal(4000)
    y = ref.istft(ref.stft(ref.pad_to_frames(x)))[: len(x)]
    interior = slice(ref.WIN, len(x) - ref.WIN)
    assert np.max(np.abs(y[interior] - x[interior])) < 1e-12


def test_overlap_average_hand_case():
    vectors = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert ref.overlap_average(vectors, 4, 0).tolist() == [1.0, 3.0, 4.0, 6.0]
    assert ref.overlap_average(vectors, 6, 1, fill=1.0).tolist() == [1.0, 1.0, 3.0, 4.0, 6.0, 1.0]
    with pytest.raises(ValueError):
        ref.overlap_average(vectors, 6, 1)


def test_mlp_forward_hand_case():
    batch_norm = (np.array([2.0]), np.array([0.1]), np.array([0.5]), np.array([4.0 - ref.BN_EPS]))
    layers = [
        (np.array([[1.0, -1.0]]), np.array([0.5]), batch_norm, "relu"),
        (np.array([[1.0]]), np.array([-1.0]), None, "sigmoid"),
    ]
    out = ref.mlp_forward(layers, np.array([[3.0, 1.0], [0.0, 5.0]]))
    # row 0: z = 2.5, normalised 2 * (2.5 - 0.5) / 2 + 0.1 = 2.1; row 1 is cut by the ReLU
    assert out[:, 0] == pytest.approx([1 / (1 + np.exp(-1.1)), 1 / (1 + np.exp(1.0))], rel=1e-15)


def test_mean_cost_hand_values():
    clean = np.random.default_rng(4).uniform(size=(5, ref.N_ENV))
    gains = np.ones_like(clean)
    assert ref.mean_cost(gains, clean, clean + 1.0, "emse") == pytest.approx(1.0)
    assert ref.mean_cost(gains, clean, 2.0 * clean + 1.0, "elc") == pytest.approx(-1.0)
    joint = np.stack([clean, clean], axis=1)  # (S, J=2, N): mean over bands
    assert ref.mean_cost(np.ones_like(joint), joint, joint + 2.0, "emse") == pytest.approx(4.0)


def test_resampled_tone_keeps_its_frequency():
    y = ref.resample_to_working_rate(tone(1000.0, 1.0, fs=16000), 16000)
    assert len(y) == ref.FS
    spectrum = np.abs(np.fft.rfft(y * np.hanning(len(y))))
    assert np.argmax(spectrum) * ref.FS / len(y) == pytest.approx(1000.0, abs=1.0)
    interior = y[ref.FS // 10 : -ref.FS // 10]
    assert np.max(np.abs(interior)) == pytest.approx(1.0, abs=1e-3)


def test_working_rate_passes_through():
    x = np.random.default_rng(5).standard_normal(300)
    assert np.array_equal(ref.resample_to_working_rate(x, ref.FS), x)


def test_wav_round_trip(tmp_path):
    x = np.round(np.random.default_rng(6).uniform(-0.9, 0.9, 500) * 32768) / 32768
    ref.write_wav16(x, 16000, tmp_path / "x.wav")
    y, rate = ref.read_wav16(tmp_path / "x.wav")
    assert rate == 16000 and np.array_equal(x, y)


def test_span_self_time_excludes_children():
    recorder = SpanRecorder()
    module = types.ModuleType("envgain.fake")

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        module.inner()

    for fn in (inner, outer):
        fn.__module__ = "envgain.fake"
        setattr(module, fn.__name__, fn)
    with traced(recorder, [module], []):
        module.outer()
    assert module.outer is outer  # restored
    summary = recorder.summary()
    assert summary["fake.outer"][1] == summary["fake.inner"][1] == 1
    assert 0.01 <= summary["fake.outer"][0] < 0.02 <= summary["fake.inner"][0]
    assert recorder.spans[1][3] == 0  # inner's parent is outer
