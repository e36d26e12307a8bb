"""Band layout geometry, envelopes, and gain back-mapping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from envgain.stft import Spectrogram, StftConfig, apply_gain
from envgain.octave import (
    average_overlapping_gains,
    band_gains_to_stft_gains,
    build_band_layout,
    envelopes,
    frame_envelope,
)

CFG = StftConfig()
LAYOUT = build_band_layout(256, 10000)


def spec_from_mag(mag):
    return Spectrogram(mag, np.zeros_like(mag), CFG)


class TestBandLayout:
    def test_lowest_band_bins_match_edge_oracle(self):
        # direct edge computation: which bin centers fall inside band 0?
        lower, upper = 150.0 * 2 ** (-1 / 6), 150.0 * 2 ** (1 / 6)
        oracle = [k for k in range(129) if lower <= k * 10000 / 256 < upper]
        band = LAYOUT.bands[0]
        assert oracle == [4]
        assert (band.k1, band.k2) == (4, 5)

    def test_all_bands_match_edge_oracle(self):
        for j, band in enumerate(LAYOUT.bands):
            center = 150.0 * 2 ** (j / 3)
            lower, upper = center * 2 ** (-1 / 6), center * 2 ** (1 / 6)
            oracle = [k for k in range(129) if lower <= k * 10000 / 256 < upper]
            assert list(range(band.k1, band.k2)) == oracle

    def test_top_band_center_near_3_8_khz(self):
        center = LAYOUT.bands[14].center_hz
        assert center == pytest.approx(150.0 * 2 ** (14 / 3), abs=1e-9)
        assert abs(center - 3800.0) < 15.0  # "approximately 3.8 kHz"

    def test_adjacent_edges_meet(self):
        for lo, hi in zip(LAYOUT.bands[:-1], LAYOUT.bands[1:]):
            upper = lo.center_hz * 2 ** (1 / 6)
            lower = hi.center_hz * 2 ** (-1 / 6)
            assert upper == pytest.approx(lower, rel=1e-12)

    def test_band_partition_covers_each_bin_once(self):
        lower0 = LAYOUT.lower_edge_hz
        upper14 = LAYOUT.upper_edge_hz
        for k in range(129):
            f = k * 10000 / 256
            owners = sum(1 for b in LAYOUT.bands if b.k1 <= k < b.k2)
            if lower0 <= f < upper14:
                assert owners == 1, f"bin {k} owned by {owners} bands"
            else:
                assert owners == 0

    def test_fifteen_bands_at_defaults(self):
        assert LAYOUT.n_bands == 15
        assert LAYOUT.bands[0].center_hz == 150.0
        assert all(b.n_bins >= 1 for b in LAYOUT.bands)

    def test_empty_band_rejected(self):
        with pytest.raises(ValueError):
            build_band_layout(32, 10000)  # 312.5 Hz bins leave band 0 empty


class TestEnvelopes:
    def test_single_bin_band(self):
        mag = np.zeros((3, 129))
        mag[:, 4] = 3.0  # band 0 == bin 4 only
        env = envelopes(spec_from_mag(mag), LAYOUT)
        assert np.allclose(env[0], 3.0)

    def test_three_four_five(self):
        band = LAYOUT.bands[3]
        assert band.n_bins == 2
        mag = np.zeros((2, 129))
        mag[:, band.k1] = 3.0
        mag[:, band.k1 + 1] = 4.0
        env = envelopes(spec_from_mag(mag), LAYOUT)
        assert np.allclose(env[3], 5.0)

    def test_zero_spectrogram(self):
        env = envelopes(spec_from_mag(np.zeros((4, 129))), LAYOUT)
        assert np.all(env == 0.0)

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(0)
        mag = rng.uniform(0, 2, (6, 129))
        env = envelopes(spec_from_mag(mag), LAYOUT)
        scaled = envelopes(spec_from_mag(3.5 * mag), LAYOUT)
        assert np.allclose(scaled, 3.5 * env, rtol=1e-12)


class TestFrameEnvelope:
    ENV = np.arange(15 * 40, dtype=float).reshape(15, 40)

    def test_single_value(self):
        vec = frame_envelope(self.ENV, band=2, frame=5, n=1)
        assert vec.values.tolist() == [self.ENV[2, 5]]

    def test_first_valid_vector(self):
        vec = frame_envelope(self.ENV, band=0, frame=29, n=30)
        assert np.array_equal(vec.values, self.ENV[0, :30])
        assert (vec.band, vec.frame) == (0, 29)

    def test_constant_envelope(self):
        env = np.full((15, 40), 7.0)
        vec = frame_envelope(env, band=4, frame=35, n=30)
        assert np.all(vec.values == 7.0)

    def test_insufficient_context(self):
        with pytest.raises(ValueError):
            frame_envelope(self.ENV, band=0, frame=28, n=30)


class TestGainBackMapping:
    def test_unit_gains_fill_bands_with_ones(self):
        gains = band_gains_to_stft_gains(np.ones((15, 4)), LAYOUT, "zero")
        assert gains.shape == (4, 129)
        for band in LAYOUT.bands:
            assert np.all(gains[:, band.k1 : band.k2] == 1.0)
        assert np.all(gains[:, : LAYOUT.bands[0].k1] == 0.0)
        assert np.all(gains[:, LAYOUT.bands[-1].k2 :] == 0.0)

    def test_passthrough_policy(self):
        gains = band_gains_to_stft_gains(np.zeros((15, 2)), LAYOUT, "passthrough")
        assert np.all(gains[:, : LAYOUT.bands[0].k1] == 1.0)
        assert np.all(gains[:, LAYOUT.bands[-1].k2 :] == 1.0)
        for band in LAYOUT.bands:
            assert np.all(gains[:, band.k1 : band.k2] == 0.0)

    def test_uniform_gain_identity_on_envelopes(self):
        # applying uniform per-band gains scales each band envelope by
        # exactly that gain
        rng = np.random.default_rng(1)
        mag = rng.uniform(0.1, 2.0, (8, 129))
        spec = spec_from_mag(mag)
        band_gains = rng.uniform(0.0, 1.0, (15, 8))
        gained = apply_gain(spec, band_gains_to_stft_gains(band_gains, LAYOUT, "zero"))
        env_before = envelopes(spec, LAYOUT)
        env_after = envelopes(gained, LAYOUT)
        expected = band_gains * env_before
        assert np.max(np.abs(env_after - expected)) <= 1e-12 * np.max(env_before)

    def test_zero_gain_zeroes_exactly_one_band(self):
        band_gains = np.ones((15, 3))
        band_gains[7] = 0.0
        gains = band_gains_to_stft_gains(band_gains, LAYOUT, "zero")
        b7 = LAYOUT.bands[7]
        assert np.all(gains[:, b7.k1 : b7.k2] == 0.0)
        for j, band in enumerate(LAYOUT.bands):
            if j != 7:
                assert np.all(gains[:, band.k1 : band.k2] == 1.0)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            band_gains_to_stft_gains(np.ones((15, 2)), LAYOUT, "mirror")


def reference_average(vectors, n_frames, first_frame, fill=None):
    """The per-vector accumulation loop the array version replaced."""
    vectors = np.asarray(vectors, dtype=float)
    sums = np.zeros((n_frames, *vectors.shape[2:]))
    counts = np.zeros(n_frames, dtype=np.int64)
    n = vectors.shape[1]
    for v, values in enumerate(vectors):
        start = first_frame + v
        if start < 0 or start + n > n_frames:
            raise ValueError("out of range")
        sums[start : start + n] += values
        counts[start : start + n] += 1
    if fill is None and np.any(counts == 0):
        raise ValueError("uncovered")
    out = np.empty_like(sums)
    for f in range(n_frames):
        out[f] = sums[f] / counts[f] if counts[f] else fill
    return out


class TestAverageOverlappingGains:
    def test_constant_vectors(self):
        out = average_overlapping_gains(np.full((21, 30), 0.6), 50, 0)
        assert np.allclose(out, 0.6)

    def test_interior_frame_counts_thirty_estimates(self):
        # window v carries value v; frame 29 is covered by windows 0..29,
        # so its average is mean(0..29)
        vectors = np.repeat(np.arange(31.0)[:, None], 30, axis=1)
        out = average_overlapping_gains(vectors, 60, 0)
        assert out[29] == pytest.approx(np.mean(np.arange(30)))

    def test_frame_zero_single_estimate(self):
        values = np.arange(30, dtype=float)
        vectors = values + np.arange(11.0)[:, None]
        out = average_overlapping_gains(vectors, 40, 0)
        # only window 0 covers frame 0, via its first entry
        assert out[0] == values[0]

    def test_uncovered_frame_rejected(self):
        with pytest.raises(ValueError, match="frame 0 not covered"):
            average_overlapping_gains(np.ones((1, 30)), 40, 6)

    def test_uncovered_frames_filled(self):
        out = average_overlapping_gains(np.full((2, 5, 3), 0.5), 10, 4, fill=1.0)
        assert out.shape == (10, 3)
        assert np.all(out[:4] == 1.0) and np.all(out[4:] == 0.5)

    @pytest.mark.parametrize("first_frame, n_frames", [(-1, 40), (0, 39), (11, 50)])
    def test_out_of_range_rejected(self, first_frame, n_frames):
        # 11 windows of 30 frames span frames first_frame .. first_frame + 39
        with pytest.raises(ValueError, match="exceed"):
            average_overlapping_gains(np.ones((11, 30)), n_frames, first_frame)

    @settings(max_examples=300, deadline=None)
    @given(
        v=st.integers(0, 12),
        n=st.integers(1, 8),
        first_frame=st.integers(-2, 4),
        slack=st.integers(-2, 4),
        rest=st.lists(st.integers(1, 3), max_size=2),
        fill=st.sampled_from([None, 1.0, 0.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_vector_loop(self, v, n, first_frame, slack, rest, fill, seed):
        vectors = np.random.default_rng(seed).uniform(0.0, 1.0, (v, n, *rest))
        n_frames = max(0, first_frame + v + n - 1 + slack)
        if first_frame < 0 or first_frame + v + n - 1 > n_frames:
            with pytest.raises(ValueError, match="exceed"):
                average_overlapping_gains(vectors, n_frames, first_frame, fill)
            return
        try:
            expected = reference_average(vectors, n_frames, first_frame, fill)
        except ValueError:
            with pytest.raises(ValueError, match="not covered"):
                average_overlapping_gains(vectors, n_frames, first_frame, fill)
            return
        out = average_overlapping_gains(vectors, n_frames, first_frame, fill)
        assert np.array_equal(out, expected)
