"""Band layout geometry, envelopes, and gain back-mapping."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from envgain import modeldir
from envgain.stft import analyze, apply_gain, magnitude
from envgain.octave import (
    LAYOUT,
    average_overlapping_gains,
    band_gains_to_stft_gains,
    build_band_layout,
    check_header,
    envelopes,
)


def spec_from_mag(mag):
    """The complex spectrum of magnitudes `mag` and zero phase."""
    return mag + 0j


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
        lower0 = LAYOUT.bands[0].center_hz / 2 ** (1 / 6)
        upper14 = LAYOUT.bands[-1].center_hz * 2 ** (1 / 6)
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
        assert build_band_layout() == LAYOUT


def written_header():
    """The header fields a model directory's system.txt stores, as its
    reader types them."""
    record = modeldir.KINDS["per-band"].record
    return {key: modeldir.checked(key, str(record[key][1]), record[key][0])
            for key in modeldir.HEADER_KEYS}


def header_value(written):
    """Either the value a writer stores or another one of its type."""
    other = st.integers(-2, 20_000) if isinstance(written, int) else st.floats(allow_nan=True)
    return st.one_of(st.just(written), other)


class TestStoredLayout:
    """`check_header`, the one check of a stored record's layout fields."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_accepts_exactly_the_written_header(self, data):
        written = written_header()
        header = {key: data.draw(header_value(value), label=key) for key, value in written.items()}
        if header == written:
            assert check_header(**header) is None
        else:
            with pytest.raises(ValueError):
                check_header(**header)

    @pytest.mark.parametrize("key, value, message", [
        ("hop", 64, "hop = 64 is not 128"),
        ("sample_rate_hz", 9000, "sample_rate_hz = 9000 is not 10000"),
        ("n_bands", 12, "n_bands = 12 is not 15"),
        ("first_center_hz", 170.0, "first_center_hz = 170.0 is not 150.0"),
        ("fft_size", 512, "fft_size = 512 is not 256"),
        ("hop", 256, "hop = 256 is not 128"),
        ("n_env", 20, "n_env = 20 is not 30"),
    ])
    def test_refusal_names_the_field(self, key, value, message):
        header = {**written_header(), key: value}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_header(**header)

    def test_record_without_band_fields_gets_the_fixed_ones(self):
        assert check_header(256, 128) is None
        with pytest.raises(ValueError, match=r"^fft_size = 512 is not 256$"):
            check_header(512, 256)


class TestEnvelopes:
    def test_single_bin_band(self):
        mag = np.zeros((3, 129))
        mag[:, 4] = 3.0  # band 0 == bin 4 only
        env = envelopes(mag)
        assert np.allclose(env[0], 3.0)

    def test_three_four_five(self):
        band = LAYOUT.bands[3]
        assert band.n_bins == 2
        mag = np.zeros((2, 129))
        mag[:, band.k1] = 3.0
        mag[:, band.k1 + 1] = 4.0
        env = envelopes(mag)
        assert np.allclose(env[3], 5.0)

    def test_zero_spectrogram(self):
        env = envelopes(np.zeros((4, 129)))
        assert np.all(env == 0.0)

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(0)
        mag = rng.uniform(0, 2, (6, 129))
        env = envelopes(mag)
        scaled = envelopes(3.5 * mag)
        assert np.allclose(scaled, 3.5 * env, rtol=1e-12)


def spectrogram_envelopes(spec, layout):
    """The band loop `envelopes` ran on a spectrogram's magnitudes before it
    took the magnitude array."""
    out = np.empty((layout.n_bands, len(spec)))
    for j, band in enumerate(layout.bands):
        out[j] = np.sqrt(np.sum(np.abs(spec)[:, band.k1 : band.k2] ** 2, axis=1))
    return out


class TestEnvelopesFromMagnitude:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(256, 4000), st.integers(0, 2**32 - 1), st.data())
    def test_equals_spectrogram_band_loop(self, n, seed, data):
        x = np.random.default_rng(seed).standard_normal(n)
        lo = data.draw(st.integers(0, n))
        x[lo : data.draw(st.integers(lo, n))] = 0.0  # a silent stretch
        assert np.array_equal(envelopes(magnitude(x)), spectrogram_envelopes(analyze(x), LAYOUT))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="magnitude array"):
            envelopes(np.zeros(129))
        with pytest.raises(ValueError, match="exceeds"):
            envelopes(np.zeros((3, 64)))


class TestGainBackMapping:
    def test_unit_gains_fill_bands_with_ones(self):
        gains = band_gains_to_stft_gains(np.ones((15, 4)))
        assert gains.shape == (4, 129)
        for band in LAYOUT.bands:
            assert np.all(gains[:, band.k1 : band.k2] == 1.0)
        assert np.all(gains[:, : LAYOUT.bands[0].k1] == 0.0)
        assert np.all(gains[:, LAYOUT.bands[-1].k2 :] == 0.0)

    def test_uniform_gain_identity_on_envelopes(self):
        # applying uniform per-band gains scales each band envelope by
        # exactly that gain
        rng = np.random.default_rng(1)
        mag = rng.uniform(0.1, 2.0, (8, 129))
        spec = spec_from_mag(mag)
        band_gains = rng.uniform(0.0, 1.0, (15, 8))
        gained = apply_gain(spec, band_gains_to_stft_gains(band_gains))
        env_before = envelopes(np.abs(spec))
        env_after = envelopes(np.abs(gained))
        expected = band_gains * env_before
        assert np.max(np.abs(env_after - expected)) <= 1e-12 * np.max(env_before)

    def test_zero_gain_zeroes_exactly_one_band(self):
        band_gains = np.ones((15, 3))
        band_gains[7] = 0.0
        gains = band_gains_to_stft_gains(band_gains)
        b7 = LAYOUT.bands[7]
        assert np.all(gains[:, b7.k1 : b7.k2] == 0.0)
        for j, band in enumerate(LAYOUT.bands):
            if j != 7:
                assert np.all(gains[:, band.k1 : band.k2] == 1.0)


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
