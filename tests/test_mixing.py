"""Active level, SNR-exact mixing, noise synthesis, dataset assembly."""

import struct
import threading
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sp

from envgain import baseline, fanout, mixing
from envgain.mixing import (
    DatasetFormatError,
    EnvelopeDataset,
    MixSpec,
    active_speech_level,
    build_dataset,
    load_dataset,
    mix_at_snr,
    overall_level,
    pseudo_corpus,
    pseudo_speech,
    read_manifest,
    save_dataset,
    split_noise,
    synth_babble,
    synth_ssn,
)
from envgain.signal_io import WORKING_RATE_HZ, TimeSignal
from test_pipeline import call_threads

FS = WORKING_RATE_HZ


def white(n, seed, scale=0.3):
    return TimeSignal(scale * np.random.default_rng(seed).standard_normal(n), FS)


def band_powers(x, centers):
    freqs, psd = sp.welch(x, FS, nperseg=512)
    out = []
    for c in centers:
        sel = (freqs >= c * 2 ** (-1 / 6)) & (freqs < c * 2 ** (1 / 6))
        out.append(psd[sel].sum())
    return np.asarray(out)


THIRD_OCTAVE_CENTERS = 150.0 * 2 ** (np.arange(15) / 3)


class TestActiveSpeechLevel:
    def test_steady_sine_matches_rms(self):
        t = np.arange(2 * FS) / FS
        sig = TimeSignal(np.sin(2 * np.pi * 997 * t), FS)
        rms_db = 20 * np.log10(np.sqrt(np.mean(sig.samples**2)))
        assert abs(active_speech_level(sig) - rms_db) < 0.5
        assert rms_db == pytest.approx(-3.01, abs=0.01)

    def test_burst_plus_silence(self):
        burst = white(int(2.5 * FS), seed=0).samples
        sig = TimeSignal(np.concatenate([burst, np.zeros(int(2.5 * FS))]), FS)
        burst_db = 20 * np.log10(np.sqrt(np.mean(burst**2)))
        overall_db = overall_level(sig)
        asl = active_speech_level(sig)
        assert abs(asl - burst_db) < 1.0
        assert overall_db == pytest.approx(burst_db - 3.01, abs=0.05)

    def test_exact_scale_equivariance(self):
        sig = pseudo_speech(3.0, seed=1)
        base = active_speech_level(sig)
        for a in (0.123, 3.7, 0.008):
            scaled = TimeSignal(a * sig.samples, FS)
            shift = active_speech_level(scaled) - base
            assert shift == pytest.approx(20 * np.log10(a), abs=1e-9)

    def test_silent_rejected(self):
        with pytest.raises(ValueError):
            active_speech_level(TimeSignal(np.zeros(1000), FS))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_rejected(self, bad):
        x = white(5000, seed=3).samples
        x[2500] = bad
        with pytest.raises(ValueError, match="non-finite"):
            active_speech_level(TimeSignal(x, FS))


def per_rung_level(sig):
    """The ladder that `active_speech_level` replaced, kept as its
    reference: each rung rescans the envelope for the last sample at or
    above its threshold."""
    x = sig.samples
    sq = float(np.sum(x * x))
    if sq <= 0.0:
        raise ValueError("active level undefined for an all-silent signal")
    fs = sig.sample_rate_hz
    g = np.exp(-1.0 / (fs * mixing.LEVEL_SMOOTH_TC_S))
    p = sp.lfilter([1 - g], [1, -g], np.abs(x))
    env = sp.lfilter([1 - g], [1, -g], p)
    env_peak = float(env.max())
    if env_peak <= 0.0:
        raise ValueError("active level undefined for an all-silent signal")
    hang = int(round(mixing.LEVEL_HANGOVER_S * fs))
    idx = np.arange(len(x))
    prev = None
    for j in range(1, mixing._LADDER_MAX):
        thresh = env_peak * 2.0 ** (-j)
        last_on = np.maximum.accumulate(np.where(env >= thresh, idx, -(10**12)))
        count = int(np.count_nonzero(idx - last_on <= hang))
        if count == 0:
            continue
        level_db = 10.0 * np.log10(sq / count)
        gap_db = level_db - 20.0 * np.log10(thresh)
        if gap_db >= mixing.LEVEL_MARGIN_DB:
            if prev is None:
                return level_db
            prev_gap, prev_level = prev
            t = (mixing.LEVEL_MARGIN_DB - prev_gap) / (gap_db - prev_gap)
            return prev_level + t * (level_db - prev_level)
        prev = (gap_db, level_db)
    return prev[1]


def level_outcome(fn, sig):
    try:
        return fn(sig)
    except ValueError as e:
        return str(e)


class TestTrailingMaxLevel:
    @settings(max_examples=300, deadline=None)
    @given(x=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40),
           width=st.integers(1, 50))
    def test_trailing_max_is_the_naive_window_max(self, x, width):
        arr = np.array(x)
        naive = [max(arr[max(0, i - width + 1) : i + 1]) for i in range(len(arr))]
        assert np.array_equal(mixing._trailing_max(arr, width), naive)

    @settings(max_examples=150, deadline=None)
    @given(fs=st.sampled_from([8000, 10000, 16000, 44100]),
           kind=st.sampled_from(["sparse", "impulse", "bursts", "near-silent"]),
           duration_s=st.floats(0.001, 0.8), seed=st.integers(0, 2**32 - 1))
    def test_level_keeps_the_bits_of_the_per_rung_ladder(self, fs, kind, duration_s, seed):
        """Sparse signals, single impulses, signals shorter than the 0.2 s
        hangover and near-silent ones, at four rates."""
        rng = np.random.default_rng(seed)
        n = max(1, int(duration_s * fs))
        x = np.zeros(n)
        if kind == "sparse":
            at = rng.integers(0, n, rng.integers(1, 20))
            x[at] = rng.standard_normal(len(at))
        elif kind == "impulse":
            x[rng.integers(0, n)] = rng.uniform(-1, 1)
        elif kind == "bursts":
            x = rng.standard_normal(n) * (rng.random(n // 400 + 1) < 0.4).repeat(400)[:n]
        else:
            x = rng.standard_normal(n) * 10.0 ** rng.uniform(-160, -100)
        sig = TimeSignal(x, fs)
        assert level_outcome(active_speech_level, sig) == level_outcome(per_rung_level, sig)

    @pytest.mark.parametrize("fs", [8000, 10000, 44100])
    def test_silence_raises_the_same_error(self, fs):
        sig = TimeSignal(np.zeros(fs // 3), fs)
        message = "active level undefined for an all-silent signal"
        assert level_outcome(active_speech_level, sig) == level_outcome(per_rung_level, sig)
        assert level_outcome(active_speech_level, sig) == message

    def test_speech_level_keeps_its_bits(self):
        for seed in range(4):
            sig = pseudo_speech(2.0, seed=seed, fs=16000)
            assert active_speech_level(sig) == per_rung_level(sig)


class TestMixAtSnr:
    def test_zero_snr_equal_powers_for_fully_active_speech(self):
        speech = white(2 * FS, seed=2)  # stationary: active level == RMS level
        noise = white(5 * FS, seed=3)
        _, scaled = mix_at_snr(speech, noise, 0.0, rng=4)
        assert abs(active_speech_level(speech) - overall_level(scaled)) < 0.05

    def test_huge_snr_leaves_speech(self):
        speech = pseudo_speech(2.0, seed=5)
        noise = white(5 * FS, seed=6)
        mixture, _ = mix_at_snr(speech, noise, 100.0, rng=7)
        err = np.sum((mixture.samples - speech.samples) ** 2) / np.sum(speech.samples**2)
        assert err < 1e-9

    def test_requested_snr_reproduced(self):
        rng = np.random.default_rng(8)
        noise = synth_ssn([pseudo_speech(8.0, seed=s) for s in range(4)], 20.0, seed=9)
        for trial in range(5):
            speech = pseudo_speech(2.0, seed=100 + trial)
            snr = float(rng.uniform(-10, 15))
            mixture, scaled = mix_at_snr(speech, noise, snr, rng=trial)
            measured = active_speech_level(speech) - overall_level(scaled)
            assert measured == pytest.approx(snr, abs=0.01)
            assert np.array_equal(mixture.samples, speech.samples + scaled.samples)

    def test_noise_too_short(self):
        with pytest.raises(ValueError):
            mix_at_snr(white(1000, 0), white(999, 1), 0.0)

    def test_silent_noise(self):
        with pytest.raises(ValueError):
            mix_at_snr(white(1000, 0), TimeSignal(np.zeros(2000), FS), 0.0)

    def test_non_finite_noise_gain_rejected(self):
        # -1e308 dB asks for a noise gain of 10**(1e308/20): not a number
        with pytest.raises(ValueError, match="not finite"):
            mix_at_snr(white(1000, 0), white(2000, 1), -1e308)

    def test_seeded_segment_choice_is_deterministic(self):
        speech = white(FS, seed=10)
        noise = white(4 * FS, seed=11)
        a, _ = mix_at_snr(speech, noise, 3.0, rng=12)
        b, _ = mix_at_snr(speech, noise, 3.0, rng=12)
        assert np.array_equal(a.samples, b.samples)


class TestSynthSsn:
    REF = [pseudo_speech(8.0, seed=s) for s in range(5)]  # 40 s of reference

    def test_matches_reference_spectrum_within_2db(self):
        noise = synth_ssn(self.REF, 30.0, seed=0)
        ref = np.concatenate([r.samples for r in self.REF])
        p_ref = band_powers(ref, THIRD_OCTAVE_CENTERS)
        p_out = band_powers(noise.samples, THIRD_OCTAVE_CENTERS)
        # compare band shape, with overall level aligned
        diff = 10 * np.log10(p_out / p_ref)
        diff -= diff.mean()
        assert np.max(np.abs(diff)) < 2.0

    def test_two_seeds_differ_same_spectrum(self):
        a = synth_ssn(self.REF, 20.0, seed=1)
        b = synth_ssn(self.REF, 20.0, seed=2)
        assert not np.array_equal(a.samples, b.samples)
        pa = band_powers(a.samples, THIRD_OCTAVE_CENTERS)
        pb = band_powers(b.samples, THIRD_OCTAVE_CENTERS)
        assert np.max(np.abs(10 * np.log10(pa / pb))) < 2.0

    def test_flat_reference_gives_white_noise(self):
        flat = [white(8 * FS, seed=s, scale=0.1) for s in range(4)]
        noise = synth_ssn(flat, 30.0, seed=3)
        p = band_powers(noise.samples, THIRD_OCTAVE_CENTERS)
        # white noise has equal power per Hz; normalize by bandwidth
        widths = THIRD_OCTAVE_CENTERS * (2 ** (1 / 6) - 2 ** (-1 / 6))
        per_hz = 10 * np.log10(p / widths)
        assert np.ptp(per_hz) < 2.0

    def test_unit_rms(self):
        noise = synth_ssn(self.REF, 15.0, seed=4)
        assert np.sqrt(np.mean(noise.samples**2)) == pytest.approx(1.0, abs=1e-9)

    def test_insufficient_reference(self):
        with pytest.raises(ValueError):
            synth_ssn([pseudo_speech(5.0, seed=0)], 10.0, seed=0)

    BLOCK = mixing._WELCH_BLOCK

    @settings(max_examples=60, deadline=None)
    @given(n_seg=st.one_of(st.integers(1, 40), st.sampled_from([BLOCK - 1, BLOCK, BLOCK + 1])),
           tail=st.integers(0, mixing.SSN_FIR_TAPS // 2 - 1),
           scale=st.floats(1e-6, 1e6), offset=st.floats(-1e3, 1e3),
           seed=st.integers(0, 2**32 - 1))
    def test_welch_psd_is_scipy_welch_bit_for_bit(self, n_seg, tail, scale, offset, seed):
        """Segment counts around the block size, lengths from one segment
        up, with every leftover tail shorter than a hop."""
        hop = mixing.SSN_FIR_TAPS // 2
        x = offset + scale * np.random.default_rng(seed).standard_normal((n_seg + 1) * hop + tail)
        freqs, psd = mixing._welch_psd(x)
        ref_freqs, ref_psd = sp.welch(x, WORKING_RATE_HZ, nperseg=mixing.SSN_FIR_TAPS)
        assert np.array_equal(freqs, ref_freqs)
        assert np.array_equal(psd, ref_psd)


class TestSynthBabble:
    REF = pseudo_corpus(8, 4.0, seed=42)

    def test_single_speaker_unit_rms(self):
        bab = synth_babble(self.REF, num_speakers=1, duration_s=10.0, seed=0)
        assert len(bab) == 10 * FS
        assert np.sqrt(np.mean(bab.samples**2)) == pytest.approx(1.0, abs=1e-6)

    def test_output_rms_is_one(self):
        bab = synth_babble(self.REF, num_speakers=6, duration_s=12.0, seed=1)
        assert np.sqrt(np.mean(bab.samples**2)) == pytest.approx(1.0, abs=1e-6)

    def test_more_speakers_less_modulation(self):
        def modulation(x, frame=500):
            n = len(x) // frame
            rms = np.sqrt(np.mean(x[: n * frame].reshape(n, frame) ** 2, axis=1))
            return rms.std() / rms.mean()

        solo = synth_babble(self.REF, num_speakers=1, duration_s=20.0, seed=2)
        crowd = synth_babble(self.REF, num_speakers=6, duration_s=20.0, seed=2)
        assert modulation(crowd.samples) < modulation(solo.samples)

    def test_insufficient_streams(self):
        with pytest.raises(ValueError):
            synth_babble(self.REF[:3], num_speakers=6, duration_s=5.0, seed=0)


class TestSplitNoise:
    def test_disjoint_contiguous_exact(self):
        noise = white(10 * FS, seed=0)
        train, val, test = split_noise(noise, 5.0, 2.0, 3.0)
        assert (len(train), len(val), len(test)) == (5 * FS, 2 * FS, 3 * FS)
        joined = np.concatenate([train.samples, val.samples, test.samples])
        assert np.array_equal(joined, noise.samples[: len(joined)])

    def test_too_short(self):
        with pytest.raises(ValueError):
            split_noise(white(FS, 0), 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("lengths", [(10.0, 10.0, -15.0), (-1.0, 1.0, 1.0), (1.0, -0.5, 1.0)])
    def test_negative_length_rejected(self, lengths):
        # the lengths sum to at most the 5 s of noise, so only the sign can refuse them
        with pytest.raises(ValueError, match="cannot cut segments of"):
            split_noise(white(5 * FS, 0), *lengths)


class TestPseudoSpeech:
    def test_deterministic_and_normalized(self):
        a = pseudo_speech(2.0, seed=7)
        b = pseudo_speech(2.0, seed=7)
        assert np.array_equal(a.samples, b.samples)
        assert np.sqrt(np.mean(a.samples**2)) == pytest.approx(0.1, abs=1e-12)

    @pytest.mark.parametrize("fs", [10000, 16000, 44100])
    def test_hiss_filter_designed_once_keeps_the_samples(self, fs, monkeypatch):
        def fresh_design(rate):
            return sp.butter(4, [2000 / (rate / 2), 4500 / (rate / 2)], btype="band")

        assert mixing._hiss_filter(fs) is mixing._hiss_filter(fs)
        for cached, fresh in zip(mixing._hiss_filter(fs), fresh_design(fs)):
            assert np.array_equal(cached, fresh)
        cached = pseudo_speech(1.5, seed=9, fs=fs)
        monkeypatch.setattr(mixing, "_hiss_filter", fresh_design)
        assert np.array_equal(cached.samples, pseudo_speech(1.5, seed=9, fs=fs).samples)

    def test_corpus_utterances_distinct(self):
        corpus = pseudo_corpus(4, 1.5, seed=8)
        assert len(corpus) == 4
        assert not np.array_equal(corpus[0].samples, corpus[1].samples)

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from([10000, 16000]), st.floats(0.2, 3.0), st.integers(0, 2**32 - 1))
    def test_harmonic_blocks_keep_the_per_harmonic_bits(self, fs, duration_s, seed):
        # tobytes, not array_equal: array_equal hides the sign of zero
        assert (pseudo_speech(duration_s, seed, fs).samples.tobytes()
                == per_harmonic_pseudo_speech(duration_s, seed, fs).tobytes())

    def test_corpus_bits_do_not_depend_on_the_worker_count(self, monkeypatch):
        corpora = []
        for workers in (1, 2, 8):
            monkeypatch.setattr(fanout, "_WORKERS", workers)
            corpora.append(b"".join(u.samples.tobytes() for u in pseudo_corpus(9, 0.8, seed=13)))
        assert corpora[0] == corpora[1] == corpora[2]

    def test_syllable_bits_do_not_depend_on_the_worker_count(self, monkeypatch):
        outputs = []
        for workers in (1, 2, 8):
            monkeypatch.setattr(fanout, "_WORKERS", workers)
            outputs.append(pseudo_speech(3.0, seed=17, fs=16000).samples.tobytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_syllables_run_on_pool_threads(self, monkeypatch):
        # each syllable task filters its own hiss; the draw pass filters nothing
        monkeypatch.setattr(fanout, "_WORKERS", 2)
        threads = call_threads(monkeypatch, "lfilter", sp)
        pseudo_speech(2.0, seed=18)
        assert threads and threading.get_ident() not in threads

    @pytest.mark.parametrize("fs", [8000, 9000, 0, -16000, 16000.5])
    def test_rate_without_room_for_the_hiss_band_is_refused(self, fs):
        # harmonics and hiss reach 4.5 kHz, so the rate must exceed 9 kHz
        with pytest.raises(ValueError, match="^fs must be an integer above 9000 Hz"):
            pseudo_speech(1.0, seed=1, fs=fs)

    def test_rate_just_above_9000_hz_is_accepted(self):
        assert len(pseudo_speech(1.0, seed=1, fs=9001)) == 9001

    @pytest.mark.parametrize("duration_s", [0.0, 1e-5, 1e-4, -1.0, float("nan"), float("inf")])
    def test_bad_duration_named(self, duration_s):
        with pytest.raises(ValueError, match="duration_s"):
            pseudo_speech(duration_s, seed=1)

    def test_two_samples_suffice(self):
        assert len(pseudo_speech(2 / FS, seed=1)) == 2


def per_harmonic_pseudo_speech(duration_s, seed, fs):
    """`pseudo_speech`'s samples as the per-harmonic loop made them."""
    rng = np.random.default_rng(seed)
    n = int(round(duration_s * fs))
    out = np.zeros(n)
    hiss_b, hiss_a = mixing._hiss_filter(fs)
    pos = 0
    wrote = False
    while pos < n:
        if wrote and rng.random() < 0.22:
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
        syllable += 0.08 * sp.lfilter(hiss_b, hiss_a, rng.standard_normal(dur))
        env = np.sin(np.pi * np.arange(dur) / dur) ** 2 * rng.uniform(0.35, 1.0)
        out[pos : pos + dur] = syllable * env
        pos += dur
        wrote = True
    return 0.1 * out / np.sqrt(np.mean(out**2))


def envelope_dataset_bytes(speech, noise):
    ds = build_dataset(speech, noise, seed=8)
    arrays = [*ds.clean_env, *ds.noisy_env, ds.index]
    return b"".join(a.tobytes() for a in arrays) + repr(ds.mixes).encode()


def magnitude_dataset_bytes(speech, noise):
    ds = baseline.build_magnitude_dataset(speech, noise, seed=8)
    return b"".join(a.tobytes() for a in [*ds.clean_mag, *ds.noisy_mag, ds.index])


class TestBuildDataset:
    SPEECH = pseudo_corpus(3, 1.5, seed=20)
    NOISE = synth_ssn(pseudo_corpus(4, 8.0, seed=21), 20.0, seed=22)
    FEATURE_DS = build_dataset(SPEECH, NOISE, split="train", seed=7)

    def test_sample_counts(self):
        ds = build_dataset(self.SPEECH, self.NOISE, split="train", seed=0)
        expected_frames = 0
        for sig in self.SPEECH:
            m = (len(sig) - 256) // 128 + 1
            expected_frames += m - 30 + 1
        assert ds.n_frames == expected_frames
        assert len(ds) == expected_frames * 15  # one sample per band

    def test_noise_free_mixture_gives_equal_envelopes(self):
        ds = build_dataset(self.SPEECH[:1], self.NOISE, split="test", seed=2,
                           snr_range_db=(300.0, 300.0))
        assert np.allclose(ds.clean_env[0], ds.noisy_env[0], rtol=1e-6)

    def test_regeneration_is_bit_identical(self):
        a = build_dataset(self.SPEECH, self.NOISE, split="train", seed=4)
        b = build_dataset(self.SPEECH, self.NOISE, split="train", seed=4)
        assert all(np.array_equal(x, y) for x, y in zip(a.noisy_env, b.noisy_env))
        assert np.array_equal(a.index, b.index)
        assert a.mixes == b.mixes

    def test_seed_beyond_the_pack_field_is_refused(self, tmp_path):
        # a pack stores each mixture's seed as a signed 64-bit integer: the
        # largest that fits is written and read back, the next is refused
        ds = build_dataset(self.SPEECH[:1], self.NOISE, split="train", seed=2**63 - 1)
        save_dataset(ds, tmp_path / "a.pack")
        assert load_dataset(tmp_path / "a.pack").mixes == ds.mixes
        with pytest.raises(ValueError, match="does not fit a pack's 64-bit seed field"):
            build_dataset(self.SPEECH[:1], self.NOISE, split="train", seed=2**63)

    @pytest.mark.parametrize("dataset_bytes", [envelope_dataset_bytes, magnitude_dataset_bytes])
    def test_bits_do_not_depend_on_the_worker_count(self, monkeypatch, dataset_bytes):
        datasets = []
        for workers in (1, 2, 8):
            monkeypatch.setattr(fanout, "_WORKERS", workers)
            datasets.append(dataset_bytes(self.SPEECH, self.NOISE))
        assert datasets[0] == datasets[1] == datasets[2]

    def test_snr_range_respected(self):
        ds = build_dataset(self.SPEECH, self.NOISE, split="train", seed=5,
                           snr_range_db=(-5.0, 10.0))
        assert all(-5.0 <= m.snr_db <= 10.0 for m in ds.mixes)

    def test_features_match_windows(self):
        ds = build_dataset(self.SPEECH[:1], self.NOISE, split="train", seed=6)
        feats = ds.features([0, 5])
        for i, row in enumerate([0, 5]):
            utt, frame = ds.index[row]
            noisy = ds.noisy_env[utt][:, frame - ds.n_env + 1 : frame + 1]
            assert np.array_equal(feats[i], np.log1p(noisy).reshape(-1))

    def test_band_targets_match_windows(self):
        ds = build_dataset(self.SPEECH[:1], self.NOISE, split="train", seed=6)
        band_clean, band_noisy = ds.targets([3, 7], slice(4, 5))
        clean, noisy = ds.targets([3, 7])
        assert band_clean.shape == (2, 1, ds.n_env) and clean.shape == (2, 15, ds.n_env)
        for i, row in enumerate([3, 7]):
            utt, frame = ds.index[row]
            sl = slice(frame - ds.n_env + 1, frame + 1)
            c, y = ds.clean_env[utt][:, sl], ds.noisy_env[utt][:, sl]
            assert np.array_equal(band_clean[i], c[4:5])
            assert np.array_equal(band_noisy[i], y[4:5])
            assert np.array_equal(clean[i], c)
            assert np.array_equal(noisy[i], y)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_features_equal_per_window_log1p(self, data):
        # rows drawn across all three utterances, in any order, repeats allowed
        ds = self.FEATURE_DS
        rows = data.draw(st.lists(st.integers(0, ds.n_frames - 1), min_size=1, max_size=60))
        expected = [np.log1p(ds.noisy_env[utt][:, frame - ds.n_env + 1 : frame + 1]).reshape(-1)
                    for utt, frame in ds.index[rows]]
        assert np.array_equal(ds.features(rows), np.array(expected))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 90), max_size=12), st.integers(1, 40))
    def test_frame_index_equals_the_per_frame_loop(self, lengths, width):
        # utterances shorter than one window, of any length down to none, give no row
        index = []
        for u, m in enumerate(lengths):
            for frame in range(width - 1, m):
                index.append((u, frame))
        expected = np.asarray(index, dtype=np.int64).reshape(-1, 2)
        got = mixing.frame_index(lengths, width)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)


class TestDatasetPack:
    def test_round_trip(self, tmp_path):
        speech = pseudo_corpus(2, 1.2, seed=30)
        noise = synth_ssn(pseudo_corpus(4, 8.0, seed=31), 15.0, seed=32)
        ds = build_dataset(speech, noise, split="validation", seed=33,
                           noise_source="ssn")
        path = tmp_path / "d.pack"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.n_env == ds.n_env
        assert np.array_equal(back.index, ds.index)
        assert all(np.array_equal(a, b) for a, b in zip(back.clean_env, ds.clean_env))
        assert all(np.array_equal(a, b) for a, b in zip(back.noisy_env, ds.noisy_env))
        assert back.mixes == ds.mixes

    def test_corruption_detected(self, tmp_path):
        ds = EnvelopeDataset(
            [np.ones((15, 40))], [np.ones((15, 40))],
            [(0, m) for m in range(29, 40)],
            mixes=[MixSpec(0.0, "ssn", "train", 1)],
        )
        path = tmp_path / "d.pack"
        save_dataset(ds, path)
        raw = bytearray(path.read_bytes())
        raw[60] ^= 0x55
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError):
            load_dataset(path)

    @pytest.mark.parametrize("cut", [3, 5, 100])
    def test_truncation_with_valid_crc_is_format_error(self, tmp_path, cut):
        ds = EnvelopeDataset(
            [np.ones((15, 40))], [np.ones((15, 40))],
            [(0, m) for m in range(29, 40)],
            mixes=[MixSpec(0.0, "ssn", "train", 1)],
        )
        path = tmp_path / "d.pack"
        save_dataset(ds, path)
        cut_pack(path, cut)
        with pytest.raises(DatasetFormatError, match="truncated"):
            load_dataset(path)

    @pytest.mark.parametrize("shape", [(12, 40), (40,), (15, 2, 40)])
    def test_envelopes_of_another_band_count_refused(self, shape):
        # such a dataset would save to a pack that `load_dataset` refuses
        with pytest.raises(ValueError, match=r"envelope matrices must be \(15, M\)"):
            EnvelopeDataset([np.ones(shape)], [np.ones(shape)], [])

    def test_trailing_bytes_rejected(self, tmp_path):
        ds = EnvelopeDataset([np.ones((15, 30))], [np.ones((15, 30))], [(0, 29)])
        path = tmp_path / "d.pack"
        save_dataset(ds, path)
        payload = path.read_bytes()[:-4] + b"\0" * 8
        path.write_bytes(payload + struct.pack("<I", zlib.crc32(payload)))
        with pytest.raises(DatasetFormatError, match="trailing"):
            load_dataset(path)

    @pytest.mark.parametrize("row", [(7, 40), (-1, 35), (0, 28), (0, 40)])
    def test_index_row_past_stored_frames_rejected(self, tmp_path, row):
        ds = EnvelopeDataset([np.ones((15, 40))] * 3, [np.ones((15, 40))] * 3, [(2, 39), row])
        save_dataset(ds, tmp_path / "d.pack")
        with pytest.raises(DatasetFormatError, match="index row 1"):
            load_dataset(tmp_path / "d.pack")

    @pytest.mark.parametrize(
        "offset, fmt, value",
        [(21, "<I", 0), (21, "<I", 100), (29, "<I", 0), (29, "<I", 64), (33, "<d", float("nan")),
         (33, "<d", 1e9), (21, "<I", 512), (25, "<I", 256), (17, "<I", 20), (17, "<I", 0),
         (13, "<I", 0)],
    )
    def test_bad_stft_or_band_header_rejected(self, tmp_path, offset, fmt, value):
        # header: magic 5, version 4, counts 12 (the last n_env), then fft_size, hop,
        # fs, first center
        ds = EnvelopeDataset([np.ones((15, 30))], [np.ones((15, 30))], [(0, 29)])
        path = tmp_path / "d.pack"
        save_dataset(ds, path)
        patch_pack(path, offset, struct.pack(fmt, value))
        with pytest.raises(DatasetFormatError, match="header"):
            load_dataset(path)

    def test_pack_of_no_utterances_rejected(self, tmp_path):
        ds = EnvelopeDataset([np.ones((15, 30))], [np.ones((15, 30))], [(0, 29)])
        save_dataset(ds, tmp_path / "d.pack")
        patch_pack(tmp_path / "d.pack", 9, struct.pack("<I", 0))
        with pytest.raises(DatasetFormatError, match="no utterances"):
            load_dataset(tmp_path / "d.pack")

    def test_non_utf8_mix_string_rejected(self, tmp_path):
        ds = EnvelopeDataset([np.ones((15, 30))], [np.ones((15, 30))], [(0, 29)],
                             mixes=[MixSpec(0.0, "ssn", "train", 1)])
        path = tmp_path / "d.pack"
        save_dataset(ds, path)
        patch_pack(path, path.read_bytes().index(b"ssn"), b"\xff")
        with pytest.raises(DatasetFormatError, match="UTF-8"):
            load_dataset(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -2.0])
    def test_non_finite_or_negative_envelope_rejected(self, tmp_path, value):
        noisy = np.ones((15, 40))
        noisy[3, 17] = value
        ds = EnvelopeDataset([np.ones((15, 40))], [noisy], [(0, 39)])
        save_dataset(ds, tmp_path / "d.pack")
        with pytest.raises(DatasetFormatError, match="finite and non-negative"):
            load_dataset(tmp_path / "d.pack")


def patch_pack(path, offset, new_bytes):
    """Overwrite payload bytes at `offset` and recompute the CRC."""
    payload = bytearray(path.read_bytes()[:-4])
    payload[offset : offset + len(new_bytes)] = new_bytes
    path.write_bytes(bytes(payload) + struct.pack("<I", zlib.crc32(payload)))


def cut_pack(path, n_bytes):
    """Drop the last n_bytes of a pack's payload and recompute its CRC."""
    payload = path.read_bytes()[:-4][:-n_bytes]
    path.write_bytes(payload + struct.pack("<I", zlib.crc32(payload)))


class TestManifest:
    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "list.txt"
        path.write_text("# corpus\none.wav\n\ntwo.wav  # inline\n")
        assert read_manifest(path) == ["one.wav", "two.wav"]
