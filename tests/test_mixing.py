"""Active level, SNR-exact mixing, noise synthesis, dataset assembly."""

import struct
import zlib

import numpy as np
import pytest
from scipy import signal as sp

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


class TestPseudoSpeech:
    def test_deterministic_and_normalized(self):
        a = pseudo_speech(2.0, seed=7)
        b = pseudo_speech(2.0, seed=7)
        assert np.array_equal(a.samples, b.samples)
        assert np.sqrt(np.mean(a.samples**2)) == pytest.approx(0.1, abs=1e-12)

    def test_corpus_utterances_distinct(self):
        corpus = pseudo_corpus(4, 1.5, seed=8)
        assert len(corpus) == 4
        assert not np.array_equal(corpus[0].samples, corpus[1].samples)


class TestBuildDataset:
    SPEECH = pseudo_corpus(3, 1.5, seed=20)
    NOISE = synth_ssn(pseudo_corpus(4, 8.0, seed=21), 20.0, seed=22)

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
                           snr_list_db=[300.0])
        assert np.allclose(ds.clean_env[0], ds.noisy_env[0], rtol=1e-6)

    def test_snr_list_cycles(self):
        ds = build_dataset(self.SPEECH, self.NOISE, split="test", seed=3,
                           snr_list_db=[-5.0, 5.0])
        assert [m.snr_db for m in ds.mixes] == [-5.0, 5.0, -5.0]

    def test_regeneration_is_bit_identical(self):
        a = build_dataset(self.SPEECH, self.NOISE, split="train", seed=4)
        b = build_dataset(self.SPEECH, self.NOISE, split="train", seed=4)
        assert all(np.array_equal(x, y) for x, y in zip(a.noisy_env, b.noisy_env))
        assert np.array_equal(a.index, b.index)
        assert a.mixes == b.mixes

    def test_snr_range_respected(self):
        ds = build_dataset(self.SPEECH, self.NOISE, split="train", seed=5,
                           snr_range_db=(-5.0, 10.0))
        assert all(-5.0 <= m.snr_db <= 10.0 for m in ds.mixes)

    def test_features_match_windows(self):
        ds = build_dataset(self.SPEECH[:1], self.NOISE, split="train", seed=6)
        feats = ds.features([0, 5])
        for i, row in enumerate([0, 5]):
            utt, frame = ds.index[row]
            _, noisy = ds.window(utt, frame)
            assert np.array_equal(feats[i], np.log1p(noisy).reshape(-1))

    def test_band_targets_match_windows(self):
        ds = build_dataset(self.SPEECH[:1], self.NOISE, split="train", seed=6)
        clean, noisy = ds.band_targets([3, 7], band=4)
        for i, row in enumerate([3, 7]):
            utt, frame = ds.index[row]
            c, y = ds.window(utt, frame)
            assert np.array_equal(clean[i], c[4])
            assert np.array_equal(noisy[i], y[4])


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
        assert back.stft_config == ds.stft_config
        assert [b.center_hz for b in back.layout.bands] == [
            b.center_hz for b in ds.layout.bands
        ]

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

    def test_trailing_bytes_rejected(self, tmp_path):
        ds = EnvelopeDataset([np.ones((15, 30))], [np.ones((15, 30))], [(0, 29)])
        path = tmp_path / "d.pack"
        save_dataset(ds, path)
        payload = path.read_bytes()[:-4] + b"\0" * 8
        path.write_bytes(payload + struct.pack("<I", zlib.crc32(payload)))
        with pytest.raises(DatasetFormatError, match="trailing"):
            load_dataset(path)


def cut_pack(path, n_bytes):
    """Drop the last n_bytes of a pack's payload and recompute its CRC."""
    payload = path.read_bytes()[:-4][:-n_bytes]
    path.write_bytes(payload + struct.pack("<I", zlib.crc32(payload)))


class TestManifest:
    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "list.txt"
        path.write_text("# corpus\none.wav\n\ntwo.wav  # inline\n")
        assert read_manifest(path) == ["one.wav", "two.wav"]
