"""Enhancement paths, scoring, gain correlation, tables, baseline."""

import numpy as np
import pytest

from envgain import baseline, mixing, neural, pipeline
from envgain.cost import DegenerateEnvelopeError
from envgain.octave import build_band_layout
from envgain.signal_io import WORKING_RATE_HZ, TimeSignal
from envgain.stft import StftConfig, analyze, apply_gain, pad_to_frames, synthesize

FS = WORKING_RATE_HZ
CFG = StftConfig()
LAYOUT = build_band_layout()

SPEECH = mixing.pseudo_corpus(6, 1.5, seed=50)
NOISE = mixing.synth_ssn(mixing.pseudo_corpus(4, 8.0, seed=51), 20.0, seed=52)


def tiny_system(objective="elc", seed=0, epochs=2):
    train_ds = mixing.build_dataset(SPEECH[:4], NOISE, split="train", seed=seed)
    val_ds = mixing.build_dataset(SPEECH[4:5], NOISE, split="validation", seed=seed + 1)
    config = neural.TrainConfig(objective=objective, max_epochs=epochs, seed=seed)
    system, reports = pipeline.train_enhancement_system(
        train_ds, val_ds, config, hidden=(16, 16), max_train_frames=400, max_val_frames=120
    )
    return system, reports


SYSTEM, REPORTS = tiny_system()


def noisy_fixture(snr=0.0, seed=60):
    clean = SPEECH[5]
    noisy, _ = mixing.mix_at_snr(clean, NOISE, snr, rng=seed)
    return clean, noisy


class TestEnhance:
    def test_duration_preserved(self):
        _, noisy = noisy_fixture()
        out = pipeline.enhance(SYSTEM, noisy)
        assert len(out) == len(noisy)

    def test_deterministic(self):
        _, noisy = noisy_fixture()
        a = pipeline.enhance(SYSTEM, noisy)
        b = pipeline.enhance(SYSTEM, noisy)
        assert np.array_equal(a.samples, b.samples)

    def test_all_ones_gains_passthrough_is_identity_path(self):
        _, noisy = noisy_fixture()
        m = CFG.n_frames(len(pad_to_frames(noisy.samples, CFG)))
        ones = np.ones((15, m))
        out = pipeline.enhance_with_band_gains(noisy, ones, LAYOUT, CFG, "passthrough")
        resynth = synthesize(analyze(pad_to_frames(noisy.samples, CFG), CFG))
        assert np.array_equal(out.samples, resynth.samples[: len(noisy)])
        interior = slice(256, len(noisy) - 256)
        err = np.max(np.abs(out.samples[interior] - noisy.samples[interior]))
        assert err <= 1e-10 * np.max(np.abs(noisy.samples))

    def test_all_zero_gains_silence(self):
        _, noisy = noisy_fixture()
        m = CFG.n_frames(len(pad_to_frames(noisy.samples, CFG)))
        out = pipeline.enhance_with_band_gains(noisy, np.zeros((15, m)), LAYOUT, CFG, "zero")
        assert np.all(out.samples == 0.0)

    @pytest.mark.parametrize("snr", [-5.0, 0.0, 5.0])
    def test_oracle_gains_improve_elc(self, snr):
        for seed in range(5):
            clean, noisy = noisy_fixture(snr, seed=70 + seed)
            gains = pipeline.oracle_band_gains(clean, noisy, LAYOUT, CFG)
            enhanced = pipeline.enhance_with_band_gains(noisy, gains, LAYOUT, CFG)
            assert pipeline.score_elc(clean, enhanced) >= pipeline.score_elc(clean, noisy)

    def test_too_short_input_rejected(self):
        with pytest.raises(ValueError):
            pipeline.enhance(SYSTEM, TimeSignal(np.ones(1000), FS))

    def test_wrong_rate_rejected(self):
        with pytest.raises(ValueError):
            pipeline.enhance(SYSTEM, TimeSignal(np.ones(20000), 16000))


def reference_band_gains(system, noisy):
    """Per-band, per-vector averaging loop the array path replaced."""
    vectors = pipeline.predict_gain_vectors(system, noisy)
    v, j, n = vectors.shape
    out = np.empty((j, v + n - 1))
    for band in range(j):
        sums = np.zeros(v + n - 1)
        counts = np.zeros(v + n - 1, dtype=np.int64)
        for i in range(v):
            sums[i : i + n] += vectors[i, band]
            counts[i : i + n] += 1
        out[band] = sums / counts
    return out


def reference_classical_gains(system, noisy):
    """Per-window accumulation loop the array path replaced."""
    spec = analyze(pad_to_frames(noisy.samples, system.stft_config), system.stft_config)
    mag = spec.magnitude
    m, n_bins = mag.shape
    windows = np.lib.stride_tricks.sliding_window_view(mag, system.context, axis=0)
    feats = system.feature_norm.apply(
        np.log1p(windows.transpose(0, 2, 1).reshape(windows.shape[0], -1))
    )
    sums = np.zeros((m, n_bins))
    counts = np.zeros((m, 1))
    for lo in range(0, len(feats), 2048):
        pred = neural.forward(system.model, feats[lo : lo + 2048])
        pred = pred.reshape(len(pred), system.predict, n_bins)
        for i in range(len(pred)):
            t = system.context - 1 + lo + i
            sums[t - system.predict + 1 : t + 1] += pred[i]
            counts[t - system.predict + 1 : t + 1] += 1
    return np.where(counts > 0, sums / np.maximum(counts, 1), 1.0)


def joint_system(seed=7):
    train_ds = mixing.build_dataset(SPEECH[:2], NOISE, split="train", seed=seed)
    val_ds = mixing.build_dataset(SPEECH[2:3], NOISE, split="validation", seed=seed + 1)
    config = neural.TrainConfig(objective="elc", max_epochs=1, seed=seed)
    system, _ = pipeline.train_enhancement_system(
        train_ds, val_ds, config, hidden=(16,), joint=True,
        max_train_frames=200, max_val_frames=60,
    )
    return system


class TestSingleAnalysisEquivalence:
    """Enhancement equals the old analyze-twice composition bit for bit."""

    @pytest.mark.parametrize("kind", ["per-band", "joint"])
    def test_enhance_matches_two_pass_composition(self, kind):
        system = SYSTEM if kind == "per-band" else joint_system()
        for seed in range(3):
            _, noisy = noisy_fixture(seed=80 + seed)
            noisy = TimeSignal(noisy.samples[: 4000 + 1717 * seed], FS)
            gains = reference_band_gains(system, noisy)
            assert np.array_equal(pipeline.predict_band_gains(system, noisy), gains)
            expected = pipeline.enhance_with_band_gains(
                noisy, gains, system.layout, system.stft_config, system.out_of_band
            )
            assert np.array_equal(pipeline.enhance(system, noisy).samples, expected.samples)

    def test_classical_matches_two_pass_composition(self):
        train_ds, val_ds = TestClassicalBaseline()._datasets()
        config = neural.TrainConfig(objective="emse", max_epochs=1, seed=4)
        system, _ = baseline.train_classical(
            train_ds, val_ds, config, hidden=(8,), max_train_frames=100, max_val_frames=50
        )
        _, noisy = noisy_fixture(seed=90)
        gains = reference_classical_gains(system, noisy)
        assert np.array_equal(baseline.classical_gains(system, noisy), gains)
        spec = analyze(pad_to_frames(noisy.samples, CFG), CFG)
        expected = synthesize(apply_gain(spec, gains)).samples[: len(noisy)]
        assert np.array_equal(baseline.classical_enhance(system, noisy).samples, expected)


class TestScoring:
    def test_self_score_is_one(self):
        clean, _ = noisy_fixture()
        score, used, skipped = pipeline.score_elc(clean, clean, return_counts=True)
        assert score == pytest.approx(1.0, abs=1e-12)
        assert used > 0

    def test_monotone_in_noise_level(self):
        clean, _ = noisy_fixture()
        rng = np.random.default_rng(0)
        noise = rng.standard_normal(len(clean))
        scores = []
        for alpha in (0.0, 0.003, 0.01, 0.03, 0.1):
            processed = TimeSignal(clean.samples + alpha * noise, FS)
            scores.append(pipeline.score_elc(clean, processed))
        assert all(b < a for a, b in zip(scores, scores[1:]))

    def test_scale_invariance(self):
        clean, noisy = noisy_fixture()
        a = pipeline.score_elc(clean, noisy)
        scaled = TimeSignal(7.5 * noisy.samples, FS)
        assert pipeline.score_elc(clean, scaled) == pytest.approx(a, abs=1e-12)

    def test_approx_stoi_identical(self):
        clean, noisy = noisy_fixture()
        assert pipeline.score_approx_stoi(clean, noisy) == pipeline.score_elc(clean, noisy)

    def test_degenerate_windows_skipped_and_counted(self):
        # long silent tail makes whole windows zero-variance in every band
        base = SPEECH[0]
        padded = TimeSignal(np.concatenate([base.samples, np.zeros(FS)]), FS)
        score, used, skipped = pipeline.score_elc(padded, padded, return_counts=True)
        assert skipped > 0
        assert score == pytest.approx(1.0, abs=1e-12)

    def test_length_mismatch_rejected(self):
        clean, _ = noisy_fixture()
        with pytest.raises(ValueError):
            pipeline.score_elc(clean, TimeSignal(clean.samples[:-1], FS))


class TestGainCorrelation:
    def test_self_correlation_is_one(self):
        _, noisy = noisy_fixture()
        assert pipeline.gain_correlation(SYSTEM, SYSTEM, [noisy]) == pytest.approx(1.0)

    def test_constant_gain_dummy_degenerate(self):
        dummy, _ = tiny_system(seed=3, epochs=0)  # untrained
        # zero all weights so every output is exactly 0.5
        for model in dummy.band_models:
            for layer in model.layers:
                layer.weights[:] = 0.0
                layer.bias[:] = 0.0
        _, noisy = noisy_fixture()
        with pytest.raises(DegenerateEnvelopeError):
            pipeline.gain_correlation(dummy, dummy, [noisy])

    def test_elc_vs_emse_finite(self):
        emse_system, _ = tiny_system(objective="emse", seed=4)
        _, noisy = noisy_fixture()
        corr = pipeline.gain_correlation(SYSTEM, emse_system, [noisy])
        assert -1.0 <= corr <= 1.0
        print(f"toy ELC-vs-EMSE gain correlation: {corr:.3f}")

    def test_config_mismatch_rejected(self):
        other, _ = tiny_system(seed=5, epochs=0)
        other.n_env = 20
        _, noisy = noisy_fixture()
        with pytest.raises(ValueError):
            pipeline.gain_correlation(SYSTEM, other, [noisy])


class TestJointSystem:
    def test_joint_flag_trains_single_model(self):
        train_ds = mixing.build_dataset(SPEECH[:2], NOISE, split="train", seed=7)
        val_ds = mixing.build_dataset(SPEECH[2:3], NOISE, split="validation", seed=8)
        config = neural.TrainConfig(objective="elc", max_epochs=1, seed=7)
        system, reports = pipeline.train_enhancement_system(
            train_ds, val_ds, config, hidden=(16,), joint=True,
            max_train_frames=200, max_val_frames=60,
        )
        assert system.is_joint
        assert len(reports) == 1
        _, noisy = noisy_fixture()
        out = pipeline.enhance(system, noisy)
        assert len(out) == len(noisy)


class TestBandModelParity:
    def test_single_band_training_matches_system_training(self):
        train_ds = mixing.build_dataset(SPEECH[:4], NOISE, split="train", seed=0)
        val_ds = mixing.build_dataset(SPEECH[4:5], NOISE, split="validation", seed=1)
        config = neural.TrainConfig(objective="elc", max_epochs=2, seed=0)
        model, _, norm = pipeline.train_band_model(
            train_ds, val_ds, 3, config, hidden=(16, 16),
            max_train_frames=400, max_val_frames=120,
        )
        assert model.param_bytes() == SYSTEM.band_models[3].param_bytes()
        assert np.array_equal(norm.mean, SYSTEM.feature_norm.mean)


class TestSystemFiles:
    def test_save_load_round_trip(self, tmp_path):
        pipeline.save_system(SYSTEM, tmp_path / "mdl")
        loaded = pipeline.load_system(tmp_path / "mdl")
        assert loaded.objective == SYSTEM.objective
        assert loaded.n_env == SYSTEM.n_env
        _, noisy = noisy_fixture()
        a = pipeline.enhance(SYSTEM, noisy)
        b = pipeline.enhance(loaded, noisy)
        assert np.array_equal(a.samples, b.samples)

    @pytest.mark.parametrize(
        "mean, std",
        [(np.nan, 1.0), (np.inf, 1.0), (0.0, 0.0), (0.0, -1.0), (0.0, np.nan), (0.0, np.inf)],
    )
    def test_bad_feature_norm_rejected(self, tmp_path, mean, std):
        path = tmp_path / "feature_norm.bin"
        good = np.ones(450)
        bad = neural.FeatureNorm(good.copy(), good.copy())
        bad.mean[7], bad.std[7] = mean, std
        pipeline._save_norm(bad, path)
        with pytest.raises(neural.ModelFormatError):
            pipeline._load_norm(path)
        pipeline._save_norm(neural.FeatureNorm(good, good), path)
        assert np.array_equal(pipeline._load_norm(path).std, good)

    def test_missing_band_file_rejected(self, tmp_path):
        pipeline.save_system(SYSTEM, tmp_path / "mdl")
        (tmp_path / "mdl" / "band_07.mdl").unlink()
        with pytest.raises(FileNotFoundError):
            pipeline.load_system(tmp_path / "mdl")


class TestEvalTables:
    ROWS = [
        pipeline.EvalRow("ssn", 5.0, 0.8212, 0.9034, 0.8212, 0.9034),
        pipeline.EvalRow("babble", 0.0, 0.61, 0.72, 0.61, 0.72),
        pipeline.EvalRow("ssn", -5.0, 0.37, 0.58, 0.37, 0.58),
    ]

    def test_empty_rows_header_only(self):
        text = pipeline.report_tables([], "text")
        assert text.splitlines()[0].split() == list(pipeline._TABLE_COLUMNS)
        assert len(text.splitlines()) == 1
        csv = pipeline.report_tables([], "csv")
        assert csv.strip() == ",".join(pipeline._TABLE_COLUMNS)

    def test_lexicographic_order(self):
        text = pipeline.report_tables(self.ROWS, "text")
        lines = text.splitlines()[1:]
        assert lines[0].split()[0] == "babble"
        assert [ln.split()[1] for ln in lines[1:]] == ["-5", "5"]

    def test_csv_round_trip(self):
        import csv
        import io

        out = pipeline.report_tables(self.ROWS, "csv")
        parsed = list(csv.DictReader(io.StringIO(out)))
        assert len(parsed) == 3
        assert parsed[1]["noise"] == "ssn"
        assert float(parsed[1]["elc_enh"]) == pytest.approx(0.58, abs=1e-9)

    def test_two_decimal_formatting(self):
        out = pipeline.report_tables(self.ROWS[:1], "csv")
        assert "0.82,0.90,0.82,0.90" in out

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            pipeline.report_tables(self.ROWS, "html")


class TestEvaluateSystem:
    def test_rows_and_determinism(self):
        rows = pipeline.evaluate_system(SYSTEM, SPEECH[5:6], NOISE, [-5.0, 5.0],
                                        seed=9, noise_type="ssn")
        again = pipeline.evaluate_system(SYSTEM, SPEECH[5:6], NOISE, [-5.0, 5.0],
                                         seed=9, noise_type="ssn")
        assert rows == again
        assert [r.snr_db for r in rows] == [-5.0, 5.0]
        for r in rows:
            assert -1 <= r.elc_enhanced <= 1
            assert r.stoi_unprocessed == r.elc_unprocessed

    def test_rows_match_four_scores_per_item(self):
        clean_list, snrs = SPEECH[4:6], [-5.0, 5.0]
        rows = pipeline.evaluate_system(SYSTEM, clean_list, NOISE, snrs, seed=9,
                                        noise_type="ssn")
        # the old loop: both ELC scores and both approximate-STOI scores per item
        expected = []
        for snr in snrs:
            children = np.random.SeedSequence([9, int(round(snr * 1000)) % (1 << 32)]).spawn(2)
            scores = []
            for child, clean in zip(children, clean_list):
                noisy, _ = mixing.mix_at_snr(clean, NOISE, snr, np.random.default_rng(child))
                enhanced = pipeline.enhance(SYSTEM, noisy)
                scores.append([
                    pipeline.score_elc(clean, noisy, LAYOUT, CFG),
                    pipeline.score_elc(clean, enhanced, LAYOUT, CFG),
                    pipeline.score_approx_stoi(clean, noisy, layout=LAYOUT, config=CFG),
                    pipeline.score_approx_stoi(clean, enhanced, layout=LAYOUT, config=CFG),
                ])
            means = [float(np.mean(col)) for col in zip(*scores)]
            expected.append(pipeline.EvalRow("ssn", snr, *means))
        assert rows == expected


class TestClassicalBaseline:
    def _datasets(self):
        train = baseline.build_magnitude_dataset(SPEECH[:3], NOISE, seed=0)
        val = baseline.build_magnitude_dataset(SPEECH[3:4], NOISE, seed=1)
        return train, val

    def test_training_reduces_spectral_mse(self):
        train_ds, val_ds = self._datasets()
        config = neural.TrainConfig(objective="emse", max_epochs=6, seed=2,
                                    initial_lr_per_sample=2e-4)
        system, report = baseline.train_classical(
            train_ds, val_ds, config, hidden=(24, 24), max_train_frames=250, max_val_frames=80
        )
        assert report.epochs[-1].train_cost < report.epochs[0].train_cost

    def test_gain_averaging_and_leading_passthrough(self):
        train_ds, val_ds = self._datasets()
        config = neural.TrainConfig(objective="emse", max_epochs=0, seed=3)
        system, _ = baseline.train_classical(
            train_ds, val_ds, config, hidden=(8,), max_train_frames=100, max_val_frames=50
        )
        for layer in system.model.layers:
            layer.weights[:] = 0.0
            layer.bias[:] = 0.0
        _, noisy = noisy_fixture()
        gains = baseline.classical_gains(system, noisy)
        # frames before the first prediction window pass through untouched
        assert np.all(gains[: system.context - system.predict] == 1.0)
        assert np.allclose(gains[system.context - 1 :], 0.5)

    def test_enhance_preserves_duration(self):
        train_ds, val_ds = self._datasets()
        config = neural.TrainConfig(objective="emse", max_epochs=1, seed=4)
        system, _ = baseline.train_classical(
            train_ds, val_ds, config, hidden=(8,), max_train_frames=100, max_val_frames=50
        )
        _, noisy = noisy_fixture()
        out = baseline.classical_enhance(system, noisy)
        assert len(out) == len(noisy)

    def test_save_load_round_trip(self, tmp_path):
        train_ds, val_ds = self._datasets()
        config = neural.TrainConfig(objective="emse", max_epochs=1, seed=5)
        system, _ = baseline.train_classical(
            train_ds, val_ds, config, hidden=(8,), max_train_frames=100, max_val_frames=50
        )
        baseline.save_classical(system, tmp_path / "base")
        loaded = baseline.load_classical(tmp_path / "base")
        _, noisy = noisy_fixture()
        a = baseline.classical_enhance(system, noisy)
        b = baseline.classical_enhance(loaded, noisy)
        assert np.array_equal(a.samples, b.samples)
