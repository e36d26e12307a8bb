"""Enhancement paths, scoring, gain correlation, tables, baseline."""

import os
import platform
import re
import signal
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from envgain import baseline, cost, fanout, mixing, modeldir, neural, pipeline
from envgain.cost import DegenerateEnvelopeError
from envgain.octave import ENVELOPE_LEN, LAYOUT, Band, BandLayout, envelopes
from envgain.signal_io import WORKING_RATE_HZ, TimeSignal
from envgain.stft import (
    FFT_SIZE,
    HOP,
    N_BINS,
    WINDOW,
    StftConfig,
    analyze,
    apply_gain,
    frame_signal,
    magnitude,
    pad_to_frames,
    synthesize,
)

FS = WORKING_RATE_HZ

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


def set_system_value(model_dir, key, value):
    meta = model_dir / "system.txt"
    lines = meta.read_text().splitlines()
    meta.write_text("".join(
        f"{key} = {value}\n" if line.startswith(f"{key} ") else f"{line}\n" for line in lines
    ))


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

    def test_all_ones_gains_keep_the_in_band_spectrum(self):
        # bins outside every band (below 138 Hz, above 4.28 kHz) get gain 0
        _, noisy = noisy_fixture()
        spec = analyze(pad_to_frames(noisy.samples))
        out = pipeline.enhance_with_band_gains(noisy, np.ones((15, len(spec))))
        in_band = np.zeros(N_BINS)
        in_band[LAYOUT.bands[0].k1 : LAYOUT.bands[-1].k2] = 1.0
        assert (LAYOUT.bands[0].k1, LAYOUT.bands[-1].k2) == (4, 110)
        resynth = synthesize(spec * in_band)
        assert np.array_equal(out.samples, resynth.samples[: len(noisy)])

    def test_all_zero_gains_silence(self):
        _, noisy = noisy_fixture()
        m = len(frame_signal(pad_to_frames(noisy.samples)))
        out = pipeline.enhance_with_band_gains(noisy, np.zeros((15, m)))
        assert np.all(out.samples == 0.0)

    @pytest.mark.parametrize("snr", [-5.0, 0.0, 5.0])
    def test_oracle_gains_improve_elc(self, snr):
        for seed in range(5):
            clean, noisy = noisy_fixture(snr, seed=70 + seed)
            gains = pipeline.oracle_band_gains(clean, noisy)
            enhanced = pipeline.enhance_with_band_gains(noisy, gains)
            assert pipeline.score_elc(clean, enhanced) >= pipeline.score_elc(clean, noisy)

    def test_too_short_input_rejected(self):
        with pytest.raises(ValueError):
            pipeline.enhance(SYSTEM, TimeSignal(np.ones(1000), FS))

    def test_wrong_rate_rejected(self):
        with pytest.raises(ValueError):
            pipeline.enhance(SYSTEM, TimeSignal(np.ones(20000), 16000))


def gain_vectors(system, noisy):
    """(V, J, N) gain vectors of a noisy signal; window v starts at frame v."""
    return pipeline._gain_vectors(system, magnitude(pad_to_frames(noisy.samples)))


def reference_band_gains(system, noisy):
    """Per-band, per-vector averaging loop the array path replaced."""
    vectors = gain_vectors(system, noisy)
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
    mag = np.abs(analyze(pad_to_frames(noisy.samples)))
    m, n_bins = mag.shape
    windows = np.lib.stride_tricks.sliding_window_view(mag, system.context, axis=0)
    feats = system.feature_norm.apply(
        np.log1p(windows.transpose(0, 2, 1).reshape(windows.shape[0], -1))
    )
    sums = np.zeros((m, n_bins))
    counts = np.zeros((m, 1))
    block = pipeline._row_block(len(feats), 1)
    for lo in range(0, len(feats), block):
        pred = neural.forward(system.model, feats[lo : lo + block])
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
    """Enhancement equals the old analyze-twice composition bit for bit, and
    the gain vectors equal each network run on its own."""

    @pytest.mark.parametrize("kind", ["per-band", "joint"])
    def test_enhance_matches_two_pass_composition(self, kind):
        system = SYSTEM if kind == "per-band" else joint_system()
        for seed in range(3):
            _, noisy = noisy_fixture(seed=80 + seed)
            noisy = TimeSignal(noisy.samples[: 4000 + 1717 * seed], FS)
            spec = analyze(pad_to_frames(noisy.samples))
            windows = np.lib.stride_tricks.sliding_window_view(
                envelopes(np.abs(spec)), system.n_env, axis=1
            )  # (J, V, N)
            j, v, n = windows.shape
            feats = system.feature_norm.apply(np.log1p(windows.transpose(1, 0, 2).reshape(v, -1)))
            vectors = serial_side_by_side(system.models, feats).reshape(v, j, n)
            assert np.array_equal(gain_vectors(system, noisy), vectors)
            expected = pipeline.enhance_with_band_gains(noisy, reference_band_gains(system, noisy))
            assert np.array_equal(pipeline.enhance(system, noisy).samples, expected.samples)

    def test_classical_matches_two_pass_composition(self):
        train_ds, val_ds = TestClassicalBaseline()._datasets()
        config = neural.TrainConfig(objective="emse", max_epochs=1, seed=4)
        system, _ = baseline.train_classical(
            train_ds, val_ds, config, hidden=(8,), max_train_frames=100, max_val_frames=50
        )
        _, noisy = noisy_fixture(seed=90)
        gains = reference_classical_gains(system, noisy)
        spec = analyze(pad_to_frames(noisy.samples))
        expected = synthesize(apply_gain(spec, gains)).samples[: len(noisy)]
        assert np.array_equal(baseline.classical_enhance(system, noisy).samples, expected)


def serial_side_by_side(models, feats):
    """The inference loop without the fan-out: row block by row block, model
    by model, in the row blocks of `pipeline._row_block`."""
    block = pipeline._row_block(len(feats), len(models))
    out = np.empty((len(feats), sum(m.output_dim for m in models)))
    for lo in range(0, len(feats), block):
        rows, a = slice(lo, lo + block), 0
        for model in models:
            out[rows, a : a + model.output_dim] = neural.forward(model, feats[rows])
            a += model.output_dim
    return out


def call_threads(monkeypatch, name="forward", module=neural):
    """Record the thread of every `module.<name>` call; returns the live set."""
    seen = set()
    call = getattr(module, name)

    def recorded(*args, **kwargs):
        seen.add(threading.get_ident())
        return call(*args, **kwargs)

    monkeypatch.setattr(module, name, recorded)
    return seen


class TestInferenceFanOut:
    """With two workers, the (row block, model) tasks of every system kind
    run on pool threads, and every output keeps the bits of the serial loop
    over the same row blocks."""

    @pytest.mark.parametrize("environ, cores, workers", [
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, 2),
        ({}, 2, 1),
        ({"OPENBLAS_NUM_THREADS": "2"}, 2, 1),
        ({"OMP_NUM_THREADS": "1"}, 2, 2),
        ({"GOTO_NUM_THREADS": "1"}, 4, 4),
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 2, 2),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 4, 2),
        ({"OPENBLAS_NUM_THREADS": "two", "OMP_NUM_THREADS": "1"}, 2, 2),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 2, 2),
        ({"OPENBLAS_NUM_THREADS": "two"}, 2, 1),
        ({"OPENBLAS_NUM_THREADS": "0"}, 2, 1),
        ({"OPENBLAS_NUM_THREADS": "-1"}, 2, 1),
        ({"OPENBLAS_NUM_THREADS": "1.5"}, 2, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 1, 1),
        ({"OPENBLAS_NUM_THREADS": "4"}, 2, 1),
    ])
    def test_worker_count_rule(self, environ, cores, workers):
        assert fanout._worker_count(environ, cores) == workers

    @pytest.mark.parametrize("kind", ["per-band", "joint", "classical"])
    def test_forward_side_by_side_matches_serial_loop(self, monkeypatch, kind):
        models, dim = {
            "per-band": lambda: (SYSTEM.models, 450),
            "joint": lambda: (joint_system().models, 450),
            "classical": lambda: ([tiny_classical_system().model], 3870),
        }[kind]()
        feats = np.random.default_rng(3).standard_normal((53, dim))
        monkeypatch.setattr(pipeline, "_FEATURE_CHUNK", 8)  # 7 row blocks
        expected = serial_side_by_side(models, feats)
        monkeypatch.setattr(fanout, "_WORKERS", 2)
        threads = call_threads(monkeypatch)
        assert np.array_equal(pipeline._forward_side_by_side(models, feats), expected)
        assert threads and threading.get_ident() not in threads

    @pytest.mark.parametrize("rows, models, block", [
        (88, 15, 88), (5000, 15, 4096), (88, 1, 22), (1000, 1, 250), (53, 1, 14),
        (20000, 1, 4096), (53, 2, 27), (53, 3, 27), (3, 1, 1), (0, 1, 1),
    ])
    def test_row_block_rule(self, rows, models, block):
        # equal blocks, enough for 4 tasks in all, capped at 4,096 rows
        assert pipeline._row_block(rows, models) == block

    @pytest.mark.parametrize("kind", ["joint", "classical"])
    def test_row_blocks_are_within_rounding_of_a_whole_array_forward(self, kind):
        model, dim = {
            "joint": lambda: (neural.init_model([450, 64, 64, 450], seed=11), 450),
            "classical": lambda: (neural.init_model([3870, 64, 64, 645], seed=12), 3870),
        }[kind]()
        feats = np.random.default_rng(6).standard_normal((1000, dim))
        whole = neural.forward(model, feats)
        blocked = pipeline._forward_side_by_side([model], feats)
        np.testing.assert_allclose(blocked, whole, rtol=0, atol=1e-12)

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc only")
    def test_one_malloc_arena_on_glibc(self):
        assert fanout._one_arena()

    def test_more_workers_than_cores_lose_no_block(self, monkeypatch):
        # 750 tasks on 8 threads that switch every microsecond
        feats = np.random.default_rng(4).standard_normal((200, 450))
        monkeypatch.setattr(pipeline, "_FEATURE_CHUNK", 4)
        expected = serial_side_by_side(SYSTEM.models, feats)
        monkeypatch.setattr(fanout, "_WORKERS", 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = pipeline._forward_side_by_side(SYSTEM.models, feats)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("kind", ["per-band", "joint", "classical"])
    def test_enhance_matches_serial_loop(self, monkeypatch, kind):
        system = {
            "per-band": lambda: SYSTEM,
            "joint": joint_system,
            "classical": tiny_classical_system,
        }[kind]()
        _, noisy = noisy_fixture(seed=95)
        monkeypatch.setattr(pipeline, "_FEATURE_CHUNK", 16)  # 88 rows: 6 blocks
        with monkeypatch.context() as serial:
            serial.setattr(pipeline, "_forward_side_by_side", serial_side_by_side)
            expected = pipeline.enhance(system, noisy)
        monkeypatch.setattr(fanout, "_WORKERS", 2)
        threads = call_threads(monkeypatch)
        assert np.array_equal(pipeline.enhance(system, noisy).samples, expected.samples)
        assert threads and threading.get_ident() not in threads

    def test_task_error_is_raised_from_enhance(self, monkeypatch):
        system = replace(SYSTEM, band_models=list(SYSTEM.models))
        system.band_models[9] = neural.init_model([449, 4, 30], seed=0)  # wrong input width
        _, noisy = noisy_fixture()
        monkeypatch.setattr(pipeline, "_FEATURE_CHUNK", 16)
        errors = []
        for workers in (1, 2):
            monkeypatch.setattr(fanout, "_WORKERS", workers)
            with pytest.raises(ValueError) as info:
                pipeline.enhance(system, noisy)
            errors.append(str(info.value))
        assert errors[0] == errors[1] == "expected (B, 449) input, got (16, 450)"

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_fans_out_on_its_own_pool(self, monkeypatch):
        # The child inherits the pool object but not its threads. Two tasks
        # that wait for each other need two live threads: in the parent they
        # make the pool start both, and in the child they hang or break the
        # barrier unless the child has a pool of its own.
        def meet(_):
            barrier.wait()

        feats = np.random.default_rng(5).standard_normal((40, 450))
        monkeypatch.setattr(pipeline, "_FEATURE_CHUNK", 8)
        monkeypatch.setattr(fanout, "_WORKERS", 2)
        barrier = threading.Barrier(2, timeout=10)
        fanout.fan_out(meet, range(2))
        expected = pipeline._forward_side_by_side(SYSTEM.models, feats)
        pid = os.fork()
        if pid == 0:  # the child: exit 0 only if both fan-outs ran
            code = 2
            try:
                barrier = threading.Barrier(2, timeout=10)
                fanout.fan_out(meet, range(2))
                out = pipeline._forward_side_by_side(SYSTEM.models, feats)
                code = 0 if np.array_equal(out, expected) else 1
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while (status := os.waitpid(pid, os.WNOHANG)) == (0, 0) and time.monotonic() < deadline:
            time.sleep(0.01)
        if status == (0, 0):
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's fan-out did not finish in 60 s")
        assert os.waitstatus_to_exitcode(status[1]) == 0

    def test_fan_out_called_by_a_task_runs_serially(self, monkeypatch):
        # each outer task holds a pool thread; a nested call that waited for
        # the pool's threads would wait for its own
        monkeypatch.setattr(fanout, "_WORKERS", 2)
        results = []
        nested = threading.Thread(daemon=True, target=lambda: results.append(
            fanout.fan_out(lambda t: fanout.fan_out(lambda x: x * t, [1, 2]), [1, 2])
        ))
        nested.start()
        nested.join(timeout=10)
        assert not nested.is_alive(), "the nested fan_out did not return in 10 s"
        assert results == [[[1, 2], [2, 4]]]


def report_values(reports):
    """Every field of the training reports but the wall times."""
    return [(r.stop_reason, [(e.train_cost, e.validation_cost, e.lr, e.n_degenerate)
                             for e in r.epochs]) for r in reports]


def band_train_seed(seed, band):
    """The `neural.train` seed of `band`'s network (see `pipeline._fit`)."""
    return int(np.random.SeedSequence(seed).generate_state(2 * band + 2)[2 * band + 1])


class TestTrainingFanOut:
    """With two workers, the per-band networks train on pool threads and
    keep every bit of the serial loop; one network trains in the caller's
    thread; a diverging band fails as in the serial loop."""

    def test_band_system_matches_serial_training(self, monkeypatch):
        monkeypatch.setattr(fanout, "_WORKERS", 1)
        serial, serial_reports = tiny_system()
        monkeypatch.setattr(fanout, "_WORKERS", 2)
        threads = call_threads(monkeypatch, "train")
        system, reports = tiny_system()
        assert threads and threading.get_ident() not in threads
        assert [m.param_bytes() for m in system.models] == [
            m.param_bytes() for m in serial.models]
        assert report_values(reports) == report_values(serial_reports)
        assert np.array_equal(system.feature_norm.mean, serial.feature_norm.mean)
        assert np.array_equal(system.feature_norm.std, serial.feature_norm.std)

    def test_one_network_trains_in_the_callers_thread(self, monkeypatch):
        monkeypatch.setattr(fanout, "_WORKERS", 2)
        threads = call_threads(monkeypatch, "train")
        joint_system()
        train_ds = mixing.build_dataset(SPEECH[:4], NOISE, split="train", seed=0)
        val_ds = mixing.build_dataset(SPEECH[4:5], NOISE, split="validation", seed=1)
        (model,), _, _ = pipeline.train_networks(
            train_ds, val_ds, [3], neural.TrainConfig(objective="elc", max_epochs=2, seed=0),
            (16, 16), 400, 120,
        )
        assert threads == {threading.get_ident()}
        assert model.param_bytes() == SYSTEM.models[3].param_bytes()

    def test_diverging_band_raises_the_serial_error(self, monkeypatch):
        # band 3 starts from an infinite weight; the bands after it wait for
        # band 3 to end, so none of them can finish before it fails
        train, bad = neural.train, band_train_seed(0, 3)
        bad_done = threading.Event()
        started = []

        def diverging(model, tdata, vdata, config):
            started.append(config.seed)
            if config.seed == bad:
                model.layers[0].weights[0, 0] = np.inf
                try:
                    with np.errstate(all="ignore"):
                        return train(model, tdata, vdata, config)
                finally:
                    bad_done.set()
            if config.seed not in [band_train_seed(0, b) for b in range(3)]:
                assert bad_done.wait(60)
            return train(model, tdata, vdata, config)

        monkeypatch.setattr(neural, "train", diverging)
        errors, calls = [], []
        for workers in (1, 2):
            monkeypatch.setattr(fanout, "_WORKERS", workers)
            started.clear()
            bad_done.clear()
            with pytest.raises(neural.NumericError) as info:
                tiny_system()
            errors.append(str(info.value))
            calls.append(list(started))
        assert errors[0] == errors[1] and errors[0].startswith("non-finite parameters at epoch 0")
        # the serial loop starts bands 0-3; the pool at most one band more
        assert calls[0] == [band_train_seed(0, b) for b in range(4)]
        assert set(calls[1]) == {band_train_seed(0, b) for b in range(len(calls[1]))}
        assert 4 <= len(calls[1]) <= 5


def polar_enhance(system, noisy):
    """Enhancement by the magnitude/phase round trip resynthesis used to
    take: irfft(|X| g exp(j angle X)), then the per-frame weighted
    overlap-add."""
    spec = analyze(pad_to_frames(noisy.samples))
    mag, phase = np.abs(spec), np.angle(spec)
    frames = np.fft.irfft(mag * system.gains(mag) * np.exp(1j * phase), n=FFT_SIZE, axis=1)
    win = WINDOW
    out = np.zeros((len(frames) - 1) * HOP + FFT_SIZE)
    den = np.zeros_like(out)
    for i, frame in enumerate(frames * win):
        sl = slice(i * HOP, i * HOP + FFT_SIZE)
        out[sl] += frame
        den[sl] += win * win
    return (out / np.maximum(den, 1e-15))[: len(noisy)]


class TestComplexSpectrumResynthesis:
    """Scaling the complex spectrum by the gains matches the polar formula up
    to rounding: within 1e-15 in the interior and 1e-12 at the edges, where
    only one small window weight covers a sample."""

    @pytest.mark.parametrize("kind", ["per-band", "joint", "classical"])
    def test_enhance_matches_polar_formula(self, kind):
        system = {
            "per-band": lambda: SYSTEM,
            "joint": joint_system,
            "classical": tiny_classical_system,
        }[kind]()
        for seed in range(4):
            _, noisy = noisy_fixture(snr=-5.0 + 5 * seed, seed=100 + seed)
            noisy = TimeSignal(noisy.samples[: 4000 + 2311 * seed], FS)
            gap = np.abs(pipeline.enhance(system, noisy).samples - polar_enhance(system, noisy))
            interior = slice(FFT_SIZE, len(noisy) - FFT_SIZE)
            assert gap[interior].max() <= 1e-15
            assert gap.max() <= 1e-12


class RecordingNorm(neural.FeatureNorm):
    """A feature norm that keeps a copy of every input it standardizes."""

    def __init__(self, norm):
        super().__init__(norm.mean, norm.std)
        self.seen = []

    def apply(self, x):
        self.seen.append(np.array(x))
        return super().apply(x)


@st.composite
def noisy_signals(draw):
    """Noise of 30 to 60 frames with a silent stretch."""
    n = draw(st.integers(29 * 128 + 256, 60 * 128 + 256))
    x = 0.1 * np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(n)
    lo = draw(st.integers(0, n))
    x[lo : draw(st.integers(lo, n))] = 0.0
    return TimeSignal(x, FS)


def seeded_mixture(speech, noise, seed, u, n_utterances, snr_range=mixing.DEFAULT_SNR_RANGE_DB):
    """Utterance u of a builder's mixing loop, from its own seeded stream:
    the SNR drawn first, then the noise cut."""
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(n_utterances)[u])
    return mixing.mix_at_snr(speech, noise, float(rng.uniform(*snr_range)), rng)[0]


def tiny_classical_system(seed=0):
    dim = baseline.CONTEXT_FRAMES * N_BINS
    rng = np.random.default_rng(seed)
    norm = neural.FeatureNorm(rng.normal(0.0, 0.1, dim), rng.uniform(0.5, 2.0, dim))
    model = neural.init_model([dim, 4, baseline.PREDICT_FRAMES * N_BINS], seed=seed)
    return baseline.ClassicalSystem(model, StftConfig(), norm)


class TestFrameLevelLog:
    """Features log-compress each frame once; they keep the bits of log1p
    applied to the windowed copy."""

    @settings(max_examples=25, deadline=None)
    @given(noisy_signals())
    def test_gain_vector_features(self, noisy):
        recording = RecordingNorm(SYSTEM.feature_norm)
        system = replace(SYSTEM, feature_norm=recording)
        gain_vectors(system, noisy)
        spec = analyze(pad_to_frames(noisy.samples))
        windows = np.lib.stride_tricks.sliding_window_view(
            envelopes(np.abs(spec)), system.n_env, axis=1
        )  # (J, V, N)
        v = windows.shape[1]
        (seen,) = recording.seen
        assert np.array_equal(seen, np.log1p(windows.transpose(1, 0, 2).reshape(v, -1)))

    @settings(max_examples=15, deadline=None)
    @given(noisy_signals())
    def test_classical_features(self, noisy):
        system = tiny_classical_system()
        recording = RecordingNorm(system.feature_norm)
        baseline.classical_enhance(replace(system, feature_norm=recording), noisy)
        mag = np.abs(analyze(pad_to_frames(noisy.samples)))
        windows = np.lib.stride_tricks.sliding_window_view(mag, system.context, axis=0)
        (seen,) = recording.seen
        assert np.array_equal(seen, np.log1p(windows.transpose(0, 2, 1).reshape(len(seen), -1)))

    @pytest.mark.parametrize("seed", [0, 7])
    def test_envelope_training_features_are_the_inference_input(self, seed):
        # train/serve parity: a dataset's features over all rows of one
        # utterance are the matrix `gains` standardizes for its mixture
        ds = mixing.build_dataset(SPEECH[:1], NOISE, seed=seed)
        recording = RecordingNorm(SYSTEM.feature_norm)
        mixture = seeded_mixture(SPEECH[0], NOISE, seed, 0, 1)
        replace(SYSTEM, feature_norm=recording).gains(np.abs(analyze(mixture)))
        (seen,) = recording.seen
        assert ds.n_frames == len(seen) > 0
        assert np.array_equal(ds.features(np.arange(ds.n_frames)), seen)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_magnitude_training_features_are_the_inference_input(self, seed):
        ds = baseline.build_magnitude_dataset(SPEECH[:1], NOISE, seed=seed)
        system = tiny_classical_system()
        recording = RecordingNorm(system.feature_norm)
        mixture = seeded_mixture(SPEECH[0], NOISE, seed, 0, 1)
        replace(system, feature_norm=recording).gains(np.abs(analyze(mixture)))
        (seen,) = recording.seen
        assert ds.n_frames == len(seen) > 0
        assert np.array_equal(ds.features(np.arange(ds.n_frames)), seen)

    def test_feature_norm_apply_bits_and_read_only_input(self):
        rng = np.random.default_rng(3)
        norm = neural.FeatureNorm(rng.normal(size=12), rng.uniform(0.5, 2.0, 12))
        x = np.lib.stride_tricks.sliding_window_view(rng.normal(size=40), 12)[::3]
        assert not x.flags.writeable
        out = norm.apply(x)
        assert np.array_equal(out, (x - norm.mean) / norm.std)
        assert not np.shares_memory(out, x)


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


def per_band_score(clean_env, proc_env, n_env):
    """The band-by-band scoring loop that `_score_envelopes` replaced, kept
    as its reference: one `elc_value_batch` call per band."""
    if clean_env.shape[1] < n_env:
        raise ValueError(f"too short to score: {clean_env.shape[1]} frames, need >= {n_env}")
    total = 0.0
    used = 0
    skipped = 0
    for j in range(clean_env.shape[0]):
        cw = np.lib.stride_tricks.sliding_window_view(clean_env[j], n_env)
        pw = np.lib.stride_tricks.sliding_window_view(proc_env[j], n_env)
        values, valid = cost.elc_value_batch(cw, pw)
        total += float(values[valid].sum())
        used += int(np.count_nonzero(valid))
        skipped += int(np.count_nonzero(~valid))
    if used == 0:
        raise ValueError("no non-degenerate envelope windows to score")
    return total / used, used, skipped


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as e:
        return type(e), str(e)


class TestScoreEnvelopes:
    @settings(max_examples=200, deadline=None)
    @given(n_bands=st.integers(1, 15), extra=st.integers(0, 170),
           seed=st.integers(0, 2**32 - 1), n_flat=st.integers(0, 12))
    def test_one_batch_keeps_the_bits_of_the_band_loop(self, n_bands, extra, seed, n_flat):
        """Same score, used and skipped counts, bit for bit, with runs of
        constant envelope (degenerate windows) placed at random."""
        n_env = ENVELOPE_LEN
        rng = np.random.default_rng(seed)
        m = n_env + extra
        scale = 10.0 ** rng.uniform(-6, 2, (n_bands, 1))
        clean = scale * rng.random((n_bands, m))
        proc = clean + scale * rng.uniform(0, 2) * rng.random((n_bands, m))
        for _ in range(n_flat):
            env = clean if rng.random() < 0.5 else proc
            j, a = rng.integers(n_bands), rng.integers(m)
            env[j, a : a + rng.integers(1, 2 * n_env + 2)] = rng.choice([0.0, rng.random()])
        assert outcome(pipeline._score_envelopes, clean, proc, True) == outcome(
            per_band_score, clean, proc, n_env
        )

    def test_all_degenerate_raises_the_same_error(self):
        flat = np.full((15, 40), 0.5)
        noisy = np.random.default_rng(0).random((15, 40))
        expected = outcome(per_band_score, flat, noisy, 30)
        assert expected == (ValueError, "no non-degenerate envelope windows to score")
        assert outcome(pipeline._score_envelopes, flat, noisy) == expected

    def test_too_short_raises_the_same_error(self):
        env = np.random.default_rng(1).random((15, 29))
        assert outcome(pipeline._score_envelopes, env, env) == outcome(
            per_band_score, env, env, 30
        )

    def test_score_elc_is_the_envelope_score(self):
        clean, noisy = noisy_fixture()
        envs = [envelopes(np.abs(analyze(pad_to_frames(s.samples))))
                for s in (clean, noisy)]
        assert pipeline.score_elc(clean, noisy, return_counts=True) == per_band_score(
            *envs, 30
        )


class TestGainCorrelation:
    def test_self_correlation_is_one(self):
        _, noisy = noisy_fixture()
        assert pipeline.gain_correlation(SYSTEM, SYSTEM, [noisy]) == pytest.approx(1.0)

    def test_constant_gain_dummy_degenerate(self):
        dummy, _ = tiny_system(seed=3, epochs=0)  # untrained
        # zero all weights so every output is exactly 0.5
        for model in dummy.models:
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

    def test_one_magnitude_analysis_per_signal(self, monkeypatch):
        signals = [noisy_fixture(seed=70 + i)[1] for i in range(4)]
        other, _ = tiny_system(seed=5, epochs=0)
        # the old composition: each system's gain vectors from its own analysis
        a, b = (np.concatenate([gain_vectors(system, sig).reshape(-1)
                                for sig in signals]) for system in (SYSTEM, other))
        expected = cost.elc(a, b)
        assert pipeline.gain_correlation(SYSTEM, other, signals) == expected
        calls = count_calls(monkeypatch, pipeline, "analyze", "magnitude")
        pipeline.gain_correlation(SYSTEM, SYSTEM, signals)
        assert calls == {"analyze": 0, "magnitude": 4}

    @pytest.mark.parametrize("classical_first", [True, False])
    def test_classical_system_refused_by_its_kind(self, classical_first):
        _, noisy = noisy_fixture()
        pair = (tiny_classical_system(), SYSTEM)
        with pytest.raises(ValueError, match="two envelope-gain systems, not a classical one"):
            pipeline.gain_correlation(*(pair if classical_first else pair[::-1]), [noisy])


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

    def test_model_list_checked_at_construction(self):
        system = joint_system()
        assert len(system.models) == 1 and system.models[0] is system.joint_model
        parts = (system.layout, system.stft_config, system.feature_norm, "elc")
        narrow = neural.init_model([450, 4, 449], seed=0)
        with pytest.raises(ValueError, match="need 1 model.* 450 outputs"):
            pipeline.EnhancementSystem(None, narrow, *parts)
        with pytest.raises(ValueError, match="need 15 model.* 30 outputs"):
            pipeline.EnhancementSystem(SYSTEM.models[:14], None, *parts)
        with pytest.raises(ValueError, match="need 15 model"):
            pipeline.EnhancementSystem([system.joint_model] * 15, None, *parts)

    def test_layout_of_another_fft_size_refused_at_construction(self):
        # the 15 bands on the bins of a 512-point FFT, from the band edges
        wide = BandLayout(tuple(
            Band(b.center_hz, int(np.ceil(b.center_hz / 2 ** (1 / 6) / (FS / 512))),
                 int(np.ceil(b.center_hz * 2 ** (1 / 6) / (FS / 512)))) for b in LAYOUT.bands))
        assert wide.n_bands == LAYOUT.n_bands  # the same 15 bands, other bins
        with pytest.raises(ValueError, match="not the band layout of a 256-point FFT"):
            pipeline.EnhancementSystem(SYSTEM.models, None, wide, StftConfig(),
                                       SYSTEM.feature_norm, "elc")

    def test_stft_config_other_than_the_fixed_one_refused_at_construction(self):
        classical = tiny_classical_system()
        for config in ((512, 256), None):
            with pytest.raises(ValueError, match="not the fixed 256-point one"):
                pipeline.EnhancementSystem(SYSTEM.models, None, LAYOUT, config,
                                           SYSTEM.feature_norm, "elc")
            with pytest.raises(ValueError, match="not the fixed 256-point one"):
                baseline.ClassicalSystem(classical.model, config, classical.feature_norm)


class TestBandModelParity:
    def test_single_band_training_matches_system_training(self):
        train_ds = mixing.build_dataset(SPEECH[:4], NOISE, split="train", seed=0)
        val_ds = mixing.build_dataset(SPEECH[4:5], NOISE, split="validation", seed=1)
        config = neural.TrainConfig(objective="elc", max_epochs=2, seed=0)
        (model,), _, norm = pipeline.train_networks(train_ds, val_ds, [3], config, (16, 16),
                                                    400, 120)
        assert model.param_bytes() == SYSTEM.models[3].param_bytes()
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
        modeldir.save_norm(bad, path)
        with pytest.raises(neural.ModelFormatError):
            modeldir.load_norm(path)
        modeldir.save_norm(neural.FeatureNorm(good, good), path)
        assert np.array_equal(modeldir.load_norm(path).std, good)

    def test_system_txt_bytes(self, tmp_path):
        pipeline.save_system(SYSTEM, tmp_path / "mdl")
        assert (tmp_path / "mdl" / "system.txt").read_bytes() == (
            b"kind = per-band\nobjective = elc\nn_bands = 15\nn_env = 30\nfft_size = 256\n"
            b"hop = 128\nsample_rate_hz = 10000\nfirst_center_hz = 150\nout_of_band = zero\n"
        )
        names = sorted(p.name for p in (tmp_path / "mdl").iterdir())
        bands = [f"band_{j:02d}.mdl" for j in range(15)]
        assert names == bands + ["feature_norm.bin", "system.txt"]  # no temp files left

    @pytest.mark.parametrize("key", ["kind", "hop", "first_center_hz"])
    def test_missing_system_key_named(self, tmp_path, key):
        pipeline.save_system(SYSTEM, tmp_path / "mdl")
        meta = tmp_path / "mdl" / "system.txt"
        lines = meta.read_text().splitlines()
        meta.write_text("".join(f"{line}\n" for line in lines if not line.startswith(key)))
        with pytest.raises(neural.ModelFormatError, match=f"missing key.*{key}"):
            pipeline.load_system(tmp_path / "mdl")

    @pytest.mark.parametrize("key, value, expected", [
        ("hop", "12x8", "hop = '12x8' is not a positive integer"),
        ("n_bands", "0", "n_bands = '0' is not a positive integer"),
        ("n_env", "2.5", "n_env = '2.5' is not a positive integer"),
        ("fft_size", "", "fft_size = '' is not a positive integer"),
        ("sample_rate_hz", "10 kHz", "sample_rate_hz = '10 kHz' is not a positive integer"),
        ("first_center_hz", "low", "first_center_hz = 'low' is not a number"),
        ("kind", "banana", "kind = 'banana' is not one of per-band, joint"),
        ("objective", "stoi", "objective = 'stoi' is not one of elc, emse"),
        ("out_of_band", "banana", "out_of_band = 'banana' is not one of zero"),
        ("hop", "100", "hop = 100 is not 128"),
        ("hop", "64", "hop = 64 is not 128"),
        ("first_center_hz", "inf", "first_center_hz = inf is not 150.0"),
        ("first_center_hz", "170", "first_center_hz = 170.0 is not 150.0"),
        ("sample_rate_hz", "9000", "sample_rate_hz = 9000 is not 10000"),
        ("n_bands", "12", "n_bands = 12 is not 15"),
        ("out_of_band", "passthrough", "out_of_band = 'passthrough' is not one of zero"),
    ])
    def test_bad_system_value_named(self, tmp_path, key, value, expected):
        pipeline.save_system(SYSTEM, tmp_path / "mdl")
        set_system_value(tmp_path / "mdl", key, value)
        with pytest.raises(neural.ModelFormatError, match=re.escape(expected)):
            pipeline.load_system(tmp_path / "mdl")

    @pytest.mark.parametrize("line, expected", [
        (b"hop 128\n", "line 6 'hop 128' is not key = value"),
        (b"hop = 12\xff8\n", "line 6 is not UTF-8"),
    ])
    def test_malformed_system_line_named(self, tmp_path, line, expected):
        pipeline.save_system(SYSTEM, tmp_path / "mdl")
        meta = tmp_path / "mdl" / "system.txt"
        meta.write_bytes(meta.read_bytes().replace(b"hop = 128\n", line))
        with pytest.raises(neural.ModelFormatError, match=re.escape(f"{meta}: {expected}")):
            pipeline.load_system(tmp_path / "mdl")

    def test_band_file_objective_must_match_system(self, tmp_path):
        pipeline.save_system(SYSTEM, tmp_path / "mdl")
        neural.save_model(SYSTEM.models[4], tmp_path / "mdl" / "band_04.mdl", "emse")
        with pytest.raises(neural.ModelFormatError, match="band_04.mdl: objective emse != elc"):
            pipeline.load_system(tmp_path / "mdl")

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


def count_calls(monkeypatch, module, *names):
    """Wrap `module`'s functions `names` to count their calls; returns the
    live name -> count dict."""
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return calls


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
        # the old loop: both ELC scores, and the stoi_* columns scored by ELC again, per item
        expected = []
        for snr in snrs:
            children = np.random.SeedSequence([9, int(round(snr * 1000)) % (1 << 32)]).spawn(2)
            scores = []
            for child, clean in zip(children, clean_list):
                noisy, _ = mixing.mix_at_snr(clean, NOISE, snr, np.random.default_rng(child))
                enhanced = pipeline.enhance(SYSTEM, noisy)
                scores.append([
                    pipeline.score_elc(clean, noisy),
                    pipeline.score_elc(clean, enhanced),
                    pipeline.score_elc(clean, noisy),
                    pipeline.score_elc(clean, enhanced),
                ])
            means = [float(np.mean(col)) for col in zip(*scores)]
            expected.append(pipeline.EvalRow("ssn", snr, *means))
        assert rows == expected

    def test_each_utterance_leveled_once(self, monkeypatch):
        calls = []

        def counted(signal):
            calls.append(signal)
            return mixing.active_speech_level(signal)

        monkeypatch.setattr(pipeline, "active_speech_level", counted)
        pipeline.evaluate_system(SYSTEM, SPEECH[4:6], NOISE, [-5.0, 0.0, 5.0], seed=9)
        assert len(calls) == 2 and all(a is b for a, b in zip(calls, SPEECH[4:6]))

    def test_each_mixture_analyzed_once(self, monkeypatch):
        calls = count_calls(monkeypatch, pipeline, "analyze", "magnitude")
        pipeline.evaluate_system(SYSTEM, SPEECH[4:6], NOISE, [-5.0, 0.0, 5.0], seed=9)
        # 6 mixtures: one analysis each feeds their score and their enhancement;
        # one magnitude pass per clean utterance and per enhanced output
        assert calls == {"analyze": 6, "magnitude": 2 + 6}

    def test_classical_rows_match_composition(self):
        system = tiny_classical_system(seed=3)
        clean_list, snrs = SPEECH[4:6], [-5.0, 5.0]
        rows = pipeline.evaluate_system(system, clean_list, NOISE, snrs, seed=9,
                                        noise_type="ssn")
        levels = [mixing.active_speech_level(clean) for clean in clean_list]
        expected = []
        for snr in snrs:
            scores = []
            mixtures = pipeline.seeded_mixtures(clean_list, levels, NOISE, snr, 9)
            for clean, noisy in zip(clean_list, mixtures):
                enhanced = baseline.classical_enhance(system, noisy)
                scores.append([pipeline.score_elc(clean, noisy),
                               pipeline.score_elc(clean, enhanced)])
            up, enh = (float(np.mean(col)) for col in zip(*scores))
            expected.append(pipeline.EvalRow("ssn", snr, up, enh, up, enh))
        assert rows == expected


    @pytest.mark.parametrize("kind", ["per-band", "classical"])
    def test_rows_do_not_depend_on_the_worker_count(self, monkeypatch, kind):
        system = SYSTEM if kind == "per-band" else tiny_classical_system(seed=3)

        def rows(workers):
            monkeypatch.setattr(fanout, "_WORKERS", workers)
            return pipeline.evaluate_system(system, SPEECH[3:6], NOISE, [-5.0, 0.0, 5.0],
                                            seed=9, noise_type="ssn")

        serial = rows(1)
        threads = call_threads(monkeypatch)  # the items' forwards run on pool threads
        assert rows(2) == serial
        assert threads and threading.get_ident() not in threads

    def test_empty_clean_list_refused(self):
        with pytest.raises(ValueError, match="clean_list is empty"):
            pipeline.evaluate_system(SYSTEM, [], NOISE, [0.0])


class TestMagnitudeDataset:
    """Gathers keep the bits of the per-row loops they replaced."""

    DS = baseline.build_magnitude_dataset(SPEECH[:3], NOISE, seed=5)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_features_and_targets_equal_per_row_forms(self, data):
        # rows drawn across all three utterances, in any order, repeats allowed
        ds = self.DS
        rows = data.draw(st.lists(st.integers(0, ds.n_frames - 1), min_size=1, max_size=60))
        feats, clean, noisy = [], [], []
        for utt, frame in ds.index[rows]:
            context = ds.noisy_mag[utt][frame - ds.context + 1 : frame + 1]
            feats.append(np.log1p(context).reshape(-1))
            sl = slice(frame - ds.predict + 1, frame + 1)
            clean.append(ds.clean_mag[utt][sl].reshape(-1))
            noisy.append(ds.noisy_mag[utt][sl].reshape(-1))
        assert np.array_equal(ds.features(rows), np.array(feats))
        got_clean, got_noisy = ds.targets(rows)
        assert np.array_equal(got_clean, np.array(clean))
        assert np.array_equal(got_noisy, np.array(noisy))

    def test_magnitudes_are_analysis_magnitudes(self):
        for u, speech in enumerate(SPEECH[:3]):
            mixture = seeded_mixture(speech, NOISE, 5, u, 3)
            assert np.array_equal(self.DS.clean_mag[u], np.abs(analyze(speech)))
            assert np.array_equal(self.DS.noisy_mag[u], np.abs(analyze(mixture)))


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
        spec = analyze(pad_to_frames(noisy.samples))
        # every estimate is 0.5; frames before the first prediction window
        # pass through untouched
        gains = np.full(spec.shape, 0.5)
        gains[: system.context - system.predict] = 1.0
        expected = synthesize(apply_gain(spec, gains)).samples[: len(noisy)]
        assert np.array_equal(baseline.classical_enhance(system, noisy).samples, expected)

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
        loaded = pipeline.load_system(tmp_path / "base")
        _, noisy = noisy_fixture()
        a = baseline.classical_enhance(system, noisy)
        b = baseline.classical_enhance(loaded, noisy)
        assert np.array_equal(a.samples, b.samples)

    @pytest.mark.parametrize("key, value, expected", [
        ("context", "7.5", "context = '7.5' is not 30"),
        ("predict", "-1", "predict = '-1' is not 5"),
        # another window, with a network and feature norm of its widths
        ("context", "10", "context = '10' is not 30"),
        ("predict", "3", "predict = '3' is not 5"),
        # read as the per-band directory it claims to be
        ("kind", "per-band",
         "missing key(s) objective, n_bands, n_env, sample_rate_hz, first_center_hz"),
        ("hop", "12x8", "hop = '12x8' is not a positive integer"),
    ])
    def test_bad_system_value_named(self, tmp_path, key, value, expected):
        train_ds, val_ds = self._datasets()
        config = neural.TrainConfig(objective="emse", max_epochs=0, seed=5)
        system, _ = baseline.train_classical(
            train_ds, val_ds, config, hidden=(8,), max_train_frames=100, max_val_frames=50
        )
        baseline.save_classical(system, tmp_path / "base")
        if value.isdigit():
            window = {"context": system.context, "predict": system.predict, key: int(value)}
            n_in = window["context"] * N_BINS
            model = neural.init_model([n_in, 8, window["predict"] * N_BINS], seed=5)
            neural.save_model(model, tmp_path / "base" / "baseline.mdl", "emse")
            modeldir.save_norm(neural.FeatureNorm(np.zeros(n_in), np.ones(n_in)),
                               tmp_path / "base" / "feature_norm.bin")
        set_system_value(tmp_path / "base", key, value)
        with pytest.raises(neural.ModelFormatError, match=re.escape(expected)):
            pipeline.load_system(tmp_path / "base")
