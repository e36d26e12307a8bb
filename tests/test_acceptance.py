"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one pass/fail line
per criterion. The toy end-to-end training (criterion 8) builds a seeded
synthetic corpus of 20 minutes of pseudo-speech and trains both a
correlation-objective and an MSE-objective system at reduced width; the
determinism criterion runs it twice, in two processes at once, and
compares the runs bit-for-bit.
"""

import hashlib
import multiprocessing
import struct
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from envgain import mixing, neural, pipeline, verification
from envgain.neural import LrSchedule, TrainConfig
from envgain.octave import band_gains_to_stft_gains, envelopes
from envgain.stft import N_BINS, analyze, apply_gain, synthesize


# toy-training scale (criterion 8): >= 20 min of pseudo-speech, width 64
TRAIN_UTTERANCES = 400
VAL_UTTERANCES = 40
TEST_UTTERANCES = 40
UTTERANCE_S = 3.0
TOY_HIDDEN = (64, 64, 64)
TOY_EPOCHS = 20
TOY_TRAIN_FRAMES = 12_000
TOY_VAL_FRAMES = 3_000
TEST_SNRS_DB = [-5.0, 0.0, 5.0]
# per-objective initial rates for the toy scale, tuned the same way the
# full-scale rates were (per-objective preliminary experiments)
TOY_LR = {"elc": 0.01, "emse": 1e-3}


def report(criterion, condition, detail):
    status = "PASS" if condition else "FAIL"
    print(f"\n[{status}] criterion {criterion}: {detail}")
    assert condition, f"criterion {criterion}: {detail}"


def test_criterion_1_analytic_gradient():
    t0 = time.monotonic()
    result = verification.check_elc_gradient(n_pairs=10_000)
    elapsed = time.monotonic() - t0
    report(
        1,
        result.passed and elapsed <= 10.0,
        f"analytic gradient vs central differences over 10^4 pairs "
        f"({result.detail}, {elapsed:.1f}s)",
    )


def test_criterion_2_gradient_norm_identity_and_shape():
    identity = verification.check_grad_norm_identity(n_pairs=10_000)
    shape = verification.check_grad_norm_shape(n_points=201)
    report(
        2,
        identity.passed and shape.passed,
        f"norm identity ({identity.detail}); shape grid ({shape.detail})",
    )


def test_criterion_3_network_gradient():
    t0 = time.monotonic()
    result = verification.check_network_gradients()
    elapsed = time.monotonic() - t0
    report(
        3,
        result.passed and elapsed <= 30.0,
        f"full backprop finite-difference check, both objectives "
        f"({result.detail}, {elapsed:.1f}s)",
    )


def test_criterion_4_stft_perfect_reconstruction():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(3 * 256, 10 * 256))
        x = rng.standard_normal(n)
        out = synthesize(analyze(x)).samples
        interior = slice(256, len(out) - 256)
        err = np.max(np.abs(out[interior] - x[: len(out)][interior])) / np.max(np.abs(x))
        worst = max(worst, err)
    report(4, worst <= 1e-10, f"interior reconstruction over 100 signals, worst {worst:.2e}")


def test_criterion_5_uniform_band_gain_consistency():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(20):
        m = int(rng.integers(2, 12))
        mag = rng.uniform(0.1, 2.0, (m, N_BINS))
        spec = mag * np.exp(1j * rng.uniform(-np.pi, np.pi, (m, N_BINS)))
        gains = rng.uniform(0.0, 1.0, (15, m))
        env_before = envelopes(np.abs(spec))
        gained = apply_gain(spec, band_gains_to_stft_gains(gains))
        env_after = envelopes(np.abs(gained))
        err = np.abs(env_after - gains * env_before) / env_before
        worst = max(worst, float(err.max()))
    report(5, worst <= 1e-12, f"band-gain envelope identity, worst relative error {worst:.2e}")


def test_criterion_6_mixing_exactness():
    speech = mixing.pseudo_corpus(5, 2.0, seed=6)
    ref = mixing.pseudo_corpus(8, 8.0, seed=60)
    noises = {
        "ssn": mixing.synth_ssn(ref, 30.0, seed=61),
        "babble": mixing.synth_babble(ref, 6, 30.0, seed=62),
    }
    worst = 0.0
    for label, noise in noises.items():
        for snr in (-5.0, 0.0, 5.0, 10.0):
            for i, clean in enumerate(speech):
                _, scaled = mixing.mix_at_snr(clean, noise, snr, rng=1000 + i)
                measured = mixing.active_speech_level(clean) - mixing.overall_level(scaled)
                worst = max(worst, abs(measured - snr))
    report(6, worst <= 0.01, f"recomputed SNR across noises and SNRs, worst error {worst:.2e} dB")


# ---------------------------------------------------------------------------
# oracle-gain study (criterion 7) and toy training (criterion 8) are executed
# twice so criterion 10 can compare the runs bit-for-bit


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def oracle_gain_run():
    t0 = time.monotonic()
    speech = mixing.pseudo_corpus(200, 1.5, seed=70)
    noise = mixing.synth_ssn(mixing.pseudo_corpus(8, 8.0, seed=71), 30.0, seed=72)
    improved = 0
    score_bytes = []
    wave_hash = hashlib.sha256()
    for i, clean in enumerate(speech):
        noisy, _ = mixing.mix_at_snr(clean, noise, 0.0, rng=7000 + i)
        gains = pipeline.oracle_band_gains(clean, noisy)
        enhanced = pipeline.enhance_with_band_gains(noisy, gains)
        up = pipeline.score_elc(clean, noisy)
        enh = pipeline.score_elc(clean, enhanced)
        improved += enh >= up
        score_bytes.append(struct.pack("<dd", up, enh))
        wave_hash.update(enhanced.samples.tobytes())
    elapsed = time.monotonic() - t0
    return improved, _digest(*score_bytes), wave_hash.hexdigest(), elapsed


@pytest.fixture(scope="module")
def oracle_runs():
    return oracle_gain_run(), oracle_gain_run()


def toy_training_run():
    t0 = time.monotonic()
    train_speech = mixing.pseudo_corpus(TRAIN_UTTERANCES, UTTERANCE_S, seed=100)
    val_speech = mixing.pseudo_corpus(VAL_UTTERANCES, UTTERANCE_S, seed=200)
    test_speech = mixing.pseudo_corpus(TEST_UTTERANCES, UTTERANCE_S, seed=300)
    assert sum(s.duration_s for s in train_speech) >= 20 * 60.0

    noise = mixing.synth_ssn(train_speech[:20], 90.0, seed=400)
    noise_train, noise_val, noise_test = mixing.split_noise(noise, 40.0, 20.0, 30.0)
    train_ds = mixing.build_dataset(train_speech, noise_train, split="train", seed=101)
    val_ds = mixing.build_dataset(val_speech, noise_val, split="validation", seed=201)

    out = {}
    model_hash = hashlib.sha256()
    wave_hash = hashlib.sha256()
    for objective in ("elc", "emse"):
        config = TrainConfig(
            objective=objective,
            initial_lr_per_sample=TOY_LR[objective],
            max_epochs=TOY_EPOCHS,
            seed=42,
        )
        system, _ = pipeline.train_enhancement_system(
            train_ds, val_ds, config, hidden=TOY_HIDDEN,
            max_train_frames=TOY_TRAIN_FRAMES, max_val_frames=TOY_VAL_FRAMES,
        )
        for model in system.models:
            model_hash.update(model.param_bytes())
        rows = pipeline.evaluate_system(
            system, test_speech, noise_test, TEST_SNRS_DB, seed=77, noise_type="ssn"
        )
        noisy_probe, _ = mixing.mix_at_snr(test_speech[0], noise_test, 0.0, rng=5)
        wave_hash.update(pipeline.enhance(system, noisy_probe).samples.tobytes())
        out[objective] = {
            "elc_up": float(np.mean([r.elc_unprocessed for r in rows])),
            "elc_enh": float(np.mean([r.elc_enhanced for r in rows])),
            "stoi_up": float(np.mean([r.stoi_unprocessed for r in rows])),
            "stoi_enh": float(np.mean([r.stoi_enhanced for r in rows])),
            "rows": rows,
        }
    out["model_digest"] = model_hash.hexdigest()
    out["wave_digest"] = wave_hash.hexdigest()
    out["elapsed"] = time.monotonic() - t0
    return out


@pytest.fixture(scope="module")
def toy_runs():
    """Both toy runs at once, each in its own spawned process. The children
    inherit OPENBLAS_NUM_THREADS=1 and read it when they load numpy, so both
    runs use one BLAS thread, and criterion 10 compares two processes."""
    with pytest.MonkeyPatch.context() as env:
        env.setenv("OPENBLAS_NUM_THREADS", "1")
        with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("spawn")) as pool:
            runs = [pool.submit(toy_training_run) for _ in range(2)]
            return tuple(run.result() for run in runs)


@pytest.mark.slow
def test_criterion_7_oracle_gain_improvement(oracle_runs):
    improved, _, _, elapsed = oracle_runs[0]
    report(
        7,
        improved >= 0.95 * 200 and elapsed <= 120.0,
        f"ideal band gains improved ELC on {improved}/200 mixtures at 0 dB "
        f"({elapsed:.0f}s)",
    )


@pytest.mark.slow
def test_criterion_8_toy_end_to_end_training(toy_runs):
    run = toy_runs[0]
    elc_sys, emse_sys = run["elc"], run["emse"]
    gap = abs(elc_sys["elc_enh"] - emse_sys["elc_enh"])
    ok = (
        elc_sys["elc_enh"] > elc_sys["elc_up"]
        and elc_sys["stoi_enh"] > elc_sys["stoi_up"]
        and emse_sys["elc_enh"] > emse_sys["elc_up"]
        and gap <= 0.05
        and run["elapsed"] <= 30 * 60.0
    )
    report(
        8,
        ok,
        "toy systems on held-out data: "
        f"ELC-objective {elc_sys['elc_up']:.3f}->{elc_sys['elc_enh']:.3f} ELC, "
        f"{elc_sys['stoi_up']:.3f}->{elc_sys['stoi_enh']:.3f} approx-STOI; "
        f"EMSE-objective {emse_sys['elc_enh']:.3f} ELC; objective gap {gap:.3f} "
        f"(<= 0.05); {run['elapsed']:.0f}s",
    )


def test_criterion_9_learning_rate_schedule():
    sched = LrSchedule(lr=0.01, decay=0.7, floor=1e-10)
    lrs, decays = [], []
    for cost in [5.0, 4.0, 6.0, 3.0]:
        decays.append(sched.observe(cost))
        lrs.append(sched.lr)
    trace_ok = decays == [False, False, True, False] and lrs == pytest.approx(
        [0.01, 0.01, 0.007, 0.007]
    )

    # halt integration: conflicting validation target forces decays until
    # the rate crosses the 1e-10 floor
    feats = np.array([[1.0, -1.0]])
    noisy = np.ones((1, 2))
    train_data = neural.ArrayDataset(feats, np.ones((1, 2)), noisy)
    val_data = neural.ArrayDataset(feats, np.zeros((1, 2)), noisy)
    config = TrainConfig(
        objective="emse", initial_lr_per_sample=1.5e-10, lr_floor=1e-10,
        minibatch=1, max_epochs=50,
    )
    _, rep = neural.train(neural.init_model([2, 4, 2], seed=9), train_data, val_data, config)
    halt_ok = rep.stop_reason == "lr_floor" and 0 < len(rep.epochs) < 50
    report(
        9,
        trace_ok and halt_ok,
        f"[5,4,6,3] gives exactly one x0.7 decay at epoch 3; "
        f"training halted by the 1e-10 floor after {len(rep.epochs)} epochs",
    )


@pytest.mark.slow
def test_criterion_10_determinism(oracle_runs, toy_runs):
    o_same = oracle_runs[0][:3] == oracle_runs[1][:3]  # drop wall-clock time
    checks = {
        "models": toy_runs[0]["model_digest"] == toy_runs[1]["model_digest"],
        "waveforms": toy_runs[0]["wave_digest"] == toy_runs[1]["wave_digest"],
        "elc scores": toy_runs[0]["elc"]["rows"] == toy_runs[1]["elc"]["rows"],
        "emse scores": toy_runs[0]["emse"]["rows"] == toy_runs[1]["emse"]["rows"],
    }
    bad = [name for name, ok in checks.items() if not ok]
    report(
        10,
        o_same and not bad,
        "repeated oracle study and toy training give bit-identical models, "
        "waveforms and scores"
        + ("" if o_same and not bad else f" (mismatch: {'oracle ' if not o_same else ''}{bad})"),
    )
