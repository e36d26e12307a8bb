"""envgain benchmark: one workload per process, closed loop, one caller.

    python3 bench/run.py --workload train|enhance|corpus-eval \
        --seed N --seconds S --trace 0|1

The program is imported from ``src/`` of the checkout this file sits in.
Inputs are generated from --seed only. Each run builds its set-up three
times from scratch in a temporary directory under ``bench/.work`` (removed
at exit); the timed phase then repeats whole rounds of the workload's fixed
operations until --seconds have passed. Every set-up and every operation is
timed between slices of fixed calibration work (`Calibration`), so that
``setup_s`` (median of the three set-ups) and ``round_ref_s`` (one round:
each operation's median over the rounds, summed) are seconds at a fixed
reference host speed; wall seconds go into the run record. Outputs are
checked against the reference computations in ``reference.py``. The last
line of standard output is the result JSON; the line before it is the run
record.

With --trace 1 every public envgain function is wrapped by the span
recorder in ``spans.py`` during the timed phase and the result carries
per-layer self times and call counts per round instead of end-to-end
metrics. The spans are written to ``bench/out/``.
"""

from __future__ import annotations

import os

# One BLAS thread: the run is a single caller on a small shared host, and a
# fixed count keeps rounds comparable. Set before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import reference as ref  # noqa: E402
from spans import SpanRecorder, traced  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / ".work"
OUT_DIR = BENCH_DIR / "out"

SETUP_REPEATS = 3
# peak_rss_mb is read at the end of this round: glibc's heap keeps growing in
# steps over later identical rounds (train: 464 -> 491 MB between rounds 4
# and 5), so a reading at the end of the run would depend on the round count
PEAK_RSS_ROUND = 2
TOY_HIDDEN = (64, 64, 64)
WIDE = 512
ENHANCE_ATOL = 1e-9  # float64 path differences are ~1e-13; fixed before measuring
COST_RTOL = 1e-9
LSB = 1.0 / 32768.0
CAL_SHARE = 0.3  # calibration time around a timed call, as a share of its time
# One calibration slice on the 2-core host the README figures come from, when
# quiet; reference seconds are wall seconds scaled to that speed.
REFERENCE_SLICE_S = 0.02

PER_LAYER = [
    "neural.backward.self_ms", "neural.backward.calls", "neural.train.self_ms",
    "neural.evaluate_cost.self_ms", "neural.train.epochs", "neural.forward.self_ms",
    "neural.forward.calls", "neural.load_model.self_ms",
    "cost.elc_batch.self_ms", "cost.emse_batch.self_ms", "cost.elc_value_batch.self_ms",
    "cost.degenerate_windows",
    "mixing.EnvelopeDataset.features.self_ms", "mixing.EnvelopeDataset.band_targets.self_ms",
    "mixing.EnvelopeDataset.joint_targets.self_ms", "mixing.pseudo_corpus.self_ms",
    "mixing.pseudo_speech.self_ms",
    "mixing.synth_ssn.self_ms", "mixing.synth_babble.self_ms", "mixing.build_dataset.self_ms",
    "mixing.save_dataset.self_ms", "mixing.active_speech_level.self_ms",
    "mixing.active_speech_level.calls", "mixing.mix_at_snr.self_ms",
    "stft.analyze.self_ms", "stft.analyze.calls", "stft.synthesize.self_ms",
    "stft.apply_gain.self_ms",
    "octave.envelopes.self_ms", "octave.average_overlapping_gains.self_ms",
    "octave.average_overlapping_gains.calls", "octave.band_gains_to_stft_gains.self_ms",
    "pipeline.predict_gain_vectors.self_ms", "pipeline.enhance_with_band_gains.self_ms",
    "pipeline.predict_band_gains.self_ms", "pipeline.score_elc.self_ms",
    "pipeline.score_elc.calls", "pipeline.evaluate_system.self_ms",
    "pipeline.compute_feature_norm_for.self_ms", "pipeline.train_enhancement_system.self_ms",
    "pipeline.load_system.self_ms",
    "baseline.MagnitudeDataset.features.self_ms", "baseline.MagnitudeDataset.targets.self_ms",
    "baseline.train_classical.self_ms", "baseline.classical_gains.self_ms",
    "signal_io.read_wav.self_ms", "signal_io.write_wav.self_ms",
    "signal_io.to_working_rate.self_ms",
    "cli.main.self_ms", "cli.main.calls",
]


def import_program():
    """Import envgain from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "envgain" / "__init__.py").is_file():
        sys.exit(f"bench: no envgain sources at {src}")
    sys.path.insert(0, str(src))
    global envgain, baseline, cli, mixing, neural, pipeline
    import envgain
    from envgain import baseline, cli, mixing, neural, pipeline

    if Path(envgain.__file__).resolve().parent != (src / "envgain").resolve():
        sys.exit(f"bench: imported envgain from {envgain.__file__}, not {src}")


def subseed(seed: int, *keys: int) -> int:
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def model_layers(model):
    """A model's arrays in the form reference.mlp_forward takes."""
    return [
        (
            la.weights,
            la.bias,
            None if la.batch_norm is None else (
                la.batch_norm.gamma, la.batch_norm.beta,
                la.batch_norm.running_mean, la.batch_norm.running_var,
            ),
            la.activation,
        )
        for la in model.layers
    ]


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def run_cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class Calibration:
    """Reads timings against the host's speed at the moment they are taken.

    A slice is a fixed piece of work that uses nothing from envgain: FFT
    envelope scoring, a 512-wide MLP forward, a loop of small-array
    operations and a loop of plain Python arithmetic, the kinds of work
    envgain does. `measure` runs slices
    before and after the timed call, about CAL_SHARE of its time in all,
    and scales the call's seconds by REFERENCE_SLICE_S over the mean slice
    time: the result is seconds at the reference host speed."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.clean = rng.standard_normal(2 * ref.FS)
        self.noisy = self.clean + rng.standard_normal(2 * ref.FS)
        dims = [450, WIDE, WIDE, 30]
        self.layers = [
            (rng.standard_normal((o, i)) / np.sqrt(i), np.zeros(o),
             None if k == len(dims) - 2 else (np.ones(o), np.zeros(o), np.zeros(o), np.ones(o)),
             "sigmoid" if k == len(dims) - 2 else "relu")
            for k, (i, o) in enumerate(zip(dims, dims[1:]))
        ]
        self.feats = rng.standard_normal((256, 450))
        self.small = rng.uniform(size=(600, 30))
        self.slice_s = statistics.median(self.slice() for _ in range(5))
        self.slices: dict = {}  # slices on each side of a key's calls, fixed by its first call

    def slice(self) -> float:
        t0 = time.perf_counter()
        ref.envelope_score(self.clean, self.noisy)
        ref.mlp_forward(self.layers, self.feats)
        acc = np.zeros(630)
        for i, row in enumerate(self.small):
            acc[i : i + 30] += row / (1.0 + row.sum())
        total = 0.0
        for i in range(20000):
            total += (i % 7) * 0.5 - (i & 3)
        return time.perf_counter() - t0

    def measure(self, key, call):
        """(result, wall seconds, reference seconds) of call()."""
        before = [self.slice() for _ in range(self.slices.get(key, 1))]
        t0 = time.perf_counter()
        result = call()
        elapsed = time.perf_counter() - t0
        n = self.slices.setdefault(key, max(1, round(CAL_SHARE / 2 * elapsed / self.slice_s)))
        after = [self.slice() for _ in range(n)]
        return result, elapsed, elapsed * REFERENCE_SLICE_S / statistics.fmean(before + after)


def rate(work, seconds, jobs) -> float:
    """Work per reference second of the named jobs, from each job's work per
    round and its median reference seconds."""
    return sum(work[j] for j in jobs) / sum(statistics.median(seconds[j]) for j in jobs)


def rel_err(a, b) -> float:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return float(np.max(np.abs(a - b)) / max(float(np.max(np.abs(b))), 1e-300))


# ---------------------------------------------------------------------------
# workload: train


class TrainWorkload:
    """Four training calls, no STFT or enhancement in the timed phase:
    per-band ELC at toy width over many epochs, per-band ELC at paper width
    over one epoch, joint EMSE at toy width, classical STSA at width 512."""

    name = "train"
    UTT_S = 3.0
    N_TRAIN, N_VAL, N_TEST = 20, 2, 4
    BAND_UTTS, WIDE_UTTS, CLASSICAL_UTTS = 6, 1, 3
    BAND_EPOCHS, WIDE_EPOCHS, JOINT_EPOCHS, CLASSICAL_EPOCHS = 8, 1, 6, 1
    JOINT_LR = 1e-3
    TEST_SNR_DB = 0.0
    SEGMENT_S = 15.0

    def setup(self, workdir: Path, seed: int):
        n = self.N_TRAIN + self.N_VAL + self.N_TEST
        speech = mixing.pseudo_corpus(n, self.UTT_S, seed=subseed(seed, 1))
        train = speech[: self.N_TRAIN]
        val = speech[self.N_TRAIN : self.N_TRAIN + self.N_VAL]
        test = speech[self.N_TRAIN + self.N_VAL :]
        noise = mixing.synth_ssn(train[:12], 3 * self.SEGMENT_S, seed=subseed(seed, 2))
        n_train, n_val, n_test = mixing.split_noise(noise, *(self.SEGMENT_S,) * 3)
        tseed, vseed = subseed(seed, 3), subseed(seed, 4)

        def env(utts, noise, split, s):
            return mixing.build_dataset(utts, noise, split=split, seed=s)

        def mag(utts, noise, s):
            return baseline.build_magnitude_dataset(utts, noise, seed=s)

        return {
            "band": (env(train[: self.BAND_UTTS], n_train, "train", tseed),
                     env(val, n_val, "validation", vseed)),
            "wide": (env(train[: self.WIDE_UTTS], n_train, "train", tseed),
                     env(val[:1], n_val, "validation", vseed)),
            "joint": (env(train, n_train, "train", tseed), env(val, n_val, "validation", vseed)),
            "classical": (mag(train[: self.CLASSICAL_UTTS], n_train, tseed),
                          mag(val[:1], n_val, vseed)),
            "test": test,
            "test_noise": n_test.samples,
            "seed": seed,
        }

    def jobs(self, state):
        seed = state["seed"]
        cfg = neural.TrainConfig

        def envelope(key, config, hidden, joint=False):
            tr, va = state[key]
            system, reports = pipeline.train_enhancement_system(
                tr, va, config, hidden=hidden, joint=joint)
            return system, reports, tr.n_frames

        def classical():
            tr, va = state["classical"]
            system, report = baseline.train_classical(
                tr, va, cfg(objective="emse", max_epochs=self.CLASSICAL_EPOCHS,
                            seed=subseed(seed, 8)), hidden=(WIDE,) * 3)
            return system, [report], tr.n_frames

        return {
            "band": lambda: envelope("band", cfg(objective="elc", max_epochs=self.BAND_EPOCHS,
                                                 seed=subseed(seed, 5)), TOY_HIDDEN),
            "wide": lambda: envelope("wide", cfg(objective="elc", max_epochs=self.WIDE_EPOCHS,
                                                 seed=subseed(seed, 6)), (WIDE,) * 3),
            "joint": lambda: envelope("joint", cfg(objective="emse", max_epochs=self.JOINT_EPOCHS,
                                                   initial_lr_per_sample=self.JOINT_LR,
                                                   seed=subseed(seed, 7)), TOY_HIDDEN, joint=True),
            "classical": classical,
        }

    def work(self, job, result):
        """Training frames x epochs x networks trained."""
        _, reports, frames = result
        return frames * sum(len(r.epochs) for r in reports)

    def detail(self, work, seconds):
        return {f"{job}_train_frames_per_s": rate(work, seconds, [job]) for job in work}

    def counts(self, results):
        reports = [r for (_, reps, _) in results.values() for r in reps]
        return {
            "neural.train.epochs": sum(len(r.epochs) for r in reports),
            "cost.degenerate_windows": sum(e.n_degenerate for r in reports for e in r.epochs),
        }

    def validate_round(self, job, result, state, failures):
        pass

    def fingerprint(self, job, result):
        system = result[0]
        if job == "classical":
            models = [system.model]
        else:
            models = [system.joint_model] if system.is_joint else system.band_models
        return hashlib.sha256(b"".join(m.param_bytes() for m in models)).hexdigest()

    # -- checks

    @staticmethod
    def _env_rows(ds):
        """Reference gather of (features, clean, noisy) windows for all rows."""
        n = ds.n_env
        clean = np.stack([ds.clean_env[u][:, f - n + 1 : f + 1] for u, f in ds.index])
        noisy = np.stack([ds.noisy_env[u][:, f - n + 1 : f + 1] for u, f in ds.index])
        return np.log1p(noisy.reshape(len(noisy), -1)), clean, noisy

    @staticmethod
    def _mag_rows(ds):
        feats = np.stack([np.log1p(ds.noisy_mag[u][f - ds.context + 1 : f + 1]).reshape(-1)
                          for u, f in ds.index])
        sl = [(u, slice(f - ds.predict + 1, f + 1)) for u, f in ds.index]
        clean = np.stack([ds.clean_mag[u][s].reshape(-1) for u, s in sl])
        noisy = np.stack([ds.noisy_mag[u][s].reshape(-1) for u, s in sl])
        return feats, clean, noisy

    @staticmethod
    def _check_norm(norm, train_feats, what, failures):
        mean = train_feats.mean(axis=0)
        std = np.maximum(train_feats.std(axis=0), 1e-8)
        err = max(rel_err(norm.mean, mean), rel_err(norm.std, std))
        if err > COST_RTOL:
            failures.append(f"{what}: feature norm differs from reference by {err:.3g}")

    def check(self, state, results, failures, facts):
        for job in ("band", "wide", "joint", "classical"):
            system, reports, _ = results[job]
            tr, va = state[job]
            rows = self._mag_rows if job == "classical" else self._env_rows
            self._check_norm(system.feature_norm, rows(tr)[0], job, failures)
            feats, clean, noisy = rows(va)
            feats = (feats - system.feature_norm.mean) / system.feature_norm.std
            if job == "classical":
                objective, pairs = "emse", [(system.model, reports[0], clean, noisy)]
            elif system.is_joint:
                objective, pairs = system.objective, [(system.joint_model, reports[0], clean, noisy)]
            else:
                objective = system.objective
                pairs = [(m, r, clean[:, b], noisy[:, b])
                         for b, (m, r) in enumerate(zip(system.band_models, reports))]
            worst = 0.0
            for model, report, c, y in pairs:
                best = min(e.validation_cost for e in report.epochs)
                got = ref.mean_cost(ref.mlp_forward(model_layers(model), feats), c, y, objective)
                worst = max(worst, abs(got - best) / abs(best))
            facts[f"{job}_val_cost_rel_err"] = worst
            if worst > COST_RTOL:
                failures.append(f"{job}: best validation cost off reference by {worst:.3g}")

        # the toy ELC system must raise the envelope correlation of held-out
        # mixtures, scored by the reference scorer
        band_system = results["band"][0]
        rng = np.random.default_rng(subseed(state["seed"], 9))
        before, after = [], []
        for clean in state["test"]:
            x = clean.samples
            start = int(rng.integers(0, len(state["test_noise"]) - len(x) + 1))
            cut = state["test_noise"][start : start + len(x)]
            gain = np.sqrt(np.mean(x * x) / np.mean(cut * cut)) * 10 ** (-self.TEST_SNR_DB / 20)
            noisy = x + gain * cut
            enhanced = pipeline.enhance(band_system, envgain.TimeSignal(noisy, ref.FS)).samples
            before.append(ref.envelope_score(x, noisy))
            after.append(ref.envelope_score(x, enhanced))
        facts["heldout_elc_before"] = float(np.mean(before))
        facts["heldout_elc_after"] = float(np.mean(after))
        if not np.mean(after) > np.mean(before):
            failures.append(f"toy ELC system lowered held-out ELC: {before} -> {after}")


# ---------------------------------------------------------------------------
# workload: enhance


class EnhanceWorkload:
    """Enhancement only: in-memory calls with four systems on seeded noisy
    mixtures, then per-file `envgain enhance` through cli.main on 16 kHz and
    10 kHz WAV files with the paper-width per-band model."""

    name = "enhance"
    N_MIX = 8
    MIN_S, MAX_S = 1.0, 8.0
    SNR_DB = (-5.0, 10.0)
    N_CLI = 6  # half at 16 kHz, half at 10 kHz
    CLI_S = 3.0
    NOISE_S = 60.0

    def setup(self, workdir: Path, seed: int):
        corpus = mixing.pseudo_corpus(12, 3.0, seed=subseed(seed, 1))
        noises = {
            "ssn": mixing.synth_ssn(corpus, self.NOISE_S, seed=subseed(seed, 2)),
            "babble": mixing.synth_babble(corpus, 6, self.NOISE_S, seed=subseed(seed, 3)),
        }
        rng = np.random.default_rng(subseed(seed, 4))

        # toy per-band system, trained briefly; its weights only feed the checks
        n_tr, n_va, _ = mixing.split_noise(noises["ssn"], 20.0, 20.0, 20.0)
        toy, _ = pipeline.train_enhancement_system(
            mixing.build_dataset(corpus[:4], n_tr, seed=subseed(seed, 5)),
            mixing.build_dataset(corpus[4:5], n_va, split="validation", seed=subseed(seed, 6)),
            neural.TrainConfig(objective="elc", max_epochs=1, seed=subseed(seed, 7)),
            hidden=TOY_HIDDEN,
        )
        # paper-width systems with seeded weights: values do not change the work
        feat_dim = toy.layout.n_bands * toy.n_env
        keys = np.random.SeedSequence(subseed(seed, 8)).generate_state(toy.layout.n_bands + 2)
        wide = pipeline.EnhancementSystem(
            [neural.init_model([feat_dim, WIDE, WIDE, WIDE, toy.n_env], int(k)) for k in keys[:-2]],
            None, toy.layout, toy.stft_config, toy.feature_norm, "elc")
        joint = pipeline.EnhancementSystem(
            None, neural.init_model([feat_dim, WIDE, WIDE, WIDE, feat_dim], int(keys[-2])),
            toy.layout, toy.stft_config, toy.feature_norm, "elc")
        log_mag = np.log1p(np.abs(ref.stft(np.concatenate([c.samples for c in corpus]))))
        classical = baseline.ClassicalSystem(
            neural.init_model([baseline.CONTEXT_FRAMES * log_mag.shape[1], WIDE, WIDE, WIDE,
                               baseline.PREDICT_FRAMES * log_mag.shape[1]], int(keys[-1])),
            toy.stft_config,
            neural.FeatureNorm(np.tile(log_mag.mean(axis=0), baseline.CONTEXT_FRAMES),
                               np.tile(np.maximum(log_mag.std(axis=0), 1e-8), baseline.CONTEXT_FRAMES)))
        systems = {"band": toy, "wide": wide, "joint": joint, "classical": classical}
        dirs = {}
        for name, system in systems.items():
            dirs[name] = workdir / f"model_{name}"
            if name == "classical":
                baseline.save_classical(system, dirs[name])
            else:
                pipeline.save_system(system, dirs[name])

        # noisy mixtures: one length in each of N_MIX equal strata of
        # [MIN_S, MAX_S], jittered by a zero-sum seeded offset, so every seed
        # enhances the same total audio
        jitter = rng.uniform(-0.25, 0.25, size=self.N_MIX)
        strata = (np.arange(self.N_MIX) + 0.5 + jitter - jitter.mean()) / self.N_MIX
        lengths = rng.permutation(self.MIN_S + (self.MAX_S - self.MIN_S) * strata)
        kinds = rng.permutation(["ssn", "babble"] * (self.N_MIX // 2))
        mixtures = []
        for i, (length, kind) in enumerate(zip(lengths, kinds)):
            clean = mixing.pseudo_speech(float(length), seed=subseed(seed, 100 + i))
            noisy, _ = mixing.mix_at_snr(clean, noises[kind], float(rng.uniform(*self.SNR_DB)), rng)
            mixtures.append(noisy)

        cli_files = []
        for i in range(self.N_CLI):
            rate = 16000 if i < self.N_CLI // 2 else ref.FS
            clean = mixing.pseudo_speech(self.CLI_S, seed=subseed(seed, 200 + i), fs=rate).samples
            hiss = rng.standard_normal(len(clean))
            snr = rng.uniform(*self.SNR_DB)
            noisy = clean + hiss * np.sqrt(np.mean(clean**2) / np.mean(hiss**2)) * 10 ** (-snr / 20)
            path = workdir / f"noisy_{i:02d}_{rate}.wav"
            ref.write_wav16(0.5 * noisy / np.max(np.abs(noisy)), rate, path)
            cli_files.append(path)
        return {"systems": systems, "dirs": dirs, "mixtures": mixtures,
                "cli_files": cli_files, "workdir": workdir, "seed": seed}

    def jobs(self, state):
        systems, mixtures = state["systems"], state["mixtures"]

        def sweep(name):
            system = systems[name]
            if name == "classical":
                return lambda: [baseline.classical_enhance(system, m) for m in mixtures]
            return lambda: [pipeline.enhance(system, m) for m in mixtures]

        def cli_call(path, out):
            def call():
                code, _ = run_cli(["enhance", "--model", str(state["dirs"]["wide"]),
                                   "--in", str(path), "--out", str(out)])
                if code != 0:
                    raise RuntimeError(f"envgain enhance exited {code} on {path}")
                return out
            return call

        jobs = {name: sweep(name) for name in ("band", "wide", "joint", "classical")}
        for i, path in enumerate(state["cli_files"]):
            jobs[f"cli_{i:02d}"] = cli_call(path, state["workdir"] / f"enhanced_{i:02d}.wav")
        return jobs

    def work(self, job, result):
        if job.startswith("cli"):
            return 1
        return sum(len(m) for m in result) / ref.FS

    def detail(self, work, seconds):
        names = {"band": "enhance_rtf", "wide": "wide_enhance_rtf",
                 "joint": "joint_enhance_rtf", "classical": "classical_enhance_rtf"}
        out = {names[j]: rate(work, seconds, [j]) for j in names}
        calls = [t for job, times in seconds.items() if job.startswith("cli") for t in times]
        out["cli_enhance_p50_ms"] = 1000.0 * statistics.median(calls)
        out["cli_enhance_calls"] = len(calls)
        return out

    def counts(self, results):
        return {}

    def fingerprint(self, job, result):
        if job.startswith("cli"):
            return digest(ref.read_wav16(result)[0])
        return digest(*(m.samples for m in result))

    def validate_round(self, job, result, state, failures):
        if job.startswith("cli"):
            return
        for mix, out in zip(state["mixtures"], result):
            if len(out) != len(mix) or not np.all(np.isfinite(out.samples)):
                failures.append(f"{job}: output not finite or of wrong length")
                return

    def _reference(self, name, system, x):
        norm = system.feature_norm
        if name == "classical":
            return ref.enhance_classical(x, norm.mean, norm.std, model_layers(system.model),
                                         system.context, system.predict)
        if system.is_joint:
            return ref.enhance_envelope_system(x, norm.mean, norm.std, None,
                                               model_layers(system.joint_model))
        return ref.enhance_envelope_system(
            x, norm.mean, norm.std, [model_layers(m) for m in system.band_models], None)

    def check(self, state, results, failures, facts):
        rng = np.random.default_rng(subseed(state["seed"], 10))
        worst = 0.0
        for name, system in state["systems"].items():
            for i in rng.choice(self.N_MIX, size=2, replace=False):
                x = state["mixtures"][i].samples
                err = float(np.max(np.abs(results[name][i].samples - self._reference(name, system, x))))
                worst = max(worst, err)
                if err > ENHANCE_ATOL:
                    failures.append(f"{name}: mixture {i} off reference enhancement by {err:.3g}")
        facts["enhance_max_abs_err"] = worst

        worst = 0.0
        outs = [results[f"cli_{i:02d}"] for i in range(len(state["cli_files"]))]
        for path, out in zip(state["cli_files"], outs):
            x, rate = ref.read_wav16(path)
            expect = np.clip(self._reference("wide", state["systems"]["wide"],
                                             ref.resample_to_working_rate(x, rate)), -1.0, 1.0)
            got, got_rate = ref.read_wav16(out)
            if got_rate != ref.FS or len(got) != len(expect):
                failures.append(f"cli: {out.name} has rate {got_rate} and {len(got)} samples")
                continue
            err = float(np.max(np.abs(got - expect)))
            worst = max(worst, err)
            if err > LSB + 1e-9:
                failures.append(f"cli: {out.name} off reference by {err / LSB:.2f} LSB")
        facts["cli_max_err_lsb"] = worst / LSB


# ---------------------------------------------------------------------------
# workload: corpus-eval


class CorpusEvalWorkload:
    """The evaluation protocol through the CLI: `envgain synth-data` from a
    pseudo-speech manifest with SSN noise and from a 16 kHz WAV manifest with
    babble, then `envgain evaluate` of a toy per-band ELC model on both
    corpora at several SNRs (matched and unmatched noise)."""

    name = "corpus-eval"
    N_MODEL_TRAIN, MODEL_UTT_S, MODEL_EPOCHS = 16, 2.5, 2
    N_UTTS, UTT_S = 40, 2.5
    SNRS = "0,2,4"

    def setup(self, workdir: Path, seed: int):
        speech = mixing.pseudo_corpus(self.N_MODEL_TRAIN + 2, self.MODEL_UTT_S, seed=subseed(seed, 1))
        train, val = speech[: self.N_MODEL_TRAIN], speech[self.N_MODEL_TRAIN :]
        noise = mixing.synth_ssn(train, 45.0, seed=subseed(seed, 2))
        n_tr, n_va, _ = mixing.split_noise(noise, 15.0, 15.0, 15.0)
        system, _ = pipeline.train_enhancement_system(
            mixing.build_dataset(train, n_tr, seed=subseed(seed, 3)),
            mixing.build_dataset(val, n_va, split="validation", seed=subseed(seed, 4)),
            neural.TrainConfig(objective="elc", max_epochs=self.MODEL_EPOCHS, seed=subseed(seed, 5)),
            hidden=TOY_HIDDEN,
        )
        model_dir = workdir / "model"
        pipeline.save_system(system, model_dir)

        wav_dir = workdir / "speech16k"
        wav_dir.mkdir()
        paths = []
        for i in range(self.N_UTTS):
            x = mixing.pseudo_speech(self.UTT_S, seed=subseed(seed, 100 + i), fs=16000).samples
            paths.append(wav_dir / f"{i:04d}.wav")
            ref.write_wav16(0.5 * x / np.max(np.abs(x)), 16000, paths[-1])
        manifest = workdir / "speech16k.txt"
        manifest.write_text("".join(f"{p}\n" for p in paths), encoding="utf-8")
        return {"model": model_dir, "manifest": manifest, "wavs": paths,
                "workdir": workdir, "seed": seed}

    def jobs(self, state):
        seed = state["seed"]

        def synth(kind):
            manifest = f"pseudo:{self.N_UTTS}x{self.UTT_S:g}" if kind == "ssn" else str(state["manifest"])

            def call():
                out = state["workdir"] / f"corpus_{kind}"
                shutil.rmtree(out, ignore_errors=True)
                code, _ = run_cli(["synth-data", "--manifest", manifest, "--noise", kind,
                                   "--seed", str(subseed(seed, 20)), "--out", str(out)])
                if code != 0:
                    raise RuntimeError(f"envgain synth-data exited {code}")
                return out
            return call

        def evaluate(kind):
            def call():
                code, text = run_cli(["evaluate", "--model", str(state["model"]),
                                      "--testset", str(state["workdir"] / f"corpus_{kind}"),
                                      "--snrs", self.SNRS, "--format", "csv",
                                      "--seed", str(subseed(seed, 21))])
                if code != 0:
                    raise RuntimeError(f"envgain evaluate exited {code}")
                return text
            return call

        return {"synth_ssn": synth("ssn"), "synth_babble": synth("babble"),
                "eval_ssn": evaluate("ssn"), "eval_babble": evaluate("babble")}

    def work(self, job, result):
        """Seconds of clean speech turned into a corpus, or utterance x SNR
        items scored (synth-data keeps a tenth of the utterances for test)."""
        if job.startswith("synth"):
            return self.N_UTTS * self.UTT_S
        return (len(result.strip().splitlines()) - 1) * max(1, self.N_UTTS // 10)

    def detail(self, work, seconds):
        return {"synth_audio_s_per_s": rate(work, seconds, ["synth_ssn", "synth_babble"]),
                "eval_items_per_s": rate(work, seconds, ["eval_ssn", "eval_babble"])}

    def counts(self, results):
        return {}

    def validate_round(self, job, result, state, failures):
        pass

    def fingerprint(self, job, result):
        if job.startswith("synth"):
            return digest(*(ref.read_wav16(p)[0] for p in sorted(result.glob("clean_*/*.wav"))))
        return hashlib.sha256(result.encode()).hexdigest()

    def check(self, state, results, failures, facts):
        for kind in ("ssn", "babble"):
            corpus = results[f"synth_{kind}"]
            for split, pack in (("train", "train.pack"), ("val", "val.pack")):
                ds = mixing.load_dataset(corpus / pack)
                wavs = sorted((corpus / f"clean_{split}").glob("*.wav"))
                if len(wavs) != len(ds.clean_env):
                    failures.append(f"{kind}/{pack}: {len(ds.clean_env)} utterances, {len(wavs)} WAVs")
                    continue
                err = max(rel_err(env, ref.signal_envelopes(ref.read_wav16(w)[0], pad=False))
                          for env, w in zip(ds.clean_env, wavs))
                facts[f"{kind}_{split}_envelope_rel_err"] = err
                if err > COST_RTOL:
                    failures.append(f"{kind}/{pack}: clean envelopes off reference by {err:.3g}")

            header, *lines = results[f"eval_{kind}"].strip().splitlines()
            names = header.split(",")[2:]  # after the noise and snr_db columns
            table = {}
            for line in lines:
                cells = line.split(",")
                table[float(cells[1])] = dict(zip(names, map(float, cells[2:])))
            facts[f"{kind}_table"] = {f"{snr:g}": row for snr, row in sorted(table.items())}
            if len(table) != len(self.SNRS.split(",")):
                failures.append(f"{kind}: {len(table)} table rows")
            for snr, row in table.items():
                if not all(-1.0 <= v <= 1.0 for v in row.values()):
                    failures.append(f"{kind} {snr:g} dB: table value outside [-1, 1]: {row}")
                if not row["elc_enh"] > row["elc_up"]:
                    failures.append(f"{kind} {snr:g} dB: elc_enh not above elc_up: {row}")
            ups = [table[snr]["elc_up"] for snr in sorted(table)]
            if not all(a < b for a, b in zip(ups, ups[1:])):
                failures.append(f"{kind}: elc_up does not rise with SNR: {ups}")

        # the babble corpus came from 16 kHz WAVs: its stored clean training
        # speech must be the reference resampling of those files
        corpus = results["synth_babble"]
        worst = 0.0
        for src, out in zip(state["wavs"], sorted((corpus / "clean_train").glob("*.wav"))):
            x, rate = ref.read_wav16(src)
            expect = ref.resample_to_working_rate(x, rate)
            got, _ = ref.read_wav16(out)
            worst = max(worst, float(np.max(np.abs(got - expect))) if len(got) == len(expect) else np.inf)
        facts["resample_max_err_lsb"] = worst / LSB
        if worst > LSB + 1e-9:
            failures.append(f"babble corpus: stored speech off reference resampling by {worst / LSB:.2f} LSB")


WORKLOADS = {w.name: w for w in (TrainWorkload(), EnhanceWorkload(), CorpusEvalWorkload())}


# ---------------------------------------------------------------------------
# run record


def run_record(args) -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    runtime_threads = None
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "libscipy_openblas*.so"))
    if libs:
        import ctypes

        try:
            lib = ctypes.CDLL(libs[0])
            fn = getattr(lib, "scipy_openblas_get_num_threads64_", None) or lib.openblas_get_num_threads
            runtime_threads = int(fn())
        except (OSError, AttributeError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(BLAS_THREADS),
        "blas_threads_runtime": runtime_threads,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref_name = text[5:]
        loose = ROOT / ".git" / ref_name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref_name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# main


def per_layer_metrics(recorder: SpanRecorder, counts: dict, rounds: int) -> dict:
    summary = recorder.summary()
    out = {}
    for metric in PER_LAYER:
        span, kind = metric.rsplit(".", 1)
        self_s, calls = summary.get(span, (0.0, 0))
        if kind == "self_ms":
            out[metric] = {"value": 1000.0 * self_s / rounds, "unit": "ms"}
            continue
        total = counts.get(metric, calls)
        per_round = total // rounds if total % rounds == 0 else total / rounds
        out[metric] = {"value": per_round, "unit": "count"}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    workload = WORKLOADS[args.workload]
    record = run_record(args)

    WORK_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK_DIR))
    try:
        return run(workload, args, record, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()


def run(workload, args, record, tmp: Path) -> int:
    cal = Calibration()
    setup_raw, setup_ref = [], []
    for i in range(SETUP_REPEATS):
        workdir = tmp / f"setup{i}"
        workdir.mkdir()
        state, raw, reference = cal.measure("setup", lambda: workload.setup(workdir, args.seed))
        setup_raw.append(raw)
        setup_ref.append(reference)
        if i + 1 < SETUP_REPEATS:
            shutil.rmtree(workdir)

    jobs = workload.jobs(state)
    recorder = SpanRecorder()
    modules = [envgain] + [sys.modules[f"envgain.{m}"] for m in (
        "signal_io", "stft", "octave", "cost", "neural", "mixing", "pipeline", "baseline", "cli")]
    classes = [mixing.EnvelopeDataset, baseline.MagnitudeDataset]
    tracing = traced(recorder, modules, classes) if args.trace else contextlib.nullcontext()

    round_raw, fingerprints, counts = [], {}, {}
    peak_rss_mb = None
    job_wall = {j: [] for j in jobs}  # wall seconds per round
    job_work = {}  # work per round, the same in every round
    job_ref = {j: [] for j in jobs}  # reference seconds per round
    attempted = failed = 0
    failures: list[str] = []
    with tracing:
        deadline = time.perf_counter() + args.seconds
        while True:
            recorder.round = len(round_raw)
            results = {}
            round_raw.append(0.0)
            for job, call in jobs.items():
                attempted += 1
                try:
                    results[job], raw, reference = cal.measure(job, call)
                except Exception:  # a failed operation is counted, the run goes on
                    failed += 1
                    traceback.print_exc(file=sys.stderr)
                    continue
                round_raw[-1] += raw
                job_wall[job].append(raw)
                job_work[job] = workload.work(job, results[job])
                job_ref[job].append(reference)
            for job, result in results.items():
                workload.validate_round(job, result, state, failures)
                fingerprints.setdefault(job, set()).add(workload.fingerprint(job, result))
            for name, value in workload.counts(results).items():
                counts[name] = counts.get(name, 0) + value
            if len(round_raw) == PEAK_RSS_ROUND:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if time.perf_counter() >= deadline:
                break

    facts: dict = {}
    for job, prints in fingerprints.items():
        if len(prints) != 1:
            failures.append(f"{job}: outputs differ between rounds of the same seed")
    if len(results) == len(jobs):
        try:
            workload.check(state, results, failures, facts)
        except Exception:  # a check that raises is a failed check
            traceback.print_exc(file=sys.stderr)
            failures.append("check raised")
    else:
        failures.append("last round incomplete")
    for failure in failures:
        print(f"bench: check failed: {failure}", file=sys.stderr)

    rounds = len(round_raw)
    complete = all(job_wall.values())
    # a round at reference speed: each job's median over rounds, summed
    round_ref_s = sum(statistics.median(t) for t in job_ref.values()) if complete else float("nan")
    record.update(
        rounds=rounds, attempted=attempted, failed=failed,
        setup_wall_s=setup_raw, setup_ref_s=setup_ref, round_wall_s=round_raw,
        round_ref_s=round_ref_s, calibration_slice_s=cal.slice_s,
        job_wall_s=job_wall, job_ref_s=job_ref,
        jobs=workload.detail(job_work, job_ref) if complete else {},
        checks=facts,
    )
    if args.trace:
        metrics = per_layer_metrics(recorder, counts, rounds)
        OUT_DIR.mkdir(exist_ok=True)
        out = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps({"run_record": record, "metrics": metrics,
                                   "spans": recorder.spans}), encoding="utf-8")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_ref), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb or resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            "round_ref_s": {"value": round_ref_s, "unit": "s"},
        }
    print(json.dumps({"run_record": record}))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
