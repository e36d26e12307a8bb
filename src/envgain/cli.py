"""Command-line front end.

Subcommands: synth-data, train, train-baseline, enhance, evaluate,
gain-corr, verify. Exit codes: 0 success, 1 usage error, 2 data error,
3 numeric failure.

Training configuration files are flat ``key = value`` text; unknown keys
are rejected. Data directories produced by synth-data contain the clean
utterance WAVs per split, the three disjoint noise segments, envelope
dataset caches (train.pack / val.pack) and a meta.txt record.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import baseline, framed, mixing, modeldir, neural, pipeline
from .modeldir import COUNT, RATE, SEED, checked, one_of
from .octave import ENVELOPE_LEN
from .signal_io import WORKING_RATE_HZ, TimeSignal, WavError, read_wav, to_working_rate, write_wav
from .stft import FFT_SIZE, HOP

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

# a pseudo corpus holds at most this much speech, each utterance counted as at
# least a second: ten hours are 2.9 GB of samples
MAX_PSEUDO_SECONDS = 36_000

# the kind (see `modeldir.checked`) of each config file key and numeric option
_CONFIG_KEYS = {
    "initial_lr_per_sample": RATE,
    "lr_decay": (float, lambda v: 0.0 < v <= 1.0, "a number in (0, 1]"),
    "lr_floor": RATE,
    "max_epochs": COUNT,
    "minibatch": COUNT,
    "seed": SEED,
    "hidden": COUNT,  # each entry of a comma-separated list
    "max_train_frames": COUNT,
    "max_val_frames": COUNT,
}
_OPTIONS = {"seed": SEED}


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # let SNR values like "-5:10", "-5,0,5" or "-inf:5" pass as option
        # values, so that a non-finite one is refused by its parser
        self._negative_number_matcher = re.compile(r"^-(\d|inf|nan)[\w:,.+-]*$", re.I)

    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="envgain", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-data", help="generate a desk-scale mixing corpus")
    p.set_defaults(run=_cmd_synth_data)
    p.add_argument("--manifest", required=True,
                   help="WAV file list, or pseudo:COUNTxSECONDS for synthetic speech")
    p.add_argument("--noise", required=True,
                   help="ssn | babble | file:PATH")
    p.add_argument("--snr-range", default="-5:10", help="training SNR range LO:HI in dB")
    p.add_argument("--seed", default="0")
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train envelope-gain networks")
    p.set_defaults(run=_cmd_train)
    p.add_argument("--data", required=True)
    p.add_argument("--objective", choices=("elc", "emse"), default="elc")
    p.add_argument("--band", default="all", help="all (one network per band) or joint")
    p.add_argument("--config", help="key = value training overrides")
    p.add_argument("--out", required=True)

    p = sub.add_parser("train-baseline", help="train the spectral-magnitude MSE baseline")
    p.set_defaults(run=_cmd_train_baseline)
    p.add_argument("--data", required=True)
    p.add_argument("--config", help="key = value training overrides")
    p.add_argument("--out", required=True)

    p = sub.add_parser("enhance", help="enhance one WAV file")
    p.set_defaults(run=_cmd_enhance)
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("evaluate", help="score a model on a test set")
    p.set_defaults(run=_cmd_evaluate)
    p.add_argument("--model", required=True)
    p.add_argument("--testset", required=True)
    p.add_argument("--snrs", default="-5,0,5")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.add_argument("--seed", default="0")

    p = sub.add_parser("gain-corr", help="gain-vector correlation between two models")
    p.set_defaults(run=_cmd_gain_corr)
    p.add_argument("--model-a", required=True)
    p.add_argument("--model-b", required=True)
    p.add_argument("--testset", required=True)
    p.add_argument("--snrs", default="-5,5")
    p.add_argument("--seed", default="0")

    p = sub.add_parser("verify", help="run the analytic-vs-numeric gradient checks")
    p.set_defaults(run=_cmd_verify)
    return parser


def _parse_snr_range(text: str):
    try:
        lo, hi = (float(v) for v in text.split(":"))
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError
    except ValueError:
        raise ValueError(f"bad SNR range {text!r}, expected LO:HI in finite dB") from None
    if hi < lo:
        raise ValueError(f"bad SNR range {text!r}: HI < LO")
    return lo, hi


def _parse_snr_list(text: str):
    try:
        snrs = [float(v) for v in text.split(",") if v.strip()]
        if not snrs or not all(map(math.isfinite, snrs)):
            raise ValueError
    except ValueError:
        raise ValueError(f"bad SNR list {text!r}, expected comma-separated finite dB values") from None
    return snrs


def _load_speech(manifest: str, seed: int) -> list[TimeSignal]:
    if manifest.startswith("pseudo:"):
        spec = manifest[len("pseudo:"):]
        try:
            count, secs = spec.split("x")
            count, secs = int(count), float(secs)
            if not (1 <= count <= MAX_PSEUDO_SECONDS and 0.0 < secs <= MAX_PSEUDO_SECONDS / count):
                raise ValueError
        except ValueError:
            raise ValueError(f"bad pseudo spec {manifest!r}, expected pseudo:COUNTxSECONDS "
                             "with a positive count and a finite, positive duration, at most "
                             f"{MAX_PSEUDO_SECONDS} utterances and {MAX_PSEUDO_SECONDS} s in all"
                             ) from None
        return mixing.pseudo_corpus(count, secs, seed)
    paths = mixing.read_manifest(manifest)
    if not paths:
        raise ValueError(f"{manifest}: empty manifest")
    return [to_working_rate(read_wav(p)) for p in paths]


def _load_train_config(path, objective="elc") -> tuple[neural.TrainConfig, dict]:
    """TrainConfig plus the extra keys (hidden, frame caps) from a config file."""
    extras = {"hidden": neural.DEFAULT_HIDDEN, "max_train_frames": None, "max_val_frames": None}
    config = neural.TrainConfig(objective=objective)
    if path is None:
        return config, extras
    raw = modeldir.parse_kv(path)
    unknown = set(raw) - set(_CONFIG_KEYS)
    if unknown:
        raise ValueError(f"{path}: unknown config keys {sorted(unknown)}; "
                         f"allowed: {sorted(_CONFIG_KEYS)}")
    fields = {}
    for key, value in raw.items():
        if key == "hidden":
            extras[key] = tuple(checked(f"{path}: {key} = {v!r}", v, COUNT)
                                for v in value.split(","))
        else:
            typed = checked(f"{path}: {key} = {value!r}", value, _CONFIG_KEYS[key])
            (extras if key in extras else fields)[key] = typed
    return replace(config, **fields), extras


def _print_report(label: str, report: neural.TrainReport) -> None:
    last = report.epochs[-1].validation_cost if report.epochs else float("nan")
    print(f"{label}: {len(report.epochs)} epochs, stop={report.stop_reason}, "
          f"final val cost {last:.6f}")


def _cmd_synth_data(args) -> int:
    snr_range = _parse_snr_range(args.snr_range)
    # the noise spec is checked, and a noise file read, before any speech is made
    if args.noise.startswith("file:"):
        noise = to_working_rate(read_wav(args.noise[len("file:"):]))
        if not np.any(noise.samples):
            raise ValueError(f"{args.noise}: the noise file is silent (every sample is 0)")
    elif args.noise not in ("ssn", "babble"):
        raise ValueError(f"unknown noise source {args.noise!r}")
    speech = _load_speech(args.manifest, args.seed)
    if len(speech) < 3:
        raise ValueError(f"need at least 3 utterances to split, got {len(speech)}")
    n = len(speech)
    n_val = max(1, n // 10)
    n_test = max(1, n // 10)
    n_train = n - n_val - n_test
    splits = {
        "train": speech[:n_train],
        "val": speech[n_train : n_train + n_val],
        "test": speech[n_train + n_val :],
    }

    longest_s = max(sig.duration_s for sig in speech)
    seg_s = max(10.0, 1.5 * longest_s)
    if args.noise == "ssn":
        noise = mixing.synth_ssn(splits["train"], 3 * seg_s, seed=args.seed + 1)
    elif args.noise == "babble":
        noise = mixing.synth_babble(splits["train"], 6, 3 * seg_s, seed=args.seed + 1)
    elif noise.duration_s < 2 * seg_s + longest_s:  # a file: its test cut must hold any utterance
        raise ValueError(f"{args.noise}: {noise.duration_s:g} s of noise is too short, need at "
                         f"least {2 * seg_s + longest_s:g} s (two {seg_s:g} s segments and the "
                         f"longest utterance, {longest_s:g} s)")
    # stored level is irrelevant (mixing rescales); keep 16-bit headroom
    noise = TimeSignal(noise.samples * (0.9 / np.max(np.abs(noise.samples))), noise.sample_rate_hz)
    noise_train, noise_val, noise_test = mixing.split_noise(
        noise, seg_s, seg_s, noise.duration_s - 2 * seg_s
    )

    with framed.staged_directory(args.out) as stage:
        for split, signals in splits.items():
            d = stage / f"clean_{split}"
            d.mkdir()
            for i, sig in enumerate(signals):
                write_wav(sig, d / f"{i:04d}.wav")
        write_wav(noise_train, stage / "noise_train.wav")
        write_wav(noise_val, stage / "noise_val.wav")
        write_wav(noise_test, stage / "noise_test.wav")

        # caches are built from the quantized WAVs so that rebuilding from disk
        # reproduces them exactly
        noise_label = args.noise.split(":")[0]
        train_ds = mixing.build_dataset(
            _read_split_wavs(stage, "train"), read_wav(stage / "noise_train.wav"),
            split="train", seed=args.seed + 2, snr_range_db=snr_range, noise_source=noise_label,
        )
        val_ds = mixing.build_dataset(
            _read_split_wavs(stage, "val"), read_wav(stage / "noise_val.wav"),
            split="validation", seed=args.seed + 3, snr_range_db=snr_range,
            noise_source=noise_label,
        )
        for split, ds in (("train", train_ds), ("validation", val_ds)):
            if ds.n_frames == 0:
                min_len = (ENVELOPE_LEN - 1) * HOP + FFT_SIZE
                raise ValueError(f"the {split} pack would have no rows: an utterance needs at "
                                 f"least {min_len} samples at {WORKING_RATE_HZ} Hz for one "
                                 f"{ENVELOPE_LEN}-frame window")
        mixing.save_dataset(train_ds, stage / "train.pack")
        mixing.save_dataset(val_ds, stage / "val.pack")

        modeldir.write_kv(stage / "meta.txt", {
            "seed": args.seed,
            "noise": noise_label,
            "snr_range": f"{snr_range[0]:g}:{snr_range[1]:g}",
            "n_train": n_train,
            "n_val": n_val,
            "n_test": n_test,
        })
    print(f"wrote {args.out}: {n_train} train / {n_val} val / {n_test} test utterances, "
          f"{train_ds.n_frames} train frames")
    return EXIT_OK


def _load_packs(data_dir):
    d = Path(data_dir)
    train_pack, val_pack = d / "train.pack", d / "val.pack"
    if not train_pack.exists() or not val_pack.exists():
        raise FileNotFoundError(f"{data_dir}: missing train.pack/val.pack (run synth-data)")
    return mixing.load_dataset(train_pack), mixing.load_dataset(val_pack)


def _cmd_train(args) -> int:
    checked(f"--band {args.band}", args.band, one_of("all", "joint"))
    train_ds, val_ds = _load_packs(args.data)
    config, extras = _load_train_config(args.config, args.objective)
    joint = args.band == "joint"
    system, reports = pipeline.train_enhancement_system(
        train_ds, val_ds, config, hidden=extras["hidden"], joint=joint,
        max_train_frames=extras["max_train_frames"], max_val_frames=extras["max_val_frames"],
    )
    pipeline.save_system(system, args.out)
    for i, report in enumerate(reports):
        _print_report("joint" if joint else f"band {i:2d}", report)
    return EXIT_OK


def _read_split_wavs(data_dir, split):
    d = Path(data_dir) / f"clean_{split}"
    paths = sorted(d.glob("*.wav"))
    if not paths:
        raise FileNotFoundError(f"{d}: no WAV files")
    return [read_wav(p) for p in paths]


def _cmd_train_baseline(args) -> int:
    data = Path(args.data)
    meta = modeldir.parse_kv(data / "meta.txt")
    seed = meta.get("seed", "0")
    seed = checked(f"{data / 'meta.txt'}: seed = {seed!r}", seed, SEED)
    snr_range = _parse_snr_range(meta.get("snr_range", "-5:10"))
    config, extras = _load_train_config(args.config, objective="emse")

    train_ds = baseline.build_magnitude_dataset(
        _read_split_wavs(data, "train"), read_wav(data / "noise_train.wav"),
        seed=seed + 2, snr_range_db=snr_range,
    )
    val_ds = baseline.build_magnitude_dataset(
        _read_split_wavs(data, "val"), read_wav(data / "noise_val.wav"),
        seed=seed + 3, snr_range_db=snr_range,
    )
    system, report = baseline.train_classical(
        train_ds, val_ds, config, hidden=extras["hidden"],
        max_train_frames=extras["max_train_frames"], max_val_frames=extras["max_val_frames"],
    )
    baseline.save_classical(system, args.out)
    _print_report("baseline", report)
    return EXIT_OK


def _load_any_system(model_dir):
    """(system, kind) of a model directory."""
    kind = modeldir.parse_kv(Path(model_dir) / "system.txt").get("kind")
    load = baseline.load_classical if kind == "classical" else pipeline.load_system
    return load(model_dir), kind


def _read_testset(testset):
    """(clean test utterances, test noise, noise label) of a synth-data directory."""
    cleans = _read_split_wavs(testset, "test")
    noise = read_wav(Path(testset) / "noise_test.wav")
    meta = modeldir.parse_kv(Path(testset) / "meta.txt")
    return cleans, noise, meta.get("noise", "noise")


def _cmd_enhance(args) -> int:
    system, kind = _load_any_system(args.model)
    enhanced = pipeline.enhance(system, to_working_rate(read_wav(args.infile)))
    write_wav(enhanced, args.out)
    print(f"enhanced {args.infile} -> {args.out} ({kind} model)")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    snrs = _parse_snr_list(args.snrs)
    system, _ = _load_any_system(args.model)
    cleans, noise, label = _read_testset(args.testset)
    rows = pipeline.evaluate_system(system, cleans, noise, snrs, seed=args.seed, noise_type=label)
    sys.stdout.write(pipeline.report_tables(rows, args.format))
    return EXIT_OK


def _cmd_gain_corr(args) -> int:
    snrs = _parse_snr_list(args.snrs)
    system_a, kind_a = _load_any_system(args.model_a)
    system_b, kind_b = _load_any_system(args.model_b)
    if "classical" in (kind_a, kind_b):
        raise ValueError("gain-corr requires two envelope-gain models")
    cleans, noise, label = _read_testset(args.testset)
    levels = [mixing.active_speech_level(clean) for clean in cleans]
    for snr in snrs:
        noisy = list(pipeline._seeded_mixtures(cleans, levels, noise, snr, args.seed))
        corr = pipeline.gain_correlation(system_a, system_b, noisy)
        print(f"{label}  {snr:+5.1f} dB  correlation {corr:.4f}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .verification import run_verification

    results = run_verification()
    failed = False
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] {res.name}: {res.detail}")
        failed |= not res.passed
    return EXIT_NUMERIC if failed else EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        for option, kind in _OPTIONS.items():
            if hasattr(args, option):
                text = getattr(args, option)
                setattr(args, option, checked(f"--{option} {text}", text, kind))
        return args.run(args)
    except neural.NumericError as exc:
        print(f"envgain: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (WavError, neural.ModelFormatError, FileNotFoundError,
            NotADirectoryError, ValueError, OSError) as exc:
        print(f"envgain: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
