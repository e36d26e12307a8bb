"""Command-line front end.

Subcommands: synth-data, train, train-baseline, enhance, evaluate,
gain-corr, verify. Exit codes: 0 success, 1 usage error (a missing option,
an unknown command), 2 data error, 3 numeric failure. Every option value
and every key of a config file, meta.txt or system.txt is checked by its
kind (`modeldir.checked`) before it is used; a refusal names where the
value came from (`--snr-range 5:-5`, `<file>: <key> = '<text>'`) and
exits 2. Config files and a data directory's meta.txt are flat
``key = value`` text; unknown keys are rejected. Data directories hold
the clean utterance WAVs per split, three disjoint noise segments, the
envelope packs (train.pack / val.pack) and meta.txt.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import baseline, framed, mixing, modeldir, neural, pipeline
from .fanout import fan_out
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


def _pseudo_or_path(text: str):
    """(count, seconds) of a pseudo:COUNTxSECONDS manifest, else the WAV list's path."""
    if not text.startswith("pseudo:"):
        return text
    count, seconds = text[len("pseudo:"):].split("x")
    return int(count), float(seconds)


# the kinds (see `modeldir.checked`) of the values only the commands read
SNR_RANGE = (lambda text: tuple(map(float, text.split(":"))),
             lambda v: len(v) == 2 and all(map(math.isfinite, v)) and v[0] <= v[1],
             "LO:HI in finite dB with LO <= HI")
SNR_LIST = (lambda text: [float(v) for v in text.split(",") if v.strip()],
            lambda v: len(v) > 0 and all(map(math.isfinite, v)),
            "a comma-separated list of finite dB values")
HIDDEN = (lambda text: tuple(int(v) for v in text.split(",")), lambda v: min(v) > 0,
          "a comma-separated list of positive integers")
MANIFEST = (_pseudo_or_path,
            lambda v: isinstance(v, str) or (1 <= v[0] <= MAX_PSEUDO_SECONDS
                                             and 0.0 < v[1] <= MAX_PSEUDO_SECONDS / v[0]),
            "a WAV list or pseudo:COUNTxSECONDS with a positive count and a finite, positive "
            f"duration, at most {MAX_PSEUDO_SECONDS} utterances and {MAX_PSEUDO_SECONDS} s in all")
NOISE = (str, lambda v: re.fullmatch(r"ssn|babble|file:.+", v, re.S) is not None,
         "ssn, babble or file:PATH")

# the kind of each option value (by its argparse name), config file key and
# meta.txt key; an absent option takes its argparse default, which is checked
# too, an absent key the default of the code that reads it
_OPTIONS = {"seed": SEED, "snr_range": SNR_RANGE, "snrs": SNR_LIST, "manifest": MANIFEST,
            "noise": NOISE, "band": one_of("all", "joint"),
            "objective": one_of(*neural.OBJECTIVES), "format": one_of("text", "csv")}
_CONFIG_KEYS = {"initial_lr_per_sample": RATE,
                "lr_decay": (float, lambda v: 0.0 < v <= 1.0, "a number in (0, 1]"),
                "lr_floor": RATE, "max_epochs": COUNT, "minibatch": COUNT, "seed": SEED,
                "hidden": HIDDEN, "max_train_frames": COUNT, "max_val_frames": COUNT}
_META_KEYS = {"seed": SEED, "noise": one_of("ssn", "babble", "file"),  # --noise, no path
              "snr_range": SNR_RANGE, "n_train": COUNT, "n_val": COUNT, "n_test": COUNT}


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # let SNR values like "-5:10", "-5,0,5" or "-inf:5" pass as option
        # values, so that a non-finite one is refused by its kind
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
    p.add_argument("--objective", default="elc", help="elc | emse")
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
    p.add_argument("--format", default="text", help="text | csv")
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


def _load_speech(manifest, seed: int) -> list[TimeSignal]:
    """The utterances of a `MANIFEST` value: a pseudo corpus or a WAV list's."""
    if isinstance(manifest, tuple):
        return mixing.pseudo_corpus(*manifest, seed)
    paths = mixing.read_manifest(manifest)
    if not paths:
        raise ValueError(f"{manifest}: empty manifest")
    return fan_out(lambda p: to_working_rate(read_wav(p)), paths)


def _read_kv(path, kinds: dict) -> dict:
    """The `key = value` file at `path`, each value converted by its key's
    kind in `kinds` (`modeldir.typed`); an unknown key raises ValueError."""
    raw = modeldir.parse_kv(path)
    unknown = set(raw) - set(kinds)
    if unknown:
        raise ValueError(f"{path}: unknown keys {sorted(unknown)}; allowed: {sorted(kinds)}")
    return modeldir.typed(path, raw, {key: kinds[key] for key in raw})


def _load_train_config(path, objective="elc") -> tuple[neural.TrainConfig, dict]:
    """TrainConfig plus the extra keys (hidden, frame caps) from a config file."""
    fields = {} if path is None else _read_kv(path, _CONFIG_KEYS)
    extras = {key: fields.pop(key, default) for key, default in (
        ("hidden", neural.DEFAULT_HIDDEN), ("max_train_frames", None), ("max_val_frames", None))}
    return neural.TrainConfig(objective=objective, **fields), extras


def _print_report(label: str, report: neural.TrainReport) -> None:
    last = report.epochs[-1].validation_cost if report.epochs else float("nan")
    print(f"{label}: {len(report.epochs)} epochs, stop={report.stop_reason}, "
          f"final val cost {last:.6f}")


def _cmd_synth_data(args) -> int:
    # a noise file is read, and checked, before any speech is made
    if args.noise.startswith("file:"):
        noise = to_working_rate(read_wav(args.noise[len("file:"):]))
        if not np.any(noise.samples):
            raise ValueError(f"{args.noise}: the noise file is silent (every sample is 0)")
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
            split="train", seed=args.seed + 2, snr_range_db=args.snr_range,
            noise_source=noise_label,
        )
        val_ds = mixing.build_dataset(
            _read_split_wavs(stage, "val"), read_wav(stage / "noise_val.wav"),
            split="validation", seed=args.seed + 3, snr_range_db=args.snr_range,
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
            "snr_range": "{:g}:{:g}".format(*args.snr_range),
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
    config, extras = _load_train_config(args.config, args.objective)
    train_ds, val_ds = _load_packs(args.data)
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
    meta = _read_kv(data / "meta.txt", _META_KEYS)
    seed, snr_range = meta.get("seed", 0), meta.get("snr_range", mixing.DEFAULT_SNR_RANGE_DB)
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
    """(system, kind) of a model directory of any `modeldir.KINDS` kind."""
    fields, norm, models = modeldir.read(model_dir, tuple(modeldir.KINDS))
    kind = fields["kind"]
    system_of = baseline.classical_of if kind == "classical" else pipeline.system_of
    return system_of(fields, norm, models), kind


def _read_testset(testset):
    """(clean test utterances, test noise, noise label) of a synth-data directory."""
    cleans = _read_split_wavs(testset, "test")
    noise = read_wav(Path(testset) / "noise_test.wav")
    meta = _read_kv(Path(testset) / "meta.txt", _META_KEYS)
    return cleans, noise, meta.get("noise", "noise")


def _cmd_enhance(args) -> int:
    system, kind = _load_any_system(args.model)
    enhanced = pipeline.enhance(system, to_working_rate(read_wav(args.infile)))
    write_wav(enhanced, args.out)
    print(f"enhanced {args.infile} -> {args.out} ({kind} model)")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    system, _ = _load_any_system(args.model)
    cleans, noise, label = _read_testset(args.testset)
    rows = pipeline.evaluate_system(system, cleans, noise, args.snrs, seed=args.seed,
                                    noise_type=label)
    sys.stdout.write(pipeline.report_tables(rows, args.format))
    return EXIT_OK


def _cmd_gain_corr(args) -> int:
    system_a, kind_a = _load_any_system(args.model_a)
    system_b, kind_b = _load_any_system(args.model_b)
    if "classical" in (kind_a, kind_b):
        raise ValueError("gain-corr requires two envelope-gain models")
    cleans, noise, label = _read_testset(args.testset)
    levels = [mixing.active_speech_level(clean) for clean in cleans]
    for snr in args.snrs:
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
                where = f"--{option.replace('_', '-')} {text}"
                setattr(args, option, checked(where, text, kind))
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
