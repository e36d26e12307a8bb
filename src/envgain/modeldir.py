"""Model directories: the one writer, `save`, which replaces a directory
whole or not at all, and the one checked reader, `read`.

A directory holds `system.txt` (a flat `key = value` record whose `kind`
picks its other keys), `feature_norm.bin` and the networks of its kind:
band_00.mdl .. band_{J-1}.mdl (per-band), joint.mdl (joint) or
baseline.mdl (classical). The `key = value` codec also serves data
directories' meta.txt and training configuration files, and `checked`,
its one check of a value's kind, also serves the numeric command options.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from . import framed, neural
from .fanout import fan_out
from .octave import ENVELOPE_LEN, FIRST_CENTER_HZ, N_BANDS, check_header
from .signal_io import WORKING_RATE_HZ
from .stft import FFT_SIZE, HOP, N_BINS

NORM_FRAME = framed.Frame(b"ASTON", 1, "feature-norm file", neural.ModelFormatError)

ENVELOPE_KINDS = ("per-band", "joint")
CLASSICAL_KINDS = ("classical",)

# the kind of a `key = value` text or an option (see `checked`): how it is
# converted, which values are allowed and how an error names them
COUNT = (int, lambda v: v > 0, "a positive integer")
SEED = (int, lambda v: v >= 0, "a non-negative integer")
RATE = (float, lambda v: 0.0 < v < math.inf, "a finite positive number")
NUMBER = (float, lambda v: True, "a number")


def one_of(*words: str) -> tuple:
    return str, words.__contains__, "one of " + ", ".join(words)


# the required system.txt keys of each kind besides `kind`; envelope kinds
# may add `out_of_band`, which must be `zero`. The STFT, envelope length,
# rate, band count and first centre have one allowed value each
# (`octave.check_header`).
SYSTEM_KEYS = {
    **dict.fromkeys(ENVELOPE_KINDS, {
        "objective": one_of(*neural.OBJECTIVES), "n_bands": COUNT, "n_env": COUNT,
        "fft_size": COUNT, "hop": COUNT, "sample_rate_hz": COUNT, "first_center_hz": NUMBER,
    }),
    "classical": {"context": COUNT, "predict": COUNT, "fft_size": COUNT, "hop": COUNT},
}
OUT_OF_BAND = one_of("zero")
# the system.txt keys `octave.check_header` takes, by its parameter names
HEADER_KEYS = ("fft_size", "hop", "n_env", "sample_rate_hz", "n_bands", "first_center_hz")


def write_kv(path, fields: dict) -> None:
    """Write a flat `key = value` file, atomically; `parse_kv` reads it."""
    with framed.replacing(path) as fh:
        fh.write("".join(f"{key} = {val}\n" for key, val in fields.items()).encode("utf-8"))


def parse_kv(path, required: dict | None = None) -> dict:
    """Read a flat `key = value` file. `required` maps each key that must be
    present to its kind (see `checked`); a missing key or a value not of
    its kind raises ModelFormatError naming the key, and required values
    come back converted."""
    out = {}
    for number, raw in enumerate(Path(path).read_bytes().splitlines(), 1):
        try:
            line = raw.decode("utf-8").split("#", 1)[0].strip()
        except UnicodeDecodeError:
            raise neural.ModelFormatError(f"{path}: line {number} is not UTF-8") from None
        if not line:
            continue
        if "=" not in line:
            raise neural.ModelFormatError(f"{path}: line {number} {line!r} is not key = value")
        key, val = (part.strip() for part in line.split("=", 1))
        out[key] = val
    required = required or {}
    missing = [key for key in required if key not in out]
    if missing:
        raise neural.ModelFormatError(f"{path}: missing key(s) {', '.join(missing)}")
    for key, kind in required.items():
        out[key] = checked(f"{path}: {key} = {out[key]!r}", out[key], kind,
                           neural.ModelFormatError)
    return out


def checked(what: str, text: str, kind: tuple, error: type = ValueError):
    """`text` converted by `kind`'s type if the value is allowed; otherwise
    `error` saying that `what` (`<where>: <key> = '<text>'` in a file,
    `--<option> <text>` for an option) is not what the kind expects."""
    convert, allowed, expected = kind
    try:
        value = convert(text)
        if allowed(value):
            return value
    except ValueError:
        pass
    raise error(f"{what} is not {expected}")


def save_norm(norm: neural.FeatureNorm, path) -> None:
    parts = [struct.pack("<I", len(norm.mean))]
    parts += [np.ascontiguousarray(a, dtype="<f8") for a in (norm.mean, norm.std)]
    framed.write(path, NORM_FRAME, parts)


def load_norm(path) -> neural.FeatureNorm:
    body = framed.Reader(path, NORM_FRAME)
    (dim,) = body.unpack("<I")
    mean, std = body.array("<f8", dim), body.array("<f8", dim)
    body.done()
    if not np.all(np.isfinite(mean)):
        raise neural.ModelFormatError(f"{path}: non-finite feature mean")
    if not np.all(np.isfinite(std) & (std > 0)):
        raise neural.ModelFormatError(f"{path}: feature std must be finite and positive")
    return neural.FeatureNorm(mean, std)


def envelope_fields(kind: str, objective: str) -> dict:
    """The system.txt record of an envelope-gain directory: every key, the
    fixed front-end values among them, as the format has always stored them."""
    return {
        "kind": kind,
        "objective": objective,
        "n_bands": N_BANDS,
        "n_env": ENVELOPE_LEN,
        "fft_size": FFT_SIZE,
        "hop": HOP,
        "sample_rate_hz": WORKING_RATE_HZ,
        "first_center_hz": f"{FIRST_CENTER_HZ:g}",
        "out_of_band": "zero",
    }


def model_files(fields: dict) -> list[str]:
    """File names of the networks a system.txt record describes, in order."""
    if fields["kind"] == "per-band":
        return [f"band_{j:02d}.mdl" for j in range(fields["n_bands"])]
    return ["joint.mdl" if fields["kind"] == "joint" else "baseline.mdl"]


def save(dirpath, fields: dict, norm: neural.FeatureNorm, models: list, objective: str) -> None:
    """Write system.txt from `fields`, the feature norm and `models`, the
    networks in `model_files(fields)` order, each tagged with `objective`.
    Every file is written into a staging directory and moved into `dirpath`
    at the end (`framed.staged_directory`): a save that raises leaves
    `dirpath` as it was, and none if there was none. A save that succeeds
    then removes every other `*.mdl` in `dirpath`, so a directory whose kind
    changes keeps no networks of its old kind."""
    names = model_files(fields)
    if len(models) != len(names):
        raise ValueError(f"a {fields['kind']} directory holds {len(names)} network(s), "
                         f"got {len(models)}")
    with framed.staged_directory(dirpath) as stage:
        write_kv(stage / "system.txt", fields)
        save_norm(norm, stage / "feature_norm.bin")
        for name, model in zip(names, models):
            neural.save_model(model, stage / name, objective)
    for stale in Path(dirpath).glob("*.mdl"):
        if stale.name not in names:
            stale.unlink()


def read(dirpath, kinds: tuple) -> tuple:
    """(fields, feature_norm, models) of a model directory whose kind is one
    of `kinds` (ENVELOPE_KINDS or CLASSICAL_KINDS): the typed system.txt
    record, its header checked (`octave.check_header`), and the networks in
    `model_files` order, each checked for its dims and objective tag. A
    defect raises ModelFormatError; the networks load as `fan_out` tasks, so
    the error is that of the first defective file, as in a serial loop."""
    d = Path(dirpath)
    path = d / "system.txt"
    # the kinds of `kinds` share their keys
    fields = parse_kv(path, {"kind": one_of(*kinds), **SYSTEM_KEYS[kinds[0]]})
    try:
        check_header(**{key: fields[key] for key in HEADER_KEYS if key in fields})
    except ValueError as exc:
        raise neural.ModelFormatError(f"{path}: {exc}") from None
    names = model_files(fields)
    if fields["kind"] == "classical":
        objective = "emse"
        n_in, n_out = fields["context"] * N_BINS, fields["predict"] * N_BINS
    else:
        out_of_band = fields.get("out_of_band", "zero")
        checked(f"{path}: out_of_band = {out_of_band!r}", out_of_band, OUT_OF_BAND,
                neural.ModelFormatError)
        n_in = fields["n_bands"] * fields["n_env"]
        n_out, objective = n_in // len(names), fields["objective"]
    norm_path = d / "feature_norm.bin"
    norm = load_norm(norm_path)
    if len(norm.mean) != n_in:
        raise neural.ModelFormatError(f"{norm_path}: dim {len(norm.mean)} != expected {n_in}")

    def load(name):
        model, tag = neural.load_model(d / name, expected_input_dim=n_in, expected_output_dim=n_out)
        if tag != objective:
            raise neural.ModelFormatError(f"{d / name}: objective {tag} != {objective}")
        return model

    return fields, norm, fan_out(load, names)
