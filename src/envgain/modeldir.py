"""Model directories: `KINDS`, what a directory of each kind holds; the
one writer, `save`, which replaces a directory whole or not at all; and the
one checked reader, `read`.

A directory holds `system.txt` (a flat `key = value` record whose `kind`
picks its other keys), `feature_norm.bin` and the networks of its kind.
Every stored value but an envelope kind's `objective` is fixed, the
classical window of 30 frames in (`context`) and 5 out (`predict`) among
them. The `key = value` codec also serves data directories' meta.txt and
training configuration files, and `checked`, its one check of a value's
kind, also serves every command option.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import framed, neural
from .fanout import fan_out
from .mixing import CONTEXT_FRAMES, PREDICT_FRAMES
from .octave import ENVELOPE_LEN, FIRST_CENTER_HZ, N_BANDS, check_header
from .signal_io import WORKING_RATE_HZ
from .stft import FFT_SIZE, HOP, N_BINS

NORM_FRAME = framed.Frame(b"ASTON", 1, "feature-norm file", neural.ModelFormatError)

# the kind of a `key = value` text or an option (see `checked`): how it is
# converted, which values are allowed and how an error names them
COUNT = (int, lambda v: v > 0, "a positive integer")
SEED = (int, lambda v: v >= 0, "a non-negative integer")
RATE = (float, lambda v: 0.0 < v < math.inf, "a finite positive number")
NUMBER = (float, lambda v: True, "a number")


def one_of(*words: str) -> tuple:
    return str, words.__contains__, "one of " + ", ".join(words)


def exactly(number: int) -> tuple:
    return int, number.__eq__, str(number)


class Kind(NamedTuple):
    """What a directory of one kind holds."""

    files: tuple  # the networks' file names, in order
    n_in: int  # their input width, and the feature norm's
    n_out: int  # their output width
    objective: str | None  # the tag each network carries; None: the record's
    record: dict  # system.txt after `kind`, in order: key -> (value kind, value written)


ENVELOPE_RECORD = {
    "objective": (one_of(*neural.OBJECTIVES), None),  # written: the save's objective
    "n_bands": (COUNT, N_BANDS),
    "n_env": (COUNT, ENVELOPE_LEN),
    "fft_size": (COUNT, FFT_SIZE),
    "hop": (COUNT, HOP),
    "sample_rate_hz": (COUNT, WORKING_RATE_HZ),
    "first_center_hz": (NUMBER, f"{FIRST_CENTER_HZ:g}"),
    "out_of_band": (one_of("zero"), "zero"),
}
ENVELOPE_DIM = N_BANDS * ENVELOPE_LEN
KINDS = {
    "per-band": Kind(tuple(f"band_{j:02d}.mdl" for j in range(N_BANDS)),
                     ENVELOPE_DIM, ENVELOPE_LEN, None, ENVELOPE_RECORD),
    "joint": Kind(("joint.mdl",), ENVELOPE_DIM, ENVELOPE_DIM, None, ENVELOPE_RECORD),
    "classical": Kind(("baseline.mdl",), CONTEXT_FRAMES * N_BINS, PREDICT_FRAMES * N_BINS,
                      "emse", {
                          "context": (exactly(CONTEXT_FRAMES), CONTEXT_FRAMES),
                          "predict": (exactly(PREDICT_FRAMES), PREDICT_FRAMES),
                          "fft_size": (COUNT, FFT_SIZE),
                          "hop": (COUNT, HOP),
                      }),
}
# the system.txt keys `octave.check_header` takes, by its parameter names
HEADER_KEYS = ("fft_size", "hop", "n_env", "sample_rate_hz", "n_bands", "first_center_hz")


def write_kv(path, fields: dict) -> None:
    """Write a flat `key = value` file, atomically; `parse_kv` reads it."""
    with framed.replacing(path) as fh:
        fh.write("".join(f"{key} = {val}\n" for key, val in fields.items()).encode("utf-8"))


def parse_kv(path) -> dict:
    """Read a flat `key = value` file: every value as its text."""
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
    return out


def typed(path, fields: dict, required: dict) -> dict:
    """`fields`, as `parse_kv` read them from `path`, with the value of each
    key of `required` converted by its kind (see `checked`); a missing key
    or a value not of its kind raises ModelFormatError naming the key."""
    missing = [key for key in required if key not in fields]
    if missing:
        raise neural.ModelFormatError(f"{path}: missing key(s) {', '.join(missing)}")
    for key, kind in required.items():
        fields[key] = checked(f"{path}: {key} = {fields[key]!r}", fields[key], kind,
                              neural.ModelFormatError)
    return fields


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


def save(dirpath, kind: str, norm: neural.FeatureNorm, models: list,
         objective: str | None = None) -> None:
    """Write a `kind` directory: its system.txt record, the feature norm and
    `models`, the networks of `KINDS[kind].files` in order, each tagged with
    the kind's objective or else `objective`, which the record then stores.
    Every file is written into a staging directory, each network as its own
    `fan_out` task, and moved into `dirpath` at the end
    (`framed.staged_directory`): a save that raises, with the error of its
    first failing network if one fails, leaves `dirpath` as it was, and
    none if there was none. A save that succeeds
    then removes every other `*.mdl` in `dirpath`, so a directory whose kind
    changes keeps no networks of its old kind."""
    spec = KINDS[kind]
    if len(models) != len(spec.files):
        raise ValueError(f"a {kind} directory holds {len(spec.files)} network(s), "
                         f"got {len(models)}")
    objective = spec.objective or objective
    record = {key: objective if value is None else value
              for key, (_, value) in spec.record.items()}
    with framed.staged_directory(dirpath) as stage:
        write_kv(stage / "system.txt", {"kind": kind, **record})
        save_norm(norm, stage / "feature_norm.bin")
        fan_out(lambda task: neural.save_model(*task, objective),
                [(model, stage / name) for name, model in zip(spec.files, models)])
    for stale in Path(dirpath).glob("*.mdl"):
        if stale.name not in spec.files:
            stale.unlink()


def read(dirpath, kinds: tuple) -> tuple:
    """(fields, feature_norm, models) of a model directory whose kind is one
    of `kinds`: the system.txt record typed and checked against its kind's
    `KINDS` entry, its header checked (`octave.check_header`), and the
    networks in file order, each checked for its widths and objective tag.
    A defect raises ModelFormatError; the networks load as `fan_out` tasks,
    so the error is that of the first defective file, as in a serial loop."""
    d = Path(dirpath)
    path = d / "system.txt"
    fields = typed(path, parse_kv(path), {"kind": one_of(*kinds)})
    # envelope records written before `out_of_band` existed mean zero
    fields.setdefault("out_of_band", "zero")
    spec = KINDS[fields["kind"]]
    typed(path, fields, {key: value_kind for key, (value_kind, _) in spec.record.items()})
    try:
        check_header(**{key: fields[key] for key in HEADER_KEYS if key in fields})
    except ValueError as exc:
        raise neural.ModelFormatError(f"{path}: {exc}") from None
    objective = spec.objective or fields["objective"]
    norm_path = d / "feature_norm.bin"
    norm = load_norm(norm_path)
    if len(norm.mean) != spec.n_in:
        raise neural.ModelFormatError(f"{norm_path}: dim {len(norm.mean)} != expected {spec.n_in}")

    def load(name):
        model, tag = neural.load_model(d / name, expected_input_dim=spec.n_in,
                                       expected_output_dim=spec.n_out)
        if tag != objective:
            raise neural.ModelFormatError(f"{d / name}: objective {tag} != {objective}")
        return model

    return fields, norm, fan_out(load, spec.files)
