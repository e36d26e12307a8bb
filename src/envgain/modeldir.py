"""Model directories: the one writer, `save`, and the one checked reader, `read`.

A directory holds `system.txt` (a flat `key = value` record whose `kind`
picks its other keys), `feature_norm.bin` and the networks of its kind:
band_00.mdl .. band_{J-1}.mdl (per-band), joint.mdl (joint) or
baseline.mdl (classical). The `key = value` codec also serves data
directories' meta.txt and training configuration files.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from . import framed, neural
from .fanout import fan_out
from .octave import OUT_OF_BAND, build_band_layout
from .stft import StftConfig

NORM_FRAME = framed.Frame(b"ASTON", 1, "feature-norm file", neural.ModelFormatError)

ENVELOPE_KINDS = ("per-band", "joint")
CLASSICAL_KINDS = ("classical",)

# the required system.txt keys of each kind besides `kind`, as `typed` kinds;
# envelope kinds may add `out_of_band` (default zero)
SYSTEM_KEYS = {
    **dict.fromkeys(ENVELOPE_KINDS, {
        "objective": neural.OBJECTIVES, "n_bands": int, "n_env": int, "fft_size": int, "hop": int,
        "sample_rate_hz": int, "first_center_hz": float,
    }),
    "classical": {"context": int, "predict": int, "fft_size": int, "hop": int},
}


def write_kv(path, fields: dict) -> None:
    """Write a flat `key = value` file, atomically; `parse_kv` reads it."""
    with framed.replacing(path) as fh:
        fh.write("".join(f"{key} = {val}\n" for key, val in fields.items()).encode("utf-8"))


def parse_kv(path, required: dict | None = None) -> dict:
    """Read a flat `key = value` file. `required` maps each key that must be
    present to its kind (see `typed`); a missing key or a value not of its
    kind raises ModelFormatError naming the key, and required values come
    back converted."""
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
        out[key] = typed(path, key, out[key], kind)
    return out


def typed(path, key: str, value: str, kind):
    """`value` as `kind`: a tuple of the allowed strings, int (positive) or
    float. Anything else raises ModelFormatError naming `key`."""
    if isinstance(kind, tuple):
        if value in kind:
            return value
        expected = "one of " + ", ".join(kind)
    else:
        try:
            number = kind(value)
            if kind is float or number > 0:
                return number
        except ValueError:
            pass
        expected = "a positive integer" if kind is int else "a number"
    raise neural.ModelFormatError(f"{path}: {key} = {value!r} is not {expected}")


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


def envelope_fields(kind: str, objective: str, source, out_of_band: str) -> dict:
    """The system.txt record of an envelope-gain directory; `source` (a
    system or its training dataset) supplies layout, STFT config and n_env."""
    layout, cfg = source.layout, source.stft_config
    return {
        "kind": kind,
        "objective": objective,
        "n_bands": layout.n_bands,
        "n_env": source.n_env,
        "fft_size": cfg.fft_size,
        "hop": cfg.hop,
        "sample_rate_hz": layout.sample_rate_hz,
        "first_center_hz": f"{layout.bands[0].center_hz:g}",
        "out_of_band": out_of_band,
    }


def model_files(fields: dict) -> list[str]:
    """File names of the networks a system.txt record describes, in order."""
    if fields["kind"] == "per-band":
        return [f"band_{j:02d}.mdl" for j in range(fields["n_bands"])]
    return ["joint.mdl" if fields["kind"] == "joint" else "baseline.mdl"]


def save(dirpath, fields: dict, norm: neural.FeatureNorm, models: dict, objective: str) -> None:
    """Write system.txt from `fields`, the feature norm and each {file name:
    network} of `models` tagged with `objective`, creating the directory. A
    subset of a record's networks may be written, one band at a time."""
    d = Path(dirpath)
    d.mkdir(parents=True, exist_ok=True)
    write_kv(d / "system.txt", fields)
    save_norm(norm, d / "feature_norm.bin")
    for name, model in models.items():
        neural.save_model(model, d / name, objective)


def read(dirpath, kinds: tuple) -> tuple:
    """(fields, stft_config, layout, feature_norm, models) of a model directory
    whose kind is one of `kinds` (ENVELOPE_KINDS or CLASSICAL_KINDS): the
    typed system.txt record, the objects it names (layout None for the
    classical kind) and the networks in `model_files` order, each checked
    for its dims and objective tag. A defect raises ModelFormatError; the
    networks load as `fan_out` tasks, so the error is that of the first
    defective file, as in a serial loop, and no fan-out task may call this."""
    d = Path(dirpath)
    path = d / "system.txt"
    fields = parse_kv(path, {"kind": kinds, **SYSTEM_KEYS[kinds[0]]})  # `kinds` share keys
    try:
        cfg = StftConfig(fields["fft_size"])
        if fields["hop"] != cfg.hop:  # stored, but not free: half the FFT size
            raise ValueError(f"hop must be window_len / 2 ({cfg.hop}), got {fields['hop']}")
    except ValueError as exc:
        raise neural.ModelFormatError(f"{path}: {exc}") from None
    names = model_files(fields)
    if fields["kind"] == "classical":
        layout, objective = None, "emse"
        n_in, n_out = fields["context"] * cfg.n_bins, fields["predict"] * cfg.n_bins
    else:
        out_of_band = fields.get("out_of_band", "zero")
        fields["out_of_band"] = typed(path, "out_of_band", out_of_band, OUT_OF_BAND)
        try:
            layout = build_band_layout(
                cfg.fft_size, fields["sample_rate_hz"], fields["n_bands"], fields["first_center_hz"]
            )
        except (ValueError, ArithmeticError) as exc:
            raise neural.ModelFormatError(f"{path}: bad band fields: {exc}") from None
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

    return fields, cfg, layout, norm, fan_out(load, names)
