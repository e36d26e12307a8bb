"""The binary frame shared by model, feature-norm and dataset-pack files.

Every file is, little-endian throughout::

    magic (5 bytes) | version (<I) | body | CRC32 (<I) of all bytes before it

A codec declares its `Frame` once and keeps only its body layout: `write`
emits the frame through an atomic replace, and `Reader` checks it and
serves bounds-checked reads of the body. Every defect a reader finds is
raised as the frame's own error class. `replacing` is the atomic replace
of one file; `staged_directory` is that of a whole directory's entries,
which data and model directories are written through.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import struct
import tempfile
import zlib
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np


class Frame(NamedTuple):
    magic: bytes
    version: int
    kind: str  # for messages, e.g. "model file"
    error: type  # raised for every defect


@contextlib.contextmanager
def replacing(path):
    """Binary file handle on a temp file beside `path`, moved over `path`
    when the block ends cleanly. Readers, and other processes writing the
    same file, only ever see a complete old or new file."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


@contextlib.contextmanager
def staged_directory(out):
    """A fresh directory to write into; when the block succeeds its entries
    move into `out`, each replacing one of the same name. When it fails,
    nothing new is left: `out` keeps what it held, and directories made for
    it are removed."""
    out = Path(out)
    made = [d for d in (out, *out.parents) if not d.exists()]  # deepest first
    out.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(prefix=".staging-", dir=out))
    done = False
    try:
        yield stage
        for entry in stage.iterdir():
            target = out / entry.name
            if target.is_dir() and not target.is_symlink():
                shutil.rmtree(target)
            os.replace(entry, target)
        done = True
    finally:
        shutil.rmtree(made[-1] if made and not done else stage, ignore_errors=True)


def pack_text(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<H", len(raw)) + raw


def write(path, frame: Frame, parts: Iterable) -> None:
    """Write `frame`'s magic and version, the bytes-like `parts` and the
    CRC32 of all of them to `path`, atomically."""
    with replacing(path) as fh:
        crc = 0
        for part in (frame.magic, struct.pack("<I", frame.version), *parts):
            fh.write(part)
            crc = zlib.crc32(part, crc)
        fh.write(struct.pack("<I", crc))


class Reader:
    """Checked reads of one framed file's body, in order."""

    def __init__(self, path, frame: Frame):
        with open(path, "rb") as fh:
            blob = fh.read()
        self._path, self._error = path, frame.error
        head = len(frame.magic) + 4
        if len(blob) < head + 4 or blob[: len(frame.magic)] != frame.magic:
            raise self._fail(f"not a {frame.kind}")
        self._view = memoryview(blob)[:-4]
        if zlib.crc32(self._view) != struct.unpack_from("<I", blob, len(blob) - 4)[0]:
            raise self._fail("CRC mismatch (corrupt or truncated)")
        (version,) = struct.unpack_from("<I", blob, len(frame.magic))
        if version != frame.version:
            raise self._fail(f"unsupported {frame.kind} version {version}")
        self._kind = frame.kind
        self._pos = head

    def _fail(self, message: str) -> Exception:
        return self._error(f"{self._path}: {message}")

    def _take(self, n_bytes: int) -> int:
        """Reserve the next n_bytes of the body; returns their offset."""
        pos = self._pos
        if n_bytes > len(self._view) - pos:
            raise self._fail(f"truncated {self._kind} at byte {pos}")
        self._pos = pos + n_bytes
        return pos

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack_from(fmt, self._view, self._take(struct.calcsize(fmt)))

    def array(self, dtype: str, count: int) -> np.ndarray:
        """`count` values of `dtype` as one owned, writable array."""
        pos = self._take(np.dtype(dtype).itemsize * count)
        return np.frombuffer(self._view, dtype, count, pos).copy()

    def text(self) -> str:
        (n_bytes,) = self.unpack("<H")
        pos = self._take(n_bytes)
        try:
            return str(self._view[pos : pos + n_bytes], "utf-8")
        except UnicodeDecodeError:
            raise self._fail(f"string at byte {pos} is not UTF-8") from None

    def done(self) -> None:
        """Reject bytes left after the body."""
        if self._pos != len(self._view):
            raise self._fail(f"{len(self._view) - self._pos} trailing bytes")
