"""The shared binary frame: golden bytes, atomic replace, and fuzzed
truncations and byte flips of every framed format."""

import hashlib
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from envgain import framed, mixing, modeldir, neural


def golden_model():
    model = neural.init_model([6, 4, 4, 3], seed=20)
    model.layers[0].batch_norm.running_mean[:] = [0.1, -0.2, 0.3, 0.4]
    return model


def golden_norm():
    return neural.FeatureNorm(np.linspace(-1.0, 1.0, 12), np.linspace(0.5, 2.0, 12))


def golden_pack():
    rng = np.random.default_rng(7)
    return mixing.EnvelopeDataset(
        [rng.random((15, 32)), rng.random((15, 35))],
        [rng.random((15, 32)), rng.random((15, 35))],
        [(0, m) for m in range(29, 32)] + [(1, m) for m in range(29, 35)],
        mixes=[mixing.MixSpec(-2.5, "ssn", "train", 4),
               mixing.MixSpec(7.0, "bäbble", "validation", -5)],
    )


# (writer, reader, typed error, sha256 of the file the codecs wrote before
# they shared `framed`; a changed digest means existing files stop loading)
FORMATS = {
    "model": (
        lambda path: neural.save_model(golden_model(), path, "emse"),
        neural.load_model,
        neural.ModelFormatError,
        "4e95edd6df1e0d541a744ed4270b7ccf835077df0c2c27a17457d7f066aa769f",
    ),
    "norm": (
        lambda path: modeldir.save_norm(golden_norm(), path),
        modeldir.load_norm,
        neural.ModelFormatError,
        "848bc87751ed7e9f691cac77cef29eecf281b5e22ac18cb4333b38ae2d5e8437",
    ),
    "pack": (
        lambda path: mixing.save_dataset(golden_pack(), path),
        mixing.load_dataset,
        mixing.DatasetFormatError,
        "74aed8a017786ea7c9ff2cab05181af04850ef8416235be8e43bd85677cd0fd3",
    ),
}


@pytest.fixture(scope="module")
def golden_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    files = {}
    for name, (write, *_rest) in FORMATS.items():
        write(d / name)
        files[name] = (d / name).read_bytes()
    return files


def with_crc(payload: bytes) -> bytes:
    return payload + struct.pack("<I", zlib.crc32(payload))


class TestGoldenBytes:
    @pytest.mark.parametrize("name", sorted(FORMATS))
    def test_digest_unchanged(self, golden_files, name):
        assert hashlib.sha256(golden_files[name]).hexdigest() == FORMATS[name][3]


class TestFuzzedFiles:
    @pytest.mark.parametrize("name", sorted(FORMATS))
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_only_typed_error_escapes(self, golden_files, tmp_path_factory, name, data):
        """Truncate at a random length or flip a random byte, recompute the
        CRC: loading either succeeds or raises the format's own error."""
        payload = golden_files[name][:-4]
        n = len(payload)
        if data.draw(st.booleans(), label="truncate"):
            mutated = payload[: data.draw(st.integers(0, n - 1), label="cut")]
        else:
            # favour the header and the tail, where the counts and strings are
            pos = data.draw(
                st.one_of(st.integers(0, 63), st.integers(max(0, n - 96), n - 1),
                          st.integers(0, n - 1)),
                label="pos",
            )
            raw = bytearray(payload)
            raw[pos] ^= data.draw(st.integers(1, 255), label="xor")
            mutated = bytes(raw)
        path = tmp_path_factory.getbasetemp() / f"fuzz_{name}"
        path.write_bytes(with_crc(mutated))
        _, load, error, _ = FORMATS[name]
        try:
            loaded = load(path)
        except error:
            return
        if name == "pack":
            # every row a loaded pack indexes can be gathered
            rows = np.arange(loaded.n_frames)
            assert loaded.features(rows).shape == (len(rows), loaded.n_bands * loaded.n_env)


class FrameError(ValueError):
    pass


class TestFrame:
    FRAME = framed.Frame(b"TESTF", 3, "test file", FrameError)

    def test_layout_and_reads(self, tmp_path):
        path = tmp_path / "f"
        framed.write(path, self.FRAME, [struct.pack("<I", 2), np.array([1.5, -2.0]),
                                        framed.pack_text("hé")])
        blob = path.read_bytes()
        assert blob[:5] == b"TESTF" and struct.unpack("<I", blob[5:9]) == (3,)
        assert struct.unpack("<I", blob[-4:])[0] == zlib.crc32(blob[:-4])
        body = framed.Reader(path, self.FRAME)
        (count,) = body.unpack("<I")
        values = body.array("<f8", count)
        assert values.tolist() == [1.5, -2.0] and values.flags.writeable
        assert body.text() == "hé"
        body.done()

    @pytest.mark.parametrize(
        "blob, match",
        [
            (b"TESTF", "not a test file"),
            (with_crc(b"XXXXX" + struct.pack("<I", 3)), "not a test file"),
            (b"TESTF" + struct.pack("<I", 3) + b"\0\0\0\0", "CRC mismatch"),
            (with_crc(b"TESTF" + struct.pack("<I", 4)), "unsupported test file version 4"),
        ],
    )
    def test_frame_defects(self, tmp_path, blob, match):
        (tmp_path / "f").write_bytes(blob)
        with pytest.raises(FrameError, match=match):
            framed.Reader(tmp_path / "f", self.FRAME)

    def test_body_defects(self, tmp_path):
        path = tmp_path / "f"
        framed.write(path, self.FRAME, [struct.pack("<H", 2), b"\xff\xfe", b"\0"])
        body = framed.Reader(path, self.FRAME)
        with pytest.raises(FrameError, match="not UTF-8"):
            body.text()
        with pytest.raises(FrameError, match="truncated test file at byte 13"):
            body.array("<f8", 1)
        with pytest.raises(FrameError, match="1 trailing bytes"):
            body.done()

    def test_replace_is_atomic(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(b"old")
        with pytest.raises(RuntimeError):
            with framed.replacing(path) as fh:
                fh.write(b"partial")
                raise RuntimeError("writer died")
        assert path.read_bytes() == b"old"
        with framed.replacing(path) as fh:
            fh.write(b"new")
            assert path.read_bytes() == b"old"
        assert path.read_bytes() == b"new"
        assert [p.name for p in tmp_path.iterdir()] == ["f"]
