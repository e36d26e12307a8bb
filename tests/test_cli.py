"""CLI subcommands, exit codes, and the data-directory layout."""

import shutil
import struct
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from envgain import baseline, cli, fanout, mixing, modeldir, neural, octave, pipeline
from envgain.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from envgain.signal_io import TimeSignal, read_wav, to_working_rate, write_wav
from envgain.stft import N_BINS

TINY_CONFIG = """
# toy-scale training
max_epochs = 2
minibatch = 64
seed = 5
hidden = 8,8
max_train_frames = 300
max_val_frames = 100
"""


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    rc = main([
        "synth-data", "--manifest", "pseudo:24x1.6", "--noise", "ssn",
        "--snr-range", "-5:10", "--seed", "3", "--out", str(d),
    ])
    assert rc == EXIT_OK
    return d


@pytest.fixture(scope="module")
def model_dir(data_dir, tmp_path_factory):
    d = tmp_path_factory.mktemp("model")
    cfg = d / "train.cfg"
    cfg.write_text(TINY_CONFIG)
    rc = main([
        "train", "--data", str(data_dir), "--objective", "elc",
        "--band", "all", "--config", str(cfg), "--out", str(d / "mdl"),
    ])
    assert rc == EXIT_OK
    return d / "mdl"


@pytest.fixture(scope="module")
def classical_dir(data_dir, tmp_path_factory):
    d = tmp_path_factory.mktemp("classical")
    cfg = d / "b.cfg"
    cfg.write_text("max_epochs = 1\nhidden = 8\nmax_train_frames = 150\n"
                   "max_val_frames = 50\nseed = 2\n")
    rc = main(["train-baseline", "--data", str(data_dir), "--config", str(cfg),
               "--out", str(d / "mdl")])
    assert rc == EXIT_OK
    return d / "mdl"


def white_noise(seconds):
    return TimeSignal(np.random.default_rng(0).uniform(-0.5, 0.5, int(seconds * 10_000)), 10_000)


class TestSynthData:
    def test_layout(self, data_dir):
        assert sorted(p.name for p in data_dir.glob("*.pack")) == ["train.pack", "val.pack"]
        assert (data_dir / "meta.txt").read_text() == (
            "seed = 3\nnoise = ssn\nsnr_range = -5:10\nn_train = 20\nn_val = 2\nn_test = 2\n"
        )
        assert len(list((data_dir / "clean_train").glob("*.wav"))) == 20
        assert len(list((data_dir / "clean_val").glob("*.wav"))) == 2
        assert len(list((data_dir / "clean_test").glob("*.wav"))) == 2
        for name in ("noise_train.wav", "noise_val.wav", "noise_test.wav"):
            assert (data_dir / name).exists()

    def test_noise_splits_disjoint_in_origin(self, data_dir):
        # the three files are contiguous cuts of one synthesized stream, so
        # none of them can share content
        a = read_wav(data_dir / "noise_train.wav").samples
        b = read_wav(data_dir / "noise_val.wav").samples
        assert not np.array_equal(a[: len(b)], b)

    def test_bad_manifest_spec_is_data_error(self, tmp_path):
        rc = main(["synth-data", "--manifest", "pseudo:oops", "--noise", "ssn",
                   "--out", str(tmp_path / "x")])
        assert rc == EXIT_DATA

    def test_bad_noise_kind_is_data_error(self, tmp_path):
        rc = main(["synth-data", "--manifest", "pseudo:6x1.0", "--noise", "pink",
                   "--out", str(tmp_path / "x")])
        assert rc == EXIT_DATA

    @pytest.mark.parametrize("option, value", [
        ("--manifest", "pseudo:3xinf"), ("--manifest", "pseudo:3xnan"),
        ("--manifest", "pseudo:3x0"), ("--manifest", "pseudo:3x-2"),
        ("--manifest", "pseudo:0x2"), ("--manifest", "pseudo:-4x2"),
        ("--snr-range", "-inf:5"), ("--snr-range", "nan:5"), ("--snr-range", "0:inf"),
    ])
    def test_non_finite_or_nonpositive_number_is_data_error(self, tmp_path, capsys,
                                                            option, value):
        args = {"--manifest": "pseudo:3x1", "--snr-range": "-5:10", option: value}
        rc = main(["synth-data", *(x for kv in args.items() for x in kv),
                   "--noise", "ssn", "--out", str(tmp_path / "x")])
        assert rc == EXIT_DATA
        assert f"envgain: {option} {value} is not " in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_snr_range_giving_infinite_noise_is_data_error(self, tmp_path, capsys):
        noise = tmp_path / "noise.wav"
        write_wav(white_noise(25.0), noise)
        rc = main(["synth-data", "--manifest", "pseudo:3x1", "--noise", f"file:{noise}",
                   "--snr-range=-1e308:-1e308", "--out", str(tmp_path / "x")])
        assert rc == EXIT_DATA
        assert "noise gain for -1e+308 dB SNR is not finite" in capsys.readouterr().err
        assert not (tmp_path / "x" / "train.pack").exists()

    @pytest.mark.parametrize("out, existing", [
        ("x", None), ("x", "x"), ("x", "x/keep"), ("a/b/x", None),
    ])
    def test_failed_run_leaves_nothing_new(self, tmp_path, monkeypatch, out, existing):
        # mixing fails after the WAVs of every split are written; `existing`
        # is what the output path already held
        monkeypatch.chdir(tmp_path)
        write_wav(white_noise(25.0), "noise.wav")
        if existing:
            (tmp_path / "x" / "clean_train").mkdir(parents=True)
        if existing == "x/keep":
            write_wav(white_noise(0.1), "x/keep.wav")
        before = sorted(tmp_path.rglob("*"))
        rc = main("synth-data --manifest pseudo:3x1 --noise file:noise.wav "
                  f"--snr-range=-1e308:-1e308 --out {out}".split())
        assert rc == EXIT_DATA
        assert sorted(tmp_path.rglob("*")) == before

    def test_utterances_shorter_than_one_window_are_data_error(self, tmp_path, monkeypatch,
                                                                capsys):
        # 0.2 s utterances hold no 30-frame window: the train pack would have
        # no row, and nothing is written
        monkeypatch.chdir(tmp_path)
        write_wav(white_noise(25.0), "noise.wav")
        before = sorted(tmp_path.rglob("*"))
        rc = main("synth-data --manifest pseudo:3x0.2 --noise file:noise.wav --out x".split())
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert "the train pack would have no rows" in err
        assert "at least 3968 samples at 10000 Hz" in err
        assert sorted(tmp_path.rglob("*")) == before

    def test_unknown_noise_refused_before_speech_is_made(self, tmp_path, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("speech was synthesized before the noise spec was checked")

        monkeypatch.setattr(mixing, "pseudo_corpus", refuse)
        rc = main(["synth-data", "--manifest", "pseudo:400x3", "--noise", "bogus",
                   "--out", str(tmp_path / "x")])
        assert rc == EXIT_DATA
        assert "--noise bogus is not ssn, babble or file:PATH" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_silent_noise_file_refused_before_speech_is_made(self, tmp_path, capsys,
                                                             monkeypatch):
        def refuse(*args):
            raise AssertionError("speech was synthesized before the noise file was checked")

        monkeypatch.setattr(mixing, "pseudo_corpus", refuse)
        noise = tmp_path / "z.wav"
        write_wav(TimeSignal(np.zeros(25 * 10000), 10000), noise)
        (tmp_path / "x").mkdir()
        before = sorted(tmp_path.rglob("*"))
        with np.errstate(all="raise"):
            rc = main(["synth-data", "--manifest", "pseudo:3x1", "--noise", f"file:{noise}",
                       "--out", str(tmp_path / "x")])
        assert rc == EXIT_DATA
        assert f"file:{noise}: the noise file is silent" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    def test_rerun_replaces_the_corpus(self, data_dir, tmp_path):
        # a second run into a corpus directory leaves the files of this run,
        # none of the first's, and keeps what else the directory held
        out = tmp_path / "corpus"
        shutil.copytree(data_dir, out)
        (out / "notes.txt").write_text("mine\n")
        write_wav(white_noise(25.0), tmp_path / "noise.wav")
        rc = main(["synth-data", "--manifest", "pseudo:12x1.6",
                   "--noise", f"file:{tmp_path / 'noise.wav'}", "--out", str(out)])
        assert rc == EXIT_OK
        assert len(list((out / "clean_train").glob("*.wav"))) == 10
        assert (out / "notes.txt").read_text() == "mine\n"
        assert sorted(p.name for p in out.iterdir()) == sorted(
            [p.name for p in data_dir.iterdir()] + ["notes.txt"]
        )

    def test_wav_manifest(self, tmp_path):
        # 16 kHz utterances listed one per line are resampled to the working rate
        paths = [tmp_path / f"u{i}.wav" for i in range(3)]
        for i, path in enumerate(paths):
            write_wav(mixing.pseudo_speech(1.6, seed=i, fs=16000), path)
        manifest = tmp_path / "list.txt"
        manifest.write_text("# three utterances\n" + "".join(f"{p}\n" for p in paths))
        write_wav(white_noise(25.0), tmp_path / "noise.wav")
        out = tmp_path / "x"
        rc = main(["synth-data", "--manifest", str(manifest),
                   "--noise", f"file:{tmp_path / 'noise.wav'}", "--out", str(out)])
        assert rc == EXIT_OK
        written = read_wav(out / "clean_train" / "0000.wav")
        expected = to_working_rate(read_wav(paths[0]))
        assert written.sample_rate_hz == expected.sample_rate_hz == 10_000
        assert np.max(np.abs(written.samples - expected.samples)) <= 1 / 32768
        assert (out / "train.pack").exists()

    def test_corrupt_manifest_wav_named_on_two_workers(self, tmp_path, capsys, monkeypatch):
        # the WAVs are read as fan-out tasks; the error is the one the
        # serial loop raises, naming the 2nd of 3 files
        paths = [tmp_path / f"u{i}.wav" for i in range(3)]
        for i, path in enumerate(paths):
            write_wav(mixing.pseudo_speech(1.6, seed=i, fs=16000), path)
        paths[1].write_bytes(b"RIFF" + bytes(40))
        manifest = tmp_path / "list.txt"
        manifest.write_text("".join(f"{p}\n" for p in paths))
        errors = []
        for workers in (1, 2):
            monkeypatch.setattr(fanout, "_WORKERS", workers)
            rc = main(["synth-data", "--manifest", str(manifest), "--noise", "ssn",
                       "--out", str(tmp_path / "x")])
            assert rc == EXIT_DATA
            assert not (tmp_path / "x").exists()
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert str(paths[1]) in errors[1]

    def test_babble_noise(self, tmp_path):
        # babble mixes 6 distinct train utterances: 8 give 6 train, 1 val, 1 test
        out = tmp_path / "x"
        rc = main(["synth-data", "--manifest", "pseudo:8x1.6", "--noise", "babble",
                   "--out", str(out)])
        assert rc == EXIT_OK
        assert "noise = babble\n" in (out / "meta.txt").read_text()
        assert (out / "train.pack").exists()

    @pytest.mark.parametrize("option, value, message", [
        ("--manifest", "{tmp}/empty.txt", "empty manifest"),
        ("--manifest", "pseudo:2x3", "need at least 3 utterances to split, got 2"),
        ("--snr-range", "5:-5", "--snr-range 5:-5 is not LO:HI in finite dB"),
    ])
    def test_bad_corpus_request_is_data_error(self, tmp_path, capsys, option, value, message):
        (tmp_path / "empty.txt").write_text("# no utterances\n\n")
        args = {"--manifest": "pseudo:3x1", "--snr-range": "-5:10",
                option: value.format(tmp=tmp_path)}
        rc = main(["synth-data", *(x for kv in args.items() for x in kv),
                   "--noise", "ssn", "--out", str(tmp_path / "x")])
        assert rc == EXIT_DATA
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_short_noise_file_refused_before_anything_is_written(self, tmp_path, capsys,
                                                               monkeypatch):
        # 3 s utterances cut two 10 s segments, and the test cut must hold
        # the longest utterance: 23 s of noise are needed, 5 s are given
        def refuse(*args, **kwargs):
            raise AssertionError("written or mixed before the noise length was checked")

        monkeypatch.setattr(cli, "write_wav", refuse)
        monkeypatch.setattr(mixing, "build_dataset", refuse)
        write_wav(white_noise(5.0), tmp_path / "short.wav")
        out = tmp_path / "x"
        (out / "clean_train").mkdir(parents=True)
        (out / "notes.txt").write_text("mine\n")
        before = sorted(tmp_path.rglob("*"))
        rc = main(["synth-data", "--manifest", "pseudo:20x3",
                   "--noise", f"file:{tmp_path / 'short.wav'}", "--out", str(out)])
        assert rc == EXIT_DATA
        assert ("5 s of noise is too short, need at least 23 s (two 10 s segments and the "
                "longest utterance, 3 s)") in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before
        assert (out / "notes.txt").read_text() == "mine\n"

    @pytest.mark.parametrize("seconds, rc", [(20.9999, EXIT_DATA), (21.0, EXIT_OK)])
    def test_noise_file_length_bound(self, tmp_path, seconds, rc):
        # 1 s utterances: two 10 s segments and a 1 s test cut
        write_wav(white_noise(seconds), tmp_path / "noise.wav")
        assert main(["synth-data", "--manifest", "pseudo:3x1",
                     "--noise", f"file:{tmp_path / 'noise.wav'}",
                     "--out", str(tmp_path / "x")]) == rc

    @pytest.mark.parametrize("spec", [
        "pseudo:1x1e7", "pseudo:100000000x1", "pseudo:100000000x0.001", "pseudo:36001x1",
        "pseudo:2x18000.5", f"pseudo:{'9' * 400}x1",
    ])
    def test_pseudo_spec_above_the_cap_is_data_error(self, tmp_path, capsys, monkeypatch,
                                                     spec):
        # refused before any speech is synthesized: were one let through, the
        # stand-in would fail the test instead of allocating
        def refuse(*args):
            raise AssertionError(f"{spec} reached pseudo_corpus")

        monkeypatch.setattr(mixing, "pseudo_corpus", refuse)
        rc = main(["synth-data", "--manifest", spec, "--noise", "ssn",
                   "--out", str(tmp_path / "y")])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert f"--manifest {spec} is not a WAV list or pseudo:COUNTxSECONDS" in err
        assert f"{cli.MAX_PSEUDO_SECONDS} s in all" in err
        assert not (tmp_path / "y").exists()

    @pytest.mark.parametrize("spec, count, seconds", [
        ("pseudo:36000x1", 36000, 1.0), ("pseudo:2x18000", 2, 18000.0),
        ("pseudo:36000x0.5", 36000, 0.5),
    ])
    def test_pseudo_spec_at_the_cap_is_accepted(self, monkeypatch, spec, count, seconds):
        monkeypatch.setattr(mixing, "pseudo_corpus", lambda *args: args)
        manifest = modeldir.checked(f"--manifest {spec}", spec, cli.MANIFEST)
        assert cli._load_speech(manifest, 7) == (count, seconds, 7)


class TestTrain:
    @pytest.mark.parametrize("empty", ["train", "validation"])
    def test_pack_without_rows_is_data_error(self, tmp_path, capsys, empty):
        # utterances shorter than one window give a pack of no rows
        short, full = [np.ones((15, 20))], [np.ones((15, 40))]
        for split, name in (("train", "train.pack"), ("validation", "val.pack")):
            env, rows = (short, []) if split == empty else (full, [(0, 29), (0, 39)])
            mixing.save_dataset(mixing.EnvelopeDataset(env, env, rows), tmp_path / name)
        rc = main(["train", "--data", str(tmp_path), "--band", "all",
                   "--out", str(tmp_path / "m")])
        assert rc == EXIT_DATA
        assert f"the {empty} split has no rows" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    def test_joint(self, data_dir, tmp_path):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(TINY_CONFIG)
        out = tmp_path / "joint"
        rc = main(["train", "--data", str(data_dir), "--objective", "elc",
                   "--band", "joint", "--config", str(cfg), "--out", str(out)])
        assert rc == EXIT_OK
        assert (out / "joint.mdl").exists()

    def test_unknown_config_key_rejected(self, data_dir, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("learning_rate = 0.1\n")
        rc = main(["train", "--data", str(data_dir), "--band", "all",
                   "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert rc == EXIT_DATA

    def test_malformed_config_line_is_data_error(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("max_epochs = 1\nseed 5\n")
        rc = main(["train", "--data", str(data_dir), "--band", "all",
                   "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert rc == EXIT_DATA
        assert f"{cfg}: line 2 'seed 5' is not key = value" in capsys.readouterr().err

    def test_bad_band_rejected(self, data_dir, tmp_path, capsys):
        for band in ("15", "x", "3"):
            rc = main(["train", "--data", str(data_dir), "--band", band,
                       "--out", str(tmp_path / "x")])
            assert rc == EXIT_DATA
            assert f"--band {band} is not one of all, joint" in capsys.readouterr().err
            assert not (tmp_path / "x").exists()

    def test_bad_band_rejected_before_any_pack_is_read(self, data_dir, tmp_path, capsys,
                                                       monkeypatch):
        def unread(path):
            raise AssertionError(f"{path} read before --band was checked")

        monkeypatch.setattr(mixing, "load_dataset", unread)
        for band in ("15", "3"):
            rc = main(["train", "--data", str(data_dir), "--band", band,
                       "--out", str(tmp_path / "x")])
            assert rc == EXIT_DATA
            assert f"--band {band} is not one of all, joint" in capsys.readouterr().err
            assert not (tmp_path / "x").exists()

    def test_pack_of_another_rate_is_data_error(self, data_dir, tmp_path, capsys):
        shutil.copy(data_dir / "val.pack", tmp_path / "val.pack")
        payload = bytearray((data_dir / "train.pack").read_bytes()[:-4])
        assert struct.unpack_from("<I", payload, 29) == (10_000,)  # the sample rate
        payload[29:33] = struct.pack("<I", 9000)
        pack = tmp_path / "train.pack"
        pack.write_bytes(bytes(payload) + struct.pack("<I", zlib.crc32(payload)))
        rc = main(["train", "--data", str(tmp_path), "--band", "all",
                   "--out", str(tmp_path / "x")])
        assert rc == EXIT_DATA
        assert (f"{pack}: bad STFT or band header: sample_rate_hz = 9000 is not 10000"
                in capsys.readouterr().err)
        assert not (tmp_path / "x").exists()

    def test_truncated_pack_is_data_error(self, data_dir, tmp_path):
        for name in ("train.pack", "val.pack"):
            shutil.copy(data_dir / name, tmp_path / name)
        payload = (tmp_path / "train.pack").read_bytes()[:-4][:-3]
        (tmp_path / "train.pack").write_bytes(
            payload + struct.pack("<I", zlib.crc32(payload))
        )
        rc = main(["train", "--data", str(tmp_path), "--band", "all",
                   "--out", str(tmp_path / "x")])
        assert rc == EXIT_DATA

    def test_missing_packs_is_data_error(self, tmp_path):
        rc = main(["train", "--data", str(tmp_path), "--band", "all",
                   "--out", str(tmp_path / "x")])
        assert rc == EXIT_DATA


    @pytest.mark.parametrize("command", ["train", "train-baseline"])
    @pytest.mark.parametrize("key, value, bad", [
        ("max_train_frames", "0", "0"), ("max_val_frames", "0", "0"),
        ("minibatch", "-3", "-3"), ("minibatch", "0", "0"), ("max_epochs", "0", "0"),
        ("hidden", "0", "0"), ("hidden", "8,0", "8,0"),
    ])
    def test_nonpositive_config_count_is_data_error(self, data_dir, tmp_path, capsys,
                                                    command, key, value, bad):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"max_epochs = 1\n{key} = {value}\n")
        extra = ["--band", "joint"] if command == "train" else []
        rc = main([command, "--data", str(data_dir), *extra, "--config", str(cfg),
                   "--out", str(tmp_path / "x")])
        assert rc == EXIT_DATA
        expected = "a comma-separated list of positive integers" if key == "hidden" else (
            "a positive integer")
        assert f"{cfg}: {key} = '{bad}' is not {expected}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists() or not any((tmp_path / "x").iterdir())

    @pytest.mark.parametrize("offset, value, message", [
        (21, 512, "fft_size = 512 is not 256"),
        (25, 256, "hop = 256 is not 128"),
        (17, 20, "n_env = 20 is not 30"),
    ])
    def test_pack_of_another_front_end_is_data_error(self, data_dir, tmp_path, capsys, offset,
                                                     value, message):
        shutil.copy(data_dir / "val.pack", tmp_path / "val.pack")
        pack = tmp_path / "train.pack"
        shutil.copy(data_dir / "train.pack", pack)
        payload = bytearray(pack.read_bytes()[:-4])
        payload[offset : offset + 4] = struct.pack("<I", value)
        pack.write_bytes(bytes(payload) + struct.pack("<I", zlib.crc32(payload)))
        rc = main(["train", "--data", str(tmp_path), "--out", str(tmp_path / "x")])
        assert rc == EXIT_DATA
        assert f"{pack}: bad STFT or band header: {message}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("defect", ["index row", "header", "UTF-8", "envelope values"])
    def test_bad_pack_is_data_error(self, data_dir, tmp_path, capsys, defect):
        shutil.copy(data_dir / "val.pack", tmp_path / "val.pack")
        pack = tmp_path / "train.pack"
        if defect == "index row":
            env = [np.ones((15, 40))] * 3
            mixing.save_dataset(mixing.EnvelopeDataset(env, env, [(7, 40)]), pack)
        elif defect == "envelope values":
            env = [np.full((15, 40), -2.0)]  # log1p of it is NaN
            mixing.save_dataset(mixing.EnvelopeDataset(env, env, [(0, 39)]), pack)
        else:
            mixing.save_dataset(mixing.EnvelopeDataset(
                [np.ones((15, 30))], [np.ones((15, 30))], [(0, 29)],
                mixes=[mixing.MixSpec(0.0, "ssn", "train", 1)],
            ), pack)
            payload = bytearray(pack.read_bytes()[:-4])
            if defect == "header":
                payload[21:25] = struct.pack("<I", 0)  # fft_size
            else:
                payload[payload.index(b"ssn")] = 0xFF
            pack.write_bytes(bytes(payload) + struct.pack("<I", zlib.crc32(payload)))
        rc = main(["train", "--data", str(tmp_path), "--band", "all",
                   "--out", str(tmp_path / "x")])
        assert rc == EXIT_DATA
        assert defect in capsys.readouterr().err

    @pytest.mark.parametrize("command, value, expected", [
        ("config", "lr_decay = nan", "lr_decay = 'nan' is not a number in (0, 1]"),
        ("config", "lr_decay = 2", "lr_decay = '2' is not a number in (0, 1]"),
        ("config", "lr_decay = 0", "lr_decay = '0' is not a number in (0, 1]"),
        ("config", "lr_floor = -1", "lr_floor = '-1' is not a finite positive number"),
        ("config", "lr_floor = nan", "lr_floor = 'nan' is not a finite positive number"),
        ("config", "initial_lr_per_sample = inf",
         "initial_lr_per_sample = 'inf' is not a finite positive number"),
        ("config", "initial_lr_per_sample = 0",
         "initial_lr_per_sample = '0' is not a finite positive number"),
        ("config", "seed = abc", "seed = 'abc' is not a non-negative integer"),
        ("config", "seed = -1", "seed = '-1' is not a non-negative integer"),
        ("synth-data", "-1", "--seed -1 is not a non-negative integer"),
        ("evaluate", "-1", "--seed -1 is not a non-negative integer"),
        ("gain-corr", "abc", "--seed abc is not a non-negative integer"),
        ("train", "stoi", "--objective stoi is not one of elc, emse"),
        ("evaluate", "xml", "--format xml is not one of text, csv"),
    ])
    def test_bad_config_or_seed_value_is_data_error(self, data_dir, tmp_path, capsys,
                                                    command, value, expected):
        out = tmp_path / "x"
        if command == "config":
            cfg = tmp_path / "bad.cfg"
            cfg.write_text(f"max_epochs = 1\n{value}\n")
            expected = f"{cfg}: {expected}"
            argv = ["train", "--data", str(data_dir), "--band", "joint", "--config", str(cfg),
                    "--out", str(out)]
        else:
            required = {
                "synth-data": ["--manifest", "pseudo:3x1", "--noise", "ssn", "--out", str(out)],
                "train": ["--data", str(data_dir), "--out", str(out)],
                "evaluate": ["--model", str(out), "--testset", str(data_dir)],
                "gain-corr": ["--model-a", str(out), "--model-b", str(out),
                              "--testset", str(data_dir)],
            }[command]
            argv = [command, *required, expected.split()[0], value]
        assert main(argv) == EXIT_DATA
        assert f"envgain: {expected}\n" == capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_diverged_training_is_numeric_error(self, data_dir, tmp_path, capsys):
        # ELC training diverges to non-finite parameters or outputs while its
        # costs stay finite; it must fail and write no model directory
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(TINY_CONFIG + "initial_lr_per_sample = 1e300\n")
        rc = main(["train", "--data", str(data_dir), "--band", "joint", "--config", str(cfg),
                   "--out", str(tmp_path / "x")])
        assert rc == EXIT_NUMERIC
        assert "envgain: numeric failure: non-finite" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.filterwarnings("error")
    def test_diverged_band_fan_out_is_numeric_error(self, data_dir, tmp_path, capsys,
                                                     monkeypatch):
        # every band diverges; on two workers the error is band 0's, as in
        # the serial loop, and no model directory is written
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(TINY_CONFIG + "initial_lr_per_sample = 1e300\n")
        errors = []
        for workers in (1, 2):
            monkeypatch.setattr(fanout, "_WORKERS", workers)
            rc = main(["train", "--data", str(data_dir), "--band", "all", "--config", str(cfg),
                       "--out", str(tmp_path / "x")])
            assert rc == EXIT_NUMERIC
            assert not (tmp_path / "x").exists()
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("envgain: numeric failure: non-finite")


class TestEnhanceEvaluate:
    def test_enhance_wav(self, data_dir, model_dir, tmp_path):
        noisy_in = next(iter((data_dir / "clean_test").glob("*.wav")))
        out = tmp_path / "enh.wav"
        rc = main(["enhance", "--model", str(model_dir),
                   "--in", str(noisy_in), "--out", str(out)])
        assert rc == EXIT_OK
        sig = read_wav(out)
        assert len(sig) == len(read_wav(noisy_in))

    def test_evaluate_csv(self, data_dir, model_dir, capsys):
        rc = main(["evaluate", "--model", str(model_dir), "--testset", str(data_dir),
                   "--snrs", "-5,5", "--format", "csv"])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "noise,snr_db,elc_up,elc_enh,stoi_up,stoi_enh"
        assert len(lines) == 3
        assert lines[1].startswith("ssn,-5,")

    def test_evaluate_nan_in_float_clean_wav_is_data_error(self, data_dir, model_dir,
                                                            tmp_path, capsys):
        testset = tmp_path / "testset"
        shutil.copytree(data_dir, testset)
        bad = testset / "clean_test" / "0000.wav"
        x = read_wav(bad).samples.astype("<f4")
        x[len(x) // 2] = np.nan
        payload = x.tobytes()
        bad.write_bytes(struct.pack(
            "<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(payload), b"WAVE",
            b"fmt ", 16, 3, 1, 10000, 40000, 4, 32, b"data", len(payload),
        ) + payload)
        rc = main(["evaluate", "--model", str(model_dir), "--testset", str(testset),
                   "--snrs", "0"])
        assert rc == EXIT_DATA
        assert str(bad) in capsys.readouterr().err

    @pytest.mark.parametrize("snrs", ["0,inf", "nan", "-inf"])
    def test_non_finite_snr_is_data_error(self, data_dir, model_dir, capsys, snrs):
        for command in (["evaluate", "--model", str(model_dir)],
                        ["gain-corr", "--model-a", str(model_dir), "--model-b", str(model_dir)]):
            rc = main([*command, "--testset", str(data_dir), "--snrs", snrs])
            assert rc == EXIT_DATA
            assert (f"--snrs {snrs} is not a comma-separated list of finite dB values"
                    in capsys.readouterr().err)

    @pytest.mark.parametrize("command, snrs", [
        ("evaluate", "1e308"), ("gain-corr", "1e306"), ("evaluate", "-1e300"),
    ])
    def test_huge_finite_snr_is_data_error(self, data_dir, model_dir, capsys, command, snrs):
        # 1e308 and 1e306 dB overflow the mixture seed key; -1e300 dB the noise gain
        models = ["--model", str(model_dir)] if command == "evaluate" else [
            "--model-a", str(model_dir), "--model-b", str(model_dir)]
        rc = main([command, *models, "--testset", str(data_dir), "--snrs", snrs])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert "too large to key a mixture seed" in err or "is not finite" in err

    @pytest.mark.parametrize("snrs", ["", ","])
    @pytest.mark.parametrize("command", ["evaluate", "gain-corr"])
    def test_empty_snr_list_is_data_error(self, tmp_path, capsys, command, snrs):
        # the list is checked before any model or test set is read; none exists
        none = str(tmp_path / "none")
        models = ["--model", none] if command == "evaluate" else ["--model-a", none,
                                                                  "--model-b", none]
        rc = main([command, *models, "--testset", none, "--snrs", snrs])
        assert rc == EXIT_DATA
        assert (f"--snrs {snrs} is not a comma-separated list of finite dB values"
                in capsys.readouterr().err)

    def test_gain_corr_self_is_one(self, data_dir, model_dir, capsys):
        rc = main(["gain-corr", "--model-a", str(model_dir), "--model-b", str(model_dir),
                   "--testset", str(data_dir), "--snrs", "5"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "correlation 1.0000" in out

    def test_evaluate_classical(self, data_dir, classical_dir, capsys):
        rc = main(["evaluate", "--model", str(classical_dir), "--testset", str(data_dir),
                   "--snrs", "-5,5"])
        assert rc == EXIT_OK
        cleans = [read_wav(p) for p in sorted((data_dir / "clean_test").glob("*.wav"))]
        rows = pipeline.evaluate_system(
            pipeline.load_system(classical_dir), cleans,
            read_wav(data_dir / "noise_test.wav"), [-5.0, 5.0], seed=0, noise_type="ssn",
        )
        assert capsys.readouterr().out == pipeline.report_tables(rows)

    def test_gain_corr_with_classical_is_data_error(self, data_dir, model_dir, classical_dir,
                                                    capsys):
        rc = main(["gain-corr", "--model-a", str(model_dir), "--model-b", str(classical_dir),
                   "--testset", str(data_dir), "--snrs", "5"])
        assert rc == EXIT_DATA
        assert ("gain_correlation needs two envelope-gain systems, not a classical one"
                in capsys.readouterr().err)

    def test_gain_corr_levels_each_utterance_once(self, data_dir, model_dir, capsys,
                                                  monkeypatch):
        calls = []
        level = mixing.active_speech_level

        def counted(signal):
            calls.append(signal)
            return level(signal)

        monkeypatch.setattr(mixing, "active_speech_level", counted)
        rc = main(["gain-corr", "--model-a", str(model_dir), "--model-b", str(model_dir),
                   "--testset", str(data_dir), "--snrs", "-5,0,5"])
        assert rc == EXIT_OK
        assert capsys.readouterr().out.count("correlation 1.0000") == 3
        assert len(calls) == 2  # the two test utterances, whatever the SNR count

    @pytest.mark.parametrize("line", [b"hop 128\n", b"hop = 1\xff8\n"])
    def test_enhance_malformed_system_txt_is_data_error(
        self, data_dir, model_dir, tmp_path, capsys, line
    ):
        model = tmp_path / "mdl"
        shutil.copytree(model_dir, model)
        meta = model / "system.txt"
        meta.write_bytes(meta.read_bytes().replace(b"hop = 128\n", line))
        noisy_in = next(iter((data_dir / "clean_test").glob("*.wav")))
        rc = main(["enhance", "--model", str(model),
                   "--in", str(noisy_in), "--out", str(tmp_path / "enh.wav")])
        assert rc == EXIT_DATA
        assert f"{meta}: line 6" in capsys.readouterr().err

    def test_enhance_partial_frame_wav_is_data_error(self, data_dir, model_dir, tmp_path,
                                                     capsys):
        noisy_in = next(iter((data_dir / "clean_test").glob("*.wav")))
        raw = bytearray(noisy_in.read_bytes() + b"\x01")  # half a 16-bit sample
        raw[40:44] = struct.pack("<I", struct.unpack("<I", raw[40:44])[0] + 1)
        bad = tmp_path / "odd.wav"
        bad.write_bytes(bytes(raw))
        rc = main(["enhance", "--model", str(model_dir),
                   "--in", str(bad), "--out", str(tmp_path / "enh.wav")])
        assert rc == EXIT_DATA
        assert "is not whole 2-byte frames" in capsys.readouterr().err

    def test_enhance_absurd_rate_wav_is_data_error(self, data_dir, model_dir, tmp_path,
                                                   capsys):
        noisy_in = next(iter((data_dir / "clean_test").glob("*.wav")))
        raw = bytearray(noisy_in.read_bytes())
        raw[27] ^= 0x80  # top byte of the sample rate field
        bad = tmp_path / "rate.wav"
        bad.write_bytes(bytes(raw))
        rc = main(["enhance", "--model", str(model_dir),
                   "--in", str(bad), "--out", str(tmp_path / "enh.wav")])
        assert rc == EXIT_DATA
        assert f"{bad}: sample rate" in capsys.readouterr().err
        assert not (tmp_path / "enh.wav").exists()

    def test_enhance_rate_of_too_many_phases_is_data_error(self, model_dir, tmp_path, capsys):
        noisy_in = tmp_path / "odd_rate.wav"
        write_wav(TimeSignal(np.random.default_rng(5).uniform(-0.1, 0.1, 48_000), 96_001),
                  noisy_in)
        rc = main(["enhance", "--model", str(model_dir),
                   "--in", str(noisy_in), "--out", str(tmp_path / "enh.wav")])
        assert rc == EXIT_DATA
        assert "sample rate 96001 Hz needs a 10000/96001 resampler" in capsys.readouterr().err
        assert not (tmp_path / "enh.wav").exists()

    def test_enhance_bad_feature_norm_is_data_error(self, data_dir, model_dir, tmp_path):
        model = tmp_path / "mdl"
        shutil.copytree(model_dir, model)
        dim = len(modeldir.load_norm(model / "feature_norm.bin").mean)
        modeldir.save_norm(
            neural.FeatureNorm(np.full(dim, np.nan), np.zeros(dim)), model / "feature_norm.bin"
        )
        noisy_in = next(iter((data_dir / "clean_test").glob("*.wav")))
        rc = main(["enhance", "--model", str(model),
                   "--in", str(noisy_in), "--out", str(tmp_path / "enh.wav")])
        assert rc == EXIT_DATA

    @pytest.mark.parametrize("defect, message", [
        ("missing hop", "missing key(s) hop"),
        ("mixed objective", "objective emse != elc"),
        ("non-finite", "non-finite parameters"),
        ("hop = 12x8", "hop = '12x8' is not a positive integer"),
        ("kind = banana", "kind = 'banana' is not one of per-band, joint"),
        ("out_of_band = banana", "out_of_band = 'banana' is not one of zero"),
        ("out_of_band = passthrough", "out_of_band = 'passthrough' is not one of zero"),
        ("sample_rate_hz = 9000", "sample_rate_hz = 9000 is not 10000"),
        ("first_center_hz = 170", "first_center_hz = 170.0 is not 150.0"),
        ("fft_size = 512", "fft_size = 512 is not 256"),
        ("hop = 256", "hop = 256 is not 128"),
        ("n_env = 20", "n_env = 20 is not 30"),
        # a classical record of another window, with a network and feature
        # norm of its widths
        ("context = 10", "context = '10' is not 30"),
        ("predict = 3", "predict = '3' is not 5"),
    ])
    def test_enhance_bad_model_dir_is_data_error(
        self, data_dir, model_dir, classical_dir, tmp_path, capsys, defect, message
    ):
        model = tmp_path / "mdl"
        key, _, value = defect.partition(" = ")
        window = {"context": baseline.CONTEXT_FRAMES, "predict": baseline.PREDICT_FRAMES}
        shutil.copytree(classical_dir if key in window else model_dir, model)
        if key in window:
            window[key] = int(value)
            n_in = window["context"] * N_BINS
            net = neural.init_model([n_in, 8, window["predict"] * N_BINS], seed=0)
            neural.save_model(net, model / "baseline.mdl", "emse")
            modeldir.save_norm(neural.FeatureNorm(np.zeros(n_in), np.ones(n_in)),
                               model / "feature_norm.bin")
        if defect == "missing hop":
            lines = (model / "system.txt").read_text().splitlines(keepends=True)
            kept = [line for line in lines if not line.startswith("hop")]
            (model / "system.txt").write_text("".join(kept))
        elif value:
            lines = (model / "system.txt").read_text().splitlines(keepends=True)
            kept = [line for line in lines if not line.startswith(f"{key} ")]
            (model / "system.txt").write_text("".join(kept) + defect + "\n")
        else:
            band, objective = neural.load_model(model / "band_02.mdl")
            if defect == "non-finite":
                band.layers[0].bias[1] = np.nan
            else:
                objective = "emse"
            neural.save_model(band, model / "band_02.mdl", objective)
        noisy_in = next(iter((data_dir / "clean_test").glob("*.wav")))
        rc = main(["enhance", "--model", str(model),
                   "--in", str(noisy_in), "--out", str(tmp_path / "enh.wav")])
        assert rc == EXIT_DATA
        assert message in capsys.readouterr().err

    def test_unknown_model_kind_names_every_kind(self, data_dir, classical_dir, tmp_path,
                                                 capsys, monkeypatch):
        # system.txt is read once, and its kind is checked against every
        # kind a model directory can have
        model = tmp_path / "mdl"
        shutil.copytree(classical_dir, model)
        record = model / "system.txt"
        record.write_text(record.read_text().replace("kind = classical", "kind = bogus"))
        reads, parse_kv = [], modeldir.parse_kv
        monkeypatch.setattr(modeldir, "parse_kv", lambda path: reads.append(path) or parse_kv(path))
        noisy_in = next(iter((data_dir / "clean_test").glob("*.wav")))
        rc = main(["enhance", "--model", str(model),
                   "--in", str(noisy_in), "--out", str(tmp_path / "enh.wav")])
        assert rc == EXIT_DATA
        assert capsys.readouterr().err == (
            f"envgain: {record}: kind = 'bogus' is not one of per-band, joint, classical\n")
        assert reads == [record]
        assert not (tmp_path / "enh.wav").exists()

    @pytest.mark.parametrize("command, line, message", [
        ("train-baseline", "snr_range = garbage",
         "snr_range = 'garbage' is not LO:HI in finite dB with LO <= HI"),
        ("evaluate", "noise = a,b", "noise = 'a,b' is not one of ssn, babble, file"),
    ])
    def test_bad_meta_value_is_data_error(self, data_dir, model_dir, tmp_path, capsys,
                                          command, line, message):
        # a meta.txt value not of its key's kind is refused, naming the file,
        # before anything is trained or printed
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        meta = data / "meta.txt"
        key = line.split(" = ")[0]
        kept = [entry for entry in meta.read_text().splitlines(keepends=True)
                if not entry.startswith(f"{key} ")]
        meta.write_text("".join(kept) + line + "\n")
        argv = {
            "train-baseline": ["--data", str(data), "--out", str(tmp_path / "x")],
            "evaluate": ["--model", str(model_dir), "--testset", str(data), "--format", "csv"],
        }[command]
        assert main([command, *argv]) == EXIT_DATA
        assert tuple(capsys.readouterr()) == ("", f"envgain: {meta}: {message}\n")
        assert not (tmp_path / "x").exists()

    def test_enhance_missing_model_is_data_error(self, tmp_path):
        rc = main(["enhance", "--model", str(tmp_path / "none"),
                   "--in", "x.wav", "--out", "y.wav"])
        assert rc == EXIT_DATA


class TestBaselineCli:
    def test_train_baseline(self, data_dir, tmp_path):
        cfg = tmp_path / "b.cfg"
        cfg.write_text("max_epochs = 1\nhidden = 8\nmax_train_frames = 150\n"
                       "max_val_frames = 50\nseed = 2\n")
        out = tmp_path / "base"
        rc = main(["train-baseline", "--data", str(data_dir),
                   "--config", str(cfg), "--out", str(out)])
        assert rc == EXIT_OK
        assert (out / "baseline.mdl").exists()
        assert (out / "system.txt").read_text() == (
            "kind = classical\ncontext = 30\npredict = 5\nfft_size = 256\nhop = 128\n"
        )
        noisy_in = next(iter((data_dir / "clean_test").glob("*.wav")))
        enh = tmp_path / "b.wav"
        rc = main(["enhance", "--model", str(out), "--in", str(noisy_in),
                   "--out", str(enh)])
        assert rc == EXIT_OK

    def test_train_baseline_mixes_what_the_packs_hold(self, tmp_path, monkeypatch):
        # meta.txt keeps every bit of the SNR range, so train-baseline draws
        # the same mixtures as the envelope packs, at a range :g would round
        data = tmp_path / "corpus"
        write_wav(white_noise(25.0), tmp_path / "noise.wav")
        rc = main(["synth-data", "--manifest", "pseudo:4x1.6", "--noise",
                   f"file:{tmp_path / 'noise.wav'}", "--snr-range", "-5.1234567:9.87654321",
                   "--out", str(data)])
        assert rc == EXIT_OK
        captured = []
        real = baseline.train_classical

        def capture(train_ds, val_ds, *args, **kwargs):
            captured.extend([train_ds, val_ds])
            return real(train_ds, val_ds, *args, **kwargs)

        monkeypatch.setattr(baseline, "train_classical", capture)
        cfg = tmp_path / "b.cfg"
        cfg.write_text("max_epochs = 1\nhidden = 8\n")
        rc = main(["train-baseline", "--data", str(data), "--config", str(cfg),
                   "--out", str(tmp_path / "base")])
        assert rc == EXIT_OK
        packs = [mixing.load_dataset(data / name) for name in ("train.pack", "val.pack")]
        for ds, pack in zip(captured, packs, strict=True):
            for mags, envs in ((ds.clean_mag, pack.clean_env), (ds.noisy_mag, pack.noisy_env)):
                assert len(mags) == len(envs)
                for mag, env in zip(mags, envs):
                    assert np.array_equal(octave.envelopes(mag), env)


class TestVerifyAndUsage:
    def test_verify_passes(self, capsys):
        rc = main(["verify"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 4
        assert "[FAIL]" not in out

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["train"])  # missing required options
        assert exc.value.code == EXIT_USAGE

    def test_unknown_command_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == EXIT_USAGE


def text_or(*good, bad=()):
    """Mostly one of `good`; now and then one of `bad`, or any short text."""
    return st.integers(0, 19).flatmap(lambda i: (
        st.sampled_from(good) if i < 18 else st.sampled_from(bad or good) if i == 18
        else st.text(max_size=10)))


def kv_file(kinds, required=()):
    """The text of a `key = value` file: every key of `required` and some of
    `kinds`, each with its value, and now and then an unknown key or a line
    that is not key = value."""
    keys = st.lists(st.sampled_from(sorted(kinds)), unique=True, max_size=len(kinds))
    lines = keys.map(lambda ks: sorted(set(ks) | set(required))).flatmap(
        lambda ks: st.tuples(*(kinds[k].map(lambda v, k=k: f"{k} = {v}") for k in ks)))
    oddities = st.integers(0, 19).map(
        lambda i: [] if i < 17 else [("colour = red", "seed 5", "= 3")[i - 17]])
    return st.tuples(lines, oddities).map(lambda parts: "".join(
        f"{line}\n" for line in [*parts[0], *parts[1]]))


# every size a good value asks for is small: a case trains a few narrow
# networks on a few hundred frames, or makes at most 40 s of speech
CONFIG = kv_file({
    "initial_lr_per_sample": text_or("0.001", "1e-5", bad=("1e300", "-1", "inf")),
    "lr_decay": text_or("0.5", "1", bad=("0", "nan")),
    "lr_floor": text_or("1e-10", bad=("0",)),
    "max_epochs": text_or("1", "2", bad=("0",)),
    "minibatch": text_or("32", "64", bad=("-3",)),
    "seed": text_or("0", "7", str(2**64), str(2**200), bad=("-1",)),
    "hidden": text_or("4", "8,8", "4,4,4", bad=("8,0", "")),
    "max_train_frames": text_or("100", "300", bad=("0",)),
    "max_val_frames": text_or("50", bad=("0",)),
}, required=("hidden", "max_epochs", "max_train_frames", "max_val_frames"))
META = kv_file({
    "seed": text_or("3", str(2**70), bad=("-2",)),
    "noise": text_or("ssn", "babble", "file", bad=("a,b",)),
    "snr_range": text_or("-5:10", "0:0", bad=("5:-5", "-1e308:-1e308", "garbage")),
    "n_train": text_or("20", bad=("0",)),
    "n_val": text_or("2", bad=("x",)),
    "n_test": text_or("2", bad=("-1",)),
})


class TestAnyInput:
    """Whatever text the options, the config file and meta.txt hold, the
    CLI returns an exit code, and nothing but argparse's SystemExit
    escapes it."""

    @pytest.fixture(scope="class")
    def noise_wav(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("noise") / "noise.wav"
        write_wav(white_noise(25.0), path)
        return path

    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(data=st.data())
    def test_every_input_gives_an_exit_code(self, data_dir, model_dir, classical_dir,
                                            noise_wav, tmp_path_factory, data):
        command = data.draw(st.sampled_from(
            ["synth-data", "train", "train-baseline", "evaluate", "gain-corr"]))
        work = Path(tempfile.mkdtemp(dir=tmp_path_factory.getbasetemp()))
        out = str(work / "out")
        # the data directory: the module corpus, with a meta.txt drawn anew
        # nine times in ten
        data_view = work / "data"
        data_view.mkdir()
        for entry in data_dir.iterdir():
            if entry.name != "meta.txt":
                (data_view / entry.name).symlink_to(entry)
        if data.draw(st.integers(0, 9)) < 9:
            (data_view / "meta.txt").write_text(data.draw(META))
        config = work / "train.cfg"
        config.write_text(data.draw(CONFIG))
        seed = ["--seed", data.draw(text_or("0", "5", str(2**70), bad=("-1",)))]
        snrs = ["--snrs", data.draw(text_or("-5,5", "0", bad=("", "nan", "1e308")))]
        model = str(data.draw(st.sampled_from([model_dir, classical_dir])))
        argv = {
            "synth-data": [
                "--manifest", data.draw(text_or(
                    "pseudo:24x1.6", "pseudo:8x1",
                    bad=("pseudo:2x1.6", "pseudo:0x1", "pseudo:3x0.3", "pseudo:3xinf"))),
                "--noise", data.draw(text_or("ssn", "babble", f"file:{noise_wav}",
                                             bad=(f"file:{work / 'none.wav'}",))),
                "--snr-range", data.draw(text_or("-5:10", "0:0", bad=("5:-5", "nan:5"))),
                *seed, "--out", out],
            "train": ["--data", str(data_view), "--config", str(config), "--out", out,
                      "--objective", data.draw(text_or("elc", "emse", bad=("stoi",))),
                      "--band", data.draw(text_or("all", "joint", bad=("3", "-x")))],
            "train-baseline": ["--data", str(data_view), "--config", str(config),
                               "--out", out],
            "evaluate": ["--model", model, "--testset", str(data_view), *snrs, *seed,
                         "--format", data.draw(text_or("text", "csv", bad=("xml", "-x")))],
            "gain-corr": ["--model-a", str(model_dir), "--model-b", model,
                          "--testset", str(data_view), *snrs, *seed],
        }[command]
        try:
            code = main([command, *argv])
        except SystemExit as exc:
            code = exc.code
        finally:
            shutil.rmtree(work)
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC)
