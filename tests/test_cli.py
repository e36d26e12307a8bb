"""CLI subcommands, exit codes, and the data-directory layout."""

import shutil
import struct
import zlib

import numpy as np
import pytest

from envgain import neural, pipeline
from envgain.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from envgain.signal_io import read_wav

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


class TestSynthData:
    def test_layout(self, data_dir):
        assert sorted(p.name for p in data_dir.glob("*.pack")) == ["train.pack", "val.pack"]
        assert (data_dir / "meta.txt").exists()
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


class TestTrain:
    def test_single_band(self, data_dir, tmp_path):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(TINY_CONFIG)
        out = tmp_path / "band3"
        rc = main(["train", "--data", str(data_dir), "--objective", "emse",
                   "--band", "3", "--config", str(cfg), "--out", str(out)])
        assert rc == EXIT_OK
        assert (out / "band_03.mdl").exists()
        assert (out / "feature_norm.bin").exists()
        assert (out / "system.txt").exists()

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

    def test_bad_band_rejected(self, data_dir, tmp_path):
        rc = main(["train", "--data", str(data_dir), "--band", "15",
                   "--out", str(tmp_path / "x")])
        assert rc == EXIT_DATA

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

    def test_gain_corr_self_is_one(self, data_dir, model_dir, capsys):
        rc = main(["gain-corr", "--model-a", str(model_dir), "--model-b", str(model_dir),
                   "--testset", str(data_dir), "--snrs", "5"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "correlation 1.0000" in out

    def test_enhance_bad_feature_norm_is_data_error(self, data_dir, model_dir, tmp_path):
        model = tmp_path / "mdl"
        shutil.copytree(model_dir, model)
        dim = len(pipeline._load_norm(model / "feature_norm.bin").mean)
        pipeline._save_norm(
            neural.FeatureNorm(np.full(dim, np.nan), np.zeros(dim)), model / "feature_norm.bin"
        )
        noisy_in = next(iter((data_dir / "clean_test").glob("*.wav")))
        rc = main(["enhance", "--model", str(model),
                   "--in", str(noisy_in), "--out", str(tmp_path / "enh.wav")])
        assert rc == EXIT_DATA

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
        rc = main(["train-baseline", "--data", str(data_dir), "--hidden", "8",
                   "--config", str(cfg), "--out", str(out)])
        assert rc == EXIT_OK
        assert (out / "baseline.mdl").exists()
        noisy_in = next(iter((data_dir / "clean_test").glob("*.wav")))
        enh = tmp_path / "b.wav"
        rc = main(["enhance", "--model", str(out), "--in", str(noisy_in),
                   "--out", str(enh)])
        assert rc == EXIT_OK


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
