"""The inference fan-out keeps its bits: a 15-band, a joint and a classical
system each enhance one signal to the same samples with one worker thread
and with two, at one OpenBLAS thread and at two. Each thread count runs in
its own child process, since OpenBLAS reads it once, when numpy is
imported."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import envgain
from envgain import baseline, fanout, mixing, neural, pipeline
from envgain.octave import ENVELOPE_LEN, build_band_layout
from envgain.stft import StftConfig


def systems():
    """A 15-band, a joint and a classical system with seeded weights."""
    layout, config = build_band_layout(), StftConfig()
    dim = layout.n_bands * ENVELOPE_LEN
    rng = np.random.default_rng(5)
    norm = neural.FeatureNorm(rng.normal(-2.0, 0.5, dim), rng.uniform(0.5, 2.0, dim))
    models = [neural.init_model([dim, 64, 64, ENVELOPE_LEN], seed=band) for band in range(15)]
    mag_dim = baseline.CONTEXT_FRAMES * config.n_bins
    mag_norm = neural.FeatureNorm(rng.normal(-1.0, 0.5, mag_dim), rng.uniform(0.5, 2.0, mag_dim))
    return {
        "per-band": pipeline.EnhancementSystem(models, None, layout, config, norm, "elc"),
        "joint": pipeline.EnhancementSystem(
            None, neural.init_model([dim, 64, 64, dim], seed=20), layout, config, norm, "elc"),
        "classical": baseline.ClassicalSystem(
            neural.init_model([mag_dim, 64, 64, baseline.PREDICT_FRAMES * config.n_bins], seed=21),
            config, mag_norm),
    }


def enhanced_digests():
    """sha256 of one enhancement per system and worker count. A 32-row cap
    splits the 95 envelope windows into 3 row blocks x 15 networks, and
    keeps each first layer product large enough for OpenBLAS to share it
    among its threads; the joint and classical networks take 4 row blocks
    each."""
    speech = mixing.pseudo_speech(1.6, seed=6)
    noisy, _ = mixing.mix_at_snr(speech, mixing.pseudo_speech(4.0, seed=7), 0.0, rng=8)
    pipeline._FEATURE_CHUNK = 32
    digests = {}
    for name, system in systems().items():
        for workers in (1, 2):
            fanout._WORKERS = workers
            digests[f"{name} {workers}"] = hashlib.sha256(
                pipeline.enhance(system, noisy).samples).hexdigest()
    return digests


@pytest.mark.parametrize("blas_threads", ["1", "2"])
def test_worker_count_leaves_the_bits(blas_threads):
    src = str(Path(envgain.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": blas_threads,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    digests = json.loads(child.stdout)
    for name in ("per-band", "joint", "classical"):
        assert digests[f"{name} 1"] == digests[f"{name} 2"], name


if __name__ == "__main__":
    print(json.dumps(enhanced_digests()))
