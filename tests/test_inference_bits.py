"""The inference fan-out keeps its bits: a 15-band system enhances one
signal to the same samples with one worker thread and with two, at one
OpenBLAS thread and at two. Each thread count runs in its own child
process, since OpenBLAS reads it once, when numpy is imported."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import envgain
from envgain import mixing, neural, pipeline
from envgain.octave import ENVELOPE_LEN, build_band_layout
from envgain.stft import StftConfig


def enhanced_digests():
    """sha256 of one enhancement per worker count. A 32-row chunk splits the
    95 envelope windows into 3 chunks x 15 networks, and keeps each first
    layer product large enough for OpenBLAS to share it among its threads."""
    layout = build_band_layout()
    dim = layout.n_bands * ENVELOPE_LEN
    rng = np.random.default_rng(5)
    norm = neural.FeatureNorm(rng.normal(-2.0, 0.5, dim), rng.uniform(0.5, 2.0, dim))
    models = [neural.init_model([dim, 64, 64, ENVELOPE_LEN], seed=band) for band in range(15)]
    system = pipeline.EnhancementSystem(models, None, layout, StftConfig(), norm, "elc")
    speech = mixing.pseudo_speech(1.6, seed=6)
    noisy, _ = mixing.mix_at_snr(speech, mixing.pseudo_speech(4.0, seed=7), 0.0, rng=8)
    pipeline._FEATURE_CHUNK = 32
    digests = {}
    for workers in (1, 2):
        pipeline._WORKERS = workers
        digests[workers] = hashlib.sha256(pipeline.enhance(system, noisy).samples).hexdigest()
    return digests


@pytest.mark.parametrize("blas_threads", ["1", "2"])
def test_worker_count_leaves_the_bits(blas_threads):
    src = str(Path(envgain.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": blas_threads,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    digests = json.loads(child.stdout)
    assert digests["1"] == digests["2"]


if __name__ == "__main__":
    print(json.dumps(enhanced_digests()))
