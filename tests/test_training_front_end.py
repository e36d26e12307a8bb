"""The training front end gathers each split's features once, takes the
feature norm from that matrix and normalizes it in place: the same bits as
the chunked gather-and-square formula and `FeatureNorm.apply`, in about one
copy of the features."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from envgain import baseline, mixing, neural, pipeline
from envgain.signal_io import WORKING_RATE_HZ, TimeSignal

NOISE = TimeSignal(np.random.default_rng(90).uniform(-0.3, 0.3, 8 * WORKING_RATE_HZ),
                   WORKING_RATE_HZ)
CHUNKS = (1, 3, 16, 257, 2048, 4096)
MAX_CELLS = 3_000_000  # at most 24 MB of float64 per generated matrix


def reference_norm(feats, chunk):
    """The chunked formula as it was: each block a fresh gathered array, its
    squares summed through a block-sized temporary."""
    sums = sqsums = 0.0
    for lo in range(0, len(feats), chunk):
        block = np.array(feats[lo : lo + chunk])
        sums = sums + block.sum(axis=0)
        sqsums = sqsums + (block**2).sum(axis=0)
    mean = sums / len(feats)
    var = np.maximum(sqsums / len(feats) - mean**2, 0.0)
    return mean, np.maximum(np.sqrt(var), 1e-8)


@st.composite
def feature_matrices(draw):
    """(features, chunk) with a row count below, at or above the chunk."""
    width = draw(st.sampled_from([1, 2, 3, 5, 17, 450, 3870]))
    chunk = draw(st.sampled_from([c for c in CHUNKS if 3 * c * width <= MAX_CELLS]))
    side = draw(st.sampled_from(["below", "at", "above"]))
    if side == "below":
        rows = draw(st.integers(1, max(1, chunk - 1)))
    elif side == "at":
        rows = chunk
    else:
        rows = chunk * draw(st.integers(1, 2)) + draw(st.integers(1, chunk))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    feats = np.log1p(scale * rng.lognormal(size=(rows, width)))
    if draw(st.booleans()):
        feats -= feats.mean()  # signed values too
    return feats, chunk


@settings(max_examples=80, deadline=None)
@given(feature_matrices())
def test_feature_norm_matches_squared_block_formula(case):
    feats, chunk = case
    norm = pipeline.compute_feature_norm_for(feats, chunk)
    mean, std = reference_norm(feats, chunk)
    assert np.array_equal(norm.mean, mean)
    assert np.array_equal(norm.std, std)


def envelope_datasets(n_train=10, seconds=3.0):
    speech = mixing.pseudo_corpus(n_train + 1, seconds, seed=91)
    return (mixing.build_dataset(speech[:n_train], NOISE, split="train", seed=92),
            mixing.build_dataset(speech[n_train:], NOISE, split="validation", seed=93))


def magnitude_datasets():
    speech = mixing.pseudo_corpus(10, 1.0, seed=94)
    return (baseline.build_magnitude_dataset(speech[:8], NOISE, seed=95),
            baseline.build_magnitude_dataset(speech[8:], NOISE, seed=96))


class Stop(Exception):
    pass


def front_end(monkeypatch, train_ds, val_ds, **kwargs):
    """Run `_train` up to its first `_fit` call: (the (dataset, rows,
    features) sets it passes, the front end's traced peak bytes)."""
    seen = []

    def record(sets, band, config, hidden):
        seen.append((sets, tracemalloc.get_traced_memory()[1]))
        raise Stop

    monkeypatch.setattr(pipeline, "_fit", record)
    config = neural.TrainConfig(seed=97)
    tracemalloc.start()
    try:
        with pytest.raises(Stop):
            pipeline._train(train_ds, val_ds, [None], config, (8,), None, None, **kwargs)
    finally:
        tracemalloc.stop()
    ((sets, peak),) = seen
    return sets, peak


# the classical front end passes its own row salt and norm chunk
KINDS = {"envelope": (envelope_datasets, {}),
         "magnitude": (magnitude_datasets, {"salt": 0xBA5E, "chunk": 2048})}


@pytest.fixture(scope="module", params=list(KINDS))
def datasets(request):
    build, kwargs = KINDS[request.param]
    return build(), kwargs


def test_train_features_equal_apply_of_gathered_features(monkeypatch, datasets):
    (train_ds, val_ds), kwargs = datasets
    sets, _ = front_end(monkeypatch, train_ds, val_ds, **kwargs)
    (_, train_rows, _), _ = sets
    chunk = kwargs.get("chunk", pipeline._FEATURE_CHUNK)
    norm = neural.FeatureNorm(*reference_norm(train_ds.features(train_rows), chunk))
    for (ds, rows, feats), want in zip(sets, (train_ds, val_ds)):
        assert ds is want
        assert np.array_equal(feats, norm.apply(ds.features(rows)))


def test_front_end_peak_is_about_one_feature_copy(monkeypatch, datasets):
    (train_ds, val_ds), kwargs = datasets
    assert train_ds.n_frames >= (2000 if isinstance(train_ds, mixing.EnvelopeDataset) else 300)
    sets, peak = front_end(monkeypatch, train_ds, val_ds, **kwargs)
    feature_bytes = sum(feats.nbytes for _, _, feats in sets)
    assert peak <= 1.25 * feature_bytes + 2**20, (peak, feature_bytes)
