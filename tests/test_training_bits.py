"""The training step keeps its bits: golden digests of trained parameters
and of the speech-shaped noise they train on, and the in-place
forward/backward against the textbook formulas."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import envgain
from envgain import baseline, mixing, neural, pipeline

SPEECH = mixing.pseudo_corpus(4, 1.5, seed=70)
NOISE = mixing.synth_ssn(mixing.pseudo_corpus(4, 8.0, seed=71), 20.0, seed=72)


def envelope_system(objective, joint):
    train_ds = mixing.build_dataset(SPEECH[:3], NOISE, split="train", seed=73)
    val_ds = mixing.build_dataset(SPEECH[3:], NOISE, split="validation", seed=74)
    config = neural.TrainConfig(objective=objective, max_epochs=2, minibatch=64, seed=75)
    system, _ = pipeline.train_enhancement_system(
        train_ds, val_ds, config, hidden=(16, 16), joint=joint,
        max_train_frames=300, max_val_frames=100,
    )
    return params(system.models)


def classical_system():
    train_ds = baseline.build_magnitude_dataset(SPEECH[:2], NOISE, seed=76)
    val_ds = baseline.build_magnitude_dataset(SPEECH[3:], NOISE, seed=77)
    config = neural.TrainConfig(objective="emse", max_epochs=2, minibatch=64, seed=78,
                                initial_lr_per_sample=2e-4)
    system, _ = baseline.train_classical(
        train_ds, val_ds, config, hidden=(16, 16), max_train_frames=200, max_val_frames=60
    )
    return params([system.model])


def params(models):
    return b"".join(m.param_bytes() for m in models)


# sha256 of the trained parameters as the textbook (allocating) training
# step produced them; a changed digest means training no longer gives the
# same models for the same seed. The SSN noise they train on is pinned as
# scipy.signal.welch's long-term spectrum shaped it.
GOLDEN = {
    "per-band elc": (
        lambda: envelope_system("elc", joint=False),
        "150d9ff47c2d8b8afbe084883891e9ca8321731c3058fd5a4953b77306d51be8",
    ),
    "joint emse": (
        lambda: envelope_system("emse", joint=True),
        "e9a3ca82279fd9fe4a75d58eea83e3776a167dd26828e0d1f33e16a272d42af8",
    ),
    "classical": (
        classical_system,
        "6f9ef22d9ada43677459431f426717da4154e032ff755b5ac2dc093b0a9df0ed",
    ),
    "ssn noise": (
        lambda: NOISE.samples.tobytes(),
        "8663e0c07f2a354cbbe63d31217b8b1928344ceda95e512943e91f9c2acea147",
    ),
}


def golden_digests():
    return {name: hashlib.sha256(build()).hexdigest() for name, (build, _) in GOLDEN.items()}


def test_trained_parameters_match_golden_digests():
    # The digests were recorded with two OpenBLAS threads. The thread count
    # changes how BLAS splits the classical net's wide products, and so their
    # bits (one thread gives another classical digest), so they are computed
    # by running this file in a child process pinned to two threads.
    src = str(Path(envgain.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == {name: digest for name, (_, digest) in GOLDEN.items()}


# -- the textbook step, as the network code computed it before it worked in
# place; the lean step must give the same bits


def reference_forward_cached(model, batch, train_mode):
    a = np.asarray(batch, dtype=np.float64)
    caches = []
    for layer in model.layers:
        z = a @ layer.weights.T + layer.bias
        c = {"a_in": a, "z": z}
        if layer.batch_norm is not None:
            bn = layer.batch_norm
            if train_mode:
                mu = z.mean(axis=0)
                var = z.var(axis=0)
            else:
                mu, var = bn.running_mean, bn.running_var
            istd = 1.0 / np.sqrt(var + neural.BN_EPS)
            zh = (z - mu) * istd
            z = bn.gamma * zh + bn.beta
            c.update(mu=mu, var=var, istd=istd, zh=zh)
        if layer.activation == "relu":
            a = np.maximum(z, 0.0)
        else:
            a = 1.0 / (1.0 + np.exp(-z))
        c["a_out"] = a
        caches.append(c)
    return a, caches


def reference_backward(model, batch, clean, noisy, objective):
    gains, caches = reference_forward_cached(model, batch, True)
    loss, d_a, n_degenerate = neural._loss_and_grad(gains, clean, noisy, objective)
    grads, stats = [], []
    for layer, c in zip(reversed(model.layers), reversed(caches)):
        if layer.activation == "sigmoid":
            d_z = d_a * c["a_out"] * (1.0 - c["a_out"])
        else:
            d_z = d_a * (c["a_out"] > 0)
        g = neural.LayerGrads(None, None)
        if layer.batch_norm is not None:
            bn = layer.batch_norm
            g.d_gamma = np.einsum("bi,bi->i", d_z, c["zh"])
            g.d_beta = d_z.sum(axis=0)
            d_zh = d_z * bn.gamma
            b = batch.shape[0]
            d_z = (c["istd"] / b) * (
                b * d_zh
                - d_zh.sum(axis=0)
                - c["zh"] * np.einsum("bi,bi->i", d_zh, c["zh"])
            )
            stats.append((c["mu"], c["var"]))
        g.d_weights = d_z.T @ c["a_in"]
        g.d_bias = d_z.sum(axis=0)
        d_a = d_z @ layer.weights
        grads.append(g)
    return neural.BackwardResult(grads[::-1], float(loss.sum()), n_degenerate, stats[::-1])


ARCHS = {"relu-bn": (True, True), "sigmoid-only": (False, False), "no-bn": (True, False)}


@st.composite
def step_cases(draw):
    arch = draw(st.sampled_from(sorted(ARCHS)))
    hidden, batch_norm = ARCHS[arch]
    joint = draw(st.booleans())
    n_env = draw(st.integers(3, 6))
    n_bands = draw(st.integers(2, 3)) if joint else 1
    depth = draw(st.integers(1, 3)) if hidden else 0
    widths = [draw(st.integers(2, 9)) for _ in range(depth)]
    dims = [draw(st.integers(1, 12)), *widths, n_bands * n_env]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = neural.init_model(dims, seed=int(rng.integers(1 << 31)))
    for layer in model.layers:
        layer.bias[:] = rng.normal(0.0, 0.3, layer.bias.shape)
        if layer.batch_norm is not None and not batch_norm:
            layer.batch_norm = None
        elif layer.batch_norm is not None:
            bn = layer.batch_norm
            bn.gamma[:] = rng.uniform(0.5, 2.0, bn.gamma.shape)
            bn.beta[:] = rng.normal(0.0, 0.3, bn.beta.shape)
            bn.running_mean[:] = rng.normal(0.0, 0.5, bn.running_mean.shape)
            bn.running_var[:] = rng.uniform(0.2, 3.0, bn.running_var.shape)
    b = draw(st.integers(1, 40))
    batch = rng.normal(0.0, 2.0, (b, dims[0]))
    shape = (b, n_bands, n_env) if joint else (b, n_env)
    noisy = rng.uniform(0.1, 2.0, shape)
    clean = noisy * rng.uniform(0.2, 1.0, shape)
    if draw(st.booleans()):
        clean[0] = 1.0  # a flat clean envelope: a degenerate ELC window
    return model, batch, clean, noisy, draw(st.sampled_from(neural.OBJECTIVES))


@settings(max_examples=150, deadline=None)
@given(step_cases())
def test_lean_step_matches_textbook_step(case):
    model, batch, clean, noisy, objective = case
    before = [a.copy() for layer in model.layers for a in layer.params()] + [batch.copy()]

    ref_gains, _ = reference_forward_cached(model, batch, False)
    assert np.array_equal(neural.forward(model, batch, mode="infer"), ref_gains)

    caches = []
    gains = neural._run_layers(model, batch, True, caches)
    ref_gains, ref_caches = reference_forward_cached(model, batch, True)
    assert np.array_equal(gains, ref_gains)
    assert np.array_equal(neural.forward(model, batch, mode="train"), ref_gains)
    for c, ref in zip(caches, ref_caches, strict=True):
        assert set(c) == set(ref) - {"z"}
        for key in c:
            assert np.array_equal(c[key], ref[key]), key

    res = neural.backward(model, batch, clean, noisy, objective)
    ref = reference_backward(model, batch, clean, noisy, objective)
    assert res.loss_sum == ref.loss_sum
    assert res.n_degenerate == ref.n_degenerate
    for g, rg in zip(res.grads, ref.grads, strict=True):
        for field in ("d_weights", "d_bias", "d_gamma", "d_beta"):
            a, r = getattr(g, field), getattr(rg, field)
            assert (a is None) == (r is None), field
            assert a is None or np.array_equal(a, r), field
    for (mu, var), (rmu, rvar) in zip(res.batch_stats, ref.batch_stats, strict=True):
        assert np.array_equal(mu, rmu) and np.array_equal(var, rvar)
    after = [a for layer in model.layers for a in layer.params()] + [batch]
    assert all(np.array_equal(x, y) for x, y in zip(before, after))


if __name__ == "__main__":
    print(json.dumps(golden_digests()))
