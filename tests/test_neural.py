"""Network init, forward/backward, the SGD loop, and model files."""

import time
import warnings

import numpy as np
import pytest

from envgain import neural
from envgain.neural import (
    ArrayDataset,
    LrSchedule,
    ModelFormatError,
    NumericError,
    TrainConfig,
    backward,
    forward,
    init_model,
    load_model,
    save_model,
    train,
)
from envgain.verification import check_network_gradients


def zeroed_model(dims):
    model = init_model(dims, seed=0)
    for layer in model.layers:
        layer.weights[:] = 0.0
        layer.bias[:] = 0.0
    return model


def toy_identity_gain_data(n=500, dim=8, seed=0):
    """Clean equals noisy, so the ideal gain is 1 everywhere."""
    rng = np.random.default_rng(seed)
    noisy = rng.uniform(0.5, 1.5, (n, dim))
    feats = np.log1p(noisy)
    feats = (feats - feats.mean(axis=0)) / np.maximum(feats.std(axis=0), 1e-8)
    return ArrayDataset(feats, noisy.copy(), noisy)


class TestInit:
    def test_seed_determinism(self):
        a = init_model([450, 512, 512, 512, 30], seed=5)
        b = init_model([450, 512, 512, 512, 30], seed=5)
        c = init_model([450, 512, 512, 512, 30], seed=6)
        assert a.param_bytes() == b.param_bytes()
        assert a.param_bytes() != c.param_bytes()

    def test_relu_layer_variance(self):
        model = init_model([512, 512, 30], seed=1)
        var = model.layers[0].weights.var()
        assert abs(var - 2.0 / 512) < 0.2 * (2.0 / 512)

    def test_biases_zero_and_bn_identity(self):
        model = init_model([10, 20, 5], seed=2)
        for layer in model.layers:
            assert np.all(layer.bias == 0.0)
        bn = model.layers[0].batch_norm
        assert np.all(bn.gamma == 1.0) and np.all(bn.beta == 0.0)
        assert np.all(bn.running_mean == 0.0) and np.all(bn.running_var == 1.0)

    def test_topology(self):
        model = init_model([450, 512, 512, 512, 30], seed=0)
        assert model.input_dim == 450 and model.output_dim == 30
        acts = [la.activation for la in model.layers]
        assert acts == ["relu", "relu", "relu", "sigmoid"]
        assert model.layers[-1].batch_norm is None


class TestForward:
    def test_zero_weights_give_half(self):
        model = zeroed_model([6, 4, 4, 3])
        out = forward(model, np.random.default_rng(0).standard_normal((5, 6)))
        assert np.allclose(out, 0.5)
        out_train = forward(model, np.zeros((3, 6)), mode="train")
        assert np.allclose(out_train, 0.5)

    def test_identical_rows_identical_outputs(self):
        model = init_model([6, 8, 3], seed=3)
        row = np.random.default_rng(1).standard_normal(6)
        out = forward(model, np.tile(row, (4, 1)), mode="infer")
        assert np.all(out == out[0])

    def test_outputs_in_open_unit_interval(self):
        rng = np.random.default_rng(4)
        count = 0
        for trial in range(10):
            model = init_model([12, 16, 16, 5], seed=trial)
            out = forward(model, rng.standard_normal((10_000, 12)))
            assert np.all((out > 0.0) & (out < 1.0))
            count += out.size
        assert count >= 100_000

    def test_infer_independent_of_batch_composition(self):
        # row 0's output must not depend on the other rows' values (exact at
        # fixed batch shape); across batch shapes BLAS kernels may round
        # differently, so compare at tolerance there
        model = init_model([6, 8, 3], seed=5)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((7, 6))
        a = forward(model, x, mode="infer")
        x_other = x.copy()
        x_other[1:] = rng.standard_normal((6, 6))
        b = forward(model, x_other, mode="infer")
        assert np.array_equal(a[0], b[0])
        single = forward(model, x[0:1], mode="infer")
        assert np.allclose(a[0], single[0], rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize(
        "dims, batch_norm",
        [([12, 9, 7, 5], True), ([12, 5], True), ([12, 9, 7, 5], False)],
        ids=["relu-bn", "sigmoid-only", "no-bn"],
    )
    def test_infer_matches_cached_forward(self, dims, batch_norm):
        rng = np.random.default_rng(len(dims))
        model = init_model(dims, seed=4)
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
        batch = rng.normal(0.0, 2.0, (37, dims[0]))
        before = batch.copy()
        out = forward(model, batch, mode="infer")
        # the loop that fills backprop caches gives the same bits
        assert np.array_equal(out, neural._run_layers(model, batch, False, []))
        if all(layer.batch_norm is None for layer in model.layers):
            # nothing depends on batch statistics, so the training loop agrees
            assert np.array_equal(out, neural._run_layers(model, batch, True, []))
        assert np.array_equal(batch, before)

    @pytest.mark.parametrize("mode", ["infer", "train"])
    def test_saturated_sigmoid_is_exactly_zero_without_a_warning(self, mode):
        # exp(1000) overflows to inf, and the gain 1/(1 + inf) is exactly 0
        model = zeroed_model([6, 4, 3])
        model.layers[-1].bias[:] = [-1000.0, 0.0, 1000.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = forward(model, np.ones((2, 6)), mode=mode)
        assert np.array_equal(out, np.tile([0.0, 0.5, 1.0], (2, 1)))

    def test_dimension_mismatch(self):
        model = init_model([6, 8, 3], seed=0)
        with pytest.raises(ValueError):
            forward(model, np.zeros((2, 7)))


class TestBackward:
    def test_full_gradient_check(self):
        result = check_network_gradients()
        assert result.passed, result.detail

    def test_emse_zero_loss_gradient_at_target(self):
        # model outputs 0.5 exactly; with clean = 0.5 * noisy the estimate
        # matches the target, so every parameter gradient vanishes
        model = zeroed_model([6, 4, 4, 3])
        rng = np.random.default_rng(6)
        noisy = rng.uniform(0.5, 2.0, (4, 3))
        res = backward(model, rng.standard_normal((4, 6)), 0.5 * noisy, noisy, "emse")
        assert res.loss_sum == pytest.approx(0.0, abs=1e-20)
        for g in res.grads:
            assert np.all(g.d_weights == 0.0) and np.all(g.d_bias == 0.0)

    def test_batch_gradients_sum_over_samples(self):
        # duplicating a sample doubles its contribution (without batch norm
        # the training step keeps the samples independent)
        model = init_model([6, 4, 3], seed=7)
        model.layers[0].batch_norm = None
        rng = np.random.default_rng(8)
        x = rng.standard_normal((1, 6))
        noisy = rng.uniform(0.5, 2.0, (1, 3))
        clean = noisy * 0.3
        single = backward(model, x, clean, noisy, "emse")
        double = backward(
            model, np.vstack([x, x]), np.vstack([clean, clean]), np.vstack([noisy, noisy]), "emse"
        )
        assert double.loss_sum == pytest.approx(2 * single.loss_sum)
        for gs, gd in zip(single.grads, double.grads):
            assert np.allclose(gd.d_weights, 2 * gs.d_weights, rtol=1e-12, atol=1e-18)

    def test_degenerate_samples_counted_and_skipped(self):
        model = init_model([6, 4, 3], seed=9)
        x = np.zeros((2, 6))
        noisy = np.vstack([np.zeros(3), np.array([1.0, 2.0, 3.0])])
        clean = np.vstack([np.zeros(3), np.array([0.5, 1.0, 1.5])])
        res = backward(model, x, clean, noisy, "elc")
        assert res.n_degenerate == 1

    def test_joint_targets_shape(self):
        model = init_model([8, 6, 6], seed=10)  # 2 bands x 3 frames
        rng = np.random.default_rng(11)
        noisy = rng.uniform(0.5, 1.5, (4, 2, 3))
        clean = noisy * rng.uniform(0.2, 1.0, (4, 2, 3))
        res = backward(model, rng.standard_normal((4, 8)), clean, noisy, "elc")
        assert np.isfinite(res.loss_sum)


class TestLrSchedule:
    def test_paper_sequence_decays_once(self):
        sched = LrSchedule(lr=0.01, decay=0.7, floor=1e-10)
        lrs, decays = [], []
        for val in [5.0, 4.0, 6.0, 3.0]:
            decays.append(sched.observe(val))
            lrs.append(sched.lr)
        assert decays == [False, False, True, False]
        assert lrs == pytest.approx([0.01, 0.01, 0.007, 0.007])

    def test_floor_reached_after_enough_decays(self):
        sched = LrSchedule(lr=1e-9, decay=0.7, floor=1e-10)
        sched.observe(1.0)
        n = 0
        while not sched.below_floor:
            sched.observe(2.0 + n)  # strictly increasing costs decay every time
            n += 1
        assert n == 7  # 1e-9 * 0.7^7 < 1e-10

    def test_equal_cost_does_not_decay(self):
        sched = LrSchedule(lr=0.1)
        sched.observe(1.0)
        assert sched.observe(1.0) is False


class TestTrain:
    def test_zero_epochs_returns_initial_model(self):
        data = toy_identity_gain_data(50)
        model = init_model([8, 6, 8], seed=12)
        before = model.param_bytes()
        out, report = train(model, data, data, TrainConfig(objective="emse", max_epochs=0))
        assert out.param_bytes() == before
        assert out is not model
        assert all(not np.shares_memory(a, b) for la, lb in zip(out.layers, model.layers)
                   for a, b in zip(la.params(), lb.params()))
        assert report.epochs == []
        assert report.stop_reason == "max_epochs"

    def test_lr_below_floor_halts_immediately(self):
        data = toy_identity_gain_data(50)
        model = init_model([8, 6, 8], seed=13)
        before = model.param_bytes()
        config = TrainConfig(objective="emse", initial_lr_per_sample=1e-11, max_epochs=10)
        out, report = train(model, data, data, config)
        assert report.stop_reason == "lr_floor"
        assert report.epochs == []
        assert out is not model and out.param_bytes() == before

    def test_conflicting_validation_forces_decay_to_floor(self):
        # validation target is the opposite of the training target, so the
        # validation cost rises every epoch and the lr decays to the floor
        feats = np.array([[1.0, -1.0]])
        noisy = np.ones((1, 2))
        tdata = ArrayDataset(feats, np.ones((1, 2)), noisy)  # wants gain 1
        vdata = ArrayDataset(feats, np.zeros((1, 2)), noisy)  # wants gain 0
        model = init_model([2, 4, 2], seed=14)
        config = TrainConfig(
            objective="emse", initial_lr_per_sample=0.5, lr_floor=0.2, minibatch=1, max_epochs=50
        )
        _, report = train(model, tdata, vdata, config)
        assert report.stop_reason == "lr_floor"
        assert 0 < len(report.epochs) < 50

    def test_toy_convergence_learning_identity_gain(self):
        data = toy_identity_gain_data(500)
        model = init_model([8, 16, 16, 8], seed=15)
        config = TrainConfig(
            objective="emse", initial_lr_per_sample=2e-3, max_epochs=50, minibatch=64, seed=15
        )
        _, report = train(model, data, data, config)
        first = report.epochs[0].train_cost
        last = report.epochs[-1].train_cost
        assert last < 0.1 * first

    def test_determinism(self):
        data = toy_identity_gain_data(200)
        config = TrainConfig(objective="elc", max_epochs=3, minibatch=32, seed=16)
        out_a, _ = train(init_model([8, 8, 8], seed=16), data, data, config)
        out_b, _ = train(init_model([8, 8, 8], seed=16), data, data, config)
        assert out_a.param_bytes() == out_b.param_bytes()

    def test_epoch_phase_times(self):
        data = toy_identity_gain_data(200)
        config = TrainConfig(objective="emse", max_epochs=3, minibatch=32, seed=16)
        started = time.perf_counter()
        _, report = train(init_model([8, 8, 8], seed=16), data, data, config)
        wall = time.perf_counter() - started
        assert len(report.epochs) == 3
        assert all(e.train_s > 0.0 and e.validation_s > 0.0 for e in report.epochs)
        assert sum(e.train_s + e.validation_s for e in report.epochs) <= wall

    def test_lr_monotone_nonincreasing(self):
        data = toy_identity_gain_data(200, seed=1)
        config = TrainConfig(objective="emse", max_epochs=20, minibatch=64, seed=17)
        _, report = train(init_model([8, 8, 8], seed=17), data, data, config)
        lrs = [e.lr for e in report.epochs]
        assert all(b <= a for a, b in zip(lrs, lrs[1:]))

    def test_returns_best_validation_model(self):
        data = toy_identity_gain_data(300, seed=2)
        config = TrainConfig(objective="emse", initial_lr_per_sample=2e-3, max_epochs=10, seed=18)
        model, report = train(init_model([8, 8, 8], seed=18), data, data, config)
        best = min(e.validation_cost for e in report.epochs)
        final = neural.evaluate_cost(model, data, "emse")
        assert final == pytest.approx(best, abs=1e-12)

    def test_non_finite_loss_raises(self):
        feats = np.full((4, 8), np.nan)
        data = ArrayDataset(feats, np.ones((4, 3)), np.ones((4, 3)))
        with pytest.raises(NumericError):
            train(init_model([8, 4, 3], seed=19), data, data, TrainConfig(objective="emse"))

    def test_diverged_elc_training_raises(self):
        # ELC scores a NaN window as degenerate, with value 0: the costs stay
        # finite, so only the parameters or the network output show the divergence
        data = toy_identity_gain_data(200, seed=3)
        config = TrainConfig(objective="elc", initial_lr_per_sample=1e300, max_epochs=2, seed=19)
        with pytest.raises(NumericError, match="non-finite (parameters|network output)"):
            train(init_model([8, 8, 8], seed=19), data, data, config)


class TestModelFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        model = init_model([6, 4, 4, 3], seed=20)
        # make running stats non-trivial so they round-trip too
        model.layers[0].batch_norm.running_mean[:] = [0.1, -0.2, 0.3, 0.4]
        path = tmp_path / "m.mdl"
        save_model(model, path, "elc")
        loaded, objective = load_model(path)
        assert objective == "elc"
        assert loaded.param_bytes() == model.param_bytes()
        acts = [la.activation for la in loaded.layers]
        assert acts == [la.activation for la in model.layers]

    def test_corrupted_magic_rejected(self, tmp_path):
        model = init_model([4, 3, 2], seed=21)
        path = tmp_path / "m.mdl"
        save_model(model, path, "emse")
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_truncated_rejected(self, tmp_path):
        model = init_model([4, 3, 2], seed=22)
        path = tmp_path / "m.mdl"
        save_model(model, path, "emse")
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_wrong_output_dim_rejected(self, tmp_path):
        model = init_model([4, 3, 2], seed=23)
        path = tmp_path / "m.mdl"
        save_model(model, path, "elc")
        with pytest.raises(ModelFormatError):
            load_model(path, expected_output_dim=30)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_parameters_rejected(self, tmp_path, value):
        model = init_model([4, 3, 2], seed=24)
        model.layers[1].weights[0, 1] = value
        save_model(model, tmp_path / "m.mdl", "elc")
        with pytest.raises(ModelFormatError, match="non-finite"):
            load_model(tmp_path / "m.mdl")

    @pytest.mark.parametrize("n_layers", [0, 2])
    def test_bad_layer_table_rejected(self, tmp_path, n_layers):
        model = init_model([4, 3, 2], seed=25)
        model.layers[1].weights = np.zeros((2, 5))  # takes 5 inputs after 3 outputs
        save_model(neural.MlpModel(model.layers[:n_layers]), tmp_path / "m.mdl", "elc")
        with pytest.raises(ModelFormatError, match="layer"):
            load_model(tmp_path / "m.mdl", expected_input_dim=4)
