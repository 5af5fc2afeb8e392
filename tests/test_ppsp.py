import json
import zipfile
from dataclasses import asdict

import numpy as np
import pytest

from magrev.detector import TrainingSample, train
from magrev.ppsp import (
    AdamState,
    PpspConfig,
    PpspWeights,
    TrainingDivergedError,
    _forward,
    _maxpool,
    avgpool_backward,
    avgpool_forward,
    batchnorm_backward,
    batchnorm_forward_eval,
    batchnorm_forward_train,
    conv1d_backward,
    conv1d_forward,
    dice_loss,
    dice_loss_grad,
    init_weights,
    loss_and_grads,
    maxpool_backward,
    maxpool_forward,
    ppsp_forward,
    relu_backward,
    relu_forward,
    resize_backward,
    resize_forward,
    sigmoid_backward,
    sigmoid_forward,
    update_running_stats,
)


def small_config(**overrides):
    base = dict(
        input_bins=32,
        encoder_levels=2,
        filters_per_conv=4,
        multiscale_kernel_widths=(3, 7),
        pyramid_pool_kernels=(1, 2, 4),
        seed=1,
    )
    base.update(overrides)
    return PpspConfig(**base)


def central_diff(f, x, h=1e-6):
    """Gradient of scalar f at x by central differences, one coordinate at
    a time."""
    g = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        hi = f()
        x[idx] = orig - h
        lo = f()
        x[idx] = orig
        g[idx] = (hi - lo) / (2 * h)
        it.iternext()
    return g


def rel_err(a, b):
    denom = np.maximum(1e-10, np.abs(a) + np.abs(b))
    return float(np.max(np.abs(a - b) / denom))


class TestConv:
    def test_hand_computed_case(self):
        # one batch, one input channel, length 4, kernel 3, same padding
        x = np.array([[[1.0, 2.0, 3.0, 4.0]]])
        w = np.array([[[1.0, 0.0, -1.0]]])
        b = np.array([0.5])
        out = conv1d_forward(x, w, b)
        # out[l] = x[l-1] - x[l+1] + 0.5 with zero padding
        np.testing.assert_allclose(out[0, 0], [-1.5, -1.5, -1.5, 3.5])

    def test_output_shape(self):
        x = np.zeros((2, 3, 16))
        w = np.zeros((5, 3, 7))
        b = np.zeros(5)
        assert conv1d_forward(x, w, b).shape == (2, 5, 16)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 8))
        w = rng.normal(size=(4, 3, 3))
        b = rng.normal(size=4)
        proj = rng.normal(size=(2, 4, 8))

        def loss():
            return float((conv1d_forward(x, w, b) * proj).sum())

        dx, dw, db = conv1d_backward(proj, x, w)
        assert rel_err(dx, central_diff(loss, x)) < 1e-7
        assert rel_err(dw, central_diff(loss, w)) < 1e-7
        assert rel_err(db, central_diff(loss, b)) < 1e-7


class TestPooling:
    def test_maxpool_values_and_indices(self):
        x = np.array([[[1.0, 5.0, 2.0, 2.0, 9.0, 0.0]]])
        out, idx = maxpool_forward(x, 2)
        np.testing.assert_array_equal(out[0, 0], [5.0, 2.0, 9.0])
        np.testing.assert_array_equal(idx[0, 0], [1, 0, 0])  # ties take first

    def test_maxpool_backward_scatters_to_argmax(self):
        x = np.array([[[1.0, 5.0, 2.0, 2.0, 9.0, 0.0]]])
        _, idx = maxpool_forward(x, 2)
        dy = np.array([[[1.0, 2.0, 3.0]]])
        dx = maxpool_backward(dy, idx, 2)
        np.testing.assert_array_equal(dx[0, 0], [0.0, 1.0, 2.0, 0.0, 3.0, 0.0])

    def test_maxpool_gradcheck(self):
        rng = np.random.default_rng(1)
        # well-separated values keep the argmax stable under the probe
        x = rng.permutation(np.arange(32, dtype=np.float64)).reshape(1, 2, 16)
        proj = rng.normal(size=(1, 2, 8))

        def loss():
            return float((maxpool_forward(x, 2)[0] * proj).sum())

        _, idx = maxpool_forward(x, 2)
        dx = maxpool_backward(proj, idx, 2)
        assert rel_err(dx, central_diff(loss, x)) < 1e-7

    def test_maxpool_rejects_ragged_length(self):
        with pytest.raises(ValueError):
            maxpool_forward(np.zeros((1, 1, 7)), 2)
        with pytest.raises(ValueError):
            _maxpool(np.zeros((1, 1, 7)), 2)

    @pytest.mark.parametrize("kernel", [2, 3])
    def test_maxpool_without_indices_is_bit_equal(self, kernel):
        # a few negative and positive levels, so most windows hold ties
        rng = np.random.default_rng(kernel)
        x = rng.choice([-2.0, -0.5, 0.25, 1.0], size=(3, 4, 12 * kernel))
        out, idx = maxpool_forward(x, kernel)
        at_idx = np.take_along_axis(
            x.reshape(3, 4, 12, kernel), idx[..., None], axis=3
        )[..., 0]
        fast = _maxpool(x, kernel)
        assert fast.tobytes() == out.tobytes() == at_idx.tobytes()
        np.testing.assert_array_equal(fast, x.reshape(3, 4, 12, kernel).max(axis=3))

    def test_avgpool_roundtrip_gradcheck(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 3, 12))
        proj = rng.normal(size=(2, 3, 4))

        def loss():
            return float((avgpool_forward(x, 4) * proj).sum())

        dx = avgpool_backward(proj, 12)
        assert rel_err(dx, central_diff(loss, x)) < 1e-7

    def test_avgpool_mean_semantics(self):
        x = np.arange(8.0).reshape(1, 1, 8)
        out = avgpool_forward(x, 2)
        np.testing.assert_allclose(out[0, 0], [1.5, 5.5])


class TestResize:
    def test_doubling_keeps_endpoints_close(self):
        x = np.array([[[0.0, 1.0, 2.0, 3.0]]])
        out = resize_forward(x, 8)
        assert out.shape == (1, 1, 8)
        # half-pixel-centered linear interpolation clamps at the edges
        assert out[0, 0, 0] == pytest.approx(0.0)
        assert out[0, 0, -1] == pytest.approx(3.0)
        assert np.all(np.diff(out[0, 0]) >= 0.0)

    def test_upsample_from_singleton_broadcasts(self):
        x = np.array([[[7.0]]])
        np.testing.assert_array_equal(resize_forward(x, 5)[0, 0], np.full(5, 7.0))

    def test_gradcheck(self):
        rng = np.random.default_rng(3)
        for l_in, l_out in [(4, 8), (8, 4), (3, 10), (1, 6)]:
            x = rng.normal(size=(2, 2, l_in))
            proj = rng.normal(size=(2, 2, l_out))

            def loss():
                return float((resize_forward(x, l_out) * proj).sum())

            dx = resize_backward(proj, l_in)
            assert rel_err(dx, central_diff(loss, x)) < 1e-7


class TestBatchNorm:
    def test_train_normalizes(self):
        rng = np.random.default_rng(4)
        x = rng.normal(3.0, 2.0, size=(4, 2, 16))
        gamma = np.ones(2)
        beta = np.zeros(2)
        out, _, mu, var = batchnorm_forward_train(x, gamma, beta, 1e-5)
        assert np.allclose(out.mean(axis=(0, 2)), 0.0, atol=1e-12)
        assert np.allclose(out.var(axis=(0, 2)), 1.0, atol=1e-3)
        np.testing.assert_allclose(mu, x.mean(axis=(0, 2)))
        np.testing.assert_allclose(var, x.var(axis=(0, 2)))  # biased variance

    def test_backward_gradcheck(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 2, 8))
        gamma = rng.uniform(0.5, 1.5, size=2)
        beta = rng.normal(size=2)
        proj = rng.normal(size=(3, 2, 8))

        def loss():
            out, _, _, _ = batchnorm_forward_train(x, gamma, beta, 1e-5)
            return float((out * proj).sum())

        _, cache, _, _ = batchnorm_forward_train(x, gamma, beta, 1e-5)
        dx, dgamma, dbeta = batchnorm_backward(proj, cache)
        assert rel_err(dx, central_diff(loss, x)) < 1e-6
        assert rel_err(dgamma, central_diff(loss, gamma)) < 1e-6
        assert rel_err(dbeta, central_diff(loss, beta)) < 1e-6

    def test_eval_uses_running_stats(self):
        x = np.ones((1, 1, 4)) * 10.0
        out = batchnorm_forward_eval(
            x, np.ones(1), np.zeros(1), np.array([10.0]), np.array([4.0]), 0.0
        )
        np.testing.assert_allclose(out, 0.0, atol=1e-12)


class TestActivationsAndLoss:
    def test_relu(self):
        x = np.array([-1.0, 0.0, 2.0])
        np.testing.assert_array_equal(relu_forward(x), [0.0, 0.0, 2.0])
        np.testing.assert_array_equal(
            relu_backward(np.ones(3), x), [0.0, 0.0, 1.0]
        )

    def test_sigmoid_stable_at_extremes(self):
        x = np.array([-1000.0, 0.0, 1000.0])
        out = sigmoid_forward(x)
        np.testing.assert_allclose(out, [0.0, 0.5, 1.0], atol=1e-12)
        assert np.all(np.isfinite(sigmoid_backward(np.ones(3), out)))

    def test_sigmoid_gradcheck(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(8,))
        proj = rng.normal(size=(8,))

        def loss():
            return float((sigmoid_forward(x) * proj).sum())

        dx = sigmoid_backward(proj, sigmoid_forward(x))
        assert rel_err(dx, central_diff(loss, x)) < 1e-8

    def test_dice_perfect_and_disjoint(self):
        y = np.array([1.0, 0.0, 1.0, 0.0])
        assert dice_loss(y, y, eps=0.0) == pytest.approx(0.0)
        assert dice_loss(1.0 - y, y, eps=0.0) == pytest.approx(1.0)

    def test_dice_hand_value(self):
        p = np.array([0.5, 0.5, 0.0, 0.0])
        y = np.array([1.0, 0.0, 0.0, 0.0])
        # top = 2*0.5 + 1, bottom = 1 + 1 + 1
        assert dice_loss(p, y, eps=1.0) == pytest.approx(1.0 - 2.0 / 3.0)

    def test_dice_grad_matches_finite_differences_tightly(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            p = rng.uniform(0.05, 0.95, size=4)
            y = (rng.uniform(size=4) > 0.5).astype(np.float64)
            g = dice_loss_grad(p, y, eps=1.0)
            fd = central_diff(lambda: dice_loss(p, y, eps=1.0), p, h=1e-6)
            assert rel_err(g, fd) < 1e-8

    def test_dice_validation(self):
        with pytest.raises(ValueError):
            dice_loss(np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError):
            dice_loss(np.zeros(3), np.zeros(3), eps=-1.0)
        with pytest.raises(ValueError):
            dice_loss(np.zeros(3), np.zeros(3), eps=0.0)


class TestConfig:
    def test_defaults_describe_full_size_network(self):
        cfg = PpspConfig()
        assert cfg.input_bins == 1024
        assert cfg.encoder_levels == 9
        assert cfg.filters_per_conv == 64

    def test_pool_divisibility_enforced(self):
        with pytest.raises(ValueError):
            small_config(input_bins=24, encoder_levels=4)

    def test_kernel_widths_must_be_odd(self):
        with pytest.raises(ValueError):
            small_config(multiscale_kernel_widths=(3, 4))

    def test_pyramid_kernels_must_divide(self):
        with pytest.raises(ValueError):
            small_config(pyramid_pool_kernels=(1, 3))

    def test_dict_roundtrip(self):
        cfg = small_config()
        assert PpspConfig(**json.loads(json.dumps(asdict(cfg)))) == cfg


class TestWeights:
    def test_init_deterministic(self):
        a = init_weights(small_config())
        b = init_weights(small_config())
        assert sorted(a.params) == sorted(b.params)
        for key in a.params:
            np.testing.assert_array_equal(a.params[key], b.params[key])

    def test_different_seed_differs(self):
        a = init_weights(small_config(seed=1))
        b = init_weights(small_config(seed=2))
        assert any(
            not np.array_equal(a.params[k], b.params[k]) for k in a.params
        )

    def test_biases_start_at_zero(self):
        w = init_weights(small_config())
        for key, value in w.params.items():
            if key.endswith(".bias") or key.endswith(".beta"):
                assert np.all(value == 0.0)

    def test_save_load_roundtrip(self, tmp_path):
        w = init_weights(small_config())
        path = tmp_path / "net.ppsp"
        w.save(path)
        back = PpspWeights.load(path)
        assert back.config == w.config
        for key in w.params:
            np.testing.assert_array_equal(back.params[key], w.params[key])
        for key in w.bn_state:
            np.testing.assert_array_equal(back.bn_state[key], w.bn_state[key])

    def test_unknown_manifest_key_names_file(self, tmp_path):
        path = tmp_path / "net.ppsp"
        init_weights(small_config()).save(path)
        with zipfile.ZipFile(path) as zf:
            entries = {name: zf.read(name) for name in zf.namelist()}
        manifest = json.loads(entries["manifest.json"])
        manifest["config"]["dropout"] = 0.1
        entries["manifest.json"] = json.dumps(manifest).encode()
        with zipfile.ZipFile(path, "w") as zf:
            for name, data in entries.items():
                zf.writestr(name, data)
        with pytest.raises(ValueError, match=r"net\.ppsp.*dropout"):
            PpspWeights.load(path)

    def test_copy_is_deep(self):
        w = init_weights(small_config())
        c = w.copy()
        first = next(iter(c.params))
        c.params[first] += 1.0
        assert not np.array_equal(c.params[first], w.params[first])


class TestForward:
    def test_output_shape_and_range(self):
        w = init_weights(small_config())
        rng = np.random.default_rng(0)
        out = ppsp_forward(rng.uniform(size=32), w)
        assert out.shape == (32,)
        assert np.all((out > 0.0) & (out < 1.0))

    def test_batch_matches_single(self):
        w = init_weights(small_config())
        rng = np.random.default_rng(1)
        batch = rng.uniform(size=(3, 32))
        joint = ppsp_forward(batch, w)
        for i in range(3):
            np.testing.assert_allclose(
                joint[i], ppsp_forward(batch[i], w), rtol=1e-12, atol=1e-12
            )

    def test_wrong_length_rejected(self):
        w = init_weights(small_config())
        with pytest.raises(ValueError):
            ppsp_forward(np.zeros(31), w)

    def test_inference_keeps_no_saves(self):
        # only a training pass keeps intermediates for the backward pass
        w = init_weights(small_config())
        x = np.random.default_rng(2).uniform(size=(2, 1, 32))
        probs, saves, stats = _forward(x, w, train=False)
        assert saves == {} and stats is None
        np.testing.assert_array_equal(probs[:, 0, :], ppsp_forward(x[:, 0, :], w))
        _, train_saves, _ = _forward(x, w, train=True)
        assert "enc0.proj" in train_saves and "dec0.cat" in train_saves


def perturbed(config):
    """Initial weights with non-zero biases, so that folded biases count."""
    weights = init_weights(config)
    rng = np.random.default_rng(11)
    for name, value in weights.params.items():
        if name.endswith(".bias"):
            weights.params[name] = rng.normal(scale=0.1, size=value.shape)
    return weights


class TestInferenceFold:
    def test_fold_is_built_once_per_set_of_weights(self):
        w = perturbed(small_config())
        x = np.random.default_rng(0).uniform(size=(2, 32))
        first = ppsp_forward(x, w)
        folds = {level: stored[1] for level, stored in w._folds.items()}
        assert sorted(folds) == [0, 1]
        np.testing.assert_array_equal(ppsp_forward(x, w), first)
        assert all(w._folds[level][1] is fold for level, fold in folds.items())

    def test_replaced_array_refolds(self):
        w = perturbed(small_config())
        x = np.random.default_rng(1).uniform(size=(2, 32))
        before = ppsp_forward(x, w)
        name = "enc0.branch3.weight"
        w.params[name] = w.params[name] * -1.5
        after = ppsp_forward(x, w)
        fresh = PpspWeights(config=w.config, params=dict(w.params), bn_state=dict(w.bn_state))
        assert after.tobytes() == ppsp_forward(x, fresh).tobytes()
        assert not np.array_equal(after, before)

    def test_in_place_edit_of_folded_array_raises(self):
        w = perturbed(small_config())
        ppsp_forward(np.zeros(32), w)
        for name in ("enc0.branch7.weight", "enc1.project.bias"):
            with pytest.raises(ValueError, match="read-only"):
                w.params[name][0] += 1.0
        # arrays that are not folded stay writeable
        w.params["head.conv.bias"][0] += 1.0

    def test_copy_is_writeable_and_has_no_folds(self):
        w = perturbed(small_config())
        x = np.random.default_rng(2).uniform(size=32)
        out = ppsp_forward(x, w)
        c = w.copy()
        assert c._folds == {}
        assert all(arr.flags.writeable for arr in c.params.values())
        np.testing.assert_array_equal(ppsp_forward(x, c), out)

    def test_save_writes_the_same_bytes_after_inference(self, tmp_path):
        w = perturbed(small_config())
        w.save(tmp_path / "before.ppsp")
        ppsp_forward(np.zeros(32), w)
        w.save(tmp_path / "after.ppsp")
        assert (tmp_path / "before.ppsp").read_bytes() == (tmp_path / "after.ppsp").read_bytes()
        assert PpspWeights.load(tmp_path / "after.ppsp")._folds == {}

    def test_training_from_weights_that_ran_inference(self):
        cfg = small_config()
        rng = np.random.default_rng(3)
        samples = [
            TrainingSample(
                features=rng.uniform(size=32),
                mask=(rng.uniform(size=32) > 0.8).astype(np.float64),
                bin_frequencies=np.arange(32.0),
                fundamental_hz=5.0,
            )
            for _ in range(2)
        ]
        w = perturbed(cfg)
        x = np.stack([s.features for s in samples])
        out = ppsp_forward(x, w)
        tuned, history = train(samples, cfg, epochs=2, batch_size=2, weights=w)
        assert len(history) == 2 and all(np.isfinite(history))
        reference, _ = train(samples, cfg, epochs=2, batch_size=2, weights=perturbed(cfg))
        for key in tuned.params:
            np.testing.assert_array_equal(tuned.params[key], reference.params[key])
        np.testing.assert_array_equal(ppsp_forward(x, w), out)
        assert not np.array_equal(ppsp_forward(x, tuned), out)


def worst_sampled_fd_error(x, y, weights, h=1e-5):
    """Largest relative gap between loss_and_grads and central differences
    of the loss, over up to five coordinates of every parameter tensor."""
    _, grads, _ = loss_and_grads(x, y, weights)
    worst = 0.0
    for key, tensor in weights.params.items():
        flat = tensor.reshape(-1)
        picks = np.linspace(0, flat.size - 1, min(5, flat.size)).astype(int)
        for j in picks:
            orig = flat[j]
            flat[j] = orig + h
            hi, _, _ = loss_and_grads(x, y, weights)
            flat[j] = orig - h
            lo, _, _ = loss_and_grads(x, y, weights)
            flat[j] = orig
            fd = (hi - lo) / (2 * h)
            an = grads[key].reshape(-1)[j]
            worst = max(worst, abs(fd - an) / max(1e-10, abs(fd) + abs(an)))
    return worst


def folded_levels(config, batch):
    """Which encoder levels a training forward pass folds, read from what it
    saves for the backward pass: a folded level keeps its folded kernel."""
    x = np.zeros((batch, 1, config.input_bins))
    _, saves, _ = _forward(x, init_weights(config), train=True)
    return [f"enc{level}.fold" in saves for level in range(config.encoder_levels)]


# three encoder levels of 8 filters, the deepest on 8 bins
THREE_LEVEL_NET = small_config(
    encoder_levels=3, filters_per_conv=8, multiscale_kernel_widths=(3, 5, 7), seed=2
)


class TestFullGradient:
    def test_network_gradients_match_finite_differences(self):
        # frozen probe: smooth region for this seed pair, verified coordinate
        # by coordinate (the acceptance suite covers every coordinate; this
        # spot-checks a sample per parameter tensor)
        cfg = small_config()
        weights = init_weights(cfg)
        rng = np.random.default_rng(1)
        x = rng.uniform(0.0, 1.0, size=(2, 32))
        y = (rng.uniform(size=(2, 32)) > 0.8).astype(np.float64)
        assert folded_levels(cfg, 2) == [True, True]
        assert worst_sampled_fd_error(x, y, weights) < 1e-4

    def test_gradients_through_three_folded_levels_at_batch_1(self):
        weights = init_weights(THREE_LEVEL_NET)
        rng = np.random.default_rng(4)
        for name, value in weights.params.items():
            if name.endswith(".bias"):
                weights.params[name] = rng.normal(scale=0.1, size=value.shape)
        x = rng.uniform(0.0, 1.0, size=(1, 32))
        y = (rng.uniform(size=(1, 32)) > 0.8).astype(np.float64)
        assert folded_levels(THREE_LEVEL_NET, 1) == [True] * 3
        assert worst_sampled_fd_error(x, y, weights) < 1e-4

    @pytest.mark.parametrize("batch", [1, 8])
    def test_full_size_training_folds_every_level(self, batch):
        assert folded_levels(PpspConfig(), batch) == [True] * 9

    def test_training_is_bit_deterministic_with_folded_levels(self):
        rng = np.random.default_rng(8)
        freqs = np.arange(32.0)
        samples = [
            TrainingSample(
                features=rng.uniform(size=32),
                mask=(rng.uniform(size=32) > 0.8).astype(np.float64),
                bin_frequencies=freqs,
                fundamental_hz=5.0,
            )
            for _ in range(3)
        ]
        # batches of 2, then a last batch of 1
        runs = [
            train(samples, THREE_LEVEL_NET, epochs=3, batch_size=2, learning_rate=1e-2)
            for _ in range(2)
        ]
        (w1, h1), (w2, h2) = runs
        assert h1 == h2
        for key in w1.params:
            np.testing.assert_array_equal(w1.params[key], w2.params[key])
        for key in w1.bn_state:
            np.testing.assert_array_equal(w1.bn_state[key], w2.bn_state[key])


class TestOptimizerAndStats:
    def test_adam_single_step_oracle(self):
        params = {"w": np.array([1.0, -2.0])}
        grads = {"w": np.array([0.5, -1.5])}
        state = AdamState(params)
        state.step(params, grads, lr=0.1)
        # with zero-initialized moments the bias-corrected first step moves
        # each coordinate by lr * sign(grad) (up to eps)
        g = np.array([0.5, -1.5])
        m_hat = 0.1 * g / 0.1
        v_hat = 0.001 * g * g / 0.001
        expected = np.array([1.0, -2.0]) - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
        np.testing.assert_allclose(params["w"], expected, rtol=1e-12)

    def test_running_stats_momentum(self):
        w = init_weights(small_config())
        w.bn_state["head.bn.running_mean"] = np.array([1.0])
        w.bn_state["head.bn.running_var"] = np.array([2.0])
        update_running_stats(w, (np.array([3.0]), np.array([4.0])))
        np.testing.assert_allclose(
            w.bn_state["head.bn.running_mean"], [0.9 * 1.0 + 0.1 * 3.0]
        )
        np.testing.assert_allclose(
            w.bn_state["head.bn.running_var"], [0.9 * 2.0 + 0.1 * 4.0]
        )

    def test_diverged_error_carries_context(self):
        err = TrainingDivergedError(7, float("nan"))
        assert err.epoch == 7
        assert "7" in str(err)
