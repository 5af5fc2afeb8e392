"""The array-based coarse stage, the zoomed fine stage, the multi-motor path,
delay-and-sum and the PPSP inference and training passes against plain
reference implementations, kept here as oracles.

The oracles are the straightforward per-candidate, per-harmonic loops, the
fully zero-padded Welch transform, the bin-by-bin clearing walk, the
full-length lag search with its wrapped products subtracted, the
``np.add.at`` resize gradient and the unfolded network on an ``einsum``
convolution, forward and backward.  The library must match the estimator
and delay-and-sum oracles bit for bit: scores, picks, flags, cleared maps,
lags, aligned sums and the returned frequencies.  The folded network sums
in another order, so its outputs must match their oracle within 1e-12, and
its loss and gradients within 1e-10 of each gradient tensor's largest
magnitude.
"""

import math

import numpy as np
import pytest
from scipy.ndimage import maximum_filter1d

from magrev.detector import DetectionMap, threshold_detector
from magrev.dsp import (
    NoiseReference,
    PowerSpectrum,
    default_segment_len,
    delay_and_sum,
    log_normalize,
    shift_signal,
    welch_psd,
)
from magrev.estimator import (
    HarmonicWeights,
    PipelineConfig,
    _cleared_bins,
    coarse_estimate,
    compute_likelihood,
    default_harmonic_weights,
    estimate_rpm,
    estimate_rpm_multi,
    fine_estimate,
    fit_beta,
)
from magrev.ppsp import (
    PpspConfig,
    _resize_table,
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
)
from magrev.signals import (
    ArrayGeometry,
    CoilParams,
    MotorProfile,
    NoiseProfile,
    simulate_mixture,
)

# ---------------------------------------------------------------------------
# Loop oracles
# ---------------------------------------------------------------------------


def loop_soft(probs, freqs, delta_f):
    r = max(0, int(round(delta_f / (freqs[1] - freqs[0]))))
    if r == 0:
        return probs
    return maximum_filter1d(probs, size=2 * r + 1, mode="constant", cval=0.0)


def loop_multiple_index(freqs, target_hz):
    i = int(round((target_hz - float(freqs[0])) / float(freqs[1] - freqs[0])))
    return i if 0 <= i < freqs.size else None


def loop_features(probs, freqs, f_min, delta_f, m):
    soft = loop_soft(probs, freqs, delta_f)
    idx = np.flatnonzero((freqs >= f_min) & (freqs <= float(freqs[-1]) / 2.0))
    features = np.zeros((idx.size, m))
    for k in range(1, m + 1):
        for j, i in enumerate(idx):
            mi = loop_multiple_index(freqs, k * freqs[i])
            if mi is not None:
                features[j, k - 1] = soft[mi]
    return freqs[idx], features


def loop_scores(probs, freqs, beta, f_min, delta_f):
    soft = loop_soft(probs, freqs, delta_f)
    idx = np.flatnonzero((freqs >= f_min) & (freqs <= float(freqs[-1]) / 2.0))
    scores = np.zeros(idx.size)
    for k in range(1, beta.size + 1):
        for j, i in enumerate(idx):
            mi = loop_multiple_index(freqs, k * freqs[i])
            if mi is not None:
                scores[j] += beta[k - 1] * soft[mi]
    return freqs[idx], scores


def loop_supported(probs, freqs, candidate_hz, delta_f, n_support, threshold):
    r = max(0, int(round(delta_f / (freqs[1] - freqs[0]))))
    binary = probs >= threshold
    top = min(n_support, int(math.floor(float(freqs[-1]) / candidate_hz)))
    for m in range(2, top + 1):
        mi = loop_multiple_index(freqs, m * candidate_hz)
        if mi is not None and binary[max(0, mi - r) : min(freqs.size, mi + r + 1)].any():
            return True
    return False


def loop_coarse(probs, freqs, beta, f_min, delta_f, n_support, threshold):
    """(frequency, score, flags) of the coarse pick."""
    cands, scores = loop_scores(probs, freqs, beta, f_min, delta_f)
    keep = np.array(
        [loop_supported(probs, freqs, float(g), delta_f, n_support, threshold) for g in cands]
    )
    if keep.any():
        best = int(np.argmax(np.where(keep, scores, -np.inf)))
        return float(cands[best]), float(scores[best]), ()
    best = int(np.argmax(scores))
    return float(cands[best]), float(scores[best]), ("fallback", "low_confidence")


def padded_fine(signal, fs, coarse_hz, segment_len, gamma, delta_f):
    spec = welch_psd(signal, fs, segment_len, nfft=segment_len * gamma)
    sel = np.flatnonzero(
        (spec.frequencies >= coarse_hz - delta_f) & (spec.frequencies <= coarse_hz + delta_f)
    )
    return float(spec.frequencies[sel[int(np.argmax(spec.densities[sel]))]])


def loop_clear(probs, freqs, fine, delta_f, threshold):
    """Zero the +/- delta_f window of every multiple of ``fine`` up to the
    band edge plus delta_f, each grown bin by bin over the binarized runs
    that touch its ends."""
    r = max(0, int(round(delta_f / (freqs[1] - freqs[0]))))
    binary = probs >= threshold
    out = probs.copy()
    k = 1
    while k * fine <= float(freqs[-1]) + delta_f:
        mi = loop_multiple_index(freqs, k * fine)
        if mi is not None:
            lo, hi = max(0, mi - r), min(freqs.size, mi + r + 1)
            while lo > 0 and binary[lo - 1]:
                lo -= 1
            while hi < freqs.size and binary[hi]:
                hi += 1
            out[lo:hi] = 0.0
        k += 1
    return out


def wrap_corrected_lag(a, b, spec_a, spec_b, max_lag):
    """Lag in [-max_lag, max_lag] maximizing sum_t a[t + L] * b[t], from one
    full-length circular correlation of the spectra ``spec_a`` and
    ``spec_b``: lag L of it also sums the |L| products that wrap around the
    ends, which are subtracted.  Same tolerance and tie rule as the library."""
    n, k = a.size, max_lag
    circular = np.fft.irfft(spec_a * np.conj(spec_b), n=n)
    wrap_pos = np.convolve(a[:k], b[n - k :][::-1])[:k]
    wrap_neg = np.convolve(b[:k], a[n - k :][::-1])[:k]
    window = np.concatenate(
        (circular[n - k :] - wrap_neg[::-1], circular[:1], circular[1 : k + 1] - wrap_pos)
    )
    tolerance = 1e-12 * math.sqrt(float(np.dot(a, a)) * float(np.dot(b, b)))
    hits = np.flatnonzero(window >= window.max() - tolerance) - k
    return int(min(hits, key=lambda lag: (abs(int(lag)), int(lag))))


def loop_multi(trace, count, config):
    """The multi-motor path written with the oracles above."""
    fs = trace.sample_rate_hz
    beta = default_harmonic_weights(config.m_harmonics).values
    enhanced = delay_and_sum(
        trace, NoiseReference.unity(trace.n_samples), int(round(config.max_lag_s * fs))
    )
    segment = config.welch_segment or default_segment_len(fs, enhanced.size)
    spec = welch_psd(enhanced, fs, segment)
    band = log_normalize(
        PowerSpectrum(
            frequencies=spec.frequencies[: config.input_bins],
            densities=spec.densities[: config.input_bins],
            resolution_df=spec.resolution_df,
        )
    )
    dmap = threshold_detector(band, quantile=config.threshold_quantile)
    freqs = dmap.bin_frequencies
    spacing = float(freqs[1] - freqs[0])
    delta_f = spacing if config.delta_f_hz is None else config.delta_f_hz
    probs = dmap.probabilities.copy()
    picks = []
    for pick in range(count):
        cands, scores = loop_scores(probs, freqs, beta, config.f_min_hz, delta_f)
        keep = np.array(
            [
                loop_supported(
                    probs, freqs, float(g), delta_f, config.n_support,
                    config.detection_threshold,
                )
                for g in cands
            ]
        ) & (scores > 0.0)
        if not keep.any():
            if pick > 0:
                break
            best, flags = int(np.argmax(scores)), ("fallback", "low_confidence")
        else:
            best, flags = int(np.argmax(np.where(keep, scores, -np.inf))), ()
        fine = padded_fine(enhanced, fs, float(cands[best]), segment, config.gamma, delta_f)
        picks.append((60.0 * fine, float(cands[best]), flags))
        probs = loop_clear(probs, freqs, fine, delta_f, config.detection_threshold)
    if len(picks) < count:
        picks = [(rpm, coarse, flags + ("harmonic_shortfall",)) for rpm, coarse, flags in picks]
    return picks


def einsum_conv(x, w, b):
    k = w.shape[2]
    pad = (k - 1) // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad))) if pad else x
    windows = np.lib.stride_tricks.sliding_window_view(xp, k, axis=2)
    return np.einsum("bclk,ock->bol", windows, w, optimize=True) + b[None, :, None]


def einsum_forward(spectra, weights):
    """Inference pass of the unfolded network: every branch, projection and
    decoder convolution on its own, each an einsum over the windows."""
    cfg, p = weights.config, weights.params
    cur = spectra[:, None, :]
    skips = []
    for level in range(cfg.encoder_levels):
        cat = np.concatenate(
            [
                einsum_conv(
                    cur, p[f"enc{level}.branch{w}.weight"], p[f"enc{level}.branch{w}.bias"]
                )
                for w in cfg.multiscale_kernel_widths
            ],
            axis=1,
        )
        proj = einsum_conv(cat, p[f"enc{level}.project.weight"], p[f"enc{level}.project.bias"])
        skips.append(relu_forward(proj))
        cur, _ = maxpool_forward(skips[-1], cfg.pool_kernel)
    for level in reversed(range(cfg.encoder_levels)):
        up = resize_forward(cur, cur.shape[2] * cfg.pool_kernel)
        cat = np.concatenate([up, skips[level]], axis=1)
        cur = relu_forward(
            einsum_conv(cat, p[f"dec{level}.conv.weight"], p[f"dec{level}.conv.bias"])
        )
    feats = [cur]
    for m in cfg.pyramid_pool_kernels:
        pooled = avgpool_forward(cur, m)
        proj = einsum_conv(pooled, p[f"pyr{m}.conv.weight"], p[f"pyr{m}.conv.bias"])
        feats.append(resize_forward(proj, cfg.input_bins))
    z = einsum_conv(np.concatenate(feats, axis=1), p["head.conv.weight"], p["head.conv.bias"])
    bn = batchnorm_forward_eval(
        z, p["head.bn.gamma"], p["head.bn.beta"], weights.bn_state["head.bn.running_mean"],
        weights.bn_state["head.bn.running_var"], cfg.bn_eps,
    )
    return sigmoid_forward(bn)[:, 0, :]


def einsum_conv_backward(dy, x, w):
    """Gradients of einsum_conv: the weight gradient as one einsum over the
    windows, the input gradient as one einsum per tap."""
    k = w.shape[2]
    pad = (k - 1) // 2
    length = x.shape[2]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad))) if pad else x
    windows = np.lib.stride_tricks.sliding_window_view(xp, k, axis=2)
    dw = np.einsum("bol,bclk->ock", dy, windows, optimize=True)
    dxp = np.zeros_like(xp)
    for d in range(k):
        dxp[:, :, d : d + length] += np.einsum("bol,oc->bcl", dy, w[:, :, d], optimize=True)
    return dxp[:, :, pad : pad + length], dw, dy.sum(axis=(0, 2))


def einsum_loss_and_grads(spectra, masks, weights, dice_eps=1.0):
    """The training step with no encoder level folded: every branch, then
    the projection, each convolution an einsum forward and backward.
    Returns (mean dice loss, gradients)."""
    cfg, p = weights.config, weights.params
    f, widths = cfg.filters_per_conv, cfg.multiscale_kernel_widths
    grads = {}

    def conv(name, x):
        return einsum_conv(x, p[f"{name}.weight"], p[f"{name}.bias"])

    def conv_back(name, dy, x):
        dx, grads[f"{name}.weight"], grads[f"{name}.bias"] = einsum_conv_backward(
            dy, x, p[f"{name}.weight"]
        )
        return dx

    cur = spectra[:, None, :]
    enc = []  # (input, branch outputs, projection, skip, pool indices)
    for level in range(cfg.encoder_levels):
        cat = np.concatenate([conv(f"enc{level}.branch{w}", cur) for w in widths], axis=1)
        proj = conv(f"enc{level}.project", cat)
        skip = relu_forward(proj)
        pooled, idx = maxpool_forward(skip, cfg.pool_kernel)
        enc.append((cur, cat, proj, skip, idx))
        cur = pooled
    dec = {}
    for level in reversed(range(cfg.encoder_levels)):
        up = resize_forward(cur, cur.shape[2] * cfg.pool_kernel)
        cat = np.concatenate([up, enc[level][3]], axis=1)
        z = conv(f"dec{level}.conv", cat)
        dec[level] = (cur.shape[2], cat, z)
        cur = relu_forward(z)
    feats, pooled = [cur], {}
    for m in cfg.pyramid_pool_kernels:
        pooled[m] = avgpool_forward(cur, m)
        feats.append(resize_forward(conv(f"pyr{m}.conv", pooled[m]), cfg.input_bins))
    head_in = np.concatenate(feats, axis=1)
    bn, bn_cache, _, _ = batchnorm_forward_train(
        conv("head.conv", head_in), p["head.bn.gamma"], p["head.bn.beta"], cfg.bn_eps
    )
    probs = sigmoid_forward(bn)

    b = spectra.shape[0]
    loss = float(np.mean([dice_loss(probs[i, 0], masks[i], eps=dice_eps) for i in range(b)]))
    g = np.stack([dice_loss_grad(probs[i, 0], masks[i], eps=dice_eps) / b for i in range(b)])
    g, grads["head.bn.gamma"], grads["head.bn.beta"] = batchnorm_backward(
        sigmoid_backward(g[:, None, :], probs), bn_cache
    )
    g = conv_back("head.conv", g, head_in)
    d_cur = g[:, :f].copy()
    offset = f
    for m in cfg.pyramid_pool_kernels:
        g_proj = resize_backward(g[:, offset : offset + cfg.reduced_filters], m)
        offset += cfg.reduced_filters
        d_cur += avgpool_backward(conv_back(f"pyr{m}.conv", g_proj, pooled[m]), cfg.input_bins)
    d_skip = {}
    for level in range(cfg.encoder_levels):
        in_len, cat, z = dec[level]
        g_cat = conv_back(f"dec{level}.conv", relu_backward(d_cur, z), cat)
        d_skip[level] = g_cat[:, f:]
        d_cur = resize_backward(g_cat[:, :f], in_len)
    for level in reversed(range(cfg.encoder_levels)):
        x_in, cat, proj, _, idx = enc[level]
        g_skip = maxpool_backward(d_cur, idx, cfg.pool_kernel) + d_skip[level]
        g_cat = conv_back(f"enc{level}.project", relu_backward(g_skip, proj), cat)
        d_cur = sum(
            conv_back(f"enc{level}.branch{w}", g_cat[:, i * f : (i + 1) * f], x_in)
            for i, w in enumerate(widths)
        )
    return loss, grads


def add_at_resize_backward(dy, l_in):
    b, c, l_out = dy.shape
    i0, i1, w0, w1 = _resize_table(l_in, l_out)
    flat = np.zeros((b * c, l_in))
    dyf = dy.reshape(b * c, l_out)
    rows = np.arange(b * c)[:, None]
    np.add.at(flat, (rows, i0[None, :]), dyf * w0)
    np.add.at(flat, (rows, i1[None, :]), dyf * w1)
    return flat.reshape(b, c, l_in)


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------


# a small network with three encoder levels, the deepest 8 bins long
SMALL_NET = PpspConfig(
    input_bins=32, encoder_levels=3, filters_per_conv=8,
    multiscale_kernel_widths=(3, 5, 7), seed=2,
)


def perturbed_weights(config, rng):
    """Initial weights with non-zero biases and batch-norm statistics, so
    that the folded bias and its gradient count."""
    weights = init_weights(config)
    for name, value in weights.params.items():
        if name.endswith(".bias"):
            weights.params[name] = rng.normal(scale=0.1, size=value.shape)
    weights.bn_state["head.bn.running_mean"] = np.array([0.05])
    weights.bn_state["head.bn.running_var"] = np.array([0.5])
    return weights


def random_map(rng):
    """A detection map with many exact score ties: probabilities drawn from
    a few levels, or all below the threshold so the fallback runs."""
    n = int(rng.integers(20, 200))
    spacing = float(rng.choice([1.0, 0.37, 2.0 / 3.0]))
    # an offset of half a 1 Hz bin puts multiples exactly halfway between bins
    freqs = float(rng.choice([0.0, 0.5, 1.3])) + np.arange(n) * spacing
    kind = int(rng.integers(0, 3))
    if kind == 0:
        probs = rng.choice([0.0, 0.25, 0.5, 1.0], size=n, p=[0.8, 0.05, 0.05, 0.1])
    elif kind == 1:
        probs = rng.uniform(0.0, 0.49, size=n)
    else:
        probs = rng.uniform(0.0, 1.0, size=n) ** 4
    return probs, freqs, spacing


def mixture(rng, fundamentals_hz, duration_s, top_hz=None):
    """Two motors with 2-4 harmonics each, or every harmonic up to top_hz."""
    motors = [
        MotorProfile(
            period_s=1.0 / f0,
            harmonics=[
                (k, float(rng.uniform(0.3, 1.0)), float(rng.uniform(0, 2 * np.pi)))
                for k in range(
                    1, (int(top_hz // f0) if top_hz else int(rng.integers(2, 5))) + 1
                )
            ],
            position_cm=(x, 0.0),
        )
        for f0, x in zip(fundamentals_hz, (-8.0, 8.0))
    ]
    geometry = ArrayGeometry(
        sensor_positions_cm=((-12.0, 6.0), (-4.0, 6.0), (4.0, 6.0), (12.0, 6.0))
    )
    noise = NoiseProfile(
        mains_components=((60.0, 0.0005),), broadband_sigma=0.0005, shared_fraction=0.3
    )
    seed = int(rng.integers(0, 2**31))
    return simulate_mixture(motors, geometry, noise, CoilParams(), duration_s, 8192.0, seed)


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


class TestCoarseAgainstLoops:
    def test_scores_pick_and_flags_bit_equal(self):
        rng = np.random.default_rng(2024)
        fallbacks = wide = 0
        for _ in range(150):
            probs, freqs, spacing = random_map(rng)
            delta_f = float(rng.choice([0.3, 1.0, 2.6, 5.0])) * spacing
            m = int(rng.integers(1, 10))
            beta = 1.0 / np.arange(1, m + 1) if rng.random() < 0.5 else rng.normal(size=m)
            f_min = float(rng.choice([freqs[1], freqs[freqs.size // 8]]))
            n_support = int(rng.integers(2, 7))
            threshold = float(rng.choice([0.3, 0.5, 1.0]))
            dmap = DetectionMap(probabilities=probs, bin_frequencies=freqs)
            like = compute_likelihood(
                dmap, HarmonicWeights(beta), f_min_hz=f_min, delta_f_hz=delta_f
            )
            cands, scores = loop_scores(probs, freqs, beta, f_min, delta_f)
            np.testing.assert_array_equal(like.candidate_hz, cands)
            np.testing.assert_array_equal(like.scores, scores)
            result = coarse_estimate(
                dmap, HarmonicWeights(beta), f_min_hz=f_min, delta_f_hz=delta_f,
                n_support=n_support, detection_threshold=threshold,
            )
            expected = loop_coarse(
                probs, freqs, beta, f_min, delta_f, n_support, threshold
            )
            assert (result.frequency_hz, result.score, result.flags) == expected
            fallbacks += bool(result.flags)
            wide += delta_f > spacing
        assert fallbacks > 10 and wide > 50

    def test_default_tolerance_and_weights(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            probs, freqs, spacing = random_map(rng)
            dmap = DetectionMap(probabilities=probs, bin_frequencies=freqs)
            result = coarse_estimate(dmap, f_min_hz=freqs[1])
            beta = default_harmonic_weights().values
            expected = loop_coarse(probs, freqs, beta, freqs[1], spacing, 4, 0.5)
            assert (result.frequency_hz, result.score, result.flags) == expected

    def test_fit_beta_features(self):
        rng = np.random.default_rng(11)
        maps, truths, rows, targets = [], [], [], []
        for _ in range(12):
            probs, freqs, spacing = random_map(rng)
            maps.append(DetectionMap(probabilities=probs, bin_frequencies=freqs))
            truths.append(float(rng.uniform(freqs[2], freqs[-1] / 2)))
            cands, features = loop_features(probs, freqs, 2.0, spacing, 6)
            rows.append(features)
            target = np.zeros(cands.size)
            target[int(np.argmin(np.abs(cands - truths[-1])))] = 1.0
            targets.append(target)
        got = fit_beta(maps, truths, m_harmonics=6, f_min_hz=2.0)
        design, target = np.concatenate(rows), np.concatenate(targets)
        gram = design.T @ design + np.eye(6)
        np.testing.assert_array_equal(got.values, np.linalg.solve(gram, design.T @ target))


class TestFineAgainstPaddedWelch:
    @pytest.mark.parametrize("duration_s", [1.0, 8.0])
    @pytest.mark.parametrize("gamma", [1, 50])
    def test_pick_equals_padded_argmax(self, duration_s, gamma):
        rng = np.random.default_rng(int(duration_s) * 100 + gamma)
        fs, segment = 8192.0, 8192
        n = int(duration_s * fs)
        t = np.arange(n) / fs
        for _ in range(4 if duration_s == 1.0 else 2):
            f0 = float(rng.uniform(20.0, 140.0))
            signal = sum(
                rng.uniform(0.2, 1.0) * np.sin(2 * np.pi * k * f0 * t + rng.uniform(0, 6))
                for k in (1, 2, 3)
            ) + 0.05 * rng.normal(size=n)
            coarse = float(round(f0 + rng.choice([-1.0, 0.0, 1.0])))
            delta_f = float(rng.choice([1.0, 2.5]))
            got = fine_estimate(
                signal, fs, coarse, segment_len=segment, gamma=gamma, delta_f_hz=delta_f
            )
            assert got == padded_fine(signal, fs, coarse, segment, gamma, delta_f)


class TestPipelineAgainstLoops:
    def test_single_and_multi_motor_estimates(self):
        rng = np.random.default_rng(31)
        config = PipelineConfig()
        for _ in range(4):
            f1 = float(rng.uniform(20.0, 140.0))
            f2 = 20.0 + (f1 - 20.0 + float(rng.uniform(10.0, 110.0))) % 120.0
            trace = mixture(rng, (f1, f2), 1.0)
            got = [
                (e.rpm, e.coarse_hz, e.flags) for e in estimate_rpm_multi(trace, 3, config)
            ]
            assert got == loop_multi(trace, 3, config)
            single = estimate_rpm(trace, config)
            rpm, coarse, flags = loop_multi(trace, 1, config)[0]
            assert (single.rpm, single.coarse_hz) == (rpm, coarse)

    def test_multi_motor_with_harmonics_up_to_the_band_edge(self):
        # every multiple up to the band edge carries evidence, so clearing
        # the winner's top multiples changes what the next pick sees
        rng = np.random.default_rng(43)
        config = PipelineConfig()
        for _ in range(3):
            f1, f2 = (float(f) for f in rng.uniform(60.0, 140.0, size=2))
            trace = mixture(rng, (f1, f2), 1.0, top_hz=config.input_bins - 1.0)
            got = [
                (e.rpm, e.coarse_hz, e.flags) for e in estimate_rpm_multi(trace, 3, config)
            ]
            assert got == loop_multi(trace, 3, config)


class TestDelayAndSumAgainstWrapCorrection:
    @pytest.mark.parametrize("duration_s", [1.0, 8.0])
    def test_lags_and_sums_equal(self, duration_s):
        # the oracle always takes the full denoising round trip and aligns
        # on its spectra; the library skips the round trip for a reference
        # at the floor and sums block correlations, and must pick the same
        # lags for the same 4-coil captures
        rng = np.random.default_rng(61 if duration_s == 1.0 else 67)
        max_lag = int(round(PipelineConfig().max_lag_s * 8192.0))
        lags_seen = set()
        for _ in range(2):
            trace = mixture(rng, tuple(rng.uniform(20.0, 140.0, size=2)), duration_s)
            background = mixture(rng, tuple(rng.uniform(20.0, 140.0, size=2)), duration_s)
            references = (
                NoiseReference.unity(trace.n_samples),
                NoiseReference.from_signal(background.channels[0]),
            )
            assert references[1].magnitudes.max() > 1.0
            for reference in references:
                floored = np.maximum(reference.magnitudes, 1.0)
                spectra = np.fft.rfft(trace.channels, axis=-1) / floored
                round_trip = np.fft.irfft(spectra, n=trace.n_samples, axis=-1)
                lags = [
                    wrap_corrected_lag(x, round_trip[0], spec, spectra[0], max_lag)
                    for x, spec in zip(round_trip[1:], spectra[1:])
                ]
                lags_seen.update(lags)
                at_floor = reference.magnitudes.max() <= 1.0
                channels = trace.channels if at_floor else round_trip
                expected = channels[0].copy()
                for x, lag in zip(channels[1:], lags):
                    expected += shift_signal(x, lag)
                np.testing.assert_array_equal(
                    delay_and_sum(trace, reference, max_lag), expected
                )
        assert len(lags_seen) > 3


class TestClearingAgainstLoop:
    def test_cleared_maps_equal_the_bin_walk(self):
        rng = np.random.default_rng(57)
        kinds = set()
        for trial in range(300):
            n = int(rng.integers(8, 300))
            spacing = float(rng.choice([1.0, 0.37, 2.0 / 3.0]))
            freqs = float(rng.choice([0.0, 0.5, 1.3])) + np.arange(n) * spacing
            kind = trial % 4
            if kind == 0:  # everything flagged, as from an untrained network
                probs = rng.uniform(0.5, 1.0, size=n)
            elif kind == 1:  # sparse runs, with runs touching both ends
                probs = rng.choice([0.0, 0.2, 0.7, 1.0], size=n, p=[0.5, 0.2, 0.15, 0.15])
                probs[: int(rng.integers(1, 4))] = 0.9
                probs[-int(rng.integers(1, 4)) :] = 0.9
            elif kind == 2:  # nothing flagged
                probs = rng.uniform(0.0, 0.49, size=n)
            else:
                probs = rng.uniform(0.0, 1.0, size=n) ** 2
            # r = 0 (delta_f under half a bin) up to a wide window
            delta_f = float(rng.choice([0.3, 1.0, 2.6, 7.0])) * spacing
            band_max = float(freqs[-1])
            fine = float(
                rng.choice(
                    [
                        rng.uniform(freqs[1], band_max / 2),
                        freqs[int(rng.integers(1, n))],
                        (band_max + delta_f) / int(rng.integers(1, 6)),
                        rng.uniform(band_max / 2, band_max + delta_f),
                    ]
                )
            )
            dmap = DetectionMap(probabilities=probs, bin_frequencies=freqs)
            got = probs.copy()
            got[_cleared_bins(dmap, fine, delta_f, 0.5)] = 0.0
            np.testing.assert_array_equal(got, loop_clear(probs, freqs, fine, delta_f, 0.5))
            kinds.add((kind, delta_f < spacing / 2))
        assert len(kinds) == 8

    def test_zero_hz_pick_clears_its_one_window(self):
        freqs = np.arange(40.0)
        probs = np.zeros(40)
        probs[[0, 1, 2, 10, 20]] = 1.0
        dmap = DetectionMap(probabilities=probs, bin_frequencies=freqs)
        cleared = _cleared_bins(dmap, 0.0, 1.0, 0.5)
        np.testing.assert_array_equal(np.flatnonzero(cleared), [0, 1, 2])


class TestResizeBackwardAgainstAddAt:
    @pytest.mark.parametrize(
        "shape, l_in",
        [
            ((8, 64, 1024), 512), ((3, 5, 7), 3), ((2, 4, 32), 1), ((1, 1, 2), 2),
            ((3, 5, 8), 4), ((2, 4, 4), 2),
        ],
    )
    def test_bit_equal(self, shape, l_in):
        dy = np.random.default_rng(sum(shape) + l_in).normal(size=shape)
        np.testing.assert_array_equal(
            resize_backward(dy, l_in), add_at_resize_backward(dy, l_in)
        )


class TestPpspForwardAgainstUnfoldedEinsum:
    def test_conv_matches_einsum(self):
        rng = np.random.default_rng(5)
        # the last two: inputs shorter than the kernel, with one and with
        # several channels
        for batch, c_in, c_out, k, length in [
            (1, 1, 64, 15, 1024), (3, 128, 64, 3, 64), (2, 5, 3, 1, 9),
            (2, 1, 3, 7, 2), (2, 3, 4, 15, 4),
        ]:
            x = rng.normal(size=(batch, c_in, length))
            w = rng.normal(size=(c_out, c_in, k))
            b = rng.normal(size=c_out)
            np.testing.assert_allclose(
                conv1d_forward(x, w, b), einsum_conv(x, w, b), rtol=1e-12, atol=1e-12
            )

    # inference folds every encoder level, whatever the batch size
    @pytest.mark.parametrize(
        "config, batch, folded",
        [
            (PpspConfig(), 1, [True] * 9),
            (PpspConfig(), 3, [True] * 9),
            (SMALL_NET, 1, [True] * 3),
            (SMALL_NET, 3, [True] * 3),
        ],
    )
    def test_forward_within_1e12(self, config, batch, folded):
        rng = np.random.default_rng(batch)
        weights = perturbed_weights(config, rng)
        spectra = rng.uniform(size=(batch, config.input_bins))
        np.testing.assert_allclose(
            ppsp_forward(spectra, weights), einsum_forward(spectra, weights),
            rtol=0.0, atol=1e-12,
        )
        assert [level in weights._folds for level in range(config.encoder_levels)] == folded


class TestPpspTrainingAgainstUnfoldedEinsum:
    def test_conv_backward_matches_einsum(self):
        rng = np.random.default_rng(6)
        # k = 1, C_out = 1, B > 1, the widest branch on a long input, and a
        # kernel wider than the input
        for batch, c_in, c_out, k, length in [
            (2, 5, 3, 1, 9), (3, 7, 1, 3, 16), (4, 8, 6, 7, 32), (1, 1, 64, 15, 1024),
            (2, 3, 4, 15, 4),
        ]:
            x = rng.normal(size=(batch, c_in, length))
            w = rng.normal(size=(c_out, c_in, k))
            # dy in the channel-major layout that conv1d_forward returns
            dy = rng.normal(size=(c_out, batch, length)).transpose(1, 0, 2)
            for got, want in zip(conv1d_backward(dy, x, w), einsum_conv_backward(dy, x, w)):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    # training folds every encoder level, whatever the batch size
    @pytest.mark.parametrize(
        "config, batch", [(PpspConfig(), 8), (SMALL_NET, 1), (PpspConfig(), 1)]
    )
    def test_loss_and_gradients_within_1e10(self, config, batch):
        rng = np.random.default_rng(batch + 10)
        weights = perturbed_weights(config, rng)
        spectra = rng.uniform(size=(batch, config.input_bins))
        masks = (rng.uniform(size=(batch, config.input_bins)) > 0.9).astype(np.float64)
        loss, grads, _ = loss_and_grads(spectra, masks, weights)
        want_loss, want = einsum_loss_and_grads(spectra, masks, weights)
        assert loss == pytest.approx(want_loss, rel=1e-12)
        assert grads.keys() == want.keys()
        for name, g in want.items():
            # floor: batch norm cancels the head bias, whose gradient is
            # rounding noise of order 1e-15 on both sides
            atol = max(1e-10 * float(np.abs(g).max()), 1e-13)
            np.testing.assert_allclose(grads[name], g, rtol=0.0, atol=atol, err_msg=name)
